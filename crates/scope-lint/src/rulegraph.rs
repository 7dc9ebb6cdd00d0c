//! The rule graph, extracted once from the catalog.
//!
//! Nodes are operator kinds; edges are what rules can do to them: an
//! implementation rule *covers* its kind, and a `Becomes`/`Child` rewrite
//! lets a group *escape* its kind. Everything here is derived from
//! [`RuleAction::anchor_rewrite`] metadata — no plan is compiled.

use scope_ir::OpKind;
use scope_optimizer::{AnchorRewrite, RuleAction, RuleCatalog, RuleId, RuleSet};

/// Catalog-wide implementation and escape edges, indexed by operator kind.
pub struct RuleGraph {
    /// Implementation rules per kind (exchange impls excluded).
    impls: Vec<RuleSet>,
    /// `Becomes` escape edges: `(rule, anchor, target)`.
    becomes: Vec<(RuleId, OpKind, OpKind)>,
    /// `Child` escape rules per anchor kind (replace the match with its
    /// input of unknown kind).
    child_escapes: Vec<RuleSet>,
}

impl RuleGraph {
    /// The process-wide graph (derived from the global catalog).
    pub fn global() -> &'static RuleGraph {
        static GRAPH: std::sync::OnceLock<RuleGraph> = std::sync::OnceLock::new();
        GRAPH.get_or_init(|| RuleGraph::from_catalog(RuleCatalog::global()))
    }

    fn from_catalog(cat: &RuleCatalog) -> RuleGraph {
        let mut impls = vec![RuleSet::EMPTY; OpKind::COUNT];
        let mut becomes = Vec::new();
        let mut child_escapes = vec![RuleSet::EMPTY; OpKind::COUNT];
        for rule in cat.rules() {
            match &rule.action {
                RuleAction::Impl(p) => {
                    if let Some(kind) = p.implements() {
                        impls[kind as usize].insert(rule.id);
                    }
                }
                action if action.is_transformation() => {
                    let anchor = action.anchor().expect("transformations are anchored");
                    match action.anchor_rewrite() {
                        AnchorRewrite::Keeps => {}
                        AnchorRewrite::Becomes(target) => becomes.push((rule.id, anchor, target)),
                        AnchorRewrite::Child => child_escapes[anchor as usize].insert(rule.id),
                    }
                }
                _ => {}
            }
        }
        RuleGraph {
            impls,
            becomes,
            child_escapes,
        }
    }

    /// Implementation rules for `kind`.
    pub fn impls(&self, kind: OpKind) -> &RuleSet {
        &self.impls[kind as usize]
    }

    /// `Becomes` escape edges `(rule, anchor, target)`.
    pub fn becomes_edges(&self) -> &[(RuleId, OpKind, OpKind)] {
        &self.becomes
    }

    /// `Child` escape rules anchored on `kind`.
    pub(crate) fn child_escapes(&self, kind: OpKind) -> &RuleSet {
        &self.child_escapes[kind as usize]
    }
}
