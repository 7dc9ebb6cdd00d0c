//! The configuration checker: classify a [`RuleConfig`] against one job's
//! plan **without compiling anything**.
//!
//! [`JobLint::new`] runs the (cheap, pure) normalization pass once per job
//! and derives from the normalized operator counts the over-approximated
//! set of kinds any memo expression can ever have under *any* config: the
//! kinds present in the normalized plan, plus `Project` (the only kind
//! exploration can introduce where none existed, via the `PruneBelow`
//! family). Every rewrite in the catalog either keeps its anchor kind,
//! hoists a kind already present below the match, or substitutes the
//! match's child — so memo expression kinds are provably contained in this
//! set.
//!
//! [`JobLint::classify`] returns [`ConfigVerdict::Invalid`] when some
//! present kind has no enabled implementation and no enabled escape route
//! (fixpoint over [`scope_optimizer::AnchorRewrite`] edges): compilation is
//! *certain* to fail. The escape analysis over-approximates
//! implementability, so `Invalid` is sound — a config this analyzer rejects
//! can never compile. Everything else is [`ConfigVerdict::Valid`], which
//! only a compile can confirm (a missing exchange, an exhausted budget).

use scope_ir::{OpKind, PlanGraph};
use scope_optimizer::{normalized_kind_counts, RuleConfig};

use crate::rulegraph::RuleGraph;
use crate::violation::LintViolation;

/// Whether a configuration can compile against one job's plan.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigVerdict {
    /// Not provably doomed: only a compile tells.
    Valid,
    /// Certain to fail compilation; the violations say why.
    Invalid { violations: Vec<LintViolation> },
}

/// Per-job static analyzer: normalized kind counts plus the derived
/// reachable-kind set (see module docs).
pub struct JobLint {
    kind_counts: [u32; OpKind::COUNT],
    reachable: [bool; OpKind::COUNT],
}

impl JobLint {
    /// Analyze one job plan. Runs normalization (cheap and pure); nothing
    /// is compiled.
    pub fn new(plan: &PlanGraph) -> JobLint {
        let kind_counts = normalized_kind_counts(plan);
        let mut reachable = kind_counts.map(|count| count > 0);
        // The one kind exploration can introduce where none existed:
        // `PruneBelow` inserts narrowing projections below its anchors.
        reachable[OpKind::Project as usize] = true;
        JobLint {
            kind_counts,
            reachable,
        }
    }

    /// Violations that make compilation *certain* to fail, via a fixpoint
    /// over implementability: a kind is implementable if it has an enabled
    /// implementation rule, an enabled `Child` escape, or an enabled
    /// `Becomes` escape into a reachable implementable kind. A present kind
    /// that is not implementable dooms its memo group — every alternative
    /// the group can ever hold keeps the kind.
    pub(crate) fn certain_failures(&self, config: &RuleConfig) -> Vec<LintViolation> {
        let graph = RuleGraph::global();
        let mut impl_ok = [false; OpKind::COUNT];
        for kind in OpKind::ALL {
            if !self.reachable[kind as usize] {
                continue;
            }
            impl_ok[kind as usize] = graph.impls(kind).iter().any(|id| config.is_enabled(id))
                || graph
                    .child_escapes(kind)
                    .iter()
                    .any(|id| config.is_enabled(id));
        }
        // Propagate Becomes-escapes to fixpoint (≤ OpKind::COUNT rounds).
        loop {
            let mut changed = false;
            for &(id, anchor, target) in graph.becomes_edges() {
                if config.is_enabled(id)
                    && self.reachable[anchor as usize]
                    && !impl_ok[anchor as usize]
                    && self.reachable[target as usize]
                    && impl_ok[target as usize]
                {
                    impl_ok[anchor as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut out = Vec::new();
        for kind in OpKind::ALL {
            if self.kind_counts[kind as usize] > 0 && !impl_ok[kind as usize] {
                out.push(LintViolation::NoImplementation {
                    kind,
                    disabled_impls: *graph.impls(kind),
                });
            }
        }
        // Exchange coverage is plan-dependent (only plans needing a
        // repartition fail), so disabled exchange impls are never a
        // certain failure.
        out
    }

    /// The verdict: `Invalid` iff `certain_failures` finds any.
    pub fn classify(&self, config: &RuleConfig) -> ConfigVerdict {
        let violations = self.certain_failures(config);
        if violations.is_empty() {
            ConfigVerdict::Valid
        } else {
            ConfigVerdict::Invalid { violations }
        }
    }
}

/// Plan-independent config defects: kinds every legal plan contains
/// (`Output` — both validators require an `Output` root) with no enabled
/// implementation and no escape. A config rejected here can compile no
/// job at all; deployment quarantines such hints at ingestion.
pub fn catalog_invalid(config: &RuleConfig) -> Vec<LintViolation> {
    let graph = RuleGraph::global();
    let mut out = Vec::new();
    // `Output` is the one kind every legal plan contains.
    let kind = OpKind::Output;
    let ok = graph.impls(kind).iter().any(|id| config.is_enabled(id))
        || graph
            .child_escapes(kind)
            .iter()
            .any(|id| config.is_enabled(id));
    // `Becomes` escapes cannot help: no rule rewrites an `Output` into
    // another kind (checked against the rule graph rather than assumed).
    let becomes_escape = graph
        .becomes_edges()
        .iter()
        .any(|&(id, anchor, _)| anchor == kind && config.is_enabled(id));
    if !ok && !becomes_escape {
        out.push(LintViolation::NoImplementation {
            kind,
            disabled_impls: *graph.impls(kind),
        });
    }
    out
}
