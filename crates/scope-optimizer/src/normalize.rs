//! The required normalization pass.
//!
//! Before cost-based exploration, the required rules rewrite the raw script
//! plan into normalized form: `Get` → `RangeGet` (`GetToRange`), `Select` →
//! `Filter` (`SelectToFilter`), and the output is marked (`BuildOutput`).
//! These rules cannot be disabled; they always contribute to the rule
//! signature when they fire.
//!
//! `normal_form` is the one definition of the rewrite and `walk` the
//! one walk that applies it. A compile builds no normalized plan: the memo
//! ingests the job's plan through the walk (`Memo::ingest`), rewriting each
//! operator into a staged one as it inserts it, and the fired rules, the
//! kind counts and the referenced columns come from the same walk.
//! [`normalize`], `certain_signature` and `normalized_kind_counts` walk
//! the plan the same way.

use std::convert::Infallible;
use std::sync::OnceLock;

use scope_ir::ids::NodeId;
use scope_ir::{LogicalOp, OpKind, PlanGraph, Predicate};

use crate::rules::RuleCatalog;
use crate::ruleset::{RuleId, RuleSet};

/// Result of normalization: the rewritten plan plus the required rules that
/// fired.
pub struct Normalized {
    pub plan: PlanGraph,
    pub fired: RuleSet,
}

/// What normalizing a plan fires and leaves, without the plan itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Normalization {
    /// The normalizers that fire on some node, and `BuildOutput` when the
    /// root is an `Output`.
    pub(crate) fired: RuleSet,
    /// Operator-kind counts of the normalized plan's reachable nodes.
    pub(crate) kind_counts: [u32; OpKind::COUNT],
}

/// The three normalizers' ids, looked up once.
struct Normalizers {
    get_to_range: RuleId,
    select_to_filter: RuleId,
    build_output: RuleId,
}

fn normalizers() -> &'static Normalizers {
    static IDS: OnceLock<Normalizers> = OnceLock::new();
    IDS.get_or_init(|| {
        let cat = RuleCatalog::global();
        let find = |name| cat.find(name).expect("catalog rule");
        Normalizers {
            get_to_range: find("GetToRange"),
            select_to_filter: find("SelectToFilter"),
            build_output: find("BuildOutput"),
        }
    })
}

/// Where [`normal_form`] writes the operators it rewrites. The staged
/// filter's predicate list keeps its capacity, so rewriting a `Select`
/// allocates nothing once it has held the longest predicate.
pub(crate) struct Staged {
    scan: LogicalOp,
    filter: LogicalOp,
}

impl Default for Staged {
    fn default() -> Staged {
        Staged {
            scan: LogicalOp::Get {
                table: scope_ir::ids::TableId(0),
            },
            filter: LogicalOp::Filter {
                predicate: Predicate::true_pred(),
            },
        }
    }
}

/// The normalized form of `op` and the normalizer that produced it: a
/// `Get` becomes a `RangeGet` with nothing pushed (`GetToRange`) and a
/// `Select` a `Filter` on its predicate (`SelectToFilter`), both written
/// into `stage`; every other operator is its own normal form.
pub(crate) fn normal_form<'a>(
    op: &'a LogicalOp,
    stage: &'a mut Staged,
) -> (&'a LogicalOp, Option<RuleId>) {
    match op {
        LogicalOp::Get { table } => {
            stage.scan = LogicalOp::RangeGet {
                table: *table,
                pushed: Predicate::true_pred(),
            };
            (&stage.scan, Some(normalizers().get_to_range))
        }
        LogicalOp::Select { predicate } => {
            let LogicalOp::Filter { predicate: staged } = &mut stage.filter else {
                unreachable!("the staged filter is a Filter");
            };
            staged.clone_from(predicate);
            (&stage.filter, Some(normalizers().select_to_filter))
        }
        other => (other, None),
    }
}

/// The reusable buffers of [`walk`]: reachability flags, the reachability
/// walk's stack and the staged operators. Each is overwritten by the next
/// walk and keeps its capacity.
#[derive(Default)]
pub(crate) struct WalkScratch {
    reachable: Vec<bool>,
    stack: Vec<NodeId>,
    stage: Staged,
}

/// Walk `plan` in arena (= topological) order in normalized form: `visit`
/// sees each node's id, normal form, children and whether the root reaches
/// it, and an error it returns ends the walk. Returns what the walk fired
/// and counted. Panics on a node whose operator takes another number of
/// children, as building the normalized plan would.
pub(crate) fn walk<E>(
    plan: &PlanGraph,
    scratch: &mut WalkScratch,
    mut visit: impl FnMut(NodeId, &LogicalOp, &[NodeId], bool) -> Result<(), E>,
) -> Result<Normalization, E> {
    let WalkScratch {
        reachable,
        stack,
        stage,
    } = scratch;
    plan.mark_reachable(reachable, stack);
    let mut normal = Normalization {
        fired: RuleSet::EMPTY,
        kind_counts: [0; OpKind::COUNT],
    };
    for (id, node) in plan.iter() {
        let (op, fired) = normal_form(&node.op, stage);
        let (min, max) = op.arity();
        assert!(
            (min..=max).contains(&node.children.len()),
            "valid plan node: {} takes {min}..={max} children, got {}",
            op.kind().name(),
            node.children.len()
        );
        if let Some(rule) = fired {
            normal.fired.insert(rule);
        }
        let reached = reachable[id.index()];
        if reached {
            normal.kind_counts[op.kind() as usize] += 1;
        }
        visit(id, op, &node.children, reached)?;
    }
    if plan
        .root()
        .is_some_and(|root| matches!(plan.node(root).op, LogicalOp::Output { .. }))
    {
        normal.fired.insert(normalizers().build_output);
    }
    Ok(normal)
}

/// What normalizing `plan` fires and counts, from a walk that builds
/// nothing.
pub(crate) fn normalization(plan: &PlanGraph) -> Normalization {
    let Ok(normal) = walk(plan, &mut WalkScratch::default(), |_, _, _, _| {
        Ok::<(), Infallible>(())
    });
    normal
}

/// Apply the required normalizers. The input plan keeps its node ids
/// (rewrites here are 1:1).
pub fn normalize(plan: &PlanGraph) -> Normalized {
    let mut out = PlanGraph::new();
    let Ok(normal) = walk(plan, &mut WalkScratch::default(), |_, op, children, _| {
        out.add_unchecked(op.clone(), children.to_vec());
        Ok::<(), Infallible>(())
    });
    if let Some(root) = plan.root() {
        out.set_root(root);
    }
    Normalized {
        plan: out,
        fired: normal.fired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::expr::{CmpOp, Literal, PredAtom};
    use scope_ir::ids::{ColId, TableId};
    use scope_ir::OpKind;

    #[test]
    fn normalizes_get_and_select() {
        let mut g = PlanGraph::new();
        let s = g.add_unchecked(LogicalOp::Get { table: TableId(0) }, vec![]);
        let f = g.add_unchecked(
            LogicalOp::Select {
                predicate: Predicate::atom(PredAtom::unknown(ColId(0), CmpOp::Eq, Literal::Int(1))),
            },
            vec![s],
        );
        let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![f]);
        g.set_root(o);

        let n = normalize(&g);
        let counts = n.plan.op_counts();
        assert_eq!(counts[OpKind::Get as usize], 0);
        assert_eq!(counts[OpKind::Select as usize], 0);
        assert_eq!(counts[OpKind::RangeGet as usize], 1);
        assert_eq!(counts[OpKind::Filter as usize], 1);

        let cat = RuleCatalog::global();
        assert!(n.fired.contains(cat.find("GetToRange").unwrap()));
        assert!(n.fired.contains(cat.find("SelectToFilter").unwrap()));
        assert!(n.fired.contains(cat.find("BuildOutput").unwrap()));
        // Predicate preserved.
        let f_node = n
            .plan
            .iter()
            .find(|(_, node)| node.op.kind() == OpKind::Filter)
            .unwrap();
        assert_eq!(f_node.1.op.predicate().unwrap().len(), 1);
    }

    #[test]
    fn already_normalized_plan_fires_only_build_output() {
        let mut g = PlanGraph::new();
        let s = g.add_unchecked(
            LogicalOp::RangeGet {
                table: TableId(0),
                pushed: Predicate::true_pred(),
            },
            vec![],
        );
        let o = g.add_unchecked(LogicalOp::Output { stream: 0 }, vec![s]);
        g.set_root(o);
        let n = normalize(&g);
        assert_eq!(n.fired.len(), 1);
        assert_eq!(n.plan.size(), 2);
    }
}
