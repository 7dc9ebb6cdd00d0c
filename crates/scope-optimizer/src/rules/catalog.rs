//! Deterministic construction of the 256-rule catalog.
//!
//! Category blocks: Required `0..=36`, Off-by-default `37..=82`,
//! On-by-default `83..=223`, Implementation `224..=255`. Names follow the
//! paper's naming style where the paper names a rule (`GetToRange`,
//! `CorrelatedJoinOnUnionAll1`, `SelectPartitions`, `HashJoinImpl1`, ...);
//! the remaining rules are generated family variants — exactly the flavour
//! of near-duplicate rules the paper describes ("a collection of slightly
//! different CorrelatedJoinOnUnion rules").

use scope_ir::OpKind;

use super::{AtomOrder, PhysImpl, Rule, RuleAction, RuleCatalog, RuleCategory};
use crate::ruleset::{RuleId, NUM_RULES};

/// Operator kinds that receive a firing `Canonicalize` marker. Plans never
/// contain `Get`/`Select` after normalization and simple unaries need no
/// canonicalization, so their markers exist but never fire — producing the
/// paper's "unused required rules".
pub(crate) const COMPLEX_KINDS: [OpKind; 8] = [
    OpKind::Join,
    OpKind::GroupBy,
    OpKind::UnionAll,
    OpKind::VirtualDataset,
    OpKind::Top,
    OpKind::Sort,
    OpKind::Window,
    OpKind::Process,
];

struct Builder {
    rules: Vec<Rule>,
}

impl Builder {
    fn push(&mut self, category: RuleCategory, name: impl Into<String>, action: RuleAction) {
        let id = RuleId(self.rules.len() as u16);
        self.rules.push(Rule {
            id,
            name: name.into(),
            category,
            action,
        });
    }

    fn count_in(&self, category: RuleCategory) -> usize {
        self.rules.iter().filter(|r| r.category == category).count()
    }
}

/// Build the full catalog. Panics if the construction does not produce the
/// paper's exact category counts — this is checked at startup by every user
/// of [`RuleCatalog::global`].
pub fn build() -> RuleCatalog {
    let mut b = Builder {
        rules: Vec::with_capacity(NUM_RULES),
    };

    build_required(&mut b);
    assert_eq!(b.rules.len(), 37, "required block");
    build_off_by_default(&mut b);
    assert_eq!(b.rules.len(), 37 + 46, "off-by-default block");
    build_on_by_default(&mut b);
    assert_eq!(b.rules.len(), 37 + 46 + 141, "on-by-default block");
    build_implementation(&mut b);
    assert_eq!(b.rules.len(), NUM_RULES, "implementation block");

    RuleCatalog::from_rules(b.rules)
}

fn build_required(b: &mut Builder) {
    use RuleAction::*;
    let c = RuleCategory::Required;
    b.push(c, "GetToRange", GetToRange);
    b.push(c, "SelectToFilter", SelectToFilter);
    b.push(c, "BuildOutput", BuildOutput);
    b.push(c, "EnforceExchange", EnforceExchange);
    for kind in OpKind::ALL {
        b.push(c, format!("Normalize{}", kind.name()), Canonicalize(kind));
    }
    // 19 guard rules. Guards over `Get`/`Select` can never fire on a
    // normalized plan; together with the non-complex Canonicalize markers
    // they form the "unused required rules" of Table 2.
    for i in 0..19u8 {
        let kind = OpKind::ALL[(i as usize) % OpKind::COUNT];
        let min_count = 2 + 2 * (i / 14);
        b.push(
            c,
            format!("{}Guard{}", kind.name(), min_count),
            Guard { kind, min_count },
        );
    }
    assert_eq!(b.count_in(c), 37);
}

fn build_off_by_default(b: &mut Builder) {
    use RuleAction::*;
    let c = RuleCategory::OffByDefault;

    // The paper's flagship off-by-default family: push a join below a
    // union-all. Variants differ in which side may hold the union and the
    // maximum union arity they fire on.
    let join_on_union: [(u8, bool); 8] = [
        (2, true),
        (2, false),
        (3, true),
        (4, true),
        (4, false),
        (6, true),
        (8, true),
        (16, true),
    ];
    for (i, (max_arity, left)) in join_on_union.into_iter().enumerate() {
        b.push(
            c,
            format!("CorrelatedJoinOnUnionAll{}", i + 1),
            JoinOnUnion { max_arity, left },
        );
    }

    for variant in 0..4u8 {
        let name = if variant == 0 {
            "GroupbyOnJoin".to_string()
        } else {
            format!("GroupbyOnJoin{}", variant + 1)
        };
        b.push(c, name, GroupByOnJoin { variant });
    }

    // Pushing filters through user-defined operators is unsafe in general
    // (the UDO may rewrite the filtered column) — experimental.
    b.push(
        c,
        "SelectOnProcess1",
        FilterBelow {
            kind: OpKind::Process,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnProcess2",
        FilterBelow {
            kind: OpKind::Process,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnTop",
        FilterBelow {
            kind: OpKind::Top,
            eq_only: false,
        },
    );

    // Experimental operator reorderings.
    let risky_swaps: [(OpKind, OpKind); 10] = [
        (OpKind::Top, OpKind::Filter),
        (OpKind::Top, OpKind::Project),
        (OpKind::Window, OpKind::Filter),
        (OpKind::Window, OpKind::Project),
        (OpKind::Process, OpKind::Project),
        (OpKind::Process, OpKind::Sort),
        (OpKind::Sort, OpKind::Process),
        (OpKind::Project, OpKind::Process),
        (OpKind::Filter, OpKind::Window),
        (OpKind::Top, OpKind::Sort),
    ];
    for (i, (parent, child)) in risky_swaps.into_iter().enumerate() {
        b.push(
            c,
            format!("Exp{}Under{}{}", parent.name(), child.name(), i + 1),
            SwapUnary {
                parent,
                child,
                variant: i as u8,
            },
        );
    }

    b.push(c, "SelectPredReversed", ReorderAtoms(AtomOrder::SelDesc));
    b.push(c, "ProcessOnUnionAll2", ProcessBelowUnion { variant: 1 });
    b.push(c, "TopOnUnionAllAggressive", TopBelowUnion { variant: 1 });
    b.push(c, "SplitGroupByAggressive1", SplitGroupBy { variant: 2 });
    b.push(c, "SplitGroupByAggressive2", SplitGroupBy { variant: 3 });
    b.push(
        c,
        "JoinAssocDeepLeft",
        JoinAssoc {
            right: false,
            guarded: false,
        },
    );
    b.push(
        c,
        "JoinAssocDeepRight",
        JoinAssoc {
            right: true,
            guarded: false,
        },
    );

    for kind in [
        OpKind::Join,
        OpKind::GroupBy,
        OpKind::UnionAll,
        OpKind::Sort,
        OpKind::Window,
        OpKind::Process,
        OpKind::Top,
        OpKind::Output,
    ] {
        b.push(
            c,
            format!("EagerPrune{}", kind.name()),
            PruneBelow { kind, eager: true },
        );
    }

    b.push(c, "UnionFlattenDeep", UnionFlatten { deep: true });
    b.push(c, "TopElimination", EliminateIdentity(OpKind::Top));
    b.push(c, "SortElimination", EliminateIdentity(OpKind::Sort));
    b.push(
        c,
        "ExpProcessFusion",
        Marker {
            kind: OpKind::Process,
            min_count: 2,
        },
    );
    b.push(
        c,
        "ExpJoinGraphAnalysis",
        Marker {
            kind: OpKind::Join,
            min_count: 4,
        },
    );
    b.push(
        c,
        "ExpUnionTopology",
        Marker {
            kind: OpKind::UnionAll,
            min_count: 3,
        },
    );

    assert_eq!(b.count_in(c), 46);
}

fn build_on_by_default(b: &mut Builder) {
    use RuleAction::*;
    let c = RuleCategory::OnByDefault;

    // Filter rewrites.
    b.push(c, "CollapseSelects", CollapseFilters);
    b.push(c, "SelectOnTrue", DropTrueFilter);
    b.push(c, "SelectPartitions", FilterIntoScan);
    b.push(c, "SelectPredNormalized", ReorderAtoms(AtomOrder::SelAsc));
    b.push(c, "SelectPredEqFirst", ReorderAtoms(AtomOrder::EqFirst));
    b.push(c, "SelectPredByColumn", ReorderAtoms(AtomOrder::ByCol));
    // Filter pushdown family.
    b.push(
        c,
        "SelectOnProject",
        FilterBelow {
            kind: OpKind::Project,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnJoin",
        FilterBelow {
            kind: OpKind::Join,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnJoinEq",
        FilterBelow {
            kind: OpKind::Join,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnUnionAll",
        FilterBelow {
            kind: OpKind::UnionAll,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnUnionAllEq",
        FilterBelow {
            kind: OpKind::UnionAll,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnGroupBy",
        FilterBelow {
            kind: OpKind::GroupBy,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnGroupByEq",
        FilterBelow {
            kind: OpKind::GroupBy,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnSort",
        FilterBelow {
            kind: OpKind::Sort,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnSortEq",
        FilterBelow {
            kind: OpKind::Sort,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnWindow",
        FilterBelow {
            kind: OpKind::Window,
            eq_only: false,
        },
    );
    b.push(
        c,
        "SelectOnWindowEq",
        FilterBelow {
            kind: OpKind::Window,
            eq_only: true,
        },
    );
    b.push(
        c,
        "SelectOnVirtualDataset",
        FilterBelow {
            kind: OpKind::VirtualDataset,
            eq_only: false,
        },
    );

    // Project rewrites.
    b.push(c, "MergeProjects", MergeProjects);
    b.push(c, "SequenceProjectOnUnion", ProjectBelow(OpKind::UnionAll));
    b.push(c, "ProjectOnJoin", ProjectBelow(OpKind::Join));
    b.push(c, "ProjectOnSort", ProjectBelow(OpKind::Sort));
    b.push(c, "ProjectOnWindow", ProjectBelow(OpKind::Window));
    b.push(c, "ProjectOnFilter", ProjectBelow(OpKind::Filter));
    b.push(c, "ProjectOnGroupBy", ProjectBelow(OpKind::GroupBy));
    b.push(c, "ProjectOnTop", ProjectBelow(OpKind::Top));

    // Column-pruning family (lazy thresholds; eager variants are
    // off-by-default).
    for kind in [
        OpKind::Join,
        OpKind::GroupBy,
        OpKind::UnionAll,
        OpKind::Sort,
        OpKind::Window,
        OpKind::Process,
        OpKind::Top,
        OpKind::Output,
    ] {
        b.push(
            c,
            format!("Prune{}", kind.name()),
            PruneBelow { kind, eager: false },
        );
    }

    // Join order rules.
    b.push(c, "JoinCommute", JoinCommute { guarded: false });
    b.push(c, "JoinCommuteGuarded", JoinCommute { guarded: true });
    b.push(
        c,
        "JoinAssocLeft",
        JoinAssoc {
            right: false,
            guarded: true,
        },
    );
    b.push(
        c,
        "JoinAssocRight",
        JoinAssoc {
            right: true,
            guarded: true,
        },
    );

    // Aggregation rules.
    b.push(c, "NormalizeReduce", NormalizeReduce { variant: 0 });
    b.push(c, "NormalizeReduce2", NormalizeReduce { variant: 1 });
    b.push(c, "NormalizeReduce3", NormalizeReduce { variant: 2 });
    b.push(c, "GroupbyBelowUnionAll", GroupByBelowUnion { variant: 0 });
    b.push(c, "GroupbyBelowUnionAll2", GroupByBelowUnion { variant: 1 });
    b.push(c, "GroupbyBelowUnionAll3", GroupByBelowUnion { variant: 2 });
    b.push(c, "SplitGroupBy", SplitGroupBy { variant: 0 });
    b.push(c, "SplitGroupByHashed", SplitGroupBy { variant: 1 });

    // Union / process / top rules.
    b.push(c, "UnionAllOnUnionAll", UnionFlatten { deep: false });
    b.push(c, "ProcessOnUnionAll", ProcessBelowUnion { variant: 0 });
    b.push(c, "ProcessOnUnionAll3", ProcessBelowUnion { variant: 2 });
    b.push(c, "TopOnRestrRemap", TopBelowUnion { variant: 0 });
    b.push(c, "TopOnUnionAll2", TopBelowUnion { variant: 2 });

    // Safe unary reorderings.
    let safe_swaps: [(OpKind, OpKind); 11] = [
        (OpKind::Filter, OpKind::Sort),
        (OpKind::Sort, OpKind::Filter),
        (OpKind::Project, OpKind::Sort),
        (OpKind::Sort, OpKind::Project),
        (OpKind::Filter, OpKind::Project),
        (OpKind::Project, OpKind::Filter),
        (OpKind::Sort, OpKind::Window),
        (OpKind::Window, OpKind::Sort),
        (OpKind::Project, OpKind::Window),
        (OpKind::Window, OpKind::Project),
        (OpKind::Filter, OpKind::Top),
    ];
    for (i, (parent, child)) in safe_swaps.into_iter().enumerate() {
        b.push(
            c,
            format!("Reseq{}On{}", parent.name(), child.name()),
            SwapUnary {
                parent,
                child,
                variant: 16 + i as u8,
            },
        );
    }

    // Identity elimination & same-kind collapsing.
    b.push(c, "ProjectElimination", EliminateIdentity(OpKind::Project));
    b.push(
        c,
        "UnionCollapseSingle",
        EliminateIdentity(OpKind::UnionAll),
    );
    b.push(c, "CollapseSorts", CollapseSame(OpKind::Sort));
    b.push(c, "CollapseTops", CollapseSame(OpKind::Top));
    b.push(c, "CollapseWindows", CollapseSame(OpKind::Window));

    // Pad the block to exactly 141 rules with property-derivation markers:
    // rules that appear in optimizer traces (and hence signatures) without
    // transforming the plan — SCOPE has many of these.
    let mut tier_idx = 0usize;
    let tiers: [u8; 6] = [3, 5, 8, 12, 16, 20];
    while b.count_in(c) < 141 {
        let kind = OpKind::ALL[tier_idx % OpKind::COUNT];
        let min_count = tiers[(tier_idx / OpKind::COUNT) % tiers.len()];
        b.push(
            c,
            format!("Derive{}Stats{}", kind.name(), min_count),
            Marker { kind, min_count },
        );
        tier_idx += 1;
    }
    assert_eq!(b.count_in(c), 141);
}

fn build_implementation(b: &mut Builder) {
    use PhysImpl::*;
    let c = RuleCategory::Implementation;
    let impls: [(PhysImpl, &str); 32] = [
        (ScanSerial, "SerialScanImpl"),
        (ScanParallel, "ParallelScanImpl"),
        (ScanIndexed, "IndexedScanImpl"),
        (FilterImpl, "FilterImpl"),
        (ProjectImpl, "ProjectImpl"),
        (HashJoin1, "HashJoinImpl1"),
        (HashJoin2, "HashJoinImpl2"),
        (HashJoin3, "HashJoinImpl3"),
        (MergeJoin, "JoinImpl2"),
        (BroadcastJoin, "BroadcastJoinImpl"),
        (LoopJoin, "LoopJoinImpl"),
        (IndexJoin, "JoinToApplyIndex1"),
        (HashAgg, "HashAggImpl"),
        (SortAgg, "SortAggImpl"),
        (StreamAgg, "StreamAggImpl"),
        (UnionConcat, "UnionAllToUnionAll"),
        (UnionVirtual, "UnionAllToVirtualDataset"),
        (UnionSerial, "SerialUnionAllImpl"),
        (VirtualDatasetImpl, "VirtualDatasetImpl"),
        (TopN, "TopNHeapImpl"),
        (TopSort, "TopSortImpl"),
        (SortParallel, "ParallelSortImpl"),
        (SortSerial, "SerialSortImpl"),
        (WindowHash, "HashWindowImpl"),
        (WindowSort, "SortWindowImpl"),
        (ProcessParallel, "ParallelProcessImpl"),
        (ProcessSerial, "SerialProcessImpl"),
        (OutputImpl, "OutputImpl"),
        (ExchangeHash, "HashExchangeImpl"),
        (ExchangeRange, "RangeExchangeImpl"),
        (ExchangeBroadcast, "BroadcastExchangeImpl"),
        (ExchangeGather, "GatherExchangeImpl"),
    ];
    for (phys, name) in impls {
        b.push(c, name, RuleAction::Impl(phys));
    }
    assert_eq!(b.count_in(c), 32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = build();
        let b = build();
        for (ra, rb) in a.rules().iter().zip(b.rules().iter()) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.category, rb.category);
            assert_eq!(ra.action, rb.action);
        }
    }

    #[test]
    fn complex_kinds_subset_of_all() {
        for k in COMPLEX_KINDS {
            assert!(OpKind::ALL.contains(&k));
        }
    }

    #[test]
    fn padding_markers_have_unique_names() {
        // Guards against the pad loop cycling into duplicate (kind, tier)
        // combinations.
        let cat = build();
        let mut names: Vec<&str> = cat
            .rules()
            .iter()
            .filter(|r| r.name.starts_with("Derive"))
            .map(|r| r.name.as_str())
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
