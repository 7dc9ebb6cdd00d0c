//! The rule catalog: 256 rules in the paper's four informal categories
//! (Table 2): 37 required, 46 off-by-default, 141 on-by-default, and 32
//! implementation rules.
//!
//! Rules are instantiated from a declarative builder in [`catalog`]; each
//! rule's behaviour is one of the parameterized [`RuleAction`] families,
//! interpreted by the normalization pass ([`crate::normalize`]), the memo
//! exploration engine ([`crate::search`]), or the implementation/costing
//! phase. Rule ids are assigned in category blocks:
//!
//! | ids        | category        |
//! |------------|-----------------|
//! | 0..=36     | Required        |
//! | 37..=82    | Off-by-default  |
//! | 83..=223   | On-by-default   |
//! | 224..=255  | Implementation  |

pub mod catalog;

use scope_ir::OpKind;

use crate::ruleset::{RuleId, RuleSet, NUM_RULES};

/// Most transformation rules a catalog may hold (110 here), so that a set
/// of them fits in two words.
pub(crate) const MAX_TRANSFORMS: usize = 128;

/// The paper's four informal rule categories (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleCategory {
    /// Necessary for correctness; never part of learnable configurations.
    Required,
    /// Experimental or unsafe rules, disabled in the default configuration.
    OffByDefault,
    /// The bulk of optimization rules, enabled by default.
    OnByDefault,
    /// Physical implementation choices; at least one per operator type must
    /// remain enabled or compilation fails.
    Implementation,
}

impl RuleCategory {
    pub const ALL: [RuleCategory; 4] = [
        RuleCategory::Required,
        RuleCategory::OffByDefault,
        RuleCategory::OnByDefault,
        RuleCategory::Implementation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RuleCategory::Required => "Required",
            RuleCategory::OffByDefault => "Off-by-default",
            RuleCategory::OnByDefault => "On-by-default",
            RuleCategory::Implementation => "Implementation",
        }
    }
}

/// Orderings a predicate-reordering rule can impose on conjunct atoms.
/// Atom order is estimate-relevant (exponential backoff), so these rules
/// change estimated — not true — selectivity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomOrder {
    /// Most selective (smallest estimated selectivity) first.
    SelAsc,
    /// Least selective first (experimental).
    SelDesc,
    /// Equality atoms first, then ranges, then the rest.
    EqFirst,
    /// Stable order by column id.
    ByCol,
}

/// Physical implementation alternatives (the 32 implementation rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhysImpl {
    // Scans (implement RangeGet)
    ScanSerial,
    ScanParallel,
    ScanIndexed,
    // Simple unaries
    FilterImpl,
    ProjectImpl,
    // Joins
    HashJoin1,
    HashJoin2,
    HashJoin3,
    MergeJoin,
    BroadcastJoin,
    LoopJoin,
    IndexJoin,
    // Aggregation
    HashAgg,
    SortAgg,
    StreamAgg,
    // Union-all
    UnionConcat,
    UnionVirtual,
    UnionSerial,
    // Virtual dataset written directly by a script
    VirtualDatasetImpl,
    // Top-k
    TopN,
    TopSort,
    // Sort
    SortParallel,
    SortSerial,
    // Window
    WindowHash,
    WindowSort,
    // User-defined operators
    ProcessParallel,
    ProcessSerial,
    // Output
    OutputImpl,
    // Exchange implementations used by the EnforceExchange enforcer
    ExchangeHash,
    ExchangeRange,
    ExchangeBroadcast,
    ExchangeGather,
}

impl PhysImpl {
    /// Number of implementation alternatives (must equal the paper's 32).
    pub const COUNT: usize = 32;

    /// The logical operator kind this implementation rule implements;
    /// `None` for exchange implementations (driven by the enforcer, not by
    /// a logical operator).
    pub fn implements(self) -> Option<OpKind> {
        use PhysImpl::*;
        Some(match self {
            ScanSerial | ScanParallel | ScanIndexed => OpKind::RangeGet,
            FilterImpl => OpKind::Filter,
            ProjectImpl => OpKind::Project,
            HashJoin1 | HashJoin2 | HashJoin3 | MergeJoin | BroadcastJoin | LoopJoin
            | IndexJoin => OpKind::Join,
            HashAgg | SortAgg | StreamAgg => OpKind::GroupBy,
            UnionConcat | UnionVirtual | UnionSerial => OpKind::UnionAll,
            VirtualDatasetImpl => OpKind::VirtualDataset,
            TopN | TopSort => OpKind::Top,
            SortParallel | SortSerial => OpKind::Sort,
            WindowHash | WindowSort => OpKind::Window,
            ProcessParallel | ProcessSerial => OpKind::Process,
            OutputImpl => OpKind::Output,
            ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => return None,
        })
    }
}

/// How applying a transformation rule can change the operator *kind* of the
/// alternatives it inserts into the matched group. This is rule metadata for
/// static analysis (`scope-lint`): it lets an analyzer reason about which
/// kinds a memo group can reach without running exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnchorRewrite {
    /// Every alternative the rule inserts into the matched group has the
    /// anchor's own kind (reorderings, collapses, pruners, join rotations).
    Keeps,
    /// The rule can insert an alternative of this other kind into the
    /// matched group. A `Becomes(k)` rewrite only fires on plans that
    /// already contain a `k` node below the match (it hoists an existing
    /// operator), with one exception: `FilterIntoScan` rewrites the scan
    /// itself, and `RangeGet` is present in any plan with a scan.
    Becomes(OpKind),
    /// The rule replaces the match with its input, whatever kind that is
    /// (identity elimination). Analyzers must treat this as an escape to an
    /// unknown — hence always implementable — kind.
    Child,
}

/// What a rule *does*. Families are parameterized; the interpreting engines
/// live in `normalize`, `search`, and `cost`.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleAction {
    // ---- Required normalization & enforcement ----
    /// `Get` → `RangeGet` (required normalizer).
    GetToRange,
    /// `Select` → `Filter` (required normalizer).
    SelectToFilter,
    /// Marks the job output; fires for every compiled job.
    BuildOutput,
    /// The partitioning enforcer; fires whenever an exchange is inserted.
    EnforceExchange,
    /// Required canonicalization marker: fires when the normalized plan
    /// contains `kind`. No structural change.
    Canonicalize(OpKind),
    /// Required guard marker: fires when the normalized plan contains at
    /// least `min_count` nodes of `kind`. Most guards never fire — the
    /// "unused required rules" of Table 2.
    Guard {
        kind: OpKind,
        min_count: u8,
    },

    // ---- Transformation rules ----
    /// `Filter(Filter(x))` → single `Filter` (paper: `CollapseSelects`).
    CollapseFilters,
    /// Remove a trivially-true filter (paper: `SelectOnTrue`).
    DropTrueFilter,
    /// Push a filter into the scan below it (paper: `SelectPartitions`).
    FilterIntoScan,
    /// Push a filter below `kind` (paper: `SelectOnProject`, `SelectOn...`).
    /// `eq_only` variants push only equality atoms.
    FilterBelow {
        kind: OpKind,
        eq_only: bool,
    },
    /// Reorder conjunct atoms (paper: `SelectPredNormalized` et al.).
    ReorderAtoms(AtomOrder),
    /// `Project(Project(x))` → single `Project`.
    MergeProjects,
    /// Push a projection below `kind` (paper: `SequenceProjectOnUnion`).
    ProjectBelow(OpKind),
    /// Insert a narrowing projection below `kind` (column pruning).
    /// `eager` variants prune below smaller thresholds.
    PruneBelow {
        kind: OpKind,
        eager: bool,
    },
    /// Swap a join's inputs.
    JoinCommute {
        guarded: bool,
    },
    /// Rotate a join tree; `right` selects rotation direction. Guarded
    /// variants only fire when the intermediate estimate shrinks.
    JoinAssoc {
        right: bool,
        guarded: bool,
    },
    /// Push a join below a union-all: `Join(Union(..), c)` →
    /// `Union(Join(..))` (paper: `CorrelatedJoinOnUnionAll*`). Fires only
    /// when the union is on the given side and has arity ≤ `max_arity`.
    JoinOnUnion {
        max_arity: u8,
        left: bool,
    },
    /// Push a (partial) group-by below a join (paper: `GroupbyOnJoin`).
    GroupByOnJoin {
        variant: u8,
    },
    /// Push partial aggregation below a union
    /// (paper: `GroupbyBelowUnionAll`).
    GroupByBelowUnion {
        variant: u8,
    },
    /// Split an aggregation into partial + final.
    SplitGroupBy {
        variant: u8,
    },
    /// Flatten nested unions (paper-adjacent: `UnionAllOnUnionAll`).
    UnionFlatten {
        deep: bool,
    },
    /// Push a `Process` below a union (paper: `ProcessOnUnionAll`).
    ProcessBelowUnion {
        variant: u8,
    },
    /// Push a `Top` below a union, keeping the outer Top
    /// (paper: `TopOnRestrRemap`).
    TopBelowUnion {
        variant: u8,
    },
    /// Commute two adjacent unary operators (`child` directly below
    /// `parent` becomes `parent` below `child`).
    SwapUnary {
        parent: OpKind,
        child: OpKind,
        variant: u8,
    },
    /// Canonicalize group-by key order (paper: `NormalizeReduce`).
    NormalizeReduce {
        variant: u8,
    },
    /// Remove identity operators of `kind` (all-column projections,
    /// single-input unions, `Top` larger than its input estimate, ...).
    EliminateIdentity(OpKind),
    /// Merge two adjacent same-kind operators (`Sort(Sort)`, `Top(Top)`).
    CollapseSame(OpKind),
    /// Signature-only marker: fires when the plan contains at least
    /// `min_count` nodes of `kind`. Models SCOPE's many property-derivation
    /// and task rules that appear in optimizer traces without transforming
    /// the plan.
    Marker {
        kind: OpKind,
        min_count: u8,
    },

    // ---- Implementation rules ----
    Impl(PhysImpl),
}

impl RuleAction {
    /// The logical operator kind this rule's *match* is anchored on, if
    /// any (used for fast dispatch during exploration).
    pub fn anchor(&self) -> Option<OpKind> {
        use RuleAction::*;
        Some(match self {
            GetToRange => OpKind::Get,
            SelectToFilter => OpKind::Select,
            BuildOutput => OpKind::Output,
            EnforceExchange => return None,
            Canonicalize(k) => *k,
            Guard { kind, .. } => *kind,
            CollapseFilters
            | DropTrueFilter
            | FilterIntoScan
            | FilterBelow { .. }
            | ReorderAtoms(_) => OpKind::Filter,
            MergeProjects | ProjectBelow(_) => OpKind::Project,
            PruneBelow { kind, .. } => *kind,
            JoinCommute { .. } | JoinAssoc { .. } | JoinOnUnion { .. } => OpKind::Join,
            GroupByOnJoin { .. }
            | GroupByBelowUnion { .. }
            | SplitGroupBy { .. }
            | NormalizeReduce { .. } => OpKind::GroupBy,
            UnionFlatten { .. } => OpKind::UnionAll,
            ProcessBelowUnion { .. } => OpKind::Process,
            TopBelowUnion { .. } => OpKind::Top,
            SwapUnary { parent, .. } => *parent,
            EliminateIdentity(k) | CollapseSame(k) => *k,
            Marker { kind, .. } => *kind,
            Impl(p) => return p.implements(),
        })
    }

    /// How the alternatives a transformation inserts into the *matched*
    /// group relate to the anchor kind (see [`AnchorRewrite`]). Mirrors the
    /// rewrite shapes in `transform.rs` and must be kept in sync with them;
    /// the static analyzer's soundness rests on this mapping never claiming
    /// `Keeps` for a rule that can change the matched group's kind.
    pub fn anchor_rewrite(&self) -> AnchorRewrite {
        use RuleAction::*;
        match self {
            // Filter pushed into the scan below it: alt is a RangeGet.
            FilterIntoScan => AnchorRewrite::Becomes(OpKind::RangeGet),
            // Filter pushed below `kind`: when the residual predicate is
            // empty, `wrap_residual` inserts the bare hoisted `kind` node as
            // the alternative.
            FilterBelow { kind, .. } => AnchorRewrite::Becomes(*kind),
            // ProjectBelow(Join) keeps the projection on top of the join;
            // every other target hoists the child kind into the match.
            ProjectBelow(kind) if *kind != OpKind::Join => AnchorRewrite::Becomes(*kind),
            // Join/Process pushed below a union: the union is hoisted.
            JoinOnUnion { .. } | ProcessBelowUnion { .. } => {
                AnchorRewrite::Becomes(OpKind::UnionAll)
            }
            // Adjacent-unary commute: the child kind is hoisted on top.
            SwapUnary { child, .. } => AnchorRewrite::Becomes(*child),
            // Identity elimination replaces the match with its input, which
            // can be any kind.
            DropTrueFilter | EliminateIdentity(_) => AnchorRewrite::Child,
            // Everything else (collapse/reorder/merge/prune/commute/assoc/
            // split/flatten, markers, normalizers, impls) only inserts
            // alternatives whose root has the anchor's own kind.
            _ => AnchorRewrite::Keeps,
        }
    }

    /// Whether this is a structural transformation explored in the memo
    /// (as opposed to a normalizer, marker, or implementation).
    pub fn is_transformation(&self) -> bool {
        use RuleAction::*;
        !matches!(
            self,
            GetToRange
                | SelectToFilter
                | BuildOutput
                | EnforceExchange
                | Canonicalize(_)
                | Guard { .. }
                | Marker { .. }
                | Impl(_)
        )
    }
}

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct Rule {
    pub id: RuleId,
    pub name: String,
    pub category: RuleCategory,
    pub action: RuleAction,
}

/// The full, immutable rule catalog.
#[derive(Debug)]
pub struct RuleCatalog {
    rules: Vec<Rule>,
    required: RuleSet,
    off_by_default: RuleSet,
    /// Transformation rules, indexed by anchor kind for fast dispatch.
    transforms_by_kind: Vec<Vec<RuleId>>,
    /// Each transformation rule's position among them in id order
    /// (`u8::MAX` for every other rule).
    transform_ordinal: [u8; NUM_RULES],
    /// Implementation rules per logical kind.
    impls_by_kind: Vec<Vec<RuleId>>,
    /// The `EnforceExchange` enforcer, which fires with every exchange.
    enforce_exchange: RuleId,
    /// Marker-style rules (Canonicalize / Guard / Marker), all categories.
    markers: Vec<RuleId>,
    /// `transforms_by_kind` as bitset masks: intersecting with a config's
    /// enabled set selects the applicable rules without materializing a
    /// `Vec<RuleId>` per expression in the explore loop.
    transform_mask: [RuleSet; OpKind::COUNT],
    /// Implementation rule per `PhysImpl` discriminant (`None` for the
    /// non-exchange variants only if the catalog were ever incomplete);
    /// replaces the O(|rules|) scan the enforcer used to do per exchange.
    rule_by_impl: [Option<RuleId>; PhysImpl::COUNT],
}

impl RuleCatalog {
    /// The process-wide catalog (construction is deterministic).
    pub fn global() -> &'static RuleCatalog {
        static CATALOG: std::sync::OnceLock<RuleCatalog> = std::sync::OnceLock::new();
        CATALOG.get_or_init(catalog::build)
    }

    pub(crate) fn from_rules(rules: Vec<Rule>) -> Self {
        assert_eq!(
            rules.len(),
            NUM_RULES,
            "catalog must have {NUM_RULES} rules"
        );
        let mut required = RuleSet::EMPTY;
        let mut off_by_default = RuleSet::EMPTY;
        let mut transforms_by_kind = vec![Vec::new(); OpKind::COUNT];
        let mut impls_by_kind = vec![Vec::new(); OpKind::COUNT];
        let mut enforce_exchange = None;
        let mut markers = Vec::new();
        let mut transform_ordinal = [u8::MAX; NUM_RULES];
        let mut n_transforms = 0u8;
        for (i, rule) in rules.iter().enumerate() {
            assert_eq!(rule.id.index(), i, "rule ids must be dense");
            match rule.category {
                RuleCategory::Required => required.insert(rule.id),
                RuleCategory::OffByDefault => off_by_default.insert(rule.id),
                _ => {}
            }
            match &rule.action {
                RuleAction::Impl(p) => {
                    if let Some(kind) = p.implements() {
                        impls_by_kind[kind as usize].push(rule.id);
                    }
                }
                RuleAction::Canonicalize(k) => {
                    markers.push(rule.id);
                    let _ = k;
                }
                RuleAction::Guard { .. } | RuleAction::Marker { .. } => markers.push(rule.id),
                RuleAction::EnforceExchange => enforce_exchange = Some(rule.id),
                action if action.is_transformation() => {
                    if let Some(kind) = action.anchor() {
                        transforms_by_kind[kind as usize].push(rule.id);
                    }
                    assert!(
                        usize::from(n_transforms) < MAX_TRANSFORMS,
                        "at most {MAX_TRANSFORMS} transformation rules"
                    );
                    transform_ordinal[i] = n_transforms;
                    n_transforms += 1;
                }
                _ => {}
            }
        }
        let mut transform_mask = [RuleSet::EMPTY; OpKind::COUNT];
        for kind in 0..OpKind::COUNT {
            for &id in &transforms_by_kind[kind] {
                transform_mask[kind].insert(id);
            }
        }
        let mut rule_by_impl = [None; PhysImpl::COUNT];
        for rule in &rules {
            if let RuleAction::Impl(p) = &rule.action {
                rule_by_impl[*p as usize] = Some(rule.id);
            }
        }
        RuleCatalog {
            rules,
            required,
            off_by_default,
            transforms_by_kind,
            transform_ordinal,
            impls_by_kind,
            enforce_exchange: enforce_exchange.expect("catalog has the exchange enforcer"),
            markers,
            transform_mask,
            rule_by_impl,
        }
    }

    /// All rules in id order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Look up a rule.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// Find a rule id by exact name (test/diagnostic helper; O(n)).
    pub fn find(&self, name: &str) -> Option<RuleId> {
        self.rules.iter().find(|r| r.name == name).map(|r| r.id)
    }

    /// The set of required rules (never disabled).
    pub fn required(&self) -> &RuleSet {
        &self.required
    }

    /// The set of rules disabled in the default configuration.
    pub fn off_by_default(&self) -> &RuleSet {
        &self.off_by_default
    }

    /// Non-required rules: the learnable configuration space (219 in the
    /// paper; 219 here as well).
    pub fn non_required(&self) -> RuleSet {
        RuleSet::FULL.difference(&self.required)
    }

    /// `id`'s position among the transformation rules in id order (below
    /// 128); `None` when `id` is not a transformation.
    #[inline]
    pub(crate) fn transform_ordinal(&self, id: RuleId) -> Option<usize> {
        let ordinal = self.transform_ordinal[id.index()];
        (ordinal != u8::MAX).then_some(usize::from(ordinal))
    }

    /// Transformation rules anchored on `kind`.
    pub fn transforms_for(&self, kind: OpKind) -> &[RuleId] {
        &self.transforms_by_kind[kind as usize]
    }

    /// Implementation rules for logical `kind`.
    pub fn impls_for(&self, kind: OpKind) -> &[RuleId] {
        &self.impls_by_kind[kind as usize]
    }

    /// The enforcer rule every inserted exchange fires.
    #[inline]
    pub(crate) fn enforce_exchange(&self) -> RuleId {
        self.enforce_exchange
    }

    /// Transformation rules anchored on `kind`, as a bitset mask. Same
    /// membership (and, via [`RuleSet::iter`], the same ascending-id order)
    /// as [`Self::transforms_for`].
    #[inline]
    pub(crate) fn transform_mask(&self, kind: OpKind) -> RuleSet {
        self.transform_mask[kind as usize]
    }

    /// The implementation rule carrying `impl_` (O(1) array lookup).
    #[inline]
    pub(crate) fn rule_for_impl(&self, impl_: PhysImpl) -> Option<RuleId> {
        self.rule_by_impl[impl_ as usize]
    }

    /// All marker-style rules.
    pub(crate) fn markers(&self) -> &[RuleId] {
        &self.markers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_mirror_per_kind_rule_lists() {
        let cat = RuleCatalog::global();
        for kind in OpKind::ALL {
            let from_mask: Vec<RuleId> = cat.transform_mask(kind).iter().collect();
            assert_eq!(from_mask, cat.transforms_for(kind), "{kind:?} transforms");
        }
    }

    #[test]
    fn rule_for_impl_matches_linear_scan() {
        let cat = RuleCatalog::global();
        let all_impls = [
            PhysImpl::ScanSerial,
            PhysImpl::ExchangeHash,
            PhysImpl::ExchangeRange,
            PhysImpl::ExchangeBroadcast,
            PhysImpl::ExchangeGather,
            PhysImpl::OutputImpl,
            PhysImpl::HashJoin2,
        ];
        for p in all_impls {
            let scanned = cat
                .rules()
                .iter()
                .find(|r| r.action == RuleAction::Impl(p))
                .map(|r| r.id);
            assert_eq!(cat.rule_for_impl(p), scanned, "{p:?}");
            assert!(scanned.is_some(), "{p:?} must have a carrying rule");
        }
    }

    #[test]
    fn catalog_has_paper_category_counts() {
        let cat = RuleCatalog::global();
        let counts = RuleCategory::ALL.map(|category| {
            cat.rules()
                .iter()
                .filter(|r| r.category == category)
                .count()
        });
        assert_eq!(counts, [37, 46, 141, 32], "Required/Off/On/Impl");
        assert_eq!(cat.rules().len(), NUM_RULES);
        assert_eq!(cat.non_required().len(), 219);
    }

    #[test]
    fn rule_ids_are_category_blocks() {
        let cat = RuleCatalog::global();
        for r in cat.rules() {
            let expected = match r.id.0 {
                0..=36 => RuleCategory::Required,
                37..=82 => RuleCategory::OffByDefault,
                83..=223 => RuleCategory::OnByDefault,
                _ => RuleCategory::Implementation,
            };
            assert_eq!(r.category, expected, "rule {} ({})", r.id, r.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let cat = RuleCatalog::global();
        let mut names: Vec<&str> = cat.rules().iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rule names");
    }

    #[test]
    fn paper_named_rules_exist_in_right_categories() {
        let cat = RuleCatalog::global();
        let expect = [
            ("GetToRange", RuleCategory::Required),
            ("SelectToFilter", RuleCategory::Required),
            ("EnforceExchange", RuleCategory::Required),
            ("BuildOutput", RuleCategory::Required),
            ("CorrelatedJoinOnUnionAll1", RuleCategory::OffByDefault),
            ("CorrelatedJoinOnUnionAll2", RuleCategory::OffByDefault),
            ("GroupbyOnJoin", RuleCategory::OffByDefault),
            ("CollapseSelects", RuleCategory::OnByDefault),
            ("SelectPartitions", RuleCategory::OnByDefault),
            ("NormalizeReduce", RuleCategory::OnByDefault),
            ("SequenceProjectOnUnion", RuleCategory::OnByDefault),
            ("SelectOnProject", RuleCategory::OnByDefault),
            ("SelectOnTrue", RuleCategory::OnByDefault),
            ("TopOnRestrRemap", RuleCategory::OnByDefault),
            ("ProcessOnUnionAll", RuleCategory::OnByDefault),
            ("GroupbyBelowUnionAll", RuleCategory::OnByDefault),
            ("SelectPredNormalized", RuleCategory::OnByDefault),
            ("HashJoinImpl1", RuleCategory::Implementation),
            ("JoinImpl2", RuleCategory::Implementation),
            ("JoinToApplyIndex1", RuleCategory::Implementation),
            ("UnionAllToUnionAll", RuleCategory::Implementation),
            ("UnionAllToVirtualDataset", RuleCategory::Implementation),
        ];
        for (name, category) in expect {
            let id = cat
                .find(name)
                .unwrap_or_else(|| panic!("missing rule {name}"));
            assert_eq!(cat.rule(id).category, category, "{name}");
        }
    }

    #[test]
    fn every_implementable_kind_has_an_impl() {
        let cat = RuleCatalog::global();
        for kind in [
            OpKind::RangeGet,
            OpKind::Filter,
            OpKind::Project,
            OpKind::Join,
            OpKind::GroupBy,
            OpKind::UnionAll,
            OpKind::VirtualDataset,
            OpKind::Top,
            OpKind::Sort,
            OpKind::Window,
            OpKind::Process,
            OpKind::Output,
        ] {
            assert!(
                !cat.impls_for(kind).is_empty(),
                "no implementation for {kind:?}"
            );
        }
        assert!(cat
            .rules()
            .iter()
            .any(|r| matches!(r.action, RuleAction::Impl(p) if p.implements().is_none())));
    }

    #[test]
    fn the_global_catalog_has_full_canonicalizer_coverage() {
        let cat = RuleCatalog::global();
        for kind in catalog::COMPLEX_KINDS {
            assert!(
                cat.rules().iter().any(|r| {
                    cat.required().contains(r.id)
                        && matches!(&r.action, RuleAction::Canonicalize(k) if *k == kind)
                }),
                "complex kind {kind:?} has no required canonicalization marker"
            );
        }
    }

    #[test]
    fn join_has_many_alternative_impls() {
        let cat = RuleCatalog::global();
        assert!(cat.impls_for(OpKind::Join).len() >= 5);
    }

    #[test]
    fn phys_impl_count_matches_category() {
        let cat = RuleCatalog::global();
        let impl_rules = cat
            .rules()
            .iter()
            .filter(|r| matches!(r.action, RuleAction::Impl(_)))
            .count();
        assert_eq!(impl_rules, PhysImpl::COUNT);
    }

    #[test]
    fn transform_ordinals_number_the_transformations_in_id_order() {
        let cat = RuleCatalog::global();
        let ordinals: Vec<Option<usize>> = cat
            .rules()
            .iter()
            .filter(|r| r.action.is_transformation())
            .map(|r| cat.transform_ordinal(r.id))
            .collect();
        assert_eq!(ordinals, (0..ordinals.len()).map(Some).collect::<Vec<_>>());
        assert!(cat
            .rules()
            .iter()
            .filter(|r| !r.action.is_transformation())
            .all(|r| cat.transform_ordinal(r.id).is_none()));
    }

    #[test]
    fn transform_dispatch_is_populated() {
        let cat = RuleCatalog::global();
        assert!(!cat.transforms_for(OpKind::Filter).is_empty());
        assert!(!cat.transforms_for(OpKind::Join).is_empty());
        assert!(!cat.transforms_for(OpKind::GroupBy).is_empty());
    }
}
