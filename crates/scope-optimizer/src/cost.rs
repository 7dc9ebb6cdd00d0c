//! The optimizer's *estimated* cost model and degree-of-parallelism
//! heuristic, plus the per-implementation physical property table
//! (required child partitionings, output partitioning).
//!
//! Costs are in abstract "cost units" calibrated so that typical workload
//! jobs land in the few-minutes-to-an-hour range. The model charges CPU per
//! row, IO per byte, network per byte moved, and a per-vertex startup
//! overhead — and it is *systematically wrong* in the ways §3.2/§6.3 of the
//! paper describe: it prices UDOs with one global constant, assumes uniform
//! partitioning (no skew), and never anticipates spills.
//!
//! ## Cost vectors
//!
//! Every formula is decomposed into a [`CostEstimate`] vector (rows, cpu,
//! io, net, memory, vertices) and scalarized only at comparison points via
//! [`CostWeights::scalarize`]. Under [`CostWeights::DEFAULT`] the scalar is
//! **bit-for-bit** the value the pre-vector model produced — the fold order
//! in `scalarize` and the component classification of every arm below are
//! part of that contract (see the comments on both). The frozen `classic`
//! differential oracle holds the whole pipeline to it.

use scope_ir::ids::ColId;
use scope_ir::{ExprId, ExprInterner, LogicalOp, ObservableCatalog};

use crate::estimate::{ChildEsts, LogicalEst};
use crate::physical::Partitioning;
use crate::rules::PhysImpl;

/// Degrees of parallelism the optimizer considers (SCOPE-style discrete
/// tiers; the heuristic picks the smallest tier covering the data).
pub const DOP_TIERS: [u32; 10] = [1, 2, 5, 10, 25, 50, 100, 150, 200, 250];

/// Bytes one vertex comfortably handles; drives the DOP heuristic.
pub(crate) const BYTES_PER_VERTEX: f64 = 256.0 * 1024.0 * 1024.0;

// Cost-unit constants (roughly: seconds of one vertex's work).
pub const C_IO: f64 = 1.0 / (120.0 * 1024.0 * 1024.0); // 120 MB/s sequential IO
pub const C_NET: f64 = 1.0 / (60.0 * 1024.0 * 1024.0); // 60 MB/s shuffle
pub const C_CPU_ROW: f64 = 0.4e-6; // basic per-row handling
pub const C_HASH_ROW: f64 = 1.2e-6; // hash build/probe per row
pub const C_SORT_ROW: f64 = 0.5e-6; // per row per log2(rows)
pub const C_UDO_ROW: f64 = 1.0e-6; // per unit of (assumed) UDO work
pub const C_VERTEX: f64 = 0.35; // vertex startup/scheduling overhead

/// Producer-boundary guard for row/byte estimates crossing into the cost
/// model. The estimator's output contract (see `LogicalEst::bytes`) makes
/// a non-finite or negative volume a bug, so debug builds refuse it at the
/// boundary; release builds clamp to 0.0 so one poisoned estimate yields a
/// harmless zero charge instead of NaN-poisoning every winner comparison
/// downstream (NaN never wins a strict `<`, which would silently freeze a
/// group's incumbent). Identity for every healthy value.
#[inline]
fn sane_volume(v: f64, what: &str) -> f64 {
    debug_assert!(
        v.is_finite() && v >= 0.0,
        "cost model received a {what} estimate outside [0, ∞): {v}"
    );
    clamp_volume(v)
}

/// The release-mode half of `sane_volume`, split out so tests can cover
/// the clamp itself without tripping the debug assertion.
#[inline]
pub(crate) fn clamp_volume(v: f64) -> f64 {
    if v.is_finite() && v >= 0.0 {
        v
    } else {
        0.0
    }
}

/// Pick the DOP tier for an estimated byte volume.
pub fn dop_for_bytes(bytes: f64) -> u32 {
    let bytes = sane_volume(bytes, "byte");
    let need = (bytes / BYTES_PER_VERTEX).ceil().max(1.0) as u32;
    for &tier in &DOP_TIERS {
        if tier >= need {
            return tier;
        }
    }
    *DOP_TIERS.last().expect("tiers non-empty")
}

/// Structured estimated cost of one plan fragment, decomposed along the
/// resource axes the execution simulator reports. All components are in
/// the same abstract cost units as the old scalar (≈ seconds of one
/// vertex's work) except `rows` (output cardinality, advisory) and
/// `memory` (peak per-stage working-set bytes, advisory): those two carry
/// weight 0 under [`CostWeights::DEFAULT`] and exist for steering,
/// reporting, and feedback.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Estimated output rows of the fragment root (advisory).
    pub rows: f64,
    /// Per-row compute charges.
    pub cpu: f64,
    /// Storage read/write charges.
    pub io: f64,
    /// Shuffle / broadcast network charges.
    pub net: f64,
    /// Peak working-set bytes (hash builds, sort runs; advisory).
    pub memory: f64,
    /// Vertex startup/scheduling overhead charges.
    pub vertices: f64,
}

impl CostEstimate {
    pub const ZERO: CostEstimate = CostEstimate {
        rows: 0.0,
        cpu: 0.0,
        io: 0.0,
        net: 0.0,
        memory: 0.0,
        vertices: 0.0,
    };

    /// Component-wise sum.
    #[must_use]
    pub fn add(&self, o: &CostEstimate) -> CostEstimate {
        CostEstimate {
            rows: self.rows + o.rows,
            cpu: self.cpu + o.cpu,
            io: self.io + o.io,
            net: self.net + o.net,
            memory: self.memory + o.memory,
            vertices: self.vertices + o.vertices,
        }
    }

    /// Component-wise subtraction floored at zero (used when recovering an
    /// operator's own cost from a subtree total, mirroring the scalar
    /// `.max(0.0)` in plan extraction).
    #[must_use]
    pub fn saturating_sub(&self, o: &CostEstimate) -> CostEstimate {
        CostEstimate {
            rows: (self.rows - o.rows).max(0.0),
            cpu: (self.cpu - o.cpu).max(0.0),
            io: (self.io - o.io).max(0.0),
            net: (self.net - o.net).max(0.0),
            memory: (self.memory - o.memory).max(0.0),
            vertices: (self.vertices - o.vertices).max(0.0),
        }
    }

    /// Whether every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.rows)
            && ok(self.cpu)
            && ok(self.io)
            && ok(self.net)
            && ok(self.memory)
            && ok(self.vertices)
    }
}

/// Scalarization weights for [`CostEstimate`]. The optimizer compares
/// plans on the weighted scalar only; changing weights steers plan choice
/// along the resource axes (e.g. raising `io` favors shuffle-heavy but
/// read-light plans).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostWeights {
    pub rows: f64,
    pub cpu: f64,
    pub io: f64,
    pub net: f64,
    pub memory: f64,
    pub vertices: f64,
}

impl CostWeights {
    /// The classic scalar model: every charged component at weight 1, the
    /// advisory components (rows, memory) at 0. Reproduces the pre-vector
    /// scalar bit-for-bit (see [`CostWeights::scalarize`]).
    pub const DEFAULT: CostWeights = CostWeights {
        rows: 0.0,
        cpu: 1.0,
        io: 1.0,
        net: 1.0,
        memory: 0.0,
        vertices: 1.0,
    };

    /// Weighted scalar of a cost vector.
    ///
    /// The fold order — rows, io, net, vertices, cpu, memory — is a
    /// compatibility contract, not a style choice. Under `DEFAULT` weights
    /// it reproduces the pre-vector scalar model bit-for-bit for every
    /// implementation and exchange formula: each arm's components are
    /// classified so this fold re-creates the original left-to-right f64
    /// additions exactly, relying only on `x * 1.0 == x`, `+0.0 + x == x`
    /// for non-negative `x`, and the bitwise commutativity of two-operand
    /// addition where the original term order differs. Do not reorder.
    pub fn scalarize(&self, c: &CostEstimate) -> f64 {
        let mut acc = c.rows * self.rows;
        acc += c.io * self.io;
        acc += c.net * self.net;
        acc += c.vertices * self.vertices;
        acc += c.cpu * self.cpu;
        acc += c.memory * self.memory;
        acc
    }

    /// Exact-bits digest of the six weights.
    pub fn fingerprint_bits(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for w in [
            self.rows,
            self.cpu,
            self.io,
            self.net,
            self.memory,
            self.vertices,
        ] {
            w.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

impl Default for CostWeights {
    fn default() -> CostWeights {
        CostWeights::DEFAULT
    }
}

/// Bounded multiplicative corrections derived from executed-plan feedback
/// (observed/estimated ratios, clamped and smoothed upstream in
/// `steer-core`). `rows` scales the estimator's scan cardinalities; `cpu`
/// and `io` scale the matching cost components at costing time (`io`
/// covers both storage and network, matching the simulator's io metric).
/// All factors must be finite and strictly positive; [`IDENTITY`] (all
/// 1.0) is bit-exact no-op by IEEE 754 `x * 1.0 == x`.
///
/// [`IDENTITY`]: CostCorrections::IDENTITY
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostCorrections {
    pub rows: f64,
    pub cpu: f64,
    pub io: f64,
}

impl CostCorrections {
    pub const IDENTITY: CostCorrections = CostCorrections {
        rows: 1.0,
        cpu: 1.0,
        io: 1.0,
    };

    pub fn is_identity(&self) -> bool {
        *self == CostCorrections::IDENTITY
    }

    /// Whether every factor is finite and strictly positive (the invariant
    /// the feedback ratio guards uphold).
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        ok(self.rows) && ok(self.cpu) && ok(self.io)
    }
}

impl Default for CostCorrections {
    fn default() -> CostCorrections {
        CostCorrections::IDENTITY
    }
}

/// The full cost-model configuration a compile runs under: scalarization
/// weights plus per-template feedback corrections. [`CostModel::DEFAULT`]
/// is bit-identical to the classic scalar model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    pub weights: CostWeights,
    pub corrections: CostCorrections,
}

impl CostModel {
    pub const DEFAULT: CostModel = CostModel {
        weights: CostWeights::DEFAULT,
        corrections: CostCorrections::IDENTITY,
    };

    /// Apply the multiplicative corrections to a raw cost vector. The `io`
    /// factor covers both storage and network components because the
    /// simulator's observed io metric aggregates both.
    pub fn corrected(&self, c: &CostEstimate) -> CostEstimate {
        CostEstimate {
            rows: c.rows,
            cpu: c.cpu * self.corrections.cpu,
            io: c.io * self.corrections.io,
            net: c.net * self.corrections.io,
            memory: c.memory,
            vertices: c.vertices,
        }
    }

    /// Corrected, weighted scalar — the single comparison value the search
    /// ranks alternatives by.
    pub fn scalar(&self, c: &CostEstimate) -> f64 {
        self.weights.scalarize(&self.corrected(c))
    }

    /// Whether every weight and correction is finite and ≥ 0, so that no
    /// [`CostModel::scalar`] is negative: the components it scales never
    /// are. Adding one of its scalars to a partial sum then never lowers
    /// it, which is what lets the search drop an alternative whose partial
    /// sum has reached the incumbent.
    pub(crate) fn is_monotone(&self) -> bool {
        let w = &self.weights;
        let c = &self.corrections;
        [
            w.rows, w.cpu, w.io, w.net, w.memory, w.vertices, c.rows, c.cpu, c.io,
        ]
        .iter()
        .all(|&v| v.is_finite() && v >= 0.0)
    }

    /// Exact-bits digest of the whole model (weights + corrections): equal
    /// digests mean every compile under the two models is bit-identical.
    pub fn fingerprint_bits(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.weights.fingerprint_bits().hash(&mut h);
        for f in [
            self.corrections.rows,
            self.corrections.cpu,
            self.corrections.io,
        ] {
            f.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::DEFAULT
    }
}

/// Estimated cost and planned parallelism of one physical operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpCost {
    pub cost: CostEstimate,
    pub dop: u32,
}

fn log2(rows: f64) -> f64 {
    rows.max(2.0).log2()
}

/// Which key list of its operator a keyed [`Part`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeySide {
    /// A join's left key columns.
    Left,
    /// A join's right key columns.
    Right,
    /// A group-by's, sort's or window's key columns.
    Own,
}

/// A partitioning an implementation requires of a child or delivers, as a
/// `Copy` handle: a keyed scheme names its key list by the interned memo
/// operator that holds it and a [`KeySide`], and is compared in place.
/// [`Part::partitioning`] builds the [`Partitioning`] it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Part {
    Any,
    Broadcast,
    Singleton,
    Hash(ExprId, KeySide),
    Range(ExprId, KeySide),
}

/// The key columns `side` names in `op`, in order.
fn key_cols(op: &LogicalOp, side: KeySide) -> impl Iterator<Item = ColId> + '_ {
    let (pairs, cols): (&[(ColId, ColId)], &[ColId]) = match op {
        LogicalOp::Join { keys, .. } => (keys, &[]),
        LogicalOp::GroupBy { keys, .. } | LogicalOp::Sort { keys } | LogicalOp::Window { keys } => {
            (&[], keys)
        }
        _ => (&[], &[]),
    };
    let right = side == KeySide::Right;
    pairs
        .iter()
        .map(move |&(l, r)| if right { r } else { l })
        .chain(cols.iter().copied())
}

impl Part {
    /// Whether data delivered as `self` satisfies `required` without an
    /// exchange ([`Partitioning::satisfies`], with key lists compared in
    /// the operators `ops` holds).
    #[inline]
    pub(crate) fn satisfies(self, required: Part, ops: &ExprInterner) -> bool {
        use Part::*;
        match (self, required) {
            (_, Any) | (Singleton, Singleton) | (Broadcast, Broadcast) => true,
            // A full copy everywhere or all data in one place trivially
            // satisfies any co-location requirement.
            (Singleton | Broadcast, Hash(..) | Range(..)) => true,
            (Hash(a, sa), Hash(b, sb)) | (Range(a, sa), Range(b, sb)) => {
                (a, sa) == (b, sb) || key_cols(ops.op(a), sa).eq(key_cols(ops.op(b), sb))
            }
            _ => false,
        }
    }

    /// The exchange implementation that delivers `self`; `None` for `Any`,
    /// which every input already satisfies.
    pub(crate) fn exchange(self) -> Option<PhysImpl> {
        match self {
            Part::Hash(..) => Some(PhysImpl::ExchangeHash),
            Part::Range(..) => Some(PhysImpl::ExchangeRange),
            Part::Broadcast => Some(PhysImpl::ExchangeBroadcast),
            Part::Singleton => Some(PhysImpl::ExchangeGather),
            Part::Any => None,
        }
    }

    /// The partitioning `self` names, with its key list copied out of
    /// `ops`: only plan extraction builds one.
    pub(crate) fn partitioning(self, ops: &ExprInterner) -> Partitioning {
        match self {
            Part::Any => Partitioning::Any,
            Part::Broadcast => Partitioning::Broadcast,
            Part::Singleton => Partitioning::Singleton,
            Part::Hash(op, side) => Partitioning::Hash(key_cols(ops.op(op), side).collect()),
            Part::Range(op, side) => Partitioning::Range(key_cols(ops.op(op), side).collect()),
        }
    }
}

/// What `phys` implementing `op` (interned as `expr`) requires of its
/// first child and of each later one; `Any` means no exchange. No
/// implementation asks different things of its second and third child: a
/// join has two, and a union asks the same of all of them.
pub(crate) fn required_parts(phys: PhysImpl, op: &LogicalOp, expr: ExprId) -> [Part; 2] {
    use Part::{Any, Broadcast, Singleton};
    use PhysImpl::*;
    // Cross joins degenerate to a gather.
    let keyless = !matches!(op, LogicalOp::Join { keys, .. } if !keys.is_empty());
    let grouped = |keyed: fn(ExprId, KeySide) -> Part| match op {
        LogicalOp::GroupBy { partial: true, .. } => Any,
        LogicalOp::GroupBy { keys, .. } if !keys.is_empty() => keyed(expr, KeySide::Own),
        _ => Singleton,
    };
    match phys {
        HashJoin1 | HashJoin2 | HashJoin3 | MergeJoin | IndexJoin if keyless => {
            [Singleton, Singleton]
        }
        HashJoin1 | HashJoin2 | HashJoin3 => [
            Part::Hash(expr, KeySide::Left),
            Part::Hash(expr, KeySide::Right),
        ],
        MergeJoin => [
            Part::Range(expr, KeySide::Left),
            Part::Range(expr, KeySide::Right),
        ],
        IndexJoin => [Any, Part::Hash(expr, KeySide::Right)],
        BroadcastJoin => [Any, Broadcast],
        LoopJoin | UnionSerial => [Singleton, Singleton],
        HashAgg => [grouped(Part::Hash), Any],
        SortAgg | StreamAgg => [grouped(Part::Range), Any],
        TopSort | SortSerial | ProcessSerial => [Singleton, Any],
        SortParallel | WindowSort => [Part::Range(expr, KeySide::Own), Any],
        WindowHash => [Part::Hash(expr, KeySide::Own), Any],
        ScanSerial | ScanParallel | ScanIndexed | FilterImpl | ProjectImpl | OutputImpl
        | UnionConcat | UnionVirtual | VirtualDatasetImpl | TopN | ProcessParallel
        | ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => [Any, Any],
    }
}

/// The partitioning `phys` implementing `op` (interned as `expr`)
/// delivers, or `None` when it hands on its first child's.
pub(crate) fn delivered_part(phys: PhysImpl, op: &LogicalOp, expr: ExprId) -> Option<Part> {
    use Part::{Any, Singleton};
    use PhysImpl::*;
    let keyed = matches!(op, LogicalOp::Join { keys, .. } if !keys.is_empty());
    let grouped = |keyed: fn(ExprId, KeySide) -> Part| match op {
        LogicalOp::GroupBy { partial: true, .. } => None,
        LogicalOp::GroupBy { keys, .. } if !keys.is_empty() => Some(keyed(expr, KeySide::Own)),
        _ => Some(Singleton),
    };
    let own_if = |is: bool, keyed: fn(ExprId, KeySide) -> Part| {
        Some(if is { keyed(expr, KeySide::Own) } else { Any })
    };
    match phys {
        FilterImpl | ProjectImpl | ProcessParallel | TopN | BroadcastJoin | IndexJoin => None,
        HashJoin1 | HashJoin2 | HashJoin3 | MergeJoin if !keyed => Some(Singleton),
        HashJoin1 | HashJoin2 | HashJoin3 => Some(Part::Hash(expr, KeySide::Left)),
        MergeJoin => Some(Part::Range(expr, KeySide::Left)),
        HashAgg => grouped(Part::Hash),
        SortAgg | StreamAgg => grouped(Part::Range),
        SortParallel => own_if(matches!(op, LogicalOp::Sort { .. }), Part::Range),
        WindowHash => own_if(matches!(op, LogicalOp::Window { .. }), Part::Hash),
        WindowSort => own_if(matches!(op, LogicalOp::Window { .. }), Part::Range),
        ScanSerial | LoopJoin | TopSort | SortSerial | UnionSerial | ProcessSerial => {
            Some(Singleton)
        }
        ScanParallel | ScanIndexed | UnionConcat | UnionVirtual | VirtualDatasetImpl
        | OutputImpl => Some(Any),
        ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => {
            unreachable!("exchange output partitioning is the enforcer's requirement")
        }
    }
}

/// Estimated cost of `phys` implementing `op`, given the operator's own
/// estimate, its children's estimates, and the observable catalog (for the
/// raw size of scanned tables).
///
/// Generic over [`ChildEsts`] so the search can pass a memo-slab view
/// without materialising a `Vec<&LogicalEst>` per costed alternative
/// (slices and arrays of `&LogicalEst` still work unchanged).
///
/// Component classification is a bit-identity contract with
/// [`CostWeights::scalarize`]: within each component the original
/// left-to-right term order is preserved (notably ScanIndexed's lookup
/// term stays fused into `io`, and ExchangeRange's trailing sampling
/// constant is classified as `cpu` so the fold re-adds it last).
pub fn impl_cost<C: ChildEsts + ?Sized>(
    phys: PhysImpl,
    op: &LogicalOp,
    own: &LogicalEst,
    children: &C,
    obs: &ObservableCatalog,
) -> OpCost {
    use PhysImpl::*;
    fn child<C: ChildEsts + ?Sized>(c: &C, i: usize) -> Option<&LogicalEst> {
        (i < c.len()).then(|| c.get(i))
    }
    let n = children.len();
    let mut in_rows = 0.0f64;
    let mut in_bytes = 0.0f64;
    for i in 0..n {
        let c = children.get(i);
        in_rows += c.rows;
        in_bytes += c.bytes();
    }
    // Producer boundary: whatever estimate.rs (or a buggy future rewrite)
    // hands us, nothing non-finite or negative proceeds into the formulas.
    let in_rows = sane_volume(in_rows, "row");
    let in_bytes = sane_volume(in_bytes, "byte");
    let mut oc = match phys {
        ScanSerial => OpCost {
            cost: CostEstimate {
                io: raw_scan_bytes(op, obs) * C_IO,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        ScanParallel => {
            // Parallel scans read the full input; the pushed predicate is
            // evaluated while scanning.
            let raw = raw_scan_bytes(op, obs);
            let dop = dop_for_bytes(raw);
            OpCost {
                cost: CostEstimate {
                    io: raw * C_IO / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        ScanIndexed => {
            // Indexed scans skip irrelevant partitions when a predicate was
            // pushed: charged on output bytes plus a lookup overhead. The
            // lookup term is classified as io (index pages), keeping the
            // original `read-io + lookup` addition order inside one
            // component.
            let raw = raw_scan_bytes(op, obs);
            let read = (own.bytes() * 2.0).min(raw).max(1.0);
            let dop = dop_for_bytes(read);
            OpCost {
                cost: CostEstimate {
                    io: read * C_IO / dop as f64 + 0.05 * raw.max(1.0).log2(),
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        FilterImpl => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_CPU_ROW / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        ProjectImpl => {
            let computed = match op {
                LogicalOp::Project { computed, .. } => *computed as f64,
                _ => 0.0,
            };
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_CPU_ROW * (1.0 + computed) / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        HashJoin1 | HashJoin2 | HashJoin3 => {
            let base = dop_for_bytes(in_bytes);
            let dop = match phys {
                HashJoin2 => bump_tier(base, 1),
                HashJoin3 => bump_tier(base, -1),
                _ => base,
            };
            // Build-side working set: the (estimated) right input, spread
            // across the vertices.
            let build = child(children, 1)
                .map(super::estimate::LogicalEst::bytes)
                .unwrap_or(0.0);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_HASH_ROW / dop as f64,
                    memory: build / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        MergeJoin => {
            let dop = dop_for_bytes(in_bytes);
            let sort = (0..n)
                .map(|i| {
                    let c = children.get(i);
                    c.rows * log2(c.rows) * C_SORT_ROW
                })
                .sum::<f64>();
            OpCost {
                cost: CostEstimate {
                    cpu: (sort + in_rows * C_CPU_ROW) / dop as f64,
                    memory: in_bytes / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        BroadcastJoin => {
            let l = child(children, 0);
            let r = child(children, 1);
            let l_bytes = l.map(super::estimate::LogicalEst::bytes).unwrap_or(0.0);
            let r_rows = r.map(|c| c.rows).unwrap_or(0.0);
            let r_bytes = r.map(super::estimate::LogicalEst::bytes).unwrap_or(0.0);
            let dop = dop_for_bytes(l_bytes);
            // Every vertex builds a hash table over the full right side.
            OpCost {
                cost: CostEstimate {
                    cpu: (l.map(|c| c.rows).unwrap_or(0.0) * C_HASH_ROW) / dop as f64
                        + r_rows * C_HASH_ROW,
                    memory: r_bytes,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        LoopJoin => {
            let l = child(children, 0).map(|c| c.rows).unwrap_or(0.0);
            let r = child(children, 1).map(|c| c.rows).unwrap_or(0.0);
            OpCost {
                cost: CostEstimate {
                    cpu: l * r * 0.02e-6,
                    vertices: C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop: 1,
            }
        }
        IndexJoin => {
            let l = child(children, 0).map(|c| c.rows).unwrap_or(0.0);
            let r = child(children, 1).map(|c| c.rows).unwrap_or(1.0);
            let dop = dop_for_bytes(child(children, 0).map(LogicalEst::bytes).unwrap_or(0.0));
            OpCost {
                cost: CostEstimate {
                    cpu: l * log2(r) * 0.8e-6 / dop as f64 + r * C_CPU_ROW * 0.1,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        HashAgg => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_HASH_ROW / dop as f64,
                    memory: in_bytes / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        SortAgg => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * log2(in_rows) * C_SORT_ROW / dop as f64,
                    memory: in_bytes / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        StreamAgg => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_CPU_ROW * 0.8 / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        UnionConcat => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_CPU_ROW * 0.1 / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        UnionSerial => OpCost {
            cost: CostEstimate {
                cpu: in_rows * C_CPU_ROW,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        UnionVirtual | VirtualDatasetImpl => {
            let dop = dop_for_bytes(in_bytes);
            // Materialization: write everything once, read it back once.
            OpCost {
                cost: CostEstimate {
                    io: 2.0 * in_bytes * C_IO / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        TopN => {
            let dop = dop_for_bytes(in_bytes);
            let k = top_k(op);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_CPU_ROW / dop as f64 + k * log2(k) * C_SORT_ROW,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        TopSort => OpCost {
            cost: CostEstimate {
                cpu: in_rows * log2(in_rows) * C_SORT_ROW,
                memory: in_bytes,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        SortParallel => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * log2(in_rows / dop as f64) * C_SORT_ROW / dop as f64,
                    memory: in_bytes / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        SortSerial => OpCost {
            cost: CostEstimate {
                cpu: in_rows * log2(in_rows) * C_SORT_ROW,
                memory: in_bytes,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        WindowHash => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * C_HASH_ROW / dop as f64,
                    memory: in_bytes / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        WindowSort => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    cpu: in_rows * log2(in_rows) * C_SORT_ROW / dop as f64,
                    memory: in_bytes / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        ProcessParallel => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    // One global assumption for every UDO's per-row cost.
                    cpu: in_rows * C_UDO_ROW * scope_ir::catalog::DEFAULT_UDO_CPU_PER_ROW
                        / dop as f64,
                    vertices: dop as f64 * C_VERTEX,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        ProcessSerial => OpCost {
            cost: CostEstimate {
                cpu: in_rows * C_UDO_ROW * scope_ir::catalog::DEFAULT_UDO_CPU_PER_ROW,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        OutputImpl => {
            let dop = dop_for_bytes(in_bytes);
            OpCost {
                cost: CostEstimate {
                    io: in_bytes * C_IO / dop as f64,
                    ..CostEstimate::ZERO
                },
                dop,
            }
        }
        ExchangeHash | ExchangeRange | ExchangeBroadcast | ExchangeGather => {
            exchange_cost(phys, in_bytes, dop_for_bytes(in_bytes))
        }
    };
    // Advisory output cardinality, weight 0 by default. Must stay finite:
    // an infinite value here would turn the `rows * 0.0` scalarize term
    // into NaN.
    oc.cost.rows = sane_volume(own.rows, "row");
    oc
}

/// Cost of an enforcer exchange moving `bytes` towards `target_dop`
/// consumers.
pub fn exchange_cost(phys: PhysImpl, bytes: f64, target_dop: u32) -> OpCost {
    use PhysImpl::*;
    let bytes = sane_volume(bytes, "byte");
    match phys {
        ExchangeHash => OpCost {
            cost: CostEstimate {
                net: bytes * C_NET / target_dop as f64,
                vertices: target_dop as f64 * C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: target_dop,
        },
        ExchangeRange => OpCost {
            // Range partitioning pays an extra sampling pass. The flat
            // sampling constant is classified as cpu — the scalarize fold
            // adds cpu after net and vertices, reproducing the original
            // `net + vertices + 0.5` addition order exactly.
            cost: CostEstimate {
                net: bytes * C_NET * 1.15 / target_dop as f64,
                vertices: target_dop as f64 * C_VERTEX,
                cpu: 0.5,
                ..CostEstimate::ZERO
            },
            dop: target_dop,
        },
        ExchangeBroadcast => OpCost {
            // Full copy to every consumer vertex.
            cost: CostEstimate {
                net: bytes * C_NET * target_dop as f64 / target_dop as f64 * 1.0
                    + bytes * C_NET * (target_dop as f64 - 1.0).max(0.0) * 0.02,
                vertices: target_dop as f64 * C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: target_dop,
        },
        ExchangeGather => OpCost {
            cost: CostEstimate {
                net: bytes * C_NET,
                vertices: C_VERTEX,
                ..CostEstimate::ZERO
            },
            dop: 1,
        },
        _ => unreachable!("not an exchange implementation"),
    }
}

/// The raw byte volume a scan reads: the whole table, regardless of any
/// pushed predicate (predicates are evaluated while reading). Public so the
/// bounds analysis (`scope-lint::bounds`) can anchor its scan cost floors on
/// the same rewrite-invariant quantity the cost model charges.
pub fn raw_scan_bytes(op: &LogicalOp, obs: &ObservableCatalog) -> f64 {
    match op {
        LogicalOp::RangeGet { table, .. } | LogicalOp::Get { table } => {
            obs.table_rows(*table) as f64 * obs.table_row_bytes(*table) as f64
        }
        _ => 0.0,
    }
}

fn top_k(op: &LogicalOp) -> f64 {
    match op {
        LogicalOp::Top { k } => *k as f64,
        _ => 1.0,
    }
}

fn bump_tier(dop: u32, delta: i32) -> u32 {
    let idx = DOP_TIERS.iter().position(|&t| t == dop).unwrap_or(0) as i32;
    let new = (idx + delta).clamp(0, DOP_TIERS.len() as i32 - 1) as usize;
    DOP_TIERS[new]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleCatalog;
    use scope_ir::ids::{ColId, DomainId, TableId};
    use scope_ir::{JoinKind, Predicate, TrueCatalog};

    fn est(rows: f64, row_bytes: f64) -> LogicalEst {
        LogicalEst {
            rows,
            row_bytes,
            cols: vec![],
        }
    }

    fn obs() -> ObservableCatalog {
        let mut cat = TrueCatalog::new();
        let c = cat.add_column(1000, 0.0, DomainId(0));
        cat.add_table(10_000_000, 100, 1, vec![c]);
        cat.observe()
    }

    /// Default scalarization — the one comparison value tests may rank by.
    fn ds(oc: &OpCost) -> f64 {
        CostWeights::DEFAULT.scalarize(&oc.cost)
    }

    #[test]
    fn dop_tiers_monotone() {
        assert_eq!(dop_for_bytes(0.0), 1);
        assert_eq!(dop_for_bytes(BYTES_PER_VERTEX), 1);
        assert_eq!(dop_for_bytes(BYTES_PER_VERTEX * 3.0), 5);
        assert_eq!(dop_for_bytes(BYTES_PER_VERTEX * 1e6), 250);
        let mut last = 0;
        for mult in [0.5, 1.5, 4.0, 20.0, 60.0, 120.0, 400.0] {
            let d = dop_for_bytes(BYTES_PER_VERTEX * mult);
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn hash_join_variants_change_dop() {
        let op = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let l = est(1e7, 100.0);
        let r = est(1e7, 100.0);
        let own = est(1e7, 200.0);
        let c1 = impl_cost(PhysImpl::HashJoin1, &op, &own, &[&l, &r], &obs());
        let c2 = impl_cost(PhysImpl::HashJoin2, &op, &own, &[&l, &r], &obs());
        let c3 = impl_cost(PhysImpl::HashJoin3, &op, &own, &[&l, &r], &obs());
        assert!(c2.dop > c1.dop);
        assert!(c3.dop < c1.dop);
    }

    #[test]
    fn broadcast_join_cheap_when_right_small() {
        let op = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let big = est(1e8, 100.0);
        let small = est(100.0, 50.0);
        let own = est(1e8, 150.0);
        let bc = impl_cost(PhysImpl::BroadcastJoin, &op, &own, &[&big, &small], &obs());
        let hash = impl_cost(PhysImpl::HashJoin1, &op, &own, &[&big, &small], &obs());
        // Broadcast itself is cheap; the exchange difference decides the
        // rest (no repartitioning of the big side).
        assert!(ds(&bc) < ds(&hash) * 2.0);
    }

    #[test]
    fn loop_join_only_sane_for_tiny_inputs() {
        let op = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let tiny = est(100.0, 50.0);
        let own = est(100.0, 100.0);
        let cheap = impl_cost(PhysImpl::LoopJoin, &op, &own, &[&tiny, &tiny], &obs());
        let big = est(1e6, 50.0);
        let expensive = impl_cost(PhysImpl::LoopJoin, &op, &own, &[&big, &big], &obs());
        assert!(ds(&cheap) < 1.0);
        assert!(ds(&expensive) > 1000.0);
    }

    #[test]
    fn required_parts_for_hash_join_are_hash() {
        let op = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(3), ColId(7))],
        };
        let mut ops = ExprInterner::new();
        let id = ops.intern(&op);
        let parts = required_parts(PhysImpl::HashJoin1, &op, id).map(|p| p.partitioning(&ops));
        assert_eq!(parts[0], Partitioning::Hash(vec![ColId(3)]));
        assert_eq!(parts[1], Partitioning::Hash(vec![ColId(7)]));
        let bparts = required_parts(PhysImpl::BroadcastJoin, &op, id);
        assert_eq!(bparts, [Part::Any, Part::Broadcast]);
    }

    #[test]
    fn exchange_impl_mapping() {
        let id = ExprId(0);
        assert_eq!(
            Part::Hash(id, KeySide::Own).exchange(),
            Some(PhysImpl::ExchangeHash)
        );
        assert_eq!(Part::Singleton.exchange(), Some(PhysImpl::ExchangeGather));
        assert_eq!(Part::Any.exchange(), None);
    }

    /// The handle form against the `Vec` form the frozen oracle keeps: for
    /// every implementation of every operator of a set that covers keyed
    /// and keyless joins, partial and full group-bys with and without
    /// keys, sorts, windows and a 3-way union, the requirements and the
    /// delivery build exactly the partitionings `required_child_parts` and
    /// `output_part` return, and `satisfies` and the exchange choice agree
    /// on every pair of handles.
    #[test]
    fn the_handle_form_materializes_to_the_vec_form() {
        use crate::classic::{exchange_impl_for, output_part, required_child_parts};
        use scope_ir::AggFunc;

        let c = ColId;
        let join = |keys: Vec<(ColId, ColId)>| LogicalOp::Join {
            kind: JoinKind::Inner,
            keys,
        };
        let group = |keys: Vec<ColId>, partial| LogicalOp::GroupBy {
            keys,
            aggs: vec![AggFunc::Count],
            partial,
        };
        let set = [
            LogicalOp::RangeGet {
                table: TableId(0),
                pushed: Predicate::true_pred(),
            },
            LogicalOp::Filter {
                predicate: Predicate::true_pred(),
            },
            LogicalOp::Project {
                cols: vec![c(1)],
                computed: 0,
            },
            join(vec![(c(1), c(2)), (c(3), c(4))]),
            join(vec![(c(2), c(1))]),
            join(vec![]),
            group(vec![c(1)], false),
            group(vec![c(1), c(3)], false),
            group(vec![c(1), c(3)], true),
            group(vec![], false),
            group(vec![], true),
            LogicalOp::UnionAll,
            LogicalOp::VirtualDataset,
            LogicalOp::Top { k: 10 },
            LogicalOp::Sort {
                keys: vec![c(1), c(3)],
            },
            LogicalOp::Sort { keys: vec![] },
            LogicalOp::Window { keys: vec![c(2)] },
            LogicalOp::Window { keys: vec![] },
            LogicalOp::Process {
                udo: scope_ir::UdoId(0),
            },
            LogicalOp::Output { stream: 1 },
        ];
        let arity = |op: &LogicalOp| match op.arity() {
            (_, usize::MAX) => 3,
            (_, max) => max,
        };
        let inputs = [
            Partitioning::Any,
            Partitioning::Singleton,
            Partitioning::Broadcast,
            Partitioning::Hash(vec![c(1)]),
            Partitioning::Range(vec![c(1), c(3)]),
        ];
        let mut ops = ExprInterner::new();
        let mut handles = vec![Part::Any, Part::Broadcast, Part::Singleton];
        let mut covered = std::collections::HashSet::new();
        for phys in RuleCatalog::global()
            .rules()
            .iter()
            .filter_map(|r| match r.action {
                crate::rules::RuleAction::Impl(phys) => Some(phys),
                _ => None,
            })
        {
            for op in set.iter().filter(|op| phys.implements() == Some(op.kind())) {
                covered.insert(format!("{phys:?}"));
                let id = ops.intern(op);
                let n = arity(op);
                let vec_form = required_child_parts(phys, op, n);
                assert!(vec_form.len() <= n.max(1), "{phys:?} on {op:?}");
                let reqs = required_parts(phys, op, id);
                for i in 0..n.max(vec_form.len()) {
                    let req = reqs[i.min(1)];
                    let want = vec_form.get(i).cloned().unwrap_or(Partitioning::Any);
                    assert_eq!(req.partitioning(&ops), want, "{phys:?} child {i} of {op:?}");
                    handles.push(req);
                }
                let delivered = delivered_part(phys, op, id);
                handles.extend(delivered);
                for input in &inputs {
                    let child_parts = vec![input.clone(); n];
                    let handed_on = child_parts.first().cloned().unwrap_or(Partitioning::Any);
                    let got = delivered.map_or(handed_on, |p| p.partitioning(&ops));
                    assert_eq!(
                        got,
                        output_part(phys, op, &child_parts),
                        "{phys:?} on {op:?}"
                    );
                }
            }
        }
        let exchanges = 4;
        assert_eq!(covered.len(), PhysImpl::COUNT - exchanges, "{covered:?}");
        assert!(handles.len() > 40);
        for &have in &handles {
            for &req in &handles {
                let (h, r) = (have.partitioning(&ops), req.partitioning(&ops));
                assert_eq!(
                    have.satisfies(req, &ops),
                    h.satisfies(&r),
                    "{h:?} for {r:?}"
                );
            }
            assert_eq!(have.exchange(), exchange_impl_for(&have.partitioning(&ops)));
        }
    }

    #[test]
    fn scan_cost_scales_with_pushed_predicates() {
        let pushed = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::atom(scope_ir::PredAtom::unknown(
                ColId(0),
                scope_ir::CmpOp::Eq,
                scope_ir::Literal::Int(1),
            )),
        };
        let own = est(1e4, 100.0);
        let idx = impl_cost(PhysImpl::ScanIndexed, &pushed, &own, &[], &obs());
        let par = impl_cost(PhysImpl::ScanParallel, &pushed, &own, &[], &obs());
        // Indexed scans profit from selective pushed predicates.
        assert!(ds(&idx) < ds(&par));
    }

    /// Bit-identity spot checks: the default scalarization of the
    /// decomposed arms equals the legacy single-expression formulas down to
    /// the last bit. The frozen `classic` oracle checks whole plans; these
    /// pin the trickiest individual arms (fused ScanIndexed lookup term,
    /// the ExchangeRange trailing constant, commuted cpu+vertex sums).
    #[test]
    fn default_scalarization_matches_legacy_formulas_bitwise() {
        let obs = obs();
        let op = LogicalOp::RangeGet {
            table: TableId(0),
            pushed: Predicate::atom(scope_ir::PredAtom::unknown(
                ColId(0),
                scope_ir::CmpOp::Eq,
                scope_ir::Literal::Int(1),
            )),
        };
        let own = est(1e4, 100.0);

        // ScanIndexed: read*C_IO/dop + lookup + dop*C_VERTEX.
        let idx = impl_cost(PhysImpl::ScanIndexed, &op, &own, &[], &obs);
        let raw = raw_scan_bytes(&op, &obs);
        let read = (own.bytes() * 2.0).min(raw).max(1.0);
        let dop = dop_for_bytes(read);
        let legacy = read * C_IO / dop as f64 + 0.05 * raw.max(1.0).log2() + dop as f64 * C_VERTEX;
        assert_eq!(ds(&idx).to_bits(), legacy.to_bits());

        // ExchangeRange: net + vertices + 0.5, in that order.
        let er = exchange_cost(PhysImpl::ExchangeRange, 3.5e9, 25);
        let legacy = 3.5e9 * C_NET * 1.15 / 25.0 + 25.0 * C_VERTEX + 0.5;
        assert_eq!(ds(&er).to_bits(), legacy.to_bits());

        // HashJoin1: cpu + vertices (commuted in the fold).
        let jop = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let l = est(1e7, 100.0);
        let r = est(3e6, 80.0);
        let jown = est(1e7, 180.0);
        let hj = impl_cost(PhysImpl::HashJoin1, &jop, &jown, &[&l, &r], &obs);
        let in_rows = l.rows + r.rows;
        let in_bytes = l.bytes() + r.bytes();
        let dop = dop_for_bytes(in_bytes);
        let legacy = in_rows * C_HASH_ROW / dop as f64 + dop as f64 * C_VERTEX;
        assert_eq!(ds(&hj).to_bits(), legacy.to_bits());

        // MergeJoin: (sort + cpu)/dop + vertices.
        let mj = impl_cost(PhysImpl::MergeJoin, &jop, &jown, &[&l, &r], &obs);
        let sort = l.rows * l.rows.max(2.0).log2() * C_SORT_ROW
            + r.rows * r.rows.max(2.0).log2() * C_SORT_ROW;
        let legacy = (sort + in_rows * C_CPU_ROW) / dop as f64 + dop as f64 * C_VERTEX;
        assert_eq!(ds(&mj).to_bits(), legacy.to_bits());
    }

    #[test]
    fn identity_corrections_are_bit_exact() {
        let op = LogicalOp::Join {
            kind: JoinKind::Inner,
            keys: vec![(ColId(0), ColId(1))],
        };
        let l = est(1e7, 100.0);
        let r = est(3e6, 80.0);
        let own = est(1e7, 180.0);
        for phys in [
            PhysImpl::HashJoin1,
            PhysImpl::MergeJoin,
            PhysImpl::BroadcastJoin,
            PhysImpl::LoopJoin,
        ] {
            let oc = impl_cost(phys, &op, &own, &[&l, &r], &obs());
            assert_eq!(
                CostModel::DEFAULT.scalar(&oc.cost).to_bits(),
                CostWeights::DEFAULT.scalarize(&oc.cost).to_bits()
            );
        }
    }

    #[test]
    fn weights_steer_along_the_io_axis() {
        // An IO-heavy materialization vs a cpu-heavy union concat: raising
        // the io weight must flip (or at least widen) their relative order.
        let op = LogicalOp::UnionAll;
        let a = est(5e5, 400.0);
        let b = est(5e5, 400.0);
        let own = est(1e6, 400.0);
        let virt = impl_cost(PhysImpl::UnionVirtual, &op, &own, &[&a, &b], &obs());
        let concat = impl_cost(PhysImpl::UnionConcat, &op, &own, &[&a, &b], &obs());
        let hi_io = CostWeights {
            io: 8.0,
            ..CostWeights::DEFAULT
        };
        let gap_default = CostWeights::DEFAULT.scalarize(&virt.cost)
            - CostWeights::DEFAULT.scalarize(&concat.cost);
        let gap_hi = hi_io.scalarize(&virt.cost) - hi_io.scalarize(&concat.cost);
        assert!(gap_hi > gap_default, "io weight must penalize io-heavy ops");
    }

    #[test]
    fn clamp_volume_neutralizes_degenerate_estimates() {
        assert_eq!(clamp_volume(f64::NAN), 0.0);
        assert_eq!(clamp_volume(f64::INFINITY), 0.0);
        assert_eq!(clamp_volume(f64::NEG_INFINITY), 0.0);
        assert_eq!(clamp_volume(-3.5), 0.0);
        // Identity for healthy values, bit-exactly.
        for v in [0.0, 1.0, 1e-300, 7.25e18] {
            assert_eq!(clamp_volume(v).to_bits(), v.to_bits());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte estimate outside")]
    fn dop_for_bytes_refuses_nan_in_debug() {
        dop_for_bytes(f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte estimate outside")]
    fn dop_for_bytes_refuses_negative_in_debug() {
        dop_for_bytes(-1.0);
    }

    #[test]
    fn cost_estimate_arithmetic() {
        let a = CostEstimate {
            rows: 1.0,
            cpu: 2.0,
            io: 3.0,
            net: 4.0,
            memory: 5.0,
            vertices: 6.0,
        };
        let b = CostEstimate {
            rows: 0.5,
            cpu: 3.0,
            io: 1.0,
            net: 1.0,
            memory: 1.0,
            vertices: 1.0,
        };
        let s = a.add(&b);
        assert_eq!(s.cpu, 5.0);
        assert_eq!(s.vertices, 7.0);
        let d = a.saturating_sub(&b);
        assert_eq!(d.cpu, 0.0); // floored, 2 - 3 < 0
        assert_eq!(d.io, 2.0);
        assert!(a.is_valid());
        assert!(!CostEstimate {
            cpu: f64::NAN,
            ..CostEstimate::ZERO
        }
        .is_valid());
    }

    #[test]
    fn model_fingerprints_distinguish_weights_and_corrections() {
        let d = CostModel::DEFAULT;
        let w = CostModel {
            weights: CostWeights {
                io: 2.0,
                ..CostWeights::DEFAULT
            },
            corrections: CostCorrections::IDENTITY,
        };
        let c = CostModel {
            weights: CostWeights::DEFAULT,
            corrections: CostCorrections {
                cpu: 1.5,
                ..CostCorrections::IDENTITY
            },
        };
        assert_ne!(d.fingerprint_bits(), w.fingerprint_bits());
        assert_ne!(d.fingerprint_bits(), c.fingerprint_bits());
        assert_ne!(w.fingerprint_bits(), c.fingerprint_bits());
        assert_eq!(d.fingerprint_bits(), CostModel::DEFAULT.fingerprint_bits());
    }
}
