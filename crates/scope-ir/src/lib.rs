//! # scope-ir
//!
//! The intermediate representation shared by the whole `scope-steer` stack:
//!
//! * [`expr`] — scalar expressions and predicates (conjunctions of atoms),
//! * [`ops`] — logical operators of the SCOPE-like engine,
//! * [`plan`] — arena-allocated plan DAGs with template hashing,
//! * [`catalog`] — the *true* data catalog (known only to the execution
//!   simulator) and the *observable* catalog (what the optimizer may see),
//! * [`job`] — jobs, templates, and recurring-job metadata,
//! * [`stats`] — small numeric helpers (percentiles, lognormal sampling),
//! * [`hash`] — the word-at-a-time hasher for maps keyed by hashes and ids.
//!
//! ## True vs. observable state
//!
//! The central design idea of the reproduction is an explicit split between
//! what the cluster *knows* ([`catalog::TrueCatalog`]: true selectivities,
//! predicate correlation, key skew, user-defined-operator cost) and what the
//! optimizer *may observe* ([`catalog::ObservableCatalog`]: input sizes,
//! schema, rounded distinct counts). Every effect in the paper — cheap plans
//! that run slowly, rule configurations that fix them — arises from this gap.

pub mod catalog;
pub mod display;
pub mod expr;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod interval;
pub mod job;
pub mod ops;
pub mod plan;
pub mod stats;
pub mod validate;

pub use catalog::{ColumnStats, ObservableCatalog, TableStats, TrueCatalog};
pub use expr::{CmpOp, Literal, PredAtom, Predicate};
pub use ids::{ColId, DomainId, JobId, NodeId, PredId, TableId, TemplateId, UdoId};
pub use intern::{AtomId, AtomInterner, ExprId, ExprInterner};
pub use interval::Interval;
pub use job::{InputRef, Job};
pub use ops::{AggFunc, JoinKind, LogicalOp, OpKind};
pub use plan::{PlanGraph, PlanNode};
pub use validate::{check_structure, validate_logical, PlanViolation, StructuralNode};
