//! # steer-learn
//!
//! The learning half of the paper (§7): choose one of K candidate rule
//! configurations for an unseen job of a known job group.
//!
//! * [`features`] / [`encode`] — the §7.2 feature vector (job-level,
//!   per-configuration RuleDiff + cost, per-operator query-graph slots)
//!   with min-max / one-hot / 50-bin-hash encodings,
//! * [`nn`] — a from-scratch one-hidden-layer MLP with sigmoid outputs,
//!   Adam, and PyTorch-style continuous binary cross entropy (§7.3),
//! * [`dataset`] — §7.1's per-group dataset: K configurations executed on
//!   every sampled job,
//! * [`trainer`] — 40/20/40 split, validation-based model selection, early
//!   stopping,
//! * [`eval`] — Table 5 statistics and Figure 8 per-query deltas,
//! * [`bandit`] — Bao-style multi-armed-bandit baselines (ε-greedy,
//!   Thompson) and a cost-model chooser, for the §4 scalability argument.

pub mod bandit;
pub mod dataset;
pub mod encode;
pub mod eval;
pub mod features;
pub mod nn;
pub mod trainer;

pub use bandit::{
    cost_model_choice, replay_bandit, ArmChooser, EpsilonGreedy, ReplayResult, ThompsonGaussian,
};
pub use dataset::{build_group_dataset, GroupDataset, GroupSample};
pub use encode::{hash_bin, normalize_targets, Normalizer, HASH_BINS};
pub use eval::{evaluate, GroupEval, PerQuery, RuntimeStats};
pub use features::{assemble, config_features, feature_dim, job_features};
pub use nn::{bce_loss, Mlp};
pub use trainer::{split_indices, train_group, LearnedChooser, Split, TrainParams};
