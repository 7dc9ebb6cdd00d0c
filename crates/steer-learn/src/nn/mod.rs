//! A dependency-free neural-network implementation sized for the paper's
//! lightweight per-group models.

pub mod matrix;
pub mod mlp;

pub use mlp::Mlp;
