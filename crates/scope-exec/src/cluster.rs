//! Cluster configuration for the execution simulator.

/// Configuration of the (simulated) cluster a job runs on.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Concurrent containers available to the job (SCOPE "tokens"). The
    /// paper's A/B runs fix this at 50.
    pub tokens: u32,
    /// Memory per vertex in bytes; hash builds beyond this spill.
    pub mem_per_vertex: f64,
    /// Baseline multiplicative runtime noise (σ of the underlying normal)
    /// for long jobs.
    pub noise_sigma_long: f64,
    /// Extra noise for short jobs (the paper reports ≈10% variance for
    /// short-running jobs); decays with runtime.
    pub noise_sigma_short: f64,
    /// Runtime (seconds) at which "short-job" noise has decayed by 1/e.
    pub noise_decay_s: f64,
}

impl ClusterConfig {
    /// The A/B testing environment of the paper: every job re-executed with
    /// the same 50 tokens.
    pub fn ab_testing() -> ClusterConfig {
        ClusterConfig {
            tokens: 50,
            mem_per_vertex: 1.0 * 1024.0 * 1024.0 * 1024.0,
            noise_sigma_long: 0.025,
            noise_sigma_short: 0.10,
            noise_decay_s: 400.0,
        }
    }

    /// A noise-free variant for deterministic tests.
    pub fn noiseless() -> ClusterConfig {
        ClusterConfig {
            noise_sigma_long: 0.0,
            noise_sigma_short: 0.0,
            ..Self::ab_testing()
        }
    }

    /// Effective noise σ for a job of the given true runtime.
    pub(crate) fn sigma_for_runtime(&self, runtime_s: f64) -> f64 {
        self.noise_sigma_long
            + self.noise_sigma_short * (-runtime_s / self.noise_decay_s.max(1.0)).exp()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::ab_testing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_cluster_has_paper_tokens() {
        assert_eq!(ClusterConfig::ab_testing().tokens, 50);
    }

    #[test]
    fn short_jobs_are_noisier() {
        let c = ClusterConfig::ab_testing();
        assert!(c.sigma_for_runtime(30.0) > c.sigma_for_runtime(3600.0));
        assert!(c.sigma_for_runtime(30.0) > 0.09);
        assert!(c.sigma_for_runtime(36_000.0) < 0.03);
    }

    #[test]
    fn noiseless_cluster_has_zero_sigma() {
        let c = ClusterConfig::noiseless();
        assert_eq!(c.sigma_for_runtime(10.0), 0.0);
    }

    #[test]
    fn wave_counts_follow_token_limit() {
        let waves =
            |dop| crate::simulate::waves_for_tokens(dop, ClusterConfig::ab_testing().tokens);
        assert_eq!(waves(1), 1.0);
        assert_eq!(waves(50), 1.0);
        assert_eq!(waves(51), 2.0);
        assert_eq!(waves(500), 10.0);
    }
}
