//! Bandit baselines for configuration choice.
//!
//! Bao treats each hint set as an arm of a multi-armed bandit; the paper
//! (§4, challenge 3) argues that formulation does not scale to SCOPE and
//! uses supervised per-group models instead. These baselines make that
//! comparison measurable on the same per-group datasets: an ε-greedy
//! bandit, a Thompson-sampling bandit (Gaussian rewards), and a
//! cost-model chooser (always pick the configuration with the lowest
//! estimated cost — no learning at all).
//!
//! Bandits are *contextless*: they see runtimes, never features, so on
//! groups where the best configuration depends on the day's input size
//! they converge to the best *fixed* arm while the supervised model can
//! switch per job — exactly the gap the paper's design exploits.

use rand::Rng;

use scope_ir::stats::{nan_first_cmp, nan_last_cmp};

use crate::dataset::{GroupDataset, GroupSample};

/// A sequential arm chooser.
pub trait ArmChooser {
    /// Pick an arm for the next sample.
    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize;
    /// Observe the reward (negated normalized runtime) of the chosen arm.
    fn update(&mut self, arm: usize, reward: f64);
}

/// ε-greedy over mean rewards.
#[derive(Clone, Debug)]
pub struct EpsilonGreedy {
    epsilon: f64,
    counts: Vec<u64>,
    means: Vec<f64>,
}

impl EpsilonGreedy {
    pub fn new(arms: usize, epsilon: f64) -> EpsilonGreedy {
        EpsilonGreedy {
            epsilon,
            counts: vec![0; arms],
            means: vec![0.0; arms],
        }
    }
}

impl ArmChooser for EpsilonGreedy {
    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        if rng.gen_bool(self.epsilon) {
            return rng.gen_range(0..self.means.len());
        }
        // Prefer unexplored arms, then the best mean.
        if let Some(i) = self.counts.iter().position(|&c| c == 0) {
            return i;
        }
        // NaN-first ordering: a mean poisoned by a NaN reward can never win
        // the maximum (and can never panic the replay).
        self.means
            .iter()
            .enumerate()
            .max_by(|a, b| nan_first_cmp(*a.1, *b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.counts[arm] += 1;
        let n = self.counts[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }
}

/// Thompson sampling with a Gaussian posterior per arm (known-variance
/// approximation: posterior variance `1/(n+1)`).
#[derive(Clone, Debug)]
pub struct ThompsonGaussian {
    counts: Vec<u64>,
    means: Vec<f64>,
}

impl ThompsonGaussian {
    pub fn new(arms: usize) -> ThompsonGaussian {
        ThompsonGaussian {
            counts: vec![0; arms],
            means: vec![0.0; arms],
        }
    }
}

impl ArmChooser for ThompsonGaussian {
    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        // Only finite samples compete; a posterior poisoned by NaN rewards
        // (or a sample that overflowed) cannot win the draw.
        let mut best: Option<usize> = None;
        let mut best_sample = f64::NEG_INFINITY;
        for i in 0..self.means.len() {
            let sd = 1.0 / ((self.counts[i] as f64) + 1.0).sqrt();
            // Box–Muller normal sample.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let sample = self.means[i] + sd * z;
            if sample.is_finite() && (best.is_none() || sample > best_sample) {
                best_sample = sample;
                best = Some(i);
            }
        }
        match best {
            Some(i) => i,
            None => {
                // Every sampled value was non-finite. Fall back to the
                // deterministic exploration choice — the least-pulled arm
                // (ties to the lowest index) — and count the event.
                scope_trace::count(scope_trace::Counter::BanditDegenerateChoice, 1);
                self.counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &c)| (c, i))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.counts[arm] += 1;
        let n = self.counts[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }
}

/// Result of replaying a chooser over a dataset in submission order.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Runtime actually paid at each step.
    pub runtimes: Vec<f64>,
    /// Arm chosen at each step.
    pub choices: Vec<usize>,
}

impl ReplayResult {
    /// Mean regret per step against the per-sample best configuration.
    pub fn mean_regret(&self, samples: &[&GroupSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let regret: f64 = samples
            .iter()
            .zip(self.runtimes.iter())
            .map(|(s, &paid)| paid - s.runtimes.iter().cloned().fold(f64::INFINITY, f64::min))
            .sum();
        regret / samples.len() as f64
    }
}

/// Replay a bandit over the dataset's samples in day order (the online
/// protocol Bao uses: choose, execute, observe).
pub fn replay_bandit<C: ArmChooser, R: Rng + ?Sized>(
    ds: &GroupDataset,
    chooser: &mut C,
    rng: &mut R,
) -> ReplayResult {
    let mut ordered: Vec<&GroupSample> = ds.samples.iter().collect();
    ordered.sort_by_key(|s| (s.day, s.job_id));
    let mut runtimes = Vec::with_capacity(ordered.len());
    let mut choices = Vec::with_capacity(ordered.len());
    for s in ordered {
        let arm = chooser.choose(rng);
        let rt = s.runtimes[arm];
        // Reward: negated per-sample normalized runtime (0 = best arm).
        let lo = s.runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s.runtimes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let reward = if hi > lo { -(rt - lo) / (hi - lo) } else { 0.0 };
        chooser.update(arm, reward);
        runtimes.push(rt);
        choices.push(arm);
    }
    ReplayResult { runtimes, choices }
}

/// The no-learning baseline: always pick the candidate with the lowest
/// estimated cost (feature layout from `features::config_features`: the
/// log-cost is the first entry of each per-config block).
pub fn cost_model_choice(sample: &GroupSample, k: usize) -> usize {
    let job_dim = crate::features::job_feature_dim();
    let config_dim = crate::features::config_feature_dim();
    // NaN-last: a corrupted cost feature loses the minimum instead of
    // panicking the baseline.
    (0..k)
        .min_by(|&a, &b| {
            let ca = sample.features[job_dim + a * config_dim];
            let cb = sample.features[job_dim + b * config_dim];
            nan_last_cmp(ca, cb)
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GroupSample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scope_ir::ids::JobId;
    use scope_optimizer::RuleConfig;

    /// Arm 1 is always best by a wide margin.
    fn static_dataset(n: usize) -> GroupDataset {
        let samples = (0..n)
            .map(|i| GroupSample {
                job_id: JobId(i as u64),
                day: (i / 5) as u32,
                features: vec![0.0; 4],
                runtimes: vec![100.0, 10.0, 80.0],
            })
            .collect();
        GroupDataset {
            configs: vec![RuleConfig::default_config(); 3],
            samples,
            feature_dim: 4,
            skipped: 0,
        }
    }

    /// The best arm flips with the day's parity — unlearnable without
    /// features.
    fn contextual_dataset(n: usize) -> GroupDataset {
        let samples = (0..n)
            .map(|i| {
                let even = (i / 3) % 2 == 0;
                GroupSample {
                    job_id: JobId(i as u64),
                    day: (i / 3) as u32,
                    features: vec![if even { 1.0 } else { 0.0 }; 4],
                    runtimes: if even {
                        vec![100.0, 10.0]
                    } else {
                        vec![10.0, 100.0]
                    },
                }
            })
            .collect();
        GroupDataset {
            configs: vec![RuleConfig::default_config(); 2],
            samples,
            feature_dim: 4,
            skipped: 0,
        }
    }

    #[test]
    fn epsilon_greedy_converges_on_static_best_arm() {
        let ds = static_dataset(300);
        let mut bandit = EpsilonGreedy::new(3, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let result = replay_bandit(&ds, &mut bandit, &mut rng);
        // In the second half, arm 1 dominates the choices.
        let late = &result.choices[150..];
        let best_picks = late.iter().filter(|&&c| c == 1).count();
        assert!(
            best_picks as f64 > late.len() as f64 * 0.8,
            "{best_picks}/150"
        );
    }

    #[test]
    fn thompson_converges_on_static_best_arm() {
        let ds = static_dataset(300);
        let mut bandit = ThompsonGaussian::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        let result = replay_bandit(&ds, &mut bandit, &mut rng);
        let late = &result.choices[150..];
        let best_picks = late.iter().filter(|&&c| c == 1).count();
        assert!(
            best_picks as f64 > late.len() as f64 * 0.8,
            "{best_picks}/150"
        );
    }

    #[test]
    fn bandits_cannot_track_context_switches() {
        let ds = contextual_dataset(240);
        let mut bandit = EpsilonGreedy::new(2, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        let result = replay_bandit(&ds, &mut bandit, &mut rng);
        let ordered: Vec<&GroupSample> = {
            let mut v: Vec<&GroupSample> = ds.samples.iter().collect();
            v.sort_by_key(|s| (s.day, s.job_id));
            v
        };
        // Per-sample best is 10; a context-blind policy pays ~55 on half
        // the samples, so mean regret stays large.
        let regret = result.mean_regret(&ordered);
        assert!(regret > 20.0, "regret {regret}");
    }

    #[test]
    fn replay_is_chronological() {
        let ds = static_dataset(20);
        let mut bandit = EpsilonGreedy::new(3, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let result = replay_bandit(&ds, &mut bandit, &mut rng);
        assert_eq!(result.runtimes.len(), 20);
        assert_eq!(result.choices.len(), 20);
        assert!(result.runtimes.iter().sum::<f64>() > 0.0);
    }

    /// Runtimes poisoned with NaN and infinity — the rewards themselves go
    /// NaN, so the posteriors degrade in every arm.
    fn poisoned_dataset(n: usize) -> GroupDataset {
        let samples = (0..n)
            .map(|i| GroupSample {
                job_id: JobId(i as u64),
                day: (i / 5) as u32,
                features: vec![0.0; 4],
                runtimes: vec![f64::NAN, f64::INFINITY, 50.0],
            })
            .collect();
        GroupDataset {
            configs: vec![RuleConfig::default_config(); 3],
            samples,
            feature_dim: 4,
            skipped: 0,
        }
    }

    #[test]
    fn replay_tolerates_nan_and_infinite_runtimes() {
        let ds = poisoned_dataset(60);
        let mut eps = EpsilonGreedy::new(3, 0.1);
        let mut rng = StdRng::seed_from_u64(7);
        let result = replay_bandit(&ds, &mut eps, &mut rng);
        assert_eq!(result.runtimes.len(), 60);
        assert!(result.choices.iter().all(|&c| c < 3));

        let mut ts = ThompsonGaussian::new(3);
        let mut rng = StdRng::seed_from_u64(8);
        let result = replay_bandit(&ds, &mut ts, &mut rng);
        assert_eq!(result.runtimes.len(), 60);
        assert!(result.choices.iter().all(|&c| c < 3));
    }

    #[test]
    fn thompson_degenerate_falls_back_deterministically() {
        let mut bandit = ThompsonGaussian::new(3);
        for arm in 0..3 {
            bandit.update(arm, f64::NAN);
        }
        // Every posterior mean is NaN, so every sampled value is NaN: the
        // chooser must fall back to the least-pulled arm, deterministically.
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(bandit.choose(&mut rng), 0);
        assert_eq!(bandit.choose(&mut rng), 0);
    }

    #[test]
    fn cost_model_choice_tolerates_nan_costs() {
        let job_dim = crate::features::job_feature_dim();
        let config_dim = crate::features::config_feature_dim();
        let mut features = vec![0.0; job_dim + 3 * config_dim];
        features[job_dim] = f64::NAN; // config 0 — corrupted, must lose
        features[job_dim + config_dim] = 2.0; // config 1 — cheapest finite
        features[job_dim + 2 * config_dim] = 3.0;
        let s = GroupSample {
            job_id: JobId(1),
            day: 0,
            features,
            runtimes: vec![1.0, 1.0, 1.0],
        };
        assert_eq!(cost_model_choice(&s, 3), 1);
    }

    #[test]
    fn cost_model_choice_reads_the_cost_slot() {
        let job_dim = crate::features::job_feature_dim();
        let config_dim = crate::features::config_feature_dim();
        let mut features = vec![0.0; job_dim + 3 * config_dim];
        features[job_dim] = 5.0; // config 0 log-cost
        features[job_dim + config_dim] = 1.0; // config 1 — cheapest
        features[job_dim + 2 * config_dim] = 3.0; // config 2
        let s = GroupSample {
            job_id: JobId(1),
            day: 0,
            features,
            runtimes: vec![1.0, 1.0, 1.0],
        };
        assert_eq!(cost_model_choice(&s, 3), 1);
    }
}
