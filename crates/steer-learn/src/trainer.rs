//! Training and model selection (§7.3–§7.4): 40/20/40 train/validation/test
//! split, BCE on per-sample min-max-normalized runtimes, learning-rate
//! selection and early stopping on the validation set.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::GroupDataset;
use crate::encode::{normalize_targets, Normalizer};
use crate::nn::mlp::Mlp;

/// Training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainParams {
    /// Hidden width (the paper uses 1024; tests shrink this).
    pub hidden: usize,
    /// Learning rates tried; the validation set picks the winner.
    pub lrs: Vec<f64>,
    pub epochs: usize,
    pub batch: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    pub train_frac: f64,
    pub val_frac: f64,
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            hidden: 1024,
            lrs: vec![1e-3, 3e-4],
            epochs: 150,
            batch: 16,
            patience: 20,
            train_frac: 0.4,
            val_frac: 0.2,
            seed: 0,
        }
    }
}

/// Index split of a dataset.
#[derive(Clone, Debug, Default)]
pub struct Split {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
    pub test: Vec<usize>,
}

/// Random 40/20/40 split.
pub(crate) fn split_indices<R: Rng + ?Sized>(n: usize, p: &TrainParams, rng: &mut R) -> Split {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let n_train = ((n as f64) * p.train_frac).round() as usize;
    let n_val = ((n as f64) * p.val_frac).round() as usize;
    Split {
        train: idx[..n_train.min(n)].to_vec(),
        val: idx[n_train.min(n)..(n_train + n_val).min(n)].to_vec(),
        test: idx[(n_train + n_val).min(n)..].to_vec(),
    }
}

/// A trained per-group chooser.
pub struct LearnedChooser {
    pub model: Mlp,
    pub normalizer: Normalizer,
    /// Validation loss of the selected model.
    pub val_loss: f64,
    /// Learning rate that won model selection.
    pub lr: f64,
}

impl LearnedChooser {
    /// Pick the configuration index (argmin of predicted normalized
    /// runtime) for a raw feature vector.
    pub(crate) fn choose(&self, raw_features: &[f64]) -> usize {
        let x = self.normalizer.transform(raw_features);
        let pred = self.model.predict(&x);
        // NaN-last: a diverged model (NaN predictions) degrades to a
        // deterministic choice instead of panicking the serving path.
        pred.iter()
            .enumerate()
            .min_by(|a, b| scope_ir::stats::nan_last_cmp(*a.1, *b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Train a chooser for one group dataset. Returns the chooser and the split
/// used (so evaluation reports on the held-out test set).
pub fn train_group<R: Rng + ?Sized>(
    ds: &GroupDataset,
    params: &TrainParams,
    rng: &mut R,
) -> (LearnedChooser, Split) {
    assert!(!ds.is_empty(), "empty dataset");
    let split = split_indices(ds.len(), params, rng);
    let normalizer = Normalizer::fit(
        &split
            .train
            .iter()
            .map(|&i| ds.samples[i].features.clone())
            .collect::<Vec<_>>(),
    );

    let xs: Vec<Vec<f64>> = ds
        .samples
        .iter()
        .map(|s| normalizer.transform(&s.features))
        .collect();
    let ys: Vec<Vec<f64>> = ds
        .samples
        .iter()
        .map(|s| normalize_targets(&s.runtimes))
        .collect();

    let eval_loss = |model: &Mlp, idx: &[usize]| -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter()
            .map(|&i| crate::nn::mlp::bce_loss(&model.predict(&xs[i]), &ys[i]))
            .sum::<f64>()
            / idx.len() as f64
    };

    let mut best: Option<LearnedChooser> = None;
    for &lr in &params.lrs {
        let mut model = Mlp::new(ds.feature_dim, params.hidden, ds.k(), rng);
        let mut best_val = f64::INFINITY;
        let mut best_model = model.clone();
        let mut since_improve = 0usize;
        let mut order: Vec<usize> = split.train.clone();
        for _epoch in 0..params.epochs {
            order.shuffle(rng);
            for chunk in order.chunks(params.batch.max(1)) {
                let bx: Vec<Vec<f64>> = chunk.iter().map(|&i| xs[i].clone()).collect();
                let by: Vec<Vec<f64>> = chunk.iter().map(|&i| ys[i].clone()).collect();
                model.train_batch(&bx, &by, lr);
            }
            let val = eval_loss(&model, &split.val);
            if val + 1e-9 < best_val {
                best_val = val;
                best_model = model.clone();
                since_improve = 0;
            } else {
                since_improve += 1;
                if since_improve >= params.patience {
                    break;
                }
            }
        }
        let candidate = LearnedChooser {
            model: best_model,
            normalizer: normalizer.clone(),
            val_loss: best_val,
            lr,
        };
        let better = best
            .as_ref()
            .map(|b| candidate.val_loss < b.val_loss)
            .unwrap_or(true);
        if better {
            best = Some(candidate);
        }
    }
    (best.expect("at least one learning rate"), split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GroupSample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scope_ir::ids::JobId;
    use scope_optimizer::RuleConfig;

    /// Synthetic group: config 1 wins when feature 0 is large, config 0
    /// wins otherwise — learnable from features.
    fn synthetic_dataset(n: usize) -> GroupDataset {
        let mut rng = StdRng::seed_from_u64(5);
        let samples = (0..n)
            .map(|i| {
                let big = rng.gen_bool(0.5);
                let f0 = if big { 1.0 } else { 0.0 };
                let noise: f64 = rng.gen_range(0.95..1.05);
                let (r0, r1) = if big {
                    (1000.0 * noise, 300.0 * noise)
                } else {
                    (200.0 * noise, 600.0 * noise)
                };
                GroupSample {
                    job_id: JobId(i as u64),
                    day: 0,
                    features: vec![f0, rng.gen_range(0.0..1.0), 1.0],
                    runtimes: vec![r0, r1],
                }
            })
            .collect();
        GroupDataset {
            configs: vec![RuleConfig::default_config(); 2],
            samples,
            feature_dim: 3,
            skipped: 0,
        }
    }

    fn fast_params() -> TrainParams {
        TrainParams {
            hidden: 24,
            lrs: vec![3e-3],
            epochs: 80,
            batch: 8,
            patience: 30,
            seed: 1,
            ..TrainParams::default()
        }
    }

    #[test]
    fn split_respects_fractions_and_disjointness() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = split_indices(100, &TrainParams::default(), &mut rng);
        assert_eq!(s.train.len(), 40);
        assert_eq!(s.val.len(), 20);
        assert_eq!(s.test.len(), 40);
        let mut all: Vec<usize> = s
            .train
            .iter()
            .chain(s.val.iter())
            .chain(s.test.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn learns_the_feature_dependent_choice() {
        let ds = synthetic_dataset(200);
        let mut rng = StdRng::seed_from_u64(2);
        let (chooser, split) = train_group(&ds, &fast_params(), &mut rng);
        // On the test split the chooser must beat always-default by a wide
        // margin.
        let mut learned_total = 0.0;
        let mut default_total = 0.0;
        let mut best_total = 0.0;
        for &i in &split.test {
            let s = &ds.samples[i];
            learned_total += s.runtimes[chooser.choose(&s.features)];
            default_total += s.runtimes[0];
            best_total += s.runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
        }
        assert!(
            learned_total < default_total * 0.85,
            "learned {learned_total} vs default {default_total}"
        );
        assert!(learned_total >= best_total * 0.99);
    }

    #[test]
    fn chooser_is_deterministic_after_training() {
        let ds = synthetic_dataset(60);
        let mut rng = StdRng::seed_from_u64(3);
        let (chooser, _) = train_group(&ds, &fast_params(), &mut rng);
        let f = &ds.samples[0].features;
        assert_eq!(chooser.choose(f), chooser.choose(f));
    }
}
