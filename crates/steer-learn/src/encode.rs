//! Feature encoders (§7.2): min-max normalization for continuous features,
//! one-hot for small alphabets, and a deterministic 50-bin hashing scheme
//! for large-alphabet categorical features.

/// Number of hash bins for large-alphabet categoricals (the paper uses 50).
pub const HASH_BINS: usize = 50;

/// Deterministic bin for a hashed categorical value.
pub fn hash_bin(value: u64) -> usize {
    // Splitmix-style finalizer for good bin spread.
    let mut x = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % HASH_BINS as u64) as usize
}

/// Write a one-hot encoding of `index` into `out[offset..offset+width]`.
pub fn one_hot(out: &mut [f64], offset: usize, width: usize, index: usize) {
    debug_assert!(index < width);
    for slot in &mut out[offset..offset + width] {
        *slot = 0.0;
    }
    out[offset + index] = 1.0;
}

/// Column-wise min-max normalizer fitted on training data.
#[derive(Clone, Debug, PartialEq)]
pub struct Normalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Normalizer {
    /// Fit on a set of raw feature vectors (all the same length).
    pub fn fit(rows: &[Vec<f64>]) -> Normalizer {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for row in rows {
            for (i, &v) in row.iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        for i in 0..dim {
            if !mins[i].is_finite() {
                mins[i] = 0.0;
                maxs[i] = 0.0;
            }
        }
        Normalizer { mins, maxs }
    }

    /// Scale a raw vector into `[0, 1]` per column (constant columns → 0;
    /// out-of-range values are clamped).
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(i, &v)| {
                let (lo, hi) = (self.mins[i], self.maxs[i]);
                if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }
}

/// Min-max normalize a target vector (per-sample runtimes): the fastest
/// configuration maps to 0, the slowest to 1; constant rows map to all
/// zeros.
pub fn normalize_targets(runtimes: &[f64]) -> Vec<f64> {
    let lo = runtimes.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = runtimes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi > lo {
        runtimes.iter().map(|&r| (r - lo) / (hi - lo)).collect()
    } else {
        vec![0.0; runtimes.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_bin_is_stable_and_bounded() {
        for v in [0u64, 1, 42, u64::MAX] {
            let b = hash_bin(v);
            assert!(b < HASH_BINS);
            assert_eq!(b, hash_bin(v));
        }
        // Different values spread across bins.
        let bins: std::collections::HashSet<usize> = (0..1000).map(hash_bin).collect();
        assert!(bins.len() > 30);
    }

    #[test]
    fn one_hot_sets_single_slot() {
        let mut out = vec![9.0; 6];
        one_hot(&mut out, 1, 4, 2);
        assert_eq!(out, vec![9.0, 0.0, 0.0, 1.0, 0.0, 9.0]);
    }

    #[test]
    fn normalizer_scales_to_unit_interval() {
        let rows = vec![vec![0.0, 10.0, 5.0], vec![10.0, 20.0, 5.0]];
        let n = Normalizer::fit(&rows);
        assert_eq!(n.transform(&rows[0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(n.transform(&rows[1]), vec![1.0, 1.0, 0.0]);
        // Clamping for unseen values.
        assert_eq!(n.transform(&[20.0, -5.0, 7.0]), vec![1.0, 0.0, 0.0]);
        assert_eq!(n.dim(), 3);
    }

    #[test]
    fn target_normalization_maps_best_to_zero() {
        let t = normalize_targets(&[300.0, 100.0, 500.0]);
        assert_eq!(t, vec![0.5, 0.0, 1.0]);
        assert_eq!(normalize_targets(&[5.0, 5.0]), vec![0.0, 0.0]);
    }
}
