//! A minimal dense-matrix type for the learned model. Row-major `f64`
//! storage; only the operations the MLP needs.

use rand::Rng;

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Matrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// He-style initialization for a layer with `cols` inputs.
    pub(crate) fn he_init<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
        let scale = (2.0 / cols.max(1) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Matrix { rows, cols, data }
    }

    #[cfg(test)]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[cfg(test)]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Raw storage (for the optimizer's per-parameter state).
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = W·x` for a vector `x` of length `cols`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (yr, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            *yr = acc;
        }
        y
    }

    /// `y = Wᵀ·g` (backprop through the layer).
    pub(crate) fn matvec_t(&self, g: &[f64]) -> Vec<f64> {
        debug_assert_eq!(g.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for (row, &gr) in self.data.chunks_exact(self.cols).zip(g.iter()) {
            for (yi, w) in y.iter_mut().zip(row.iter()) {
                *yi += w * gr;
            }
        }
        y
    }

    /// Accumulate the outer product `grad += g ⊗ x` into `grad`.
    pub(crate) fn accumulate_outer(grad: &mut Matrix, g: &[f64], x: &[f64]) {
        debug_assert_eq!(grad.rows, g.len());
        debug_assert_eq!(grad.cols, x.len());
        for (r, gr) in g.iter().enumerate() {
            let row = &mut grad.data[r * grad.cols..(r + 1) * grad.cols];
            for (slot, xi) in row.iter_mut().zip(x.iter()) {
                *slot += gr * xi;
            }
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_manual() {
        let mut m = Matrix::zeros(2, 3);
        // [1 2 3; 4 5 6]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            m.data_mut()[i] = *v;
        }
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
        let g = m.matvec_t(&[1.0, 1.0]);
        assert_eq!(g, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut grad = Matrix::zeros(2, 2);
        Matrix::accumulate_outer(&mut grad, &[1.0, 2.0], &[3.0, 4.0]);
        Matrix::accumulate_outer(&mut grad, &[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(grad.get(0, 0), 4.0);
        assert_eq!(grad.get(0, 1), 5.0);
        assert_eq!(grad.get(1, 0), 6.0);
        assert_eq!(grad.get(1, 1), 8.0);
    }

    #[test]
    fn he_init_scale_is_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Matrix::he_init(10, 100, &mut rng);
        let bound = (2.0 / 100.0_f64).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound));
        assert!(m.data().iter().any(|v| v.abs() > 0.0));
    }
}
