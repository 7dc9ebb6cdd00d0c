//! The paper's lightweight model (§7.3): a fully-connected network with one
//! hidden layer, sigmoid outputs, binary cross entropy against (min-max
//! normalized) runtime targets, trained with Adam.

use rand::Rng;

use super::matrix::Matrix;

/// Sigmoid.
#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Binary cross entropy for continuous targets in `[0, 1]` (PyTorch's
/// `BCELoss` semantics used by the paper).
pub fn bce_loss(pred: &[f64], target: &[f64]) -> f64 {
    const EPS: f64 = 1e-7;
    pred.iter()
        .zip(target.iter())
        .map(|(&p, &t)| {
            let p = p.clamp(EPS, 1.0 - EPS);
            -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
        })
        .sum::<f64>()
        / pred.len().max(1) as f64
}

/// Adam state for one parameter tensor.
#[derive(Clone, Debug)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamState {
    fn new(len: usize) -> AdamState {
        AdamState {
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64, t: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bc1 = 1.0 - B1.powf(t);
        let bc2 = 1.0 - B2.powf(t);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            params[i] -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

/// One-hidden-layer MLP: `sigmoid(W2·relu(W1·x + b1) + b2)`.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use steer_learn::nn::Mlp;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut mlp = Mlp::new(4, 8, 2, &mut rng);
/// let xs = vec![vec![1.0, 0.0, 0.0, 0.0]];
/// let ys = vec![vec![0.0, 1.0]];
/// for _ in 0..200 { mlp.train_batch(&xs, &ys, 0.01); }
/// let pred = mlp.predict(&xs[0]);
/// assert!(pred[0] < pred[1]); // learned the ranking
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    // Adam state.
    s_w1: AdamState,
    s_b1: AdamState,
    s_w2: AdamState,
    s_b2: AdamState,
    t: f64,
}

impl Mlp {
    /// A fresh network with He-initialized weights.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, output: usize, rng: &mut R) -> Mlp {
        let w1 = Matrix::he_init(hidden, input, rng);
        let w2 = Matrix::he_init(output, hidden, rng);
        Mlp {
            s_w1: AdamState::new(w1.len()),
            s_b1: AdamState::new(hidden),
            s_w2: AdamState::new(w2.len()),
            s_b2: AdamState::new(output),
            w1,
            b1: vec![0.0; hidden],
            w2,
            b2: vec![0.0; output],
            t: 0.0,
        }
    }

    /// Network dimensions `(input, hidden, output)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.w1.cols, self.w1.rows, self.w2.rows)
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()
    }

    /// Forward pass returning `(hidden pre-activations, outputs)`.
    fn forward_full(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut z1 = self.w1.matvec(x);
        for (z, b) in z1.iter_mut().zip(self.b1.iter()) {
            *z += b;
        }
        let h: Vec<f64> = z1.iter().map(|&z| z.max(0.0)).collect();
        let mut z2 = self.w2.matvec(&h);
        for (z, b) in z2.iter_mut().zip(self.b2.iter()) {
            *z += b;
        }
        let out = z2.iter().map(|&z| sigmoid(z)).collect();
        (z1, out)
    }

    /// Predict the K sigmoid outputs for one input.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.forward_full(x).1
    }

    /// One Adam step over a mini-batch; returns the mean BCE loss.
    pub fn train_batch(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], lr: f64) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let mut g_w1 = Matrix::zeros(self.w1.rows, self.w1.cols);
        let mut g_b1 = vec![0.0; self.b1.len()];
        let mut g_w2 = Matrix::zeros(self.w2.rows, self.w2.cols);
        let mut g_b2 = vec![0.0; self.b2.len()];
        let mut total_loss = 0.0;
        let n = xs.len() as f64;

        for (x, y) in xs.iter().zip(ys.iter()) {
            let (z1, out) = self.forward_full(x);
            total_loss += bce_loss(&out, y);
            // d(BCE)/d(z2) for sigmoid outputs = (p − t) / K.
            let k = out.len() as f64;
            let d_z2: Vec<f64> = out
                .iter()
                .zip(y.iter())
                .map(|(&p, &t)| (p - t) / (k * n))
                .collect();
            let h: Vec<f64> = z1.iter().map(|&z| z.max(0.0)).collect();
            Matrix::accumulate_outer(&mut g_w2, &d_z2, &h);
            for (g, d) in g_b2.iter_mut().zip(d_z2.iter()) {
                *g += d;
            }
            let mut d_h = self.w2.matvec_t(&d_z2);
            for (d, z) in d_h.iter_mut().zip(z1.iter()) {
                if *z <= 0.0 {
                    *d = 0.0;
                }
            }
            Matrix::accumulate_outer(&mut g_w1, &d_h, x);
            for (g, d) in g_b1.iter_mut().zip(d_h.iter()) {
                *g += d;
            }
        }

        self.t += 1.0;
        let t = self.t;
        self.s_w1.step(self.w1.data_mut(), g_w1.data(), lr, t);
        self.s_b1.step(&mut self.b1, &g_b1, lr, t);
        self.s_w2.step(self.w2.data_mut(), g_w2.data(), lr, t);
        self.s_b2.step(&mut self.b2, &g_b2, lr, t);
        total_loss / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bce_loss_basics() {
        assert!(bce_loss(&[0.999999], &[1.0]) < 1e-3);
        assert!(bce_loss(&[0.000001], &[1.0]) > 5.0);
        // Symmetric for complementary predictions.
        let a = bce_loss(&[0.3], &[0.0]);
        let b = bce_loss(&[0.7], &[1.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(4, 6, 2, &mut rng);
        let x = vec![0.3, -0.2, 0.8, 0.1];
        let y = vec![0.0, 1.0];

        // Analytic gradient of w1[0,0] via a training step on a copy with
        // tiny lr is awkward; instead check loss decreases and the forward
        // is smooth, then verify d(loss)/d(w2[0][0]) numerically against
        // the backprop-accumulated value computed inline.
        let (z1, out) = mlp.forward_full(&x);
        let h: Vec<f64> = z1.iter().map(|&z| z.max(0.0)).collect();
        let k = out.len() as f64;
        let analytic = (out[0] - y[0]) / k * h[0];

        let eps = 1e-6;
        let mut plus = mlp.clone();
        let v = plus.w2.get(0, 0);
        plus.w2.set(0, 0, v + eps);
        let lp = bce_loss(&plus.forward_full(&x).1, &y);
        let mut minus = mlp.clone();
        minus.w2.set(0, 0, v - eps);
        let lm = bce_loss(&minus.forward_full(&x).1, &y);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-6,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn training_fits_a_simple_ranking() {
        // Two input patterns, each with a different best output slot; the
        // model must learn to rank them.
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(2, 16, 2, &mut rng);
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let ys = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            last = mlp.train_batch(&xs, &ys, 0.01);
        }
        assert!(last < 0.1, "loss {last}");
        let p0 = mlp.predict(&xs[0]);
        assert!(p0[0] < p0[1]);
        let p1 = mlp.predict(&xs[1]);
        assert!(p1[0] > p1[1]);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(100, 1024, 10, &mut rng);
        assert_eq!(mlp.num_params(), 100 * 1024 + 1024 + 1024 * 10 + 10);
        assert_eq!(mlp.dims(), (100, 1024, 10));
    }
}
