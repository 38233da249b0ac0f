//! Multi-layer perceptron with Adam, from scratch.

use crate::TrainConfig;
use efficsense_rng::Rng64;

/// One dense layer with its Adam state.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    w: Vec<f64>, // out x in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng64) -> Self {
        // He initialisation for ReLU networks.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out).map(|_| rng.normal() * scale).collect();
        Self {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n_out)
            .map(|o| {
                let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
                self.b[o] + row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
            })
            .collect()
    }
}

/// Multi-layer perceptron classifier (ReLU hidden layers, softmax output,
/// cross-entropy loss, Adam optimiser).
#[derive(Debug, Clone, PartialEq)]
pub struct MlpClassifier {
    layers: Vec<Dense>,
    n_classes: usize,
    seed: u64,
    adam_t: u64,
}

impl MlpClassifier {
    /// Creates an untrained MLP with the given hidden layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs` or `n_classes` is zero, or a hidden size is zero.
    pub fn new(n_inputs: usize, hidden: &[usize], n_classes: usize, seed: u64) -> Self {
        assert!(n_inputs > 0 && n_classes > 0, "dimensions must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden sizes must be positive"
        );
        let mut rng = Rng64::new(seed);
        let mut layers = Vec::new();
        let mut prev = n_inputs;
        for &h in hidden {
            layers.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, n_classes, &mut rng));
        Self {
            layers,
            n_classes,
            seed,
            adam_t: 0,
        }
    }

    /// Forward pass returning all layer activations (post-ReLU for hidden,
    /// raw logits for the output layer).
    fn forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(acts.last().expect("non-empty"));
            if li != last {
                for v in &mut z {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(z);
        }
        acts
    }

    fn softmax(z: &[f64]) -> Vec<f64> {
        let m = z.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let e: Vec<f64> = z.iter().map(|v| (v - m).exp()).collect();
        let s: f64 = e.iter().sum();
        e.into_iter().map(|v| v / s).collect()
    }

    /// Mean cross-entropy loss over a labelled set (diagnostic).
    pub fn loss(&self, x: &[Vec<f64>], y: &[usize]) -> f64 {
        assert_eq!(x.len(), y.len());
        let mut total = 0.0;
        for (xi, &yi) in x.iter().zip(y) {
            let acts = self.forward_all(xi);
            let p = Self::softmax(acts.last().expect("non-empty"));
            total -= (p[yi].max(1e-300)).ln();
        }
        total / x.len() as f64
    }

    /// One Adam update over a mini-batch. Returns the batch loss.
    #[allow(clippy::needless_range_loop)] // `o` indexes gb, gw and delta in lockstep
    fn train_batch(&mut self, batch: &[(&Vec<f64>, usize)], lr: f64, wd: f64) -> f64 {
        let bsz = batch.len() as f64;
        // Accumulate gradients.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut loss = 0.0;
        for &(x, y) in batch {
            let acts = self.forward_all(x);
            let logits = acts.last().expect("non-empty");
            let p = Self::softmax(logits);
            loss -= p[y].max(1e-300).ln();
            // dL/dz_out = p - onehot(y)
            let mut delta: Vec<f64> = p;
            delta[y] -= 1.0;
            for li in (0..self.layers.len()).rev() {
                let input = &acts[li];
                let layer = &self.layers[li];
                for o in 0..layer.n_out {
                    gb[li][o] += delta[o];
                    let grow = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                    for (g, v) in grow.iter_mut().zip(input) {
                        *g += delta[o] * v;
                    }
                }
                if li > 0 {
                    // Backprop through the layer and the preceding ReLU.
                    let mut prev = vec![0.0; layer.n_in];
                    for o in 0..layer.n_out {
                        let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                        for (p, w) in prev.iter_mut().zip(row) {
                            *p += delta[o] * w;
                        }
                    }
                    for (p, a) in prev.iter_mut().zip(&acts[li]) {
                        if *a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                    delta = prev;
                }
            }
        }
        // Adam step.
        self.adam_t += 1;
        let t = self.adam_t as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (i, w) in layer.w.iter_mut().enumerate() {
                let g = gw[li][i] / bsz + wd * *w;
                layer.mw[i] = b1 * layer.mw[i] + (1.0 - b1) * g;
                layer.vw[i] = b2 * layer.vw[i] + (1.0 - b2) * g * g;
                *w -= lr * (layer.mw[i] / bc1) / ((layer.vw[i] / bc2).sqrt() + eps);
            }
            for (i, b) in layer.b.iter_mut().enumerate() {
                let g = gb[li][i] / bsz;
                layer.mb[i] = b1 * layer.mb[i] + (1.0 - b1) * g;
                layer.vb[i] = b2 * layer.vb[i] + (1.0 - b2) * g * g;
                *b -= lr * (layer.mb[i] / bc1) / ((layer.vb[i] / bc2).sqrt() + eps);
            }
        }
        loss / bsz
    }

    /// Fits the model to feature rows `x` with labels `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ, `x` is empty, or a label is not
    /// below the class count.
    pub fn fit(&mut self, x: &[Vec<f64>], y: &[usize], cfg: &TrainConfig) {
        assert_eq!(x.len(), y.len(), "feature and label counts must match");
        assert!(!x.is_empty(), "cannot train on an empty set");
        assert!(y.iter().all(|&c| c < self.n_classes), "label out of range");
        let mut rng = Rng64::new(self.seed ^ 0x7A11);
        let mut idx: Vec<usize> = (0..x.len()).collect();
        let bsz = cfg.batch_size.clamp(1, x.len());
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut idx);
            for chunk in idx.chunks(bsz) {
                let batch: Vec<(&Vec<f64>, usize)> = chunk.iter().map(|&i| (&x[i], y[i])).collect();
                self.train_batch(&batch, cfg.learning_rate, cfg.weight_decay);
            }
        }
    }

    /// Predicts the class of one feature vector (the argmax of the logits).
    pub fn predict(&self, x: &[f64]) -> usize {
        let acts = self.forward_all(x);
        let logits = acts.last().expect("non-empty");
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Predicts softmax class probabilities for one feature vector.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let acts = self.forward_all(x);
        Self::softmax(acts.last().expect("non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Two Gaussian blobs at (±2, ±2).
        let mut rng = Rng64::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..2usize {
            let centre = if c == 0 { -2.0 } else { 2.0 };
            for _ in 0..n_per {
                let dx: f64 = rng.uniform(-1.0, 1.0);
                let dy: f64 = rng.uniform(-1.0, 1.0);
                x.push(vec![centre + dx, centre + dy]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs(50, 1);
        let mut mlp = MlpClassifier::new(2, &[8], 2, 3);
        mlp.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 100,
                ..Default::default()
            },
        );
        let preds: Vec<usize> = x.iter().map(|v| mlp.predict(v)).collect();
        assert!(accuracy(&y, &preds) > 0.99);
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 1, 1, 0];
        let mut mlp = MlpClassifier::new(2, &[16], 2, 7);
        mlp.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 3000,
                learning_rate: 5e-3,
                ..Default::default()
            },
        );
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(mlp.predict(xi), yi, "at {xi:?}");
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let (x, y) = blobs(30, 5);
        let mut mlp = MlpClassifier::new(2, &[8], 2, 9);
        let before = mlp.loss(&x, &y);
        mlp.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 50,
                ..Default::default()
            },
        );
        let after = mlp.loss(&x, &y);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mlp = MlpClassifier::new(3, &[4], 4, 2);
        let p = mlp.predict_proba(&[0.1, -0.2, 0.3]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = blobs(20, 2);
        let mut a = MlpClassifier::new(2, &[6], 2, 11);
        let mut b = MlpClassifier::new(2, &[6], 2, 11);
        let cfg = TrainConfig {
            epochs: 10,
            ..Default::default()
        };
        a.fit(&x, &y, &cfg);
        b.fit(&x, &y, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn multiclass_works() {
        // Three clusters on a line.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..3usize {
            for k in 0..30 {
                x.push(vec![c as f64 * 3.0 + (k % 5) as f64 * 0.1]);
                y.push(c);
            }
        }
        let mut mlp = MlpClassifier::new(1, &[8], 3, 5);
        mlp.fit(
            &x,
            &y,
            &TrainConfig {
                epochs: 300,
                ..Default::default()
            },
        );
        let preds: Vec<usize> = x.iter().map(|v| mlp.predict(v)).collect();
        assert!(accuracy(&y, &preds) > 0.95);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let mut mlp = MlpClassifier::new(1, &[], 2, 0);
        mlp.fit(&[vec![0.0]], &[5], &TrainConfig::default());
    }
}
