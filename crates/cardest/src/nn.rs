//! From-scratch dense neural network: every model of the learned estimator,
//! [`crate::RmiEstimator`], is one [`Mlp`].
//!
//! The paper's cardinality estimator is an RMI whose member models are
//! fully-connected neural networks with four hidden layers (512, 512, 256,
//! 128), trained for 200 epochs with batch size 512 on a GPU workstation.
//! This module provides an equivalent CPU implementation: dense layers with
//! ReLU activations, mean-squared-error loss and the Adam optimizer, with no
//! external ML framework.
//!
//! Inference and training share one batch-matrix forward pass on the exact
//! register tile [`tile::ProbeBlock`], whose lanes equal `ops::dot(row, x)`
//! bit for bit, and the backward pass adds the samples' contributions to
//! each weight row in sample order: batching changes no prediction and no
//! trained weight bit.
//!
//! [`NetConfig::paper`] exposes the paper's widths; [`NetConfig::small`] is
//! the CPU-friendly default used by the reproduction's experiments, a
//! substitution for the paper's GPU-scale training.

use bytes::{Buf, BufMut};
use laf_vector::tile::{self, ProbeBlock};
use laf_vector::VectorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Read-guard: error (instead of panicking) when fewer than `needed` bytes
/// remain in a binary payload being decoded.
fn ensure_remaining(bytes: &&[u8], needed: usize, what: &str) -> Result<(), VectorError> {
    if bytes.remaining() < needed {
        return Err(VectorError::MalformedPayload(format!(
            "truncated {what}: need {needed} bytes, found {}",
            bytes.remaining()
        )));
    }
    Ok(())
}

/// Samples per [`Mlp::predict_batch`] call of [`Mlp::mse`], bounding the
/// activation matrices of a loss evaluation over a large training set.
const MSE_BATCH: usize = 256;

/// A mini-batch gradient: `gradients(net, inputs, targets, batch, grads)`
/// adds the MSE gradient of the samples `batch` indexes into the zeroed
/// `grads` (layout: layer by layer, weights then biases).
type Gradients = fn(&Mlp, &[Vec<f32>], &[f32], &[usize], &mut [f32]);

/// Hyper-parameters for building and training an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Hidden layer widths (the output layer is always a single unit).
    pub hidden: Vec<usize>,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Parameter-initialization / shuffling seed.
    pub seed: u64,
}

impl NetConfig {
    /// The configuration the paper uses inside its RMI (4 hidden layers of
    /// width 512/512/256/128, 200 epochs, batch 512). Expensive on CPU.
    pub fn paper() -> Self {
        Self {
            hidden: vec![512, 512, 256, 128],
            epochs: 200,
            batch_size: 512,
            learning_rate: 1e-3,
            seed: 0x1AF,
        }
    }

    /// CPU-friendly configuration used by default in this reproduction.
    pub fn small() -> Self {
        Self {
            hidden: vec![64, 32],
            epochs: 60,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 0x1AF,
        }
    }

    /// Even smaller configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: vec![16],
            epochs: 80,
            batch_size: 32,
            learning_rate: 5e-3,
            seed: 0x1AF,
        }
    }

    /// Check the optimizer settings before any training work: a NaN or
    /// infinite learning rate trains a network that predicts NaN, and a zero
    /// or negative one never descends. (A batch size of 0 is clamped to 1.)
    ///
    /// # Errors
    /// [`VectorError::InvalidParameter`] when the learning rate is not a
    /// finite positive number.
    pub fn validate(&self) -> Result<(), VectorError> {
        if self.learning_rate.is_finite() && self.learning_rate > 0.0 {
            Ok(())
        } else {
            Err(VectorError::InvalidParameter(format!(
                "learning rate {} is not a finite positive number",
                self.learning_rate
            )))
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Summary statistics returned by [`Mlp::train`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run.
    pub epochs: usize,
    /// Mean squared error on the training set before training.
    pub initial_loss: f32,
    /// Mean squared error on the training set after training.
    pub final_loss: f32,
}

/// One dense layer: `y = W x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` weights.
    w: Vec<f32>,
    b: Vec<f32>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU networks.
        let std = (2.0 / in_dim as f64).sqrt();
        let normal = Normal::new(0.0, std).expect("positive std");
        let w = (0..in_dim * out_dim)
            .map(|_| normal.sample(rng) as f32)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// The layer over a batch: for the samples stored row-major in `xs`
    /// (`batch × in_dim`), `out[s * out_dim + o] = dot(w_o, x_s) + b_o`,
    /// clamped at zero when `relu` holds. Each group of up to
    /// [`tile::BLOCK_ROWS`] weight rows is scored against up to
    /// [`tile::BLOCK_PROBES`] samples per step.
    fn forward_batch(&self, xs: &[f32], relu: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; xs.len() / self.in_dim * self.out_dim];
        let mut lanes = [[0.0f32; tile::BLOCK_PROBES]; tile::BLOCK_ROWS];
        let block_len = tile::BLOCK_PROBES * self.in_dim;
        for (block, samples) in xs.chunks(block_len).enumerate() {
            let probes: Vec<&[f32]> = samples.chunks_exact(self.in_dim).collect();
            let packed = ProbeBlock::new(&probes);
            let first = block * tile::BLOCK_PROBES;
            let rows = self.w.chunks(tile::BLOCK_ROWS * self.in_dim);
            for (g, (rows, biases)) in rows.zip(self.b.chunks(tile::BLOCK_ROWS)).enumerate() {
                let lanes = &mut lanes[..biases.len()];
                // Lane s of row r is dot(x_s, w_o), bit-identical to
                // dot(w_o, x_s).
                packed.dots(rows, lanes);
                for (r, (row_lanes, &bias)) in lanes.iter().zip(biases).enumerate() {
                    let o = g * tile::BLOCK_ROWS + r;
                    for (s, &dot) in row_lanes[..probes.len()].iter().enumerate() {
                        let mut v = dot + bias;
                        if relu && v < 0.0 {
                            v = 0.0;
                        }
                        out[(first + s) * self.out_dim + o] = v;
                    }
                }
            }
        }
        out
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Append this layer's shape and raw IEEE-754 parameter bits to `buf`
    /// (little-endian; exact — no text round-trip).
    fn encode_binary(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.in_dim as u32);
        buf.put_u32_le(self.out_dim as u32);
        for &w in &self.w {
            buf.put_f32_le(w);
        }
        for &b in &self.b {
            buf.put_f32_le(b);
        }
    }

    /// Inverse of [`Dense::encode_binary`], advancing the cursor.
    fn decode_binary(bytes: &mut &[u8]) -> Result<Self, VectorError> {
        ensure_remaining(bytes, 8, "dense layer header")?;
        let in_dim = bytes.get_u32_le() as usize;
        let out_dim = bytes.get_u32_le() as usize;
        if in_dim == 0 || out_dim == 0 {
            return Err(VectorError::MalformedPayload(format!(
                "dense layer with zero dimension ({in_dim} x {out_dim})"
            )));
        }
        let param_bytes = in_dim
            .checked_mul(out_dim)
            .and_then(|n| n.checked_add(out_dim))
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| VectorError::MalformedPayload("layer size overflow".to_string()))?;
        ensure_remaining(bytes, param_bytes, "dense layer parameters")?;
        let w = (0..in_dim * out_dim).map(|_| bytes.get_f32_le()).collect();
        let b = (0..out_dim).map(|_| bytes.get_f32_le()).collect();
        Ok(Self {
            in_dim,
            out_dim,
            w,
            b,
        })
    }
}

/// Multi-layer perceptron with ReLU hidden activations and a single linear
/// output unit, trained with Adam on mean squared error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build an untrained network with He-initialized weights.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = input_dim;
        for &h in hidden {
            let h = h.max(1);
            layers.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, 1, &mut rng));
        Self { input_dim, layers }
    }

    /// Build a network that predicts `output` for every input: one linear
    /// layer with zero weights and `output` as its bias. Degraded snapshot
    /// loads substitute such a network for a corrupt estimator section so
    /// the gate can never steer a query off the exact path.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`.
    pub fn constant(input_dim: usize, output: f32) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        Self {
            input_dim,
            layers: vec![Dense {
                in_dim: input_dim,
                out_dim: 1,
                w: vec![0.0; input_dim],
                b: vec![output],
            }],
        }
    }

    /// Input dimensionality the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass producing the scalar prediction: [`Mlp::predict_batch`]
    /// over one sample.
    ///
    /// # Panics
    /// Panics if `x.len() != self.input_dim()`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.predict_batch(&[x])[0]
    }

    /// Forward pass over a whole batch of inputs, bit-exact with calling
    /// [`Mlp::predict`] per row: each output unit computes the same
    /// `dot(row, x) + b` in the same order, whatever the batch size.
    ///
    /// Shaped as a matrix-matrix sweep, every layer's weight row is streamed
    /// from memory once per [`tile::BLOCK_PROBES`] samples and scored
    /// against all of them, [`tile::BLOCK_ROWS`] weight rows per
    /// [`tile::ProbeBlock`] call, which is what makes the LAF gate's batched
    /// prescan profitable.
    ///
    /// # Panics
    /// Panics if any input's length differs from [`Mlp::input_dim`].
    pub fn predict_batch(&self, xs: &[&[f32]]) -> Vec<f32> {
        let mut input = Vec::with_capacity(xs.len() * self.input_dim);
        for x in xs {
            assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
            input.extend_from_slice(x);
        }
        self.activations(input)
            .pop()
            .expect("the output layer's activations")
    }

    /// Every layer's post-activation output over the batch of samples stored
    /// row-major in `input` (`batch × input_dim`): `acts[0]` is the input
    /// and `acts[l + 1]` the output of layer `l`, ReLU'd except at the
    /// output layer.
    fn activations(&self, input: Vec<f32>) -> Vec<Vec<f32>> {
        let last = self.layers.len() - 1;
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input);
        for (l, layer) in self.layers.iter().enumerate() {
            let x = acts.last().expect("the input is always present");
            let out = layer.forward_batch(x, l != last);
            acts.push(out);
        }
        acts
    }

    /// Append the network's architecture and raw IEEE-754 weight bits to
    /// `buf` (little-endian).
    ///
    /// Unlike the serde JSON path — which renders every weight through
    /// decimal text — this encoding copies the exact `f32` bit patterns, so a
    /// decoded network is **bit-exact**: every prediction it makes is
    /// byte-identical to the network that was encoded. The snapshot subsystem
    /// in `laf-core` persists estimators through this entry point.
    pub fn encode_binary(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.input_dim as u32);
        buf.put_u32_le(self.layers.len() as u32);
        for layer in &self.layers {
            layer.encode_binary(buf);
        }
    }

    /// Inverse of [`Mlp::encode_binary`], advancing the cursor past the
    /// encoded network.
    ///
    /// # Errors
    /// Returns [`VectorError::MalformedPayload`] on truncation, zero
    /// dimensions, or an inconsistent layer chain (adjacent layer widths must
    /// line up and the output layer must have a single unit).
    pub fn decode_binary(bytes: &mut &[u8]) -> Result<Self, VectorError> {
        ensure_remaining(bytes, 8, "network header")?;
        let input_dim = bytes.get_u32_le() as usize;
        let n_layers = bytes.get_u32_le() as usize;
        if input_dim == 0 {
            return Err(VectorError::MalformedPayload(
                "network input dimension is zero".to_string(),
            ));
        }
        if n_layers == 0 {
            return Err(VectorError::MalformedPayload(
                "network with no layers".to_string(),
            ));
        }
        // Bound the layer count by the bytes actually present (every layer
        // occupies at least its 8-byte header) before reserving: a malformed
        // header must produce an error, not a multi-gigabyte allocation.
        ensure_remaining(bytes, n_layers.saturating_mul(8), "layer list")?;
        let mut layers = Vec::with_capacity(n_layers);
        let mut prev = input_dim;
        for l in 0..n_layers {
            let layer = Dense::decode_binary(bytes)?;
            if layer.in_dim != prev {
                return Err(VectorError::MalformedPayload(format!(
                    "layer {l} expects input width {} but the previous layer produces {prev}",
                    layer.in_dim
                )));
            }
            prev = layer.out_dim;
            layers.push(layer);
        }
        if prev != 1 {
            return Err(VectorError::MalformedPayload(format!(
                "output layer must have a single unit, found {prev}"
            )));
        }
        Ok(Self { input_dim, layers })
    }

    /// Mean squared error over a set of samples.
    pub fn mse(&self, inputs: &[Vec<f32>], targets: &[f32]) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let predictions = inputs.chunks(MSE_BATCH).flat_map(|chunk| {
            let xs: Vec<&[f32]> = chunk.iter().map(Vec::as_slice).collect();
            self.predict_batch(&xs)
        });
        let sum: f32 = predictions
            .zip(targets)
            .map(|(pred, &y)| {
                let e = pred - y;
                e * e
            })
            .sum();
        sum / inputs.len() as f32
    }

    /// Train with Adam on MSE. `inputs` and `targets` must have equal length;
    /// empty training sets return a zeroed report.
    ///
    /// # Panics
    /// Panics if the lengths differ or an input's length differs from
    /// [`Mlp::input_dim`].
    pub fn train(&mut self, inputs: &[Vec<f32>], targets: &[f32], cfg: &NetConfig) -> TrainReport {
        self.fit(inputs, targets, cfg, Mlp::batch_gradients)
    }

    /// The Adam loop of [`Mlp::train`], taking each mini-batch's gradient
    /// from `gradients`.
    fn fit(
        &mut self,
        inputs: &[Vec<f32>],
        targets: &[f32],
        cfg: &NetConfig,
        gradients: Gradients,
    ) -> TrainReport {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        if inputs.is_empty() {
            return TrainReport {
                epochs: 0,
                initial_loss: 0.0,
                final_loss: 0.0,
            };
        }
        let initial_loss = self.mse(inputs, targets);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
        let n = inputs.len();
        let batch = cfg.batch_size.max(1).min(n);

        // Adam state, one slot per parameter, laid out layer by layer
        // (weights then biases).
        let total_params = self.param_count();
        let mut m = vec![0.0f32; total_params];
        let mut v = vec![0.0f32; total_params];
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let mut step = 0u64;

        let mut order: Vec<usize> = (0..n).collect();
        let mut grads = vec![0.0f32; total_params];

        for _ in 0..cfg.epochs {
            // Shuffle sample order each epoch.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(batch) {
                grads.iter_mut().for_each(|g| *g = 0.0);
                gradients(self, inputs, targets, chunk, &mut grads);
                // Adam update.
                step += 1;
                let bias1 = 1.0 - beta1.powi(step.min(i32::MAX as u64) as i32);
                let bias2 = 1.0 - beta2.powi(step.min(i32::MAX as u64) as i32);
                let mut offset = 0usize;
                for layer in self.layers.iter_mut() {
                    for (slot, w) in layer.w.iter_mut().enumerate() {
                        let g = grads[offset + slot];
                        let mi = &mut m[offset + slot];
                        let vi = &mut v[offset + slot];
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let m_hat = *mi / bias1;
                        let v_hat = *vi / bias2;
                        *w -= cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
                    }
                    offset += layer.w.len();
                    for (slot, b) in layer.b.iter_mut().enumerate() {
                        let g = grads[offset + slot];
                        let mi = &mut m[offset + slot];
                        let vi = &mut v[offset + slot];
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let m_hat = *mi / bias1;
                        let v_hat = *vi / bias2;
                        *b -= cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
                    }
                    offset += layer.b.len();
                }
            }
        }

        TrainReport {
            epochs: cfg.epochs,
            initial_loss,
            final_loss: self.mse(inputs, targets),
        }
    }

    /// Add the MSE gradient `d(pred - y)² / dθ / batch.len()` of the samples
    /// `batch` indexes into `grads`, batch-matrix style: one forward pass
    /// over the whole mini-batch, then per layer each weight row is walked
    /// once, adding `d_s · x_s` for the samples in `batch` order and
    /// skipping `d_s == 0`. Every gradient element thus sees the additions a
    /// sample-at-a-time backward makes, in the same order.
    fn batch_gradients(
        &self,
        inputs: &[Vec<f32>],
        targets: &[f32],
        batch: &[usize],
        grads: &mut [f32],
    ) {
        let mut input = Vec::with_capacity(batch.len() * self.input_dim);
        for &idx in batch {
            assert_eq!(
                inputs[idx].len(),
                self.input_dim,
                "input dimension mismatch"
            );
            input.extend_from_slice(&inputs[idx]);
        }
        let acts = self.activations(input);
        let batch_len = batch.len() as f32;
        // `delta[s * width + o]`: d loss / d output `o` of the current
        // layer for sample `s`, starting at the single output unit.
        let mut delta: Vec<f32> = batch
            .iter()
            .zip(&acts[self.layers.len()])
            .map(|(&idx, &pred)| 2.0 * (pred - targets[idx]) / batch_len)
            .collect();
        let mut end = grads.len();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let start = end - layer.param_count();
            let (grad_w, grad_b) = grads[start..end].split_at_mut(layer.w.len());
            end = start;
            let xs = &acts[l];
            // The input layer propagates nothing.
            let mut prev = vec![0.0f32; if l > 0 { batch.len() * in_dim } else { 0 }];
            let rows = layer
                .w
                .chunks_exact(in_dim)
                .zip(grad_w.chunks_exact_mut(in_dim));
            for (o, ((row, grad_row), grad_bias)) in rows.zip(grad_b.iter_mut()).enumerate() {
                for s in 0..batch.len() {
                    let d = delta[s * out_dim + o];
                    if d != 0.0 {
                        let x = &xs[s * in_dim..(s + 1) * in_dim];
                        for (g, &xi) in grad_row.iter_mut().zip(x) {
                            *g += d * xi;
                        }
                        if l > 0 {
                            let pd = &mut prev[s * in_dim..(s + 1) * in_dim];
                            for (p, &w) in pd.iter_mut().zip(row) {
                                *p += d * w;
                            }
                        }
                    }
                    *grad_bias += d;
                }
            }
            if l > 0 {
                // ReLU derivative: zero where the layer's input (the
                // previous layer's post-ReLU output) was not positive.
                for (p, &a) in prev.iter_mut().zip(xs) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
    }
}

/// The sample-at-a-time forward and backward passes the batch-matrix
/// trainer replaced, kept as the differential tests' reference.
#[cfg(test)]
mod reference {
    use super::{Dense, Mlp};

    impl Dense {
        /// One sample through the layer: `out[o] = dot(w_o, x) + b_o`.
        pub(super) fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
            out.clear();
            out.reserve(self.out_dim);
            for o in 0..self.out_dim {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                out.push(laf_vector::ops::dot(row, x) + self.b[o]);
            }
        }
    }

    impl Mlp {
        /// Forward pass keeping every layer's post-activation output.
        /// `activations[0]` is the input, `activations[i]` the output of
        /// layer `i-1`.
        fn forward_cached(&self, x: &[f32]) -> Vec<Vec<f32>> {
            let mut activations = Vec::with_capacity(self.layers.len() + 1);
            activations.push(x.to_vec());
            let last = self.layers.len() - 1;
            for (l, layer) in self.layers.iter().enumerate() {
                let mut out = Vec::new();
                layer.forward(activations.last().expect("non-empty"), &mut out);
                if l != last {
                    for v in out.iter_mut() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                activations.push(out);
            }
            activations
        }

        /// The prediction of the sample-at-a-time forward pass.
        pub(super) fn predict_one(&self, x: &[f32]) -> f32 {
            self.forward_cached(x).last().expect("output layer exists")[0]
        }

        /// [`Mlp::fit`]'s gradient step, one sample after another.
        pub(super) fn sample_gradients(
            &self,
            inputs: &[Vec<f32>],
            targets: &[f32],
            batch: &[usize],
            grads: &mut [f32],
        ) {
            for &idx in batch {
                self.accumulate_gradients(&inputs[idx], targets[idx], batch.len(), grads);
            }
        }

        /// Backpropagate one sample's MSE gradient into `grads`:
        /// `d(pred-y)^2 / dθ / batch_len`.
        fn accumulate_gradients(&self, x: &[f32], y: f32, batch_len: usize, grads: &mut [f32]) {
            let acts = self.forward_cached(x);
            let pred = acts.last().expect("output layer exists")[0];
            let scale = 2.0 * (pred - y) / batch_len as f32;

            // delta for the current layer's outputs, starting at the output unit.
            let mut delta = vec![scale];

            // Pre-compute per-layer parameter offsets.
            let mut offsets = Vec::with_capacity(self.layers.len());
            let mut off = 0usize;
            for layer in &self.layers {
                offsets.push(off);
                off += layer.param_count();
            }

            for l in (0..self.layers.len()).rev() {
                let layer = &self.layers[l];
                let input = &acts[l];
                let w_off = offsets[l];
                let b_off = w_off + layer.w.len();

                // Gradients for this layer.
                for o in 0..layer.out_dim {
                    let d = delta[o];
                    if d != 0.0 {
                        let row =
                            &mut grads[w_off + o * layer.in_dim..w_off + (o + 1) * layer.in_dim];
                        for (g, &xi) in row.iter_mut().zip(input.iter()) {
                            *g += d * xi;
                        }
                    }
                    grads[b_off + o] += d;
                }

                // Propagate delta to the previous layer (skip for the input).
                if l > 0 {
                    let prev_layer_out = &acts[l]; // post-ReLU output of layer l-1
                    let mut prev_delta = vec![0.0f32; layer.in_dim];
                    for (o, &d) in delta.iter().enumerate().take(layer.out_dim) {
                        if d == 0.0 {
                            continue;
                        }
                        let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                        for (pd, &w) in prev_delta.iter_mut().zip(row.iter()) {
                            *pd += d * w;
                        }
                    }
                    // ReLU derivative: zero where the previous activation was zero.
                    for (pd, &a) in prev_delta.iter_mut().zip(prev_layer_out.iter()) {
                        if a <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                    delta = prev_delta;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_has_right_shape_and_is_deterministic() {
        let net = Mlp::new(4, &[8, 4], 7);
        assert_eq!(net.input_dim(), 4);
        let x = [0.1f32, -0.2, 0.3, 0.4];
        assert_eq!(net.predict(&x), net.predict(&x));
        let net2 = Mlp::new(4, &[8, 4], 7);
        assert_eq!(net.predict(&x), net2.predict(&x));
        let net3 = Mlp::new(4, &[8, 4], 8);
        assert_ne!(net.predict(&x), net3.predict(&x));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        let net = Mlp::new(3, &[4], 1);
        let _ = net.predict(&[1.0, 2.0]);
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = Mlp::new(5, &[7, 3], 1);
        // (5*7 + 7) + (7*3 + 3) + (3*1 + 1) = 42 + 24 + 4
        assert_eq!(net.param_count(), 70);
    }

    #[test]
    fn training_reduces_loss_on_linear_function() {
        // y = 2*x0 - x1 + 0.5
        let inputs: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let a = (i as f32 * 0.017).sin();
                let b = (i as f32 * 0.03).cos();
                vec![a, b]
            })
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|v| 2.0 * v[0] - v[1] + 0.5).collect();
        let mut net = Mlp::new(2, &[16], 3);
        let report = net.train(&inputs, &targets, &NetConfig::tiny());
        assert!(report.final_loss < report.initial_loss);
        assert!(
            report.final_loss < 0.05,
            "final loss too high: {}",
            report.final_loss
        );
    }

    #[test]
    fn training_learns_a_nonlinear_function() {
        // y = |x0| (needs the ReLU nonlinearity).
        let inputs: Vec<Vec<f32>> = (-100..100).map(|i| vec![i as f32 / 50.0]).collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0].abs()).collect();
        let mut net = Mlp::new(1, &[16, 8], 11);
        let cfg = NetConfig {
            epochs: 200,
            ..NetConfig::tiny()
        };
        let report = net.train(&inputs, &targets, &cfg);
        assert!(report.final_loss < 0.02, "loss {}", report.final_loss);
        assert!((net.predict(&[1.5]) - 1.5).abs() < 0.3);
        assert!((net.predict(&[-1.5]) - 1.5).abs() < 0.3);
    }

    #[test]
    fn predict_batch_is_bit_exact_with_scalar_forward_across_tile_shapes() {
        // Batch sizes straddling the 16-sample probe block: empty, partial,
        // exactly one block, block + tail, several blocks. The layers' 10, 7
        // and 1 outputs end their walk in groups of four weight rows on a
        // short group of 2, 3 and 1 rows. Every batched prediction must be
        // bit-identical to the sample-at-a-time forward.
        let mut net = Mlp::new(3, &[10, 7], 17);
        let inputs: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                vec![
                    (i as f32 * 0.13).sin(),
                    (i as f32 * 0.29).cos(),
                    i as f32 / 60.0,
                ]
            })
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0] - v[1]).collect();
        net.train(&inputs, &targets, &NetConfig::tiny());
        for batch in [0usize, 1, 3, 4, 5, 11, 15, 16, 17, 32, 33, 60] {
            let xs: Vec<&[f32]> = inputs.iter().take(batch).map(|v| v.as_slice()).collect();
            let blocked = net.predict_batch(&xs);
            assert_eq!(blocked.len(), batch);
            for (b, x) in xs.iter().enumerate() {
                assert_eq!(
                    blocked[b].to_bits(),
                    net.predict_one(x).to_bits(),
                    "batch {batch} slot {b}"
                );
                assert_eq!(blocked[b].to_bits(), net.predict(x).to_bits());
            }
        }
    }

    /// `n` deterministic samples of width `dim`. Every fifth target is far
    /// below anything the inputs explain: chasing it drives pre-activations
    /// negative, so ReLU units die and zero deltas reach the backward pass.
    fn differential_set(n: usize, dim: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.37).sin() * (1.0 + (j % 3) as f32))
                    .collect()
            })
            .collect();
        let targets = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                if i % 5 == 0 {
                    -40.0
                } else {
                    x[0] - 0.5 * x[dim - 1]
                }
            })
            .collect();
        (inputs, targets)
    }

    fn weight_bits(net: &Mlp) -> Vec<u8> {
        let mut bytes = Vec::new();
        net.encode_binary(&mut bytes);
        bytes
    }

    #[test]
    fn batch_trainer_is_bit_identical_to_the_per_sample_reference() {
        // 101 samples: no batch size below divides it except 1, so every
        // epoch ends on a short mini-batch.
        let mut dead_units = 0usize;
        for dim in [7usize, 65] {
            let (inputs, targets) = differential_set(101, dim);
            for hidden in [vec![16usize], vec![64, 32], vec![7, 5, 3]] {
                for batch_size in [1usize, 3, 32, 64] {
                    let cfg = NetConfig {
                        hidden: hidden.clone(),
                        epochs: 3,
                        batch_size,
                        learning_rate: 0.05,
                        seed: 0x5EED + batch_size as u64,
                    };
                    let mut batched = Mlp::new(dim, &hidden, cfg.seed);
                    let mut reference = batched.clone();
                    let report = batched.train(&inputs, &targets, &cfg);
                    let expected = reference.fit(&inputs, &targets, &cfg, Mlp::sample_gradients);
                    let case = format!("dim {dim} hidden {hidden:?} batch {batch_size}");
                    assert!(
                        weight_bits(&batched) == weight_bits(&reference),
                        "{case}: weights differ"
                    );
                    assert_eq!(
                        report.initial_loss.to_bits(),
                        expected.initial_loss.to_bits()
                    );
                    assert_eq!(report.final_loss.to_bits(), expected.final_loss.to_bits());
                    // Count first-layer units that no input activates.
                    let first = &batched.layers[0];
                    dead_units += (0..first.out_dim)
                        .filter(|&o| {
                            inputs.iter().all(|x| {
                                let mut out = Vec::new();
                                first.forward(x, &mut out);
                                out[o] <= 0.0
                            })
                        })
                        .count();
                }
            }
        }
        assert!(dead_units > 0, "the targets must kill some ReLU units");
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut net = Mlp::new(2, &[4], 1);
        let report = net.train(&[], &[], &NetConfig::tiny());
        assert_eq!(report.epochs, 0);
        assert_eq!(report.initial_loss, 0.0);
    }

    #[test]
    fn config_presets() {
        assert_eq!(NetConfig::paper().hidden, vec![512, 512, 256, 128]);
        assert_eq!(NetConfig::paper().epochs, 200);
        assert_eq!(NetConfig::paper().batch_size, 512);
        assert!(NetConfig::small().hidden.len() < NetConfig::paper().hidden.len());
        assert_eq!(NetConfig::default(), NetConfig::small());
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let net = Mlp::new(3, &[6], 21);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.3f32, 0.1, -0.7];
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    fn binary_round_trip_is_bit_exact_and_advances_cursor() {
        let mut net = Mlp::new(4, &[8, 4], 9);
        // Train a little so weights are not just the init distribution.
        let inputs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 / 25.0; 4]).collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0] * 2.0).collect();
        net.train(&inputs, &targets, &NetConfig::tiny());

        let mut buf: Vec<u8> = Vec::new();
        net.encode_binary(&mut buf);
        buf.extend_from_slice(&[0xEE; 3]); // trailing bytes belong to the caller
        let mut cursor: &[u8] = &buf;
        let back = Mlp::decode_binary(&mut cursor).unwrap();
        assert_eq!(cursor, &[0xEE; 3], "decode must stop at the network's end");
        assert_eq!(back.input_dim(), net.input_dim());
        assert_eq!(back.param_count(), net.param_count());
        for i in 0..20 {
            let x = [i as f32 * 0.17, -0.3, 0.9, i as f32];
            assert_eq!(
                net.predict(&x).to_bits(),
                back.predict(&x).to_bits(),
                "prediction must be bit-exact"
            );
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_payloads() {
        let net = Mlp::new(3, &[4], 2);
        let mut buf: Vec<u8> = Vec::new();
        net.encode_binary(&mut buf);

        // Truncation anywhere inside the payload.
        for cut in [0, 4, 8, 12, buf.len() - 1] {
            let mut cursor = &buf[..cut];
            assert!(Mlp::decode_binary(&mut cursor).is_err(), "cut at {cut}");
        }
        // Zero layers.
        let mut bad: Vec<u8> = Vec::new();
        bad.put_u32_le(3);
        bad.put_u32_le(0);
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
        // A header claiming u32::MAX layers must error out before reserving
        // gigabytes for the layer vector.
        let mut bad: Vec<u8> = Vec::new();
        bad.put_u32_le(3);
        bad.put_u32_le(u32::MAX);
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
        // Inconsistent layer chain: claim input_dim 5 against a net built
        // for 3 inputs.
        let mut bad = buf.clone();
        bad[0] = 5;
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
    }
}
