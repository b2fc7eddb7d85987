//! An initialized network (model + parameters) and the white-box
//! [`Classifier`] interface consumed by the attack crate.

use crate::layer::Sequential;
use crate::params::{Params, Session};
use gandef_autodiff::{Tape, VarId};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Maximum rows pushed through a single inference forward; larger batches
/// are chunked to bound peak intermediate-activation memory.
const INFER_CHUNK: usize = 64;

/// A white-box image classifier: something that exposes its logits *and*
/// its input gradients. All of the paper's attack generators (§IV-C) are
/// written against this trait, mirroring the white-box threat model where
/// the adversary has "full knowledge about the target NN classifier".
///
/// Gradients are taken with respect to the *input* only: an attack never
/// reads a weight gradient, so [`Net`] records its weights as tape
/// constants ([`Session::frozen`]) and computes none.
///
/// `Sync` is required so one model can serve concurrent attack chunks on
/// the worker pool (inference is a tape-free read-only pass; gradient
/// queries build their own tape per call).
pub trait Classifier: Sync {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Pre-softmax logits `z = C(x)` for a batch `x` (`[N, ...]` → `[N, classes]`).
    fn logits(&self, x: &Tensor) -> Tensor;

    /// Mean softmax cross-entropy of the batch against one-hot `targets`,
    /// together with its gradient with respect to the *input* — the kernel
    /// of FGSM/BIM/PGD.
    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor);

    /// Gradient of `Σ (weights ⊙ z)` with respect to the input, where
    /// `weights: [N, classes]` is constant. A one-hot row extracts one
    /// logit's gradient (DeepFool); a ±1 pair extracts a margin gradient
    /// (CW).
    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor;

    /// One linearization of the model at `x`: the logits `z = C(x)` and,
    /// for each constant `[N, classes]` matrix `w` that `weights(&z)`
    /// returns, the input gradient of `Σ (w ⊙ z)`, in the same order. The
    /// matrices may depend on the logits: CW picks each row's runner-up
    /// class from them, and DeepFool asks for one one-hot matrix per class.
    ///
    /// The provided body calls [`Classifier::logits`] and then
    /// [`Classifier::weighted_logit_input_grad`] once per matrix. [`Net`]
    /// overrides it to run one forward pass for all of them, with the same
    /// results bit for bit.
    fn linearize(
        &self,
        x: &Tensor,
        weights: &dyn Fn(&Tensor) -> Vec<Tensor>,
    ) -> (Tensor, Vec<Tensor>) {
        let z = self.logits(x);
        let grads = weights(&z)
            .iter()
            .map(|w| self.weighted_logit_input_grad(x, w))
            .collect();
        (z, grads)
    }

    /// Predicted class per row.
    fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }
}

/// A [`Sequential`] model with initialized [`Params`] — the unit that
/// defenses train and attacks target.
pub struct Net {
    /// The architecture.
    pub model: Sequential,
    /// The trainable parameters.
    pub params: Params,
    classes: usize,
}

impl Net {
    /// Initializes the model's parameters with `rng` and wraps everything
    /// into a ready-to-train network with 10 output classes (the paper's
    /// datasets are all 10-way).
    pub fn new(model: Sequential, rng: &mut Prng) -> Self {
        Net::with_classes(model, 10, rng)
    }

    /// As [`Net::new`] but with an explicit class count.
    pub fn with_classes(model: Sequential, classes: usize, rng: &mut Prng) -> Self {
        let mut params = Params::new();
        model.init(&mut params, rng);
        Net {
            model,
            params,
            classes,
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params.numel()
    }

    /// Accuracy of the network's predictions on `(x, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sizes disagree.
    pub fn accuracy_on(&self, x: &Tensor, labels: &[usize]) -> f32 {
        crate::accuracy(&self.predict(x), labels)
    }

    /// Runs one evaluation-mode forward pass over the tape-free
    /// [`Sequential::infer`] path, returning the logits tensor. Input
    /// batches larger than an internal chunk size are split to bound peak
    /// activation memory.
    fn infer(&self, x: &Tensor) -> Tensor {
        let n = x.dim(0);
        if n <= INFER_CHUNK {
            return self.infer_chunk(x);
        }
        let mut parts = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + INFER_CHUNK).min(n);
            parts.push(self.infer_chunk(&x.slice_rows(start, end)));
            start = end;
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat_rows(&refs)
    }

    fn infer_chunk(&self, x: &Tensor) -> Tensor {
        self.model.infer(&self.params, x.clone())
    }

    /// Records an evaluation forward pass of `x` on a [`Session::frozen`]
    /// tape, returning the session, the input leaf and the logits node.
    fn frozen_forward(&self, x: &Tensor) -> (Session, VarId, VarId) {
        let mut sess = Session::frozen(&self.params);
        let xv = sess.input(x.clone());
        let z = self.model.forward(&mut sess, xv);
        (sess, xv, z)
    }
}

/// The gradient of scalar node `root` with respect to the input leaf `xv`.
fn input_grad(tape: &Tape, root: VarId, xv: VarId) -> Tensor {
    tape.backward(root)
        .take(xv)
        // lint:allow(panic) — every root is built from the logits of `xv`,
        // so the backward sweep always reaches the input leaf.
        .expect("input must receive a gradient")
}

/// The gradient of `Σ (weights ⊙ z)` with respect to the input leaf `xv`,
/// where `zv` holds the logits of `xv`.
fn weighted_input_grad(tape: &mut Tape, xv: VarId, zv: VarId, weights: &Tensor) -> Tensor {
    let s = tape.dot_const(zv, weights);
    input_grad(tape, s, xv)
}

impl Classifier for Net {
    fn num_classes(&self) -> usize {
        self.classes
    }

    fn logits(&self, x: &Tensor) -> Tensor {
        self.infer(x)
    }

    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        let (mut sess, xv, z) = self.frozen_forward(x);
        let loss = sess.tape.softmax_cross_entropy(z, targets);
        (
            sess.tape.value(loss).item(),
            input_grad(&sess.tape, loss, xv),
        )
    }

    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
        let (mut sess, xv, zv) = self.frozen_forward(x);
        weighted_input_grad(&mut sess.tape, xv, zv, weights)
    }

    fn linearize(
        &self,
        x: &Tensor,
        weights: &dyn Fn(&Tensor) -> Vec<Tensor>,
    ) -> (Tensor, Vec<Tensor>) {
        let (mut sess, xv, zv) = self.frozen_forward(x);
        // Within one inference chunk the tape forward is `infer`, bit for
        // bit. A larger batch is split by `infer`, and under f32 a short
        // trailing chunk may take a different GEMM path, so its logits
        // come from `infer` to stay equal to `logits`.
        let z = if x.dim(0) <= INFER_CHUNK {
            sess.tape.value(zv).clone()
        } else {
            self.infer(x)
        };
        // Every root shares the one forward pass; `backward` only reads
        // the tape, so each sweep equals one on a fresh tape.
        let grads = weights(&z)
            .iter()
            .map(|w| weighted_input_grad(&mut sess.tape, xv, zv, w))
            .collect();
        (z, grads)
    }
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Net({} layers, {} params, {} classes)",
            self.model.len(),
            self.num_params(),
            self.classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Act, Dense};
    use crate::one_hot;
    use gandef_autodiff::numeric_grad;

    fn tiny_net(seed: u64) -> Net {
        let model = Sequential::new(vec![
            Box::new(Dense::new("fc1", 4, 6, Some(Act::Tanh))),
            Box::new(Dense::new("fc2", 6, 3, None)),
        ]);
        Net::with_classes(model, 3, &mut Prng::new(seed))
    }

    #[test]
    fn logits_shape_and_determinism() {
        let net = tiny_net(1);
        let x = Prng::new(2).uniform_tensor(&[5, 4], -1.0, 1.0);
        let z1 = net.logits(&x);
        let z2 = net.logits(&x);
        assert_eq!(z1.shape().dims(), &[5, 3]);
        assert_eq!(z1, z2);
    }

    #[test]
    fn chunked_inference_matches_single_pass() {
        let net = tiny_net(3);
        let x = Prng::new(4).uniform_tensor(&[INFER_CHUNK + 17, 4], -1.0, 1.0);
        let full = net.logits(&x);
        // Row i of the chunked result equals an isolated forward of row i.
        for probe in [0usize, INFER_CHUNK - 1, INFER_CHUNK, INFER_CHUNK + 16] {
            let single = net.logits(&x.slice_rows(probe, probe + 1));
            assert!(full.slice_rows(probe, probe + 1).allclose(&single, 1e-5));
        }
    }

    #[test]
    fn logits_match_tape_forward_bitwise() {
        let net = tiny_net(13);
        let x = Prng::new(14).uniform_tensor(&[5, 4], -1.0, 1.0);
        let mut sess = Session::eval(&net.params);
        let xv = sess.input(x.clone());
        let z = net.model.forward(&mut sess, xv);
        assert_eq!(net.logits(&x), *sess.tape.value(z));
    }

    #[test]
    fn ce_input_grad_matches_finite_difference() {
        let net = tiny_net(5);
        let x = Prng::new(6).uniform_tensor(&[2, 4], -1.0, 1.0);
        let targets = one_hot(&[0, 2], 3);
        let (loss, grad) = net.ce_input_grad(&x, &targets);
        assert!(loss > 0.0);
        let numeric = numeric_grad(|p| net.ce_input_grad(p, &targets).0, &x, 1e-3);
        assert!(grad.allclose(&numeric, 2e-2), "{grad:?} vs {numeric:?}");
    }

    #[test]
    fn weighted_logit_grad_matches_finite_difference() {
        let net = tiny_net(7);
        let x = Prng::new(8).uniform_tensor(&[2, 4], -1.0, 1.0);
        // Margin weights: +1 on class 1, −1 on class 0 for both rows.
        let w = gandef_tensor::Tensor::from_vec(vec![2, 3], vec![-1.0, 1.0, 0.0, -1.0, 1.0, 0.0]);
        let grad = net.weighted_logit_input_grad(&x, &w);
        let numeric = numeric_grad(
            |p| {
                let z = net.logits(p);
                z.mul(&w).sum()
            },
            &x,
            1e-3,
        );
        assert!(grad.allclose(&numeric, 2e-2));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn frozen_input_grads_equal_differentiable_weight_tapes_bitwise() {
        use gandef_tensor::accum::{with_accum, Accum};
        let net = Net::new(crate::zoo::lenet(1), &mut Prng::new(15));
        let x = Prng::new(16).uniform_tensor(&[3, 1, 28, 28], -1.0, 1.0);
        let targets = one_hot(&[4, 0, 9], 10);
        let weights = [
            targets.clone(),
            targets.scale(-1.0).add(&one_hot(&[1, 2, 3], 10)),
        ];
        // The same queries on a tape whose weights are differentiable leaves.
        let leaf_tape = || {
            let mut sess = Session::eval(&net.params);
            let xv = sess.input(x.clone());
            let z = net.model.forward(&mut sess, xv);
            (sess, xv, z)
        };
        for mode in [Accum::F32, Accum::F64] {
            with_accum(mode, || {
                let (mut sess, xv, z) = leaf_tape();
                let loss = sess.tape.softmax_cross_entropy(z, &targets);
                let want_ce = sess.tape.backward(loss).take(xv).unwrap();
                let (value, got_ce) = net.ce_input_grad(&x, &targets);
                assert_eq!(value.to_bits(), sess.tape.value(loss).item().to_bits());
                assert_eq!(bits(&got_ce), bits(&want_ce), "{mode:?}: ce");

                let (z_lin, grads) = net.linearize(&x, &|_| weights.to_vec());
                assert_eq!(bits(&z_lin), bits(&net.logits(&x)), "{mode:?}: logits");
                for (w, got) in weights.iter().zip(&grads) {
                    let (mut sess, xv, z) = leaf_tape();
                    let s = sess.tape.dot_const(z, w);
                    let want = sess.tape.backward(s).take(xv).unwrap();
                    assert_eq!(bits(got), bits(&want), "{mode:?}: weighted");
                    assert_eq!(bits(&net.weighted_logit_input_grad(&x, w)), bits(&want));
                }
            });
        }
    }

    #[test]
    fn frozen_session_computes_no_weight_gradient() {
        let net = tiny_net(17);
        let mut sess = Session::frozen(&net.params);
        let xv = sess.input(Prng::new(18).uniform_tensor(&[2, 4], -1.0, 1.0));
        let z = net.model.forward(&mut sess, xv);
        let loss = sess.tape.sum_all(z);
        assert!(sess.tape.backward(loss).get(xv).is_some());
        assert!(sess.backward(loss).iter().all(Option::is_none));
    }

    #[test]
    fn predict_is_argmax_of_logits() {
        let net = tiny_net(9);
        let x = Prng::new(10).uniform_tensor(&[8, 4], -1.0, 1.0);
        assert_eq!(net.predict(&x), net.logits(&x).argmax_rows());
    }

    #[test]
    fn accuracy_on_self_consistent_labels_is_one() {
        let net = tiny_net(11);
        let x = Prng::new(12).uniform_tensor(&[8, 4], -1.0, 1.0);
        let labels = net.predict(&x);
        assert_eq!(net.accuracy_on(&x, &labels), 1.0);
    }
}
