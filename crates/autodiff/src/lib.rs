//! Reverse-mode automatic differentiation over [`gandef_tensor::Tensor`].
//!
//! The paper's training procedures (Figure 2) and every white-box attack
//! (§IV-C) need gradients — of losses with respect to *parameters* during
//! training, and with respect to *inputs* during attack generation. This
//! crate provides both through a single mechanism: a [`Tape`] that records
//! each primitive operation as it executes and can then replay the chain
//! rule backwards from any scalar.
//!
//! # Design
//!
//! * A [`Tape`] owns a flat, append-only list of nodes. Node indices
//!   ([`VarId`]) are handed back to the caller; construction order is a
//!   topological order, so [`Tape::backward`] is a single reverse sweep.
//! * Each op stores a boxed closure that maps the upstream gradient to the
//!   gradients of its parents (capturing whatever forward values it needs).
//! * Values enter the tape as differentiable leaves ([`Tape::leaf`]) or as
//!   constants ([`Tape::constant`]). A node requires a gradient when at
//!   least one parent does; a node that requires none records no closure
//!   and captures no forward copies, and [`Tape::backward`] never visits
//!   it. The closure of a two-operand op knows which operands need
//!   gradients and computes only those: `conv2d` against constant filters
//!   skips the weight gradient and keeps no copy of its input, and
//!   `matmul`, `add`, `sub` and `mul` skip their constant side the same way.
//! * Training binds parameters as leaves and reads their gradients;
//!   attacks bind them as constants and read only the gradient at the
//!   image leaf, so an input-gradient query costs no weight gradient.
//! * [`Tape::backward`] only reads the tape, so several scalar roots can
//!   share one forward pass: each sweep is bit-identical to a sweep on a
//!   tape that recorded only that root.
//! * Tapes are cheap and short-lived: one per training step / attack
//!   iteration.
//!
//! # Example
//!
//! ```
//! use gandef_autodiff::Tape;
//! use gandef_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2], vec![3.0, -1.0]));
//! let y = tape.square(x); // y = x²
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! // d(Σx²)/dx = 2x
//! assert_eq!(grads.get(x).unwrap().as_slice(), &[6.0, -2.0]);
//! ```

#![deny(missing_docs)]

mod grad_check;
mod ops;
mod tape;

pub use grad_check::numeric_grad;
pub use tape::{Gradients, Tape, VarId};
