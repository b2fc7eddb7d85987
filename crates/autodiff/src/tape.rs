//! The tape data structure: node storage, ids and the backward sweep.

use gandef_tensor::Tensor;
use std::fmt;

/// Handle to a value recorded on a [`Tape`].
///
/// Ids are only meaningful for the tape that produced them; using an id from
/// another tape is a logic error (caught by bounds/shape panics in debug
/// use, not by the type system).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarId({})", self.0)
    }
}

/// Maps an upstream gradient to the gradients of the node's parents, one
/// slot per parent: `None` for a parent that needs no gradient.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<VarId>,
    /// Whether any gradient flows into this node: true for leaves and for
    /// ops with at least one such parent, false for constants and for ops
    /// built only from constants.
    pub(crate) requires_grad: bool,
    /// `None` for leaves, constants and ops that need no gradient.
    pub(crate) backward: Option<BackwardFn>,
}

/// A reverse-mode autodiff tape.
///
/// Records primitive operations as they execute; [`Tape::backward`] then
/// produces the gradient of a scalar node with respect to every node that
/// depends on a [`Tape::leaf`]. See the crate docs for an end-to-end
/// example.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a differentiable leaf holding `value`. Leaves have no
    /// parents; their gradients are read out of [`Gradients`] after a
    /// backward pass.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(value, Vec::new(), true, None)
    }

    /// Records a constant holding `value`: it takes part in the forward
    /// pass but never receives a gradient, and ops whose parents are all
    /// constants record no backward closure. Attacks bind the model's
    /// weights this way, so an input-gradient query skips every weight
    /// gradient.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(value, Vec::new(), false, None)
    }

    /// Records a node whose gradient is cut off: the value flows forward,
    /// but backward passes stop here. This is how the GAN trainers freeze
    /// one network while updating the other (Algorithm 1, lines 6 and 11).
    pub fn detach(&mut self, id: VarId) -> VarId {
        let value = self.value(id).clone();
        self.leaf(value)
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tape.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Whether a backward pass can reach `id` with a gradient: false for
    /// [`Tape::constant`]s and for ops computed only from constants.
    pub(crate) fn requires_grad(&self, id: VarId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Records an op node. `make` builds the backward closure and is only
    /// called when at least one parent requires a gradient; it receives the
    /// tape (to clone the parent values the closure needs), the op's output
    /// and, per parent, whether that parent requires a gradient. An op
    /// whose parents are all constant thus captures no forward copies.
    pub(crate) fn record(
        &mut self,
        value: Tensor,
        parents: Vec<VarId>,
        make: impl FnOnce(&Tape, &Tensor, &[bool]) -> BackwardFn,
    ) -> VarId {
        let needs: Vec<bool> = parents.iter().map(|&p| self.requires_grad(p)).collect();
        let requires_grad = needs.contains(&true);
        let backward = requires_grad.then(|| make(self, &value, &needs));
        self.push(value, parents, requires_grad, backward)
    }

    fn push(
        &mut self,
        value: Tensor,
        parents: Vec<VarId>,
        requires_grad: bool,
        backward: Option<BackwardFn>,
    ) -> VarId {
        debug_assert!(parents.iter().all(|p| p.0 < self.nodes.len()));
        self.nodes.push(Node {
            value,
            parents,
            requires_grad,
            backward,
        });
        VarId(self.nodes.len() - 1)
    }

    /// Runs the backward sweep from scalar node `root`, returning the
    /// gradient of `root` with respect to every reachable node that
    /// requires one. Constants are never visited.
    ///
    /// The sweep only reads the tape, so one forward pass can serve several
    /// roots: each call is a fresh sweep, bit-identical to a sweep over a
    /// tape that recorded only that root's graph.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a single-element tensor.
    pub fn backward(&self, root: VarId) -> Gradients {
        assert_eq!(
            self.nodes[root.0].value.numel(),
            1,
            "backward root must be a scalar, got shape {}",
            self.nodes[root.0].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Tensor::full(self.nodes[root.0].value.shape().dims(), 1.0));
        // Construction order is topological: children always have larger
        // indices than parents, so one reverse pass suffices.
        for i in (0..=root.0).rev() {
            let Some(upstream) = grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            if let Some(backward) = &node.backward {
                let parent_grads = backward(&upstream);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (parent, g) in node.parents.iter().zip(parent_grads) {
                    // Closures return `None` exactly for constant parents.
                    let Some(g) = g else { continue };
                    debug_assert!(self.nodes[parent.0].requires_grad);
                    debug_assert_eq!(
                        g.shape(),
                        self.nodes[parent.0].value.shape(),
                        "gradient shape mismatch for parent {:?}",
                        parent
                    );
                    match &mut grads[parent.0] {
                        Some(acc) => acc.add_assign(&g),
                        slot @ None => *slot = Some(g),
                    }
                }
            }
            grads[i] = Some(upstream);
        }
        Gradients { grads }
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

/// The result of a backward sweep: gradient tensors keyed by [`VarId`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the backward root with respect to node `id`, if the node
    /// was reachable from the root.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `id`, leaving `None` behind.
    pub fn take(&mut self, id: VarId) -> Option<Tensor> {
        self.grads.get_mut(id.0).and_then(|g| g.take())
    }
}

impl fmt::Debug for Gradients {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.grads.iter().filter(|g| g.is_some()).count();
        write!(f, "Gradients({n} populated)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        assert_eq!(tape.value(x).as_slice(), &[1.0, 2.0]);
        assert_eq!(tape.len(), 1);
        assert!(!tape.is_empty());
    }

    #[test]
    fn backward_of_leaf_is_identity_seed() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(5.0));
        let grads = tape.backward(x);
        assert_eq!(grads.get(x).unwrap().item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 2]));
        tape.backward(x);
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.square(x);
        let d = tape.detach(y);
        let z = tape.square(d);
        let grads = tape.backward(z);
        // z = (x²)² but the detach cuts the chain: x gets no gradient.
        assert!(grads.get(x).is_none());
        assert_eq!(grads.get(d).unwrap().item(), 2.0 * 9.0);
    }

    #[test]
    fn gradient_accumulates_across_fanout() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0));
        let a = tape.square(x); // 4, da/dx = 4
        let b = tape.square(x); // 4, db/dx = 4
        let s = tape.add(a, b); // 8
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap().item(), 8.0);
    }

    #[test]
    fn constants_get_no_gradient_and_record_no_closure() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let c = tape.constant(Tensor::from_vec(vec![2], vec![3.0, -1.0]));
        // A subgraph built only from constants.
        let c2 = tape.square(c);
        let c3 = tape.add(c2, c);
        let y = tape.mul(x, c3);
        let loss = tape.sum_all(y);
        for id in [c, c2, c3] {
            assert!(!tape.requires_grad(id), "{id:?} requires a gradient");
            assert!(tape.nodes[id.0].backward.is_none(), "{id:?} has a closure");
        }
        assert!(tape.requires_grad(y) && tape.nodes[y.0].backward.is_some());
        let grads = tape.backward(loss);
        for id in [c, c2, c3] {
            assert!(grads.get(id).is_none(), "{id:?} got a gradient");
        }
        // d(Σ x ⊙ (c² + c))/dx = c² + c.
        assert_eq!(grads.get(x).unwrap().as_slice(), &[12.0, 0.0]);
    }

    #[test]
    fn several_roots_on_one_tape_equal_fresh_tapes() {
        let x0 = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.37).sin());
        let w0 = Tensor::from_fn(&[4, 5], |i| (i as f32 * 0.91).cos() * 0.5);
        let selector = |k: usize| Tensor::from_fn(&[3, 5], |i| if i % 5 == k { 1.0 } else { 0.0 });
        // x → tanh(x·W) with W constant, as in an attack's forward pass.
        let forward = |tape: &mut Tape| {
            let x = tape.leaf(x0.clone());
            let w = tape.constant(w0.clone());
            let h = tape.matmul(x, w);
            (x, tape.tanh(h))
        };
        let mut shared = Tape::new();
        let (xs, zs) = forward(&mut shared);
        let roots: Vec<VarId> = (0..5).map(|k| shared.dot_const(zs, &selector(k))).collect();
        for (k, &root) in roots.iter().enumerate() {
            let mut fresh = Tape::new();
            let (xf, zf) = forward(&mut fresh);
            let rf = fresh.dot_const(zf, &selector(k));
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(shared.backward(root).get(xs).unwrap()),
                bits(fresh.backward(rf).get(xf).unwrap()),
                "root {k}"
            );
        }
    }

    #[test]
    fn take_removes_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(1.0));
        let y = tape.square(x);
        let mut grads = tape.backward(y);
        assert!(grads.take(x).is_some());
        assert!(grads.take(x).is_none());
        assert!(grads.get(x).is_none());
    }
}
