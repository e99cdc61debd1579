//! Arithmetic-expression DAGs for DFT codelets.
//!
//! Small-size DFT kernels ("codelets", after FFTW's `genfft`) are produced
//! by *partial evaluation*: the Cooley–Tukey recursion is executed on
//! symbolic values, yielding a straight-line program as a hash-consed DAG
//! of complex additions, subtractions, and multiplications by constants.
//! The DAG is printed as straight-line Rust (`generated.rs`) and as C
//! (the C emitter), and interpreted at run time for leaves without a
//! generated kernel.

use crate::simd::Lanes;
use spiral_spl::cplx::Cplx;
use std::collections::HashMap;

/// Node index within a [`Dag`].
pub type Id = u32;

/// One DAG operation. `Mul` is multiplication by a compile-time constant
/// (twiddle factors are constants after partial evaluation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Node {
    /// The `i`-th input element.
    Input(u32),
    /// Complex addition.
    Add(Id, Id),
    /// Complex subtraction.
    Sub(Id, Id),
    /// `operand * constant`.
    Mul(Id, Cplx),
    /// `operand * i` — strength-reduced rotation (no multiplies).
    MulI(Id),
    /// `operand * (-i)`.
    MulNegI(Id),
    /// Negation.
    Neg(Id),
}

/// A straight-line complex arithmetic program with `n_inputs` inputs and
/// `outputs.len()` outputs.
#[derive(Clone, Debug)]
pub struct Dag {
    /// Operations in topological order (inputs first).
    pub nodes: Vec<Node>,
    /// Node ids of the outputs, in output order.
    pub outputs: Vec<Id>,
    /// Number of input slots.
    pub n_inputs: usize,
}

impl Dag {
    /// Real-flop count of one evaluation (complex add/sub = 2, complex
    /// multiply = 6, rotations and negations are free-ish = 2).
    pub fn flops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Input(_) => 0,
                Node::Add(..) | Node::Sub(..) => 2,
                Node::Mul(..) => 6,
                Node::MulI(_) | Node::MulNegI(_) | Node::Neg(_) => 2,
            })
            .sum()
    }

    /// Number of arithmetic (non-input) nodes.
    pub fn ops(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Input(_)))
            .count()
    }

    /// Evaluate in place on ν lanes: `v` holds the input slots on entry
    /// and the output slots on return. `store` is the per-node value store
    /// (lane-grouped: node `k` at `store[k·ν..(k+1)·ν]`), grown as needed
    /// and reused across calls. This interprets the DAG the generated
    /// kernels were printed from, with the same operation sequence, so the
    /// two agree bitwise; the stage loop uses it for leaves without a
    /// generated kernel.
    pub fn eval_lanes<const NU: usize>(&self, v: &mut [Lanes<NU>], store: &mut Vec<Cplx>) {
        debug_assert_eq!(v.len(), self.n_inputs);
        debug_assert_eq!(v.len(), self.outputs.len());
        store.resize(self.nodes.len() * NU, Cplx::ZERO);
        let at = |s: &[Cplx], id: Id| Lanes::<NU>::load(&s[id as usize * NU..]);
        for (k, node) in self.nodes.iter().enumerate() {
            let x = match *node {
                Node::Input(i) => v[i as usize],
                Node::Add(a, b) => at(store, a) + at(store, b),
                Node::Sub(a, b) => at(store, a) - at(store, b),
                Node::Mul(a, c) => at(store, a).mul_const(c),
                Node::MulI(a) => at(store, a).mul_i(),
                Node::MulNegI(a) => at(store, a).mul_neg_i(),
                Node::Neg(a) => -at(store, a),
            };
            x.store(&mut store[k * NU..]);
        }
        for (slot, &o) in v.iter_mut().zip(&self.outputs) {
            *slot = at(store, o);
        }
    }
}

/// Hash-consing DAG builder.
pub struct DagBuilder {
    nodes: Vec<Node>,
    /// structural dedup: key is the node with constants bit-cast.
    memo: HashMap<NodeKey, Id>,
}

#[derive(PartialEq, Eq, Hash)]
enum NodeKey {
    Input(u32),
    Add(Id, Id),
    Sub(Id, Id),
    Mul(Id, u64, u64),
    MulI(Id),
    MulNegI(Id),
    Neg(Id),
}

fn key_of(n: &Node) -> NodeKey {
    match *n {
        Node::Input(i) => NodeKey::Input(i),
        // Addition commutes: canonicalize operand order for better dedup.
        Node::Add(a, b) => NodeKey::Add(a.min(b), a.max(b)),
        Node::Sub(a, b) => NodeKey::Sub(a, b),
        Node::Mul(a, c) => NodeKey::Mul(a, c.re.to_bits(), c.im.to_bits()),
        Node::MulI(a) => NodeKey::MulI(a),
        Node::MulNegI(a) => NodeKey::MulNegI(a),
        Node::Neg(a) => NodeKey::Neg(a),
    }
}

impl DagBuilder {
    /// New builder with `n_inputs` input nodes; returns their ids.
    pub fn new(n_inputs: usize) -> (DagBuilder, Vec<Id>) {
        let mut b = DagBuilder {
            nodes: Vec::new(),
            memo: HashMap::new(),
        };
        let inputs = (0..crate::u32_idx(n_inputs))
            .map(|i| b.push(Node::Input(i)))
            .collect();
        (b, inputs)
    }

    fn push(&mut self, n: Node) -> Id {
        let key = key_of(&n);
        if let Some(&id) = self.memo.get(&key) {
            return id;
        }
        let id = crate::u32_idx(self.nodes.len());
        self.nodes.push(n);
        self.memo.insert(key, id);
        id
    }

    /// Emit `a + b`.
    pub fn add(&mut self, a: Id, b: Id) -> Id {
        self.push(Node::Add(a, b))
    }

    /// Emit `a - b`.
    pub fn sub(&mut self, a: Id, b: Id) -> Id {
        self.push(Node::Sub(a, b))
    }

    /// Multiply by constant, with algebraic simplification of the unit
    /// constants the twiddle diagonals are full of.
    pub fn mul(&mut self, a: Id, c: Cplx) -> Id {
        const TOL: f64 = 1e-14;
        if c.approx_eq(Cplx::ONE, TOL) {
            a
        } else if c.approx_eq(Cplx::real(-1.0), TOL) {
            self.push(Node::Neg(a))
        } else if c.approx_eq(Cplx::I, TOL) {
            self.push(Node::MulI(a))
        } else if c.approx_eq(-Cplx::I, TOL) {
            self.push(Node::MulNegI(a))
        } else {
            self.push(Node::Mul(a, c))
        }
    }

    /// Seal the DAG with the given output nodes.
    pub fn finish(self, outputs: Vec<Id>, n_inputs: usize) -> Dag {
        Dag {
            nodes: self.nodes,
            outputs,
            n_inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_simple_butterfly() {
        let (mut b, ins) = DagBuilder::new(2);
        let s = b.add(ins[0], ins[1]);
        let d = b.sub(ins[0], ins[1]);
        let dag = b.finish(vec![s, d], 2);
        let mut v = [Lanes([Cplx::real(3.0)]), Lanes([Cplx::real(1.0)])];
        dag.eval_lanes(&mut v, &mut Vec::new());
        assert!(v[0].0[0].approx_eq(Cplx::real(4.0), 0.0));
        assert!(v[1].0[0].approx_eq(Cplx::real(2.0), 0.0));
        assert_eq!(dag.flops(), 4);
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut b, ins) = DagBuilder::new(2);
        let s1 = b.add(ins[0], ins[1]);
        let s2 = b.add(ins[1], ins[0]); // commuted — must dedup
        assert_eq!(s1, s2);
        let d1 = b.sub(ins[0], ins[1]);
        let d2 = b.sub(ins[0], ins[1]);
        assert_eq!(d1, d2);
        // Sub does not commute.
        let d3 = b.sub(ins[1], ins[0]);
        assert_ne!(d1, d3);
    }

    #[test]
    fn unit_constant_multiplies_fold() {
        let (mut b, ins) = DagBuilder::new(1);
        assert_eq!(b.mul(ins[0], Cplx::ONE), ins[0]);
        let neg = b.mul(ins[0], Cplx::real(-1.0));
        let dag_len = b.nodes.len();
        // -1 twice dedups
        assert_eq!(b.mul(ins[0], Cplx::real(-1.0)), neg);
        assert_eq!(b.nodes.len(), dag_len);
        // i and -i become rotations
        let r = b.mul(ins[0], Cplx::I);
        let dag = b.finish(vec![r], 1);
        assert!(matches!(dag.nodes.last(), Some(Node::MulI(_))));
    }

    #[test]
    fn rotations_evaluate_correctly() {
        let (mut b, ins) = DagBuilder::new(4);
        let ri = b.mul(ins[0], Cplx::I);
        let rni = b.mul(ins[1], -Cplx::I);
        let n = b.mul(ins[2], Cplx::real(-1.0));
        let general = b.mul(ins[3], Cplx::new(0.5, 0.25));
        let dag = b.finish(vec![ri, rni, n, general], 4);
        let z = Cplx::new(2.0, -3.0);
        let mut v = [Lanes([z]); 4];
        dag.eval_lanes(&mut v, &mut Vec::new());
        let out: Vec<Cplx> = v.iter().map(|l| l.0[0]).collect();
        assert!(out[0].approx_eq(z * Cplx::I, 1e-15));
        assert!(out[1].approx_eq(z * -Cplx::I, 1e-15));
        assert!(out[2].approx_eq(-z, 1e-15));
        assert!(out[3].approx_eq(z * Cplx::new(0.5, 0.25), 1e-15));
    }
}
