//! DFT codelets: the straight-line base-case kernels of the generator.
//!
//! Every size starts as a DAG (partial evaluation of the Cooley–Tukey
//! recursion, naive DFT for primes). Sizes 2..=[`MAX_GENERATED`] run as
//! straight-line Rust printed node-for-node from that DAG into
//! [`generated`] by [`generated_source`]; larger leaves (in practice the
//! primes above 8) run through the DAG interpreter. Both forms execute the
//! same operation sequence, so they agree bitwise.

pub mod dag;
#[rustfmt::skip]
mod generated;

use crate::stage::StageFn;
use dag::{Dag, DagBuilder, Id, Node};
use spiral_spl::num::{factorize, omega_pow, omega_pow2};
use spiral_spl::perm::Perm;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

pub(crate) use generated::runner as generated_runner;

/// Largest `DFT_n` with a generated straight-line kernel.
pub const MAX_GENERATED: usize = 8;

/// An executable DFT kernel of a fixed (small) size: its DAG plus the
/// stage runners resolved for it once, at construction.
#[derive(Clone)]
pub struct Codelet {
    pub(crate) dag: Arc<Dag>,
    /// Stage runners for ν = 1, 2, 4.
    runners: [StageFn; 3],
}

impl std::fmt::Debug for Codelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DFT_{}", self.size())
    }
}

impl Codelet {
    /// The codelet for `DFT_n`: the generated kernel for
    /// n ≤ [`MAX_GENERATED`], the DAG interpreter above (DAGs are cached
    /// globally — generation is deterministic).
    pub fn for_size(n: usize) -> Codelet {
        Codelet::build(n, false)
    }

    /// `DFT_n` through the DAG interpreter even where a generated kernel
    /// exists — the reference the generated kernels are tested and
    /// benchmarked against.
    pub fn interpreted(n: usize) -> Codelet {
        Codelet::build(n, true)
    }

    fn build(n: usize, interpret: bool) -> Codelet {
        Codelet {
            dag: cached_dag(n),
            runners: crate::stage::resolve_runners(n, interpret),
        }
    }

    /// The DAG form — what the generated kernels were printed from, what
    /// the C emitter prints, and what certification evaluates exactly.
    pub fn dag(&self) -> Arc<Dag> {
        Arc::clone(&self.dag)
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.dag.n_inputs
    }

    /// Real-flop count per application (for the cost model and the
    /// pseudo-Mflop/s accounting). `DFT_4` keeps the analytic count of 16
    /// the cost model is calibrated on; its DAG also counts the free `−i`
    /// rotation.
    pub fn flops(&self) -> u64 {
        match self.size() {
            4 => 16,
            _ => self.dag.flops(),
        }
    }

    /// The stage runner for lane width `nu` (1, 2 or 4).
    pub(crate) fn runner(&self, nu: usize) -> StageFn {
        match nu {
            2 => self.runners[1],
            4 => self.runners[2],
            _ => self.runners[0],
        }
    }
}

/// Global cache of generated DAGs (generation is pure, so sharing is safe).
fn cached_dag(n: usize) -> Arc<Dag> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Dag>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(d) = cache.lock().unwrap().get(&n) {
        return Arc::clone(d);
    }
    let d = Arc::new(generate_dft_dag(n));
    cache.lock().unwrap().entry(n).or_insert(d).clone()
}

/// Generate the straight-line DAG for `DFT_n` by symbolically executing
/// the Cooley–Tukey recursion (naive definition for primes).
pub fn generate_dft_dag(n: usize) -> Dag {
    assert!(n >= 1, "DFT size must be positive");
    let (mut b, inputs) = DagBuilder::new(n);
    let outputs = dft_symbolic(&mut b, &inputs);
    b.finish(outputs, n)
}

/// Symbolic `DFT_n` on a vector of DAG node ids.
fn dft_symbolic(b: &mut DagBuilder, xs: &[Id]) -> Vec<Id> {
    let n = xs.len();
    if n == 1 {
        return xs.to_vec();
    }
    if n == 2 {
        return vec![b.add(xs[0], xs[1]), b.sub(xs[0], xs[1])];
    }
    // Split at the smallest prime factor (radix-2 for powers of two).
    let m = factorize(n)[0].0;
    if m == n {
        // Prime: naive definition y_k = Σ_l ω^{kl} x_l.
        return (0..n)
            .map(|k| {
                let mut acc: Option<Id> = None;
                for (l, &x) in xs.iter().enumerate() {
                    let term = b.mul(x, omega_pow2(n, k, l));
                    acc = Some(match acc {
                        None => term,
                        Some(a) => b.add(a, term),
                    });
                }
                acc.unwrap()
            })
            .collect();
    }
    let k = n / m;
    // u = L^n_m x
    let l = Perm::stride(n, m);
    let u: Vec<Id> = (0..n).map(|r| xs[l.src(r)]).collect();
    // v = (I_m ⊗ DFT_k) u, then twiddles T^n_k: v[a·k + j] *= ω_n^{a·j}
    let mut v = Vec::with_capacity(n);
    for a in 0..m {
        let block = dft_symbolic(b, &u[a * k..(a + 1) * k]);
        for (j, id) in block.into_iter().enumerate() {
            v.push(b.mul(id, omega_pow(n, a * j)));
        }
    }
    // y = (DFT_m ⊗ I_k) v: column-wise DFT_m at stride k.
    let mut y = vec![0 as Id; n];
    let mut col = Vec::with_capacity(m);
    for j in 0..k {
        col.clear();
        for a in 0..m {
            col.push(v[a * k + j]);
        }
        let res = dft_symbolic(b, &col.clone());
        for (a, id) in res.into_iter().enumerate() {
            y[a * k + j] = id;
        }
    }
    y
}

/// The Rust source of `codelet/generated.rs`: for each n in
/// 2..=[`MAX_GENERATED`], a kernel `Dft{n}` that evaluates the
/// `DFT_n` DAG in place on ν lanes, one `let` per live node in DAG order,
/// plus the table that resolves a size to its stage runner. Regenerate
/// the file with
/// `cargo run -q -p spiral-codegen --example gen_codelets > crates/codegen/src/codelet/generated.rs`;
/// a test fails when the committed file and this generator disagree.
pub fn generated_source() -> String {
    let mut s = String::from(
        "//! Generated straight-line DFT kernels — do not edit; see\n\
         //! [`super::generated_source`] for how to regenerate.\n\n\
         use crate::simd::Lanes;\n\
         use crate::stage::{run_stage, Kernel, StageFn};\n\
         use spiral_spl::cplx::Cplx;\n\n\
         /// The stage runner of the generated `DFT_c` kernel at ν lanes.\n\
         pub(crate) fn runner<const NU: usize>(c: usize) -> Option<StageFn> {\n\
         \x20   let f: StageFn = match c {\n",
    );
    for n in 2..=MAX_GENERATED {
        let _ = writeln!(
            s,
            "        {n} => |k, s, d| run_stage::<{n}, NU, _>(k, s, d, Dft{n}),"
        );
    }
    s.push_str("        _ => return None,\n    };\n    Some(f)\n}\n");
    for n in 2..=MAX_GENERATED {
        emit_kernel(&mut s, &generate_dft_dag(n));
    }
    s
}

/// Print one DAG as an in-place ν-lane kernel.
fn emit_kernel(s: &mut String, d: &Dag) {
    let n = d.n_inputs;
    let name = |id: Id| match d.nodes[id as usize] {
        Node::Input(i) => format!("x{i}"),
        _ => format!("t{id}"),
    };
    let _ = writeln!(
        s,
        "\n/// `DFT_{n}` on ν lanes, in place ({} flops per lane).\n\
         pub(crate) struct Dft{n};\n\n\
         impl Kernel<{n}> for Dft{n} {{\n\
         \x20   #[inline(always)]\n\
         \x20   fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; {n}]) {{",
        d.flops()
    );
    let inputs: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
    let _ = writeln!(s, "        let [{}] = *v;", inputs.join(", "));
    for (id, node) in d.nodes.iter().enumerate() {
        let expr = match *node {
            Node::Input(_) => continue,
            Node::Add(a, b) => format!("{} + {};", name(a), name(b)),
            Node::Sub(a, b) => format!("{} - {};", name(a), name(b)),
            // Constants print as exact bit patterns, their values in a
            // comment.
            Node::Mul(a, c) => format!(
                "{}.mul_const(Cplx::new(f64::from_bits({:#x}), f64::from_bits({:#x}))); // {:?}, {:?}",
                name(a),
                c.re.to_bits(),
                c.im.to_bits(),
                c.re,
                c.im
            ),
            Node::MulI(a) => format!("{}.mul_i();", name(a)),
            Node::MulNegI(a) => format!("{}.mul_neg_i();", name(a)),
            Node::Neg(a) => format!("-{};", name(a)),
        };
        let _ = writeln!(s, "        let t{id} = {expr}");
    }
    let outputs: Vec<String> = d.outputs.iter().map(|&o| name(o)).collect();
    let _ = writeln!(s, "        *v = [{}];\n    }}\n}}", outputs.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::KernelStage;
    use spiral_spl::apply::naive_dft;
    use spiral_spl::cplx::{assert_slices_close, Cplx};

    fn rand_input(n: usize, seed: u64) -> Vec<Cplx> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let im = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                Cplx::new(re, im)
            })
            .collect()
    }

    fn apply(c: Codelet, x: &[Cplx]) -> Vec<Cplx> {
        let mut y = vec![Cplx::ZERO; x.len()];
        KernelStage::unit(c).apply(x, &mut y);
        y
    }

    #[test]
    fn generated_kernels_are_fresh() {
        assert!(
            include_str!("generated.rs") == generated_source(),
            "codelet/generated.rs is stale; regenerate it with `cargo run -q -p \
             spiral-codegen --example gen_codelets > crates/codegen/src/codelet/generated.rs`"
        );
    }

    #[test]
    fn codelets_match_definition_all_sizes() {
        for n in 1..=32 {
            let c = Codelet::for_size(n);
            assert_eq!(c.size(), n);
            for seed in 1..4 {
                let x = rand_input(n, seed + n as u64);
                let mut want = vec![Cplx::ZERO; n];
                naive_dft(n, &x, &mut want);
                assert_slices_close(&apply(c.clone(), &x), &want, 1e-9 * n as f64);
            }
        }
    }

    #[test]
    fn generated_kernels_equal_dag_interpreter_bitwise() {
        for n in 2..=MAX_GENERATED {
            let x = rand_input(n, 99 + n as u64);
            let (gen, dag) = (
                apply(Codelet::for_size(n), &x),
                apply(Codelet::interpreted(n), &x),
            );
            assert_eq!(gen, dag, "n={n}");
        }
    }

    #[test]
    fn generated_op_counts_are_fft_like() {
        // Power-of-two DAGs must be O(n log n), far below naive O(n²):
        // radix-2 DFT_16 needs well under 16² = 256 complex ops.
        let d16 = generate_dft_dag(16);
        assert!(d16.ops() < 150, "{} ops", d16.ops());
        let d32 = generate_dft_dag(32);
        assert!((d32.ops() as f64) < 2.6 * d16.ops() as f64);
        // And strictly more than the information-theoretic floor.
        assert!(d16.ops() >= 16);
    }

    #[test]
    fn dag_cache_shares() {
        let a = cached_dag(12);
        let b = cached_dag(12);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn flops_positive_and_consistent() {
        for n in [2usize, 4, 8, 3, 5, 6, 16] {
            let c = Codelet::for_size(n);
            assert!(c.flops() > 0, "n={n}");
        }
        assert_eq!(Codelet::for_size(2).flops(), 4);
        assert_eq!(Codelet::for_size(4).flops(), 16);
    }

    #[test]
    fn size_one_is_identity() {
        let x = [Cplx::new(2.5, -1.0)];
        assert_eq!(apply(Codelet::for_size(1), &x), x);
    }
}
