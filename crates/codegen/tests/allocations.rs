//! Allocation budget of plan execution, measured with a counting global
//! allocator: a warm `Plan::execute_into` allocates nothing, and
//! `Plan::execute` of a one-step sequential plan allocates exactly its
//! output and one chunk temporary.

use spiral_codegen::plan::{Plan, PlanWorkspace, Step};
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread (tests run on parallel
/// threads, so a global counter would see its neighbours).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn input(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(j as f64 * 0.25, 1.0 - j as f64))
        .collect()
}

/// The plan shapes the stage loop runs: sequential (scalar and ν-lane),
/// parallel with explicit exchanges, and parallel with fused gathers.
fn plans(n: usize) -> Vec<(String, Plan)> {
    let seq = sequential_dft(n, 8);
    let par = multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
    let mut out = vec![
        ("seq".to_string(), Plan::from_formula(&seq, 1, 4).unwrap()),
        (
            "seq vec(4)".to_string(),
            Plan::from_formula(&vec_tag(4, seq), 1, 4).unwrap(),
        ),
    ];
    let par = Plan::from_formula(&par, 2, 4).unwrap();
    out.push(("par".to_string(), par.clone()));
    out.push(("par gathered".to_string(), par.fuse_exchanges()));
    out
}

#[test]
fn warm_execute_into_allocates_nothing() {
    for k in 6..=12 {
        let n = 1usize << k;
        let x = input(n);
        let mut out = vec![Cplx::ZERO; n];
        for (shape, plan) in plans(n) {
            if shape == "par gathered" {
                assert!(
                    plan.steps.iter().any(|s| matches!(
                        s,
                        Step::Par {
                            gather: Some(_),
                            ..
                        }
                    )),
                    "n={n}: no gathered step"
                );
            }
            let mut ws = PlanWorkspace::default();
            plan.execute_into(&x, &mut out, &mut ws);
            let count = allocations(|| plan.execute_into(&x, &mut out, &mut ws));
            assert_eq!(count, 0, "n={n} {shape}: warm execute_into allocated");
        }
    }
}

#[test]
fn warm_execute_into_with_dag_leaves_allocates_nothing() {
    // DFT_11 leaves run through the DAG interpreter, whose node store is
    // reused per thread.
    let n = 11 * 64;
    let plan = Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap();
    let (x, mut out, mut ws) = (input(n), vec![Cplx::ZERO; n], PlanWorkspace::default());
    plan.execute_into(&x, &mut out, &mut ws);
    assert_eq!(allocations(|| plan.execute_into(&x, &mut out, &mut ws)), 0);
}

#[test]
fn one_step_execute_allocates_output_and_temporary() {
    for k in 6..=12 {
        let n = 1usize << k;
        let plan = Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap();
        assert!(
            matches!(plan.steps.as_slice(), [Step::Seq(_)]),
            "n={n}: expected one Seq step"
        );
        let x = input(n);
        plan.execute(&x);
        let mut y = Vec::new();
        let count = allocations(|| y = plan.execute(&x));
        assert_eq!(count, 2, "n={n}: execute allocated {count} times");
        assert_eq!(y.len(), n);
    }
}
