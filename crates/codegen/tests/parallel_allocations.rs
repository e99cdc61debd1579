//! Allocation budget of warm parallel and batch runs, counted across
//! every thread of the process: a warm `ParallelExecutor::try_execute`
//! allocates only the `Vec` it returns, and a warm batch only its output
//! rows and their outer `Vec`. Pool workers allocate on their own
//! threads, so the counter is process-global and this binary holds a
//! single test (parallel tests would see each other's allocations).

use spiral_codegen::plan::Plan;
use spiral_codegen::{BatchExecutor, ParallelExecutor};
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_smp::barrier::BarrierKind;
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by any thread while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    (ALLOCS.load(Ordering::SeqCst) - before, r)
}

fn input(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(j as f64 * 0.25, 1.0 - j as f64))
        .collect()
}

/// The parallel plan shapes at `p` threads: explicit exchanges, fused
/// gathers, and ν = 4 lanes. µ = 2 at p = 4 keeps (pµ)² | n down to
/// n = 2^6.
fn parallel_plans(n: usize, p: usize) -> Vec<(&'static str, Plan)> {
    let mu = if p == 4 { 2 } else { 4 };
    let f = multicore_dft_expanded(n, p, mu, None, 8).unwrap();
    let par = Plan::from_formula(&f, p, mu).unwrap();
    let vec4 = Plan::from_formula(&vec_tag(4, f), p, mu).unwrap();
    // At n = 2^6, p = 4 no stage meets the ν = 4 alignment
    // preconditions, so that one plan stays scalar.
    assert!(
        vec4.vec_width == 4 || (n, p) == (64, 4),
        "n={n} p={p}: nothing vectorized"
    );
    vec![
        ("par", par.clone()),
        ("par gathered", par.fuse_exchanges()),
        ("vec(4)", vec4.fuse_exchanges()),
    ]
}

#[test]
fn warm_runs_allocate_only_their_output() {
    for p in [2usize, 4] {
        let exec = ParallelExecutor::new(p, BarrierKind::Park);
        let batch = BatchExecutor::new(p);
        for k in 6..=12 {
            let n = 1usize << k;
            let x = input(n);
            for (shape, plan) in parallel_plans(n, p) {
                exec.try_execute(&plan, &x).unwrap();
                let (count, y) = allocations(|| exec.try_execute(&plan, &x).unwrap());
                assert_eq!(
                    count, 1,
                    "p={p} n={n} {shape}: warm run allocated {count} times"
                );
                assert_eq!(y.len(), n);
            }
            let seq = Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap();
            let xs: Vec<Vec<Cplx>> = (0..2 * p + 1).map(|_| input(n)).collect();
            batch.try_execute_batch(&seq, &xs).unwrap();
            let (count, ys) = allocations(|| batch.try_execute_batch(&seq, &xs).unwrap());
            assert_eq!(
                count,
                xs.len() + 1,
                "p={p} n={n}: warm batch of {} allocated {count} times",
                xs.len()
            );
            assert_eq!(ys.len(), xs.len());
        }
    }
}
