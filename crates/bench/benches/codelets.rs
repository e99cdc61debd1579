//! Codelet microbenchmarks: generated straight-line kernels vs. the DAG
//! interpreter they were printed from, each run as a unit kernel stage
//! (one codelet application through the stage loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spiral_codegen::codelet::{Codelet, MAX_GENERATED};
use spiral_codegen::stage::KernelStage;
use spiral_spl::cplx::Cplx;

fn bench_codelets(c: &mut Criterion) {
    let mut group = c.benchmark_group("codelets");
    for n in 2..=MAX_GENERATED {
        let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, -1.0)).collect();
        let mut out = vec![Cplx::ZERO; n];
        for (name, codelet) in [
            ("generated", Codelet::for_size(n)),
            ("dag_interp", Codelet::interpreted(n)),
        ] {
            let stage = KernelStage::unit(codelet);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    stage.apply(&x, &mut out);
                    out[0]
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_codelets
}
criterion_main!(benches);
