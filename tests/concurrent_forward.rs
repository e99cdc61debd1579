//! Concurrent callers on one parallel transform: `SpiralFft` is `Sync`,
//! so several threads may call `forward` on the same instance. The
//! executor serializes them; every output must be the transform of that
//! caller's own input.

use spiral_fft::spl::builder::dft;
use spiral_fft::spl::cplx::{assert_slices_close, Cplx};
use spiral_fft::SpiralFft;

const CALLERS: usize = 4;
const CALLS: usize = 2000;

fn input(n: usize, seed: usize) -> Vec<Cplx> {
    (0..n)
        .map(|k| {
            let t = (k * (seed + 3)) as f64;
            Cplx::new((t * 0.37).sin(), (t * 0.11).cos() + seed as f64)
        })
        .collect()
}

#[test]
fn concurrent_forward_calls_on_one_fft_are_all_correct() {
    let n = 1024;
    let fft = SpiralFft::parallel(n, 2, 4).unwrap();
    // Each caller has its own input, so output from a mixed-up run
    // cannot pass for the right one.
    let inputs: Vec<Vec<Cplx>> = (0..CALLERS).map(|c| input(n, c)).collect();
    let wanted: Vec<Vec<Cplx>> = inputs.iter().map(|x| fft.forward(x)).collect();
    for (x, want) in inputs.iter().zip(&wanted) {
        assert_slices_close(want, &dft(n).eval(x), 1e-8 * n as f64);
    }
    std::thread::scope(|s| {
        for (c, (x, want)) in inputs.iter().zip(&wanted).enumerate() {
            let fft = &fft;
            s.spawn(move || {
                for call in 0..CALLS {
                    assert!(
                        fft.forward(x) == *want,
                        "caller {c}, call {call}: output differs"
                    );
                }
            });
        }
    });
}
