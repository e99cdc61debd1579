//! Order statistics, a seeded generator, and the output-accuracy check.

use spiral_fft::spl::Cplx;

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(count: usize, q: f64) -> usize {
    count - ((q * count as f64).ceil() as usize).min(count)
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// splitmix64: the benchmark's only randomness, fully determined by the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, k: u64) -> u64 {
        self.next_u64() % k
    }

    /// `n` complex points with both parts uniform in `[-1, 1)`.
    pub fn signal(&mut self, n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|_| Cplx::new(2.0 * self.unit() - 1.0, 2.0 * self.unit() - 1.0))
            .collect()
    }
}

/// The constant `c` of the accuracy bound `c · ε · log2 n`, fixed before
/// any measurement was taken.
pub const ERROR_C: f64 = 16.0;

/// Largest accepted relative L2 error of a size-`n` transform.
pub fn error_bound(n: usize) -> f64 {
    ERROR_C * f64::EPSILON * (n as f64).log2().max(1.0)
}

/// Relative L2 distance `‖y − r‖ / ‖r‖` (infinite on a length mismatch
/// or a non-finite value).
pub fn rel_err(y: &[Cplx], r: &[Cplx]) -> f64 {
    if y.len() != r.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in y.iter().zip(r) {
        num += (*a - *b).norm_sqr();
        den += b.norm_sqr();
    }
    let e = (num / den.max(f64::MIN_POSITIVE)).sqrt();
    if e.is_finite() {
        e
    } else {
        f64::INFINITY
    }
}

/// Whether `y` matches the reference `r` of one size-`n` transform.
pub fn output_ok(y: &[Cplx], r: &[Cplx], n: usize) -> bool {
    rel_err(y, r) <= error_bound(n)
}

/// A plausible wrong answer: `y` with the sign of one imaginary part
/// flipped (the element whose imaginary part is largest).
pub fn corrupted(y: &[Cplx]) -> Vec<Cplx> {
    let mut bad = y.to_vec();
    if let Some(k) = (0..bad.len()).max_by(|&a, &b| bad[a].im.abs().total_cmp(&bad[b].im.abs())) {
        bad[k] = bad[k].conj();
    }
    bad
}

/// The independent reference for one input: the hand-written iterative
/// radix-2 FFT, itself checked against the O(n²) defining sum for
/// n ≤ 2^10. `Err` when the two references disagree.
pub fn reference(n: usize, x: &[Cplx]) -> Result<Vec<Cplx>, String> {
    let r = spiral_fft::baselines::iterative::IterativeFft::new(n).run(x);
    if n <= 1 << 10 {
        let naive = spiral_fft::baselines::naive::NaiveDft::new(n).run(x);
        let e = rel_err(&r, &naive);
        if e > error_bound(n) {
            return Err(format!(
                "reference check: iterative vs naive DFT_{n} relative error {e:e} > {:e}",
                error_bound(n)
            ));
        }
    }
    Ok(r)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
