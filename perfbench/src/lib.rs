//! perfbench: one command for generated-FFT speed, plan-generation time
//! and SQ01 serving latency, end to end (untraced binary) or split by
//! crate (traced binary). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <seq-sweep|par2-sweep|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir DIR] [--rate RPS]
//!           [--limit-us US]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every output check passed.

mod record;
mod serve_mix;
mod stats;
mod sweep;

use record::{Metrics, Outcome, Tracer};
use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    /// Open-loop offered rate of `serve-mix`, requests per second.
    pub rate: f64,
    /// Latency limit of one SQ01 round trip, µs.
    pub limit_us: f64,
}

const WORKLOADS: [&str; 3] = ["seq-sweep", "par2-sweep", "serve-mix"];

/// End-to-end metrics of the result line (the ones `BENCHMARK.json`
/// bounds), reported by every workload: the set-up time, and the metrics
/// that hold steady when the host's speed changes (ratios measured within
/// one loop, shares and memory).
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("fwd_vs_iterative", "ratio"),
    ("slo_met_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in report order. A metric whose
/// layer or size the workload does not exercise reads 0.
fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for k in 6..=18 {
        v.push((format!("codegen.execute_into_us.n{k}"), "us"));
    }
    for k in 6..=18 {
        v.push((format!("baselines.iterative_us.n{k}"), "us"));
    }
    for (name, unit) in [
        ("smp.par_execute_us", "us"),
        ("smp.barrier_wait_share", "ratio"),
        ("smp.speedup_vs_seq", "ratio"),
    ] {
        for k in 8..=16 {
            v.push((format!("{name}.n{k}"), unit));
        }
    }
    let fixed: [(&str, &'static str); 18] = [
        ("facade.forward_overhead_share", "ratio"),
        ("codegen.flops", "count"),
        ("codegen.vec_flop_share", "ratio"),
        ("codegen.steps", "count"),
        ("smp.barriers", "count"),
        ("search.tune_s", "s"),
        ("search.dp_s", "s"),
        ("search.candidates", "count"),
        ("search.quarantined", "count"),
        ("rewrite.derive_s", "s"),
        ("codegen.lower_s", "s"),
        ("verify.check_s", "s"),
        ("serve.wisdom_open_s", "s"),
        ("serve.tuner_invocations", "count"),
        ("serve.outside_request_us", "us"),
        ("serve.wire_encode_us", "us"),
        ("serve.wire_decode_us", "us"),
        ("codegen.batch_us_per_transform", "us"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for phase in [
        "parse_us",
        "conn_queue_wait_us",
        "exec_queue_wait_us",
        "pool_execute_us",
        "request_us",
    ] {
        for q in ["p50", "p99"] {
            v.push((format!("serve.{phase}.{q}"), "us"));
        }
    }
    for (n, u) in [
        ("serve.requests_per_dispatch", "ratio"),
        ("serve.shed_share", "ratio"),
        ("serve.cache_hit_share", "ratio"),
        ("trace.overhead_share", "ratio"),
        ("bench.residual_share", "ratio"),
        ("bench.gen_lag_p99_us", "us"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--out-dir DIR] [--rate RPS] [--limit-us US]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        rate: 2000.0,
        limit_us: 2000.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let num = |v: &str| -> f64 {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .unwrap_or_else(|| usage(&format!("{flag}: bad value {v}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => {
                a.seed = val
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed: bad value {val}")))
            }
            "--seconds" => a.seconds = num(val),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(val),
            "--rate" => a.rate = num(val),
            "--limit-us" => a.limit_us = num(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload `{}`", a.workload));
    }
    if a.trace && !cfg!(feature = "trace") {
        usage("--trace 1 needs the perfbench-traced binary");
    }
    a
}

/// Entry point of both binaries.
pub fn main() {
    let args = parse_args();
    let _ = std::fs::create_dir_all(&args.out_dir);
    let mut tracer = Tracer::new(args.trace);
    let mut o: Outcome = match args.workload.as_str() {
        "seq-sweep" => sweep::run(&args, false, &mut tracer),
        "par2-sweep" => sweep::run(&args, true, &mut tracer),
        _ => serve_mix::run(&args, &mut tracer),
    };
    tracer.end();
    let ok_share = 1.0 - o.failed as f64 / o.attempted.max(1) as f64;
    o.e2e.set("ok_share", ok_share, "ratio");
    o.e2e.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    if o.failed > 0 {
        o.errors.push(format!(
            "{} of {} outputs failed the check",
            o.failed, o.attempted
        ));
    }
    if o.attempted == 0 {
        o.errors.push("no operation was measured".to_string());
    }

    let tag = format!(
        "{}-{}",
        args.workload,
        if args.trace { "traced" } else { "plain" }
    );
    for diff in record::check_repeat(&args.out_dir, &tag, &o.repeat) {
        o.errors.push(format!(
            "exact values changed between runs of one build: {diff}"
        ));
    }

    // The closed budget of the traced run.
    let (wall, residual) = tracer.budget();
    if args.trace {
        let share = residual / wall.max(1e-12);
        o.layers.set("bench.residual_share", share, "ratio");
        let mut by_crate: std::collections::BTreeMap<&str, f64> = Default::default();
        for (layer, d) in &tracer.layers {
            let krate = layer.split('.').next().unwrap_or(layer);
            *by_crate.entry(krate).or_default() += d.as_secs_f64();
        }
        println!("time budget over {wall:.3} s of traced phases:");
        for (krate, s) in &by_crate {
            println!(
                "  {krate:<10} {s:>9.4} s  {:>6.2}%",
                100.0 * s / wall.max(1e-12)
            );
        }
        println!(
            "  {:<10} {residual:>9.4} s  {:>6.2}%",
            "residual",
            100.0 * share
        );
        let largest = by_crate.values().copied().fold(0.0, f64::max);
        if residual < 0.0 || residual > largest {
            o.warnings.push(format!(
                "residual {residual:.4} s is negative or larger than the largest layer ({largest:.4} s)"
            ));
        }
        let path = args
            .out_dir
            .join(format!("trace-{tag}-seed{}.json", args.seed));
        if std::fs::write(&path, tracer.chrome_trace()).is_ok() {
            println!("spans: {}", path.display());
        }
    }

    // Canonical metric lists: exactly the names in BENCHMARK.json.
    let mut out = Metrics::default();
    if args.trace {
        for (name, unit) in layer_names() {
            let v = o.layers.get(&name);
            out.set(name, v, unit);
        }
    } else {
        for (name, unit) in E2E {
            out.set(name, o.e2e.get(name), unit);
        }
    }
    // All end-to-end measurements; `info` ones move with the host's speed,
    // so they are reported but not bounded.
    for (name, value, unit) in &o.e2e.0 {
        let kind = if E2E.iter().any(|(n, _)| n == name) {
            "e2e "
        } else {
            "info"
        };
        println!("{kind}  {name:<32} {value:>14.6} {unit}");
    }
    if args.trace {
        for (name, value, unit) in &out.0 {
            println!("layer {name:<32} {value:>14.6} {unit}");
        }
    }
    for w in &o.warnings {
        println!("warning: {w}");
    }
    for e in &o.errors {
        println!("error: {e}");
    }

    let correct = o.errors.is_empty();
    let mut fields = vec![
        ("workload".to_string(), record::quote(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), record::num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        ("host".to_string(), record::host_json()),
        ("error_bound_c".to_string(), record::num(stats::ERROR_C)),
        ("correct".to_string(), correct.to_string()),
        ("attempted".to_string(), o.attempted.to_string()),
        ("failed".to_string(), o.failed.to_string()),
        ("e2e".to_string(), o.e2e.json()),
        (
            "repeat".to_string(),
            format!(
                "[{}]",
                o.repeat
                    .iter()
                    .map(|s| record::quote(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "warnings".to_string(),
            format!(
                "[{}]",
                o.warnings
                    .iter()
                    .map(|s| record::quote(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "errors".to_string(),
            format!(
                "[{}]",
                o.errors
                    .iter()
                    .map(|s| record::quote(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    fields.append(&mut o.record);
    if args.trace {
        fields.push(("layers".to_string(), out.json()));
    }
    let name = format!("run-{tag}-seed{}.json", args.seed);
    if let Some(p) = record::write_record(&args.out_dir, &name, &fields) {
        println!("run record: {}", p.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        out.json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
