//! Golden test: the serialized `BenchHistory` layout is frozen against a
//! snapshot under `results/`. CI's `bench history compare` and external
//! dashboards parse `BENCH_<host>.json` files; accidental field renames
//! must fail loudly here. Intentional changes: bump
//! `BENCH_SCHEMA_VERSION` and regenerate with `UPDATE_GOLDEN=1 cargo
//! test -p spiral-bench --test history_golden`.

use spiral_bench::history::{BenchEntry, BenchHistory, BenchHost, BenchRun, BENCH_SCHEMA_VERSION};
use spiral_smp::topology::HostFingerprint;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_history_schema.json")
}

/// A fully populated, deterministic history exercising every field.
/// Fixed literals, NOT `BenchHost::current()`: the golden must be
/// byte-identical on every machine that runs this test.
fn representative_history() -> BenchHistory {
    let host = BenchHost {
        name: "example-host".to_string(),
        fingerprint: HostFingerprint {
            cores: 4,
            mu: 4,
            cache_line_bytes: 64,
            simd_width: 4,
            process_budget: 2,
            features: vec!["trace".to_string(), "simd4".to_string()],
        },
    };
    BenchHistory {
        schema: BENCH_SCHEMA_VERSION,
        runs: vec![
            BenchRun {
                seq: 1,
                unix_ms: 1_700_000_000_000,
                host: host.clone(),
                entries: vec![BenchEntry {
                    log2n: 12,
                    threads: 2,
                    batch: 1,
                    connections: 1,
                    backend: "scalar".to_string(),
                    plan_kind: "multicore split 64x64".to_string(),
                    reps: 5,
                    median_us: 120.5,
                    mad_us: 2.25,
                    p99_us: 125.0,
                    p999_us: 130.25,
                    gflops: 1.75,
                    gflops_mad: 0.03,
                }],
            },
            BenchRun {
                seq: 2,
                unix_ms: 1_700_000_060_000,
                host,
                entries: vec![
                    BenchEntry {
                        log2n: 12,
                        threads: 2,
                        batch: 1,
                        connections: 1,
                        backend: "scalar".to_string(),
                        plan_kind: "multicore split 64x64".to_string(),
                        reps: 5,
                        median_us: 118.0,
                        mad_us: 1.5,
                        p99_us: 121.0,
                        p999_us: 124.5,
                        gflops: 1.79,
                        gflops_mad: 0.02,
                    },
                    BenchEntry {
                        log2n: 12,
                        threads: 2,
                        batch: 1,
                        connections: 1,
                        backend: "vector".to_string(),
                        plan_kind: "multicore split 64x64 + vec(4)".to_string(),
                        reps: 5,
                        median_us: 95.0,
                        mad_us: 1.2,
                        p99_us: 97.5,
                        p999_us: 101.0,
                        gflops: 2.22,
                        gflops_mad: 0.02,
                    },
                    BenchEntry {
                        log2n: 8,
                        threads: 2,
                        batch: 32,
                        connections: 1,
                        backend: "scalar".to_string(),
                        plan_kind: "batched sequential 2^8".to_string(),
                        reps: 5,
                        median_us: 4.2,
                        mad_us: 0.1,
                        p99_us: 0.0,
                        p999_us: 0.0,
                        gflops: 2.4,
                        gflops_mad: 0.05,
                    },
                    BenchEntry {
                        log2n: 8,
                        threads: 2,
                        batch: 8,
                        connections: 8,
                        backend: "vector".to_string(),
                        plan_kind: "served sequential 2^8".to_string(),
                        reps: 64,
                        median_us: 350.0,
                        mad_us: 12.0,
                        p99_us: 410.0,
                        p999_us: 520.0,
                        gflops: 0.03,
                        gflops_mad: 0.002,
                    },
                ],
            },
        ],
    }
}

#[test]
fn bench_history_json_matches_golden_snapshot() {
    let got = representative_history().to_json();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "BenchHistory JSON layout drifted from {}.\n\
         If intentional: bump BENCH_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

#[test]
fn golden_snapshot_parses_and_validates() {
    let want = representative_history();
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let parsed = BenchHistory::from_json(&s).expect("golden snapshot must parse");
        assert_eq!(parsed, want);
        parsed.validate().expect("golden snapshot must validate");
    }
    // Missing file is reported by the other test; don't fail twice.
}
