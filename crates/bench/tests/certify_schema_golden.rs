//! Golden snapshot of the certification report schema. The report is an
//! interchange surface — CI gates and external tooling parse it — so
//! its JSON shape is pinned under `results/`. If this test fails after
//! an intentional schema change, bump `CERTIFY_SCHEMA_VERSION` and
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p spiral-bench --test
//! certify_schema_golden`.

use spiral_bench::certify::{CertifyReportFile, CertifyRow, CERTIFY_SCHEMA_VERSION};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/certify_schema.json")
}

/// Fixed literals, NOT a live sweep: the golden pins the *shape*, and
/// must be identical regardless of lowering changes.
fn fixture() -> CertifyReportFile {
    CertifyReportFile {
        schema: CERTIFY_SCHEMA_VERSION,
        symbolic_limit: 64,
        total: 2,
        certified: 1,
        rows: vec![
            CertifyRow {
                n: 16,
                threads: 1,
                mu: 1,
                shape: "sequential leaf 4".to_string(),
                dataflow_certified: true,
                symbolic_certified: Some(true),
                findings: vec![],
            },
            CertifyRow {
                n: 32,
                threads: 2,
                mu: 2,
                shape: "multicore default split, fused exchanges".to_string(),
                dataflow_certified: true,
                symbolic_certified: Some(false),
                findings: vec!["symbolic pass, index 1: codelet DAG semantics: \
                     plan(e_1)[1] = 1 ≈ (1.000000+0.000000i), but DFT_32[1,1] = ω_32^1 \
                     — plan is not DFT_32"
                    .to_string()],
            },
        ],
    }
}

#[test]
fn certify_json_matches_golden_snapshot() {
    let got = serde_json::to_string_pretty(&fixture()).unwrap();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        ),
    };
    assert_eq!(
        got.trim(),
        want.trim(),
        "certify report schema drifted from results/certify_schema.json.\n\
         If intentional: bump CERTIFY_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1."
    );
}

#[test]
fn golden_snapshot_round_trips() {
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let file: CertifyReportFile = serde_json::from_str(&s).expect("golden parses");
        assert_eq!(file.schema, CERTIFY_SCHEMA_VERSION);
        assert_eq!(file.rows.len(), file.total);
    }
}

/// The live sweep at small sizes certifies everything and serializes
/// through the same schema the golden pins.
#[test]
fn live_sweep_is_fully_certified_and_serializes() {
    let file = spiral_bench::certify::certification_sweep(2, 4, 2);
    assert_eq!(file.certified, file.total);
    assert!(file.total > 0);
    // The sweep must include vector-tagged shapes, and (per the line
    // above) prove 100% of them: the short-vector backend ships only
    // under the same exact certification as the scalar lowering.
    assert!(
        file.rows.iter().any(|r| r.shape.contains("+ vec(")),
        "sweep must cover vec(ν)-tagged plan shapes"
    );
    let json = serde_json::to_string(&file).unwrap();
    let back: CertifyReportFile = serde_json::from_str(&json).unwrap();
    assert_eq!(back.total, file.total);
}

/// The default sweep (`figures certify`: n = 2^2..2^6, p ≤ 4) that
/// produces `results/certify_report.json` covers exactly 89 plan
/// shapes, and proves every one of them.
#[test]
fn default_sweep_covers_exactly_89_shapes() {
    let file = spiral_bench::certify::certification_sweep(2, 6, 4);
    assert_eq!(file.total, 89);
    assert_eq!(file.certified, 89);
}
