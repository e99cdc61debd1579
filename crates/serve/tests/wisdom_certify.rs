//! Wisdom entries are untrusted input: loading re-certifies each one
//! against the exact cyclotomic model of `DFT_n`, and a plan that
//! parses, lowers, and schedules cleanly but computes the *wrong
//! matrix* is rejected with a localized certifier verdict. The verdict
//! strings are an interchange surface (they land in logs and load
//! reports), so their shape is pinned as a golden snapshot under
//! `results/`. Regenerate with `UPDATE_GOLDEN=1 cargo test -p
//! spiral-serve --test wisdom_certify`.

use spiral_serve::{compile_entry, WisdomEntry};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/certify_reasons.golden")
}

/// A formula that is well-formed, 16-dimensional, lowers to a
/// dataflow-clean plan — and is **not** `DFT_16`: the Cooley–Tukey
/// twiddle diagonal `T^16_4` is missing. Only the exact symbolic pass
/// can tell.
fn wrong_matrix_entry() -> WisdomEntry {
    WisdomEntry {
        n: 16,
        threads: 1,
        mu: 1,
        plan_threads: 1,
        formula: "(DFT_4 @ I_4) * (I_4 @ DFT_4) * L^16_4".to_string(),
        choice: "test".to_string(),
        cost: 100.0,
        vec_width: 1,
    }
}

#[test]
fn wrong_matrix_entry_rejected_with_certifier_verdict() {
    let reason = compile_entry(&wrong_matrix_entry()).expect_err("must be rejected");
    assert!(
        reason.contains("certification rejected"),
        "reason names the gate: {reason}"
    );
    assert!(
        reason.contains("symbolic pass"),
        "reason names the failing pass: {reason}"
    );
    assert!(
        reason.contains("DFT_16"),
        "reason names the transform it fails to equal: {reason}"
    );
}

#[test]
fn correct_entry_passes_certification() {
    let entry = WisdomEntry {
        formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
        ..wrong_matrix_entry()
    };
    compile_entry(&entry).expect("the true DFT_16 factorization certifies");
}

/// The rejection reason is deterministic (exact arithmetic, fixed sweep
/// order), so its exact text is pinned: tooling greps these strings.
/// The golden file is line-keyed (`key: reason`) and shared with the
/// vector-IR rejection reasons pinned by `spiral-verify`'s certify
/// suite; this test owns the `wisdom-wrong-matrix` line.
#[test]
fn rejection_reason_matches_golden_snapshot() {
    let got = compile_entry(&wrong_matrix_entry()).expect_err("must be rejected");
    let path = golden_path();
    let key = "wisdom-wrong-matrix";
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let mut lines: Vec<String> = existing
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with(&format!("{key}: ")))
            .map(str::to_string)
            .collect();
        lines.push(format!("{key}: {got}"));
        lines.sort();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden snapshot");
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        ),
    };
    let line = want
        .lines()
        .find(|l| l.starts_with(&format!("{key}: ")))
        .unwrap_or_else(|| panic!("no `{key}:` line in {}", path.display()));
    assert_eq!(
        line,
        format!("{key}: {got}"),
        "certifier verdict strings drifted from results/certify_reasons.golden.\n\
         If intentional: regenerate with UPDATE_GOLDEN=1."
    );
}
