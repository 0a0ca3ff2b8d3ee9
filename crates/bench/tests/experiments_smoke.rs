//! Smoke tests: every experiment binary must run to completion (each
//! carries its own internal assertions and exits non-zero on failure).
//! The slowest experiments (downstream, extraction sweeps) are exercised
//! by their own unit/integration tests and excluded here to keep the
//! suite fast in debug builds.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn run(binary: &str) -> (bool, String) {
    // Keep smoke runs from rewriting the committed BENCH_*.json trajectory
    // files; only deliberate top-level runs update those. Each run gets its
    // own directory, because tests on parallel threads may run the same
    // binary (and so write the same BENCH_<area>.json) at once.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netarch-exp-smoke-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let output = Command::new(binary)
        .env("NETARCH_BENCH_DIR", &dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    (
        output.status.success(),
        format!(
            "{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        ),
    )
}

macro_rules! smoke {
    ($name:ident, $env:literal, $marker:literal) => {
        #[test]
        fn $name() {
            let (ok, output) = run(env!($env));
            assert!(ok, "experiment failed:\n{output}");
            assert!(output.contains($marker), "missing marker in:\n{output}");
        }
    };
}

smoke!(fig1, "CARGO_BIN_EXE_exp_fig1", "6/6 paper-stated edges reproduced");
smoke!(listing1, "CARGO_BIN_EXE_exp_listing1", "100% field accuracy");
smoke!(listing2, "CARGO_BIN_EXE_exp_listing2", "Listing 2 encoding expressed and enforced");
smoke!(pfc, "CARGO_BIN_EXE_exp_pfc", "caught and repaired");
smoke!(checking, "CARGO_BIN_EXE_exp_checking", "existence checks easy");
smoke!(case_study, "CARGO_BIN_EXE_exp_case_study", "case study reproduced end-to-end");
smoke!(queries, "CARGO_BIN_EXE_exp_queries", "all three §5.1 queries answered");
smoke!(reasoners, "CARGO_BIN_EXE_exp_reasoners", "engine exact");
smoke!(explain, "CARGO_BIN_EXE_exp_explain", "explainability and modularity extensions");
smoke!(capacity, "CARGO_BIN_EXE_exp_capacity", "fleet-sizing queries exactly");
smoke!(measure, "CARGO_BIN_EXE_exp_measure", "measurement-triage workflow");
smoke!(scaling, "CARGO_BIN_EXE_exp_scaling", "spec growth linear");
smoke!(
    incremental,
    "CARGO_BIN_EXE_exp_incremental",
    "one solver session serves the whole query stream"
);

/// The scaling experiment's machine-readable summary must be valid JSON
/// that parses back through the runtime's own parser.
#[test]
fn scaling_emits_parseable_json_summary() {
    let (ok, output) = run(env!("CARGO_BIN_EXE_exp_scaling"));
    assert!(ok, "experiment failed:\n{output}");
    let line = output
        .lines()
        .find_map(|l| l.strip_prefix("RESULT_JSON: "))
        .expect("RESULT_JSON line present");
    let value: netarch_rt::Json = netarch_rt::json::from_str(line).expect("valid JSON");
    assert_eq!(value["experiment"].as_str(), Some("scaling"));
    assert!(value["marginal_spec_units_per_system"].as_f64().unwrap() < 20.0);
    let rows = value["rows"].as_array().expect("rows array");
    assert_eq!(rows.len(), 7);
    for row in rows {
        assert!(row["systems"].is_u64());
        assert!(row["spec_units"].is_u64());
        assert!(row["clauses"].is_u64());
    }
}
