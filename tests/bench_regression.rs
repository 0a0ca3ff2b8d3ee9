//! Bench-trajectory regression gate.
//!
//! The committed `BENCH_*.json` files carry the performance numbers of
//! the last full experiment runs; this gate compares a *candidate* run
//! (CI re-running the benches into a scratch directory) against them and
//! fails when a time metric regresses by more than a configurable
//! factor.
//!
//! Two kinds of check, because not every candidate is comparable:
//!
//! * **Timed metrics** — `incremental/session_ms` and `parse/load_ms`.
//!   CI reruns these workloads at full fidelity (identical query streams
//!   and corpus), so candidate-vs-committed wall time is meaningful.
//!   The candidate must stay within `factor ×` the committed value
//!   (default 2×, override with `NETARCH_BENCH_REGRESSION_FACTOR`).
//! * **Self-bounded metrics** — `portfolio/median_speedup`,
//!   `serve/warm_over_cold`, and `parallel_queries/descent_speedup`.
//!   CI runs these in `--smoke` shape, whose absolute numbers are not
//!   comparable to the committed full runs; instead the gate holds the
//!   candidate to the bound it recorded for itself and to zero verdict
//!   disagreements, so a silently edited or truncated candidate cannot
//!   pass.
//!
//! Without `NETARCH_BENCH_CANDIDATE` the gate only shape-checks the
//! committed metrics. To refresh the committed numbers after an
//! intentional perf change (`--update` path): rerun the full bins at the
//! repo root — `cargo run --release -p netarch-bench --bin exp_<area>`
//! rewrites `BENCH_<area>.json` in place — and commit the diff.

use netarch::rt::Json;
use std::path::Path;

fn load_from(dir: &Path, area: &str) -> Json {
    let path = dir.join(format!("BENCH_{area}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must exist: {e}", path.display()));
    netarch::rt::json::from_str::<Json>(&text)
        .unwrap_or_else(|e| panic!("{} must parse as JSON: {e}", path.display()))
}

fn committed(area: &str) -> Json {
    load_from(Path::new(env!("CARGO_MANIFEST_DIR")), area)
}

fn metric(json: &Json, area: &str, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("BENCH_{area}.json must carry a numeric '{key}'"))
}

fn regression_factor() -> f64 {
    let factor = std::env::var("NETARCH_BENCH_REGRESSION_FACTOR")
        .ok()
        .map(|v| v.parse::<f64>().unwrap_or_else(|_| panic!("bad factor: {v}")))
        .unwrap_or(2.0);
    assert!(factor >= 1.0, "a regression factor below 1.0 rejects identical runs");
    factor
}

/// `(area, key)` pairs where CI reruns the identical full workload, so
/// candidate wall time may be compared to the committed wall time.
const TIMED_METRICS: [(&str, &str); 2] =
    [("incremental", "session_ms"), ("parse", "load_ms")];

#[test]
fn committed_trajectory_metrics_are_sane() {
    for (area, key) in TIMED_METRICS {
        let value = metric(&committed(area), area, key);
        assert!(value > 0.0, "committed {area}/{key} = {value}");
    }
    let portfolio = committed("portfolio");
    assert!(
        metric(&portfolio, "portfolio", "median_speedup")
            >= metric(&portfolio, "portfolio", "bound"),
        "committed portfolio run is below its own bound"
    );
    let serve = committed("serve");
    assert!(
        metric(&serve, "serve", "warm_over_cold") >= metric(&serve, "serve", "bound"),
        "committed serving run is below its own warm-over-cold bound"
    );
    assert_eq!(
        serve.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "committed serving run recorded oracle disagreements"
    );
    let parallel = committed("parallel_queries");
    assert_eq!(
        parallel.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "committed parallel-queries run disagreed with the sequential oracle"
    );
    assert!(
        metric(&parallel, "parallel_queries", "descent_speedup")
            >= metric(&parallel, "parallel_queries", "bound"),
        "committed parallel-queries run has its descent speedup below its own bound"
    );
    assert_eq!(
        parallel.get("smoke").and_then(Json::as_bool),
        Some(false),
        "committed parallel-queries numbers must come from a full run"
    );
    let sweep = committed("sweep");
    assert_eq!(
        sweep.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "committed sweep run recorded a differential disagreement"
    );
    assert!(
        sweep.get("admissible").and_then(Json::as_u64).unwrap_or(0) >= 500,
        "committed sweep run enumerated fewer than 500 admissible variants"
    );
    assert_eq!(
        sweep.get("threads_identical").and_then(Json::as_bool),
        Some(true),
        "committed sweep stream was not identical across NETARCH_THREADS settings"
    );
    assert_eq!(
        sweep.get("smoke").and_then(Json::as_bool),
        Some(false),
        "committed sweep numbers must come from a full run"
    );
}

#[test]
fn candidate_run_does_not_regress() {
    let Ok(dir) = std::env::var("NETARCH_BENCH_CANDIDATE") else {
        // Not a gated run (plain `cargo test`): nothing to compare.
        eprintln!("NETARCH_BENCH_CANDIDATE unset; skipping regression comparison");
        return;
    };
    let dir = Path::new(&dir);
    let factor = regression_factor();

    for (area, key) in TIMED_METRICS {
        let old = metric(&committed(area), area, key);
        let new = metric(&load_from(dir, area), area, key);
        assert!(
            new <= old * factor,
            "{area}/{key} regressed: {new:.2} vs committed {old:.2} \
             (allowed ≤ {factor}×). If intentional, rerun the full bench at \
             the repo root to update BENCH_{area}.json."
        );
    }

    let portfolio = load_from(dir, "portfolio");
    assert_eq!(
        portfolio.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "candidate portfolio run disagreed with the sequential oracle"
    );
    assert!(
        metric(&portfolio, "portfolio", "median_speedup")
            >= metric(&portfolio, "portfolio", "bound"),
        "candidate portfolio speedup fell below its own bound"
    );

    let serve = load_from(dir, "serve");
    assert_eq!(
        serve.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "candidate serving run disagreed with the fresh-engine oracle"
    );
    assert_eq!(
        serve.get("errors").and_then(Json::as_u64),
        Some(0),
        "candidate serving run answered requests with errors"
    );
    assert!(
        metric(&serve, "serve", "warm_over_cold") >= metric(&serve, "serve", "bound"),
        "candidate warm-over-cold fell below its own bound"
    );

    // Smoke-shaped candidate: speedups on toy shapes are not comparable to
    // the committed full run, but correctness is unconditional — any
    // parallel-vs-sequential disagreement fails the gate.
    let parallel = load_from(dir, "parallel_queries");
    assert_eq!(
        parallel.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "candidate parallel-queries run disagreed with the sequential oracle"
    );

    // Sweep candidate runs in --smoke shape (24 variants), so the ≥500
    // floor applies only to the committed full run; determinism and
    // agreement are unconditional.
    let sweep = load_from(dir, "sweep");
    assert_eq!(
        sweep.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "candidate sweep run disagreed with the fresh-engine oracle"
    );
    assert_eq!(
        sweep.get("threads_identical").and_then(Json::as_bool),
        Some(true),
        "candidate sweep stream differed across NETARCH_THREADS settings"
    );
}
