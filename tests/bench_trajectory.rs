//! The committed BENCH_*.json files are the repo's perf trajectory: each
//! experiment bin rewrites its own file on a full run, and commits carry
//! the numbers forward. These tests keep the files parseable and honest —
//! a hand-edited or truncated file fails here, not at analysis time.

use netarch::rt::Json;

fn load(area: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("BENCH_{area}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
    netarch::rt::json::from_str::<Json>(&text)
        .unwrap_or_else(|e| panic!("{} must parse as JSON: {e}", path.display()))
}

#[test]
fn every_trajectory_file_names_its_experiment() {
    for area in ["scaling", "incremental", "parse", "serve", "sweep"] {
        let v = load(area);
        assert_eq!(
            v.get("experiment").and_then(Json::as_str),
            Some(area),
            "BENCH_{area}.json must carry experiment = {area:?}"
        );
    }
}

#[test]
fn serve_trajectory_comes_from_a_clean_full_run() {
    let v = load("serve");
    assert_eq!(
        v.get("smoke").and_then(Json::as_bool),
        Some(false),
        "only full (non --smoke) serving runs may update the trajectory"
    );
    assert_eq!(
        v.get("disagreements").and_then(Json::as_u64),
        Some(0),
        "the committed serving run must agree with the fresh-engine oracle"
    );
}

#[test]
fn parse_trajectory_reflects_corpus_scale() {
    let v = load("parse");
    let systems = v
        .get("systems")
        .and_then(Json::as_f64)
        .expect("systems must be a number");
    assert!(systems > 50.0, "systems = {systems}");
}
