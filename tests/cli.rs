//! End-to-end tests of the `netarch` CLI binary: scenario JSON round-trip
//! through a temp file, every subcommand, and error handling.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn netarch(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_netarch"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

/// A temp path no other test (or other call in the same test) shares:
/// tests run on parallel threads of one process, so the process id alone
/// would let one test delete a file a sibling is still reading.
fn temp_path(test: &str, name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("netarch-{test}-{}-{n}-{name}", std::process::id()))
}

fn demo_scenario_path(test: &str) -> std::path::PathBuf {
    let (ok, stdout, stderr) = netarch(&["demo"]);
    assert!(ok, "{stderr}");
    let path = temp_path(test, "scenario.json");
    std::fs::write(&path, stdout).expect("write temp scenario");
    path
}

#[test]
fn demo_emits_parseable_scenario_json() {
    let (ok, stdout, _) = netarch(&["demo"]);
    assert!(ok);
    let scenario: netarch::core::scenario::Scenario =
        netarch_rt::json::from_str(&stdout).expect("valid scenario JSON");
    assert_eq!(scenario.workloads.len(), 1);
    assert!(scenario.catalog.num_systems() > 50);
}

#[test]
fn check_reports_feasible_with_a_design() {
    let path = demo_scenario_path("check");
    let (ok, stdout, _) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.starts_with("FEASIBLE"));
    assert!(stdout.contains("load-balancer:"));
}

#[test]
fn capacity_reports_fleet_size() {
    let path = demo_scenario_path("capacity");
    let (ok, stdout, _) = netarch(&["capacity", path.to_str().unwrap(), "512"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("SERVERS NEEDED: 44"), "{stdout}");
}

#[test]
fn compare_answers_listing_2_orderings() {
    let path = demo_scenario_path("compare");
    let p = path.to_str().unwrap().to_string();
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "PINGMESH", "monitoring-quality"]);
    assert!(ok);
    assert!(stdout.contains("Better"), "{stdout}");
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "PINGMESH", "deployment-ease"]);
    assert!(ok);
    assert!(stdout.contains("Worse"), "{stdout}");
    // Dimensions also read as `.narch` files spell them.
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "PINGMESH", "monitoring_quality"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "SIMON vs PINGMESH on monitoring-quality: Better");
    // A name that is no dimension is an error, not an empty custom one.
    let (ok, _, stderr) = netarch(&["compare", &p, "SIMON", "PINGMESH", "monitoring"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dimension \"monitoring\""), "{stderr}");
    // A system is equal to itself.
    let (ok, stdout, _) = netarch(&["compare", &p, "SIMON", "SIMON", "monitoring_quality"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "SIMON vs SIMON on monitoring-quality: Equal");
    let (ok, stdout, _) = netarch(&["compare", &p, "SHENANGO", "DEMIKERNEL", "isolation"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("Incomparable"), "{stdout}");
}

#[test]
fn enumerate_lists_classes() {
    let path = demo_scenario_path("enumerate");
    let (ok, stdout, _) = netarch(&["enumerate", path.to_str().unwrap(), "3"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert!(stdout.contains("3 equivalence classes"), "{stdout}");
    assert!(stdout.contains("class 1:"));
}

#[test]
fn export_catalog_roundtrips() {
    let (ok, stdout, _) = netarch(&["export-catalog"]);
    assert!(ok);
    let catalog: netarch::core::catalog::Catalog =
        netarch_rt::json::from_str(&stdout).expect("valid catalog JSON");
    assert!(catalog.num_systems() > 50);
    assert!(catalog.num_hardware() >= 180);
}

#[test]
fn a_reader_that_closes_stdout_early_is_not_a_panic() {
    use std::io::BufRead;
    // The catalog JSON is larger than a pipe buffer, so the write is still
    // in flight when the reader hangs up after one line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_netarch"))
        .arg("export-catalog")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut first)
        .expect("reads a line");
    assert_eq!(first.trim(), "{");
    let output = child.wait_with_output().expect("exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(output.status.code(), Some(101), "{stderr}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (ok, _, stderr) = netarch(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    let (ok, _, stderr) = netarch(&[]);
    assert!(!ok);
    assert!(stderr.contains("no command given"), "{stderr}");

    let (ok, _, stderr) = netarch(&["check", "/nonexistent/path.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

// ---------------------------------------------------------------------------
// .narch frontend: format detection, load/validate/fmt, parity with JSON
// ---------------------------------------------------------------------------

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn corpus_narch_paths() -> Vec<String> {
    let mut paths = Vec::new();
    for dir in ["corpus/systems", "corpus/hardware"] {
        for entry in std::fs::read_dir(repo_path(dir)).expect("corpus dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "narch") {
                paths.push(path.to_str().unwrap().to_string());
            }
        }
    }
    paths.push(repo_path("corpus/orderings.narch"));
    paths.push(repo_path("corpus/case_study.narch"));
    paths
}

#[test]
fn check_accepts_narch_scenario_files() {
    let (ok, stdout, stderr) = netarch(&["check", &repo_path("examples/minimal.narch")]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("FEASIBLE"), "{stdout}");
    assert!(stdout.contains("SIMON"), "{stdout}");
}

/// The tentpole acceptance criterion: a `.narch` scenario and its JSON
/// equivalent produce byte-identical answers.
#[test]
fn narch_and_json_scenarios_answer_identically() {
    let json_path = demo_scenario_path("narch_and_json");
    let (ok, narch_text, stderr) = netarch(&["demo", "--narch"]);
    assert!(ok, "{stderr}");
    let narch_path = temp_path("narch_and_json", "scenario.narch");
    std::fs::write(&narch_path, narch_text).unwrap();

    let from_json = netarch(&["check", json_path.to_str().unwrap()]);
    let from_narch = netarch(&["check", narch_path.to_str().unwrap()]);
    assert!(from_json.0 && from_narch.0);
    assert_eq!(from_json.1, from_narch.1, "check answers diverge across formats");

    let from_json = netarch(&["optimize", json_path.to_str().unwrap()]);
    let from_narch = netarch(&["optimize", narch_path.to_str().unwrap()]);
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&narch_path).ok();
    assert!(from_json.0 && from_narch.0);
    assert_eq!(from_json.1, from_narch.1, "optimize answers diverge across formats");
}

#[test]
fn format_detection_sniffs_content_without_extension() {
    // A JSON scenario under a neutral extension still loads.
    let (_, json_text, _) = netarch(&["demo"]);
    let path = temp_path("sniff", "scenario.tmp");
    std::fs::write(&path, json_text).unwrap();
    let (ok, stdout, stderr) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("FEASIBLE"));

    // Malformed JSON gets the format hint.
    let path = temp_path("sniff", "malformed.json");
    std::fs::write(&path, "{ not json").unwrap();
    let (ok, _, stderr) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

/// `compare`, like every query command, takes a scenario split across
/// files: here the committed corpus.
#[test]
fn compare_reads_the_split_corpus() {
    let files = corpus_narch_paths();
    for (dim, want) in [("monitoring-quality", "Better"), ("deployment-ease", "Worse")] {
        let mut args: Vec<&str> = vec!["compare"];
        args.extend(files.iter().map(String::as_str));
        args.extend(["SIMON", "PINGMESH", dim]);
        let (ok, stdout, stderr) = netarch(&args);
        assert!(ok, "{stderr}");
        assert_eq!(stdout.trim(), format!("SIMON vs PINGMESH on {dim}: {want}"));
    }
}

/// The corpus with the case study's NIC slot listing one model twice, and
/// the edited case study's temp path.
fn repeated_candidate_corpus(test: &str) -> (Vec<String>, std::path::PathBuf) {
    let mut files = corpus_narch_paths();
    let case_study = files.pop().expect("the case study comes last");
    let text = std::fs::read_to_string(&case_study).expect("read the case study");
    let nics = text
        .lines()
        .find(|line| line.trim_start().starts_with("nics = "))
        .expect("the case study lists NIC candidates");
    let edited = text.replace(nics, "    nics = [MLX_CX5_100, MLX_CX5_100]");
    let path = temp_path(test, "case_study.narch");
    std::fs::write(&path, edited).unwrap();
    files.push(path.to_str().unwrap().to_string());
    (files, path)
}

/// `compare` reads only the catalog's order in the scenario's context, so
/// a scenario error elsewhere, which `check` rejects, does not block it.
#[test]
fn compare_answers_without_compiling_the_scenario() {
    let (files, path) = repeated_candidate_corpus("compare_repeated");
    let mut args: Vec<&str> = vec!["compare"];
    args.extend(files.iter().map(String::as_str));
    args.extend(["SIMON", "PINGMESH", "monitoring_quality"]);
    let (ok, stdout, stderr) = netarch(&args);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "SIMON vs PINGMESH on monitoring-quality: Better");
}

/// A system the catalog lacks is named, not compared as `Incomparable`.
#[test]
fn compare_names_a_system_the_catalog_lacks() {
    let path = demo_scenario_path("compare_unknown");
    let p = path.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = netarch(&["compare", &p, "SIMON", "GHOST", "monitoring_quality"]);
    let (first_ok, _, first_stderr) =
        netarch(&["compare", &p, "GHOST", "SIMON", "monitoring_quality"]);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "{stdout}");
    assert_eq!(stderr, "error: unknown system GHOST\n");
    assert!(!first_ok);
    assert_eq!(first_stderr, "error: unknown system GHOST\n");
}

/// A model listed twice in an inventory slot is an input error that names
/// the model, not an infeasible scenario blamed on `hw:nic`.
#[test]
fn a_repeated_inventory_candidate_is_named() {
    let (files, path) = repeated_candidate_corpus("repeated_candidate");
    let args: Vec<&str> = std::iter::once("check").chain(files.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "{stdout}");
    assert!(!stdout.contains("INFEASIBLE"), "{stdout}");
    assert!(stderr.contains("MLX_CX5_100"), "{stderr}");
    assert!(stderr.contains("more than once"), "{stderr}");
}

#[test]
fn load_merges_the_split_corpus_and_summarizes() {
    let paths = corpus_narch_paths();
    let args: Vec<&str> =
        std::iter::once("load").chain(paths.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("hardware models"), "{stdout}");
    assert!(stdout.contains("queries: check, optimize"), "{stdout}");
}

#[test]
fn validate_passes_corpus_and_catches_dangling_references() {
    let paths = corpus_narch_paths();
    let args: Vec<&str> =
        std::iter::once("validate").chain(paths.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("OK"), "{stdout}");

    let path = temp_path("dangling", "catalog.narch");
    std::fs::write(
        &path,
        "system \"A\" { category = transport  conflicts = [GHOST] }",
    )
    .unwrap();
    let (ok, _, stderr) = netarch(&["validate", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("dangling"), "{stderr}");
}

/// `examples/minimal.narch` plus an edge ranking SIMON above itself.
fn self_edge_scenario(test: &str) -> std::path::PathBuf {
    let text = std::fs::read_to_string(repo_path("examples/minimal.narch")).unwrap();
    let edge = "ordering {\n  better = SIMON\n  worse = SIMON\n  \
                dimension = monitoring_quality\n}\n";
    let path = temp_path(test, "self_edge.narch");
    std::fs::write(&path, format!("{text}\n{edge}")).unwrap();
    path
}

/// A system ranked strictly above itself is a preference cycle, and a
/// scenario error prints its `error:` line alone, without the usage text.
#[test]
fn a_strict_self_edge_is_a_preference_cycle() {
    let path = self_edge_scenario("self_edge");
    let (ok, stdout, stderr) = netarch(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "{stdout}");
    assert_eq!(
        stderr,
        "error: preference order has a strict cycle involving SIMON\n"
    );
}

/// `validate` runs compile's checks on a document's scenario, so what
/// `check` rejects as input fails validation too.
#[test]
fn validate_rejects_what_compile_rejects() {
    let path = self_edge_scenario("validate_self_edge");
    let (ok, stdout, stderr) = netarch(&["validate", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("strict cycle involving SIMON"), "{stderr}");

    let (files, path) = repeated_candidate_corpus("validate_repeated");
    let args: Vec<&str> =
        std::iter::once("validate").chain(files.iter().map(String::as_str)).collect();
    let (ok, stdout, stderr) = netarch(&args);
    std::fs::remove_file(&path).ok();
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("MLX_CX5_100"), "{stderr}");
    assert!(stderr.contains("more than once"), "{stderr}");
}

#[test]
fn fmt_is_canonical_and_idempotent() {
    let (ok, once, stderr) = netarch(&["fmt", &repo_path("examples/minimal.narch")]);
    assert!(ok, "{stderr}");
    let path = temp_path("fmt", "minimal.narch");
    std::fs::write(&path, &once).unwrap();
    let (ok, twice, _) = netarch(&["fmt", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    assert_eq!(once, twice, "fmt is not idempotent");

    // fmt refuses JSON input.
    let json_path = demo_scenario_path("fmt");
    let (ok, _, stderr) = netarch(&["fmt", json_path.to_str().unwrap()]);
    std::fs::remove_file(&json_path).ok();
    assert!(!ok);
    assert!(stderr.contains("formats DSL text only"), "{stderr}");
}

/// Golden spanned-error test: a syntax error reports `file:line:col` and
/// the offending detail, and exits nonzero.
#[test]
fn narch_errors_carry_file_line_and_column() {
    let path = temp_path("err", "bad.narch");
    // Column 14 on line 2: `category` misspelled.
    std::fs::write(
        &path,
        "system \"X\" {\n  categorie = monitoring\n}\n",
    )
    .unwrap();
    let (ok, _, stderr) = netarch(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    let expected = format!("{}:2:3: unknown attribute `categorie`", path.display());
    assert!(stderr.contains(&expected), "missing spanned diagnostic; got:\n{stderr}");

    // Lexer-level error, different position.
    std::fs::write(&path, "system \"X\" {\n  cost_usd = @\n}\n").unwrap();
    let (ok, _, stderr) = netarch(&["fmt", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains(":2:14"), "missing lexer span; got:\n{stderr}");
}

#[test]
fn json_flag_emits_machine_readable_designs() {
    let path = demo_scenario_path("json_flag");
    let p = path.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = netarch(&["check", &p, "--json"]);
    assert!(ok, "{stderr}");
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    use netarch_rt::json::FromJson;
    let design = netarch::core::solution::Design::from_json(&value["design"])
        .expect("valid design JSON");
    assert!(!design.selections.is_empty());
    // Solver/session counters ride along with every design verdict.
    assert!(value["stats"]["session_solves"].as_u64().unwrap_or(0) >= 1);
    assert!(value["stats"]["conflicts"].as_u64().is_some());

    let (ok, stdout, _) = netarch(&["capacity", &p, "512", "--json"]);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["servers_needed"].as_u64(), Some(44));
    assert!(value["design"]["hardware"]["Server"].is_string());
    assert!(value["stats"]["session_solves"].as_u64().unwrap_or(0) >= 1);
}

// ---------------------------------------------------------------------------
// sweep: deterministic variant streams from the examples/sweep.narch spec
// ---------------------------------------------------------------------------

#[test]
fn sweep_smoke_manifest_is_deterministic() {
    let spec = repo_path("examples/sweep.narch");
    let (ok, first, stderr) = netarch(&["sweep", &spec, "--smoke"]);
    assert!(ok, "{stderr}");
    assert!(first.contains("variants=30"), "{first}");
    assert!(first.contains("admissible=30"), "{first}");
    assert!(first.contains("digest="), "{first}");
    let (ok, second, _) = netarch(&["sweep", &spec, "--smoke"]);
    assert!(ok);
    assert_eq!(first, second, "sweep manifest must be reproducible");
}

#[test]
fn sweep_export_writes_checkable_variants() {
    let spec = repo_path("examples/sweep.narch");
    let dir = temp_path("sweep", "variants");
    let (ok, stdout, stderr) = netarch(&["sweep", &spec, "--export", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote 30 variant file(s)"), "{stdout}");
    // Every exported variant is a self-contained scenario the engine loads;
    // the stream mixes feasible and infeasible combinations by design.
    let mut verdicts = std::collections::BTreeSet::new();
    for index in 0..30 {
        let path = dir.join(format!("monitoring_matrix-{index:03}.narch"));
        let (ok, stdout, stderr) = netarch(&["check", path.to_str().unwrap()]);
        assert!(ok, "variant {index}: {stderr}");
        verdicts.insert(stdout.split_whitespace().next().unwrap_or("").to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(verdicts.contains("FEASIBLE"), "{verdicts:?}");
    assert!(verdicts.contains("INFEASIBLE"), "{verdicts:?}");
}

#[test]
fn sweep_json_lists_the_stream() {
    let spec = repo_path("examples/sweep.narch");
    let (ok, stdout, stderr) = netarch(&["sweep", &spec, "--json"]);
    assert!(ok, "{stderr}");
    let value: netarch_rt::Json = netarch_rt::json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value["sweep"].as_str(), Some("monitoring_matrix"));
    assert_eq!(value["admissible"].as_u64(), Some(30));
    assert_eq!(value["variants"].as_array().map(<[_]>::len), Some(30));
    assert!(value["digest"].as_str().is_some_and(|d| d.len() == 32));
}

#[test]
fn sweep_rejects_missing_blocks_and_unknown_names() {
    let (ok, _, stderr) = netarch(&["sweep", &repo_path("examples/minimal.narch")]);
    assert!(!ok);
    assert!(stderr.contains("no sweep block"), "{stderr}");

    let spec = repo_path("examples/sweep.narch");
    let (ok, _, stderr) = netarch(&["sweep", &spec, "--name", "ghost"]);
    assert!(!ok);
    assert!(stderr.contains("no sweep named"), "{stderr}");
    assert!(stderr.contains("monitoring_matrix"), "{stderr}");
}
