//! Experiment: DSL frontend throughput.
//!
//! The paper's pitch is *lightweight* reasoning — the text frontend must
//! not become the bottleneck in the edit-check loop. This experiment
//! parses and lowers the full committed `.narch` corpus repeatedly and
//! reports tokenize/parse-only and parse+lower throughput, then checks
//! that the lowered catalog is at the paper's scale (§5.1: over fifty
//! systems, about 200 hardware specs).

use netarch_bench::section;
use netarch_corpus::narch::SOURCES;
use netarch_dsl::Loader;

fn main() {
    section("DSL frontend: parse + lower throughput over the committed corpus");

    let total_bytes: usize = SOURCES.iter().map(|(_, text)| text.len()).sum();
    let total_lines: usize =
        SOURCES.iter().map(|(_, text)| text.lines().count()).sum();
    println!(
        "  corpus: {} files, {} lines, {:.1} KiB\n",
        SOURCES.len(),
        total_lines,
        total_bytes as f64 / 1024.0
    );

    const ITERS: u32 = 20;

    // Parse only: text -> block tree, no lowering.
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        for (name, text) in SOURCES {
            let doc = netarch_rt::text::parse(text)
                .unwrap_or_else(|e| panic!("{name} must parse: {e}"));
            assert!(!doc.blocks.is_empty(), "{name} is empty");
        }
    }
    let parse_time = t0.elapsed() / ITERS;

    // Full load: parse + lower + two-phase catalog registration.
    let t1 = std::time::Instant::now();
    let mut doc = None;
    for _ in 0..ITERS {
        let mut loader = Loader::new();
        for (name, text) in SOURCES {
            loader.add_source(name, text).expect("corpus parses");
        }
        doc = Some(loader.finish().expect("corpus lowers"));
    }
    let load_time = t1.elapsed() / ITERS;
    let doc = doc.expect("at least one iteration ran");

    let mib = total_bytes as f64 / (1024.0 * 1024.0);
    let parse_ms = parse_time.as_secs_f64() * 1e3;
    let load_ms = load_time.as_secs_f64() * 1e3;
    let parse_mib_s = mib / parse_time.as_secs_f64();
    let load_mib_s = mib / load_time.as_secs_f64();
    println!("  parse only        {parse_ms:>8.2} ms   {parse_mib_s:>8.1} MiB/s");
    println!("  parse + lower     {load_ms:>8.2} ms   {load_mib_s:>8.1} MiB/s");

    // The lowered catalog must be the real corpus, not a fragment.
    assert!(doc.catalog.num_systems() > 50, "got {} systems", doc.catalog.num_systems());
    assert!(doc.catalog.num_hardware() >= 180, "got {} hardware", doc.catalog.num_hardware());
    assert!(doc.scenario.is_some(), "case study scenario present");

    let summary = netarch_rt::jobj! {
        "experiment": "parse",
        "files": SOURCES.len(),
        "lines": total_lines,
        "bytes": total_bytes,
        "parse_ms": parse_ms,
        "load_ms": load_ms,
        "parse_mib_per_s": parse_mib_s,
        "load_mib_per_s": load_mib_s,
        "systems": doc.catalog.num_systems(),
        "hardware": doc.catalog.num_hardware(),
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result("parse", &summary);

    assert!(
        load_ms < 1000.0,
        "loading the corpus took {load_ms:.0} ms; the frontend is not lightweight"
    );
    println!("\nPASS: full corpus loads from text well under a second.");
}
