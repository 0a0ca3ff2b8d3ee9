//! Combinatorial sweep harness: the engine enumerating its own test
//! universe, then testing itself against it.
//!
//! A six-group `sweep` block (optional systems, conflicting systems,
//! NIC alternatives, fleet sizes, a numeric parameter) spans a 540-point
//! universe; a `forbid` constraint prunes the all-roles-empty slice down
//! to 510 admissible variants. The full run demands two things:
//!
//! 1. **Scale** — at least 500 admissible variants survive pruning.
//! 2. **Agreement** — every variant runs its differential tape: a warm
//!    session answers every query kind across budget-bounded query
//!    orderings, and every answer matches a fresh-engine oracle.
//!
//! The stream's digest is recorded in `BENCH_sweep.json`; the enumerator
//! sorts canonically before its seeded shuffle, so a rerun reproduces it.
//!
//! `--smoke` truncates the stream to 24 variants and checks correctness
//! only; the ≥500-variant floor applies to full runs.

use netarch_sweep::{enumerate_sweep, run_differential, DiffOptions, SweepSpec};
use std::time::Instant;

/// The sweep document, in the same `.narch` surface syntax users write.
/// Parsing it here (rather than building the spec in Rust) keeps the
/// bench honest about the full text → lower → compile → enumerate path.
const DOC: &str = r#"
system "SIMON" {
  category = monitoring
  solves   = [detect_queue_length]
  requires "needs-nic-timestamps" { condition = nics.have(NIC_TIMESTAMPS) }
  cost_usd = 300
}

system "SONATA" {
  category  = monitoring
  solves    = [detect_queue_length]
  conflicts = [SIMON]
  cost_usd  = 900
}

system "LB_A" {
  category = load_balancer
  solves   = [load_balancing]
  cost_usd = 200
}

system "LB_B" {
  category = load_balancer
  solves   = [load_balancing]
  cost_usd = 350
}

system "FW" {
  category = firewall
  solves   = [packet_filtering]
  cost_usd = 150
}

hardware "NIC_TS" {
  kind     = nic
  features = [NIC_TIMESTAMPS]
  cost_usd = 600
}

hardware "NIC_PLAIN" {
  kind     = nic
  cost_usd = 100
}

workload "app" {
  needs = [detect_queue_length]
}

scenario {
  params { link_speed_gbps = 100 }
  roles { monitoring = required }
  objectives = [minimize_cost]
  inventory {
    nics        = [NIC_TS, NIC_PLAIN]
    num_servers = 2
  }
}

sweep "grid" {
  seed  = 42
  limit = 600
  choose "mon"   { systems = [SIMON, SONATA] optional = true }
  choose "lb"    { systems = [LB_A, LB_B] optional = true }
  choose "fw"    { systems = [FW] optional = true }
  choose "nic"   { nics = [NIC_TS, NIC_PLAIN] }
  choose "fleet" { num_servers = [1, 2, 4, 8, 16] }
  choose "link"  { param = link_speed_gbps values = [10, 40, 100] }
  forbid = [all(picked(mon, none), picked(lb, none), picked(fw, none))]
}
"#;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    netarch_bench::section(if smoke {
        "Combinatorial sweep (smoke, 24 variants): differential agreement"
    } else {
        "Combinatorial sweep: 500+ variants, differential agreement"
    });

    let doc = netarch_dsl::load_str(DOC).expect("bench sweep document lowers");
    let scenario = doc.require_scenario().expect("has scenario").clone();
    let mut spec: SweepSpec = doc.sweeps.into_iter().next().expect("has sweep");
    if smoke {
        spec.limit = 24;
    }

    let start = Instant::now();
    let stream = enumerate_sweep(&spec, &scenario.catalog).expect("enumerates");
    println!(
        "  {} variants of {} admissible in {:.1}ms, digest {}",
        stream.variants.len(),
        stream.admissible,
        start.elapsed().as_secs_f64() * 1e3,
        stream.digest_hex(),
    );
    let variants = stream.variants.len();
    let admissible = stream.admissible;

    // --- differential fan-out ----------------------------------------------
    let opts = DiffOptions::default();
    let start = Instant::now();
    let report = run_differential(&spec, &scenario, &stream, &opts).expect("engines compile");
    let diff_elapsed = start.elapsed().as_secs_f64();
    let disagreements = usize::from(report.disagreement.is_some());
    if let Some(d) = &report.disagreement {
        eprintln!("DISAGREEMENT: {d}");
    }

    println!("\n  admissible variants         {admissible:>8}");
    println!("  stream length               {variants:>8}");
    println!("  query orderings walked      {:>8}", report.orderings);
    println!("  session queries checked     {:>8}", report.queries);
    println!("  warm sessions built         {:>8}", report.sessions);
    println!("  differential wall time      {:>7.2}s", diff_elapsed);
    println!("  disagreements               {disagreements:>8}");

    let summary = netarch_rt::jobj! {
        "experiment": "sweep",
        "smoke": smoke,
        "variants": variants,
        "admissible": admissible,
        "digest": stream.digest_hex(),
        "orderings": report.orderings,
        "queries": report.queries,
        "disagreements": disagreements,
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result_gated("sweep", &summary, smoke);

    if disagreements > 0 {
        eprintln!("FAIL: differential disagreement");
        std::process::exit(1);
    }
    if smoke {
        println!("\nPASS (smoke): zero disagreements.");
        return;
    }
    if admissible < 500 {
        eprintln!("FAIL: only {admissible} admissible variants (need ≥ 500)");
        std::process::exit(1);
    }
    println!("\nPASS: {admissible} admissible variants, zero disagreements.");
}
