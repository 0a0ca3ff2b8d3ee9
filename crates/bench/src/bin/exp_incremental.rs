//! Incremental-session experiment: one persistent engine answering a
//! 50-query mixed workload (check / optimize / enumerate / rule-subset)
//! versus the old recompile-per-query discipline — a fresh `Engine::new`
//! for every single query, which is exactly what the deleted
//! `poisoned`/`refresh` machinery cost in the worst case.
//!
//! Asserts two things:
//! * both modes give the same answer to every query,
//! * the session is at least 3× faster end-to-end.

use netarch_bench::{section, subset_catalog};
use netarch_core::prelude::*;
use std::time::Instant;

/// One query of the mixed workload.
#[derive(Clone, Copy, Debug)]
enum Query {
    Check,
    Optimize,
    Enumerate(usize),
    Subset(usize),
}

/// A comparable answer digest. Enumeration compares the class sets only
/// when both sides are exhaustive — a truncated enumeration legitimately
/// returns *different* representative classes depending on solver state,
/// so at the limit only the count is comparable.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Feasibility(bool),
    Penalties(Option<Vec<u64>>),
    Classes { count: usize, exhaustive: Option<Vec<Vec<String>>> },
    SubsetSat(bool),
}

const SUBSET_POOLS: [&[&str]; 3] = [
    &["role:monitoring"],
    &["role:monitoring", "role:transport", "role:load-balancer"],
    &[],
];

/// The full-corpus scenario used by the scaling experiments, plus the
/// cost objective so `optimize` has something to minimize. Compilation
/// (encoding + preference order + cost totalizer) is the dominant cost
/// here, which is the regime the incremental session is built for.
fn scenario() -> Scenario {
    let catalog = subset_catalog(70, 60);
    let nics: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Nic)
        .iter()
        .take(4)
        .map(|h| h.id.clone())
        .collect();
    let switches: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Switch)
        .iter()
        .take(4)
        .map(|h| h.id.clone())
        .collect();
    let servers: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Server)
        .iter()
        .take(3)
        .map(|h| h.id.clone())
        .collect();
    Scenario::new(catalog)
        .with_workload(
            Workload::builder("app")
                .property("dc_flows")
                .peak_cores(500)
                .num_flows(20_000)
                .needs("host_networking")
                .build(),
        )
        .with_param("link_speed_gbps", 100.0)
        .with_objective(Objective::MinimizeCost)
        .with_inventory(Inventory {
            nic_candidates: nics,
            switch_candidates: switches,
            server_candidates: servers,
            num_servers: 32,
            num_switches: 4,
        })
}

fn workload() -> Vec<Query> {
    (0..50)
        .map(|i| match i % 4 {
            0 => Query::Check,
            1 => Query::Optimize,
            2 => Query::Enumerate(4 + i % 3),
            _ => Query::Subset(i % SUBSET_POOLS.len()),
        })
        .collect()
}

fn run_query(engine: &mut Engine, query: Query) -> Answer {
    match query {
        Query::Check => {
            Answer::Feasibility(engine.check().expect("runs").design().is_some())
        }
        Query::Optimize => Answer::Penalties(
            engine
                .optimize()
                .expect("runs")
                .ok()
                .map(|r| r.levels.iter().map(|l| l.penalty).collect()),
        ),
        Query::Enumerate(limit) => {
            let designs = engine.enumerate_designs(limit, false).expect("runs");
            let count = designs.len();
            let exhaustive = (count < limit).then(|| {
                let mut classes: Vec<Vec<String>> = designs
                    .iter()
                    .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
                    .collect();
                classes.sort();
                classes
            });
            Answer::Classes { count, exhaustive }
        }
        Query::Subset(pool) => Answer::SubsetSat(
            engine.check_rule_subset(SUBSET_POOLS[pool]).expect("runs"),
        ),
    }
}

fn main() {
    section("Incremental session vs recompile-per-query (50 mixed queries)");
    let scenario = scenario();
    let queries = workload();

    let t0 = Instant::now();
    let mut session = Engine::new(scenario.clone()).expect("compiles");
    let compile_time = t0.elapsed();
    let session_answers: Vec<Answer> =
        queries.iter().map(|&q| run_query(&mut session, q)).collect();
    let session_time = t0.elapsed();
    let stats = session.stats();

    let t1 = Instant::now();
    let fresh_answers: Vec<Answer> = queries
        .iter()
        .map(|&q| {
            let mut engine = Engine::new(scenario.clone()).expect("compiles");
            run_query(&mut engine, q)
        })
        .collect();
    let fresh_time = t1.elapsed();

    let mut disagreements = 0usize;
    for (i, (a, b)) in session_answers.iter().zip(&fresh_answers).enumerate() {
        if a != b {
            disagreements += 1;
            eprintln!("DISAGREE on query {i} ({:?}):\n  session {a:?}\n  fresh   {b:?}", queries[i]);
        }
    }

    let speedup = fresh_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9);
    println!("  queries                     {:>10}", queries.len());
    println!("  one-time compile            {compile_time:>10.2?}");
    println!("  session wall time           {session_time:>10.2?}");
    println!("  recompile-per-query time    {fresh_time:>10.2?}");
    println!("  speedup                     {speedup:>9.1}x");
    println!("  session solver invocations  {:>10}", stats.session_solves);
    println!("  activation gates retired    {:>10}", stats.retired_activations);

    let summary = netarch_rt::jobj! {
        "experiment": "incremental",
        "queries": queries.len(),
        "compile_ms": compile_time.as_millis() as u64,
        "session_ms": session_time.as_millis() as u64,
        "fresh_ms": fresh_time.as_millis() as u64,
        "speedup": speedup,
        "session_solves": stats.session_solves,
        "retired_activations": stats.retired_activations,
        "disagreements": disagreements,
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result("incremental", &summary);

    assert_eq!(disagreements, 0, "session answers diverged from fresh engines");
    assert!(
        speedup >= 3.0,
        "incremental session only {speedup:.1}x faster; expected ≥ 3x"
    );
    println!("\nPASS: one solver session serves the whole query stream.");
}
