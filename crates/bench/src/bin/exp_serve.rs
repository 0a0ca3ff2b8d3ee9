//! Multi-tenant serving experiment: sharded engine pool with a
//! compiled-scenario cache under deterministic replay load.
//!
//! Drives a seeded repeat/variant/cold request tape (the traffic shape
//! of tenants iterating on designs) through the service and reports
//! throughput and tail latency, split by warm (cache-hit) versus cold
//! (compile) path. Every response is differentially checked against a
//! throwaway engine freshly compiled for that one request — the run
//! fails on any disagreement.
//!
//! Asserts:
//! * zero answer disagreements versus the fresh-engine oracle,
//! * warm hits exist (the tape is repeat-heavy by construction),
//! * warm-path service time beats the cold path by ≥ 3× (full run only;
//!   smoke reports the ratio but does not gate on it — on small CI
//!   containers the sub-ms warm/cold medians are scheduler noise, and a
//!   wall-clock bound there rejects perfectly good builds).
//!
//! `--smoke` shrinks the pool and tape for CI. The summary is
//! bit-identical across runs except for timing fields — see
//! `service_determinism.rs`.

use netarch_bench::{section, serve_tenant};
use netarch_core::prelude::*;
use netarch_rt::json::Json;
use netarch_serve::report;
use netarch_serve::request::run_query;
use netarch_serve::{generate_tape, Answer, ReplaySpec, Request, Service, ServiceConfig};
use std::time::Instant;

fn pool(smoke: bool) -> Vec<Scenario> {
    // Smoke catalogs must stay large enough that a cold compile clearly
    // dominates a warm solve: at 20-system scale both paths are a few
    // hundred µs and the warm-over-cold median is scheduler noise.
    let sizes: &[(usize, usize)] =
        if smoke { &[(30, 30), (45, 40)] } else { &[(30, 30), (45, 40), (60, 50), (70, 60)] };
    let tenants_per_size = if smoke { 1 } else { 2 };
    let mut scenarios = Vec::new();
    for &(n_systems, n_hardware) in sizes {
        let base = serve_tenant(n_systems, n_hardware);
        for t in 0..tenants_per_size {
            scenarios.push(base.clone().with_param(format!("tenant_{t}"), f64::from(t)));
        }
    }
    scenarios
}

fn oracle_answer(request: &Request) -> Result<Answer, String> {
    match Engine::new(request.scenario.clone()) {
        Ok(mut engine) => run_query(&mut engine, &request.query),
        Err(e) => Err(e.to_string()),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke runs record a zero bound: the ratio is reported for eyeballs
    // and trend-tracking, but only the full run (committed trajectory)
    // holds a wall-clock claim. See the header for why.
    let bound = if smoke { 0.0 } else { 3.0 };
    section(if smoke {
        "Multi-tenant serving (smoke): sharded pool + compiled-scenario cache"
    } else {
        "Multi-tenant serving: sharded pool + compiled-scenario cache"
    });

    let pool = pool(smoke);
    let spec = ReplaySpec {
        seed: 0x5E12_4E01,
        requests: if smoke { 40 } else { 240 },
        ..ReplaySpec::default()
    };
    let tape = generate_tape(&spec, &pool);
    // Smoke asserts a warm-over-cold *timing* ratio, which is meaningless
    // when shard threads timeslice on too few cores: a request's wall
    // time then includes descheduled gaps while a sibling shard runs.
    // Clamp smoke shards to the machine's parallelism (multi-shard
    // correctness is covered by the service_differential suite, which
    // asserts no timing).
    let parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let config = ServiceConfig {
        shards: if smoke { 2.min(parallelism) } else { 4 },
        sessions_per_shard: if smoke { 4 } else { 8 },
        cache: true,
        ..ServiceConfig::default()
    };
    println!(
        "  pool {} scenarios · tape {} requests · {} shards × {} sessions",
        pool.len(),
        tape.len(),
        config.shards,
        config.sessions_per_shard
    );

    let started = Instant::now();
    let (responses, stats) = Service::run(config.clone(), tape.clone());
    let elapsed_micros = started.elapsed().as_micros() as u64;

    let mut disagreements = 0usize;
    for (request, response) in tape.iter().zip(&responses) {
        let expected = oracle_answer(request);
        if expected != response.answer {
            disagreements += 1;
            eprintln!(
                "DISAGREE on request {} ({:?}, {}, hit={}):\n  service {:?}\n  oracle  {expected:?}",
                request.id,
                request.query,
                request.class.name(),
                response.cache_hit,
                response.answer
            );
        }
    }

    let body = report::summary(&responses, &stats, elapsed_micros);
    let warm_over_cold =
        body.get("warm_over_cold").and_then(|j| j.as_f64()).unwrap_or(0.0);
    let warm_p50 = body.get("warm_latency").and_then(|l| l.get("p50_us")).and_then(|j| j.as_u64());
    let cold_p50 = body.get("cold_latency").and_then(|l| l.get("p50_us")).and_then(|j| j.as_u64());
    let qps = responses.len() as f64 / (elapsed_micros as f64 / 1e6).max(1e-9);
    println!("  requests                    {:>10}", responses.len());
    println!("  throughput                  {qps:>8.0} qps");
    println!(
        "  cache hits / misses / evict {:>6} / {} / {}",
        stats.cache_hits(),
        stats.cache_misses(),
        stats.evictions()
    );
    println!("  warm median service time    {:>8} µs", warm_p50.unwrap_or(0));
    println!("  cold median service time    {:>8} µs", cold_p50.unwrap_or(0));
    println!("  warm over cold (median)     {warm_over_cold:>7.1}x (bound {bound:.1}x)");
    println!("  disagreements vs oracle     {disagreements:>10}");
    println!(
        "  learned clauses retained    {:>10}",
        stats.learnt_clauses()
    );

    let head = netarch_rt::jobj! {
        "experiment": "serve",
        "smoke": smoke,
        "seed": spec.seed,
        "pool": pool.len() as u64,
        "disagreements": disagreements as u64,
        "bound": bound,
    };
    let mut pairs = match head {
        Json::Obj(pairs) => pairs,
        _ => unreachable!(),
    };
    if let Json::Obj(rest) = body {
        pairs.extend(rest);
    }
    let summary = Json::Obj(pairs);
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result_gated("serve", &summary, smoke);

    assert_eq!(disagreements, 0, "service answers diverged from fresh engines");
    assert!(stats.cache_hits() > 0, "repeat-heavy tape produced no warm hits");
    assert!(
        warm_over_cold >= bound,
        "warm path only {warm_over_cold:.1}x over cold; expected ≥ {bound:.1}x"
    );
    println!("\nPASS: zero disagreements, warm path {warm_over_cold:.1}x over cold.");
}
