//! Run-to-run reproducibility of the service (mirrors the probe pool's
//! deterministic-mode checks one layer up).
//!
//! With a sequential backend, the whole pipeline — tape generation,
//! routing, cache hits, eviction, answers, shard counters, the summary
//! JSON — is a pure function of `(spec, pool, config)`. Two runs must
//! agree on every bit except wall-clock timing: response `micros` and
//! the summary's timing-derived fields (which [`strip_timing`] removes).
//! Any wall-clock, address, or map-iteration-order leak into routing or
//! eviction shows up here as a diff.

use netarch_core::prelude::*;
use netarch_logic::SolveBackend;
use netarch_rt::json::to_string_pretty;
use netarch_serve::report::{strip_timing, summary};
use netarch_serve::{generate_tape, ReplaySpec, Service, ServiceConfig};

fn pool() -> Vec<Scenario> {
    let mut catalog = Catalog::new();
    for (i, c) in [Category::Monitoring, Category::LoadBalancer, Category::Firewall]
        .into_iter()
        .enumerate()
    {
        for k in 0..2u64 {
            catalog
                .add_system(
                    SystemSpec::builder(format!("S{i}_{k}"), c.clone())
                        .solves(format!("cap_{c}"))
                        .cost(100 + 17 * k)
                        .build(),
                )
                .unwrap();
        }
    }
    catalog
        .add_hardware(HardwareSpec::builder("NIC", HardwareKind::Nic).cost(300).build())
        .unwrap();
    let base = Scenario::new(catalog)
        .with_workload(
            Workload::builder("app").needs("cap_monitoring").needs("cap_firewall").build(),
        )
        .with_objective(Objective::MinimizeCost)
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC")],
            num_servers: 3,
            ..Inventory::default()
        });
    (0..3).map(|t| base.clone().with_param(format!("tenant_{t}"), f64::from(t))).collect()
}

fn run_once(seed: u64) -> (Vec<(u64, usize, bool, String)>, String) {
    let spec = ReplaySpec { seed, requests: 24, ..ReplaySpec::default() };
    let tape = generate_tape(&spec, &pool());
    let config = ServiceConfig {
        shards: 2,
        sessions_per_shard: 2, // small enough to force evictions
        cache: true,
        backend: SolveBackend::Sequential,
    };
    let started = std::time::Instant::now();
    let (responses, stats) = Service::run(config, tape);
    let elapsed = started.elapsed().as_micros() as u64;
    let digest = responses
        .iter()
        .map(|r| (r.id, r.shard, r.cache_hit, format!("{:?}", r.answer)))
        .collect();
    let report = to_string_pretty(&strip_timing(&summary(&responses, &stats, elapsed)));
    (digest, report)
}

#[test]
fn seeded_runs_are_bit_identical_modulo_timing() {
    for seed in [0u64, 0xD17E, 0xFEED_5EED] {
        let (digest_a, report_a) = run_once(seed);
        let (digest_b, report_b) = run_once(seed);
        assert_eq!(
            digest_a, digest_b,
            "seed {seed:#x}: responses drifted between runs — routing, caching, \
             or answering depends on wall clock or ambient state"
        );
        assert_eq!(
            report_a, report_b,
            "seed {seed:#x}: timing-stripped summary drifted between runs"
        );
    }
}

#[test]
fn different_seeds_produce_different_tapes() {
    // Sanity guard: if the generator ignored its seed, the determinism
    // test above would pass vacuously.
    let (digest_a, _) = run_once(1);
    let (digest_b, _) = run_once(2);
    assert_ne!(digest_a, digest_b, "tape generator is seed-blind");
}

#[test]
fn shard_stats_are_reproducible() {
    let spec = ReplaySpec { seed: 0xABCD, requests: 20, ..ReplaySpec::default() };
    let config = ServiceConfig {
        shards: 4,
        sessions_per_shard: 1,
        cache: true,
        backend: SolveBackend::Sequential,
    };
    let (_, stats_a) = Service::run(config.clone(), generate_tape(&spec, &pool()));
    let (_, stats_b) = Service::run(config, generate_tape(&spec, &pool()));
    assert_eq!(
        stats_a, stats_b,
        "per-shard counters drifted — eviction or routing is nondeterministic"
    );
    assert_eq!(stats_a.requests(), 20);
}
