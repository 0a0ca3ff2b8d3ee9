//! Differential oracle for the multi-tenant service.
//!
//! Whatever the service does internally — shard routing, warm-session
//! cache hits, LRU eviction — must be answer-invisible: every response
//! must match a throwaway engine freshly compiled for that one request.
//! The tape generator produces the adversarial part (repeat/variant/cold
//! interleavings over a pool of related scenarios), and the check sweeps
//! the configuration lattice of 1, 2, and 4 shards, cache on and off.
//!
//! Agreement is semantic ([`Answer`] digests decided content only), so
//! comparison is plain equality — no tolerance, no witness wiggle room.

use std::collections::HashMap;

use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::prelude::*;
use netarch_rt::prop::{self, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, prop_assert_eq, Rng};
use netarch_serve::request::run_query;
use netarch_serve::{generate_tape, ReplaySpec, Request, Service, ServiceConfig};

const CATEGORIES: [Category; 3] = [
    Category::Monitoring,
    Category::LoadBalancer,
    Category::Firewall,
];

const FEATURES: [&str; 2] = ["F0", "F1"];

/// Generation parameters: a pool of related base scenarios plus the
/// replay spec that drives the tape.
#[derive(Debug, Clone)]
struct Seed {
    systems_per_category: Vec<u8>,
    feature_mask: u8,
    conflict_mask: u8,
    nic_features: [bool; 2],
    needs_mask: u8,
    required_roles: u8,
    pool_size: u8,
    tape_seed: u64,
    requests: u8,
}

impl_shrink_struct!(Seed {
    systems_per_category,
    feature_mask,
    conflict_mask,
    nic_features,
    needs_mask,
    required_roles,
    pool_size,
    tape_seed,
    requests,
});

fn gen_seed(rng: &mut Rng) -> Seed {
    Seed {
        systems_per_category: prop::gen_vec(rng, 3..=3, |r| r.gen_range(1..4u8)),
        feature_mask: rng.gen_range(0..=u8::MAX),
        conflict_mask: rng.gen_range(0..=u8::MAX),
        nic_features: [rng.gen_bool(0.5), rng.gen_bool(0.5)],
        needs_mask: rng.gen_range(0..=u8::MAX),
        required_roles: rng.gen_range(0..=u8::MAX),
        pool_size: rng.gen_range(1..4u8),
        tape_seed: rng.next_u64(),
        requests: rng.gen_range(5..11u8),
    }
}

/// One base scenario, shaped by the seed masks (mirrors the
/// `interleaved_queries` generator: small catalogs with conditional
/// requirements, conflicts, roles — enough structure for infeasible
/// corners and non-trivial optimization).
fn build_base(seed: &Seed) -> Scenario {
    let mut catalog = Catalog::new();
    let mut all_ids: Vec<SystemId> = Vec::new();
    let mut index = 0usize;
    for (c, i) in CATEGORIES.iter().zip(0..) {
        let count = seed
            .systems_per_category
            .get(i)
            .copied()
            .unwrap_or(1)
            .max(1);
        for k in 0..count {
            let id = format!("{}_{k}", c.to_string().to_uppercase().replace('-', "_"));
            let mut b = SystemSpec::builder(id.clone(), c.clone())
                .solves(format!("cap_{c}"))
                .cost(100 * (u64::from(k) + 1));
            if (seed.feature_mask >> (index % 8)) & 1 == 1 {
                let f = FEATURES[index % FEATURES.len()];
                b = b.requires(format!("needs-{f}"), Condition::nics_have(f));
            }
            let spec = b.build();
            all_ids.push(spec.id.clone());
            catalog.add_system(spec).unwrap();
            index += 1;
        }
    }
    for i in 1..all_ids.len() {
        if (seed.conflict_mask >> (i % 8)) & 1 == 1 {
            let mut spec = catalog.system(&all_ids[i]).unwrap().clone();
            spec.conflicts.push(all_ids[i - 1].clone());
            catalog
                .apply(netarch_core::catalog::CatalogDelta::update_system(spec))
                .unwrap();
        }
    }
    let mut nic = HardwareSpec::builder("NIC", HardwareKind::Nic);
    for (f, &on) in FEATURES.iter().zip(&seed.nic_features) {
        if on {
            nic = nic.feature(*f);
        }
    }
    catalog.add_hardware(nic.cost(500).build()).unwrap();

    let mut workload = Workload::builder("app");
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.needs_mask >> i) & 1 == 1 {
            workload = workload.needs(format!("cap_{c}"));
        }
    }
    let mut scenario = Scenario::new(catalog)
        .with_workload(workload.build())
        .with_objective(Objective::MinimizeCost)
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC")],
            num_servers: 2,
            ..Inventory::default()
        });
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.required_roles >> i) & 1 == 1 {
            scenario = scenario.with_role(c.clone(), RoleRule::Required);
        }
    }
    scenario
}

/// The pool: the base plus context-perturbed siblings (shared catalog,
/// different full content), so cold traffic has somewhere to go.
fn build_pool(seed: &Seed) -> Vec<Scenario> {
    let base = build_base(seed);
    (0..seed.pool_size.max(1))
        .map(|i| base.clone().with_param(format!("tenant_{i}"), f64::from(i)))
        .collect()
}

fn build_tape(seed: &Seed) -> Vec<Request> {
    let spec = ReplaySpec {
        seed: seed.tape_seed,
        requests: usize::from(seed.requests.clamp(5, 10)),
        ..ReplaySpec::default()
    };
    generate_tape(&spec, &build_pool(seed))
}

/// Fresh-engine oracle: one throwaway sequential engine per request.
fn oracle_answers(tape: &[Request]) -> Vec<Result<netarch_serve::Answer, String>> {
    tape.iter()
        .map(|request| match Engine::new(request.scenario.clone()) {
            Ok(mut engine) => run_query(&mut engine, &request.query),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

fn service_matches_oracle(seed: &Seed) -> Result<(), String> {
    let tape = build_tape(seed);
    let oracle = oracle_answers(&tape);
    for shards in [1usize, 2, 4] {
        for cache in [true, false] {
            let config = ServiceConfig {
                shards,
                sessions_per_shard: 2,
                cache,
                ..ServiceConfig::default()
            };
            let (responses, stats) = Service::run(config, tape.clone());
            prop_assert_eq!(
                responses.len(),
                tape.len(),
                "response count diverged ({shards} shards, cache={cache})"
            );
            if cache {
                // Routing by full fingerprint: every request for one
                // scenario reaches the shard that holds its session.
                let mut home: HashMap<u128, usize> = HashMap::new();
                for (request, response) in tape.iter().zip(&responses) {
                    let full = fingerprint_scenario(&request.scenario).full.0;
                    let shard = *home.entry(full).or_insert(response.shard);
                    prop_assert_eq!(
                        response.shard,
                        shard,
                        "request {} left its scenario's shard ({shards} shards)",
                        request.id
                    );
                }
            }
            for (response, (request, expected)) in responses.iter().zip(tape.iter().zip(&oracle)) {
                prop_assert_eq!(
                    response.id,
                    request.id,
                    "responses not in id order ({shards} shards, cache={cache})"
                );
                prop_assert!(
                    response.shard < shards,
                    "response from nonexistent shard {}",
                    response.shard
                );
                prop_assert_eq!(
                    &response.answer,
                    expected,
                    "answer diverged from fresh engine at request {} ({:?}, {shards} \
                     shards, cache={cache}, hit={})",
                    request.id,
                    request.query,
                    response.cache_hit
                );
            }
            prop_assert_eq!(
                stats.requests(),
                tape.len() as u64,
                "shard stats lost requests"
            );
            prop_assert_eq!(
                stats.cache_hits() + stats.cache_misses(),
                tape.len() as u64,
                "every request is a hit or a miss"
            );
            if !cache {
                prop_assert_eq!(stats.cache_hits(), 0, "cache off must never hit");
                prop_assert_eq!(
                    responses.iter().filter(|r| r.cache_hit).count(),
                    0,
                    "cache off responded with a hit"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn service_agrees_with_fresh_engines() {
    prop::check(&Config::with_cases(16), gen_seed, service_matches_oracle);
}

/// Deterministic acceptance spot-check: a repeat-heavy tape on two
/// shards must produce warm hits and still match the oracle on every
/// answer — including capacity planning, the query with the most
/// session-side compilation to get wrong.
#[test]
fn repeat_heavy_tape_hits_warm_sessions_and_agrees() {
    let seed = Seed {
        systems_per_category: vec![2, 2, 1],
        feature_mask: 0b0101,
        conflict_mask: 0,
        nic_features: [true, false],
        needs_mask: 0b011,
        required_roles: 0b001,
        pool_size: 2,
        tape_seed: 0xD1FF,
        requests: 10,
    };
    let mut tape = build_tape(&seed);
    // Force capacity coverage: retag the last request.
    if let Some(last) = tape.last_mut() {
        last.query = netarch_serve::QueryKind::Capacity(4);
    }
    let oracle = oracle_answers(&tape);
    let config = ServiceConfig {
        shards: 2,
        sessions_per_shard: 4,
        cache: true,
        ..ServiceConfig::default()
    };
    let (responses, stats) = Service::run(config, tape.clone());
    for (response, expected) in responses.iter().zip(&oracle) {
        assert_eq!(
            &response.answer, expected,
            "request {} diverged",
            response.id
        );
    }
    assert!(
        stats.cache_hits() > 0,
        "a repeat-heavy tape produced no warm hits: {stats:?}"
    );
}
