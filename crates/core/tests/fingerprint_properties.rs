//! Property tests for the content-addressed scenario fingerprint.
//!
//! The fingerprint is a cache key for compiled scenarios, so it owes its
//! callers three contracts:
//!
//! 1. **Order-insensitivity where the model is order-free.** Registering
//!    the same systems, hardware, edges, workloads, pins, params, and
//!    inventory candidates in a different order must not move the
//!    digest — otherwise identical tenants miss each other's sessions.
//! 2. **Single-atom sensitivity.** Any one-atom content edit — a
//!    component's cost, a hardware attribute, a workload demand, an
//!    ordering edge, the objective order — must move the digest;
//!    otherwise the cache serves answers for the wrong scenario.
//! 3. **Cross-run stability.** The digest is a pure function of
//!    content: no addresses, no per-process hasher salt, no map
//!    iteration accidents. Pinned by golden constants that any
//!    rebuild, rerun, or refactor must reproduce.

use netarch_core::fingerprint::{fingerprint_catalog, fingerprint_scenario};
use netarch_core::prelude::*;
use netarch_rt::json::{FromJson, ToJson};
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, prop_assert_eq, Rng};

const CATEGORIES: [Category; 3] = [
    Category::Monitoring,
    Category::LoadBalancer,
    Category::Firewall,
];

const FEATURES: [&str; 3] = ["F0", "F1", "F2"];

/// Content description: everything the scenario contains, as data, so
/// the same content can be assembled in any insertion order.
#[derive(Debug, Clone)]
struct Seed {
    systems_per_category: Vec<u8>,
    cost_mask: u8,
    feature_mask: u8,
    edge_mask: u8,
    nic_count: u8,
    workload_count: u8,
    pin_mask: u8,
    param_count: u8,
    objective_flip: bool,
    shuffle_seed: u64,
}

impl_shrink_struct!(Seed {
    systems_per_category,
    cost_mask,
    feature_mask,
    edge_mask,
    nic_count,
    workload_count,
    pin_mask,
    param_count,
    objective_flip,
    shuffle_seed,
});

fn gen_seed(rng: &mut Rng) -> Seed {
    Seed {
        systems_per_category: gen_vec(rng, 3..=3, |r| r.gen_range(1..4u8)),
        cost_mask: rng.gen_range(0..=u8::MAX),
        feature_mask: rng.gen_range(0..=u8::MAX),
        edge_mask: rng.gen_range(0..=u8::MAX),
        nic_count: rng.gen_range(1..4u8),
        workload_count: rng.gen_range(1..4u8),
        pin_mask: rng.gen_range(0..=u8::MAX),
        param_count: rng.gen_range(0..4u8),
        objective_flip: rng.gen_bool(0.5),
        shuffle_seed: rng.next_u64(),
    }
}

fn system_ids(seed: &Seed) -> Vec<(SystemId, Category, usize)> {
    let mut out = Vec::new();
    let mut index = 0usize;
    for (i, c) in CATEGORIES.iter().enumerate() {
        let count = seed
            .systems_per_category
            .get(i)
            .copied()
            .unwrap_or(1)
            .max(1);
        for k in 0..count {
            let id = SystemId::new(format!("{c}_{k}").to_uppercase().replace('-', "_"));
            out.push((id, c.clone(), index));
            index += 1;
        }
    }
    out
}

/// Assembles the scenario described by `seed`. When `shuffle` is true,
/// every order-free collection is inserted in a permuted order drawn
/// from `seed.shuffle_seed`; content is identical either way.
fn build_scenario(seed: &Seed, shuffle: bool) -> Scenario {
    let mut order_rng = Rng::seed_from_u64(seed.shuffle_seed);
    let mut permute = |n: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        if shuffle {
            order_rng.shuffle(&mut idx);
        }
        idx
    };

    let ids = system_ids(seed);
    let systems: Vec<SystemSpec> = ids
        .iter()
        .map(|(id, c, index)| {
            let mut b = SystemSpec::builder(id.clone(), c.clone())
                .solves(format!("cap_{c}"))
                .cost(100 + 10 * u64::from((seed.cost_mask >> (index % 8)) & 1));
            if (seed.feature_mask >> (index % 8)) & 1 == 1 {
                let f = FEATURES[index % FEATURES.len()];
                b = b.requires(format!("needs-{f}"), Condition::nics_have(f));
            }
            b.build()
        })
        .collect();
    let edges: Vec<OrderingEdge> = (1..ids.len())
        .filter(|i| (seed.edge_mask >> (i % 8)) & 1 == 1)
        .map(|i| {
            OrderingEdge::strict(
                ids[i - 1].0.clone(),
                ids[i].0.clone(),
                Dimension::Throughput,
            )
        })
        .collect();
    let nics: Vec<HardwareSpec> = (0..seed.nic_count.max(1))
        .map(|k| {
            let mut b = HardwareSpec::builder(format!("NIC{k}"), HardwareKind::Nic)
                .cost(500 + u64::from(k));
            if k % 2 == 0 {
                b = b.feature(FEATURES[usize::from(k) % FEATURES.len()]);
            }
            b.numeric("ports", f64::from(k) + 1.0).build()
        })
        .collect();

    let mut catalog = Catalog::new();
    for i in permute(systems.len()) {
        catalog.add_system(systems[i].clone()).unwrap();
    }
    for i in permute(nics.len()) {
        catalog.add_hardware(nics[i].clone()).unwrap();
    }
    for i in permute(edges.len()) {
        catalog.add_ordering(edges[i].clone()).unwrap();
    }

    let workloads: Vec<Workload> = (0..seed.workload_count.max(1))
        .map(|w| {
            Workload::builder(format!("app{w}"))
                .needs(format!(
                    "cap_{}",
                    CATEGORIES[usize::from(w) % CATEGORIES.len()]
                ))
                .peak_bandwidth(10 * (u64::from(w) + 1))
                .build()
        })
        .collect();
    let pins: Vec<Pin> = ids
        .iter()
        .filter(|(_, _, index)| (seed.pin_mask >> (index % 8)) & 1 == 1 && index % 3 == 0)
        .map(|(id, _, index)| {
            if index % 2 == 0 {
                Pin::Require(id.clone())
            } else {
                Pin::Forbid(id.clone())
            }
        })
        .collect();
    let params: Vec<(String, f64)> = (0..seed.param_count)
        .map(|p| (format!("param_{p}"), f64::from(p) * 2.5))
        .collect();
    let candidates: Vec<HardwareId> = (0..seed.nic_count.max(1))
        .map(|k| HardwareId::new(format!("NIC{k}")))
        .collect();

    let mut objectives = vec![
        Objective::MinimizeCost,
        Objective::PreferCapability("cap_monitoring".into()),
    ];
    if seed.objective_flip {
        objectives.reverse();
    }

    let mut scenario = Scenario::new(catalog);
    for i in permute(workloads.len()) {
        scenario = scenario.with_workload(workloads[i].clone());
    }
    for i in permute(pins.len()) {
        scenario = scenario.with_pin(pins[i].clone());
    }
    for i in permute(params.len()) {
        let (name, value) = &params[i];
        scenario = scenario.with_param(name.clone(), *value);
    }
    let mut nic_candidates = Vec::new();
    for i in permute(candidates.len()) {
        nic_candidates.push(candidates[i].clone());
    }
    // Objectives are ORDER-SENSITIVE (lexicographic stack): always
    // inserted in seed order, never permuted.
    for objective in objectives.drain(..) {
        scenario = scenario.with_objective(objective);
    }
    scenario.with_inventory(Inventory {
        nic_candidates,
        num_servers: 4,
        ..Inventory::default()
    })
}

#[test]
fn insertion_order_never_moves_the_fingerprint() {
    prop::check(&Config::with_cases(64), gen_seed, |seed| {
        let plain = fingerprint_scenario(&build_scenario(seed, false));
        let shuffled = fingerprint_scenario(&build_scenario(seed, true));
        prop_assert_eq!(
            plain,
            shuffled,
            "insertion order leaked into the fingerprint"
        );
        Ok(())
    });
}

#[test]
fn json_roundtrip_preserves_the_fingerprint() {
    // Serialize → parse → fingerprint: any dependence on in-memory
    // representation (as opposed to content) would break here.
    prop::check(&Config::with_cases(32), gen_seed, |seed| {
        let scenario = build_scenario(seed, true);
        let json = scenario.to_json();
        let reparsed = Scenario::from_json(&json).expect("scenario roundtrips");
        prop_assert_eq!(
            fingerprint_scenario(&scenario),
            fingerprint_scenario(&reparsed),
            "JSON roundtrip moved the fingerprint"
        );
        Ok(())
    });
}

/// One atomic content edit.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    SystemCost,
    HardwareAttr,
    WorkloadDemand,
    OrderingEdge,
    ObjectiveOrder,
    InventorySize,
    Param,
    Budget,
}

const MUTATIONS: [Mutation; 8] = [
    Mutation::SystemCost,
    Mutation::HardwareAttr,
    Mutation::WorkloadDemand,
    Mutation::OrderingEdge,
    Mutation::ObjectiveOrder,
    Mutation::InventorySize,
    Mutation::Param,
    Mutation::Budget,
];

/// Applies the mutation; returns whether it touches the catalog
/// component (vs only the context component).
fn apply_mutation(scenario: &mut Scenario, mutation: Mutation) -> bool {
    match mutation {
        Mutation::SystemCost => {
            let id = scenario.catalog.systems().next().unwrap().id.clone();
            let mut spec = scenario.catalog.system(&id).unwrap().clone();
            spec.cost_usd += 1;
            scenario
                .catalog
                .apply(netarch_core::catalog::CatalogDelta::update_system(spec))
                .unwrap();
            true
        }
        Mutation::HardwareAttr => {
            let mut spec = scenario.catalog.hardware_specs().next().unwrap().clone();
            let ports = spec.numeric("ports").unwrap_or(0.0);
            spec.numeric.insert("ports".to_string(), ports + 1.0);
            scenario
                .catalog
                .apply(netarch_core::catalog::CatalogDelta {
                    upsert_hardware: vec![spec],
                    ..Default::default()
                })
                .unwrap();
            true
        }
        Mutation::WorkloadDemand => {
            scenario.workloads[0].peak_bandwidth_gbps += 1;
            false
        }
        Mutation::OrderingEdge => {
            let ids: Vec<SystemId> = scenario.catalog.systems().map(|s| s.id.clone()).collect();
            let a = ids.first().unwrap().clone();
            let b = ids.last().unwrap().clone();
            scenario
                .catalog
                .add_ordering(OrderingEdge::strict(a, b, Dimension::Latency))
                .unwrap();
            true
        }
        Mutation::ObjectiveOrder => {
            scenario.objectives.swap(0, 1);
            false
        }
        Mutation::InventorySize => {
            scenario.inventory.num_servers += 1;
            false
        }
        Mutation::Param => {
            let count = scenario.params.len();
            scenario
                .params
                .insert(format!("mutant_{count}").into(), 42.0);
            false
        }
        Mutation::Budget => {
            scenario.budget_usd = Some(scenario.budget_usd.unwrap_or(0) + 1);
            false
        }
    }
}

#[test]
fn every_single_atom_mutation_moves_the_fingerprint() {
    prop::check(&Config::with_cases(48), gen_seed, |seed| {
        let baseline = build_scenario(seed, false);
        let base_fp = fingerprint_scenario(&baseline);
        for &mutation in &MUTATIONS {
            let mut mutated = baseline.clone();
            let touches_catalog = apply_mutation(&mut mutated, mutation);
            let fp = fingerprint_scenario(&mutated);
            prop_assert!(
                fp.full != base_fp.full,
                "mutation {mutation:?} left the full fingerprint unchanged"
            );
            if touches_catalog {
                prop_assert!(
                    fp.catalog != base_fp.catalog,
                    "catalog mutation {mutation:?} missed the catalog component"
                );
                prop_assert_eq!(
                    fp.context,
                    base_fp.context,
                    "catalog mutation {mutation:?} leaked into the context component"
                );
            } else {
                prop_assert_eq!(
                    fp.catalog,
                    base_fp.catalog,
                    "context mutation {mutation:?} leaked into the catalog component"
                );
                prop_assert!(
                    fp.context != base_fp.context,
                    "context mutation {mutation:?} missed the context component"
                );
            }
        }
        Ok(())
    });
}

/// A catalog plus a sequence of edits to apply to a clone of it.
#[derive(Debug, Clone)]
struct EditSeed {
    content: Seed,
    edits: Vec<u8>,
}

impl_shrink_struct!(EditSeed { content, edits });

fn gen_edit_seed(rng: &mut Rng) -> EditSeed {
    EditSeed {
        content: gen_seed(rng),
        edits: gen_vec(rng, 1..=8, |r| r.gen_range(0..=u8::MAX)),
    }
}

/// Applies edit `code` (number `step` of its sequence) through one of the
/// catalog's four mutators, or through an `apply` the catalog rejects.
fn edit_catalog(catalog: &mut Catalog, step: usize, code: u8) -> Result<(), String> {
    let ids: Vec<SystemId> = catalog.systems().map(|s| s.id.clone()).collect();
    let pick = ids[usize::from(code / 5) % ids.len()].clone();
    match code % 5 {
        0 => catalog
            .add_system(
                SystemSpec::builder(format!("NEW_{step}"), Category::Monitoring)
                    .solves("cap_monitoring")
                    .cost(u64::from(code))
                    .build(),
            )
            .map_err(|e| e.to_string()),
        1 => catalog
            .add_hardware(
                HardwareSpec::builder(format!("NEWNIC_{step}"), HardwareKind::Nic)
                    .cost(u64::from(code))
                    .build(),
            )
            .map_err(|e| e.to_string()),
        2 => catalog
            .add_ordering(OrderingEdge::strict(
                pick,
                ids[0].clone(),
                if code < 128 {
                    Dimension::Latency
                } else {
                    Dimension::Isolation
                },
            ))
            .map_err(|e| e.to_string()),
        3 => {
            let mut spec = catalog.system(&pick).unwrap().clone();
            spec.cost_usd += 1 + u64::from(code);
            catalog
                .apply(netarch_core::catalog::CatalogDelta::update_system(spec))
                .map_err(|e| e.to_string())
        }
        _ => {
            // The delta fails only after upserting a system, so `apply`
            // must roll back a partly edited copy.
            let before = catalog.to_json();
            let rejected = catalog.apply(netarch_core::catalog::CatalogDelta {
                upsert_systems: vec![SystemSpec::builder("DOOMED", Category::Firewall).build()],
                remove_hardware: vec![HardwareId::new("GHOST")],
                ..Default::default()
            });
            prop_assert_eq!(
                rejected,
                Err(CatalogError::UnknownHardware(HardwareId::new("GHOST"))),
                "removing unknown hardware"
            );
            prop_assert_eq!(
                catalog.to_json(),
                before,
                "a rejected apply changed the catalog"
            );
            Ok(())
        }
    }
}

#[test]
fn catalog_clones_memoize_the_digest_of_their_own_content() {
    // Copy-on-write: a clone shares the original's content and memoized
    // digest until it mutates. After every edit the clone's digest must be
    // that of its content rebuilt from JSON (no stale memo), and the
    // original must keep both its content and its digest.
    prop::check(&Config::with_cases(48), gen_edit_seed, |seed| {
        let original = build_scenario(&seed.content, false).catalog;
        let original_json = original.to_json();
        let original_fp = fingerprint_catalog(&original);
        let mut clone = original.clone();
        for (step, &code) in seed.edits.iter().enumerate() {
            edit_catalog(&mut clone, step, code)?;
            let rebuilt = Catalog::from_json(&clone.to_json()).expect("catalog roundtrips");
            prop_assert_eq!(
                fingerprint_catalog(&clone),
                fingerprint_catalog(&rebuilt),
                "edit {step} ({code}) left a stale digest on the clone"
            );
        }
        prop_assert_eq!(
            original.to_json(),
            original_json,
            "editing a clone changed the original"
        );
        prop_assert_eq!(
            fingerprint_catalog(&original),
            original_fp,
            "the original's digest moved"
        );
        Ok(())
    });
}

/// Cross-run, cross-build stability: golden digests of a fixed
/// scenario. If these move, every deployed cache key moves with them —
/// an intentional format change must update the constants (and accept
/// one fleet-wide cold restart); an unintentional change is a leak of
/// process state into the digest.
#[test]
fn golden_fingerprints_are_stable_across_runs() {
    let seed = Seed {
        systems_per_category: vec![2, 1, 2],
        cost_mask: 0b1010_0101,
        feature_mask: 0b0110_0011,
        edge_mask: 0b0000_1101,
        nic_count: 2,
        workload_count: 2,
        pin_mask: 0b0100_1001,
        param_count: 2,
        objective_flip: false,
        shuffle_seed: 0x5EED,
    };
    let fp = fingerprint_scenario(&build_scenario(&seed, false));
    assert_eq!(
        format!("{}", fp.full),
        "f801d08a07244711c54e795745641152",
        "full fingerprint moved — content digest is no longer stable"
    );
    assert_eq!(
        format!("{}", fp.catalog),
        "98f70daa7572ce93027f03ae9be0224f",
        "catalog fingerprint moved"
    );
    assert_eq!(
        format!("{}", fp.context),
        "56728b3543c8a64758fa87531eb7e2c6",
        "context fingerprint moved"
    );
}
