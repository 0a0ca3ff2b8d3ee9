//! Property tests for the reasoning engine over randomly generated
//! catalogs and scenarios.
//!
//! Invariants:
//! * every feasible verdict's design passes the SAT-free semantic
//!   validator (encoding ↔ semantics agreement);
//! * every infeasible verdict's diagnosis is a *minimal* conflict:
//!   the named rules are jointly unsatisfiable, and dropping any pin or
//!   workload-need rule named in it restores feasibility;
//! * enumeration returns distinct, individually valid designs;
//! * optimization never worsens feasibility and its design validates.

use netarch_core::baseline::validate_design;
use netarch_core::prelude::*;
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, Rng};

/// Generation parameters for a synthetic catalog.
#[derive(Debug, Clone)]
struct ScenarioSeed {
    systems_per_category: Vec<u8>, // for 4 categories
    feature_mask: u16,             // which systems require which feature
    conflict_mask: u16,
    nic_features: [bool; 3],
    needs_mask: u8,
    pins_mask: u8,
    demands: Vec<u8>,
    server_cores: u8,
    required_roles: u8,
}

impl_shrink_struct!(ScenarioSeed {
    systems_per_category,
    feature_mask,
    conflict_mask,
    nic_features,
    needs_mask,
    pins_mask,
    demands,
    server_cores,
    required_roles,
});

fn gen_seed(rng: &mut Rng) -> ScenarioSeed {
    ScenarioSeed {
        systems_per_category: gen_vec(rng, 4..=4, |r| r.gen_range(1..4u8)),
        feature_mask: rng.gen_range(0..=u16::MAX),
        conflict_mask: rng.gen_range(0..=u16::MAX),
        nic_features: [rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5)],
        needs_mask: rng.gen_range(0..=u8::MAX),
        pins_mask: rng.gen_range(0..=u8::MAX),
        demands: gen_vec(rng, 12..=12, |r| r.gen_range(0..40u8)),
        server_cores: rng.gen_range(8..=64u8),
        required_roles: rng.gen_range(0..=u8::MAX),
    }
}

const CATEGORIES: [Category; 4] = [
    Category::Monitoring,
    Category::LoadBalancer,
    Category::CongestionControl,
    Category::Firewall,
];

const FEATURES: [&str; 3] = ["F0", "F1", "F2"];

fn build_scenario(seed: &ScenarioSeed) -> Scenario {
    let mut catalog = Catalog::new();
    let mut all_ids: Vec<SystemId> = Vec::new();
    let mut index = 0usize;
    for (c, &count) in CATEGORIES.iter().zip(&seed.systems_per_category) {
        // Shrinking may zero a count; keep at least one system per
        // category so the scenario stays structurally comparable.
        for k in 0..count.max(1) {
            let id = format!("{}_{k}", c.to_string().to_uppercase().replace('-', "_"));
            let mut b = SystemSpec::builder(id.clone(), c.clone())
                .solves(format!("cap_{c}"))
                .cost(100 * (u64::from(k) + 1));
            // Feature requirement bit.
            if (seed.feature_mask >> (index % 16)) & 1 == 1 {
                let f = FEATURES[index % FEATURES.len()];
                b = b.requires(format!("needs-{f}"), Condition::nics_have(f));
            }
            // Resource demand.
            let demand = seed
                .demands
                .get(index % seed.demands.len().max(1))
                .copied()
                .unwrap_or(0);
            if demand > 0 {
                b = b.consumes(Resource::Cores, AmountExpr::constant(u64::from(demand)));
            }
            let spec = b.build();
            all_ids.push(spec.id.clone());
            catalog.add_system(spec).unwrap();
            index += 1;
        }
    }
    // Conflicts between consecutive systems per the mask.
    for i in 1..all_ids.len() {
        if (seed.conflict_mask >> (i % 16)) & 1 == 1 {
            let mut spec = catalog.system(&all_ids[i]).unwrap().clone();
            spec.conflicts.push(all_ids[i - 1].clone());
            catalog
                .apply(netarch_core::catalog::CatalogDelta::update_system(spec))
                .unwrap();
        }
    }
    // One NIC model with a feature subset; one server SKU.
    let mut nic = HardwareSpec::builder("NIC", HardwareKind::Nic);
    for (f, &on) in FEATURES.iter().zip(&seed.nic_features) {
        if on {
            nic = nic.feature(*f);
        }
    }
    catalog.add_hardware(nic.cost(500).build()).unwrap();
    catalog
        .add_hardware(
            HardwareSpec::builder("SRV", HardwareKind::Server)
                .numeric("cores", f64::from(seed.server_cores))
                .cost(5_000)
                .build(),
        )
        .unwrap();

    let mut workload = Workload::builder("app").peak_cores(4);
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.needs_mask >> i) & 1 == 1 {
            workload = workload.needs(format!("cap_{c}"));
        }
    }
    let mut scenario = Scenario::new(catalog)
        .with_workload(workload.build())
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC")],
            server_candidates: vec![HardwareId::new("SRV")],
            num_servers: 2,
            ..Inventory::default()
        });
    for (i, c) in CATEGORIES.iter().enumerate() {
        if (seed.required_roles >> i) & 1 == 1 {
            scenario = scenario.with_role(c.clone(), RoleRule::Required);
        }
    }
    for (i, id) in all_ids.iter().enumerate() {
        if (seed.pins_mask >> (i % 8)) & 1 == 1 && i % 3 == 0 {
            scenario = scenario.with_pin(if i % 2 == 0 {
                Pin::Require(id.clone())
            } else {
                Pin::Forbid(id.clone())
            });
        }
    }
    scenario
}

fn check_feasible_designs_validate_and_diagnoses_are_minimal(
    seed: &ScenarioSeed,
) -> Result<(), String> {
    let scenario = build_scenario(seed);
    let mut engine = Engine::new(scenario.clone()).expect("compiles");
    match engine.check().expect("runs") {
        Outcome::Feasible(design) => {
            let violations = validate_design(&scenario, &design);
            prop_assert!(
                violations.is_empty(),
                "invalid design: {violations:?}\n{design}"
            );
        }
        Outcome::Infeasible(diagnosis) => {
            prop_assert!(!diagnosis.conflicts.is_empty(), "empty diagnosis");
            // The diagnosis is a minimal conflict *as a rule subset*:
            // jointly UNSAT, and SAT once any single member is dropped.
            // (The full scenario may hold other, disjoint conflicts —
            // minimality is relative to the subset itself.)
            let labels: Vec<&str> = diagnosis
                .conflicts
                .iter()
                .map(|c| c.label.as_str())
                .collect();
            prop_assert!(
                !engine.check_rule_subset(&labels).expect("runs"),
                "diagnosis subset is satisfiable: {labels:?}"
            );
            for drop in &labels {
                let rest: Vec<&str> = labels.iter().copied().filter(|l| l != drop).collect();
                prop_assert!(
                    engine.check_rule_subset(&rest).expect("runs"),
                    "diagnosis not minimal: {drop} removable from {labels:?}"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn feasible_designs_validate_and_diagnoses_are_minimal() {
    prop::check(
        &Config::with_cases(96),
        gen_seed,
        check_feasible_designs_validate_and_diagnoses_are_minimal,
    );
}

/// Regression seeds discovered by earlier property-test runs; kept as
/// explicit cases so they run on every `cargo test`.
#[test]
fn regression_conflict_chain_diagnosis_is_minimal() {
    let seed = ScenarioSeed {
        systems_per_category: vec![1, 1, 2, 2],
        feature_mask: 59616,
        conflict_mask: 58664,
        nic_features: [false, false, false],
        needs_mask: 0,
        pins_mask: 0,
        demands: vec![0; 12],
        server_cores: 8,
        required_roles: 0,
    };
    check_feasible_designs_validate_and_diagnoses_are_minimal(&seed).unwrap();
}

#[test]
fn regression_pinned_needs_diagnosis_is_minimal() {
    let seed = ScenarioSeed {
        systems_per_category: vec![2, 3, 2, 2],
        feature_mask: 28781,
        conflict_mask: 0,
        nic_features: [false, false, false],
        needs_mask: 216,
        pins_mask: 195,
        demands: vec![0; 12],
        server_cores: 8,
        required_roles: 144,
    };
    check_feasible_designs_validate_and_diagnoses_are_minimal(&seed).unwrap();
}

#[test]
fn optimize_agrees_with_check_on_feasibility() {
    prop::check(&Config::with_cases(96), gen_seed, |seed| {
        let scenario = build_scenario(seed);
        let mut engine = Engine::new(scenario.clone()).expect("compiles");
        let feasible = engine.check().expect("runs").design().is_some();
        let mut scenario2 = scenario.clone();
        scenario2.objectives = vec![Objective::MinimizeCost];
        let mut engine2 = Engine::new(scenario2).expect("compiles");
        match engine2.optimize().expect("runs") {
            Ok(result) => {
                prop_assert!(feasible, "optimize found a design where check did not");
                let violations = validate_design(&scenario, &result.design);
                prop_assert!(violations.is_empty(), "{violations:?}");
            }
            Err(_) => prop_assert!(!feasible, "optimize infeasible but check feasible"),
        }
        Ok(())
    });
}

#[test]
fn enumerated_designs_are_distinct_and_valid() {
    prop::check(&Config::with_cases(96), gen_seed, |seed| {
        let scenario = build_scenario(seed);
        let mut engine = Engine::new(scenario.clone()).expect("compiles");
        let designs = engine.enumerate_designs(12, false).expect("runs");
        let mut fingerprints = std::collections::BTreeSet::new();
        for d in &designs {
            let violations = validate_design(&scenario, d);
            prop_assert!(violations.is_empty(), "{violations:?}");
            let fp: Vec<String> = d.systems().iter().map(|s| s.to_string()).collect();
            prop_assert!(fingerprints.insert(fp), "duplicate equivalence class");
        }
        Ok(())
    });
}

#[test]
fn cheapest_enumerated_design_is_never_cheaper_than_optimum() {
    prop::check(&Config::with_cases(96), gen_seed, |seed| {
        let mut scenario = build_scenario(seed);
        scenario.objectives = vec![Objective::MinimizeCost];
        let mut engine = Engine::new(scenario.clone()).expect("compiles");
        let designs = engine.enumerate_designs(64, true).expect("runs");
        if designs.len() >= 64 {
            return Ok(()); // truncated: the sample may miss the optimum
        }
        let mut engine = Engine::new(scenario.clone()).expect("compiles");
        if let Ok(result) = engine.optimize().expect("runs") {
            let enumerated_min = designs.iter().map(|d| d.total_cost_usd).min();
            if let Some(min_cost) = enumerated_min {
                prop_assert!(
                    result.design.total_cost_usd <= min_cost,
                    "optimizer ${} worse than enumerated ${min_cost}",
                    result.design.total_cost_usd
                );
            }
        }
        Ok(())
    });
}
