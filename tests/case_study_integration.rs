//! Integration tests spanning corpus + core: the §2.3 case study and the
//! §5.1 queries, asserted end-to-end. These are the machine-checked
//! versions of experiments E4/E5 (see EXPERIMENTS.md).

use netarch::core::baseline::validate_design;
use netarch::core::compile::compile;
use netarch::core::prelude::*;
use netarch::corpus::case_study;
use netarch::logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch::logic::Soft;
use netarch::sat::SolveResult;

#[test]
fn naive_design_is_rejected_with_the_ecmp_bound_in_the_diagnosis() {
    let mut engine = Engine::new(case_study::naive_scenario()).expect("compiles");
    let outcome = engine.check().expect("runs");
    let diagnosis = outcome.diagnosis().expect("naive design must be infeasible");
    let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
    assert!(
        labels.contains(&"pin:require:ECMP"),
        "diagnosis must implicate the ECMP pin: {labels:?}"
    );
    assert!(
        labels
            .iter()
            .any(|l| l.starts_with("bound:inference_app:load-balancing-quality")),
        "diagnosis must implicate the Listing 3 bound: {labels:?}"
    );
}

#[test]
fn optimized_case_study_design_validates_and_meets_the_narrative() {
    let mut engine = Engine::new(case_study::scenario()).expect("compiles");
    let result = engine.optimize().expect("runs").expect("feasible");
    let design = &result.design;

    // Independent semantic validation (no SAT involved).
    assert_eq!(validate_design(&case_study::scenario(), design), vec![]);

    // All five §2.3 roles filled.
    for cat in [
        Category::VirtualSwitch,
        Category::NetworkStack,
        Category::CongestionControl,
        Category::LoadBalancer,
        Category::Monitoring,
    ] {
        assert!(design.selection(&cat).is_some(), "role {cat} unfilled");
    }

    // The Listing 3 bound: the LB is at least as good as packet spraying.
    let lb = design.selection(&Category::LoadBalancer).unwrap();
    let scenario = case_study::scenario();
    if lb.as_str() != "PACKET_SPRAY" {
        use netarch::core::ordering::Comparison;
        let cmp = scenario.catalog.order().compare(
            lb,
            &SystemId::new("PACKET_SPRAY"),
            &Dimension::LoadBalancingQuality,
            &scenario,
        );
        assert!(
            matches!(cmp, Comparison::Better | Comparison::Equal),
            "{lb} vs PACKET_SPRAY: {cmp:?}"
        );
    }

    // §2.3 ripple: if spraying was chosen, the NIC has reorder buffers.
    if design.includes(&SystemId::new("PACKET_SPRAY")) {
        let nic = design.hardware_for(HardwareKind::Nic).expect("nic chosen");
        let spec = scenario.catalog.hardware(nic).unwrap();
        assert!(
            spec.has_feature(&Feature::new("REORDER_BUFFER")),
            "spraying without reorder buffers on {nic}"
        );
    }

    // Lexicographic objectives: top level (latency) fully satisfied.
    assert_eq!(result.levels[0].penalty, 0, "latency level should be clean");

    // Resource accounting holds.
    let cores = design.resources.get(&Resource::Cores).expect("cores tracked");
    assert!(cores.used >= 2_800, "workload peak must be counted");
    assert!(cores.used <= cores.capacity.unwrap());
}

#[test]
fn query1_frozen_servers_still_feasible_and_scavenger_caveat_binds() {
    // Freeze the server model from today's optimum, add the batch load.
    let mut engine = Engine::new(case_study::scenario()).expect("compiles");
    let today = engine.optimize().expect("runs").expect("feasible");
    let server = today.design.hardware_for(HardwareKind::Server).unwrap().clone();

    let mut tomorrow = case_study::scenario().with_workload(case_study::batch_workload());
    tomorrow.inventory.server_candidates = vec![server];
    let mut engine = Engine::new(tomorrow.clone()).expect("compiles");
    let result = engine.optimize().expect("runs").expect("feasible");

    // The batch workload carries buffer-filling traffic, so a delay-based
    // CCA (Swift/Timely/Vegas) is only allowed with deep-buffer switches.
    let cc = result.design.selection(&Category::CongestionControl).unwrap();
    if ["SWIFT", "TIMELY", "VEGAS"].contains(&cc.as_str()) {
        let switch = result.design.hardware_for(HardwareKind::Switch).unwrap();
        let spec = tomorrow.catalog.hardware(switch).unwrap();
        assert!(
            spec.has_feature(&Feature::new("DEEP_BUFFERS")),
            "delay-based {cc} deployed without deep buffers against buffer-filling traffic"
        );
    }
    assert_eq!(validate_design(&tomorrow, &result.design), vec![]);
}

#[test]
fn query2_pinning_sonata_costs_more_but_stays_feasible() {
    let mut free_engine = Engine::new(case_study::scenario()).expect("compiles");
    let free = free_engine.optimize().expect("runs").expect("feasible");

    let pinned_scenario = case_study::scenario().with_pin(Pin::Require(SystemId::new("SONATA")));
    let mut pinned_engine = Engine::new(pinned_scenario.clone()).expect("compiles");
    let pinned = pinned_engine.optimize().expect("runs").expect("feasible");

    assert!(pinned.design.includes(&SystemId::new("SONATA")));
    // Sonata needs a P4 switch: the engine must route hardware accordingly.
    let switch = pinned.design.hardware_for(HardwareKind::Switch).unwrap();
    let spec = pinned_scenario.catalog.hardware(switch).unwrap();
    assert!(spec.has_feature(&Feature::new("P4")));
    // Pinning can never make the optimum cheaper.
    assert!(pinned.design.total_cost_usd >= free.design.total_cost_usd);
    assert_eq!(validate_design(&pinned_scenario, &pinned.design), vec![]);
}

#[test]
fn query3_cxl_forces_a_cxl_capable_server() {
    let scenario = case_study::scenario()
        .with_role(Category::Custom("memory-pooling".into()), RoleRule::Required)
        .with_pin(Pin::Require(SystemId::new("CXL_POOL")));
    let mut engine = Engine::new(scenario.clone()).expect("compiles");
    let result = engine.optimize().expect("runs").expect("feasible");
    let server = result.design.hardware_for(HardwareKind::Server).unwrap();
    let spec = scenario.catalog.hardware(server).unwrap();
    assert!(
        spec.has_feature(&Feature::new("CXL")),
        "CXL pooling on non-CXL server {server}"
    );
}

#[test]
fn engine_designs_always_pass_independent_validation() {
    // Several scenario variants; every feasible engine answer must
    // survive the semantic validator (SAT encoding ↔ semantics agreement).
    let variants: Vec<Scenario> = vec![
        case_study::scenario(),
        case_study::scenario().with_workload(case_study::batch_workload()),
        case_study::scenario().with_pin(Pin::Require(SystemId::new("SIMON"))),
        case_study::scenario().with_pin(Pin::Forbid(SystemId::new("PACKET_SPRAY"))),
        case_study::scenario().with_budget(2_500_000),
    ];
    for (i, scenario) in variants.into_iter().enumerate() {
        let mut engine = Engine::new(scenario.clone()).expect("compiles");
        if let Outcome::Feasible(design) = engine.check().expect("runs") {
            let violations = validate_design(&scenario, &design);
            assert!(violations.is_empty(), "variant {i}: {violations:?}");
        }
        if let Ok(result) = engine.optimize().expect("runs") {
            let violations = validate_design(&scenario, &result.design);
            assert!(violations.is_empty(), "variant {i} optimized: {violations:?}");
        }
    }
}

#[test]
fn forbidding_the_best_lb_switches_to_a_fabric_scheme() {
    let scenario = case_study::scenario().with_pin(Pin::Forbid(SystemId::new("PACKET_SPRAY")));
    let mut engine = Engine::new(scenario.clone()).expect("compiles");
    let result = engine.optimize().expect("runs").expect("feasible");
    let lb = result.design.selection(&Category::LoadBalancer).unwrap();
    // Must still beat PACKET_SPRAY per the bound: CONGA/HULA/DRILL.
    assert!(
        ["CONGA", "HULA", "DRILL"].contains(&lb.as_str()),
        "unexpected LB {lb}"
    );
    assert_eq!(validate_design(&scenario, &result.design), vec![]);
}

#[test]
fn budgeted_case_study_checks_optimizes_and_plans_within_budget() {
    // archbench's realistic-budget op: 64 servers, a budget 10% over
    // their cheapest design.
    let mut scenario = case_study::scenario().with_budget(1_212_000);
    scenario.inventory.num_servers = 64;
    let mut engine = Engine::new(scenario.clone()).expect("compiles");
    let outcome = engine.check().expect("runs");
    let design = outcome.design().expect("a design fits the budget");
    assert!(design.total_cost_usd <= 1_212_000, "{}", design.total_cost_usd);
    assert_eq!(validate_design(&scenario, design), vec![]);

    let result = engine.optimize().expect("runs").expect("feasible");
    assert!(result.design.total_cost_usd <= 1_212_000, "{}", result.design.total_cost_usd);
    assert_eq!(validate_design(&scenario, &result.design), vec![]);

    let plan = engine.plan_capacity(256).expect("compiles").expect("a fleet fits");
    assert_eq!(plan.servers_needed, 44);
}

#[test]
fn capacity_planning_is_bounded_by_the_scenario_not_the_request() {
    // The fleet domain stops at the largest fleet any design needs (47
    // servers here: the 2,800 workload cores plus every system's core
    // demand, on 64-core servers), so a request for up to u64::MAX servers
    // finds the fleet one for 256 does.
    let mut engine = Engine::new(case_study::scenario()).expect("compiles");
    let bounded = engine.plan_capacity(256).expect("compiles").expect("a fleet fits");
    let unbounded = engine.plan_capacity(u64::MAX).expect("compiles").expect("a fleet fits");
    assert_eq!(bounded.servers_needed, 44);
    assert_eq!(unbounded.servers_needed, 44);
}

/// Rule labels blamed when the case study with a $1,000,000 budget and
/// `servers` servers is checked.
fn blame_at_a_tight_budget(servers: u64) -> Vec<String> {
    let mut scenario = case_study::scenario().with_budget(1_000_000);
    scenario.inventory.num_servers = servers;
    let mut engine = Engine::new(scenario).expect("compiles");
    let outcome = engine.check().expect("runs");
    let diagnosis = outcome.diagnosis().expect("no server fleet fits the budget");
    let mut labels: Vec<String> = diagnosis.conflicts.iter().map(|c| c.label.clone()).collect();
    labels.sort();
    labels
}

#[test]
fn huge_server_counts_blame_the_budget_not_wrapped_capacity() {
    // 64 cores × 2^62 servers overflows u64: unchecked, it panicked in
    // debug builds and wrapped to a capacity of 0 in release, blaming the
    // core-capacity rules. A capacity past u64::MAX holds any demand, so
    // the answer must be the one 2^40 servers give: the fleet is over
    // budget.
    let expected = blame_at_a_tight_budget(1 << 40);
    assert!(expected.iter().any(|l| l == "budget"), "{expected:?}");
    assert!(!expected.iter().any(|l| l.starts_with("resource:")), "{expected:?}");
    assert_eq!(blame_at_a_tight_budget(1 << 62), expected);
}

#[test]
fn measurement_advice_names_the_system_the_catalog_lacks() {
    // Hypothesizing an ordering edge over an unknown system must blame
    // that system, in whichever argument position it appears.
    let engine = Engine::new(case_study::scenario()).expect("compiles");
    let known = SystemId::new("ACCELNET");
    let ghost = SystemId::new("GHOST_SYSTEM");
    for (a, b) in [(&known, &ghost), (&ghost, &known)] {
        let err = engine
            .advise_measurement(a, b, &Dimension::Latency)
            .expect_err("GHOST_SYSTEM is not in the catalog");
        assert_eq!(err, CompileError::UnknownSystem(ghost.clone()), "advise({a}, {b})");
    }
}

/// Every objective level's optimum on a fresh compile, descended in order
/// as `Engine::optimize` does. With `strip`, each soft first leaves the
/// at-most-one group the compiler put it in, so the totalizers trust no
/// group. `None` when the scenario is infeasible.
fn level_penalties(scenario: &Scenario, strip: bool) -> Option<Vec<u64>> {
    let mut c = compile(scenario).expect("compiles");
    let mut base = c.all_selectors();
    if c.encoder.solve_with(&base) != SolveResult::Sat {
        return None;
    }
    let gate = c.encoder.new_selector();
    let mut penalties = Vec::new();
    for level in &c.objective_levels {
        let softs = level
            .softs
            .iter()
            .map(|s| if strip { Soft::new(s.weight, s.formula.clone()) } else { s.clone() })
            .collect();
        let softs = compile_softs(&mut c.encoder, softs).expect("no overflow");
        match minimize_under(&mut c.encoder, &softs, &base, gate) {
            MaxSatOutcome::Optimal { cost, .. } => penalties.push(cost),
            other => panic!("{:?} (strip: {strip}): {other:?}", level.objective),
        }
        base.push(softs.activation());
    }
    Some(penalties)
}

#[test]
fn grouped_objectives_match_ungrouped_penalties_on_the_case_study() {
    // The cost and dimension levels count each role category and hardware
    // slot as one at-most-one leaf. The same levels with every soft in its
    // own group must reach the same optima, and so must the engine.
    let three_levels = case_study::scenario();
    let mut cost_only = case_study::scenario();
    cost_only.objectives = vec![Objective::MinimizeCost];
    let mut budgeted = case_study::scenario().with_budget(1_212_000);
    budgeted.inventory.num_servers = 64;
    for (name, scenario) in [
        ("three levels", three_levels),
        ("minimize_cost", cost_only),
        ("64 servers under $1,212,000", budgeted),
    ] {
        let grouped = level_penalties(&scenario, false).expect("feasible");
        assert_eq!(Some(grouped.clone()), level_penalties(&scenario, true), "{name}");
        let mut engine = Engine::new(scenario).expect("compiles");
        let report = engine.optimize().expect("runs").expect("feasible");
        let penalties: Vec<u64> = report.levels.iter().map(|l| l.penalty).collect();
        assert_eq!(penalties, grouped, "{name}");
    }
}
