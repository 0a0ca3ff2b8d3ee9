//! Engine queries under `NETARCH_VERIFY_PROOFS`.
//!
//! Every test in this binary switches the engine into verified-solving
//! mode: the encoder records DRAT proofs, mirrors every asserted clause,
//! and re-validates each verdict with the independent checker — SAT models
//! are re-evaluated against the CNF, UNSAT verdicts must carry an accepted
//! refutation, and any discrepancy panics. A passing suite means the
//! engine's feasibility answers and diagnoses are all certified, not just
//! asserted.
//!
//! All tests set the variable to the same value, so the usual set-env-in-
//! parallel-tests hazard does not apply; keep it that way when adding
//! tests here.

use netarch_core::prelude::*;

fn enable_verification() {
    std::env::set_var("NETARCH_VERIFY_PROOFS", "1");
}

/// The same small-but-complete scenario the engine unit tests use: two
/// monitoring systems (one needing a NIC feature), two NIC models, one
/// load balancer.
fn test_scenario() -> Scenario {
    let mut catalog = Catalog::new();
    catalog
        .add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .solves("detect_queue_length")
                .requires("needs-nic-timestamps", Condition::nics_have("NIC_TIMESTAMPS"))
                .cost(400)
                .build(),
        )
        .unwrap();
    catalog
        .add_system(
            SystemSpec::builder("PINGMESH", Category::Monitoring)
                .solves("detect_queue_length")
                .cost(100)
                .build(),
        )
        .unwrap();
    catalog
        .add_system(
            SystemSpec::builder("ECMP", Category::LoadBalancer).solves("load_balancing").build(),
        )
        .unwrap();
    catalog
        .add_ordering(OrderingEdge::strict("SIMON", "PINGMESH", Dimension::MonitoringQuality))
        .unwrap();
    catalog
        .add_ordering(OrderingEdge::strict("PINGMESH", "SIMON", Dimension::DeploymentEase))
        .unwrap();
    catalog
        .add_hardware(
            HardwareSpec::builder("NIC_TS", HardwareKind::Nic)
                .feature("NIC_TIMESTAMPS")
                .cost(900)
                .build(),
        )
        .unwrap();
    catalog
        .add_hardware(HardwareSpec::builder("NIC_PLAIN", HardwareKind::Nic).cost(300).build())
        .unwrap();
    Scenario::new(catalog)
        .with_workload(Workload::builder("app").needs("detect_queue_length").build())
        .with_role(Category::Monitoring, RoleRule::Required)
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC_TS"), HardwareId::new("NIC_PLAIN")],
            num_servers: 4,
            ..Inventory::default()
        })
}

#[test]
fn feasible_check_verifies_its_model() {
    enable_verification();
    let mut engine = Engine::new(test_scenario()).unwrap();
    let outcome = engine.check().unwrap();
    let design = outcome.design().expect("feasible");
    assert!(design.selection(&Category::Monitoring).is_some());
}

#[test]
fn infeasibility_diagnosis_verifies_every_unsat_verdict() {
    // Diagnosis shrinks the conflict via repeated assumption solves — every
    // intermediate UNSAT verdict must carry an accepted proof, not just the
    // final one.
    enable_verification();
    let scenario = test_scenario()
        .with_pin(Pin::Require(SystemId::new("SIMON")))
        .with_pin(Pin::Forbid(SystemId::new("SIMON")));
    let mut engine = Engine::new(scenario).unwrap();
    let outcome = engine.check().unwrap();
    let diagnosis = outcome.diagnosis().expect("infeasible");
    let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains(&"pin:require:SIMON"));
    assert!(labels.contains(&"pin:forbid:SIMON"));
    assert_eq!(diagnosis.conflicts.len(), 2);
}

#[test]
fn requirement_conflict_diagnosis_is_certified() {
    enable_verification();
    let mut scenario = test_scenario().with_pin(Pin::Require(SystemId::new("SIMON")));
    scenario.inventory.nic_candidates = vec![HardwareId::new("NIC_PLAIN")];
    let mut engine = Engine::new(scenario).unwrap();
    let outcome = engine.check().unwrap();
    let diagnosis = outcome.diagnosis().expect("infeasible");
    let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
    assert!(
        labels.contains(&"req:SIMON:needs-nic-timestamps"),
        "diagnosis should name the NIC-timestamp rule, got {labels:?}"
    );
}

#[test]
fn optimization_runs_fully_verified() {
    // MaxSAT drives many solves (the descent's bound probes);
    // all of them flow through the verified encoder.
    enable_verification();
    let scenario =
        test_scenario().with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality));
    let mut engine = Engine::new(scenario).unwrap();
    let result = engine.optimize().unwrap().expect("feasible");
    assert_eq!(result.design.selection(&Category::Monitoring).unwrap().as_str(), "SIMON");
}

#[test]
fn rule_subset_probes_are_certified() {
    enable_verification();
    let scenario = test_scenario()
        .with_pin(Pin::Require(SystemId::new("SIMON")))
        .with_pin(Pin::Forbid(SystemId::new("SIMON")));
    let mut engine = Engine::new(scenario).unwrap();
    assert!(engine.check_rule_subset(&["pin:require:SIMON"]).unwrap());
    assert!(!engine
        .check_rule_subset(&["pin:require:SIMON", "pin:forbid:SIMON"])
        .unwrap());
}

#[test]
fn budget_verdicts_are_certified() {
    // The cheapest design is PINGMESH plus four NIC_PLAIN: $100 + 4 × $300.
    enable_verification();
    let mut engine = Engine::new(test_scenario().with_budget(1_000)).unwrap();
    let outcome = engine.check().unwrap();
    let diagnosis = outcome.diagnosis().expect("no design fits $1,000");
    let labels: Vec<&str> = diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains(&"budget"), "diagnosis should name the budget, got {labels:?}");

    let scenario = test_scenario().with_budget(1_300).with_objective(Objective::MinimizeCost);
    let mut engine = Engine::new(scenario).unwrap();
    let design = engine.check().unwrap().design().expect("$1,300 fits").clone();
    assert!(design.total_cost_usd <= 1_300);
    let result = engine.optimize().unwrap().expect("feasible");
    assert_eq!(result.design.total_cost_usd, 1_300);
    assert_eq!(result.design.selection(&Category::Monitoring).unwrap().as_str(), "PINGMESH");
    assert_eq!(result.design.hardware_for(HardwareKind::Nic).unwrap().as_str(), "NIC_PLAIN");
}
