//! Engine-level differential tests for the portfolio backend.
//!
//! The same scenarios are compiled on the default sequential session
//! backend — the oracle — and on 1-, 2-, and 4-seat portfolio backends in
//! both arbitration modes, and every query answer must agree: same
//! selections and per-level penalties from `optimize` (its MaxSAT descent
//! races on probe seats), the same diagnosis, the
//! same design-class *sets* from `enumerate_designs`, and the same fleet
//! sizes from `plan_capacity`. Backends are pinned via
//! [`Engine::with_backend`] rather than `NETARCH_THREADS` so the tests
//! never mutate process-global environment state (which races with
//! parallel test threads).

use netarch_core::prelude::*;
use netarch_core::query::OptimizedDesign;
use netarch_core::solution::Design;
use netarch_logic::{PortfolioOptions, SolveBackend};

fn portfolio_backend(num_threads: usize, deterministic: bool) -> SolveBackend {
    SolveBackend::Portfolio(PortfolioOptions {
        num_threads,
        deterministic,
        ..PortfolioOptions::default()
    })
}

/// Every portfolio shape under test, labelled for assertion messages.
fn portfolio_backends() -> Vec<(String, SolveBackend)> {
    let mut backends = Vec::new();
    for threads in [1usize, 2, 4] {
        for deterministic in [true, false] {
            backends.push((
                format!("threads={threads} det={deterministic}"),
                portfolio_backend(threads, deterministic),
            ));
        }
    }
    backends
}

/// Two monitoring systems (one needs a NIC feature), two NIC models, one
/// load balancer — the same shape as the engine's unit-test scenario.
fn monitoring_scenario() -> Scenario {
    let mut catalog = Catalog::new();
    catalog
        .add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .solves("detect_queue_length")
                .requires(
                    "needs-nic-timestamps",
                    Condition::nics_have("NIC_TIMESTAMPS"),
                )
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
            SystemSpec::builder("ECMP", Category::LoadBalancer)
                .solves("load_balancing")
                .build(),
        )
        .unwrap();
    catalog
        .add_ordering(OrderingEdge::strict(
            "SIMON",
            "PINGMESH",
            Dimension::MonitoringQuality,
        ))
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
        .add_hardware(
            HardwareSpec::builder("NIC_PLAIN", HardwareKind::Nic)
                .cost(300)
                .build(),
        )
        .unwrap();
    Scenario::new(catalog)
        .with_workload(
            Workload::builder("app")
                .needs("detect_queue_length")
                .build(),
        )
        .with_role(Category::Monitoring, RoleRule::Required)
        .with_inventory(Inventory {
            nic_candidates: vec![HardwareId::new("NIC_TS"), HardwareId::new("NIC_PLAIN")],
            num_servers: 4,
            ..Inventory::default()
        })
}

fn capacity_scenario(peak_cores: u64) -> Scenario {
    let mut catalog = Catalog::new();
    catalog
        .add_system(
            SystemSpec::builder("MONITOR", Category::Monitoring)
                .solves("monitoring")
                .consumes(Resource::Cores, AmountExpr::constant(40))
                .build(),
        )
        .unwrap();
    catalog
        .add_hardware(
            HardwareSpec::builder("SRV32", HardwareKind::Server)
                .numeric("cores", 32.0)
                .cost(5_000)
                .build(),
        )
        .unwrap();
    Scenario::new(catalog)
        .with_workload(
            Workload::builder("app")
                .needs("monitoring")
                .peak_cores(peak_cores)
                .build(),
        )
        .with_inventory(Inventory {
            server_candidates: vec![HardwareId::new("SRV32")],
            num_servers: 1,
            ..Inventory::default()
        })
}

/// Design classes as a backend-order-independent sorted set. Hardware is
/// part of a class's identity only when it was projected on
/// (`include_hardware`); otherwise the hardware in a class is an
/// incidental witness choice and must not enter the comparison.
fn design_set(designs: &[Design], include_hardware: bool) -> Vec<String> {
    let mut keys: Vec<String> = designs
        .iter()
        .map(|d| {
            if include_hardware {
                format!("{:?}|{:?}", d.selections, d.hardware)
            } else {
                format!("{:?}", d.selections)
            }
        })
        .collect();
    keys.sort();
    keys
}

fn optimize_with(scenario: Scenario, backend: SolveBackend) -> Result<OptimizedDesign, Diagnosis> {
    let mut engine = Engine::with_backend(scenario, backend).unwrap();
    engine.optimize().unwrap()
}

#[test]
fn optimize_agrees_across_backends() {
    for objective in [
        Objective::MinimizeCost,
        Objective::MaximizeDimension(Dimension::MonitoringQuality),
    ] {
        let scenario = monitoring_scenario().with_objective(objective);
        let seq = optimize_with(scenario.clone(), SolveBackend::Sequential).expect("feasible");
        for (label, backend) in portfolio_backends() {
            let par = optimize_with(scenario.clone(), backend).expect("feasible");
            assert_eq!(seq.design.selections, par.design.selections, "{label}");
            assert_eq!(seq.design.hardware, par.design.hardware, "{label}");
            assert_eq!(
                seq.levels, par.levels,
                "{label}: per-level penalties must agree"
            );
        }
    }
}

#[test]
fn infeasibility_diagnosis_agrees_across_backends() {
    let scenario = monitoring_scenario()
        .with_pin(Pin::Require(SystemId::new("SIMON")))
        .with_pin(Pin::Forbid(SystemId::new("SIMON")))
        .with_objective(Objective::MinimizeCost);
    let labels = |d: &Diagnosis| {
        let mut l: Vec<String> = d.conflicts.iter().map(|c| c.label.clone()).collect();
        l.sort();
        l
    };
    let seq = optimize_with(scenario.clone(), SolveBackend::Sequential).expect_err("infeasible");
    for (label, backend) in portfolio_backends() {
        let par = optimize_with(scenario.clone(), backend).expect_err("infeasible");
        assert_eq!(labels(&seq), labels(&par), "{label}");
    }
}

#[test]
fn enumeration_agrees_across_backends() {
    for include_hardware in [false, true] {
        let mut seq =
            Engine::with_backend(monitoring_scenario(), SolveBackend::Sequential).unwrap();
        let expected = design_set(
            &seq.enumerate_designs(64, include_hardware).unwrap(),
            include_hardware,
        );
        assert!(
            expected.len() >= 2,
            "scenario must admit several classes: {expected:?}"
        );
        for (label, backend) in portfolio_backends() {
            let mut engine = Engine::with_backend(monitoring_scenario(), backend).unwrap();
            let got = design_set(
                &engine.enumerate_designs(64, include_hardware).unwrap(),
                include_hardware,
            );
            assert_eq!(
                expected, got,
                "{label} hw={include_hardware}: design classes disagree"
            );
        }
    }
}

#[test]
fn capacity_plans_agree_across_backends() {
    for peak in [100u64, 200, 500, 1000] {
        let mut seq_engine =
            Engine::with_backend(capacity_scenario(peak), SolveBackend::Sequential).unwrap();
        let seq = seq_engine.plan_capacity(64).unwrap().expect("feasible");
        for (label, backend) in portfolio_backends() {
            let mut engine = Engine::with_backend(capacity_scenario(peak), backend).unwrap();
            let got = engine.plan_capacity(64).unwrap().expect("feasible");
            assert_eq!(
                seq.servers_needed, got.servers_needed,
                "peak_cores={peak} {label}"
            );
            assert_eq!(
                seq.design.selections, got.design.selections,
                "peak_cores={peak} {label}"
            );
            // The fleet bisection always runs on the warm session solver.
            assert_eq!(
                engine.stats().portfolio_solves,
                0,
                "peak_cores={peak} {label}"
            );
        }
    }
}

#[test]
fn session_queries_survive_portfolio_probes() {
    // Interleave queries on one portfolio-backed engine: the session
    // solver still owns cores, enumeration, and memoization.
    let scenario = monitoring_scenario().with_objective(Objective::MinimizeCost);
    let mut engine = Engine::with_backend(scenario, portfolio_backend(2, true)).unwrap();
    assert!(engine.check().unwrap().design().is_some());
    let opt1 = engine.optimize().unwrap().expect("feasible");
    let classes = engine.enumerate_designs(16, false).unwrap();
    assert!(classes.len() >= 2, "{classes:?}");
    let opt2 = engine.optimize().unwrap().expect("feasible");
    assert_eq!(opt1.design.selections, opt2.design.selections);
    // NETARCH_VERIFY_PROOFS keeps every verdict on the certified session
    // solver, so pool rounds run exactly when proof mode is off.
    assert_eq!(
        engine.stats().portfolio_solves > 0,
        !netarch_logic::proofs_requested()
    );
}

#[test]
fn parallel_loops_fold_worker_effort_into_engine_stats() {
    // Probe seats do real solving; their effort must show up in the
    // engine's aggregate statistics rather than silently vanishing. Every
    // pool round — the descent's opening feasibility broadcast as much as
    // each bound-probing round — dispatches one probe to each of the 4
    // seats, so the folded solve count covers at least 4 solves per
    // counted round.
    let mut engine =
        Engine::with_backend(monitoring_scenario(), portfolio_backend(4, true)).unwrap();
    engine.optimize().unwrap().expect("feasible");
    let stats = engine.stats();
    assert_eq!(
        stats.portfolio_solves > 0,
        !netarch_logic::proofs_requested(),
        "pool rounds must be counted (and proof mode runs none): {stats:?}"
    );
    assert!(
        stats.session_solves >= 4 * stats.portfolio_solves,
        "every seat of every round must be folded into session totals: {stats:?}"
    );
    engine.enumerate_designs(64, false).unwrap();
    assert!(
        engine.stats().session_solves > stats.session_solves,
        "enumeration solves count too"
    );
}
