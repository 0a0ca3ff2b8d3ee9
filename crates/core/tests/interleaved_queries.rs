//! Differential oracle for the incremental session engine.
//!
//! The engine answers every query on one persistent solver, gating each
//! query's destructive clauses behind an activation literal that is
//! retired afterwards. Correctness criterion: a long-lived session
//! answering a random interleaving of `check` / `optimize` /
//! `enumerate_designs` / `check_rule_subset` / `plan_capacity` must agree,
//! query by query, with a throwaway engine freshly compiled for that
//! single query.
//!
//! Agreement is semantic, not bit-for-bit: feasibility verdicts, optimal
//! per-level penalties, (untruncated) equivalence-class sets and fleet
//! sizes must match; designs and diagnoses may differ as witnesses, so
//! designs are checked by the SAT-free validator and the session's
//! diagnosis is replayed as an UNSAT rule subset on the fresh engine.
//!
//! Capacity answers are also checked against fixed-fleet `check`, which
//! shares no clause with the fleet encoding: without a budget,
//! feasibility only grows with the fleet, so a plan of `k` servers must be
//! feasible at `k` and infeasible at `k − 1`, and an infeasible plan must
//! be infeasible at the bound.

use netarch_core::baseline::validate_design;
use netarch_core::compile::compile;
use netarch_core::prelude::*;
use netarch_logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch_logic::Soft;
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert, prop_assert_eq, Rng};
use netarch_sat::SolveResult;

const CATEGORIES: [Category; 3] = [
    Category::Monitoring,
    Category::LoadBalancer,
    Category::Firewall,
];

const FEATURES: [&str; 2] = ["F0", "F1"];

/// The custom server resource systems demand. Server model 0 never has
/// any, so a demanding system cannot run on it.
const GPU: &str = "gpu";

/// Generation parameters: a small scenario plus an opcode tape.
#[derive(Debug, Clone)]
struct Seed {
    systems_per_category: Vec<u8>, // for the 3 categories
    feature_mask: u8,
    conflict_mask: u8,
    nic_features: [bool; 2],
    needs_mask: u8,
    pins_mask: u8,
    required_roles: u8,
    /// Per server model: (cores, gpu) capacity knobs.
    server_models: Vec<(u8, u8)>,
    /// Per system, in catalog-build order: (cores, gpu) demand knobs.
    demands: Vec<(u8, u8)>,
    peak_cores: u8,
    fleet: u8,
    ops: Vec<u8>,
}

impl_shrink_struct!(Seed {
    systems_per_category,
    feature_mask,
    conflict_mask,
    nic_features,
    needs_mask,
    pins_mask,
    required_roles,
    server_models,
    demands,
    peak_cores,
    fleet,
    ops,
});

fn byte(rng: &mut Rng) -> u8 {
    rng.gen_range(0..=u8::MAX)
}

fn gen_seed(rng: &mut Rng) -> Seed {
    Seed {
        systems_per_category: gen_vec(rng, 3..=3, |r| r.gen_range(1..4u8)),
        feature_mask: rng.gen_range(0..=u8::MAX),
        conflict_mask: rng.gen_range(0..=u8::MAX),
        nic_features: [rng.gen_bool(0.5), rng.gen_bool(0.5)],
        needs_mask: rng.gen_range(0..=u8::MAX),
        pins_mask: rng.gen_range(0..=u8::MAX),
        required_roles: rng.gen_range(0..=u8::MAX),
        server_models: gen_vec(rng, 1..=3, |r| (byte(r), byte(r))),
        // System 0 always demands the gpu server model 0 lacks.
        demands: gen_vec(rng, 9..=9, |r| (byte(r), byte(r)))
            .into_iter()
            .enumerate()
            .map(|(i, (cores, gpu))| (cores, if i == 0 { 1 + gpu % 2 } else { gpu }))
            .collect(),
        peak_cores: rng.gen_range(0..=u8::MAX),
        fleet: rng.gen_range(0..=u8::MAX),
        ops: gen_vec(rng, 3..=6, byte),
    }
}

fn build_scenario(seed: &Seed) -> Scenario {
    let mut catalog = Catalog::new();
    let mut all_ids: Vec<SystemId> = Vec::new();
    let mut index = 0usize;
    for (c, i) in CATEGORIES.iter().zip(0..) {
        // Shrinking may truncate or zero the counts; keep one system per
        // category so the scenario stays structurally comparable.
        let count = seed
            .systems_per_category
            .get(i)
            .copied()
            .unwrap_or(1)
            .max(1);
        for k in 0..count {
            let id = format!("{}_{k}", c.to_string().to_uppercase().replace('-', "_"));
            let (cores, gpu) = seed.demands.get(index).copied().unwrap_or_default();
            // When bit 4 is set, the same cores come in two entries, which
            // the system's demand must add up.
            let split = if cores & 0x10 == 0 {
                0
            } else {
                u64::from(cores % 16) / 2
            };
            let mut b = SystemSpec::builder(id.clone(), c.clone())
                .solves(format!("cap_{c}"))
                .cost(100 * (u64::from(k) + 1))
                .consumes(
                    Resource::Cores,
                    AmountExpr::constant(u64::from(cores % 16) - split),
                )
                .consumes(
                    Resource::Custom(GPU.into()),
                    AmountExpr::constant(u64::from(gpu % 3)),
                );
            if split > 0 {
                b = b.consumes(Resource::Cores, AmountExpr::constant(split));
            }
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
    let mut servers = Vec::new();
    for (k, &(cores, gpu)) in seed.server_models.iter().enumerate() {
        let id = format!("SRV{k}");
        let gpu = if k == 0 { 0 } else { gpu % 3 };
        let spec = HardwareSpec::builder(id.clone(), HardwareKind::Server)
            .numeric("cores", f64::from(16 * (1 + cores % 3)))
            .numeric(GPU, f64::from(gpu))
            .cost(1_000 * (k as u64 + 1))
            .build();
        catalog.add_hardware(spec).unwrap();
        servers.push(HardwareId::new(id));
    }

    let mut workload = Workload::builder("app").peak_cores(8 * u64::from(seed.peak_cores % 8));
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
            server_candidates: servers,
            num_servers: 2 + u64::from(seed.fleet % 5),
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

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Check,
    Optimize,
    Enumerate(usize),
    Subset(u8),
    Capacity(u64),
}

fn decode(byte: u8) -> Op {
    match byte % 5 {
        0 => Op::Check,
        1 => Op::Optimize,
        2 => Op::Enumerate(2 + usize::from(byte / 5) % 3),
        3 => Op::Subset(byte / 5),
        _ => Op::Capacity(1 + u64::from(byte / 5) % 12),
    }
}

/// Candidate rule labels for subset queries. Labels absent from the
/// compiled scenario filter to nothing in `check_rule_subset`, so the
/// pool may safely over-approximate — both engines filter identically.
fn label_pool(scenario: &Scenario) -> Vec<String> {
    let mut pool: Vec<String> = CATEGORIES.iter().map(|c| format!("role:{c}")).collect();
    pool.extend(
        CATEGORIES
            .iter()
            .map(|c| format!("workload:app:needs:cap_{c}")),
    );
    for pin in &scenario.pins {
        pool.push(match pin {
            Pin::Require(id) => format!("pin:require:{id}"),
            Pin::Forbid(id) => format!("pin:forbid:{id}"),
        });
    }
    pool
}

fn fingerprints(designs: &[Design]) -> Vec<Vec<String>> {
    let mut fps: Vec<Vec<String>> = designs
        .iter()
        .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
        .collect();
    fps.sort();
    fps
}

fn session_agrees_with_fresh_engines(seed: &Seed) -> Result<(), String> {
    let scenario = build_scenario(seed);
    let mut session = Engine::new(scenario.clone()).expect("compiles");
    let pool = label_pool(&scenario);
    for &byte in &seed.ops {
        let op = decode(byte);
        let mut fresh = Engine::new(scenario.clone()).expect("compiles");
        match op {
            Op::Check => {
                let a = session.check().expect("runs");
                let b = fresh.check().expect("runs");
                prop_assert_eq!(
                    a.design().is_some(),
                    b.design().is_some(),
                    "feasibility diverged after {op:?}"
                );
                for d in [a.design(), b.design()].into_iter().flatten() {
                    let violations = validate_design(&scenario, d);
                    prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                }
                if let Some(diagnosis) = a.diagnosis() {
                    let labels: Vec<&str> = diagnosis
                        .conflicts
                        .iter()
                        .map(|c| c.label.as_str())
                        .collect();
                    prop_assert!(!labels.is_empty(), "empty session diagnosis");
                    prop_assert!(
                        !fresh.check_rule_subset(&labels).expect("runs"),
                        "session diagnosis {labels:?} is satisfiable on a fresh engine"
                    );
                }
            }
            Op::Optimize => {
                let a = session.optimize().expect("runs");
                let b = fresh.optimize().expect("runs");
                match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        let pa: Vec<u64> = ra.levels.iter().map(|l| l.penalty).collect();
                        let pb: Vec<u64> = rb.levels.iter().map(|l| l.penalty).collect();
                        prop_assert_eq!(pa, pb, "optimal level penalties diverged");
                        for d in [&ra.design, &rb.design] {
                            let violations = validate_design(&scenario, d);
                            prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        return Err(format!(
                            "optimize feasibility diverged: session ok={} fresh ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ))
                    }
                }
            }
            Op::Enumerate(limit) => {
                let a = session.enumerate_designs(limit, false).expect("runs");
                let b = fresh.enumerate_designs(limit, false).expect("runs");
                prop_assert_eq!(a.len(), b.len(), "class count diverged at limit {limit}");
                if a.len() < limit {
                    // Both exhaustive: the class sets must coincide.
                    prop_assert_eq!(
                        fingerprints(&a),
                        fingerprints(&b),
                        "equivalence classes diverged"
                    );
                }
                for d in &a {
                    let violations = validate_design(&scenario, d);
                    prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                }
            }
            Op::Subset(mask) => {
                let labels: Vec<&str> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (mask >> (i % 8)) & 1 == 1)
                    .map(|(_, l)| l.as_str())
                    .collect();
                prop_assert_eq!(
                    session.check_rule_subset(&labels).expect("runs"),
                    fresh.check_rule_subset(&labels).expect("runs"),
                    "rule-subset verdict diverged for {labels:?}"
                );
            }
            Op::Capacity(max) => {
                let a = session.plan_capacity(max).expect("runs");
                let b = fresh.plan_capacity(max).expect("runs");
                let sized = |servers: u64| {
                    let mut sized = scenario.clone();
                    sized.inventory.num_servers = servers;
                    sized
                };
                let feasible_at = |servers: u64| {
                    let mut fixed = Engine::new(sized(servers)).expect("compiles");
                    fixed.check().expect("runs").design().is_some()
                };
                match (a, b) {
                    (Ok(pa), Ok(pb)) => {
                        let k = pa.servers_needed;
                        prop_assert_eq!(k, pb.servers_needed, "fleet sizes diverged at max {max}");
                        prop_assert!(k <= max, "planned {k} servers over the bound {max}");
                        for d in [&pa.design, &pb.design] {
                            let violations = validate_design(&sized(k), d);
                            prop_assert!(violations.is_empty(), "{violations:?}\n{d}");
                        }
                        prop_assert!(
                            feasible_at(k),
                            "check infeasible at the planned {k} servers"
                        );
                        prop_assert!(
                            k == 1 || !feasible_at(k - 1),
                            "check feasible at {} servers, below the plan",
                            k - 1
                        );
                    }
                    (Err(diagnosis), Err(_)) => {
                        prop_assert!(!diagnosis.conflicts.is_empty(), "empty capacity diagnosis");
                        prop_assert!(
                            !feasible_at(max),
                            "capacity infeasible but check feasible at {max} servers"
                        );
                    }
                    (a, b) => {
                        return Err(format!(
                            "capacity feasibility diverged at max {max}: session ok={} fresh ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn interleaved_session_queries_match_fresh_engines() {
    prop::check(
        &Config::with_cases(48),
        gen_seed,
        session_agrees_with_fresh_engines,
    );
}

/// Every objective level's optimum on a fresh compile, descended in order
/// as `Engine::optimize` does. With `strip`, each soft first leaves the
/// at-most-one group the compiler put it in, so the totalizers trust no
/// group. `None` when the scenario is infeasible.
fn level_penalties(scenario: &Scenario, strip: bool) -> Result<Option<Vec<u64>>, String> {
    let mut c = compile(scenario).map_err(|e| e.to_string())?;
    let mut base = c.all_selectors();
    if c.encoder.solve_with(&base) != SolveResult::Sat {
        return Ok(None);
    }
    let gate = c.encoder.new_selector();
    let mut penalties = Vec::new();
    for level in &c.objective_levels {
        let softs = level
            .softs
            .iter()
            .map(|s| {
                if strip {
                    Soft::new(s.weight, s.formula.clone())
                } else {
                    s.clone()
                }
            })
            .collect();
        let softs = compile_softs(&mut c.encoder, softs).map_err(|e| e.to_string())?;
        match minimize_under(&mut c.encoder, &softs, &base, gate) {
            MaxSatOutcome::Optimal { cost, .. } => penalties.push(cost),
            other => return Err(format!("{:?} (strip: {strip}): {other:?}", level.objective)),
        }
        base.push(softs.activation());
    }
    Ok(Some(penalties))
}

/// The compiler groups each role category's and hardware slot's cost softs
/// into one at-most-one totalizer leaf. On random scenarios (optional and
/// required roles, pins, conflicts, one to three server models) the levels
/// with every soft in its own group must reach the same optima, and so
/// must the engine.
#[test]
fn grouped_objectives_match_ungrouped_penalties() {
    prop::check(&Config::with_cases(64), gen_seed, |seed| {
        let scenario = build_scenario(seed);
        let grouped = level_penalties(&scenario, false)?;
        let stripped = level_penalties(&scenario, true)?;
        prop_assert_eq!(grouped.clone(), stripped, "grouped vs ungrouped penalties");
        let mut engine = Engine::new(scenario).map_err(|e| e.to_string())?;
        let engine_penalties = engine
            .optimize()
            .map_err(|e| e.to_string())?
            .ok()
            .map(|report| {
                report
                    .levels
                    .iter()
                    .map(|l| l.penalty)
                    .collect::<Vec<u64>>()
            });
        prop_assert_eq!(engine_penalties, grouped, "engine vs grouped penalties");
        Ok(())
    });
}

/// Retirements between the session's `collect_garbage` compactions (the
/// engine's `GC_EVERY`).
const GC_EVERY: u64 = 8;

/// Warm-session compaction: every `GC_EVERY` retired activation literals
/// the engine runs the solver's level-0 garbage collection, which rebuilds
/// the clause database and watch lists under the live session. A session
/// replaying its tape across such a compaction must keep answering
/// identically to fresh engines, on the original compilation and the
/// fleet its capacity query built. Each replay shifts the enumeration
/// limits so the queries are new (not memoized) and retire fresh
/// activation literals.
#[test]
fn session_answers_identically_across_garbage_collection() {
    let seed = Seed {
        systems_per_category: vec![2, 2, 2],
        feature_mask: 0b0101,
        conflict_mask: 0b0010,
        nic_features: [true, false],
        needs_mask: 0b011,
        pins_mask: 0,
        required_roles: 0b001,
        // One 32-core model for the workload's 40 cores.
        server_models: vec![(1, 0)],
        demands: Vec::new(),
        peak_cores: 5,
        fleet: 0,
        // check, optimize, enumerate(2), subset, enumerate(3), check,
        // enumerate(4), optimize, enumerate(2), capacity(3)
        ops: vec![0, 1, 2, 3, 7, 0, 12, 1, 2, 14],
    };
    let scenario = build_scenario(&seed);
    let mut session = Engine::new(scenario.clone()).expect("compiles");
    let pool = label_pool(&scenario);
    let mut pass = 0;
    let mut compacted = false;
    // Replay until a compaction has run, then once more on the compacted
    // clause database.
    while !compacted {
        compacted = session.stats().retired_activations >= GC_EVERY;
        assert!(
            pass < 8,
            "the tape never retired {GC_EVERY} activation literals"
        );
        for &byte in &seed.ops {
            let mut fresh = Engine::new(scenario.clone()).expect("compiles");
            match decode(byte) {
                Op::Check => {
                    let a = session.check().expect("runs");
                    let b = fresh.check().expect("runs");
                    assert_eq!(a.design().is_some(), b.design().is_some());
                }
                Op::Optimize => {
                    let a = session.optimize().expect("runs");
                    let b = fresh.optimize().expect("runs");
                    match (a, b) {
                        (Ok(ra), Ok(rb)) => {
                            let pa: Vec<u64> = ra.levels.iter().map(|l| l.penalty).collect();
                            let pb: Vec<u64> = rb.levels.iter().map(|l| l.penalty).collect();
                            assert_eq!(pa, pb, "optimal penalties diverged in pass {pass}");
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!(
                            "optimize feasibility diverged: session ok={} fresh ok={}",
                            a.is_ok(),
                            b.is_ok()
                        ),
                    }
                }
                Op::Enumerate(limit) => {
                    let limit = limit + 3 * pass;
                    let a = session.enumerate_designs(limit, false).expect("runs");
                    let b = fresh.enumerate_designs(limit, false).expect("runs");
                    assert_eq!(a.len(), b.len(), "class count diverged in pass {pass}");
                    if a.len() < limit {
                        // Both exhaustive: the class sets must coincide.
                        assert_eq!(fingerprints(&a), fingerprints(&b));
                    }
                }
                Op::Subset(mask) => {
                    let labels: Vec<&str> = pool
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (mask >> (i % 8)) & 1 == 1)
                        .map(|(_, l)| l.as_str())
                        .collect();
                    assert_eq!(
                        session.check_rule_subset(&labels).expect("runs"),
                        fresh.check_rule_subset(&labels).expect("runs"),
                    );
                }
                Op::Capacity(max) => {
                    let a = session.plan_capacity(max).expect("runs");
                    let b = fresh.plan_capacity(max).expect("runs");
                    assert_eq!(
                        a.ok().map(|p| p.servers_needed),
                        b.ok().map(|p| p.servers_needed),
                        "fleet sizes diverged in pass {pass}"
                    );
                }
            }
        }
        pass += 1;
    }
    let stats = session.stats();
    assert!(stats.retired_activations >= GC_EVERY);
    assert!(stats.session_solves > 0);
}

/// Deterministic spot-check of the acceptance interleaving:
/// check → optimize → enumerate → capacity → check on one session.
#[test]
fn acceptance_interleaving_runs_on_one_compile() {
    let seed = Seed {
        systems_per_category: vec![2, 2, 1],
        feature_mask: 0b0101,
        conflict_mask: 0,
        nic_features: [true, false],
        needs_mask: 0b011,
        pins_mask: 0,
        required_roles: 0b001,
        // A 16-core model without gpu and a 48-core one with 2 per server.
        server_models: vec![(0, 0), (2, 2)],
        demands: vec![(3, 1)],
        peak_cores: 6,
        fleet: 0,
        ops: vec![0, 1, 2, 59, 0], // check, optimize, enumerate(2), capacity(12), check
    };
    session_agrees_with_fresh_engines(&seed).unwrap();
}

// ---------------------------------------------------------------------------
// Adversarial query orderings over a sweep-style variant grid
// ---------------------------------------------------------------------------

/// All permutations of `tape`, in a stable order (recursive insertion).
fn permutations(tape: &[u8]) -> Vec<Vec<u8>> {
    if tape.len() <= 1 {
        return vec![tape.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in tape.iter().enumerate() {
        let mut rest = tape.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// The canonical tape: one op of every kind. Byte 13 decodes to
/// `Subset(2)` so the rule-subset query carries a non-trivial mask, and
/// byte 14 to `Capacity(3)`.
const CANONICAL_TAPE: [u8; 5] = [0, 1, 2, 13, 14];

#[test]
fn every_ordering_of_the_canonical_tape_agrees() {
    // A sweep-style grid over scenario knobs (workload needs × required
    // roles × NIC features — the same axes a `sweep` block's choice
    // groups vary) crossed with *every* ordering of the canonical
    // five-op tape. Fail-fast: the first divergent ordering panics with
    // enough context to replay it.
    let orderings = permutations(&CANONICAL_TAPE);
    assert_eq!(orderings.len(), 120);
    for (needs_mask, required_roles) in [(0b011u8, 0b001u8), (0b001, 0b011), (0b111, 0b000)] {
        for nic_features in [[true, false], [false, false]] {
            for ops in &orderings {
                let seed = Seed {
                    systems_per_category: vec![2, 2, 1],
                    feature_mask: 0b0101,
                    conflict_mask: 0b0010,
                    nic_features,
                    needs_mask,
                    pins_mask: 0,
                    required_roles,
                    // 16-core and 32-core models, the second with 2 gpu
                    // per server: the fleet is 2 or 3 servers.
                    server_models: vec![(0, 0), (1, 2)],
                    demands: vec![(5, 1), (0, 0), (7, 2)],
                    peak_cores: 3,
                    fleet: 0,
                    ops: ops.clone(),
                };
                if let Err(e) = session_agrees_with_fresh_engines(&seed) {
                    panic!(
                        "ordering {ops:?} diverged (needs={needs_mask:#05b} \
                         roles={required_roles:#05b} nic={nic_features:?}): {e}"
                    );
                }
            }
        }
    }
}

/// Random scenario × adversarially chosen tape ordering, with shrinking:
/// a failure minimizes both the scenario knobs and the permutation index.
#[derive(Debug, Clone)]
struct OrderingSeed {
    scenario: Seed,
    perm: u8,
}

impl_shrink_struct!(OrderingSeed { scenario, perm });

#[test]
fn random_variants_survive_adversarial_orderings() {
    let orderings = permutations(&CANONICAL_TAPE);
    prop::check(
        &Config::with_cases(24),
        |rng| OrderingSeed {
            scenario: gen_seed(rng),
            perm: rng.gen_range(0..120u8),
        },
        |seed| {
            let mut scenario = seed.scenario.clone();
            scenario.ops = orderings[usize::from(seed.perm) % orderings.len()].clone();
            session_agrees_with_fresh_engines(&scenario)
        },
    );
}
