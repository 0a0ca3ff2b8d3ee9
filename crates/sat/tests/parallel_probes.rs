//! Differential property sweep for the persistent probe pool.
//!
//! Over seeded random 3-SAT formulas, rounds of probes dispatched through a
//! [`ProbePool`] must agree with direct sequential solves of the same
//! (formula, assumptions) pairs — for 1, 2, and 4 seats, in deterministic
//! mode (where every seat must reach a decisive verdict) and in racing mode
//! (where cancelled seats may report `Unknown`, but decisive answers must
//! still match the oracle), once with every variable frozen and once under
//! hostile inprocessing with only the probed variables frozen.
//! Deterministic repeat runs must be bit-identical.
//!
//! All randomness is seeded — running the sweep twice explores the same
//! formulas.

use netarch_rt::Rng;
use netarch_sat::{
    lit_value_in, Lit, ProbePool, ProbePoolConfig, SolveResult, Solver, SolverConfig, Var,
};
use std::sync::Arc;

struct Case {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// Assumption sets, one per probe.
    probes: Vec<Vec<Lit>>,
}

fn gen_case(rng: &mut Rng, max_probes: usize) -> Case {
    let num_vars = rng.gen_range(8..=20usize);
    let num_clauses = (num_vars as f64 * (3.0 + rng.gen_range(0..=20u32) as f64 / 10.0)) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l: &Lit| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        clauses.push(clause);
    }
    let probes = (0..rng.gen_range(1..=max_probes))
        .map(|_| {
            let n = rng.gen_range(0..=3usize);
            let mut lits: Vec<Lit> = (0..n)
                .map(|_| Lit::new(Var::from_index(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                .collect();
            lits.sort_by_key(|l| l.var().index());
            lits.dedup_by_key(|l| l.var().index());
            lits
        })
        .collect();
    Case { num_vars, clauses, probes }
}

fn oracle_verdict(case: &Case, assumptions: &[Lit]) -> SolveResult {
    let mut s = Solver::with_config(SolverConfig::default());
    s.ensure_vars(case.num_vars);
    for c in &case.clauses {
        s.add_clause(c.iter().copied());
    }
    s.solve_with(assumptions)
}

fn model_satisfies(case: &Case, assumptions: &[Lit], model: &[Option<bool>]) -> bool {
    let lit_true = |l: &Lit| lit_value_in(model, *l) == Some(true);
    case.clauses.iter().all(|c| c.iter().any(lit_true)) && assumptions.iter().all(lit_true)
}

/// Variables the case's probes assume — the only ones a caller must freeze.
fn probe_vars(case: &Case) -> Vec<Var> {
    let mut vars: Vec<Var> = case.probes.iter().flatten().map(|l| l.var()).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

#[test]
fn pool_rounds_agree_with_sequential_oracle() {
    // Two inputs. The default configuration with every variable frozen,
    // and the most hostile inprocessing schedule (inprocess every restart,
    // restart every conflict, chronological backtracking on) with only the
    // probe variables frozen — the freeze set the engine hands its pools —
    // so seat BVE eliminates variables and every SAT model must come back
    // reconstructed.
    let aggressive = SolverConfig {
        inprocess_interval: 1,
        restart_base: 1,
        chrono_threshold: 1,
        ..SolverConfig::default()
    };
    let mut rng = Rng::seed_from_u64(0x0092_0BE5);
    let mut eliminated = 0;
    for hostile in [false, true] {
        for seats in [1usize, 2, 4] {
            for deterministic in [true, false] {
                for case_idx in 0..25 {
                    let case = gen_case(&mut rng, seats);
                    let (base, frozen) = if hostile {
                        (aggressive.clone(), probe_vars(&case))
                    } else {
                        (SolverConfig::default(), (0..case.num_vars).map(Var::from_index).collect())
                    };
                    let mut pool = ProbePool::new(ProbePoolConfig {
                        seats,
                        num_vars: case.num_vars,
                        clauses: Arc::new(case.clauses.clone()),
                        base,
                        frozen,
                        deterministic,
                        seed: case_idx,
                        conflict_budget: None,
                    });
                    // Two rounds over the same probe set: persistent seats
                    // must answer consistently as their clause databases
                    // warm up.
                    for round in 0..2 {
                        let outcomes = pool.solve_round(&case.probes);
                        for (probe, outcome) in case.probes.iter().zip(&outcomes) {
                            let expected = oracle_verdict(&case, probe);
                            let label = format!(
                                "hostile={hostile} seats={seats} det={deterministic} \
                                 case={case_idx} round={round}"
                            );
                            match outcome.result {
                                SolveResult::Unknown => {
                                    assert!(!deterministic, "{label}: unexpected Unknown");
                                }
                                got => assert_eq!(got, expected, "{label}: verdict disagrees"),
                            }
                            if outcome.result == SolveResult::Sat {
                                let model = outcome.model.as_deref().expect("SAT carries a model");
                                assert!(
                                    model_satisfies(&case, probe, model),
                                    "{label}: probe model violates the formula"
                                );
                            }
                        }
                    }
                    let stats = pool.finish();
                    if hostile {
                        eliminated += stats.iter().map(|s| s.eliminated_vars).sum::<u64>();
                    }
                }
            }
        }
    }
    // The hostile input proves nothing unless seats really eliminated
    // variables whose values had to be reconstructed.
    assert!(eliminated > 0, "hostile input never eliminated a variable");
}

#[test]
fn deterministic_pools_are_bit_identical_across_runs() {
    let mut rng = Rng::seed_from_u64(0x0DE7_E2A1);
    for case_idx in 0..10 {
        let case = gen_case(&mut rng, 4);
        let run = || {
            let mut pool = ProbePool::new(ProbePoolConfig {
                seats: 4,
                num_vars: case.num_vars,
                clauses: Arc::new(case.clauses.clone()),
                base: SolverConfig::default(),
                frozen: (0..case.num_vars).map(Var::from_index).collect(),
                deterministic: true,
                seed: 3,
                conflict_budget: None,
            });
            let mut transcript = Vec::new();
            for _ in 0..3 {
                for o in pool.solve_round(&case.probes) {
                    transcript.push((o.result, o.model));
                }
            }
            (transcript, pool.finish())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "case {case_idx}: outcomes drifted between runs");
        assert_eq!(s1, s2, "case {case_idx}: per-seat stats drifted between runs");
    }
}
