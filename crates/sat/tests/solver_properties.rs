//! Property-based and stress tests for the CDCL solver.
//!
//! The central oracle is a brute-force evaluator over up to ~14 variables:
//! for random formulas the solver must agree with exhaustive enumeration on
//! satisfiability, returned models must actually satisfy the formula, and
//! unsat cores must themselves be unsatisfiable subsets.

use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{prop_assert, prop_assert_eq, Rng};
use netarch_sat::{enumerate, Lit, SolveResult, Solver, SolverConfig, Var};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A clause as signed variable indices (generator-friendly form).
type RawClause = Vec<(usize, bool)>;

/// A formula: variable count plus clauses over those variables.
type Formula = (usize, Vec<RawClause>);

/// Draws a random formula: 2–10 variables, up to 40 clauses of 1–4
/// literals each.
fn gen_formula(rng: &mut Rng) -> Formula {
    let num_vars = rng.gen_range(2..=10usize);
    let clauses = gen_vec(rng, 0..=40, |r| {
        gen_vec(r, 1..=4, |r| (r.gen_range(0..num_vars), r.gen_bool(0.5)))
    });
    (num_vars, clauses)
}

/// Re-establishes the formula invariant (`var < num_vars`, `num_vars` in
/// brute-force range) after structure-blind shrinking.
fn normalize(f: &Formula) -> (usize, Vec<RawClause>) {
    let num_vars = f.0.clamp(1, 14);
    let clauses =
        f.1.iter()
            .map(|c| c.iter().map(|&(v, pos)| (v % num_vars, pos)).collect())
            .collect();
    (num_vars, clauses)
}

fn build_solver(num_vars: usize, clauses: &[RawClause], config: SolverConfig) -> Solver {
    let mut s = Solver::with_config(config);
    s.ensure_vars(num_vars);
    for c in clauses {
        s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
    }
    s
}

/// Exhaustive satisfiability check.
fn brute_force_sat(num_vars: usize, clauses: &[RawClause]) -> bool {
    assert!(num_vars <= 20);
    'assignment: for bits in 0u32..(1 << num_vars) {
        for clause in clauses {
            let satisfied = clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos);
            if !satisfied && !clause.is_empty() {
                continue 'assignment;
            }
            if clause.is_empty() {
                return false;
            }
        }
        return true;
    }
    false
}

fn model_satisfies(s: &Solver, clauses: &[RawClause]) -> bool {
    clauses.iter().all(|clause| {
        clause
            .iter()
            .any(|&(v, pos)| s.model_value(Var::from_index(v)) == Some(pos))
    })
}

#[test]
fn agrees_with_brute_force() {
    prop::check(&Config::with_cases(256), gen_formula, |f| {
        let (num_vars, clauses) = normalize(f);
        let mut s = build_solver(num_vars, &clauses, SolverConfig::default());
        let expected = brute_force_sat(num_vars, &clauses);
        match s.solve() {
            SolveResult::Sat => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                prop_assert!(
                    model_satisfies(&s, &clauses),
                    "model does not satisfy formula"
                );
            }
            SolveResult::Unsat => {
                prop_assert!(!expected, "solver said UNSAT, brute force says SAT")
            }
            SolveResult::Unknown => prop_assert!(false, "unbounded solve returned Unknown"),
        }
        Ok(())
    });
}

#[test]
fn restart_every_conflict_agrees_with_brute_force() {
    // Restart after every conflict: the most restart boundaries a search
    // can cross.
    prop::check(&Config::with_cases(256), gen_formula, |f| {
        let (num_vars, clauses) = normalize(f);
        let config = SolverConfig { restart_base: 1 };
        let mut s = build_solver(num_vars, &clauses, config);
        let got = s.solve();
        prop_assert_eq!(got == SolveResult::Sat, brute_force_sat(num_vars, &clauses));
        if got == SolveResult::Sat {
            prop_assert!(model_satisfies(&s, &clauses));
        }
        Ok(())
    });
}

#[test]
fn unsat_core_is_unsat_subset() {
    prop::check(
        &Config::with_cases(256),
        |rng| (gen_formula(rng), rng.gen_range(0..=u16::MAX)),
        |(f, assumption_bits)| {
            let (num_vars, clauses) = normalize(f);
            let assumptions: Vec<Lit> = (0..num_vars)
                .map(|v| Lit::new(Var::from_index(v), (assumption_bits >> v) & 1 == 1))
                .collect();
            for config in [SolverConfig::default(), SolverConfig { restart_base: 1 }] {
                let mut s = build_solver(num_vars, &clauses, config);
                if s.solve_with(&assumptions) == SolveResult::Unsat {
                    let core = s.unsat_core().to_vec();
                    // Every core literal must be one of the assumptions.
                    for l in &core {
                        prop_assert!(assumptions.contains(l), "core literal not an assumption");
                    }
                    // The core alone must still be UNSAT.
                    let mut s2 = build_solver(num_vars, &clauses, SolverConfig::default());
                    prop_assert_eq!(
                        s2.solve_with(&core),
                        SolveResult::Unsat,
                        "unsat core is not itself unsatisfiable"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn enumeration_counts_match_brute_force() {
    // Variable counts stay <= 8 so full enumeration is cheap.
    prop::check(
        &Config::with_cases(256),
        |rng| {
            let num_vars = rng.gen_range(2..=8usize);
            let clauses = gen_vec(rng, 0..=40, |r| {
                gen_vec(r, 1..=4, |r| (r.gen_range(0..num_vars), r.gen_bool(0.5)))
            });
            (num_vars, clauses)
        },
        |f| {
            let (num_vars, clauses) = normalize(f);
            let num_vars = num_vars.min(8);
            let clauses: Vec<RawClause> = clauses
                .iter()
                .map(|c| c.iter().map(|&(v, pos)| (v % num_vars, pos)).collect())
                .collect();
            let mut expected = 0usize;
            for bits in 0u32..(1 << num_vars) {
                let ok = clauses
                    .iter()
                    .all(|clause| clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos));
                if ok {
                    expected += 1;
                }
            }
            let mut s = build_solver(num_vars, &clauses, SolverConfig::default());
            let (count, truncated) = enumerate::count_models(&mut s, &[], 1 << num_vars);
            prop_assert!(!truncated);
            prop_assert_eq!(count, expected);
            Ok(())
        },
    );
}

#[test]
fn incremental_equals_monolithic() {
    // Adding clauses in two batches with a solve in between must agree
    // with adding them all up front.
    prop::check(
        &Config::with_cases(256),
        |rng| (gen_formula(rng), rng.gen_range(0..40usize)),
        |(f, split)| {
            let (num_vars, clauses) = normalize(f);
            let split = (*split).min(clauses.len());
            let mut incremental = Solver::new();
            incremental.ensure_vars(num_vars);
            for c in &clauses[..split] {
                incremental.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
            }
            let _ = incremental.solve();
            for c in &clauses[split..] {
                incremental.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
            }
            let mut monolithic = build_solver(num_vars, &clauses, SolverConfig::default());
            prop_assert_eq!(incremental.solve(), monolithic.solve());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Structured stress instances
// ---------------------------------------------------------------------

/// Pigeonhole principle: n pigeons into n-1 holes, always UNSAT.
fn pigeonhole(n: usize) -> (Solver, SolveResult) {
    let mut s = pigeonhole_solver(n);
    let r = s.solve();
    (s, r)
}

/// The pigeonhole formula loaded but not yet solved.
#[allow(clippy::needless_range_loop)]
fn pigeonhole_solver(n: usize) -> Solver {
    let mut s = Solver::new();
    let holes = n - 1;
    let p: Vec<Vec<Lit>> = (0..n)
        .map(|_| (0..holes).map(|_| s.new_var().positive()).collect())
        .collect();
    for row in &p {
        s.add_clause(row.clone());
    }
    for hole in 0..holes {
        for i in 0..n {
            for j in (i + 1)..n {
                s.add_clause([!p[i][hole], !p[j][hole]]);
            }
        }
    }
    s
}

#[test]
fn pigeonhole_instances_are_unsat() {
    for n in 2..=7 {
        let (_, result) = pigeonhole(n);
        assert_eq!(result, SolveResult::Unsat, "php({n}) must be UNSAT");
    }
}

#[test]
fn pigeonhole_exercises_learning_and_restarts() {
    let (s, result) = pigeonhole(7);
    assert_eq!(result, SolveResult::Unsat);
    assert!(
        s.stats().conflicts > 50,
        "php(7) should require real search"
    );
    assert!(s.stats().learnt_clauses > 0);
}

/// 3-colorability of a cycle: odd cycles need 3 colors, so 2-coloring fails.
#[test]
#[allow(clippy::needless_range_loop)]
fn graph_coloring_cycles() {
    for (cycle_len, colors, expect_sat) in [
        (5usize, 3usize, true),
        (5, 2, false),
        (6, 2, true),
        (7, 2, false),
    ] {
        let mut s = Solver::new();
        let v: Vec<Vec<Lit>> = (0..cycle_len)
            .map(|_| (0..colors).map(|_| s.new_var().positive()).collect())
            .collect();
        for node in &v {
            s.add_clause(node.clone());
        }
        for i in 0..cycle_len {
            let j = (i + 1) % cycle_len;
            for c in 0..colors {
                s.add_clause([!v[i][c], !v[j][c]]);
            }
        }
        let expected = if expect_sat {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        assert_eq!(s.solve(), expected, "C{cycle_len} with {colors} colors");
    }
}

#[test]
fn random_3sat_under_threshold_is_mostly_sat() {
    // At clause/variable ratio 2.0 (well under the ~4.27 threshold),
    // random 3-SAT instances are satisfiable with overwhelming probability.
    let mut rng = Rng::seed_from_u64(0xA5A5_1234);
    let num_vars = 60;
    let num_clauses = 120;
    let mut sat_count = 0;
    for _ in 0..10 {
        let mut s = Solver::new();
        s.ensure_vars(num_vars);
        for _ in 0..num_clauses {
            let mut clause = Vec::with_capacity(3);
            while clause.len() < 3 {
                let v = rng.gen_range(0..num_vars);
                if clause.iter().all(|l: &Lit| l.var().index() != v) {
                    clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
                }
            }
            s.add_clause(clause);
        }
        if s.solve() == SolveResult::Sat {
            sat_count += 1;
        }
    }
    assert!(
        sat_count >= 9,
        "expected nearly all low-ratio instances SAT, got {sat_count}/10"
    );
}

#[test]
fn random_3sat_far_above_threshold_is_unsat() {
    let mut rng = Rng::seed_from_u64(0x5A5A_4321);
    let num_vars = 40;
    let num_clauses = 400; // ratio 10: essentially always UNSAT
    let mut s = Solver::new();
    s.ensure_vars(num_vars);
    for _ in 0..num_clauses {
        let mut clause = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l: &Lit| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        s.add_clause(clause);
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn clause_database_reduction_triggers_on_long_runs() {
    // A hard-enough instance to force learnt-clause reductions.
    let (s, result) = pigeonhole(8);
    assert_eq!(result, SolveResult::Unsat);
    // php(8) generates thousands of conflicts; with the default cap the
    // solver must have reduced at least once.
    assert!(
        s.stats().conflicts < 2_000_000,
        "php(8) unexpectedly expensive: {}",
        s.stats()
    );
}

#[test]
fn long_unsat_run_exercises_reduction_and_stays_correct() {
    // A hard random instance well above the phase transition: thousands
    // of conflicts, forcing learnt-clause reductions (and usually arena
    // compaction) while the UNSAT verdict must stay right.
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let num_vars = 120;
    let num_clauses = 720; // ratio 6
    let mut s = Solver::new();
    s.ensure_vars(num_vars);
    for _ in 0..num_clauses {
        let mut clause = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l: &Lit| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        s.add_clause(clause);
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(
        s.stats().reductions > 0,
        "expected clause-db reductions on a long run: {}",
        s.stats()
    );
    assert!(s.stats().deleted_clauses > 0);
}

#[test]
fn solver_survives_many_incremental_rounds() {
    // Interleave solving, assumptions, and clause addition for many
    // rounds — the incremental path (trail rewinds, watch maintenance,
    // core extraction) must stay consistent throughout.
    let mut rng = Rng::seed_from_u64(7_771);
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..40).map(|_| s.new_var()).collect();
    let mut sat_rounds = 0;
    for round in 0..200 {
        // Add a random clause.
        let mut clause = Vec::new();
        for _ in 0..rng.gen_range(2..4) {
            let v = vars[rng.gen_range(0..vars.len())];
            clause.push(Lit::new(v, rng.gen_bool(0.5)));
        }
        s.add_clause(clause);
        // Solve under random assumptions.
        let assumptions: Vec<Lit> = (0..rng.gen_range(0..4))
            .map(|_| Lit::new(vars[rng.gen_range(0..vars.len())], rng.gen_bool(0.5)))
            .collect();
        match s.solve_with(&assumptions) {
            SolveResult::Sat => {
                sat_rounds += 1;
                // Every assumption must hold in the model.
                for a in &assumptions {
                    assert_eq!(s.model_lit_value(*a), Some(true), "round {round}");
                }
            }
            SolveResult::Unsat => {
                // The core must be a subset of the assumptions.
                for l in s.unsat_core() {
                    assert!(assumptions.contains(l), "round {round}");
                }
            }
            SolveResult::Unknown => panic!("unbounded solve returned Unknown"),
        }
    }
    assert!(sat_rounds > 0, "generator should produce some SAT rounds");
}

#[test]
fn simplify_preserves_satisfiability_and_models() {
    prop::check(
        &Config::with_cases(128),
        |rng| (gen_formula(rng), rng.gen_range(0..40usize)),
        |(f, split)| {
            let (num_vars, clauses) = normalize(f);
            let split = (*split).min(clauses.len());
            let mut s = Solver::new();
            s.ensure_vars(num_vars);
            for c in &clauses[..split] {
                s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
            }
            let _ = s.solve();
            let consistent = s.simplify();
            for c in &clauses[split..] {
                s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
            }
            let expected = brute_force_sat(num_vars, &clauses);
            if !consistent {
                prop_assert!(!expected);
                return Ok(());
            }
            match s.solve() {
                SolveResult::Sat => {
                    prop_assert!(expected);
                    prop_assert!(model_satisfies(&s, &clauses));
                }
                SolveResult::Unsat => prop_assert!(!expected),
                SolveResult::Unknown => prop_assert!(false),
            }
            Ok(())
        },
    );
}

#[test]
fn simplify_shrinks_clause_count_after_units() {
    let mut s = Solver::new();
    let v: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
    // Clauses that become satisfied or shortened once v0 is known true.
    s.add_clause([v[0], v[1]]); // satisfied by v0
    s.add_clause([v[0], v[2], v[3]]); // satisfied by v0
    s.add_clause([!v[0], v[4], v[5]]); // shortens to (v4 ∨ v5)
    s.add_clause([v[0]]); // the unit
    assert_eq!(s.solve(), SolveResult::Sat);
    let before = s.num_clauses();
    assert!(s.simplify());
    let after = s.num_clauses();
    assert!(after < before, "before={before} after={after}");
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_lit_value(v[0]), Some(true));
}

#[test]
fn simplify_detects_root_contradiction() {
    let mut s = Solver::new();
    let a = s.new_var().positive();
    s.add_clause([a]);
    s.add_clause([!a]);
    assert!(!s.simplify());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

// ---------------------------------------------------------------------
// Cooperative interruption (the flag a caller raises to cancel a solve)
// ---------------------------------------------------------------------

#[test]
fn preset_interrupt_stops_before_any_conflict() {
    // The flag is polled as the first statement of every search-loop
    // iteration, so a flag raised before the solve costs zero conflicts.
    let mut s = pigeonhole_solver(7);
    s.set_interrupt(Arc::new(AtomicBool::new(true)));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert!(s.last_interrupted());
    let stats = s.stats();
    assert_eq!(stats.interrupts, 1);
    assert_eq!(
        stats.conflicts, 0,
        "a pre-set flag must cost zero conflicts"
    );
    assert!(
        s.model_value(Var::from_index(0)).is_none(),
        "an interrupted solve must not leave a partial model visible"
    );
}

#[test]
fn interrupted_solver_remains_usable() {
    // An interrupt is a pause, not a poison: clearing the flag and
    // re-solving must produce the real verdict with consistent counters.
    let mut s = pigeonhole_solver(5);
    s.set_interrupt(Arc::new(AtomicBool::new(true)));
    assert_eq!(s.solve(), SolveResult::Unknown);
    let interrupted_stats = *s.stats();
    s.clear_interrupt();
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(!s.last_interrupted());
    let final_stats = s.stats();
    assert_eq!(final_stats.interrupts, interrupted_stats.interrupts);
    assert!(final_stats.conflicts > interrupted_stats.conflicts);
}
