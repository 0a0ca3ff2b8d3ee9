//! End-to-end DRAT pipeline tests: the solver records proofs, the
//! independent checker validates them, and corrupted proofs are rejected.
//!
//! These tests close the trust loop the paper's diagnosis story depends on:
//! an UNSAT verdict ("this design cannot work") is only as good as the
//! refutation behind it, so every UNSAT here must carry a machine-checkable
//! proof — validated by propagation code the solver does not share.

use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{prop_assert_eq, Rng};
use netarch_sat::{
    check_refutation, check_refutation_under_assumptions, CheckError, DratProof, Lit, ProofStep,
    SolveResult, Solver, SolverConfig, Var,
};

type RawClause = Vec<(usize, bool)>;
type Formula = (usize, Vec<RawClause>);

fn gen_formula(rng: &mut Rng) -> Formula {
    let num_vars = rng.gen_range(2..=10usize);
    let clauses = gen_vec(rng, 0..=40, |r| {
        gen_vec(r, 1..=4, |r| (r.gen_range(0..num_vars), r.gen_bool(0.5)))
    });
    (num_vars, clauses)
}

fn normalize(f: &Formula) -> (usize, Vec<RawClause>) {
    let num_vars = f.0.clamp(1, 14);
    let clauses =
        f.1.iter()
            .map(|c| c.iter().map(|&(v, pos)| (v % num_vars, pos)).collect())
            .collect();
    (num_vars, clauses)
}

fn to_lits(clauses: &[RawClause]) -> Vec<Vec<Lit>> {
    clauses
        .iter()
        .map(|c| {
            c.iter()
                .map(|&(v, pos)| Lit::new(Var::from_index(v), pos))
                .collect()
        })
        .collect()
}

/// Builds a recording solver over the clause list.
fn recording_solver(num_vars: usize, clauses: &[Vec<Lit>], config: SolverConfig) -> Solver {
    let mut s = Solver::with_config(config);
    s.record_proof();
    s.ensure_vars(num_vars);
    for c in clauses {
        s.add_clause(c.iter().copied());
    }
    s
}

fn random_3sat(rng: &mut Rng, num_vars: usize, ratio: f64) -> Vec<Vec<Lit>> {
    let num_clauses = (num_vars as f64 * ratio) as usize;
    (0..num_clauses)
        .map(|_| {
            let mut clause: Vec<Lit> = Vec::with_capacity(3);
            while clause.len() < 3 {
                let v = rng.gen_range(0..num_vars);
                if clause.iter().all(|l| l.var().index() != v) {
                    clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
                }
            }
            clause
        })
        .collect()
}

#[allow(clippy::needless_range_loop)]
fn pigeonhole_clauses(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let holes = n - 1;
    let var = |pigeon: usize, hole: usize| Var::from_index(pigeon * holes + hole);
    let mut clauses = Vec::new();
    for pigeon in 0..n {
        clauses.push((0..holes).map(|h| var(pigeon, h).positive()).collect());
    }
    for hole in 0..holes {
        for i in 0..n {
            for j in (i + 1)..n {
                clauses.push(vec![var(i, hole).negative(), var(j, hole).negative()]);
            }
        }
    }
    (n * holes, clauses)
}

#[test]
fn every_random_unsat_verdict_has_a_checkable_proof() {
    prop::check(&Config::with_cases(256), gen_formula, |f| {
        let (num_vars, raw) = normalize(f);
        let clauses = to_lits(&raw);
        let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
        if s.solve() == SolveResult::Unsat {
            let proof = s.recorded_proof().expect("recording was enabled");
            prop_assert_eq!(
                check_refutation(num_vars, &clauses, proof),
                Ok(()),
                "checker rejected the solver's refutation"
            );
        }
        Ok(())
    });
}

#[test]
fn restart_every_conflict_also_produces_checkable_proofs() {
    // Restarting after every conflict crosses the most restart boundaries
    // a search can, each one a chance to desynchronize the proof from the
    // clause database.
    prop::check(&Config::with_cases(128), gen_formula, |f| {
        let (num_vars, raw) = normalize(f);
        let clauses = to_lits(&raw);
        let config = SolverConfig { restart_base: 1 };
        let mut s = recording_solver(num_vars, &clauses, config);
        if s.solve() == SolveResult::Unsat {
            let proof = s.recorded_proof().expect("recording was enabled");
            prop_assert_eq!(check_refutation(num_vars, &clauses, proof), Ok(()));
        }
        Ok(())
    });
}

#[test]
fn assumption_unsat_verdicts_certify_their_cores() {
    prop::check(
        &Config::with_cases(256),
        |rng| (gen_formula(rng), rng.gen_range(0..=u16::MAX)),
        |(f, assumption_bits)| {
            let (num_vars, raw) = normalize(f);
            let clauses = to_lits(&raw);
            let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
            let assumptions: Vec<Lit> = (0..num_vars)
                .map(|v| Lit::new(Var::from_index(v), (assumption_bits >> v) & 1 == 1))
                .collect();
            if s.solve_with(&assumptions) == SolveResult::Unsat {
                let core = s.unsat_core().to_vec();
                let proof = s.recorded_proof().expect("recording was enabled");
                prop_assert_eq!(
                    check_refutation_under_assumptions(num_vars, &clauses, proof, &core),
                    Ok(()),
                    "checker rejected the core certificate"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn incremental_unsat_verdicts_stay_checkable() {
    // Interleave solving and clause addition: the proof accumulates across
    // solve calls, and each UNSAT verdict is checked against the clauses
    // added so far.
    prop::check(
        &Config::with_cases(128),
        |rng| (gen_formula(rng), rng.gen_range(0..40usize)),
        |(f, split)| {
            let (num_vars, raw) = normalize(f);
            let clauses = to_lits(&raw);
            let split = (*split).min(clauses.len());
            let mut s = Solver::new();
            s.record_proof();
            s.ensure_vars(num_vars);
            for c in &clauses[..split] {
                s.add_clause(c.iter().copied());
            }
            if s.solve() == SolveResult::Unsat {
                let proof = s.recorded_proof().unwrap();
                prop_assert_eq!(check_refutation(num_vars, &clauses[..split], proof), Ok(()));
            }
            for c in &clauses[split..] {
                s.add_clause(c.iter().copied());
            }
            if s.solve() == SolveResult::Unsat {
                let proof = s.recorded_proof().unwrap();
                prop_assert_eq!(check_refutation(num_vars, &clauses, proof), Ok(()));
            }
            Ok(())
        },
    );
}

#[test]
fn simplify_keeps_proofs_checkable() {
    // Level-0 simplification rewrites the clause database wholesale; its
    // add/delete logging must keep the proof aligned.
    prop::check(
        &Config::with_cases(128),
        |rng| (gen_formula(rng), rng.gen_range(0..40usize)),
        |(f, split)| {
            let (num_vars, raw) = normalize(f);
            let clauses = to_lits(&raw);
            let split = (*split).min(clauses.len());
            let mut s = Solver::new();
            s.record_proof();
            s.ensure_vars(num_vars);
            for c in &clauses[..split] {
                s.add_clause(c.iter().copied());
            }
            let _ = s.solve();
            let _ = s.simplify();
            for c in &clauses[split..] {
                s.add_clause(c.iter().copied());
            }
            if s.solve() == SolveResult::Unsat {
                let proof = s.recorded_proof().unwrap();
                prop_assert_eq!(check_refutation(num_vars, &clauses, proof), Ok(()));
            }
            Ok(())
        },
    );
}

#[test]
fn pigeonhole_proofs_check() {
    for n in 3..=6 {
        let (num_vars, clauses) = pigeonhole_clauses(n);
        let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.take_proof().unwrap();
        assert!(
            proof.adds_empty_clause(),
            "php({n}) refutation must conclude"
        );
        assert_eq!(
            check_refutation(num_vars, &clauses, &proof),
            Ok(()),
            "php({n})"
        );
    }
}

#[test]
fn hard_instance_with_deletions_stays_checkable() {
    // Ratio-6 random 3-SAT is far above the phase transition: reliably
    // UNSAT with enough conflicts to trigger learnt-clause reduction, so
    // the proof contains deletion steps the checker must honor.
    let mut rng = Rng::seed_from_u64(0xD2A7_0001);
    let num_vars = 60;
    let clauses = random_3sat(&mut rng, num_vars, 6.0);
    let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
    let proof = s.take_proof().unwrap();
    assert_eq!(check_refutation(num_vars, &clauses, &proof), Ok(()));
}

#[test]
fn truncated_proof_is_rejected() {
    // Note that simply dropping the final empty-clause addition is NOT a
    // reliable corruption: the checker's persistent propagation usually
    // re-derives the root conflict from the learned units alone. Instead,
    // strip every short (≤ 1 literal) addition — without units the checker
    // can never reach a root conflict, so the residue must either fail a
    // RUP check or fail to refute.
    let (num_vars, clauses) = pigeonhole_clauses(4);
    let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
    let proof = s.take_proof().unwrap();
    let mut truncated = DratProof::new();
    for step in proof.steps() {
        if matches!(step, ProofStep::Add(c) if c.len() <= 1) {
            continue;
        }
        truncated.push(step.clone());
    }
    assert!(
        truncated.len() < proof.len(),
        "php(4) proof should contain unit/empty adds"
    );
    assert!(
        check_refutation(num_vars, &clauses, &truncated).is_err(),
        "checker accepted a truncated proof"
    );
    // The empty proof is likewise no refutation.
    assert_eq!(
        check_refutation(num_vars, &clauses, &DratProof::new()),
        Err(CheckError::NoEmptyClause)
    );
}

#[test]
fn corrupted_proof_step_is_rejected() {
    // A real refutation of php(4) replayed against a *weakened, satisfiable*
    // formula (pigeon 0's placement clause dropped) must be rejected: by
    // soundness no sequence of RUP/RAT steps can refute a satisfiable
    // formula, so some step — at the latest the empty-clause addition —
    // fails its check.
    let (num_vars, clauses) = pigeonhole_clauses(4);
    let mut s = recording_solver(num_vars, &clauses, SolverConfig::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
    let proof = s.take_proof().unwrap();
    let weakened: Vec<Vec<Lit>> = clauses[1..].to_vec();
    let mut sat_check = Solver::new();
    sat_check.ensure_vars(num_vars);
    for c in &weakened {
        sat_check.add_clause(c.iter().copied());
    }
    assert_eq!(
        sat_check.solve(),
        SolveResult::Sat,
        "weakened php(4) should be SAT"
    );
    assert!(
        check_refutation(num_vars, &weakened, &proof).is_err(),
        "checker accepted a refutation of a satisfiable formula"
    );
}

#[test]
fn unsat_on_satisfiable_formula_is_rejected() {
    // The strongest negative test: claim UNSAT on a SAT formula. Whatever
    // the proof says, the checker must refuse — here the refutation is
    // forged by replaying a real php(4) proof against a satisfiable
    // weakening of php (one conflict pair removed per hole... simply: the
    // first at-most-one clause dropped changes nothing for php, so instead
    // check a plain satisfiable formula with a fabricated conclusion).
    let a = Var::from_index(0).positive();
    let b = Var::from_index(1).positive();
    let clauses = vec![vec![a, b], vec![!a, b]];
    let mut forged = DratProof::new();
    forged.push(ProofStep::Add(vec![b])); // genuinely RUP
    forged.push(ProofStep::Add(vec![])); // the lie
    assert!(matches!(
        check_refutation(2, &clauses, &forged),
        Err(CheckError::NotRedundant { step: 1, .. })
    ));
}

/// A formula whose refutation needs real resolution: BVE on `x` over
/// `(a ∨ x) ∧ (b ∨ ¬x)` yields the resolvent `(a ∨ b)`, and the 2×2 block
/// over `p, q` is unsatisfiable but not unit-refutable, so no tampered
/// step can lean on pre-existing units being propagated for free. The
/// clauses `(¬a ∨ r)` and `(¬b ∨ s)` give `¬a`/`¬b` live occurrences, so
/// a forged clause with pivot `a` cannot slip through the checker's RAT
/// fallback as a vacuous pure-literal case.
fn bve_shaped_formula() -> (usize, Vec<Vec<Lit>>) {
    let v = |i: usize| Var::from_index(i).positive();
    let (a, b, x, p, q, r, s) = (v(0), v(1), v(2), v(3), v(4), v(5), v(6));
    let clauses = vec![
        vec![a, x],
        vec![b, !x],
        vec![!a, r],
        vec![!b, s],
        vec![p, q],
        vec![p, !q],
        vec![!p, q],
        vec![!p, !q],
    ];
    (7, clauses)
}

/// The honest certificate for [`bve_shaped_formula`]: the BVE resolvent,
/// deletion of its parents, then the unit `p` and the empty clause.
fn bve_shaped_proof() -> Vec<ProofStep> {
    let v = |i: usize| Var::from_index(i).positive();
    let (a, b, x, p) = (v(0), v(1), v(2), v(3));
    vec![
        ProofStep::Add(vec![a, b]), // resolvent of (a ∨ x) and (b ∨ ¬x) on x
        ProofStep::Delete(vec![a, x]),
        ProofStep::Delete(vec![b, !x]),
        ProofStep::Add(vec![p]),
        ProofStep::Add(vec![]),
    ]
}

#[test]
fn tampered_bve_resolvent_is_rejected() {
    let (num_vars, clauses) = bve_shaped_formula();
    // The honest BVE-shaped certificate is accepted…
    let mut honest = DratProof::new();
    for step in bve_shaped_proof() {
        honest.push(step);
    }
    assert_eq!(check_refutation(num_vars, &clauses, &honest), Ok(()));
    // …but a resolvent that drops a literal (claiming `a` instead of
    // `a ∨ b`) is not RUP — nothing propagates `b`'s clause into conflict —
    // and must be rejected at exactly that step.
    let v = |i: usize| Var::from_index(i).positive();
    let mut tampered = DratProof::new();
    for (i, step) in bve_shaped_proof().into_iter().enumerate() {
        tampered.push(if i == 0 {
            ProofStep::Add(vec![v(0)])
        } else {
            step
        });
    }
    assert!(
        matches!(
            check_refutation(num_vars, &clauses, &tampered),
            Err(CheckError::NotRedundant { step: 0, .. })
        ),
        "checker accepted a tampered BVE resolvent"
    );
}

#[test]
fn forged_deletion_of_needed_clause_is_rejected() {
    // DRAT deletions are permissive in isolation, so forging a deletion of
    // a clause later steps still need must surface as a failed RUP check on
    // the first step that relied on it. Here the deleted `(p ∨ q)` is the
    // clause that makes the unit `p` RUP.
    let (num_vars, clauses) = bve_shaped_formula();
    let v = |i: usize| Var::from_index(i).positive();
    let (p, q) = (v(3), v(4));
    let mut forged = DratProof::new();
    forged.push(ProofStep::Delete(vec![p, q]));
    forged.push(ProofStep::Add(vec![p]));
    forged.push(ProofStep::Add(vec![]));
    assert!(
        matches!(
            check_refutation(num_vars, &clauses, &forged),
            Err(CheckError::NotRedundant { step: 1, .. })
        ),
        "checker accepted a unit derived from a deleted reason clause"
    );
}

#[test]
fn proof_logging_observably_off_by_default() {
    let mut s = Solver::new();
    let v = s.new_var();
    s.add_clause([v.positive()]);
    s.add_clause([v.negative()]);
    assert!(!s.proof_logging_enabled());
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.recorded_proof().is_none());
    assert!(s.take_proof().is_none());
}

#[test]
fn streaming_sink_receives_the_same_steps() {
    // Arc<Mutex<…>>, not Rc<RefCell<…>>: ProofSink is Send (sinks travel
    // inside solvers that serving layers move across threads).
    struct CountingSink(std::sync::Arc<std::sync::Mutex<(usize, usize)>>);
    impl netarch_sat::ProofSink for CountingSink {
        fn add_clause(&mut self, _clause: &[Lit]) {
            self.0.lock().unwrap().0 += 1;
        }
        fn delete_clause(&mut self, _clause: &[Lit]) {
            self.0.lock().unwrap().1 += 1;
        }
    }
    let counts = std::sync::Arc::new(std::sync::Mutex::new((0usize, 0usize)));
    let (num_vars, clauses) = pigeonhole_clauses(4);

    let mut recorder = recording_solver(num_vars, &clauses, SolverConfig::default());
    assert_eq!(recorder.solve(), SolveResult::Unsat);
    let proof = recorder.take_proof().unwrap();

    let mut streamer = Solver::new();
    streamer.set_proof_sink(Box::new(CountingSink(counts.clone())));
    streamer.ensure_vars(num_vars);
    for c in &clauses {
        streamer.add_clause(c.iter().copied());
    }
    assert_eq!(streamer.solve(), SolveResult::Unsat);
    // A streaming sink is not the recorder, so there is nothing to take…
    assert!(streamer.take_proof().is_none());
    // …but it saw exactly the steps the recorder recorded (the solver is
    // deterministic for a fixed instance and configuration).
    let (adds, deletes) = *counts.lock().unwrap();
    assert_eq!(adds, proof.num_additions());
    assert_eq!(deletes, proof.num_deletions());
}
