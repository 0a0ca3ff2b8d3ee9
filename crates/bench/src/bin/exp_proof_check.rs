//! Proof-check sweep: every UNSAT verdict must carry a DRAT proof the
//! independent checker accepts.
//!
//! Solves a seeded corpus of ≥500 unsatisfiable instances (pigeonhole,
//! odd-cycle 2-coloring, random 3-SAT far above the threshold, and
//! assumption-core variants) with proof logging on, replays every proof
//! through `netarch_sat::checker`, and exits nonzero on any rejection.
//! Run by `scripts/ci.sh` as the `proof-check` step.

use netarch_sat::{
    check_refutation, check_refutation_under_assumptions, Lit, SolveResult, Solver, Var,
};
use netarch_rt::Rng;
use std::time::Instant;

/// Pigeonhole principle with `n` pigeons and `n-1` holes: UNSAT.
fn pigeonhole(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let holes = n - 1;
    let num_vars = n * holes;
    let p = |pigeon: usize, hole: usize| Var::from_index(pigeon * holes + hole).positive();
    let mut clauses = Vec::new();
    for pigeon in 0..n {
        clauses.push((0..holes).map(|h| p(pigeon, h)).collect());
    }
    for hole in 0..holes {
        for i in 0..n {
            for j in (i + 1)..n {
                clauses.push(vec![!p(i, hole), !p(j, hole)]);
            }
        }
    }
    (num_vars, clauses)
}

/// 2-coloring of an odd cycle of length `n` (one boolean per node, all
/// adjacent nodes must differ): UNSAT for odd `n`.
fn odd_cycle(n: usize) -> (usize, Vec<Vec<Lit>>) {
    assert!(n % 2 == 1 && n >= 3);
    let v = |i: usize| Var::from_index(i % n);
    let mut clauses = Vec::new();
    for i in 0..n {
        clauses.push(vec![v(i).positive(), v(i + 1).positive()]);
        clauses.push(vec![v(i).negative(), v(i + 1).negative()]);
    }
    (n, clauses)
}

/// Random 3-SAT at clause/variable ratio 6.0 — far above the ~4.26
/// threshold, so virtually every instance is UNSAT.
fn random_3sat(num_vars: usize, ratio: f64, seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let num_clauses = (num_vars as f64 * ratio) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        clauses.push(clause);
    }
    (num_vars, clauses)
}

struct Tally {
    solved_unsat: usize,
    solved_sat: usize,
    accepted: usize,
    rejections: Vec<String>,
    proof_steps: usize,
}

impl Tally {
    fn new() -> Tally {
        Tally { solved_unsat: 0, solved_sat: 0, accepted: 0, rejections: Vec::new(), proof_steps: 0 }
    }

    /// Solves with proof logging and checks the refutation on UNSAT.
    fn run(&mut self, label: &str, num_vars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) {
        let mut solver = Solver::new();
        solver.record_proof();
        solver.ensure_vars(num_vars);
        for clause in clauses {
            solver.add_clause(clause.iter().copied());
        }
        match solver.solve_with(assumptions) {
            SolveResult::Sat => self.solved_sat += 1,
            SolveResult::Unknown => panic!("{label}: unexpected Unknown without budgets"),
            SolveResult::Unsat => {
                self.solved_unsat += 1;
                let proof = solver.recorded_proof().expect("recording is on");
                self.proof_steps += proof.len();
                let verdict = if assumptions.is_empty() {
                    check_refutation(num_vars, clauses, proof)
                } else {
                    check_refutation_under_assumptions(
                        num_vars,
                        clauses,
                        proof,
                        solver.unsat_core(),
                    )
                };
                match verdict {
                    Ok(()) => self.accepted += 1,
                    Err(e) => self.rejections.push(format!("{label}: {e}")),
                }
            }
        }
    }
}

fn main() {
    netarch_bench::section("Proof-check sweep: DRAT certificates for every UNSAT verdict");
    let start = Instant::now();
    let mut tally = Tally::new();

    // Structured families, guaranteed UNSAT.
    for n in 4..=8 {
        let (num_vars, clauses) = pigeonhole(n);
        tally.run(&format!("pigeonhole/{n}"), num_vars, &clauses, &[]);
    }
    for n in (3..=99).step_by(2) {
        let (num_vars, clauses) = odd_cycle(n);
        tally.run(&format!("odd-cycle/{n}"), num_vars, &clauses, &[]);
    }

    // Random 3-SAT far above the threshold, several sizes × many seeds.
    for &(num_vars, count) in &[(20usize, 160u64), (30, 120), (40, 80), (50, 40)] {
        for i in 0..count {
            let seed = 0xC0FF_EE00 + (num_vars as u64) * 1000 + i;
            let (nv, clauses) = random_3sat(num_vars, 6.0, seed);
            tally.run(&format!("random3sat/{num_vars}/{seed:#x}"), nv, &clauses, &[]);
        }
    }

    // Assumption-core variants: satisfiable base formulas driven UNSAT by
    // the assumptions, so the reported core must also certify.
    for i in 0..60u64 {
        let seed = 0xAB5E_0000 + i;
        let (num_vars, mut clauses) = random_3sat(24, 2.0, seed);
        // Chain a0 → a1 → … → a5 plus ¬a5; assuming a0 forces UNSAT.
        let base = num_vars;
        for j in 0..5 {
            clauses.push(vec![
                Var::from_index(base + j).negative(),
                Var::from_index(base + j + 1).positive(),
            ]);
        }
        clauses.push(vec![Var::from_index(base + 5).negative()]);
        let assumptions = [Var::from_index(base).positive()];
        tally.run(&format!("assumed/{seed:#x}"), num_vars + 6, &clauses, &assumptions);
    }

    let elapsed = start.elapsed();
    println!("  instances solved UNSAT      {:>8}", tally.solved_unsat);
    println!("  instances solved SAT        {:>8}", tally.solved_sat);
    println!("  proofs accepted             {:>8}", tally.accepted);
    println!("  proofs rejected             {:>8}", tally.rejections.len());
    println!("  total proof steps           {:>8}", tally.proof_steps);
    println!("  wall time                   {elapsed:>8.2?}");

    let summary = netarch_rt::jobj! {
        "experiment": "proof_check",
        "unsat": tally.solved_unsat,
        "sat": tally.solved_sat,
        "accepted": tally.accepted,
        "rejected": tally.rejections.len(),
        "proof_steps": tally.proof_steps,
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));

    for r in &tally.rejections {
        eprintln!("REJECTED: {r}");
    }
    if !tally.rejections.is_empty() {
        eprintln!("FAIL: {} DRAT proof(s) rejected by the checker", tally.rejections.len());
        std::process::exit(1);
    }
    assert!(
        tally.solved_unsat >= 500,
        "corpus must exercise at least 500 UNSAT verdicts, got {}",
        tally.solved_unsat
    );
    assert_eq!(tally.accepted, tally.solved_unsat);
    println!(
        "\nPASS: all {} UNSAT verdicts carry checker-accepted DRAT proofs.",
        tally.solved_unsat
    );
}
