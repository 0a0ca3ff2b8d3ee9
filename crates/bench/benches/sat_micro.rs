//! SAT-substrate microbenchmarks (experiment E10): pigeonhole, random
//! 3-SAT near/below the phase transition, and graph coloring — the
//! combinatorial muscles §3.4 relies on.

use netarch_rt::bench::{black_box, Harness};
use netarch_rt::Rng;
use netarch_sat::{Lit, SolveResult, Solver, Var};

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

fn random_3sat_solver(num_vars: usize, ratio: f64, seed: u64) -> Solver {
    let mut rng = Rng::seed_from_u64(seed);
    let mut s = Solver::new();
    s.ensure_vars(num_vars);
    let clauses = (num_vars as f64 * ratio) as usize;
    for _ in 0..clauses {
        let mut clause = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l: &Lit| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        s.add_clause(clause);
    }
    s
}

fn main() {
    let mut h = Harness::new("sat_micro");
    for n in [6usize, 7, 8] {
        h.bench(&format!("sat/pigeonhole/{n}"), || {
            let mut s = pigeonhole_solver(n);
            assert_eq!(s.solve(), SolveResult::Unsat);
            black_box(s.stats().conflicts)
        });
        // Same instance with DRAT recording on: the delta between this
        // pair is the proof-logging overhead (expected: small, and zero
        // when logging is off — the default path has a single
        // `Option::is_some` check per derivation site).
        h.bench(&format!("sat/pigeonhole-proof/{n}"), || {
            let mut s = pigeonhole_solver(n);
            s.record_proof();
            assert_eq!(s.solve(), SolveResult::Unsat);
            black_box(s.take_proof().map(|p| p.len()))
        });
    }
    for &(num_vars, ratio, label) in
        &[(150usize, 3.0f64, "easy-sat"), (100, 4.26, "threshold"), (80, 6.0, "unsat")]
    {
        let mut seed = 0u64;
        h.bench(&format!("sat/random3sat/{label}"), || {
            seed += 1;
            let mut s = random_3sat_solver(num_vars, ratio, seed);
            black_box(s.solve())
        });
        let mut seed = 0u64;
        h.bench(&format!("sat/random3sat-proof/{label}"), || {
            seed += 1;
            let mut s = random_3sat_solver(num_vars, ratio, seed);
            s.record_proof();
            black_box(s.solve())
        });
    }
    h.finish();
}
