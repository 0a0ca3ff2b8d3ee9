//! Differential test: blocking-clause model enumeration vs brute force.
//!
//! Enumeration is how the architecture layer computes equivalence classes
//! of designs, and its blocking-clause loop is easy to get subtly wrong
//! (a bad blocking clause silently double-counts or drops models). The
//! oracle here is exhaustive: on random 3-CNFs up to 12 variables, the
//! enumerated model count must equal the brute-force count, every
//! enumerated model must satisfy the formula, and no model may repeat.
//! Projected enumeration is checked the same way against the brute-force
//! count of distinct projections.

use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{prop_assert, prop_assert_eq, Rng};
use netarch_sat::{enumerate, Lit, Solver, Var};
use std::collections::HashSet;

/// A 3-CNF clause as (variable index, polarity) triples.
type RawClause = Vec<(usize, bool)>;

/// 1–12 variables and up to 5·vars 3-literal clauses (ratio spanning both
/// sides of the SAT/UNSAT threshold, so counts of 0 occur too).
fn gen_3cnf(rng: &mut Rng) -> (usize, Vec<RawClause>) {
    let num_vars = rng.gen_range(1..=12usize);
    let max_clauses = 5 * num_vars;
    let clauses = gen_vec(rng, 0..=max_clauses, |r| {
        gen_vec(r, 3..=3, |r| (r.gen_range(0..num_vars), r.gen_bool(0.5)))
    });
    (num_vars, clauses)
}

/// Shrinking is structure-blind; clamp indices back into range.
fn normalize(f: &(usize, Vec<RawClause>)) -> (usize, Vec<RawClause>) {
    let num_vars = f.0.clamp(1, 12);
    let clauses =
        f.1.iter()
            .map(|c| c.iter().map(|&(v, pos)| (v % num_vars, pos)).collect())
            .collect();
    (num_vars, clauses)
}

fn satisfies(bits: u32, clauses: &[RawClause]) -> bool {
    clauses
        .iter()
        .all(|clause| clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos))
}

fn build_solver(num_vars: usize, clauses: &[RawClause]) -> Solver {
    let mut s = Solver::new();
    s.ensure_vars(num_vars);
    for c in clauses {
        s.add_clause(c.iter().map(|&(v, pos)| Lit::new(Var::from_index(v), pos)));
    }
    s
}

#[test]
fn enumeration_count_matches_brute_force_on_3cnf() {
    prop::check(&Config::with_cases(128), gen_3cnf, |f| {
        let (num_vars, clauses) = normalize(f);
        let expected = (0u32..1 << num_vars)
            .filter(|&bits| satisfies(bits, &clauses))
            .count();
        let mut s = build_solver(num_vars, &clauses);
        let limit = 1usize << num_vars;
        let e = enumerate::enumerate_projected(&mut s, &[], &[], limit);
        prop_assert!(!e.truncated, "limit covers the whole space");
        prop_assert_eq!(e.models.len(), expected, "model count mismatch");
        // Every enumerated model satisfies the formula, and none repeats.
        let mut seen = HashSet::new();
        for model in &e.models {
            let mut bits = 0u32;
            for &(v, value) in model {
                if value {
                    bits |= 1 << v.index();
                }
            }
            prop_assert!(
                satisfies(bits, &clauses),
                "enumerated model falsifies formula"
            );
            prop_assert!(seen.insert(bits), "model enumerated twice");
        }
        Ok(())
    });
}

#[test]
fn projected_enumeration_counts_distinct_projections() {
    prop::check(
        &Config::with_cases(128),
        |rng| {
            let f = gen_3cnf(rng);
            // keep >= 1: an empty projection means "all variables" to the
            // API, which is a different (already tested) behavior.
            let keep = rng.gen_range(1..=f.0);
            (f, keep)
        },
        |(f, keep)| {
            let (num_vars, clauses) = normalize(f);
            let keep = (*keep).clamp(1, num_vars);
            let projection: Vec<Var> = (0..keep).map(Var::from_index).collect();
            // Brute-force: distinct restrictions of the models to the
            // projection variables.
            let mut expected: HashSet<u32> = HashSet::new();
            for bits in 0u32..1 << num_vars {
                if satisfies(bits, &clauses) {
                    expected.insert(bits & ((1u32 << keep) - 1));
                }
            }
            let mut s = build_solver(num_vars, &clauses);
            let e = enumerate::enumerate_projected(&mut s, &projection, &[], 1 << num_vars);
            prop_assert!(!e.truncated);
            prop_assert_eq!(e.models.len(), expected.len(), "projection count mismatch");
            for model in &e.models {
                let mut bits = 0u32;
                for &(v, value) in model {
                    if value {
                        bits |= 1 << v.index();
                    }
                }
                prop_assert!(expected.contains(&bits), "projection not among expected");
            }
            Ok(())
        },
    );
}

#[test]
fn enumeration_under_assumptions_restricts_the_space() {
    prop::check(&Config::with_cases(96), gen_3cnf, |f| {
        let (num_vars, clauses) = normalize(f);
        // Assume variable 0 true: counts must match brute force over the
        // restricted space, and enumeration must leave the assumption out
        // of the blocking clauses' permanent effects for var-0-false models.
        let expected = (0u32..1 << num_vars)
            .filter(|&bits| bits & 1 == 1 && satisfies(bits, &clauses))
            .count();
        let mut s = build_solver(num_vars, &clauses);
        let assumption = [Var::from_index(0).positive()];
        let e = enumerate::enumerate_projected(&mut s, &[], &assumption, 1 << num_vars);
        prop_assert!(!e.truncated);
        prop_assert_eq!(e.models.len(), expected);
        Ok(())
    });
}

#[test]
fn truncation_reports_exactly_at_the_limit() {
    // A formula with no clauses over n variables has 2^n models; a limit
    // below that must truncate, a limit at or above must not.
    for num_vars in [3usize, 5, 8] {
        let total = 1usize << num_vars;
        let mut s = Solver::new();
        s.ensure_vars(num_vars);
        let (count, truncated) = enumerate::count_models(&mut s, &[], total - 1);
        assert_eq!(count, total - 1);
        assert!(truncated, "limit below the space must truncate");

        let mut s = Solver::new();
        s.ensure_vars(num_vars);
        let (count, truncated) = enumerate::count_models(&mut s, &[], total);
        assert_eq!(count, total);
        assert!(!truncated, "limit equal to the space must not truncate");
    }
}
