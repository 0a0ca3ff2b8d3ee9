//! Unsat-core quality: every reported core member must be necessary.
//!
//! Diagnosis output (paper §6) is only useful if it does not blame
//! innocent rules. These tests build instance families whose unique
//! minimal conflict is known by construction — a single clause that
//! requires *all* of `k` designated assumptions, surrounded by satisfiable
//! noise — and assert two things about each reported core / MUS:
//!
//! * **completeness**: it contains every member of the planted conflict
//!   (dropping any one of those makes the rest satisfiable, so no correct
//!   core can omit one), and
//! * **minimality**: it contains nothing else, verified by the oracle
//!   check "drop each member → SAT".

use netarch_logic::{Atom, Encoder, Formula, GroupId, GroupedAssertions};
use netarch_rt::prop::{self, Config};
use netarch_rt::{prop_assert, prop_assert_eq, Rng};
use netarch_sat::{Lit, SolveResult, Solver, Var};
use std::collections::HashSet;

/// An instance whose only conflict is `¬s_0 ∨ … ∨ ¬s_{k-1}` over the
/// first `k` variables, plus `noise` all-positive clauses (satisfiable by
/// assigning true everywhere) over `noise_vars` further variables.
#[derive(Clone, Debug)]
struct PlantedCore {
    k: usize,
    noise_vars: usize,
    noise: Vec<Vec<usize>>, // indices into the noise var block
    shuffle_seed: u64,
}

impl netarch_rt::prop::Shrink for PlantedCore {}

fn gen_planted(rng: &mut Rng) -> PlantedCore {
    let k = rng.gen_range(2..=6usize);
    let noise_vars = rng.gen_range(1..=6usize);
    let noise = netarch_rt::prop::gen_vec(rng, 0..=5, |r| {
        netarch_rt::prop::gen_vec(r, 1..=3, |r| r.gen_range(0..noise_vars))
    });
    PlantedCore {
        k,
        noise_vars,
        noise,
        shuffle_seed: rng.gen_range(0..u64::MAX / 2),
    }
}

fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut r = Rng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, r.gen_range(0..=i));
    }
    out
}

#[test]
fn solver_core_is_exactly_the_planted_conflict() {
    prop::check(&Config::with_cases(128), gen_planted, |p| {
        let mut s = Solver::new();
        s.ensure_vars(p.k + p.noise_vars);
        // The planted conflict: at least one of the k selectors is false.
        s.add_clause((0..p.k).map(|i| Var::from_index(i).negative()));
        // Noise: all-positive clauses over the disjoint noise block.
        for clause in &p.noise {
            s.add_clause(clause.iter().map(|&i| Var::from_index(p.k + i).positive()));
        }
        // Assume every selector AND every noise variable true, in a random
        // order; only the selectors belong in the core.
        let planted: Vec<Lit> = (0..p.k).map(|i| Var::from_index(i).positive()).collect();
        let mut assumptions = planted.clone();
        assumptions.extend((0..p.noise_vars).map(|i| Var::from_index(p.k + i).positive()));
        let assumptions = shuffled(&assumptions, p.shuffle_seed);

        prop_assert_eq!(s.solve_with(&assumptions), SolveResult::Unsat);
        let core: HashSet<Lit> = s.unsat_core().iter().copied().collect();
        let expected: HashSet<Lit> = planted.iter().copied().collect();
        prop_assert_eq!(
            &core,
            &expected,
            "core must be exactly the planted selectors"
        );

        // Oracle minimality check: dropping any single core member is SAT.
        for drop in &core {
            let rest: Vec<Lit> = assumptions.iter().copied().filter(|l| l != drop).collect();
            prop_assert_eq!(
                s.solve_with(&rest),
                SolveResult::Sat,
                "core member is not necessary"
            );
        }
        Ok(())
    });
}

#[test]
fn mus_is_exactly_the_planted_conflict() {
    prop::check(&Config::with_cases(64), gen_planted, |p| {
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        // Necessary groups: each asserts atom x_i, plus a cap asserting
        // ¬(x_0 ∧ … ∧ x_{k-1}). All k+1 are needed for the conflict.
        let mut necessary: Vec<GroupId> = (0..p.k)
            .map(|i| g.add_group(&mut e, format!("x{i}"), &Formula::Atom(Atom(i as u32))))
            .collect();
        necessary.push(g.add_group(
            &mut e,
            "cap",
            &Formula::not(Formula::and(
                (0..p.k).map(|i| Formula::Atom(Atom(i as u32))),
            )),
        ));
        // Noise groups: positive disjunctions over a disjoint atom block.
        let noise: Vec<GroupId> = p
            .noise
            .iter()
            .enumerate()
            .map(|(n, clause)| {
                let f = Formula::or(
                    clause
                        .iter()
                        .map(|&i| Formula::Atom(Atom((p.k + i) as u32))),
                );
                g.add_group(&mut e, format!("noise{n}"), &f)
            })
            .collect();

        let mut candidates = necessary.clone();
        candidates.extend(&noise);
        let candidates = shuffled(&candidates, p.shuffle_seed);

        let mus = g
            .find_mus(&mut e, &candidates)
            .expect("planted conflict is UNSAT");
        let mut expected = necessary.clone();
        expected.sort_unstable();
        prop_assert_eq!(&mus, &expected, "MUS must be exactly the planted groups");

        // Oracle minimality check: dropping any member is SAT.
        for drop in &mus {
            let rest: Vec<GroupId> = mus.iter().copied().filter(|x| x != drop).collect();
            prop_assert_eq!(g.solve_with_groups(&mut e, &rest), SolveResult::Sat);
        }
        Ok(())
    });
}

#[test]
fn mus_from_overlapping_conflicts_is_minimal() {
    // Several independent planted pairs {x_j, ¬x_j}: a MUS is ONE pair.
    prop::check(
        &Config::with_cases(64),
        |rng| (rng.gen_range(1..=4usize), rng.gen_range(0..u64::MAX / 2)),
        |&(pairs, seed)| {
            let mut e = Encoder::new();
            let mut g = GroupedAssertions::new();
            let mut by_pair: Vec<[GroupId; 2]> = Vec::new();
            for j in 0..pairs.max(1) {
                let atom = Formula::Atom(Atom(j as u32));
                by_pair.push([
                    g.add_group(&mut e, format!("p{j}"), &atom),
                    g.add_group(&mut e, format!("n{j}"), &Formula::not(atom.clone())),
                ]);
            }
            let candidates = shuffled(&g.ids(), seed);
            let mus = g.find_mus(&mut e, &candidates).expect("conflicting pairs");
            prop_assert_eq!(mus.len(), 2, "a minimal conflict is one pair");
            prop_assert!(
                by_pair.iter().any(|pair| {
                    let mut sorted = pair.to_vec();
                    sorted.sort_unstable();
                    sorted == mus
                }),
                "MUS mixes members of different pairs"
            );
            Ok(())
        },
    );
}
