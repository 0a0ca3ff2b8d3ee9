//! Property tests: the Tseitin encoding must be *equisatisfiable with
//! identical atom projections* — for every formula, the encoder's verdict
//! and model count (projected on atoms) must match brute-force evaluation
//! of the AST semantics.

use netarch_logic::pb::{assert_pb_le_under, group_terms, gte_outputs, PbTerm};
use netarch_logic::{Atom, CollectSink, Encoder, Formula, Soft};
use netarch_rt::prop::{self, gen_vec, Config, Shrink};
use netarch_rt::{prop_assert, prop_assert_eq, Rng};
use netarch_sat::{SolveResult, Solver};
use std::collections::BTreeSet;

const MAX_ATOMS: u32 = 5;

/// Shrinkable wrapper: a random formula over up to MAX_ATOMS atoms.
#[derive(Clone, Debug)]
struct F(Formula);

/// Random formula with nesting depth at most `depth`.
fn gen_formula_depth(rng: &mut Rng, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..7u32) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::Atom(Atom(rng.gen_range(0..MAX_ATOMS))),
        };
    }
    let d = depth - 1;
    let children =
        |rng: &mut Rng, lo: usize, hi: usize| gen_vec(rng, lo..=hi, |r| gen_formula_depth(r, d));
    match rng.gen_range(0..9u32) {
        0 => Formula::not(gen_formula_depth(rng, d)),
        1 => Formula::and(children(rng, 2, 3)),
        2 => Formula::or(children(rng, 2, 3)),
        3 => Formula::implies(gen_formula_depth(rng, d), gen_formula_depth(rng, d)),
        4 => Formula::iff(gen_formula_depth(rng, d), gen_formula_depth(rng, d)),
        5 => Formula::xor(gen_formula_depth(rng, d), gen_formula_depth(rng, d)),
        6 => Formula::at_most(rng.gen_range(0..4u32), children(rng, 1, 3)),
        7 => Formula::at_least(rng.gen_range(0..4u32), children(rng, 1, 3)),
        _ => Formula::exactly(rng.gen_range(0..4u32), children(rng, 1, 3)),
    }
}

fn gen_formula(rng: &mut Rng) -> F {
    F(gen_formula_depth(rng, 4))
}

impl Shrink for F {
    /// Candidates: the constants, each direct subformula, and the node
    /// with one operand removed — enough to strip a failing formula down
    /// to a small witness.
    fn shrink(&self) -> Vec<F> {
        let mut out = vec![F(Formula::True), F(Formula::False)];
        let subs: Vec<Formula> = match &self.0 {
            Formula::True | Formula::False | Formula::Atom(_) => Vec::new(),
            Formula::Not(a) => vec![(**a).clone()],
            Formula::And(fs) | Formula::Or(fs) => fs.clone(),
            Formula::Implies(a, b) | Formula::Iff(a, b) | Formula::Xor(a, b) => {
                vec![(**a).clone(), (**b).clone()]
            }
            Formula::AtMost(_, fs) | Formula::AtLeast(_, fs) | Formula::Exactly(_, fs) => {
                fs.clone()
            }
        };
        out.extend(subs.into_iter().map(F));
        if let Formula::And(fs) | Formula::Or(fs) = &self.0 {
            for i in 0..fs.len() {
                let mut rest = fs.clone();
                rest.remove(i);
                out.push(F(match &self.0 {
                    Formula::And(_) => Formula::and(rest),
                    _ => Formula::or(rest),
                }));
            }
        }
        out
    }
}

/// Counts satisfying assignments over all MAX_ATOMS atoms by evaluation.
fn brute_count(f: &Formula) -> usize {
    (0u32..(1 << MAX_ATOMS))
        .filter(|bits| f.eval(&|a: Atom| (bits >> a.0) & 1 == 1))
        .count()
}

#[test]
fn encoder_verdict_matches_semantics() {
    prop::check(&Config::with_cases(192), gen_formula, |F(f)| {
        let expected_sat = brute_count(f) > 0;
        let mut e = Encoder::new();
        e.assert(f);
        let got = e.solve();
        prop_assert_eq!(got == SolveResult::Sat, expected_sat, "formula: {}", f);
        if got == SolveResult::Sat {
            // The returned model must actually satisfy the formula.
            prop_assert!(e.eval_under_model(f), "model violates formula {}", f);
        }
        Ok(())
    });
}

#[test]
fn projected_model_count_matches_semantics() {
    prop::check(&Config::with_cases(192), gen_formula, |F(f)| {
        let expected = brute_count(f);
        let mut e = Encoder::new();
        e.assert(f);
        // Ensure all atoms are materialized so projection covers them.
        let atoms: Vec<Atom> = (0..MAX_ATOMS).map(Atom).collect();
        for &a in &atoms {
            let _ = e.atom_var(a);
        }
        let result = netarch_logic::enumerate::enumerate_models(e, &atoms, &[], 1 << MAX_ATOMS);
        prop_assert!(!result.truncated);
        prop_assert_eq!(result.models.len(), expected, "formula: {}", f);
        Ok(())
    });
}

#[test]
fn lit_for_is_full_equivalence() {
    prop::check(&Config::with_cases(192), gen_formula, |F(f)| {
        // Reify f as a literal, force the literal false: remaining models
        // must be exactly the countermodels of f.
        let expected_counter = (1usize << MAX_ATOMS) - brute_count(f);
        let mut e = Encoder::new();
        let l = e.lit_for(f);
        e.solver_mut().add_clause([!l]);
        let atoms: Vec<Atom> = (0..MAX_ATOMS).map(Atom).collect();
        for &a in &atoms {
            let _ = e.atom_var(a);
        }
        let result = netarch_logic::enumerate::enumerate_models(e, &atoms, &[], 1 << MAX_ATOMS);
        prop_assert!(!result.truncated);
        prop_assert_eq!(result.models.len(), expected_counter, "formula: {}", f);
        Ok(())
    });
}

#[test]
fn maxsat_linear_is_optimal() {
    prop::check(
        &Config::with_cases(192),
        |rng| {
            let hard = gen_formula(rng);
            let soft_formulas = gen_vec(rng, 1..=3, gen_formula);
            let weights = gen_vec(rng, 1..=3, |r| r.gen_range(1..8u64));
            (hard, soft_formulas, weights)
        },
        |(F(hard), soft_formulas, weights)| {
            let soft: Vec<Soft> = soft_formulas
                .iter()
                .zip(weights.iter().cycle())
                .map(|(F(f), &w)| Soft::new(w.max(1), f.clone()))
                .collect();
            // Brute-force optimum.
            let mut best: Option<u64> = None;
            for bits in 0u32..(1 << MAX_ATOMS) {
                let assign = |a: Atom| (bits >> a.0) & 1 == 1;
                if !hard.eval(&assign) {
                    continue;
                }
                let cost: u64 = soft
                    .iter()
                    .filter(|s| !s.formula.eval(&assign))
                    .map(|s| s.weight)
                    .sum();
                best = Some(best.map_or(cost, |b: u64| b.min(cost)));
            }
            let mut e = Encoder::new();
            e.assert(hard);
            let outcome = netarch_logic::maxsat::minimize(&mut e, &soft);
            match (best, outcome) {
                (None, netarch_logic::MaxSatOutcome::HardUnsat) => {}
                (Some(b), netarch_logic::MaxSatOutcome::Optimal { cost, .. }) => {
                    prop_assert_eq!(cost, b, "hard={} soft={:?}", hard, soft);
                }
                (expected, got) => {
                    prop_assert!(false, "expected {:?}, got {:?}", expected, got)
                }
            }
            Ok(())
        },
    );
}

#[test]
fn mus_members_are_all_necessary() {
    prop::check(
        &Config::with_cases(192),
        |rng| gen_vec(rng, 2..=5, gen_formula),
        |formulas| {
            let mut e = Encoder::new();
            let mut g = netarch_logic::GroupedAssertions::new();
            let ids: Vec<_> = formulas
                .iter()
                .enumerate()
                .map(|(i, F(f))| g.add_group(&mut e, format!("g{i}"), f))
                .collect();
            if let Some(mus) = g.find_mus(&mut e, &ids) {
                // MUS itself must be UNSAT.
                prop_assert_eq!(g.solve_with_groups(&mut e, &mus), SolveResult::Unsat);
                // Every proper subset missing one member must be SAT.
                for drop in &mus {
                    let rest: Vec<_> = mus.iter().copied().filter(|x| x != drop).collect();
                    prop_assert_eq!(
                        g.solve_with_groups(&mut e, &rest),
                        SolveResult::Sat,
                        "MUS not minimal: {:?} removable",
                        drop
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn guarded_pb_le_agrees_with_brute_force_at_adder_scale() {
    // Up to 12 terms: long carry chains and bit columns shared by many
    // terms, which the 5-term property above never reaches.
    prop::check(
        &Config::with_cases(24),
        |rng| {
            let weights = gen_adder_weights(rng);
            let bound = gen_adder_bound(rng, &weights);
            (weights, bound, rng.gen_range(1..=2usize))
        },
        |(weights, bound, guards)| {
            let n = weights.len();
            let mut s = Solver::new();
            let terms: Vec<PbTerm> = weights
                .iter()
                .map(|&w| PbTerm::new(w, s.new_var().positive()))
                .collect();
            let guard: Vec<_> = (0..*guards).map(|_| s.new_var().positive()).collect();
            assert_pb_le_under(&mut s, &guard, &terms, *bound);
            for bits in 0u32..(1 << n) {
                let sum = subset_sum(weights, bits);
                let inputs = (0..n).map(|i| {
                    if (bits >> i) & 1 == 1 {
                        terms[i].lit
                    } else {
                        !terms[i].lit
                    }
                });
                // Every guard true: exactly the sums within the bound.
                let on: Vec<_> = inputs.clone().chain(guard.iter().copied()).collect();
                prop_assert_eq!(
                    s.solve_with(&on) == SolveResult::Sat,
                    sum <= u128::from(*bound),
                    "weights={:?} bound={} guards={} bits={:b}",
                    weights,
                    bound,
                    guards,
                    bits
                );
                // Any guard false: the constraint is off.
                for off in 0..guard.len() {
                    let guards_with_one_off =
                        guard
                            .iter()
                            .enumerate()
                            .map(|(i, &g)| if i == off { !g } else { g });
                    let assumptions: Vec<_> = inputs.clone().chain(guards_with_one_off).collect();
                    prop_assert_eq!(
                        s.solve_with(&assumptions),
                        SolveResult::Sat,
                        "guard {} off: weights={:?} bound={} bits={:b}",
                        off,
                        weights,
                        bound,
                        bits
                    );
                }
            }
            Ok(())
        },
    );
}

/// Adder-scale PB weights: up to 12 terms mixing a repeated weight,
/// powers of two and three-digit values, in one case in five
/// near-`u64::MAX` values, and in one case in three all scaled by a
/// common factor.
fn gen_adder_weights(rng: &mut Rng) -> Vec<u64> {
    let repeated = rng.gen_range(1..100u64);
    let huge = rng.gen_bool(0.2);
    let mut weights = gen_vec(rng, 1..=12, |r| match r.gen_range(0..5u32) {
        0 => repeated,
        1 => 1 << r.gen_range(0..12u32),
        _ if huge => u64::MAX - r.gen_range(0..3u64),
        _ => r.gen_range(1..1000u64),
    });
    if rng.gen_bool(0.33) {
        let factor = rng.gen_range(2..200u64);
        for w in &mut weights {
            *w = w.saturating_mul(factor);
        }
    }
    weights
}

/// A bound below the weight total, so the adder is built: random, a
/// reachable sum (the tightest boundary), or one short of the total.
/// Terms heavier than the bound are common at the low end.
fn gen_adder_bound(rng: &mut Rng, weights: &[u64]) -> u64 {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let bound = match rng.gen_range(0..3u32) {
        0 => u128::from(rng.next_u64()) % total.max(1),
        1 => subset_sum(weights, rng.next_u32()),
        _ => total.saturating_sub(1),
    };
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// Random PB weights: zeros, a repeated weight, small values, and in one
/// case in five near-`u64::MAX` values whose totals overflow `u64`.
fn gen_weights(rng: &mut Rng) -> Vec<u64> {
    let huge = rng.gen_bool(0.2);
    gen_vec(rng, 1..=5, |r| match r.gen_range(0..5u32) {
        0 => 0,
        1 => 4,
        _ if huge => u64::MAX - r.gen_range(0..3u64),
        _ => r.gen_range(1..12u64),
    })
}

/// A bound below, at, or above the weight total (clamped to `u64`).
fn gen_bound(rng: &mut Rng, weights: &[u64]) -> u64 {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let bound = match rng.gen_range(0..4u32) {
        0 => u128::from(rng.next_u64()) % (total + 1),
        1 => total,
        2 => total + u128::from(rng.gen_range(1..4u64)),
        _ => u128::from(u64::MAX),
    };
    u64::try_from(bound).unwrap_or(u64::MAX)
}

/// Sum of the weights of the set bits of `bits`, exactly.
fn subset_sum(weights: &[u64], bits: u32) -> u128 {
    (0..weights.len())
        .filter(|i| (bits >> i) & 1 == 1)
        .map(|i| u128::from(weights[i]))
        .sum()
}

/// Terms for a generalized totalizer: [`gen_weights`] weights, each tagged
/// with its at-most-one group. In one case in three every term is its own
/// group; otherwise tags fall in `0..3`, so groups of one to five members
/// mix with singletons.
fn gen_grouped_terms(rng: &mut Rng) -> Vec<(u64, u32)> {
    let singletons = rng.gen_bool(1.0 / 3.0);
    gen_weights(rng)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            (
                w,
                if singletons {
                    i as u32
                } else {
                    rng.gen_range(0..3u32)
                },
            )
        })
        .collect()
}

#[test]
fn gte_outputs_are_the_saturated_achievable_sums() {
    prop::check(
        &Config::with_cases(192),
        |rng| {
            let terms = gen_grouped_terms(rng);
            let weights: Vec<u64> = terms.iter().map(|&(w, _)| w).collect();
            let cap = gen_bound(rng, &weights);
            (terms, cap, rng.next_u64())
        },
        |(tagged, cap, order_seed)| {
            let weights: Vec<u64> = tagged.iter().map(|&(w, _)| w).collect();
            // The input assignments the groups admit: at most one true
            // member per group.
            let admissible: Vec<u32> = (0u32..(1 << tagged.len()))
                .filter(|&bits| {
                    let mut seen = BTreeSet::new();
                    (0..tagged.len())
                        .filter(|i| (bits >> i) & 1 == 1)
                        .all(|i| seen.insert(tagged[i].1))
                })
                .collect();
            // `gte_outputs` reads a cap of u64::MAX as u64::MAX - 1.
            let saturate = u128::from((*cap).min(u64::MAX - 1)) + 1;
            let reached = |bits: u32| subset_sum(&weights, bits).min(saturate);
            let expected: Vec<u64> = admissible
                .iter()
                .map(|&bits| reached(bits))
                .filter(|&s| s > 0)
                .map(|s| s as u64)
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .collect();
            let mut s = Solver::new();
            let mut terms: Vec<(Option<u32>, PbTerm)> = tagged
                .iter()
                .map(|&(w, tag)| (Some(tag), PbTerm::new(w, s.new_var().positive())))
                .collect();
            let node = gte_outputs(&mut s, &group_terms(terms.iter().copied()), *cap);
            prop_assert_eq!(
                node.sums(),
                expected.clone(),
                "terms={:?} cap={}",
                tagged,
                cap
            );
            // Under every admissible assignment the outputs up to its
            // (saturated) sum are forced, and the next one is left free.
            for &bits in &admissible {
                let mut assumptions: Vec<_> = terms
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, t))| if (bits >> i) & 1 == 1 { t.lit } else { !t.lit })
                    .collect();
                let sum = reached(bits);
                let below = node
                    .outputs
                    .iter()
                    .rev()
                    .find(|&&(o, _)| u128::from(o) <= sum);
                if let Some(&(o, lit)) = below {
                    assumptions.push(!lit);
                    let forced = s.solve_with(&assumptions) == SolveResult::Unsat;
                    prop_assert!(
                        forced,
                        "terms={:?} cap={} bits={:b}: {} not forced",
                        tagged,
                        cap,
                        bits,
                        o
                    );
                    assumptions.pop();
                }
                if let Some(&(o, lit)) = node.outputs.iter().find(|&&(o, _)| u128::from(o) > sum) {
                    assumptions.push(!lit);
                    let free = s.solve_with(&assumptions) == SolveResult::Sat;
                    prop_assert!(
                        free,
                        "terms={:?} cap={} bits={:b}: {} forced",
                        tagged,
                        cap,
                        bits,
                        o
                    );
                }
            }
            // The sums do not depend on the order the terms come in.
            Rng::seed_from_u64(*order_seed).shuffle(&mut terms);
            let mut sink = CollectSink::with_vars(s.num_vars());
            let shuffled = gte_outputs(&mut sink, &group_terms(terms.iter().copied()), *cap);
            prop_assert_eq!(shuffled.sums(), expected, "terms={:?} cap={}", tagged, cap);
            Ok(())
        },
    );
}

#[test]
fn pb_constraints_agree_with_brute_force() {
    prop::check(
        &Config::with_cases(128),
        |rng| {
            let weights = gen_weights(rng);
            let bound = gen_bound(rng, &weights);
            (weights, bound)
        },
        |(weights, bound)| {
            // One unguarded `≤`; each input assignment is assumed.
            let mut s = Solver::new();
            let terms: Vec<PbTerm> = weights
                .iter()
                .map(|&w| PbTerm::new(w, s.new_var().positive()))
                .collect();
            assert_pb_le_under(&mut s, &[], &terms, *bound);
            for bits in 0u32..(1 << weights.len()) {
                let assumptions: Vec<_> = terms
                    .iter()
                    .enumerate()
                    .map(|(i, t)| if (bits >> i) & 1 == 1 { t.lit } else { !t.lit })
                    .collect();
                let got = s.solve_with(&assumptions) == SolveResult::Sat;
                prop_assert_eq!(
                    got,
                    subset_sum(weights, bits) <= u128::from(*bound),
                    "weights={:?} bound={} bits={:b}",
                    weights,
                    bound,
                    bits
                );
            }
            Ok(())
        },
    );
}
