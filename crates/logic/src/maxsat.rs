//! Weighted MaxSAT by linear GTE descent.
//!
//! Find a first model, build a generalized totalizer over the violation
//! literals saturated at that model's cost, then binary-search the
//! achievable costs below it using assumptions; the last SAT model is
//! optimal. Works for arbitrary weights.
//!
//! Softs may share an **at-most-one group** ([`Soft::group`]): the caller
//! promises that, in every model of the descent's base, at most one soft
//! of a group is violated. The totalizer then takes the group as one leaf
//! over its distinct weights ([`crate::pb::gte_outputs`]) instead of
//! enumerating sums inside it. The engine groups the cost and dimension
//! softs of one role category or one hardware slot, which its role and
//! `hw:` rules make at-most-one. A broken promise can only make the
//! totalizer undercount, so it surfaces as a model whose true cost exceeds
//! the bound it was found under. The descent checks every such model,
//! release builds included, and answers [`MaxSatOutcome::BoundExceeded`]
//! rather than claim an optimum.
//!
//! Lexicographic optimization (`Optimize(latency > Hardware cost >
//! monitoring)` in the paper's Listing 3) runs one [`minimize_under`]
//! descent per objective level in order, each hardening its optimum before
//! the next level descends (see `netarch_core::query::Engine::optimize`).

use crate::ast::Formula;
use crate::encoder::Encoder;
use crate::pb::{group_terms, gte_outputs, PbTerm};
use crate::sink::ClauseSink;
use netarch_sat::{Lit, SolveResult};

/// A soft constraint: violating `formula` costs `weight`.
#[derive(Clone, Debug)]
pub struct Soft {
    /// Cost of violating this constraint.
    pub weight: u64,
    /// The constraint itself.
    pub formula: Formula,
    /// The at-most-one group this soft belongs to; `None` is a group of its
    /// own.
    ///
    /// Contract: softs of one objective that share a group are violated at
    /// most one at a time, in every model of the base a descent runs under.
    /// The objective totalizer counts such a group by its one violated
    /// member, so a model that violates two members is undercounted; the
    /// descent detects that as [`MaxSatOutcome::BoundExceeded`].
    pub group: Option<u32>,
}

impl Soft {
    /// Creates a soft constraint in a group of its own.
    pub fn new(weight: u64, formula: Formula) -> Soft {
        Soft {
            weight,
            formula,
            group: None,
        }
    }

    /// This soft in the at-most-one `group` (`None`: its own group).
    pub fn with_group(self, group: Option<u32>) -> Soft {
        Soft { group, ..self }
    }
}

/// Result of a MaxSAT call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaxSatOutcome {
    /// Optimum found; the encoder's solver holds an optimal model.
    Optimal {
        /// Total weight of violated soft constraints.
        cost: u64,
        /// Indices (into the soft slice) of the violated constraints.
        violated: Vec<usize>,
    },
    /// The hard constraints alone are unsatisfiable.
    HardUnsat,
    /// The soft weights sum past `u64::MAX`; proceeding would silently
    /// corrupt every cost bound, so the optimization is refused.
    WeightOverflow,
    /// A model found under the cost bound `bound` violates softs weighing
    /// `cost > bound`, so the objective totalizer undercounts: softs that
    /// share a group were violated together (a broken [`Soft::group`]
    /// contract). No optimum is claimed.
    BoundExceeded {
        /// The cost bound the model was found under.
        bound: u64,
        /// The model's true violated weight.
        cost: u64,
    },
}

/// Sum of the soft weights, or `None` when it overflows `u64`.
fn checked_total(soft: &[Soft]) -> Option<u64> {
    soft.iter()
        .try_fold(0u64, |acc, s| acc.checked_add(s.weight))
}

/// A soft-constraint objective compiled once for reuse across queries.
///
/// Compiling Tseitin-encodes one violation literal per soft constraint;
/// each [`minimize_under`] call then builds its own objective totalizer
/// over them, saturated at the cost of its first model. No probe or
/// hardened bound ever asks about a cost above that, so a totalizer built
/// up front at the weight total would mostly encode sums nobody reads.
pub struct CompiledSofts {
    softs: Vec<Soft>,
    /// The totalizer's leaves: the violation literal of each soft, weighted
    /// by its soft and true exactly when the soft is violated, bucketed by
    /// the softs' at-most-one groups.
    leaves: Vec<Vec<PbTerm>>,
    /// Long-lived activation literal gating the violation definitions and
    /// every totalizer built over them. Assumed by every solve that needs
    /// the objective circuitry; left unassumed otherwise, so those clauses
    /// are dormant and cost nothing on queries that never mention the
    /// objective.
    activation: Lit,
}

impl CompiledSofts {
    /// The soft constraints this objective minimizes.
    pub fn softs(&self) -> &[Soft] {
        &self.softs
    }

    /// The activation literal that switches this objective's totalizer on.
    /// Assume it in any solve that must respect clauses referencing the
    /// totalizer outputs (e.g. a later lexicographic level solving under a
    /// hardened bound from this one).
    pub fn activation(&self) -> Lit {
        self.activation
    }

    /// The weight of the softs the encoder's latest model violates.
    pub fn model_cost(&self, encoder: &Encoder) -> u64 {
        violated_indices(encoder, &self.softs)
            .into_iter()
            .map(|i| self.softs[i].weight)
            .sum()
    }
}

/// Soft weights summed past `u64::MAX` — see [`MaxSatOutcome::WeightOverflow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightOverflow;

impl std::fmt::Display for WeightOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "soft-constraint weights overflow u64 when summed")
    }
}

/// Encodes the violation literals of `softs` once, for repeated
/// [`minimize_under`] calls. Fails when the weights overflow `u64`.
pub fn compile_softs(
    encoder: &mut Encoder,
    softs: Vec<Soft>,
) -> Result<CompiledSofts, WeightOverflow> {
    checked_total(&softs).ok_or(WeightOverflow)?;
    // The violation definitions are gated behind one long-lived activation
    // literal, so a persistent session only pays for the objective
    // circuitry in solves that assume it.
    let activation = encoder.new_selector();
    let leaves = encoder.gated_scope(activation, |e| {
        group_terms(softs.iter().map(|s| {
            // v_i ⇔ ¬formula_i.
            (s.group, PbTerm::new(s.weight, !e.lit_for(&s.formula)))
        }))
    });
    Ok(CompiledSofts {
        softs,
        leaves,
        activation,
    })
}

/// The objective totalizer one descent encodes: the weighted sum of the
/// violation literals, saturated at `cap`, the cost of the descent's first
/// model. Every output sum is at most `cap`, except the overflow output at
/// `cap + 1`.
struct Objective {
    cap: u64,
    outputs: Vec<(u64, Lit)>,
}

impl Objective {
    /// Encodes the totalizer under the objective's activation literal, like
    /// the violation definitions it reads.
    fn encode(encoder: &mut Encoder, compiled: &CompiledSofts, cap: u64) -> Objective {
        let outputs = encoder.gated_scope(compiled.activation, |e| {
            gte_outputs(e, &compiled.leaves, cap).outputs
        });
        Objective { cap, outputs }
    }

    /// The costs a descent may still probe: zero plus every output sum.
    fn candidates(&self) -> Vec<u64> {
        std::iter::once(0)
            .chain(self.outputs.iter().map(|&(s, _)| s))
            .collect()
    }

    /// Assumptions forcing the violated weight to at most `target`: the
    /// solve context plus the negation of every output above the target.
    fn bound_assumptions(&self, context: &[Lit], target: u64) -> Vec<Lit> {
        let mut assumptions = context.to_vec();
        assumptions.extend(
            self.outputs
                .iter()
                .filter(|&&(s, _)| s > target)
                .map(|&(_, l)| !l),
        );
        assumptions
    }

    /// Hardens `cost` as the optimum behind `gate`.
    fn harden(&self, encoder: &mut Encoder, gate: Lit, cost: u64) {
        for &(s, l) in &self.outputs {
            if s > cost {
                ClauseSink::add_clause(encoder, &[!gate, !l]);
            }
        }
    }
}

/// Minimizes a compiled objective inside an incremental session.
///
/// All solves run under `base ∪ {gate, activation}`, and the optimum is
/// hardened with `gate`-gated clauses only — so when the caller retires
/// `gate` the bound dissolves, the totalizer goes dormant again, and the
/// session solver is back to exactly the base theory, with its learned
/// clauses and heuristic state intact. On return the solver holds a model
/// that is optimal under `base`.
///
/// The first model's cost caps the objective totalizer this call encodes
/// (under the activation literal).
/// Each call encodes its own, exact up to its own cap, so several calls on
/// one [`CompiledSofts`] stay sound.
///
/// A `gate`-gated hardened bound references this call's totalizer
/// outputs, so a caller that keeps solving under `gate` after this call
/// (e.g. the next lexicographic level) must also keep assuming
/// [`CompiledSofts::activation`] or the bound is vacuous.
pub fn minimize_under(
    encoder: &mut Encoder,
    compiled: &CompiledSofts,
    base: &[Lit],
    gate: Lit,
) -> MaxSatOutcome {
    descend(encoder, compiled, base, gate).0
}

/// [`minimize_under`], also returning the objective totalizer the descent
/// encoded (`None` when it stopped before encoding one).
fn descend(
    encoder: &mut Encoder,
    compiled: &CompiledSofts,
    base: &[Lit],
    gate: Lit,
) -> (MaxSatOutcome, Option<Objective>) {
    let mut context: Vec<Lit> = Vec::with_capacity(base.len() + 2);
    context.extend_from_slice(base);
    context.push(gate);
    context.push(compiled.activation);
    if encoder.solve_with(&context) != SolveResult::Sat {
        return (MaxSatOutcome::HardUnsat, None);
    }
    if compiled.softs.is_empty() {
        return (
            MaxSatOutcome::Optimal {
                cost: 0,
                violated: Vec::new(),
            },
            None,
        );
    }
    let violated = violated_indices(encoder, &compiled.softs);
    let cost = violated.iter().map(|&i| compiled.softs[i].weight).sum();
    let objective = Objective::encode(encoder, compiled, cost);
    let first = (objective.cap, violated);
    let outcome = match bisect(encoder, compiled, &objective, &context, first) {
        Ok((cost, violated)) => {
            // Harden the optimum behind the gate and restore an optimal model.
            objective.harden(encoder, gate, cost);
            let restored = encoder.solve_with(&context);
            debug_assert_eq!(restored, SolveResult::Sat);
            MaxSatOutcome::Optimal { cost, violated }
        }
        Err(outcome) => outcome,
    };
    (outcome, Some(objective))
}

/// Binary-search descent over the achievable cost values (the totalizer's
/// output sums plus zero), from `best`, an achievable cost with its
/// violated softs. Invariant: `best` is achievable, and every candidate
/// below index `lo` is proven unachievable. Returns the optimum with its
/// violated softs.
fn bisect(
    encoder: &mut Encoder,
    compiled: &CompiledSofts,
    objective: &Objective,
    context: &[Lit],
    mut best: (u64, Vec<usize>),
) -> Result<(u64, Vec<usize>), MaxSatOutcome> {
    let candidates = objective.candidates();
    let mut lo = 0;
    while best.0 > 0 {
        let hi = candidates.partition_point(|&c| c < best.0);
        if lo >= hi {
            break; // nothing achievable below the best cost
        }
        let mid = (lo + hi) / 2;
        let target = candidates[mid];
        match encoder.solve_with(&objective.bound_assumptions(context, target)) {
            SolveResult::Sat => {
                let violated = violated_indices(encoder, &compiled.softs);
                best = (within_bound(&compiled.softs, &violated, target)?, violated);
            }
            SolveResult::Unsat | SolveResult::Unknown => lo = mid + 1,
        }
    }
    Ok(best)
}

/// The weight of the `violated` softs of a model found under the cost
/// bound `bound`, or [`MaxSatOutcome::BoundExceeded`] when it is larger:
/// every model the totalizer admits at a bound must really be within it.
fn within_bound(softs: &[Soft], violated: &[usize], bound: u64) -> Result<u64, MaxSatOutcome> {
    let cost = violated.iter().map(|&i| softs[i].weight).sum();
    if cost > bound {
        return Err(MaxSatOutcome::BoundExceeded { bound, cost });
    }
    Ok(cost)
}

/// Reports which soft constraints the current model violates.
fn violated_indices(encoder: &Encoder, soft: &[Soft]) -> Vec<usize> {
    soft.iter()
        .enumerate()
        .filter(|(_, s)| !encoder.eval_under_model(&s.formula))
        .map(|(i, _)| i)
        .collect()
}

/// Minimizes the total weight of violated soft constraints in one shot,
/// leaving the optimal model loaded in the encoder's solver and the optimum
/// enforced as a permanent hard bound (so a later call on the same encoder
/// preserves it).
///
/// The gate is the always-true literal, so the gated hardening clauses in
/// [`minimize_under`] strip to permanent units at level 0.
pub fn minimize(encoder: &mut Encoder, soft: &[Soft]) -> MaxSatOutcome {
    if checked_total(soft).is_none() {
        return MaxSatOutcome::WeightOverflow;
    }
    // An unsatisfiable theory is HardUnsat even without softs, and needs
    // no totalizer.
    if encoder.solve_with(&[]) != SolveResult::Sat {
        return MaxSatOutcome::HardUnsat;
    }
    if soft.is_empty() {
        return MaxSatOutcome::Optimal {
            cost: 0,
            violated: Vec::new(),
        };
    }
    let Ok(compiled) = compile_softs(encoder, soft.to_vec()) else {
        return MaxSatOutcome::WeightOverflow;
    };
    let gate = encoder.true_lit();
    minimize_under(encoder, &compiled, &[], gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn a(i: u32) -> Formula {
        Formula::Atom(Atom(i))
    }

    fn softs(items: &[(u64, Formula)]) -> Vec<Soft> {
        items
            .iter()
            .map(|(w, f)| Soft::new(*w, f.clone()))
            .collect()
    }

    #[test]
    fn all_softs_satisfiable_costs_zero() {
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1)]));
        let soft = softs(&[(1, a(0)), (1, a(1))]);
        let outcome = minimize(&mut e, &soft);
        assert_eq!(
            outcome,
            MaxSatOutcome::Optimal {
                cost: 0,
                violated: vec![]
            }
        );
    }

    #[test]
    fn forced_violation_of_cheapest() {
        // a0 xor a1 forced; soft wants both; both weight 1 → cost 1.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let soft = softs(&[(1, a(0)), (1, a(1))]);
        match minimize(&mut e, &soft) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 1);
                assert_eq!(violated.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn weights_steer_which_soft_breaks() {
        // ¬(a0 ∧ a1): cannot have both. Soft(5, a0), Soft(1, a1) →
        // break a1, keep a0, cost 1.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let soft = softs(&[(5, a(0)), (1, a(1))]);
        match minimize(&mut e, &soft) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 1);
                assert_eq!(violated, vec![1]);
                assert_eq!(e.atom_value(Atom(0)), Some(true));
                assert_eq!(e.atom_value(Atom(1)), Some(false));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn grouped_softs_reach_the_ungrouped_optimum() {
        // Exactly one of a0..a3 holds, so the softs ¬a_i are violated one
        // at a time and may share a group; a2 also wants to hold. Grouped
        // or not, the optimum breaks the cheapest combination: cost 3.
        let choice = || {
            let mut e = Encoder::new();
            e.assert(&Formula::exactly(1, (0..4).map(a)));
            e
        };
        let weights = [5, 2, 7, 3];
        let pick = |group: Option<u32>| -> Vec<Soft> {
            let mut soft: Vec<Soft> = (0..4)
                .map(|i| Soft::new(weights[i as usize], Formula::not(a(i))).with_group(group))
                .collect();
            soft.push(Soft::new(1, a(2)));
            soft
        };
        for group in [None, Some(0)] {
            match minimize(&mut choice(), &pick(group)) {
                MaxSatOutcome::Optimal { cost, violated } => {
                    assert_eq!((cost, violated), (3, vec![1, 4]), "group {group:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_broken_group_is_a_typed_outcome_not_an_optimum() {
        // The hard clauses force a0 and a1 false, so both softs are
        // violated in every model (cost 7), yet they claim one at-most-one
        // group. The grouped leaf counts only the heavier violation, so
        // the bound 4 admits a model; the descent must report that model's
        // true cost instead of claiming an optimum of 4.
        let mut e = Encoder::new();
        e.assert(&Formula::not(a(0)));
        e.assert(&Formula::not(a(1)));
        let soft = vec![
            Soft::new(3, a(0)).with_group(Some(0)),
            Soft::new(4, a(1)).with_group(Some(0)),
        ];
        assert_eq!(
            minimize(&mut e, &soft),
            MaxSatOutcome::BoundExceeded { bound: 4, cost: 7 }
        );
    }

    #[test]
    fn hard_unsat_detected() {
        let mut e = Encoder::new();
        e.assert(&a(0));
        e.assert(&Formula::not(a(0)));
        let soft = softs(&[(1, a(1))]);
        assert_eq!(minimize(&mut e, &soft), MaxSatOutcome::HardUnsat);
    }

    #[test]
    fn linear_matches_brute_force_on_random_cases() {
        use netarch_rt::Rng;
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..30 {
            let num_atoms = rng.gen_range(2..=5u32);
            // Random hard 2-clauses + random weighted soft literals.
            let mut hard = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                let x = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let y = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let x = if rng.gen_bool(0.5) {
                    Formula::not(x)
                } else {
                    x
                };
                let y = if rng.gen_bool(0.5) {
                    Formula::not(y)
                } else {
                    y
                };
                hard.push(Formula::or([x, y]));
            }
            let mut soft = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                let x = Formula::Atom(Atom(rng.gen_range(0..num_atoms)));
                let x = if rng.gen_bool(0.5) {
                    Formula::not(x)
                } else {
                    x
                };
                soft.push(Soft::new(rng.gen_range(1..6), x));
            }
            // Brute force optimum.
            let mut best: Option<u64> = None;
            'outer: for bits in 0u32..(1 << num_atoms) {
                let assign = |at: Atom| (bits >> at.0) & 1 == 1;
                for h in &hard {
                    if !h.eval(&assign) {
                        continue 'outer;
                    }
                }
                let cost: u64 = soft
                    .iter()
                    .filter(|s| !s.formula.eval(&assign))
                    .map(|s| s.weight)
                    .sum();
                best = Some(best.map_or(cost, |b: u64| b.min(cost)));
            }
            let mut e = Encoder::new();
            for h in &hard {
                e.assert(h);
            }
            let outcome = minimize(&mut e, &soft);
            match (best, outcome) {
                (None, MaxSatOutcome::HardUnsat) => {}
                (Some(b), MaxSatOutcome::Optimal { cost, .. }) => {
                    assert_eq!(cost, b, "hard={hard:?} soft={soft:?}");
                }
                (expected, got) => panic!("expected {expected:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn lexicographic_respects_priority() {
        // a0 and a1 conflict. Level 1 prefers a0; level 2 prefers a1.
        // Each one-shot minimize hardens its optimum, so minimizing the
        // levels in order satisfies level 1 (a0) and level 2 must break.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let first = minimize(&mut e, &softs(&[(1, a(0))]));
        assert_eq!(
            first,
            MaxSatOutcome::Optimal {
                cost: 0,
                violated: vec![]
            }
        );
        let second = minimize(&mut e, &softs(&[(1, a(1))]));
        assert_eq!(
            second,
            MaxSatOutcome::Optimal {
                cost: 1,
                violated: vec![0]
            }
        );
        assert_eq!(e.atom_value(Atom(0)), Some(true));
        assert_eq!(e.atom_value(Atom(1)), Some(false));
    }

    #[test]
    fn lexicographic_reversed_priority_flips_outcome() {
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::and([a(0), a(1)])));
        let first = minimize(&mut e, &softs(&[(1, a(1))]));
        assert_eq!(
            first,
            MaxSatOutcome::Optimal {
                cost: 0,
                violated: vec![]
            }
        );
        let second = minimize(&mut e, &softs(&[(1, a(0))]));
        assert_eq!(
            second,
            MaxSatOutcome::Optimal {
                cost: 1,
                violated: vec![0]
            }
        );
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        assert_eq!(e.atom_value(Atom(0)), Some(false));
    }

    #[test]
    fn overflowing_weights_are_refused_not_wrapped() {
        // u64::MAX + 2 wraps to 1 with unchecked summation, which would
        // silently truncate the totalizer.
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1)]));
        let soft = softs(&[(u64::MAX, a(0)), (2, a(1))]);
        assert_eq!(minimize(&mut e, &soft), MaxSatOutcome::WeightOverflow);
        assert!(compile_softs(&mut e, soft).is_err());
    }

    #[test]
    fn weights_at_the_u64_boundary_still_optimize() {
        // Total is exactly u64::MAX: no overflow, and the cheap soft breaks.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let soft = softs(&[(u64::MAX - 1, a(0)), (1, a(1))]);
        match minimize(&mut e, &soft) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 1);
                assert_eq!(violated, vec![1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gated_minimize_caps_each_query_totalizer_at_its_first_model() {
        // Two gated optimize "queries" over one compiled objective must
        // agree. Each encodes its own totalizer, saturated at the cost of
        // its first model, and retiring each gate must release its hardened
        // bound (the session stays exactly the base theory).
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let compiled = compile_softs(&mut e, softs(&[(2, a(0)), (1, a(1))])).expect("no overflow");
        for _ in 0..2 {
            let gate = e.new_selector();
            let (outcome, objective) = descend(&mut e, &compiled, &[], gate);
            match outcome {
                MaxSatOutcome::Optimal { cost, violated } => {
                    assert_eq!(cost, 1);
                    assert_eq!(violated, vec![1]);
                    assert_eq!(e.atom_value(Atom(0)), Some(true));
                }
                other => panic!("unexpected {other:?}"),
            }
            // Under xor a first model violates exactly one soft, so its
            // cost is 1 or 2, never the weight total 3; the totalizer has
            // no output above it except the overflow output.
            let objective = objective.expect("a descent over softs encodes a totalizer");
            assert!(matches!(objective.cap, 1 | 2), "cap {}", objective.cap);
            let above: Vec<u64> = objective
                .outputs
                .iter()
                .map(|&(s, _)| s)
                .filter(|&s| s > objective.cap)
                .collect();
            assert_eq!(above, vec![objective.cap + 1]);
            e.retire(gate);
        }
        // After retirement the base theory is unconstrained by old optima:
        // the expensive assignment (a1, cost 2) is reachable again.
        let a1 = e.atom_lit(Atom(1));
        assert_eq!(e.solve_with(&[a1]), netarch_sat::SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(0)), Some(false));
    }

    #[test]
    fn non_atomic_softs_reach_the_brute_force_optimum_across_levels() {
        // Non-atomic softs get Tseitin violation literals, and the
        // totalizer that reads them is only encoded inside `minimize_under`,
        // after solves have already run on the session (an earlier
        // lexicographic level's, in the second pass). The descent must
        // still reach the brute-force optimum.
        let hard = [
            Formula::or([a(0), a(1)]),
            Formula::or([Formula::not(a(1)), a(2)]),
        ];
        let soft = softs(&[
            (3, Formula::not(Formula::and([a(0), a(1)]))),
            (2, Formula::and([a(1), a(2)])),
            (4, Formula::iff(a(0), a(2))),
            (1, Formula::or([Formula::not(a(0)), Formula::not(a(2))])),
        ]);
        // Brute-force optimum over the assignments `keep` admits.
        let optimum = |keep: &dyn Fn(u32) -> bool| {
            (0u32..8)
                .filter(|&bits| keep(bits))
                .filter_map(|bits| {
                    let v = |at: Atom| (bits >> at.0) & 1 == 1;
                    hard.iter().all(|h| h.eval(&v)).then(|| {
                        soft.iter()
                            .filter(|s| !s.formula.eval(&v))
                            .map(|s| s.weight)
                            .sum()
                    })
                })
                .min()
                .expect("the hard clauses are satisfiable")
        };
        for earlier_level in [false, true] {
            let mut e = Encoder::new();
            for h in &hard {
                e.assert(h);
            }
            let compiled = compile_softs(&mut e, soft.clone()).expect("no overflow");
            let gate = e.new_selector();
            let mut base = Vec::new();
            let mut best = optimum(&|_| true);
            if earlier_level {
                // An earlier lexicographic level (prefer a0, achievable)
                // runs its solves first.
                let first = compile_softs(&mut e, softs(&[(1, a(0))])).expect("no overflow");
                assert_eq!(
                    minimize_under(&mut e, &first, &base, gate),
                    MaxSatOutcome::Optimal {
                        cost: 0,
                        violated: vec![]
                    }
                );
                base.push(first.activation());
                best = optimum(&|bits| bits & 1 == 1);
            }
            match minimize_under(&mut e, &compiled, &base, gate) {
                MaxSatOutcome::Optimal { cost, .. } => assert_eq!(cost, best),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn gated_minimize_respects_base_assumptions() {
        // Base context forces a0 false; under xor the optimum flips to
        // violating the heavier soft. A later query without that base sees
        // the unconstrained optimum again.
        let mut e = Encoder::new();
        e.assert(&Formula::xor(a(0), a(1)));
        let sel = e.new_selector();
        e.assert_under(sel, &Formula::not(a(0)));
        let compiled = compile_softs(&mut e, softs(&[(2, a(0)), (1, a(1))])).expect("no overflow");
        let g1 = e.new_selector();
        match minimize_under(&mut e, &compiled, &[sel], g1) {
            MaxSatOutcome::Optimal { cost, violated } => {
                assert_eq!(cost, 2);
                assert_eq!(violated, vec![0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        e.retire(g1);
        let g2 = e.new_selector();
        match minimize_under(&mut e, &compiled, &[], g2) {
            MaxSatOutcome::Optimal { cost, .. } => assert_eq!(cost, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gated_minimize_reports_hard_unsat_under_base() {
        let mut e = Encoder::new();
        let sel = e.new_selector();
        e.assert_under(sel, &a(0));
        e.assert_under(sel, &Formula::not(a(0)));
        let compiled = compile_softs(&mut e, softs(&[(1, a(1))])).expect("no overflow");
        let gate = e.new_selector();
        assert_eq!(
            minimize_under(&mut e, &compiled, &[sel], gate),
            MaxSatOutcome::HardUnsat
        );
    }
}
