//! Pseudo-Boolean (weighted sum) constraints.
//!
//! Comparisons `Σ wᵢ·xᵢ ⋈ bound` (`≤`, `≥`, `=`, guarded and reified) are
//! encoded as a **binary adder** plus comparator (Eén–Sörensson 2006;
//! Warners 1998): the weights' bit columns are summed with full and half
//! adders into output bits, and one clause per 0-bit of the bound rules
//! out every larger sum. Its size grows with the weights' bit count times
//! the number of terms, not with the bound, so a 59-term dollar budget
//! near $1.2 M takes 1.8 k clauses.
//!
//! The **generalized totalizer** (GTE, Joshi-Martins-Manquinho 2015) stays
//! behind [`gte_outputs`], for callers that need one literal per reached
//! sum: the MaxSAT descent's bound probes and the capacity planner's
//! demand-to-fleet implications. It is a balanced merge tree whose nodes
//! track the set of achievable weighted sums, with one output literal per
//! sum; inputs force outputs, which suffices for bounds.
//!
//! Sums are *saturated* at `cap`: any achievable sum above the cap is
//! collapsed into a single overflow output, keeping node sizes bounded when
//! only a comparison against `bound ≤ cap` is needed.
//!
//! Terms enter the tree sorted by ascending weight, so each merge pairs a
//! subtree of light terms with one of heavy terms, whose sums saturate
//! early. A merge then emits, for each left output, the pair clauses up to
//! the first right output whose total saturates: every node's outputs are
//! monotone (`hi → lo`), so the clauses for larger right outputs are
//! implied. Node sums are `u128`, so no total wraps and a `u64::MAX` cap
//! still has an overflow output.
//!
//! The architecture engine uses these for resource contention (§2.2):
//! "cores_needed(CPU_FACTOR * num_flows)" summed over selected systems must
//! fit the server inventory, and for the budget (§2.3).

use crate::sink::ClauseSink;
use netarch_sat::Lit;
use std::collections::VecDeque;

/// One weighted term of a pseudo-Boolean sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PbTerm {
    /// Non-negative weight.
    pub weight: u64,
    /// The literal contributing `weight` when true.
    pub lit: Lit,
}

impl PbTerm {
    /// Creates a term.
    pub fn new(weight: u64, lit: Lit) -> PbTerm {
        PbTerm { weight, lit }
    }
}

/// Sum of the term weights, or `None` when it overflows `u64`.
pub fn weight_sum(terms: &[PbTerm]) -> Option<u64> {
    terms
        .iter()
        .try_fold(0u64, |acc, t| acc.checked_add(t.weight))
}

/// Exact sum of the term weights.
fn total(terms: &[PbTerm]) -> u128 {
    terms.iter().map(|t| u128::from(t.weight)).sum()
}

/// A node of the generalized totalizer: achievable sums in increasing
/// order, each with the literal that is forced true when the inputs reach
/// at least that sum.
#[derive(Clone, Debug)]
pub struct GteOutputs {
    /// `(sum, lit)` pairs sorted by increasing sum; `lit` is forced true
    /// whenever the weighted input sum is ≥ `sum`.
    pub outputs: Vec<(u64, Lit)>,
}

impl GteOutputs {
    /// Literal that is true when the sum is at least `threshold`, if such
    /// an output exists (the smallest output ≥ threshold).
    pub fn reached(&self, threshold: u64) -> Option<Lit> {
        self.outputs
            .iter()
            .find(|&&(s, _)| s >= threshold)
            .map(|&(_, l)| l)
    }

    /// The distinct achievable sums (including saturated overflow value).
    pub fn sums(&self) -> Vec<u64> {
        self.outputs.iter().map(|&(s, _)| s).collect()
    }
}

/// Builds the generalized totalizer over `terms`, saturating sums at `cap`.
///
/// Terms with zero weight are ignored. Returns outputs covering every
/// achievable sum in `1..=cap`, plus one overflow output representing
/// "sum > cap" when the total weight exceeds the cap. A cap of `u64::MAX`
/// is read as `u64::MAX - 1`, so every output sum fits in `u64`: the top
/// output then stands for "sum ≥ u64::MAX".
pub fn gte_outputs(sink: &mut impl ClauseSink, terms: &[PbTerm], cap: u64) -> GteOutputs {
    let mut inputs: Vec<PbTerm> = terms.iter().copied().filter(|t| t.weight > 0).collect();
    if inputs.is_empty() {
        return GteOutputs { outputs: Vec::new() };
    }
    inputs.sort_by_key(|t| t.weight);
    let saturate = u128::from(cap.min(u64::MAX - 1)) + 1;
    let outputs = build_node(sink, &inputs, saturate)
        .into_iter()
        .map(|(s, l)| (u64::try_from(s).expect("sums saturate at cap + 1 ≤ u64::MAX"), l))
        .collect();
    GteOutputs { outputs }
}

/// Recursive tree builder. `saturate` is the collapsed overflow sum.
fn build_node(sink: &mut impl ClauseSink, terms: &[PbTerm], saturate: u128) -> Vec<(u128, Lit)> {
    if terms.len() == 1 {
        return vec![(u128::from(terms[0].weight).min(saturate), terms[0].lit)];
    }
    let mid = terms.len() / 2;
    let left = build_node(sink, &terms[..mid], saturate);
    let right = build_node(sink, &terms[mid..], saturate);
    merge_nodes(sink, &left, &right, saturate)
}

/// The pairs of `a × b` whose clauses a merge emits: for each left output,
/// the right outputs up to and including the first whose total saturates.
/// The right outputs are monotone (`hi → lo`), so a pair with a larger
/// right output implies the saturating pair's clause.
fn merge_pairs<'a>(
    a: &'a [(u128, Lit)],
    b: &'a [(u128, Lit)],
    saturate: u128,
) -> impl Iterator<Item = (Lit, Lit, u128)> + 'a {
    a.iter().flat_map(move |&(sa, la)| {
        let unsaturated = b.partition_point(|&(sb, _)| sa + sb < saturate);
        b[..(unsaturated + 1).min(b.len())]
            .iter()
            .map(move |&(sb, lb)| (la, lb, (sa + sb).min(saturate)))
    })
}

fn merge_nodes(
    sink: &mut impl ClauseSink,
    a: &[(u128, Lit)],
    b: &[(u128, Lit)],
    saturate: u128,
) -> Vec<(u128, Lit)> {
    // Achievable sums: each side alone, plus each pairwise total.
    let mut sums: Vec<u128> = a.iter().chain(b).map(|&(s, _)| s).collect();
    sums.extend(merge_pairs(a, b, saturate).map(|(_, _, total)| total));
    sums.sort_unstable();
    sums.dedup();

    let outputs: Vec<(u128, Lit)> = sums.iter().map(|&s| (s, sink.fresh_lit())).collect();
    // Every sum we emit is an output sum.
    let find = |s: u128| outputs[outputs.partition_point(|&(os, _)| os < s)].1;

    // a_sa → out_sa ; b_sb → out_sb ; a_sa ∧ b_sb → out_{sa+sb}
    for &(s, l) in a.iter().chain(b) {
        sink.add_clause(&[!l, find(s)]);
    }
    for (la, lb, total) in merge_pairs(a, b, saturate) {
        sink.add_clause(&[!la, !lb, find(total)]);
    }
    // Monotonicity between adjacent outputs: reaching a larger sum implies
    // reaching every smaller one. Callers may assume only the smallest
    // violated output, and the merge above relies on it to prune pairs.
    for w in outputs.windows(2) {
        let (_, lo) = w[0];
        let (_, hi) = w[1];
        sink.add_clause(&[!hi, lo]);
    }
    outputs
}

/// Emits `guard → Σ wᵢ·xᵢ ≤ bound` as a binary adder plus comparator
/// (Eén–Sörensson 2006; Warners 1998), whose size grows with the weights'
/// bit count rather than with the bound.
///
/// Zero weights drop out, and each term heavier than the bound gets one
/// guard-weakened clause forbidding it, so unit propagation still refutes
/// a single over-budget term. The remaining weights and the bound are
/// divided by the weights' gcd; [`adder`] sums the quotients into output
/// bits, and each 0-bit of the bound gets one guard-weakened comparator
/// clause. The adder itself is unguarded: it only defines fresh output
/// bits, which every input assignment satisfies.
fn le_under(sink: &mut impl ClauseSink, guard: &[Lit], terms: &[PbTerm], bound: u128) {
    if total(terms) <= bound {
        return; // trivially satisfied
    }
    let weakened = |lit: Lit| -> Vec<Lit> { guard.iter().map(|&g| !g).chain([lit]).collect() };
    let mut summed = Vec::new();
    for &t in terms.iter().filter(|t| t.weight > 0) {
        if u128::from(t.weight) > bound {
            sink.add_clause(&weakened(!t.lit));
        } else {
            summed.push(t);
        }
    }
    if total(&summed) <= bound {
        return;
    }
    let divisor = summed.iter().fold(0, |g, t| gcd(g, t.weight));
    let bound = bound / u128::from(divisor);
    for t in &mut summed {
        t.weight /= divisor;
    }
    let bits = adder(sink, &summed);
    // sum > bound iff, at some 0-bit j of the bound, bit j and every
    // higher 1-bit of the bound are set. An output bit that no term
    // reaches is constant false and satisfies its clause.
    'zero_bits: for (j, bit) in bits.iter().enumerate() {
        let Some(bit) = *bit else { continue };
        if (bound >> j) & 1 == 1 {
            continue;
        }
        let mut clause = weakened(!bit);
        for (i, higher) in bits.iter().enumerate().skip(j + 1) {
            if (bound >> i) & 1 == 1 {
                let Some(higher) = *higher else { continue 'zero_bits };
                clause.push(!higher);
            }
        }
        sink.add_clause(&clause);
    }
}

/// Greatest common divisor; `gcd(0, b) = b`.
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Sums `terms` in binary: every bit column is reduced with full and half
/// adders, first in, first out, each sum staying in its column and each
/// carry joining the next. Returns one output bit per column, `None` where
/// no term reaches it.
fn adder(sink: &mut impl ClauseSink, terms: &[PbTerm]) -> Vec<Option<Lit>> {
    let mut columns: Vec<VecDeque<Lit>> = Vec::new();
    for t in terms {
        for j in (0..u64::BITS as usize).filter(|j| (t.weight >> j) & 1 == 1) {
            if columns.len() <= j {
                columns.resize(j + 1, VecDeque::new());
            }
            columns[j].push_back(t.lit);
        }
    }
    let mut bits = Vec::with_capacity(columns.len());
    let mut j = 0;
    while j < columns.len() {
        while columns[j].len() >= 2 {
            let take = columns[j].len().min(3);
            let inputs: Vec<Lit> = columns[j].drain(..take).collect();
            let (sum, carry) = add_bits(sink, &inputs);
            columns[j].push_back(sum);
            if columns.len() == j + 1 {
                columns.push(VecDeque::new());
            }
            columns[j + 1].push_back(carry);
        }
        bits.push(columns[j].pop_front());
        j += 1;
    }
    bits
}

/// A half (two inputs) or full (three inputs) adder: fresh `sum ↔ ⊕
/// inputs` and `carry ↔ (at least two inputs)`. Both directions are
/// encoded: the `≤` comparator needs only the outputs forced up, but
/// outputs pinned to their inputs leave the search no spurious adder
/// states to refute (the budgeted §2.3 check: 4 conflicts, not 26).
fn add_bits(sink: &mut impl ClauseSink, inputs: &[Lit]) -> (Lit, Lit) {
    let sum = sink.fresh_lit();
    let carry = sink.fresh_lit();
    for pattern in 0u32..1 << inputs.len() {
        let mut clause: Vec<Lit> = inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| if (pattern >> i) & 1 == 1 { !x } else { x })
            .collect();
        clause.push(if pattern.count_ones() % 2 == 1 { sum } else { !sum });
        sink.add_clause(&clause);
    }
    for (i, &x) in inputs.iter().enumerate() {
        for &y in &inputs[i + 1..] {
            sink.add_clause(&[!x, !y, carry]);
        }
        // At least two inputs are set iff every input but one leaves a
        // set input among the rest.
        let mut clause: Vec<Lit> =
            inputs.iter().enumerate().filter(|&(k, _)| k != i).map(|(_, &y)| y).collect();
        clause.push(!carry);
        sink.add_clause(&clause);
    }
    (sum, carry)
}

/// Asserts `Σ wᵢ·xᵢ ≤ bound`.
pub fn assert_pb_le(sink: &mut impl ClauseSink, terms: &[PbTerm], bound: u64) {
    le_under(sink, &[], terms, u128::from(bound));
}

/// Asserts `(g₁ ∧ … ∧ gₖ) → Σ wᵢ·xᵢ ≤ bound` for the `guard` literals
/// (a rule's group selector, a hardware choice): the adder itself is
/// unguarded, and only the clauses that enforce the bound carry the guard.
pub fn assert_pb_le_under(sink: &mut impl ClauseSink, guard: &[Lit], terms: &[PbTerm], bound: u64) {
    le_under(sink, guard, terms, u128::from(bound));
}

/// `terms` with every literal negated: `Σ wᵢ·xᵢ ≥ b ⇔ Σ wᵢ·¬xᵢ ≤ total - b`.
fn complemented(terms: &[PbTerm]) -> Vec<PbTerm> {
    terms
        .iter()
        .map(|&t| PbTerm::new(t.weight, !t.lit))
        .collect()
}

/// Asserts `Σ wᵢ·xᵢ ≥ bound` (via the complement sum).
pub fn assert_pb_ge(sink: &mut impl ClauseSink, terms: &[PbTerm], bound: u64) {
    if bound == 0 {
        return;
    }
    let total = total(terms);
    let bound = u128::from(bound);
    if total < bound {
        // Unsatisfiable: emit the empty clause.
        sink.add_clause(&[]);
        return;
    }
    le_under(sink, &[], &complemented(terms), total - bound);
}

/// Asserts `Σ wᵢ·xᵢ = bound`.
pub fn assert_pb_eq(sink: &mut impl ClauseSink, terms: &[PbTerm], bound: u64) {
    assert_pb_le(sink, terms, bound);
    assert_pb_ge(sink, terms, bound);
}

/// Creates a literal `p` such that `p ⇔ (Σ wᵢ·xᵢ ≤ bound)`.
///
/// Composed from two one-directional encodings guarded by `p`:
/// `p → (sum ≤ bound)` and `¬p → (sum ≥ bound + 1)`.
pub fn reify_pb_le(sink: &mut impl ClauseSink, terms: &[PbTerm], bound: u64) -> Lit {
    let p = sink.fresh_lit();
    let total = total(terms);
    let bound = u128::from(bound);
    if total <= bound {
        sink.add_clause(&[p]);
        return p;
    }
    le_under(sink, &[p], terms, bound);
    // ¬p → sum ≥ bound+1, i.e. complement sum ≤ total - bound - 1.
    le_under(sink, &[!p], &complemented(terms), total - bound - 1);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_sat::{SolveResult, Solver};

    fn inputs(s: &mut Solver, weights: &[u64]) -> Vec<PbTerm> {
        weights
            .iter()
            .map(|&w| PbTerm::new(w, s.new_var().positive()))
            .collect()
    }

    /// Brute-force check: for every input assignment, constraint result
    /// must equal the arithmetic comparison.
    fn check_all_assignments(
        weights: &[u64],
        bound: u64,
        build: impl Fn(&mut Solver, &[PbTerm]),
        cmp: impl Fn(u64, u64) -> bool,
    ) {
        let n = weights.len();
        for bits in 0u32..(1 << n) {
            let mut s = Solver::new();
            let terms = inputs(&mut s, weights);
            build(&mut s, &terms);
            for (i, t) in terms.iter().enumerate() {
                if (bits >> i) & 1 == 1 {
                    s.add_clause([t.lit]);
                } else {
                    s.add_clause([!t.lit]);
                }
            }
            let sum: u64 = terms
                .iter()
                .enumerate()
                .filter(|(i, _)| (bits >> i) & 1 == 1)
                .map(|(_, t)| t.weight)
                .sum();
            let expected = if cmp(sum, bound) {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(
                s.solve(),
                expected,
                "weights={weights:?} bound={bound} bits={bits:b} sum={sum}"
            );
        }
    }

    #[test]
    fn pb_le_exhaustive() {
        for (weights, bound) in [
            (vec![1u64, 1, 1], 2u64),
            (vec![2, 3, 4], 5),
            (vec![5, 1, 1, 1], 5),
            (vec![7, 7, 7], 13),
            (vec![1, 2, 4, 8], 9),
            (vec![3, 3, 3, 3], 6),
            (vec![10, 1], 0),
        ] {
            check_all_assignments(
                &weights,
                bound,
                |s, t| assert_pb_le(s, t, bound),
                |sum, b| sum <= b,
            );
        }
    }

    #[test]
    fn pb_ge_exhaustive() {
        for (weights, bound) in [
            (vec![1u64, 1, 1], 2u64),
            (vec![2, 3, 4], 5),
            (vec![1, 2, 4, 8], 9),
            (vec![3, 3, 3], 9),
            (vec![4, 4], 1),
        ] {
            check_all_assignments(
                &weights,
                bound,
                |s, t| assert_pb_ge(s, t, bound),
                |sum, b| sum >= b,
            );
        }
    }

    #[test]
    fn pb_eq_exhaustive() {
        for (weights, bound) in [
            (vec![1u64, 1, 1], 2u64),
            (vec![2, 3, 4], 5),
            (vec![1, 2, 4], 7),
            (vec![2, 2, 2], 3), // odd target with even weights: only UNSAT rows
        ] {
            check_all_assignments(
                &weights,
                bound,
                |s, t| assert_pb_eq(s, t, bound),
                |sum, b| sum == b,
            );
        }
    }

    #[test]
    fn pb_ge_unreachable_bound_is_unsat() {
        let mut s = Solver::new();
        let terms = inputs(&mut s, &[1, 2]);
        assert_pb_ge(&mut s, &terms, 10);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn reified_pb_le_both_directions() {
        for (weights, bound) in [(vec![2u64, 3, 4], 5u64), (vec![1, 1, 1], 1), (vec![5, 2], 4)] {
            let n = weights.len();
            for bits in 0u32..(1 << n) {
                let mut s = Solver::new();
                let terms = inputs(&mut s, &weights);
                let p = reify_pb_le(&mut s, &terms, bound);
                for (i, t) in terms.iter().enumerate() {
                    if (bits >> i) & 1 == 1 {
                        s.add_clause([t.lit]);
                    } else {
                        s.add_clause([!t.lit]);
                    }
                }
                assert_eq!(s.solve(), SolveResult::Sat);
                let sum: u64 = terms
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (bits >> i) & 1 == 1)
                    .map(|(_, t)| t.weight)
                    .sum();
                assert_eq!(
                    s.model_lit_value(p),
                    Some(sum <= bound),
                    "weights={weights:?} bound={bound} bits={bits:b}"
                );
            }
        }
    }

    #[test]
    fn gte_outputs_reflect_reached_sums() {
        let mut s = Solver::new();
        let terms = inputs(&mut s, &[2, 3, 5]);
        let node = gte_outputs(&mut s, &terms, 10);
        // Force x0 (w=2) and x2 (w=5): sum = 7.
        s.add_clause([terms[0].lit]);
        s.add_clause([!terms[1].lit]);
        s.add_clause([terms[2].lit]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &(sum, l) in &node.outputs {
            let v = s.model_lit_value(l).unwrap();
            if sum <= 7 {
                assert!(v, "output for sum {sum} should be reached");
            }
            // One-directional encoding: outputs above the true sum are not
            // forced either way, so no assertion for sum > 7.
        }
        assert!(node.reached(7).is_some());
        assert!(node.reached(8).is_none_or(|l| {
            // If an output ≥ 8 exists, it must not be *forced* true; solver
            // may have chosen either value. Just ensure lookup works.
            let _ = l;
            true
        }));
    }

    #[test]
    fn zero_weight_terms_are_ignored() {
        let mut s = Solver::new();
        let terms = inputs(&mut s, &[0, 0, 3]);
        assert_pb_le(&mut s, &terms, 2);
        // x2 has weight 3 > bound 2, so x2 is forced false; x0/x1 free.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit_value(terms[2].lit), Some(false));
    }

    #[test]
    fn trivially_satisfied_le_emits_nothing() {
        let mut sink = crate::sink::CollectSink::default();
        let terms: Vec<PbTerm> = (0..3)
            .map(|_| PbTerm::new(1, sink.fresh_lit()))
            .collect();
        assert_pb_le(&mut sink, &terms, 3);
        assert!(sink.clauses.is_empty());
    }

    #[test]
    fn saturation_keeps_outputs_bounded() {
        let mut sink = crate::sink::CollectSink::default();
        let terms: Vec<PbTerm> = (0..12)
            .map(|i| PbTerm::new(1 << (i % 6), sink.fresh_lit()))
            .collect();
        let node = gte_outputs(&mut sink, &terms, 10);
        // Saturated at cap+1 = 11: no output sum may exceed 11.
        assert!(node.outputs.iter().all(|&(s, _)| s <= 11));
    }
}
