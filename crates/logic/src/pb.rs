//! Pseudo-Boolean (weighted sum) constraints.
//!
//! Guarded comparisons `guard → Σ wᵢ·xᵢ ≤ bound` ([`assert_pb_le_under`])
//! are encoded as a **binary adder** plus comparator (Eén–Sörensson 2006;
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
//! Its leaves are **at-most-one groups** (Bofill, Coll, Suy, Villaret,
//! *SAT Encodings of Pseudo-Boolean Constraints with At-Most-One
//! Relations*, CPAIOR 2019). When the caller knows that at most one of
//! some terms is true in every model it reads the outputs in (one system
//! per role category, one model per hardware slot), those terms enter the
//! tree as one leaf whose outputs are their distinct weights, so no node
//! enumerates sums inside a group. On the case study's cost objective at
//! its first model's cost (59 terms) that takes one descent from 31.5 k
//! clauses to 3.2 k. A one-term group is the plain leaf.
//!
//! Sums are *saturated* at `cap`: any achievable sum above the cap is
//! collapsed into a single overflow output, keeping node sizes bounded when
//! only a comparison against `bound ≤ cap` is needed.
//!
//! Leaves enter the tree sorted by ascending (largest) weight, so each
//! merge pairs a subtree of light terms with one of heavy terms, whose
//! sums saturate early. A merge then emits, for each left output, the pair
//! clauses up to the first right output whose total saturates: every
//! node's outputs are monotone (`hi → lo`), so the clauses for larger right
//! outputs are implied. Node sums are `u128`, so no total wraps and a
//! `u64::MAX` cap still has an overflow output.
//!
//! The architecture engine uses these for resource contention (§2.2):
//! "cores_needed(CPU_FACTOR * num_flows)" summed over selected systems must
//! fit the server inventory, and for the budget (§2.3).

use crate::sink::ClauseSink;
use netarch_sat::Lit;
use std::collections::{BTreeMap, VecDeque};

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

/// Builds the generalized totalizer over at-most-one `groups` of terms,
/// saturating sums at `cap`.
///
/// The caller guarantees that at most one term of each group is true in
/// every model the outputs are read in; the outputs then force exactly as
/// a totalizer over the flat terms would. A one-term group is a plain leaf,
/// its own literal, so ungrouped callers pass one group per term. A larger
/// group becomes one leaf with a fresh output per distinct saturated
/// weight of its members: `xᵢ → o_{wᵢ}` for each member and `o_{k+1} → o_k`
/// down the chain, so sums inside a group are never enumerated. Leaves
/// enter the tree sorted by their largest weight and merge as terms do.
///
/// Terms with zero weight are ignored. Returns outputs covering every
/// achievable sum in `1..=cap`, plus one overflow output representing
/// "sum > cap" when some achievable sum exceeds the cap. A cap of
/// `u64::MAX` is read as `u64::MAX - 1`, so every output sum fits in `u64`:
/// the top output then stands for "sum ≥ u64::MAX".
pub fn gte_outputs<G: AsRef<[PbTerm]>>(
    sink: &mut impl ClauseSink,
    groups: &[G],
    cap: u64,
) -> GteOutputs {
    let saturate = u128::from(cap.min(u64::MAX - 1)) + 1;
    let mut leaves: Vec<(u64, Node)> = groups
        .iter()
        .filter_map(|g| group_leaf(sink, g.as_ref(), saturate))
        .collect();
    if leaves.is_empty() {
        return GteOutputs {
            outputs: Vec::new(),
        };
    }
    leaves.sort_by_key(|&(heaviest, _)| heaviest);
    let mut leaves: Vec<Node> = leaves.into_iter().map(|(_, leaf)| leaf).collect();
    let outputs = build_node(sink, &mut leaves, saturate)
        .into_iter()
        .map(|(s, l)| {
            (
                u64::try_from(s).expect("sums saturate at cap + 1 ≤ u64::MAX"),
                l,
            )
        })
        .collect();
    GteOutputs { outputs }
}

/// Buckets tagged terms into the at-most-one groups [`gte_outputs`] takes:
/// terms that share a tag form one group, in order of first appearance,
/// and an untagged term is a group of its own.
pub fn group_terms(tagged: impl IntoIterator<Item = (Option<u32>, PbTerm)>) -> Vec<Vec<PbTerm>> {
    let mut groups: Vec<Vec<PbTerm>> = Vec::new();
    let mut index_of: BTreeMap<u32, usize> = BTreeMap::new();
    for (tag, term) in tagged {
        let index = match tag {
            None => groups.len(),
            Some(tag) => *index_of.entry(tag).or_insert(groups.len()),
        };
        if index == groups.len() {
            groups.push(Vec::new());
        }
        groups[index].push(term);
    }
    groups
}

/// A totalizer node's outputs: `(sum, lit)` pairs by increasing sum, each
/// output implying the one below it.
type Node = Vec<(u128, Lit)>;

/// One group's leaf, keyed by its largest weight for sorting; `None` when
/// no member has weight. A single member is its own output. Otherwise each
/// distinct saturated weight gets a fresh output, forced by the members of
/// that weight and chained downward like every node's outputs.
fn group_leaf(
    sink: &mut impl ClauseSink,
    members: &[PbTerm],
    saturate: u128,
) -> Option<(u64, Node)> {
    let members: Vec<PbTerm> = members.iter().copied().filter(|t| t.weight > 0).collect();
    let heaviest = members.iter().map(|t| t.weight).max()?;
    let saturated = |t: &PbTerm| u128::from(t.weight).min(saturate);
    if let [only] = members[..] {
        return Some((heaviest, vec![(saturated(&only), only.lit)]));
    }
    let mut sums: Vec<u128> = members.iter().map(saturated).collect();
    sums.sort_unstable();
    sums.dedup();
    let outputs: Node = sums.iter().map(|&s| (s, sink.fresh_lit())).collect();
    for t in &members {
        let at = outputs.partition_point(|&(s, _)| s < saturated(t));
        sink.add_clause(&[!t.lit, outputs[at].1]);
    }
    chain_downward(sink, &outputs);
    Some((heaviest, outputs))
}

/// Recursive tree builder over the leaves, which it takes. `saturate` is
/// the collapsed overflow sum.
fn build_node(sink: &mut impl ClauseSink, leaves: &mut [Node], saturate: u128) -> Node {
    if let [leaf] = leaves {
        return std::mem::take(leaf);
    }
    let mid = leaves.len() / 2;
    let (left, right) = leaves.split_at_mut(mid);
    let left = build_node(sink, left, saturate);
    let right = build_node(sink, right, saturate);
    merge_nodes(sink, &left, &right, saturate)
}

/// Monotonicity between adjacent outputs: reaching a larger sum implies
/// reaching every smaller one. Callers may assume only the smallest
/// violated output, and a merge relies on it to prune pairs.
fn chain_downward(sink: &mut impl ClauseSink, outputs: &[(u128, Lit)]) {
    for w in outputs.windows(2) {
        let (_, lo) = w[0];
        let (_, hi) = w[1];
        sink.add_clause(&[!hi, lo]);
    }
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
) -> Node {
    // Achievable sums: each side alone, plus each pairwise total.
    let mut sums: Vec<u128> = a.iter().chain(b).map(|&(s, _)| s).collect();
    sums.extend(merge_pairs(a, b, saturate).map(|(_, _, total)| total));
    sums.sort_unstable();
    sums.dedup();

    let outputs: Node = sums.iter().map(|&s| (s, sink.fresh_lit())).collect();
    // Every sum we emit is an output sum.
    let find = |s: u128| outputs[outputs.partition_point(|&(os, _)| os < s)].1;

    // a_sa → out_sa ; b_sb → out_sb ; a_sa ∧ b_sb → out_{sa+sb}
    for &(s, l) in a.iter().chain(b) {
        sink.add_clause(&[!l, find(s)]);
    }
    for (la, lb, total) in merge_pairs(a, b, saturate) {
        sink.add_clause(&[!la, !lb, find(total)]);
    }
    chain_downward(sink, &outputs);
    outputs
}

/// Asserts `(g₁ ∧ … ∧ gₖ) → Σ wᵢ·xᵢ ≤ bound` for the `guard` literals (a
/// rule's group selector, a hardware choice; none for an unconditional
/// bound) as a binary adder plus comparator (Eén–Sörensson 2006; Warners
/// 1998), whose size grows with the weights' bit count rather than with
/// the bound.
///
/// Zero weights drop out, and each term heavier than the bound gets one
/// guard-weakened clause forbidding it, so unit propagation still refutes
/// a single over-budget term. The remaining weights and the bound are
/// divided by the weights' gcd; a binary adder sums the quotients into
/// output bits, and each 0-bit of the bound gets one guard-weakened
/// comparator clause. The adder itself is unguarded: it only defines fresh
/// output bits, which every input assignment satisfies.
pub fn assert_pb_le_under(sink: &mut impl ClauseSink, guard: &[Lit], terms: &[PbTerm], bound: u64) {
    let bound = u128::from(bound);
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
                let Some(higher) = *higher else {
                    continue 'zero_bits;
                };
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
        clause.push(if pattern.count_ones() % 2 == 1 {
            sum
        } else {
            !sum
        });
        sink.add_clause(&clause);
    }
    for (i, &x) in inputs.iter().enumerate() {
        for &y in &inputs[i + 1..] {
            sink.add_clause(&[!x, !y, carry]);
        }
        // At least two inputs are set iff every input but one leaves a
        // set input among the rest.
        let mut clause: Vec<Lit> = inputs
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &y)| y)
            .collect();
        clause.push(!carry);
        sink.add_clause(&clause);
    }
    (sum, carry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_sat::{SolveResult, Solver};

    fn singletons(terms: &[PbTerm]) -> Vec<[PbTerm; 1]> {
        terms.iter().map(|&t| [t]).collect()
    }

    fn inputs(s: &mut Solver, weights: &[u64]) -> Vec<PbTerm> {
        weights
            .iter()
            .map(|&w| PbTerm::new(w, s.new_var().positive()))
            .collect()
    }

    #[test]
    fn pb_le_exhaustive() {
        // For every input assignment, the unguarded `≤` must be SAT exactly
        // when the arithmetic sum is within the bound.
        for (weights, bound) in [
            (vec![1u64, 1, 1], 2u64),
            (vec![2, 3, 4], 5),
            (vec![5, 1, 1, 1], 5),
            (vec![7, 7, 7], 13),
            (vec![1, 2, 4, 8], 9),
            (vec![3, 3, 3, 3], 6),
            (vec![10, 1], 0),
        ] {
            for bits in 0u32..(1 << weights.len()) {
                let mut s = Solver::new();
                let terms = inputs(&mut s, &weights);
                assert_pb_le_under(&mut s, &[], &terms, bound);
                let mut sum = 0;
                for (i, t) in terms.iter().enumerate() {
                    if (bits >> i) & 1 == 1 {
                        s.add_clause([t.lit]);
                        sum += t.weight;
                    } else {
                        s.add_clause([!t.lit]);
                    }
                }
                let expected = if sum <= bound {
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
    }

    #[test]
    fn gte_outputs_reflect_reached_sums() {
        let mut s = Solver::new();
        let terms = inputs(&mut s, &[2, 3, 5]);
        let node = gte_outputs(&mut s, &singletons(&terms), 10);
        assert_eq!(node.sums(), vec![2, 3, 5, 7, 8, 10]);
        // x0 (w=2) and x2 (w=5): sum = 7 reaches every output up to 7.
        let seven = [terms[0].lit, !terms[1].lit, terms[2].lit];
        assert_eq!(s.solve_with(&seven), SolveResult::Sat);
        for &(sum, l) in node.outputs.iter().filter(|&&(sum, _)| sum <= 7) {
            assert_eq!(s.model_lit_value(l), Some(true), "output for sum {sum}");
        }
        // `reached` is the smallest output at or above the threshold.
        assert_eq!(node.reached(6), node.reached(7));
        assert_eq!(node.reached(11), None, "the total 10 is within the cap");
        // The encoding is one-directional: sum 7 leaves the output for 8
        // free, while all three inputs (sum 10) force it.
        let eight = node.reached(8).expect("8 is an achievable sum");
        assert_eq!(
            s.solve_with(&[seven[0], seven[1], seven[2], !eight]),
            SolveResult::Sat
        );
        let all = [terms[0].lit, terms[1].lit, terms[2].lit, !eight];
        assert_eq!(s.solve_with(&all), SolveResult::Unsat);
    }

    #[test]
    fn a_group_is_one_leaf_over_its_distinct_weights() {
        let mut sink = crate::sink::CollectSink::default();
        let terms: Vec<PbTerm> = [3, 3, 5, 0]
            .iter()
            .map(|&w| PbTerm::new(w, sink.fresh_lit()))
            .collect();
        let vars = sink.num_vars;
        // A lone group's outputs are its distinct weights: 0 drops out, the
        // two 3s share one output, and nothing sums inside the group.
        let node = gte_outputs(&mut sink, &[&terms[..]], 100);
        assert_eq!(node.sums(), vec![3, 5]);
        assert_eq!(sink.num_vars, vars + 2);
        // Three member clauses and one chain clause.
        assert_eq!(sink.clauses.len(), 4);
        // A one-term group is its own literal: no variable, no clause.
        let lone = gte_outputs(&mut sink, &[[terms[2]]], 100);
        assert_eq!(lone.outputs, vec![(5, terms[2].lit)]);
        assert_eq!(sink.clauses.len(), 4);
    }

    #[test]
    fn group_terms_buckets_by_tag_in_first_appearance_order() {
        let mut sink = crate::sink::CollectSink::default();
        let t: Vec<PbTerm> = (1..=5).map(|w| PbTerm::new(w, sink.fresh_lit())).collect();
        let groups = group_terms([
            (Some(7), t[0]),
            (None, t[1]),
            (Some(2), t[2]),
            (Some(7), t[3]),
            (None, t[4]),
        ]);
        assert_eq!(
            groups,
            vec![vec![t[0], t[3]], vec![t[1]], vec![t[2]], vec![t[4]]]
        );
    }

    #[test]
    fn zero_weight_terms_are_ignored() {
        let mut s = Solver::new();
        let terms = inputs(&mut s, &[0, 0, 3]);
        assert_pb_le_under(&mut s, &[], &terms, 2);
        // x2 has weight 3 > bound 2, so x2 is forced false; x0/x1 free.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit_value(terms[2].lit), Some(false));
    }

    #[test]
    fn trivially_satisfied_le_emits_nothing() {
        let mut sink = crate::sink::CollectSink::default();
        let terms: Vec<PbTerm> = (0..3).map(|_| PbTerm::new(1, sink.fresh_lit())).collect();
        assert_pb_le_under(&mut sink, &[], &terms, 3);
        assert!(sink.clauses.is_empty());
    }

    #[test]
    fn saturation_keeps_outputs_bounded() {
        let mut sink = crate::sink::CollectSink::default();
        let terms: Vec<PbTerm> = (0..12)
            .map(|i| PbTerm::new(1 << (i % 6), sink.fresh_lit()))
            .collect();
        let node = gte_outputs(&mut sink, &singletons(&terms), 10);
        // Saturated at cap+1 = 11: no output sum may exceed 11.
        assert!(node.outputs.iter().all(|&(s, _)| s <= 11));
    }
}
