//! Cardinality constraint encodings.
//!
//! One policy, chosen from `n` and `k`:
//!
//! * **Pairwise** — at-most-one over at most eight literals: O(n²) binary
//!   clauses, no auxiliary variables, perfect propagation.
//! * **Sequential counter** (Sinz 2005) — every other asserted at-most-k,
//!   with O(n·k) clauses and auxiliaries.
//! * **Totalizer** (Bailleux & Boutaouy 2003) — for reified bounds: a
//!   balanced merge tree whose outputs `o_j ⇔ (at least j inputs true)`
//!   hold in *both* directions, so the encoder can read a bound under
//!   either polarity.
//!
//! The paper's engine leans on these for "exactly one system per role" and
//! resource-exclusivity rules (§2.2 "Resource contention").

use crate::sink::ClauseSink;
use netarch_sat::Lit;

/// Asserts that at most `k` of `lits` are true: pairwise for `k = 1` over
/// at most eight literals, a sequential counter otherwise.
pub fn assert_at_most(sink: &mut impl ClauseSink, lits: &[Lit], k: u32) {
    let n = lits.len();
    if k as usize >= n {
        return; // trivially satisfied
    }
    if k == 0 {
        for &l in lits {
            sink.add_clause(&[!l]);
        }
        return;
    }
    if k == 1 && n <= 8 {
        pairwise_amo(sink, lits);
    } else {
        sequential_at_most(sink, lits, k);
    }
}

/// Asserts that at least `k` of `lits` are true.
pub fn assert_at_least(sink: &mut impl ClauseSink, lits: &[Lit], k: u32) {
    let n = lits.len() as u32;
    if k == 0 {
        return;
    }
    assert!(
        k <= n,
        "at-least-{k} over {n} literals is unsatisfiable; assert False instead"
    );
    if k == 1 {
        sink.add_clause(lits);
        return;
    }
    // ≥k of x  ⇔  ≤ n-k of ¬x
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    assert_at_most(sink, &negated, n - k);
}

/// Asserts that exactly `k` of `lits` are true.
pub fn assert_exactly(sink: &mut impl ClauseSink, lits: &[Lit], k: u32) {
    assert_at_most(sink, lits, k);
    assert_at_least(sink, lits, k);
}

/// Pairwise at-most-one: one binary clause per literal pair.
fn pairwise_amo(sink: &mut impl ClauseSink, lits: &[Lit]) {
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            sink.add_clause(&[!lits[i], !lits[j]]);
        }
    }
}

/// Sinz sequential counter: registers `s[i][j]` = "at least j+1 true among
/// the first i+1 literals". Assert-only (sums may be over-approximated).
fn sequential_at_most(sink: &mut impl ClauseSink, lits: &[Lit], k: u32) {
    let n = lits.len();
    let k = k as usize;
    debug_assert!(k >= 1 && k < n);
    // s[i][j] for i in 0..n-1, j in 0..k
    let mut prev: Vec<Lit> = Vec::with_capacity(k);
    for (i, &x) in lits.iter().enumerate() {
        if i == n - 1 {
            // Final literal: forbid x when the counter already reached k.
            if let Some(&top) = prev.get(k - 1) {
                sink.add_clause(&[!x, !top]);
            }
            break;
        }
        let row: Vec<Lit> = (0..k).map(|_| sink.fresh_lit()).collect();
        // x_i → s_i,1
        sink.add_clause(&[!x, row[0]]);
        if i > 0 {
            for j in 0..k {
                // s_{i-1},j → s_i,j
                sink.add_clause(&[!prev[j], row[j]]);
                // x_i ∧ s_{i-1},j → s_i,j+1
                if j + 1 < k {
                    sink.add_clause(&[!x, !prev[j], row[j + 1]]);
                }
            }
            // x_i ∧ s_{i-1},k → ⊥
            sink.add_clause(&[!x, !prev[k - 1]]);
        }
        prev = row;
    }
}

/// Builds a both-direction totalizer over `lits`.
///
/// Returns outputs `o_0..o_{n-1}` where `o_j` is true **iff** at least
/// `j + 1` of the inputs are true. Both implications are encoded, so the
/// outputs may be used under any polarity (reification, assumptions).
pub fn totalizer_outputs(sink: &mut impl ClauseSink, lits: &[Lit]) -> Vec<Lit> {
    match lits.len() {
        0 => Vec::new(),
        1 => vec![lits[0]],
        _ => {
            let mid = lits.len() / 2;
            let left = totalizer_outputs(sink, &lits[..mid]);
            let right = totalizer_outputs(sink, &lits[mid..]);
            merge_totalizer(sink, &left, &right)
        }
    }
}

/// Merges two sorted unary counters into one (the totalizer "adder").
fn merge_totalizer(sink: &mut impl ClauseSink, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let (r, s) = (a.len(), b.len());
    let out: Vec<Lit> = (0..r + s).map(|_| sink.fresh_lit()).collect();
    // Direction 1: a_i ∧ b_j → c_{i+j} (1-based; index 0 = constant true).
    for i in 0..=r {
        for j in 0..=s {
            if i + j == 0 {
                continue;
            }
            let mut clause = Vec::with_capacity(3);
            if i > 0 {
                clause.push(!a[i - 1]);
            }
            if j > 0 {
                clause.push(!b[j - 1]);
            }
            clause.push(out[i + j - 1]);
            sink.add_clause(&clause);
        }
    }
    // Direction 2: ¬a_{i+1} ∧ ¬b_{j+1} → ¬c_{i+j+1}
    // (out-of-range a_{r+1}, b_{s+1} are constant false).
    for i in 0..=r {
        for j in 0..=s {
            if i + j >= r + s {
                continue;
            }
            let mut clause = Vec::with_capacity(3);
            if i < r {
                clause.push(a[i]);
            }
            if j < s {
                clause.push(b[j]);
            }
            clause.push(!out[i + j]);
            sink.add_clause(&clause);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use netarch_sat::{SolveResult, Solver, Var};

    /// Builds `n` input vars in a fresh solver.
    fn inputs(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    /// Counts models of the constraint over `n` inputs, projected on inputs.
    fn count_projected(build: impl Fn(&mut Solver, &[Lit]), n: usize) -> usize {
        let mut s = Solver::new();
        let xs = inputs(&mut s, n);
        build(&mut s, &xs);
        let vars: Vec<Var> = xs.iter().map(|l| l.var()).collect();
        let (count, truncated) = netarch_sat::enumerate::count_models(&mut s, &vars, 1 << n);
        assert!(!truncated);
        count
    }

    fn binomial_sum_le(n: usize, k: usize) -> usize {
        (0..=k).map(|i| binomial(n, i)).sum()
    }

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut result = 1usize;
        for i in 0..k {
            result = result * (n - i) / (i + 1);
        }
        result
    }

    #[test]
    fn at_most_counts_models_all_encodings() {
        for n in 2..=6usize {
            for k in 1..n as u32 {
                let expected = binomial_sum_le(n, k as usize);
                let sequential = count_projected(|s, xs| sequential_at_most(s, xs, k), n);
                assert_eq!(sequential, expected, "sequential counter n={n} k={k}");
                let totalizer = count_projected(
                    |s, xs| {
                        let outputs = totalizer_outputs(s, xs);
                        // outputs[j] ⇔ at least j+1 true; forbid reaching k+1.
                        s.add_clause([!outputs[k as usize]]);
                    },
                    n,
                );
                assert_eq!(totalizer, expected, "totalizer n={n} k={k}");
                let policy = count_projected(|s, xs| assert_at_most(s, xs, k), n);
                assert_eq!(policy, expected, "assert_at_most n={n} k={k}");
            }
            let pairwise = count_projected(pairwise_amo, n);
            assert_eq!(pairwise, n + 1, "pairwise n={n}");
        }
    }

    #[test]
    fn at_least_counts_models() {
        for n in 2..=6usize {
            for k in 1..=n as u32 {
                let count = count_projected(|s, xs| assert_at_least(s, xs, k), n);
                let expected: usize = (k as usize..=n).map(|i| binomial(n, i)).sum();
                assert_eq!(count, expected, "ALK n={n} k={k}");
            }
        }
    }

    #[test]
    fn exactly_counts_models() {
        for n in 2..=6usize {
            for k in 0..=n as u32 {
                let count = count_projected(|s, xs| assert_exactly(s, xs, k), n);
                assert_eq!(count, binomial(n, k as usize), "EXK n={n} k={k}");
            }
        }
    }

    #[test]
    fn totalizer_outputs_reflect_input_count_both_directions() {
        // Force specific inputs true/false and check every output's value.
        for n in 1..=5usize {
            for bits in 0u32..(1 << n) {
                let mut s = Solver::new();
                let xs = inputs(&mut s, n);
                let outs = totalizer_outputs(&mut s, &xs);
                for (i, &x) in xs.iter().enumerate() {
                    if (bits >> i) & 1 == 1 {
                        s.add_clause([x]);
                    } else {
                        s.add_clause([!x]);
                    }
                }
                assert_eq!(s.solve(), SolveResult::Sat);
                let true_count = bits.count_ones() as usize;
                for (j, &o) in outs.iter().enumerate() {
                    let expected = true_count > j;
                    assert_eq!(
                        s.model_lit_value(o),
                        Some(expected),
                        "n={n} bits={bits:b} output {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut s = Solver::new();
        let xs = inputs(&mut s, 3);
        assert_at_most(&mut s, &xs, 0);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &xs {
            assert_eq!(s.model_lit_value(x), Some(false));
        }
    }

    #[test]
    fn trivial_bounds_emit_nothing() {
        let mut sink = CollectSink::default();
        let xs: Vec<Lit> = (0..3).map(|_| sink.fresh_lit()).collect();
        assert_at_most(&mut sink, &xs, 3);
        assert_at_least(&mut sink, &xs, 0);
        assert!(sink.clauses.is_empty());
    }

    #[test]
    fn sequential_counter_size_is_linear_in_n_times_k() {
        let mut sink = CollectSink::default();
        let xs: Vec<Lit> = (0..40).map(|_| sink.fresh_lit()).collect();
        sequential_at_most(&mut sink, &xs, 3);
        // O(n*k) clauses: generous bound to catch superlinear regressions.
        assert!(
            sink.clauses.len() < 40 * 3 * 4,
            "got {}",
            sink.clauses.len()
        );
    }
}
