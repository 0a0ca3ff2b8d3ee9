//! Bounded integers via the order encoding.
//!
//! An [`OrderInt`] over domain `[lo, hi]` is represented by literals
//! `q_k ⇔ (x ≥ k)` for `k` in `lo+1 ..= hi`, chained by consistency
//! clauses `q_{k+1} → q_k`. Thresholds are single literals, which makes
//! two patterns cheap:
//!
//! * conditional lower bounds — "if the demand reaches `s`, then the
//!   server count must be at least `⌈s/c⌉`" is one binary clause per
//!   generalized-totalizer output;
//! * bound probes — assuming `¬q_k` caps `x` below `k` for one solve, so
//!   `Engine::plan_capacity` bisects on [`OrderInt::ge_const`] assumptions
//!   without adding a clause.
//!
//! The architecture engine uses this for capacity planning ("what is the
//! smallest server fleet that fits these workloads and systems?").

use crate::sink::ClauseSink;
use netarch_sat::Lit;

/// A bounded integer in the order encoding.
#[derive(Clone, Debug)]
pub struct OrderInt {
    lo: u64,
    hi: u64,
    /// `thresholds[i] ⇔ (x ≥ lo + 1 + i)`.
    thresholds: Vec<Lit>,
}

impl OrderInt {
    /// Allocates a fresh integer variable with domain `[lo, hi]`,
    /// emitting the order-consistency chain.
    ///
    /// # Panics
    /// When `lo > hi`.
    pub fn new(sink: &mut impl ClauseSink, lo: u64, hi: u64) -> OrderInt {
        assert!(lo <= hi, "empty integer domain [{lo}, {hi}]");
        let thresholds: Vec<Lit> = (lo..hi).map(|_| sink.fresh_lit()).collect();
        // q_{k+1} → q_k
        for pair in thresholds.windows(2) {
            sink.add_clause(&[!pair[1], pair[0]]);
        }
        OrderInt { lo, hi, thresholds }
    }

    /// Lower domain bound.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Upper domain bound.
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Three-way classification of the bound `x ≥ k`.
    pub fn ge_const(&self, k: u64) -> Bound {
        if k <= self.lo {
            Bound::AlwaysTrue
        } else if k > self.hi {
            Bound::AlwaysFalse
        } else {
            Bound::Lit(self.thresholds[(k - self.lo - 1) as usize])
        }
    }

    /// Reads the value from a satisfying model.
    pub fn value(&self, model: &dyn Fn(Lit) -> Option<bool>) -> u64 {
        let above = self
            .thresholds
            .iter()
            .take_while(|&&l| model(l) == Some(true))
            .count() as u64;
        self.lo + above
    }
}

/// Classification of a threshold query against the domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// Holds in every assignment.
    AlwaysTrue,
    /// Holds in no assignment.
    AlwaysFalse,
    /// Equivalent to the literal.
    Lit(Lit),
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_sat::{SolveResult, Solver};

    #[test]
    fn domain_and_thresholds() {
        let mut s = Solver::new();
        let x = OrderInt::new(&mut s, 3, 7);
        assert_eq!(x.lo(), 3);
        assert_eq!(x.hi(), 7);
        assert_eq!(x.ge_const(3), Bound::AlwaysTrue);
        assert_eq!(x.ge_const(8), Bound::AlwaysFalse);
        assert!(matches!(x.ge_const(5), Bound::Lit(_)));
    }

    #[test]
    fn threshold_assumptions_pin_the_value() {
        // The capacity search's probe: assume `x ≥ k` and `¬(x ≥ k+1)`,
        // then read the value back from the model.
        let mut s = Solver::new();
        let x = OrderInt::new(&mut s, 3, 7);
        for k in 3..=7u64 {
            let mut assumptions = Vec::new();
            if let Bound::Lit(q) = x.ge_const(k) {
                assumptions.push(q);
            }
            if let Bound::Lit(q) = x.ge_const(k + 1) {
                assumptions.push(!q);
            }
            assert_eq!(s.solve_with(&assumptions), SolveResult::Sat);
            assert_eq!(x.value(&|l| s.model_lit_value(l)), k);
        }
    }

    #[test]
    #[should_panic(expected = "empty integer domain")]
    fn empty_domain_panics() {
        let mut s = Solver::new();
        let _ = OrderInt::new(&mut s, 5, 4);
    }
}
