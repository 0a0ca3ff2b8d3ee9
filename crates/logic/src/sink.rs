//! The clause sink abstraction.
//!
//! Encodings (Tseitin, cardinality, pseudo-Boolean) are written against
//! [`ClauseSink`] rather than a concrete solver so they can be unit-tested
//! against a plain clause collector and reused by the MUS extractor, which
//! routes clauses through selector literals.

use netarch_sat::{Lit, SolveResult, Solver, Var};

/// A consumer of CNF clauses that can also mint fresh variables.
pub trait ClauseSink {
    /// Allocates a fresh variable unconstrained so far.
    fn fresh_var(&mut self) -> Var;

    /// Adds a clause (a disjunction of literals).
    fn add_clause(&mut self, lits: &[Lit]);

    /// Convenience: allocates a fresh positive literal.
    fn fresh_lit(&mut self) -> Lit {
        self.fresh_var().positive()
    }
}

impl ClauseSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        // Solver::add_clause reports falsity through its return value and
        // `is_consistent`; sinks don't need the result.
        let _ = Solver::add_clause(self, lits.iter().copied());
    }
}

/// A sink that records clauses for inspection (testing / size metrics).
#[derive(Default)]
pub struct CollectSink {
    /// Number of variables minted (dense from 0).
    pub num_vars: usize,
    /// Clauses received, in order.
    pub clauses: Vec<Vec<Lit>>,
}

impl CollectSink {
    /// Creates a collector pre-sized with `num_vars` existing variables.
    pub fn with_vars(num_vars: usize) -> CollectSink {
        CollectSink {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Total literal count across collected clauses.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// Replays the collected clauses into a solver and solves.
    pub fn solve(&self) -> SolveResult {
        let mut s = Solver::new();
        s.ensure_vars(self.num_vars);
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s.solve()
    }
}

impl ClauseSink for CollectSink {
    fn fresh_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_counts_vars_and_clauses() {
        let mut sink = CollectSink::default();
        let a = sink.fresh_lit();
        let b = sink.fresh_lit();
        sink.add_clause(&[a, b]);
        sink.add_clause(&[!a]);
        assert_eq!(sink.num_vars, 2);
        assert_eq!(sink.clauses.len(), 2);
        assert_eq!(sink.num_literals(), 3);
        assert_eq!(sink.solve(), SolveResult::Sat);
    }

    #[test]
    fn solver_implements_sink() {
        let mut s = Solver::new();
        let v = ClauseSink::fresh_var(&mut s);
        ClauseSink::add_clause(&mut s, &[v.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v), Some(true));
    }
}
