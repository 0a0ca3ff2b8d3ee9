//! Solver statistics counters.

use std::fmt;

/// Counters accumulated across the lifetime of a [`crate::Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of `solve`/`solve_with` invocations.
    pub solves: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals enqueued by unit propagation (including decisions).
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt from conflicts (excluding learnt units).
    pub learnt_clauses: u64,
    /// Total literals across learnt clauses.
    pub learnt_literals: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_literals: u64,
    /// Learnt-clause database reductions.
    pub reductions: u64,
    /// Learnt clauses deleted by reductions.
    pub deleted_clauses: u64,
    /// Activation literals permanently retired via [`crate::Solver::retire`].
    pub retired_activations: u64,
    /// Root-satisfied clauses reclaimed by [`crate::Solver::simplify`]
    /// (mostly retired activation-gated clauses in incremental sessions).
    pub garbage_collected_clauses: u64,
    /// Solves that ended early because the interrupt flag was observed.
    pub interrupts: u64,
    /// Always 0: the solver does no subsumption. Kept because per-layer
    /// benchmark reports still read it.
    pub subsumed: u64,
    /// Always 0: the solver never eliminates a variable. Kept because
    /// per-layer benchmark reports still read it.
    pub eliminated_vars: u64,
    /// Always 0: the solver does no vivification. Kept because per-layer
    /// benchmark reports still read it.
    pub vivified: u64,
}

impl Stats {
    /// Adds every counter from `other` into `self`, for totals summed over
    /// several solvers (a benchmark's per-layer counts, for one).
    pub fn absorb(&mut self, other: &Stats) {
        self.solves += other.solves;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.learnt_literals += other.learnt_literals;
        self.minimized_literals += other.minimized_literals;
        self.reductions += other.reductions;
        self.deleted_clauses += other.deleted_clauses;
        self.retired_activations += other.retired_activations;
        self.garbage_collected_clauses += other.garbage_collected_clauses;
        self.interrupts += other.interrupts;
        self.subsumed += other.subsumed;
        self.eliminated_vars += other.eliminated_vars;
        self.vivified += other.vivified;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} conflicts={} restarts={} \
             learnt={} deleted={} minimized_lits={} retired={} gc={} \
             interrupts={}",
            self.solves,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.minimized_literals,
            self.retired_activations,
            self.garbage_collected_clauses,
            self.interrupts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = Stats {
            solves: 2,
            conflicts: 7,
            restarts: 1,
            ..Stats::default()
        };
        let b = Stats {
            solves: 3,
            conflicts: 5,
            interrupts: 4,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.solves, 5);
        assert_eq!(a.conflicts, 12);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.interrupts, 4);
        // Absorbing the default is the identity.
        let before = a;
        a.absorb(&Stats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = Stats {
            conflicts: 7,
            ..Stats::default()
        };
        let text = s.to_string();
        assert!(text.contains("conflicts=7"));
        assert!(text.contains("decisions=0"));
    }
}
