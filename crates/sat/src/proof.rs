//! DRAT proof logging.
//!
//! A solver that answers UNSAT is making a universally-quantified claim —
//! *no* assignment works — and a bug anywhere in propagation, conflict
//! analysis, or clause deletion can silently turn that claim into a lie.
//! Following modern SAT practice (the certified-UNSAT track of the SAT
//! competitions), the solver can record every clause it *adds* (learns) and
//! *deletes* as a DRAT proof: a sequence of clause additions, each checkable
//! by reverse unit propagation (RUP) or the resolution-asymmetric-tautology
//! (RAT) criterion, plus deletion hints. The independent verifier lives in
//! [`crate::checker`] and reads the proof in memory; this module defines
//! the proof representation and the [`ProofSink`] trait the solver logs
//! through.

use crate::lit::Lit;

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Addition of a clause claimed to be redundant (RUP/RAT) with respect
    /// to the formula accumulated so far.
    Add(Vec<Lit>),
    /// Deletion of a clause from the accumulated formula.
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The clause this step adds or deletes.
    pub fn clause(&self) -> &[Lit] {
        match self {
            ProofStep::Add(c) | ProofStep::Delete(c) => c,
        }
    }

    /// True for [`ProofStep::Add`].
    pub fn is_add(&self) -> bool {
        matches!(self, ProofStep::Add(_))
    }
}

/// A consumer of proof events, threaded through the solver's learn,
/// minimization, and deletion sites.
///
/// Implementations may record steps in memory ([`DratProof`]), stream them
/// to a writer, or compute statistics. Sinks observe *derived* clauses
/// only: the original problem clauses are the CNF the proof is checked
/// against, not part of the proof itself.
///
/// Sinks must be `Send`: a solver carrying one is a long-lived session
/// object that serving layers hand off between worker threads, so the
/// whole solver (sink included) has to be movable across threads.
pub trait ProofSink: Send {
    /// A clause was derived (learned, strengthened, or concluded). The
    /// clause must be redundant with respect to the clauses accumulated so
    /// far (original CNF plus earlier additions, minus deletions).
    fn add_clause(&mut self, clause: &[Lit]);

    /// A clause was removed from the solver's working set.
    fn delete_clause(&mut self, clause: &[Lit]);
}

/// An in-memory DRAT proof: the default [`ProofSink`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> DratProof {
        DratProof::default()
    }

    /// The recorded steps, in derivation order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step directly (used by tests; the solver goes through the
    /// [`ProofSink`] methods).
    pub fn push(&mut self, step: ProofStep) {
        self.steps.push(step);
    }

    /// True when the proof ends in (contains) an empty-clause addition —
    /// the shape of a complete refutation.
    pub fn adds_empty_clause(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty()))
    }

    /// Number of addition steps.
    pub fn num_additions(&self) -> usize {
        self.steps.iter().filter(|s| s.is_add()).count()
    }

    /// Number of deletion steps.
    pub fn num_deletions(&self) -> usize {
        self.steps.len() - self.num_additions()
    }
}

impl ProofSink for DratProof {
    fn add_clause(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Add(clause.to_vec()));
    }

    fn delete_clause(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Delete(clause.to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).unwrap()
    }

    #[test]
    fn sink_records_steps_in_order() {
        let mut p = DratProof::new();
        p.add_clause(&[lit(1), lit(-2)]);
        p.delete_clause(&[lit(3)]);
        p.add_clause(&[]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_additions(), 2);
        assert_eq!(p.num_deletions(), 1);
        assert!(p.adds_empty_clause());
        assert_eq!(p.steps()[0], ProofStep::Add(vec![lit(1), lit(-2)]));
        assert_eq!(p.steps()[1], ProofStep::Delete(vec![lit(3)]));
    }
}
