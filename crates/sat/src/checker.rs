//! Independent RUP/DRAT proof checking.
//!
//! This module verifies the DRAT proofs emitted by [`crate::Solver`]
//! **without sharing any propagation code with it**. The solver propagates
//! with two watched literals per clause; the checker instead keeps a
//! false-literal counter and full occurrence lists per clause. The point of
//! the duplication is exactly that it is a duplication: a bug in the
//! solver's watch bookkeeping cannot also live here, so the solver cannot
//! self-certify a wrong UNSAT.
//!
//! Checking model:
//! - The checker is initialized with the *entire* final CNF (for an
//!   incremental solver this includes clauses added after earlier solve
//!   calls). This is sound: extra clauses only strengthen propagation, and
//!   every proof addition is required to be implied by the full CNF plus
//!   the earlier additions — so an empty-clause addition still implies the
//!   full formula is UNSAT.
//! - Each [`ProofStep::Add`] must pass the RUP check (assume the negation
//!   of every clause literal, propagate, expect a conflict) or, failing
//!   that, the RAT check on its first literal.
//! - Each [`ProofStep::Delete`] removes one matching clause if present;
//!   deleting an absent clause is a no-op, matching standard `drat-trim`
//!   permissiveness.
//!
//! The two entry points most callers want are [`check_refutation`] (a
//! closed UNSAT verdict) and [`check_refutation_under_assumptions`] (an
//! UNSAT-under-assumptions verdict with its core).

use crate::lit::{LBool, Lit};
use crate::proof::{DratProof, ProofStep};
use std::collections::HashMap;

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// An added clause was neither RUP nor RAT at its position in the proof.
    NotRedundant {
        /// Index of the offending step in the proof.
        step: usize,
        /// The clause that failed the check.
        clause: Vec<Lit>,
    },
    /// The proof replayed cleanly but never derived the empty clause, so it
    /// is not a refutation.
    NoEmptyClause,
    /// The final core clause (`¬a₁ ∨ … ∨ ¬aₖ` over the reported core
    /// assumptions) failed its RUP check against the replayed proof.
    CoreNotEntailed {
        /// The core clause that failed.
        clause: Vec<Lit>,
    },
    /// A literal in the proof references a variable beyond the CNF's range.
    VariableOutOfRange {
        /// Index of the offending step.
        step: usize,
        /// The out-of-range literal.
        lit: Lit,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotRedundant { step, clause } => {
                write!(
                    f,
                    "proof step {step} adds a non-redundant clause {clause:?}"
                )
            }
            CheckError::NoEmptyClause => {
                write!(
                    f,
                    "proof replays cleanly but never derives the empty clause"
                )
            }
            CheckError::CoreNotEntailed { clause } => {
                write!(f, "core clause {clause:?} is not entailed by the proof")
            }
            CheckError::VariableOutOfRange { step, lit } => {
                write!(
                    f,
                    "proof step {step} references out-of-range literal {lit:?}"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Internal clause record: literals plus counter-based propagation state.
struct CheckedClause {
    lits: Vec<Lit>,
    /// Number of literals currently assigned false. When this reaches
    /// `lits.len() - 1` the clause is unit (or conflicting at `lits.len()`).
    false_count: usize,
    /// Tombstone flag: deleted clauses keep their counters updated (so
    /// occurrence lists need no compaction) but never trigger units or
    /// conflicts.
    active: bool,
}

/// A stateful RUP/DRAT checker over a fixed variable range.
///
/// Propagation is counter-based: every literal has an occurrence list of
/// clause indices, and assigning a literal false increments the false
/// counter of each clause it occurs in. A clause whose counter reaches
/// `len - 1` is scanned for its single non-false literal, which is then
/// enqueued (or a conflict is reported if every literal is false). This is
/// asymptotically worse than watched literals but entirely distinct from
/// the solver's code path — which is the point.
pub struct Checker {
    num_vars: usize,
    clauses: Vec<CheckedClause>,
    /// Occurrence lists indexed by `Lit::code()`.
    occurrences: Vec<Vec<usize>>,
    /// Live-clause lookup by normalized (sorted, deduped) literal vector.
    index: HashMap<Vec<Lit>, Vec<usize>>,
    /// Variable assignments for the persistent (level-0) prefix plus any
    /// temporary RUP probe.
    assigns: Vec<LBool>,
    /// Trail position of each variable's current assignment (meaningful
    /// only while the variable is assigned). Lets [`Checker::insert_clause`]
    /// distinguish trail entries [`Checker::propagate`] has already
    /// processed (position < `qhead`) from enqueued-but-pending ones.
    trail_pos: Vec<usize>,
    /// Assignment trail; `root_len` marks the persistent prefix.
    trail: Vec<Lit>,
    root_len: usize,
    qhead: usize,
    /// Set once persistent propagation conflicts: the accumulated formula
    /// is unsatisfiable by unit propagation alone.
    root_conflict: bool,
}

impl Checker {
    /// Creates a checker over `num_vars` variables, loading every clause of
    /// the CNF and running persistent unit propagation to fixpoint.
    pub fn new(num_vars: usize, clauses: &[Vec<Lit>]) -> Checker {
        let mut max_var = num_vars;
        for clause in clauses {
            for lit in clause {
                max_var = max_var.max(lit.var().index() + 1);
            }
        }
        let mut checker = Checker {
            num_vars: max_var,
            clauses: Vec::with_capacity(clauses.len()),
            occurrences: vec![Vec::new(); max_var * 2],
            index: HashMap::new(),
            assigns: vec![LBool::Undef; max_var],
            trail_pos: vec![0; max_var],
            trail: Vec::new(),
            root_len: 0,
            qhead: 0,
            root_conflict: false,
        };
        for clause in clauses {
            checker.insert_clause(clause);
        }
        checker.propagate_persistent();
        checker
    }

    /// The number of variables the checker tracks.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// True once the accumulated formula has been refuted (the empty clause
    /// was added, or persistent propagation conflicted).
    pub fn proved_unsat(&self) -> bool {
        self.root_conflict
    }

    fn normalize(clause: &[Lit]) -> Vec<Lit> {
        let mut key = clause.to_vec();
        key.sort_unstable();
        key.dedup();
        key
    }

    fn value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].under_polarity(lit.is_positive())
    }

    fn ensure_var(&mut self, lit: Lit) {
        let needed = lit.var().index() + 1;
        if needed > self.num_vars {
            self.num_vars = needed;
            self.assigns.resize(needed, LBool::Undef);
            self.trail_pos.resize(needed, 0);
            self.occurrences.resize(needed * 2, Vec::new());
        }
    }

    /// Adds a clause to the working formula (no redundancy check) and
    /// registers its occurrences.
    fn insert_clause(&mut self, clause: &[Lit]) {
        for &lit in clause {
            self.ensure_var(lit);
        }
        let id = self.clauses.len();
        // Initial false count covers only trail entries that propagate()
        // has already processed: pending entries (position ≥ qhead, e.g. a
        // unit enqueued by an earlier insert during Checker::new) bump the
        // counter themselves when the trail drains, so counting them here
        // would double-count and manufacture spurious units/conflicts.
        let false_count = clause
            .iter()
            .filter(|&&l| {
                self.value(l) == LBool::False && self.trail_pos[l.var().index()] < self.qhead
            })
            .count();
        self.clauses.push(CheckedClause {
            lits: clause.to_vec(),
            false_count,
            active: true,
        });
        for &lit in clause {
            self.occurrences[lit.code()].push(id);
        }
        let key = Checker::normalize(clause);
        // Propagation is trail-driven, so a clause that is already unit (or
        // false) under the persistent prefix must be handled here: seed the
        // trail with its forced literal, or record the root conflict.
        let mut has_true = false;
        let mut unfalse: Vec<Lit> = Vec::new();
        for &lit in &key {
            match self.value(lit) {
                LBool::True => has_true = true,
                LBool::False => {}
                LBool::Undef => unfalse.push(lit),
            }
        }
        if !has_true {
            match unfalse.len() {
                0 => self.root_conflict = true,
                1 => {
                    self.enqueue(unfalse[0]);
                }
                _ => {}
            }
        }
        self.index.entry(key).or_default().push(id);
    }

    /// Removes one live clause matching `clause` (by normalized literal
    /// set). Absent clauses are ignored.
    fn remove_clause(&mut self, clause: &[Lit]) {
        let key = Checker::normalize(clause);
        if let Some(ids) = self.index.get_mut(&key) {
            if let Some(id) = ids.pop() {
                self.clauses[id].active = false;
            }
            if ids.is_empty() {
                self.index.remove(&key);
            }
        }
    }

    /// Enqueues `lit` as true. Returns `false` if it contradicts the
    /// current assignment.
    fn enqueue(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.assigns[lit.var().index()] = LBool::from_bool(lit.is_positive());
                self.trail_pos[lit.var().index()] = self.trail.len();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Propagates from `qhead` until the trail is drained. Returns `true`
    /// on conflict. Even after a conflict the remaining trail literals get
    /// their counter bumps, so [`Checker::rollback`] can undo the counters
    /// symmetrically.
    fn propagate(&mut self) -> bool {
        let mut conflict = false;
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let falsified = !lit;
            for i in 0..self.occurrences[falsified.code()].len() {
                let id = self.occurrences[falsified.code()][i];
                self.clauses[id].false_count += 1;
                if conflict || !self.clauses[id].active {
                    continue;
                }
                // Duplicate literals can push the count past len - 1, so
                // saturate rather than rely on exact arithmetic.
                let remaining = self.clauses[id]
                    .lits
                    .len()
                    .saturating_sub(self.clauses[id].false_count);
                if remaining == 0 {
                    conflict = true;
                } else if remaining == 1 {
                    // Scan for the single non-false literal; `None` means a
                    // duplicate made the count over-approximate while the
                    // clause is in fact satisfied or fully false.
                    let unit = self.clauses[id]
                        .lits
                        .iter()
                        .copied()
                        .find(|&l| self.value(l) != LBool::False);
                    if let Some(unit) = unit {
                        if self.value(unit) == LBool::Undef && !self.enqueue(unit) {
                            conflict = true;
                        }
                    }
                }
            }
        }
        conflict
    }

    /// Runs persistent propagation, extending the root prefix.
    fn propagate_persistent(&mut self) {
        if self.propagate() {
            self.root_conflict = true;
        }
        self.root_len = self.trail.len();
        self.qhead = self.root_len;
    }

    /// Rolls the trail back to the persistent prefix, undoing the counter
    /// bumps of every literal that [`Checker::propagate`] processed.
    /// Literals enqueued but never propagated (a probe that conflicted
    /// while assuming) have no counter bumps to undo.
    fn rollback(&mut self) {
        while self.trail.len() > self.root_len {
            let lit = self.trail.pop().unwrap();
            let index = self.trail.len();
            self.assigns[lit.var().index()] = LBool::Undef;
            if index < self.qhead {
                let falsified = !lit;
                for i in 0..self.occurrences[falsified.code()].len() {
                    let id = self.occurrences[falsified.code()][i];
                    self.clauses[id].false_count -= 1;
                }
            }
        }
        self.qhead = self.root_len;
    }

    /// RUP check for `clause`: assume the negation of every literal and
    /// propagate, expecting a conflict. A clause with a persistently-true
    /// literal passes trivially.
    pub fn check_clause(&mut self, clause: &[Lit]) -> bool {
        if self.root_conflict {
            return true;
        }
        for &lit in clause {
            self.ensure_var(lit);
        }
        let mut conflicted = false;
        for &lit in clause {
            match self.value(lit) {
                LBool::True => {
                    conflicted = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => {
                    if !self.enqueue(!lit) {
                        conflicted = true;
                        break;
                    }
                }
            }
        }
        if !conflicted {
            conflicted = self.propagate();
        }
        self.rollback();
        conflicted
    }

    /// RAT check on `pivot`: for every live clause containing `¬pivot`, the
    /// resolvent of `clause` with it must be RUP. Vacuously true when no
    /// live clause contains `¬pivot`.
    fn check_rat(&mut self, clause: &[Lit], pivot: Lit) -> bool {
        self.ensure_var(pivot);
        let resolvers: Vec<usize> = self.occurrences[(!pivot).code()]
            .iter()
            .copied()
            .filter(|&id| self.clauses[id].active)
            .collect();
        for id in resolvers {
            let mut resolvent: Vec<Lit> = clause.to_vec();
            let mut tautology = false;
            for &other in &self.clauses[id].lits.clone() {
                if other == !pivot {
                    continue;
                }
                if clause.contains(&!other) {
                    tautology = true;
                    break;
                }
                if !resolvent.contains(&other) {
                    resolvent.push(other);
                }
            }
            if tautology {
                continue;
            }
            if !self.check_clause(&resolvent) {
                return false;
            }
        }
        true
    }

    /// Applies one proof step: verifies and installs an addition, or
    /// processes a deletion. Returns the first error encountered.
    pub fn apply_step(&mut self, step_index: usize, step: &ProofStep) -> Result<(), CheckError> {
        match step {
            ProofStep::Add(clause) => {
                let rup = self.check_clause(clause);
                let rat = rup
                    || match clause.first() {
                        Some(&pivot) => self.check_rat(clause, pivot),
                        None => false,
                    };
                if !rat {
                    return Err(CheckError::NotRedundant {
                        step: step_index,
                        clause: clause.clone(),
                    });
                }
                self.insert_clause(clause);
                self.propagate_persistent();
                Ok(())
            }
            ProofStep::Delete(clause) => {
                self.remove_clause(clause);
                Ok(())
            }
        }
    }

    /// Replays an entire proof, stopping at the first invalid step.
    pub fn apply_proof(&mut self, proof: &DratProof) -> Result<(), CheckError> {
        for (i, step) in proof.steps().iter().enumerate() {
            self.apply_step(i, step)?;
            if self.root_conflict {
                // Refutation complete; later steps are irrelevant.
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Checks that `proof` is a valid DRAT refutation of `clauses`: every
/// addition is RUP/RAT at its position, and the empty clause is derived.
pub fn check_refutation(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    proof: &DratProof,
) -> Result<(), CheckError> {
    let mut checker = Checker::new(num_vars, clauses);
    checker.apply_proof(proof)?;
    if checker.proved_unsat() {
        Ok(())
    } else {
        Err(CheckError::NoEmptyClause)
    }
}

/// Checks an UNSAT-under-assumptions verdict: replays `proof` against the
/// CNF (validating every addition), then verifies that the clause
/// `¬a₁ ∨ … ∨ ¬aₖ` over the reported `core` assumptions is RUP — i.e. the
/// formula really does force at least one core assumption false.
///
/// Note the final check is not circular: the solver logs the core clause as
/// the proof's last addition, and that addition was itself RUP-validated
/// during replay, against only the clauses derived before it.
pub fn check_refutation_under_assumptions(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    proof: &DratProof,
    core: &[Lit],
) -> Result<(), CheckError> {
    let mut checker = Checker::new(num_vars, clauses);
    checker.apply_proof(proof)?;
    let core_clause: Vec<Lit> = core.iter().map(|&a| !a).collect();
    if checker.proved_unsat() || checker.check_clause(&core_clause) {
        Ok(())
    } else {
        Err(CheckError::CoreNotEntailed {
            clause: core_clause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ProofSink;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).unwrap()
    }

    fn clauses(spec: &[&[i64]]) -> Vec<Vec<Lit>> {
        spec.iter()
            .map(|c| c.iter().map(|&v| lit(v)).collect())
            .collect()
    }

    #[test]
    fn rup_detects_implied_unit() {
        // (a ∨ b) ∧ (¬b) makes (a) RUP.
        let f = clauses(&[&[1, 2], &[-2]]);
        let mut checker = Checker::new(2, &f);
        assert!(checker.check_clause(&[lit(1)]));
        assert!(!checker.check_clause(&[lit(-1)]));
    }

    #[test]
    fn rup_probe_rolls_back_cleanly() {
        let f = clauses(&[&[1, 2], &[-1, 2], &[1, -2]]);
        let mut checker = Checker::new(2, &f);
        // Probe order must not matter: state is restored between checks.
        let _ = checker.check_clause(&[lit(1), lit(2)]); // result irrelevant
        let first = checker.check_clause(&[lit(1)]);
        let again = checker.check_clause(&[lit(1)]);
        assert_eq!(first, again);
    }

    #[test]
    fn simple_refutation_accepted() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b) — classic 2-var UNSAT.
        let f = clauses(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        let mut proof = DratProof::new();
        proof.add_clause(&[lit(2)]); // resolving first two clauses
        proof.add_clause(&[]); // (a∨¬b),(¬a∨¬b),(b) propagate to conflict
        assert_eq!(check_refutation(2, &f, &proof), Ok(()));
    }

    #[test]
    fn refutation_without_empty_clause_rejected() {
        let f = clauses(&[&[1, 2], &[-1, 2]]);
        let mut proof = DratProof::new();
        proof.add_clause(&[lit(2)]);
        assert_eq!(
            check_refutation(2, &f, &proof),
            Err(CheckError::NoEmptyClause)
        );
    }

    #[test]
    fn bogus_addition_rejected() {
        // (¬a) is not implied by (a ∨ b): neither RUP nor RAT on ¬a
        // (resolving with (a∨b) gives (b), which is not RUP).
        let f = clauses(&[&[1, 2]]);
        let mut proof = DratProof::new();
        proof.add_clause(&[lit(-1)]);
        proof.add_clause(&[]);
        assert!(matches!(
            check_refutation(2, &f, &proof),
            Err(CheckError::NotRedundant { step: 0, .. })
        ));
    }

    #[test]
    fn bogus_empty_clause_rejected() {
        // Claiming UNSAT outright on a satisfiable formula must fail.
        let f = clauses(&[&[1, 2]]);
        let mut proof = DratProof::new();
        proof.add_clause(&[]);
        assert!(matches!(
            check_refutation(2, &f, &proof),
            Err(CheckError::NotRedundant { step: 0, .. })
        ));
    }

    #[test]
    fn rat_addition_accepted() {
        // F = (a ∨ b). C = (c ∨ a) with pivot c: no clause contains ¬c, so
        // C is vacuously RAT even though it is not RUP.
        let f = clauses(&[&[1, 2]]);
        let mut checker = Checker::new(3, &f);
        let step = ProofStep::Add(vec![lit(3), lit(1)]);
        assert_eq!(checker.apply_step(0, &step), Ok(()));
    }

    #[test]
    fn deletion_is_respected() {
        // After deleting (¬b), the unit (a) is no longer RUP.
        let f = clauses(&[&[1, 2], &[-2]]);
        let mut checker = Checker::new(2, &f);
        assert!(checker.check_clause(&[lit(1)]));
        // Deletion does not undo persistent propagation already performed —
        // standard DRAT checkers behave the same. Build a fresh checker to
        // observe the weakened formula.
        checker
            .apply_step(0, &ProofStep::Delete(vec![lit(-2)]))
            .unwrap();
        let mut fresh = Checker::new(2, &clauses(&[&[1, 2]]));
        assert!(!fresh.check_clause(&[lit(1)]));
    }

    #[test]
    fn deleting_absent_clause_is_noop() {
        let f = clauses(&[&[1, 2]]);
        let mut checker = Checker::new(2, &f);
        checker
            .apply_step(0, &ProofStep::Delete(vec![lit(1), lit(-2)]))
            .unwrap();
        assert!(checker.check_clause(&[lit(1), lit(2)]));
    }

    #[test]
    fn duplicate_literals_handled() {
        let f = clauses(&[&[1, 1, 2], &[-2, -2]]);
        let mut checker = Checker::new(2, &f);
        assert!(checker.check_clause(&[lit(1)]));
        assert!(checker.check_clause(&[lit(1), lit(1)]));
    }

    #[test]
    fn unit_before_dependent_clause_is_not_a_root_conflict() {
        // Regression: inserting (¬a) enqueues ¬a with the trail not yet
        // propagated; a clause containing `a` inserted afterwards must not
        // count that falsification twice (once at insert, once when the
        // trail drains) — the double count manufactured a root conflict on
        // this satisfiable formula.
        let f = clauses(&[&[-1], &[1, 2]]);
        let checker = Checker::new(2, &f);
        assert!(!checker.proved_unsat());
    }

    #[test]
    fn empty_proof_rejected_for_satisfiable_unit_formula() {
        // Companion regression: the phantom root conflict made the checker
        // certify an empty proof as a refutation of a SAT formula.
        let f = clauses(&[&[-1], &[1, 2]]);
        let proof = DratProof::new();
        assert_eq!(
            check_refutation(2, &f, &proof),
            Err(CheckError::NoEmptyClause)
        );
    }

    #[test]
    fn unit_chain_inserted_in_order_propagates_correctly() {
        // ¬a forces b (via a ∨ b) which forces c (via ¬b ∨ c): satisfiable,
        // with c persistently true — so (c) is trivially RUP while (¬c),
        // which the formula contradicts, is not derivable by UP.
        let f = clauses(&[&[-1], &[1, 2], &[-2, 3]]);
        let mut checker = Checker::new(3, &f);
        assert!(!checker.proved_unsat());
        assert!(checker.check_clause(&[lit(3)]));
        assert!(!checker.check_clause(&[lit(-3)]));
    }

    #[test]
    fn empty_cnf_clause_is_root_conflict() {
        let f = clauses(&[&[]]);
        let checker = Checker::new(1, &f);
        assert!(checker.proved_unsat());
    }

    #[test]
    fn assumption_core_check() {
        // s1 → a, s2 → ¬a. Under {s1, s2} the formula is UNSAT and the core
        // clause (¬s1 ∨ ¬s2) is RUP.
        let f = clauses(&[&[-1, 3], &[-2, -3]]);
        let proof = DratProof::new();
        assert_eq!(
            check_refutation_under_assumptions(3, &f, &proof, &[lit(1), lit(2)]),
            Ok(())
        );
        // A bogus core over only s1 is rejected.
        assert!(matches!(
            check_refutation_under_assumptions(3, &f, &proof, &[lit(1)]),
            Err(CheckError::CoreNotEntailed { .. })
        ));
    }

    #[test]
    fn growing_variable_range_mid_proof() {
        let f = clauses(&[&[1]]);
        let mut checker = Checker::new(1, &f);
        // Vacuous RAT on a brand-new variable.
        let step = ProofStep::Add(vec![lit(5), lit(1)]);
        assert_eq!(checker.apply_step(0, &step), Ok(()));
        assert_eq!(checker.num_vars(), 5);
    }
}
