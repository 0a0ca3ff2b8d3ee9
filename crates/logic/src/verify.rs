//! Solve-then-check: SAT solving with independently verified answers.
//!
//! In the [`Encoder`](crate::Encoder)'s verify mode
//! (`EncodeConfig::verify_proofs`), every verdict passes through
//! [`check_outcome`]: a SAT answer is re-validated against the clause list
//! (the model must satisfy every clause), and an UNSAT answer must come
//! with a DRAT proof that the independent checker in `netarch_sat::checker`
//! accepts — propagation code the solver itself does not share, so a
//! solver bug cannot self-certify. Checker failures surface as a distinct
//! [`VerifyError`] instead of a wrong verdict. `netarch-core` switches the
//! mode on under the `NETARCH_VERIFY_PROOFS` environment variable (see
//! [`proofs_requested`]).

use netarch_sat::{
    check_refutation, check_refutation_under_assumptions, CheckError, Lit, SolveResult, Solver,
};

/// Why a verified solve refused to vouch for the solver's answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The solver answered SAT but its model falsifies a clause.
    ModelViolation {
        /// The clause the model does not satisfy.
        clause: Vec<Lit>,
    },
    /// The solver answered UNSAT but its DRAT proof does not check out.
    ProofRejected(CheckError),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ModelViolation { clause } => {
                write!(f, "SAT model falsifies clause {clause:?}")
            }
            VerifyError::ProofRejected(e) => write!(f, "UNSAT proof rejected: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validates an already-produced outcome of a recording solver against the
/// clause list it was (externally) built from.
///
/// - SAT: the model is checked against every clause.
/// - UNSAT with no assumptions: the recorded DRAT refutation is replayed
///   through `netarch_sat::check_refutation`.
/// - UNSAT under assumptions: the proof is replayed and the reported core's
///   clause (`¬a₁ ∨ … ∨ ¬aₖ`) must be entailed
///   (`check_refutation_under_assumptions`).
/// - Unknown (budget exhaustion) makes no claim, so nothing is checked.
pub fn check_outcome(
    solver: &Solver,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    assumptions: &[Lit],
    result: SolveResult,
) -> Result<(), VerifyError> {
    match result {
        SolveResult::Sat => {
            for clause in clauses {
                let satisfied = clause
                    .iter()
                    .any(|&l| solver.model_lit_value(l) == Some(true));
                if !satisfied {
                    return Err(VerifyError::ModelViolation {
                        clause: clause.clone(),
                    });
                }
            }
            Ok(())
        }
        SolveResult::Unsat => {
            let proof = solver
                .recorded_proof()
                .expect("verified solving requires Solver::record_proof");
            let checked = if assumptions.is_empty() {
                check_refutation(num_vars, clauses, proof)
            } else {
                check_refutation_under_assumptions(num_vars, clauses, proof, solver.unsat_core())
            };
            checked.map_err(VerifyError::ProofRejected)
        }
        SolveResult::Unknown => Ok(()),
    }
}

/// True when the `NETARCH_VERIFY_PROOFS` environment variable requests
/// verified solving (set to anything nonempty other than `0`).
pub fn proofs_requested() -> bool {
    verify_flag_enabled(std::env::var("NETARCH_VERIFY_PROOFS").ok().as_deref())
}

/// Interprets a raw `NETARCH_VERIFY_PROOFS` value. Split out so tests can
/// exercise the parse rules without mutating process-global environment
/// state (which races with parallel test threads).
fn verify_flag_enabled(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_sat::Var;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).unwrap()
    }

    /// Solves `clauses` under `assumptions` on a recording solver and
    /// checks the verdict against the same clauses.
    fn solve_and_check(
        num_vars: usize,
        clauses: &[Vec<Lit>],
        assumptions: &[Lit],
    ) -> (SolveResult, Solver) {
        let mut solver = Solver::new();
        solver.record_proof();
        solver.ensure_vars(num_vars);
        for clause in clauses {
            solver.add_clause(clause.iter().copied());
        }
        let result = solver.solve_with(assumptions);
        check_outcome(&solver, num_vars, clauses, assumptions, result).unwrap();
        (result, solver)
    }

    #[test]
    fn sat_outcome_is_verified() {
        let clauses = vec![vec![lit(1), lit(2)], vec![lit(-1)]];
        let (result, solver) = solve_and_check(2, &clauses, &[]);
        assert_eq!(result, SolveResult::Sat);
        assert_eq!(solver.model_value(Var::from_index(1)), Some(true));
    }

    #[test]
    fn unsat_outcome_is_verified() {
        let clauses = vec![
            vec![lit(1), lit(2)],
            vec![lit(-1), lit(2)],
            vec![lit(1), lit(-2)],
            vec![lit(-1), lit(-2)],
        ];
        assert_eq!(solve_and_check(2, &clauses, &[]).0, SolveResult::Unsat);
    }

    #[test]
    fn assumption_unsat_outcome_is_verified() {
        let clauses = vec![vec![lit(-1), lit(3)], vec![lit(-2), lit(-3)]];
        let (result, solver) = solve_and_check(3, &clauses, &[lit(1), lit(2)]);
        assert_eq!(result, SolveResult::Unsat);
        assert!(!solver.unsat_core().is_empty());
    }

    #[test]
    fn empty_clause_outcome_is_verified() {
        assert_eq!(solve_and_check(1, &[vec![]], &[]).0, SolveResult::Unsat);
    }

    #[test]
    fn check_outcome_rejects_mismatched_clause_list() {
        // Solve one formula, validate against another: the checker must
        // refuse to certify the verdict.
        let unsat = vec![vec![lit(1)], vec![lit(-1)]];
        let sat = vec![vec![lit(1), lit(2)]];
        let mut solver = Solver::new();
        solver.record_proof();
        solver.ensure_vars(2);
        for c in &unsat {
            solver.add_clause(c.iter().copied());
        }
        let result = solver.solve();
        assert_eq!(result, SolveResult::Unsat);
        assert!(matches!(
            check_outcome(&solver, 2, &sat, &[], result),
            Err(VerifyError::ProofRejected(_))
        ));
    }

    #[test]
    fn env_gate_parses_conventional_values() {
        // Exercised through the pure helper: mutating the real variable
        // with set_var/remove_var races with parallel test threads.
        assert!(!verify_flag_enabled(None));
        assert!(!verify_flag_enabled(Some("")));
        assert!(!verify_flag_enabled(Some("0")));
        assert!(verify_flag_enabled(Some("1")));
        assert!(verify_flag_enabled(Some("true")));
        assert!(verify_flag_enabled(Some("yes")));
    }
}
