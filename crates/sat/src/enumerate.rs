//! Model enumeration.
//!
//! Enumerates satisfying assignments, optionally projected onto a subset of
//! variables. After each model, a blocking clause over the projection
//! variables excludes it, so projected enumeration yields each *projected*
//! assignment exactly once — this is what the architecture layer uses to
//! compute equivalence classes of designs (paper §6, "identify equivalence
//! classes of system deployments").

use crate::lit::{Lit, Var};
use crate::solver::{SolveResult, Solver};

/// Result of an enumeration run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Enumeration {
    /// The models found, restricted to the projection variables, in
    /// discovery order. Each entry pairs a variable with its value.
    pub models: Vec<Vec<(Var, bool)>>,
    /// True when enumeration stopped because `limit` was reached rather
    /// than because the model space was exhausted.
    pub truncated: bool,
}

/// Enumerates up to `limit` models projected onto `projection`.
///
/// The solver is mutated: blocking clauses are added permanently. Callers
/// that need the solver afterwards should enumerate on a clone or rebuild.
/// An empty projection enumerates over all variables.
pub fn enumerate_projected(
    solver: &mut Solver,
    projection: &[Var],
    assumptions: &[Lit],
    limit: usize,
) -> Enumeration {
    let project_all: Vec<Var> = if projection.is_empty() {
        (0..solver.num_vars()).map(Var::from_index).collect()
    } else {
        projection.to_vec()
    };
    // Blocking clauses mention the projection variables on every iteration,
    // so they must be exempt from variable elimination while the run lasts
    // (the freeze contract — see `Solver::freeze_var`). The pin is
    // temporary: variables frozen *here* are thawed again on every exit
    // path, so enumeration does not exempt them from elimination for the
    // rest of an incremental session. Variables that were already frozen —
    // or that appear in the assumptions, which `solve_with` freezes
    // permanently — stay pinned.
    let newly_frozen: Vec<Var> = project_all
        .iter()
        .copied()
        .filter(|&v| !solver.is_frozen(v) && !assumptions.iter().any(|l| l.var() == v))
        .collect();
    for &v in &project_all {
        solver.freeze_var(v);
    }
    let enumeration = enumerate_pinned(solver, &project_all, assumptions, limit);
    for &v in &newly_frozen {
        solver.thaw_var(v);
    }
    enumeration
}

/// The enumeration loop proper, with the projection already frozen.
fn enumerate_pinned(
    solver: &mut Solver,
    project_all: &[Var],
    assumptions: &[Lit],
    limit: usize,
) -> Enumeration {
    let mut models = Vec::new();
    let mut truncated = false;
    while models.len() < limit {
        match solver.solve_with(assumptions) {
            SolveResult::Sat => {
                let model: Vec<(Var, bool)> = project_all
                    .iter()
                    .map(|&v| (v, solver.model_value(v).unwrap_or(false)))
                    .collect();
                let blocking: Vec<Lit> = model
                    .iter()
                    .map(|&(v, value)| Lit::new(v, !value))
                    .collect();
                models.push(model);
                if !solver.add_clause(blocking) {
                    // Blocking clause made the instance unsatisfiable:
                    // the space is exhausted.
                    return Enumeration { models, truncated: false };
                }
            }
            SolveResult::Unsat => break,
            SolveResult::Unknown => {
                truncated = true;
                break;
            }
        }
    }
    if models.len() == limit {
        match solver.solve_with(assumptions) {
            // More projected assignments exist — or the probe could not
            // decide, in which case claiming the space was exhausted would
            // be a lie. Both count as truncation; only a proven UNSAT may
            // report the enumeration as complete.
            SolveResult::Sat | SolveResult::Unknown => truncated = true,
            SolveResult::Unsat => {}
        }
    }
    Enumeration { models, truncated }
}

/// Counts models projected onto `projection`, up to `limit`.
pub fn count_models(solver: &mut Solver, projection: &[Var], limit: usize) -> (usize, bool) {
    let e = enumerate_projected(solver, projection, &[], limit);
    (e.models.len(), e.truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_all_models_of_or() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        let e = enumerate_projected(&mut s, &[], &[], 10);
        assert_eq!(e.models.len(), 3); // TT, TF, FT
        assert!(!e.truncated);
    }

    #[test]
    fn projection_collapses_irrelevant_vars() {
        let mut s = Solver::new();
        let a = s.new_var();
        let _free = s.new_var(); // unconstrained variable
        s.add_clause([a.positive()]);
        let e = enumerate_projected(&mut s, &[a], &[], 10);
        // Projected onto {a}: exactly one model, regardless of `free`.
        assert_eq!(e.models.len(), 1);
        assert_eq!(e.models[0], vec![(a, true)]);
    }

    #[test]
    fn limit_reports_truncation() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(vars.iter().map(|v| v.positive())); // 7 models
        let e = enumerate_projected(&mut s, &[], &[], 2);
        assert_eq!(e.models.len(), 2);
        assert!(e.truncated);
    }

    #[test]
    fn enumeration_under_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        let e = enumerate_projected(&mut s, &[], &[a.negative()], 10);
        assert_eq!(e.models.len(), 1); // only FT survives a=false
        assert_eq!(e.models[0], vec![(a, false), (b, true)]);
    }

    #[test]
    fn count_models_of_unsat_is_zero() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        s.add_clause([a.negative()]);
        assert_eq!(count_models(&mut s, &[], 10), (0, false));
    }

    /// `p → PHP(n)`: a projection variable whose positive phase activates a
    /// pigeonhole contradiction. The p=false half of the space is trivially
    /// satisfiable; refuting the p=true half takes real conflicts.
    fn gated_pigeonhole(s: &mut Solver, pigeons: usize) -> Var {
        let p = s.new_var();
        let holes = pigeons - 1;
        let vars: Vec<Var> = (0..pigeons * holes).map(|_| s.new_var()).collect();
        let var = |pi: usize, h: usize| vars[pi * holes + h];
        for pi in 0..pigeons {
            let mut clause = vec![p.negative()];
            clause.extend((0..holes).map(|h| var(pi, h).positive()));
            s.add_clause(clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([p.negative(), var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        p
    }

    #[test]
    fn exhausted_space_at_the_limit_is_not_truncated() {
        // Exactly one projected model and limit 1: the final probe proves
        // UNSAT, so the enumeration may report the space exhausted.
        let mut s = Solver::new();
        let p = gated_pigeonhole(&mut s, 5);
        let e = enumerate_projected(&mut s, &[p], &[], 1);
        assert_eq!(e.models, vec![vec![(p, false)]]);
        assert!(!e.truncated, "a proven-UNSAT final probe means exhaustion");
    }

    #[test]
    fn inconclusive_final_probe_reports_truncation() {
        // Same space, but a conflict budget the pigeonhole refutation
        // cannot fit in: finding the p=false model is conflict-free, while
        // the final probe (forced into the contradiction) exhausts its
        // budget and returns Unknown. Claiming exhaustion here would be
        // wrong — the enumeration must report truncation.
        let mut s = Solver::new();
        let p = gated_pigeonhole(&mut s, 5);
        s.set_conflict_budget(Some(3));
        let e = enumerate_projected(&mut s, &[p], &[], 1);
        assert_eq!(e.models, vec![vec![(p, false)]]);
        assert!(
            e.truncated,
            "an inconclusive final probe must not claim the space was exhausted"
        );
    }

    #[test]
    fn enumeration_thaws_what_it_froze() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let pinned = s.new_var();
        s.freeze_var(pinned);
        s.add_clause([a.positive(), b.positive(), pinned.positive()]);
        let e = enumerate_projected(&mut s, &[a, pinned], &[b.positive()], 10);
        assert!(!e.models.is_empty());
        // The temporary projection pin is released; pre-existing freezes
        // (and the assumption-frozen variable) survive.
        assert!(!s.is_frozen(a), "projection freeze must be balanced by a thaw");
        assert!(s.is_frozen(pinned), "caller freezes outlive the enumeration");
        assert!(s.is_frozen(b), "assumption freezes are permanent");
    }
}
