//! Formula-level model enumeration.
//!
//! Enumerates satisfying assignments of the asserted constraints projected
//! onto a chosen set of atoms: two solver models that agree on every
//! projected atom count once, the way two models that agree on all decision
//! atoms are the same design (paper §6).
//!
//! [`enumerate_models`] adds permanent blocking clauses, so it takes the
//! encoder by value and consumes it (one-shot use); the sweep streams a
//! spec's variants with it. An incremental session that must keep its
//! solver gates its own blocking clauses instead, as
//! `netarch_core::query::Engine::enumerate_designs` does.

use crate::ast::Atom;
use crate::encoder::Encoder;
use netarch_sat::enumerate::enumerate_projected;
use netarch_sat::Lit;

/// One projected model: each atom with its value.
pub type AtomModel = Vec<(Atom, bool)>;

/// Result of enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelList {
    /// Projected models in discovery order.
    pub models: Vec<AtomModel>,
    /// True when the limit stopped enumeration early.
    pub truncated: bool,
}

/// Enumerates up to `limit` models projected onto `atoms`, consuming the
/// encoder.
pub fn enumerate_models(
    mut encoder: Encoder,
    atoms: &[Atom],
    assumptions: &[Lit],
    limit: usize,
) -> ModelList {
    let vars = encoder.projection_vars(atoms);
    let result = enumerate_projected(encoder.solver_mut(), &vars, assumptions, limit);
    let models = result
        .models
        .into_iter()
        .map(|m| {
            m.into_iter()
                .zip(atoms.iter())
                .map(|((_, value), &atom)| (atom, value))
                .collect()
        })
        .collect();
    ModelList { models, truncated: result.truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;

    fn a(i: u32) -> Formula {
        Formula::Atom(Atom(i))
    }

    #[test]
    fn enumerates_projected_models() {
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1)]));
        e.assert(&Formula::iff(a(2), a(0))); // a2 determined by a0
        let result = enumerate_models(e, &[Atom(0), Atom(1)], &[], 16);
        assert!(!result.truncated);
        assert_eq!(result.models.len(), 3);
        for m in &result.models {
            assert!(m.iter().any(|&(_, v)| v), "at least one of a0,a1 true");
        }
    }

    #[test]
    fn unsat_enumerates_nothing() {
        let mut e = Encoder::new();
        e.assert(&a(0));
        e.assert(&Formula::not(a(0)));
        let result = enumerate_models(e, &[Atom(0)], &[], 4);
        assert!(result.models.is_empty());
    }

    #[test]
    fn limit_truncates() {
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1), a(2)]));
        let result = enumerate_models(e, &[Atom(0), Atom(1), Atom(2)], &[], 2);
        assert_eq!(result.models.len(), 2);
        assert!(result.truncated);
    }
}
