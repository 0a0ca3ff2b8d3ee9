//! Minimal unsatisfiable subset (MUS) extraction over named groups.
//!
//! Architecture diagnosis (paper §6, "Explainability") needs more than
//! "your requirements are unsatisfiable": it must name a *minimal* set of
//! conflicting rules. Each rule is asserted under a selector literal;
//! solving with all selectors assumed yields an unsat core, which a
//! deletion-based loop then shrinks to a minimal subset: removing any
//! single member makes the remainder satisfiable.

use crate::ast::Formula;
use crate::encoder::Encoder;
use netarch_sat::{Lit, SolveResult};

/// Identifier of a tracked assertion group.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// A set of named, individually-toggleable assertion groups over an
/// [`Encoder`].
#[derive(Default)]
pub struct GroupedAssertions {
    selectors: Vec<Lit>,
    labels: Vec<String>,
}

impl GroupedAssertions {
    /// Creates an empty group set.
    pub fn new() -> GroupedAssertions {
        GroupedAssertions::default()
    }

    /// Asserts `formula` as a new group named `label`.
    pub fn add_group(
        &mut self,
        encoder: &mut Encoder,
        label: impl Into<String>,
        formula: &Formula,
    ) -> GroupId {
        let selector = encoder.new_selector();
        encoder.assert_under(selector, formula);
        self.selectors.push(selector);
        self.labels.push(label.into());
        GroupId(self.selectors.len() - 1)
    }

    /// Registers an externally-created selector literal as a group.
    ///
    /// For constraints whose clauses were emitted by a specialized encoder
    /// (e.g. guarded pseudo-Boolean bounds) rather than through
    /// [`GroupedAssertions::add_group`]. The caller guarantees every clause
    /// of the constraint carries `¬selector`.
    pub fn adopt_selector(&mut self, selector: Lit, label: impl Into<String>) -> GroupId {
        self.selectors.push(selector);
        self.labels.push(label.into());
        GroupId(self.selectors.len() - 1)
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.selectors.len()
    }

    /// True when no groups exist.
    pub fn is_empty(&self) -> bool {
        self.selectors.is_empty()
    }

    /// The label of a group.
    pub fn label(&self, id: GroupId) -> &str {
        &self.labels[id.0]
    }

    /// The selector literal of a group (for custom assumption sets).
    pub fn selector(&self, id: GroupId) -> Lit {
        self.selectors[id.0]
    }

    /// All group ids.
    pub fn ids(&self) -> Vec<GroupId> {
        (0..self.selectors.len()).map(GroupId).collect()
    }

    /// Solves with the given groups active.
    pub fn solve_with_groups(&self, encoder: &mut Encoder, groups: &[GroupId]) -> SolveResult {
        self.solve_under(encoder, &[], groups)
    }

    /// Solves with `base` assumed and the given groups active.
    fn solve_under(&self, encoder: &mut Encoder, base: &[Lit], groups: &[GroupId]) -> SolveResult {
        let mut assumptions = base.to_vec();
        assumptions.extend(groups.iter().map(|&g| self.selectors[g.0]));
        encoder.solve_with(&assumptions)
    }

    /// Maps an unsat core (selector literals) back to group ids.
    fn core_groups(&self, core: &[Lit]) -> Vec<GroupId> {
        self.selectors
            .iter()
            .enumerate()
            .filter(|(_, s)| core.contains(s))
            .map(|(i, _)| GroupId(i))
            .collect()
    }

    /// Finds a minimal unsatisfiable subset of `candidates`.
    ///
    /// Returns `None` when the candidates are jointly satisfiable. The
    /// returned set is minimal: dropping any one member yields SAT.
    pub fn find_mus(&self, encoder: &mut Encoder, candidates: &[GroupId]) -> Option<Vec<GroupId>> {
        self.find_mus_under(encoder, &[], candidates)
    }

    /// [`GroupedAssertions::find_mus`] with the `base` literals assumed in
    /// every solve: a minimal subset of `candidates` that is unsatisfiable
    /// together with `base`. The base itself is never blamed.
    pub fn find_mus_under(
        &self,
        encoder: &mut Encoder,
        base: &[Lit],
        candidates: &[GroupId],
    ) -> Option<Vec<GroupId>> {
        match self.solve_under(encoder, base, candidates) {
            SolveResult::Sat | SolveResult::Unknown => return None,
            SolveResult::Unsat => {}
        }
        // Seed from the solver's core, then shrink by deletion.
        let core = encoder.solver().unsat_core().to_vec();
        let mut working: Vec<GroupId> = self
            .core_groups(&core)
            .into_iter()
            .filter(|g| candidates.contains(g))
            .collect();
        if working.is_empty() {
            // The hard (ungrouped) constraints and the base are
            // unsatisfiable alone.
            return Some(Vec::new());
        }
        let mut i = 0;
        while i < working.len() {
            let mut trial = working.clone();
            let removed = trial.remove(i);
            match self.solve_under(encoder, base, &trial) {
                SolveResult::Unsat => {
                    // `removed` is unnecessary; also re-shrink to the new core.
                    let core = encoder.solver().unsat_core().to_vec();
                    let refined: Vec<GroupId> = self
                        .core_groups(&core)
                        .into_iter()
                        .filter(|g| trial.contains(g))
                        .collect();
                    working = if refined.is_empty() { trial } else { refined };
                    i = 0; // membership shifted; restart scan
                    let _ = removed;
                }
                SolveResult::Sat | SolveResult::Unknown => {
                    i += 1; // `removed` is necessary: keep it
                }
            }
        }
        working.sort_unstable();
        Some(working)
    }

    /// Renders a MUS as its labels (diagnosis output).
    pub fn describe(&self, mus: &[GroupId]) -> Vec<String> {
        mus.iter().map(|&g| self.labels[g.0].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn a(i: u32) -> Formula {
        Formula::Atom(Atom(i))
    }

    #[test]
    fn satisfiable_groups_have_no_mus() {
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let g1 = g.add_group(&mut e, "r1", &a(0));
        let g2 = g.add_group(&mut e, "r2", &a(1));
        assert_eq!(g.find_mus(&mut e, &[g1, g2]), None);
    }

    #[test]
    fn two_way_conflict_is_found_exactly() {
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let g1 = g.add_group(&mut e, "x", &a(0));
        let g2 = g.add_group(&mut e, "not-x", &Formula::not(a(0)));
        let g3 = g.add_group(&mut e, "innocent", &a(1));
        let mus = g.find_mus(&mut e, &[g1, g2, g3]).unwrap();
        assert_eq!(mus, vec![g1, g2]);
        assert_eq!(g.describe(&mus), vec!["x", "not-x"]);
    }

    #[test]
    fn mus_is_minimal_on_chain_conflict() {
        // a0, a0→a1, a1→a2, ¬a2 : all four needed.
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let ids = vec![
            g.add_group(&mut e, "base", &a(0)),
            g.add_group(&mut e, "step1", &Formula::implies(a(0), a(1))),
            g.add_group(&mut e, "step2", &Formula::implies(a(1), a(2))),
            g.add_group(&mut e, "cap", &Formula::not(a(2))),
            g.add_group(&mut e, "noise", &a(3)),
        ];
        let mus = g.find_mus(&mut e, &ids).unwrap();
        assert_eq!(mus, vec![ids[0], ids[1], ids[2], ids[3]]);
        // Verify minimality directly: dropping any member is SAT.
        for drop in &mus {
            let rest: Vec<GroupId> = mus.iter().copied().filter(|x| x != drop).collect();
            assert_eq!(g.solve_with_groups(&mut e, &rest), SolveResult::Sat);
        }
    }

    #[test]
    fn overlapping_conflicts_return_one_minimal_set() {
        // Two independent conflicts: {x, ¬x} and {y, ¬y}. A MUS is one of
        // them, not their union.
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let ids = vec![
            g.add_group(&mut e, "x", &a(0)),
            g.add_group(&mut e, "nx", &Formula::not(a(0))),
            g.add_group(&mut e, "y", &a(1)),
            g.add_group(&mut e, "ny", &Formula::not(a(1))),
        ];
        let mus = g.find_mus(&mut e, &ids).unwrap();
        assert_eq!(mus.len(), 2);
        let labels = g.describe(&mus);
        assert!(
            labels == vec!["x", "nx"] || labels == vec!["y", "ny"],
            "unexpected MUS {labels:?}"
        );
    }

    #[test]
    fn hard_constraint_conflict_yields_empty_mus() {
        let mut e = Encoder::new();
        e.assert(&a(0));
        e.assert(&Formula::not(a(0)));
        let mut g = GroupedAssertions::new();
        let g1 = g.add_group(&mut e, "anything", &a(1));
        assert_eq!(g.find_mus(&mut e, &[g1]), Some(Vec::new()));
    }

    #[test]
    fn base_assumptions_hold_in_every_solve_and_are_never_blamed() {
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let g1 = g.add_group(&mut e, "x", &a(0));
        let g2 = g.add_group(&mut e, "y", &a(1));
        let base = e.new_selector();
        e.assert_under(base, &Formula::not(a(0)));
        assert_eq!(g.find_mus(&mut e, &[g1, g2]), None);
        assert_eq!(g.find_mus_under(&mut e, &[base], &[g1, g2]), Some(vec![g1]));
        assert_eq!(g.find_mus_under(&mut e, &[base], &[g2]), None);
    }

    #[test]
    fn subset_of_candidates_respected() {
        let mut e = Encoder::new();
        let mut g = GroupedAssertions::new();
        let g1 = g.add_group(&mut e, "x", &a(0));
        let _g2 = g.add_group(&mut e, "nx", &Formula::not(a(0)));
        // Only g1 active: satisfiable.
        assert_eq!(g.find_mus(&mut e, &[g1]), None);
    }
}
