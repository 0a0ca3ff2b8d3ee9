//! The formula encoder: Tseitin transformation onto the CDCL solver.
//!
//! [`Encoder`] owns a [`Solver`], maps [`Atom`]s to solver variables, and
//! turns arbitrary [`Formula`]s into CNF. Assertions can be *grouped* under
//! selector literals (`selector → formula`), which is how the diagnosis
//! layer attributes conflicts back to named architecture rules.

use crate::ast::{Atom, Formula};
use crate::cardinality;
use crate::sink::ClauseSink;
use netarch_sat::{Lit, SolveResult, Solver, Stats, Var};

/// Encoder configuration.
#[derive(Clone, Debug, Default)]
pub struct EncodeConfig {
    /// Verified-solving mode: record DRAT proofs, mirror every asserted
    /// clause, and validate each verdict with the independent checker —
    /// panicking on any discrepancy. Intended for tests (see
    /// `NETARCH_VERIFY_PROOFS` / [`crate::verify::proofs_requested`]); it
    /// is a correctness tripwire, not a production mode.
    ///
    /// Clauses injected directly through [`Encoder::solver_mut`] bypass the
    /// mirror and are not supported while this mode is on.
    pub verify_proofs: bool,
}

/// Encodes [`Formula`]s into a CDCL solver via the Tseitin transformation.
pub struct Encoder {
    solver: Solver,
    atom_vars: Vec<Option<Var>>,
    true_lit: Option<Lit>,
    config: EncodeConfig,
    aux_vars: usize,
    asserted_clauses: usize,
    /// Active clause gate (see [`Encoder::gated_scope`]): while set, every
    /// asserted clause is weakened with the gate's negation.
    clause_gate: Option<Lit>,
    /// Mirror of every asserted clause, kept only in verify mode: the CNF
    /// the independent proof checker validates verdicts against.
    cnf_mirror: Vec<Vec<Lit>>,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with default configuration.
    pub fn new() -> Encoder {
        Encoder::with_config(EncodeConfig::default())
    }

    /// Creates an encoder with explicit configuration.
    pub fn with_config(config: EncodeConfig) -> Encoder {
        let mut solver = Solver::new();
        if config.verify_proofs {
            solver.record_proof();
        }
        Encoder {
            solver,
            atom_vars: Vec::new(),
            true_lit: None,
            config,
            aux_vars: 0,
            asserted_clauses: 0,
            clause_gate: None,
            cnf_mirror: Vec::new(),
        }
    }

    /// Access to the underlying solver (model reads, enumeration).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Snapshot of the session solver's counters — the learned-clause and
    /// conflict totals a serving layer reports per cached session.
    pub fn solver_stats(&self) -> netarch_sat::Stats {
        *self.solver.stats()
    }

    /// Number of auxiliary (Tseitin/cardinality) variables created.
    pub fn aux_var_count(&self) -> usize {
        self.aux_vars
    }

    /// Number of clauses asserted through this encoder.
    pub fn clause_count(&self) -> usize {
        self.asserted_clauses
    }

    /// The solver variable backing `atom`, allocated on first use.
    pub fn atom_var(&mut self, atom: Atom) -> Var {
        let idx = atom.index();
        if idx >= self.atom_vars.len() {
            self.atom_vars.resize(idx + 1, None);
        }
        match self.atom_vars[idx] {
            Some(v) => v,
            None => {
                let v = self.solver.new_var();
                self.atom_vars[idx] = Some(v);
                v
            }
        }
    }

    /// Positive literal for `atom`.
    pub fn atom_lit(&mut self, atom: Atom) -> Lit {
        self.atom_var(atom).positive()
    }

    /// A literal constrained to be true (allocated once).
    pub fn true_lit(&mut self) -> Lit {
        match self.true_lit {
            Some(l) => l,
            None => {
                let l = self.solver.new_var().positive();
                // The defining unit is global truth: it must hold even when
                // allocated inside a gated scope, so it bypasses the gate.
                self.add_clause_raw(&[l]);
                self.true_lit = Some(l);
                l
            }
        }
    }

    fn add_clause_counted(&mut self, lits: &[Lit]) {
        if let Some(gate) = self.clause_gate {
            if !lits.contains(&!gate) {
                let mut gated = Vec::with_capacity(lits.len() + 1);
                gated.push(!gate);
                gated.extend_from_slice(lits);
                return self.add_clause_raw(&gated);
            }
        }
        self.add_clause_raw(lits);
    }

    fn add_clause_raw(&mut self, lits: &[Lit]) {
        self.asserted_clauses += 1;
        if self.config.verify_proofs {
            self.cnf_mirror.push(lits.to_vec());
        }
        let _ = self.solver.add_clause(lits.iter().copied());
    }

    /// Asserts `formula` as a hard constraint.
    pub fn assert(&mut self, formula: &Formula) {
        match formula {
            Formula::True => {}
            Formula::False => self.add_clause_counted(&[]),
            Formula::And(parts) => {
                for p in parts {
                    self.assert(p);
                }
            }
            Formula::Atom(a) => {
                let l = self.atom_lit(*a);
                self.add_clause_counted(&[l]);
            }
            Formula::Not(inner) if matches!(**inner, Formula::Atom(_)) => {
                if let Formula::Atom(a) = **inner {
                    let l = self.atom_lit(a);
                    self.add_clause_counted(&[!l]);
                }
            }
            Formula::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                self.add_clause_counted(&lits);
            }
            Formula::Implies(a, b) => {
                let la = self.lit_for(a);
                let lb = self.lit_for(b);
                self.add_clause_counted(&[!la, lb]);
            }
            Formula::AtMost(k, parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                cardinality::assert_at_most(self, &lits, *k);
            }
            Formula::AtLeast(k, parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                cardinality::assert_at_least(self, &lits, *k);
            }
            Formula::Exactly(k, parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                cardinality::assert_exactly(self, &lits, *k);
            }
            other => {
                let l = self.lit_for(other);
                self.add_clause_counted(&[l]);
            }
        }
    }

    /// Asserts `selector → formula`: the formula is active only in solving
    /// contexts where `selector` is assumed (or asserted) true.
    pub fn assert_under(&mut self, selector: Lit, formula: &Formula) {
        match formula {
            Formula::True => {}
            Formula::False => self.add_clause_counted(&[!selector]),
            Formula::And(parts) => {
                for p in parts {
                    self.assert_under(selector, p);
                }
            }
            Formula::Or(parts) => {
                let mut lits: Vec<Lit> = vec![!selector];
                for p in parts {
                    lits.push(self.lit_for(p));
                }
                self.add_clause_counted(&lits);
            }
            Formula::Implies(a, b) => {
                let la = self.lit_for(a);
                let lb = self.lit_for(b);
                self.add_clause_counted(&[!selector, !la, lb]);
            }
            other => {
                let l = self.lit_for(other);
                self.add_clause_counted(&[!selector, l]);
            }
        }
    }

    /// Runs `f` with every asserted clause weakened by `!gate`, so the
    /// whole block of constraints is dormant unless `gate` is assumed (or
    /// asserted) true. Dormant clauses never drive propagation — the
    /// watched `!gate` literal stays unfalsified — which is what lets a
    /// persistent session carry e.g. an objective totalizer without taxing
    /// queries that do not use it.
    ///
    /// Tseitin definitions created *inside* the scope are gated too: any
    /// literal first defined here is only constrained while `gate` holds,
    /// so it must not be referenced by ungated clauses added later.
    /// (Definitions that already existed are reused untouched, and
    /// [`Encoder::true_lit`] always allocates ungated.)
    pub fn gated_scope<R>(&mut self, gate: Lit, f: impl FnOnce(&mut Encoder) -> R) -> R {
        let previous = self.clause_gate.replace(gate);
        let result = f(self);
        self.clause_gate = previous;
        result
    }

    /// Allocates a fresh selector literal for assertion grouping.
    pub fn new_selector(&mut self) -> Lit {
        self.aux_vars += 1;
        self.solver.new_var().positive()
    }

    /// Permanently retires a selector/activation literal by asserting its
    /// negation. Every clause gated on it is satisfied forever and becomes
    /// solver garbage (reclaim with [`Encoder::collect_garbage`]). Routed
    /// through the counted path so the verify-mode CNF mirror and the
    /// clause count stay consistent with the solver.
    pub fn retire(&mut self, selector: Lit) {
        self.asserted_clauses += 1;
        if self.config.verify_proofs {
            self.cnf_mirror.push(vec![!selector]);
        }
        let _ = self.solver.retire(selector);
    }

    /// Runs the solver's level-0 simplification (see
    /// [`netarch_sat::Solver::simplify`]), reclaiming clauses dissolved by
    /// retired activation literals. The CNF mirror is untouched: removed
    /// clauses are root-satisfied, so any later model still satisfies them
    /// and UNSAT proofs log the deletions themselves. Returns `false` when
    /// the instance is known unsatisfiable.
    pub fn collect_garbage(&mut self) -> bool {
        self.solver.simplify()
    }

    /// Returns a literal equivalent to `formula` (full Tseitin, both
    /// polarities usable).
    pub fn lit_for(&mut self, formula: &Formula) -> Lit {
        match formula {
            Formula::True => self.true_lit(),
            Formula::False => !self.true_lit(),
            Formula::Atom(a) => self.atom_lit(*a),
            Formula::Not(inner) => !self.lit_for(inner),
            Formula::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                self.define_and(&lits)
            }
            Formula::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| !self.lit_for(p)).collect();
                !self.define_and(&lits)
            }
            Formula::Implies(a, b) => {
                let la = self.lit_for(a);
                let lb = self.lit_for(b);
                !self.define_and(&[la, !lb])
            }
            Formula::Iff(a, b) => {
                let la = self.lit_for(a);
                let lb = self.lit_for(b);
                self.define_iff(la, lb)
            }
            Formula::Xor(a, b) => {
                let la = self.lit_for(a);
                let lb = self.lit_for(b);
                !self.define_iff(la, lb)
            }
            Formula::AtMost(k, parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                if *k as usize >= lits.len() {
                    return self.true_lit();
                }
                let outputs = cardinality::totalizer_outputs(self, &lits);
                !outputs[*k as usize]
            }
            Formula::AtLeast(k, parts) => {
                if *k == 0 {
                    return self.true_lit();
                }
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                if *k as usize > lits.len() {
                    return !self.true_lit();
                }
                let outputs = cardinality::totalizer_outputs(self, &lits);
                outputs[*k as usize - 1]
            }
            Formula::Exactly(k, parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.lit_for(p)).collect();
                if *k as usize > lits.len() {
                    return !self.true_lit();
                }
                let outputs = cardinality::totalizer_outputs(self, &lits);
                let ge_k = if *k == 0 {
                    self.true_lit()
                } else {
                    outputs[*k as usize - 1]
                };
                let le_k = if *k as usize >= lits.len() {
                    self.true_lit()
                } else {
                    !outputs[*k as usize]
                };
                self.define_and(&[ge_k, le_k])
            }
        }
    }

    /// Tseitin definition `p ⇔ (l₁ ∧ … ∧ lₙ)`.
    fn define_and(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.true_lit(),
            1 => lits[0],
            _ => {
                self.aux_vars += 1;
                let p = self.solver.new_var().positive();
                for &l in lits {
                    self.add_clause_counted(&[!p, l]);
                }
                let mut clause: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                clause.push(p);
                self.add_clause_counted(&clause);
                p
            }
        }
    }

    /// Tseitin definition `p ⇔ (a ↔ b)`.
    fn define_iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.aux_vars += 1;
        let p = self.solver.new_var().positive();
        self.add_clause_counted(&[!p, !a, b]);
        self.add_clause_counted(&[!p, a, !b]);
        self.add_clause_counted(&[p, a, b]);
        self.add_clause_counted(&[p, !a, !b]);
        p
    }

    /// Solves the asserted constraints.
    pub fn solve(&mut self) -> SolveResult {
        let result = self.solver.solve();
        self.verify_outcome(result, &[]);
        result
    }

    /// Solves under assumption literals (e.g. group selectors).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = self.solver.solve_with(assumptions);
        self.verify_outcome(result, assumptions);
        result
    }

    /// [`Encoder::solve_with`]. Kept only because the benchmark harness
    /// under `archbench/` still calls it; ROADMAP item 1a deletes it.
    pub fn solve_with_backend(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with(assumptions)
    }

    /// Always 0: there is no parallel solve to count. Kept only because
    /// the benchmark harness under `archbench/` still reads it; ROADMAP
    /// item 1a deletes it.
    pub fn portfolio_solve_count(&self) -> u64 {
        0
    }

    /// Always zero counters: no solver other than the session's runs. Kept
    /// only because the benchmark harness under `archbench/` still reads
    /// it; ROADMAP item 1a deletes it.
    pub fn parallel_worker_stats(&self) -> Stats {
        Stats::default()
    }

    /// In verify mode, every verdict must survive the independent checker:
    /// SAT models are evaluated against the mirrored CNF and UNSAT verdicts
    /// replay their DRAT proof. A failure here means the solver stack lied,
    /// so it panics rather than returning the unreliable verdict.
    fn verify_outcome(&self, result: SolveResult, assumptions: &[Lit]) {
        if !self.config.verify_proofs {
            return;
        }
        if let Err(e) = crate::verify::check_outcome(
            &self.solver,
            self.solver.num_vars(),
            &self.cnf_mirror,
            assumptions,
            result,
        ) {
            panic!("NETARCH_VERIFY_PROOFS: solver verdict failed independent verification: {e}");
        }
    }

    /// Value of `atom` in the latest model; `None` when the atom never
    /// reached the solver or is unassigned.
    pub fn atom_value(&self, atom: Atom) -> Option<bool> {
        let v = (*self.atom_vars.get(atom.index())?)?;
        self.solver.model_value(v)
    }

    /// Evaluates `formula` under the latest model (unmapped atoms count as
    /// false, matching projected-model semantics).
    pub fn eval_under_model(&self, formula: &Formula) -> bool {
        formula.eval(&|a| self.atom_value(a).unwrap_or(false))
    }

    /// The solver variables backing the given atoms (for projection).
    pub fn projection_vars(&mut self, atoms: &[Atom]) -> Vec<Var> {
        atoms.iter().map(|&a| self.atom_var(a)).collect()
    }
}

impl ClauseSink for Encoder {
    fn fresh_var(&mut self) -> Var {
        self.aux_vars += 1;
        self.solver.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.add_clause_counted(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> Formula {
        Formula::Atom(Atom(i))
    }

    #[test]
    fn assert_and_solve_simple() {
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1)]));
        e.assert(&Formula::not(a(0)));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(0)), Some(false));
        assert_eq!(e.atom_value(Atom(1)), Some(true));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut e = Encoder::new();
        e.assert(&a(0));
        e.assert(&Formula::not(a(0)));
        assert_eq!(e.solve(), SolveResult::Unsat);
    }

    #[test]
    fn iff_and_xor() {
        let mut e = Encoder::new();
        e.assert(&Formula::iff(a(0), a(1)));
        e.assert(&Formula::xor(a(1), a(2)));
        e.assert(&a(0));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        assert_eq!(e.atom_value(Atom(2)), Some(false));
    }

    #[test]
    fn nested_formula_through_lit_for() {
        // ((a0 ∧ a1) ∨ ¬a2) must hold, a2 true, a0 false → UNSAT? No:
        // a0=F makes (a0∧a1)=F and ¬a2=F → formula false → UNSAT.
        let mut e = Encoder::new();
        e.assert(&Formula::or([
            Formula::and([a(0), a(1)]),
            Formula::not(a(2)),
        ]));
        e.assert(&a(2));
        e.assert(&Formula::not(a(0)));
        assert_eq!(e.solve(), SolveResult::Unsat);
    }

    #[test]
    fn selector_groups_toggle_constraints() {
        let mut e = Encoder::new();
        let s1 = e.new_selector();
        let s2 = e.new_selector();
        e.assert_under(s1, &a(0));
        e.assert_under(s2, &Formula::not(a(0)));
        assert_eq!(e.solve_with(&[s1]), SolveResult::Sat);
        assert_eq!(e.solve_with(&[s2]), SolveResult::Sat);
        assert_eq!(e.solve_with(&[s1, s2]), SolveResult::Unsat);
        let core = e.solver().unsat_core().to_vec();
        assert!(core.contains(&s1) && core.contains(&s2));
    }

    #[test]
    fn asserted_cardinalities() {
        let mut e = Encoder::new();
        let xs = [a(0), a(1), a(2), a(3)];
        e.assert(&Formula::exactly(2, xs.clone()));
        e.assert(&a(0));
        e.assert(&a(1));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(2)), Some(false));
        assert_eq!(e.atom_value(Atom(3)), Some(false));
    }

    #[test]
    fn negated_cardinality_via_lit_for() {
        // ¬(at most 1 of {a0,a1,a2}) ⇒ at least 2 are true.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::at_most(1, [a(0), a(1), a(2)])));
        e.assert(&Formula::not(a(0)));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        assert_eq!(e.atom_value(Atom(2)), Some(true));
    }

    #[test]
    fn exactly_under_negation() {
        // ¬(exactly 1 of {a0,a1}) with a0 forced true ⇒ a1 must be true.
        let mut e = Encoder::new();
        e.assert(&Formula::not(Formula::exactly(1, [a(0), a(1)])));
        e.assert(&a(0));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(1)), Some(true));
    }

    #[test]
    fn eval_under_model_matches_assertions() {
        let mut e = Encoder::new();
        let f = Formula::and([Formula::or([a(0), a(1)]), Formula::not(a(2))]);
        e.assert(&f);
        assert_eq!(e.solve(), SolveResult::Sat);
        assert!(e.eval_under_model(&f));
    }

    #[test]
    fn assert_under_distributes_over_and() {
        // selector → (a0 ∧ a1): both conjuncts independently guarded.
        let mut e = Encoder::new();
        let s = e.new_selector();
        e.assert_under(s, &Formula::and([a(0), a(1)]));
        assert_eq!(e.solve_with(&[s]), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(0)), Some(true));
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        // Without the selector both atoms are free.
        e.assert(&Formula::not(a(0)));
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.solve_with(&[s]), SolveResult::Unsat);
    }

    #[test]
    fn assert_under_or_and_implies() {
        let mut e = Encoder::new();
        let s = e.new_selector();
        e.assert_under(s, &Formula::or([a(0), a(1)]));
        e.assert_under(s, &Formula::implies(a(0), a(2)));
        e.assert(&Formula::not(a(1)));
        e.assert(&Formula::not(a(2)));
        // Under s: a0∨a1, ¬a1 ⇒ a0; a0→a2, ¬a2 ⇒ contradiction.
        assert_eq!(e.solve_with(&[s]), SolveResult::Unsat);
        assert_eq!(e.solve(), SolveResult::Sat);
    }

    #[test]
    fn assert_under_cardinality_falls_through_to_reification() {
        let mut e = Encoder::new();
        let s = e.new_selector();
        e.assert_under(s, &Formula::at_most(1, [a(0), a(1), a(2)]));
        e.assert(&a(0));
        e.assert(&a(1));
        assert_eq!(
            e.solve(),
            SolveResult::Sat,
            "inactive group tolerates 2 atoms"
        );
        assert_eq!(
            e.solve_with(&[s]),
            SolveResult::Unsat,
            "active group enforces AMO"
        );
    }

    #[test]
    fn assert_under_false_kills_only_the_group() {
        let mut e = Encoder::new();
        let s = e.new_selector();
        e.assert_under(s, &Formula::False);
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.solve_with(&[s]), SolveResult::Unsat);
    }

    #[test]
    fn encoder_tracks_metrics() {
        let mut e = Encoder::new();
        e.assert(&Formula::iff(a(0), Formula::and([a(1), a(2)])));
        assert!(e.clause_count() > 0);
        assert!(e.aux_var_count() > 0);
    }

    #[test]
    fn gated_scope_constraints_are_dormant_until_assumed() {
        let mut e = Encoder::new();
        e.assert(&Formula::or([a(0), a(1)]));
        let gate = e.new_selector();
        e.gated_scope(gate, |e| e.assert(&Formula::not(a(0))));
        // Without the gate the scope's constraint is dormant.
        let a0 = e.atom_lit(Atom(0));
        assert_eq!(e.solve_with(&[a0]), SolveResult::Sat);
        // Assuming the gate switches it on.
        assert_eq!(e.solve_with(&[gate, a0]), SolveResult::Unsat);
        assert_eq!(e.solve_with(&[gate]), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(1)), Some(true));
        // The scope ended: later assertions are hard again.
        e.assert(&Formula::not(a(1)));
        let a1 = e.atom_lit(Atom(1));
        assert_eq!(e.solve_with(&[a1]), SolveResult::Unsat);
        assert_eq!(e.solve(), SolveResult::Sat);
        assert_eq!(e.atom_value(Atom(0)), Some(true));
    }

    #[test]
    fn gated_scopes_nest_and_restore() {
        let mut e = Encoder::new();
        let outer = e.new_selector();
        let inner = e.new_selector();
        e.gated_scope(outer, |e| {
            e.assert(&Formula::not(a(0)));
            e.gated_scope(inner, |e| e.assert(&Formula::not(a(1))));
            e.assert(&Formula::not(a(2)));
        });
        let lits: Vec<Lit> = (0..3).map(|i| e.atom_lit(Atom(i))).collect();
        // Inner gate controls only a1; outer controls a0 and a2.
        assert_eq!(e.solve_with(&[inner, lits[0], lits[2]]), SolveResult::Sat);
        assert_eq!(e.solve_with(&[inner, lits[1]]), SolveResult::Unsat);
        assert_eq!(e.solve_with(&[outer, lits[1]]), SolveResult::Sat);
        assert_eq!(e.solve_with(&[outer, lits[0]]), SolveResult::Unsat);
    }

    #[test]
    fn true_lit_allocated_inside_a_gated_scope_stays_global() {
        let mut e = Encoder::new();
        let gate = e.new_selector();
        let t = e.gated_scope(gate, |e| e.true_lit());
        // The defining unit bypassed the gate: ¬t is contradictory even
        // though the gate is never assumed.
        assert_eq!(e.solve_with(&[!t]), SolveResult::Unsat);
    }
}
