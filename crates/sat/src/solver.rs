//! The CDCL solver.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage:
//! two-watched-literal propagation with blocker literals, first-UIP conflict
//! analysis with clause minimization, exponential VSIDS decision ordering,
//! phase saving, Luby-sequence restarts, and LBD/activity-ranked deletion of
//! learnt clauses. Solving under assumptions yields an unsatisfiable core
//! (a subset of the assumptions), which the upper layers use for MUS
//! extraction and architecture-design diagnosis.
//!
//! At restart boundaries the solver additionally runs certified
//! *inprocessing* (see the `simplify` submodule): subsumption and
//! self-subsumption over occurrence lists, clause vivification, and bounded
//! variable elimination under a freeze set, with every derived or deleted
//! clause logged to the DRAT proof. Conflicts whose backjump would discard
//! many levels can instead backtrack chronologically by a single level
//! (`SolverConfig::chrono_threshold`).

#[path = "simplify.rs"]
mod simplify;

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::{DratProof, ProofSink};
use crate::stats::Stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; when
    /// assumptions were supplied, [`Solver::unsat_core`] names the culprits.
    Unsat,
    /// The conflict budget was exhausted before an answer was reached.
    Unknown,
}

/// One entry in a watch list: the clause plus a cached "blocker" literal
/// whose truth lets propagation skip loading the clause at all.
#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Tunable solver parameters. The defaults match common CDCL practice.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Multiplicative VSIDS decay applied after each conflict.
    pub var_decay: f64,
    /// Activity decay for learnt clauses.
    pub clause_decay: f64,
    /// Conflicts before the first restart (scaled by the Luby sequence).
    pub restart_base: u64,
    /// Disable restarts entirely (ablation switch).
    pub restarts_enabled: bool,
    /// Disable learnt-clause deletion (ablation switch).
    pub reduce_enabled: bool,
    /// Disable VSIDS, falling back to lowest-index decisions (ablation switch).
    pub vsids_enabled: bool,
    /// Disable learned-clause minimization (ablation switch).
    pub minimize_enabled: bool,
    /// Initial cap on learnt clauses, as a fraction of problem clauses.
    pub learnt_size_factor: f64,
    /// Growth of the learnt-clause cap at each reduction.
    pub learnt_size_inc: f64,
    /// Initial saved phase for fresh variables (probe-seat diversification:
    /// a seat that starts "all true" explores the opposite corner of the
    /// search space from the default "all false" seat).
    pub default_polarity: bool,
    /// Probability that a decision picks a seeded-random variable and
    /// polarity instead of the VSIDS maximum (0.0 disables; probe seats
    /// use small values for tie-breaking diversification).
    pub random_decision_freq: f64,
    /// Seed for the decision RNG. All randomness in the solver flows from
    /// this value — there is no ambient entropy — so equal configs replay
    /// identical searches.
    pub random_seed: u64,
    /// Enable restart-boundary inprocessing: subsumption/self-subsumption,
    /// clause vivification, and bounded variable elimination (see
    /// [`Solver::inprocess`]). Every simplification emits DRAT, so proofs
    /// stay checkable with inprocessing on.
    pub inprocessing_enabled: bool,
    /// Restarts before the *first* inprocessing round (1 = after the first
    /// restart). The gap doubles after every round, so a long search sees
    /// O(log restarts) rounds rather than paying the pass cost linearly.
    pub inprocess_interval: u64,
    /// Unit-propagation budget per vivification pass; bounds the work one
    /// inprocessing round spends probing clauses.
    pub vivify_budget: u64,
    /// Bounded variable elimination skips variables whose positive×negative
    /// occurrence product exceeds this cap (keeps resolvent generation
    /// quadratic only on genuinely cheap variables).
    pub bve_product_limit: usize,
    /// Chronological backtracking threshold: when a conflict's backjump
    /// would skip more than this many decision levels, backtrack just one
    /// level instead (Nadel & Ryvchin). `0` disables chronological
    /// backtracking.
    pub chrono_threshold: u32,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            restarts_enabled: true,
            reduce_enabled: true,
            vsids_enabled: true,
            minimize_enabled: true,
            learnt_size_factor: 1.0 / 3.0,
            learnt_size_inc: 1.1,
            default_polarity: false,
            random_decision_freq: 0.0,
            random_seed: 0,
            inprocessing_enabled: true,
            inprocess_interval: 4,
            vivify_budget: 20_000,
            bve_product_limit: 64,
            chrono_threshold: 100,
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// # Example
/// ```
/// use netarch_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(b.var()), Some(true));
/// ```
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    /// Watch lists indexed by literal code; `watches[l]` holds clauses
    /// watching `!l` — i.e. clauses to visit when `l` becomes true.
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// The clause that forced each assignment (INVALID for decisions).
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarHeap,
    /// Saved phase per variable, used to repeat prior polarities.
    polarity: Vec<bool>,
    /// Scratch marker used by conflict analysis.
    seen: Vec<bool>,
    /// False once the clause set is unsatisfiable at level 0.
    ok: bool,
    /// Snapshot of the full assignment taken when a solve returns
    /// [`SolveResult::Sat`]; cleared on every non-SAT outcome so stale
    /// models can never be read after an UNSAT or budget-exhausted solve.
    model: Vec<LBool>,
    assumptions: Vec<Lit>,
    conflict_core: Vec<Lit>,
    /// Conflict budget for bounded solving; `None` = unbounded.
    budget: Option<u64>,
    /// DRAT proof output, when enabled (see [`Solver::record_proof`]).
    proof: Option<ProofOut>,
    /// Cooperative cancellation flag, polled once per search-loop
    /// iteration (i.e. at least once per conflict or decision).
    interrupt: Option<Arc<AtomicBool>>,
    /// True when the most recent solve returned early because the
    /// interrupt flag was observed.
    last_interrupted: bool,
    /// xorshift64* state for seeded decision randomness.
    rng_state: u64,
    /// Variables exempt from bounded variable elimination: anything the
    /// caller may still mention in future clauses or assumptions (the
    /// freeze contract — see [`Solver::freeze_var`]). Assumption variables
    /// are frozen automatically by [`Solver::solve_with`].
    frozen: Vec<bool>,
    /// Variables removed by bounded variable elimination. They no longer
    /// occur in any live clause, are skipped by decision heuristics, and
    /// may not appear in newly added clauses or assumptions; their model
    /// values are restored by reconstruction from `elim_stack`.
    eliminated: Vec<bool>,
    /// Clauses deleted by variable elimination, with the pivot literal each
    /// contained. Walked in reverse on every SAT outcome to extend the
    /// model so it satisfies the *original* formula.
    elim_stack: Vec<(Lit, Vec<Lit>)>,
    /// Restarts since the last inprocessing round (cadence counter).
    restarts_since_inprocess: u64,
    /// Current restart gap before the next inprocessing round. Starts at
    /// `config.inprocess_interval` and doubles after every round, so early
    /// rounds strip the cheap redundancy while long searches are not
    /// dominated by pass overhead. `0` means "not yet initialised".
    inprocess_gap: u64,
    stats: Stats,
}

/// Where proof events go: an owned in-memory recorder (retrievable via
/// [`Solver::recorded_proof`]) or an arbitrary caller-supplied sink.
enum ProofOut {
    Recorder(DratProof),
    Stream(Box<dyn ProofSink>),
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        // Mix the seed so state is never zero (xorshift's fixed point).
        let rng_state = config
            .random_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D)
            | 1;
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarHeap::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            budget: None,
            proof: None,
            interrupt: None,
            last_interrupted: false,
            rng_state,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            restarts_since_inprocess: 0,
            inprocess_gap: 0,
            stats: Stats::default(),
        }
    }

    /// Installs a cooperative cancellation flag. The search loop polls it
    /// once per iteration (so at least once per conflict/decision); when it
    /// reads `true` the running solve unwinds to the root level and returns
    /// [`SolveResult::Unknown`], with [`Solver::last_interrupted`] set.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Removes any installed interrupt flag.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// True when the most recent solve returned [`SolveResult::Unknown`]
    /// because the interrupt flag was observed (as opposed to budget
    /// exhaustion).
    pub fn last_interrupted(&self) -> bool {
        self.last_interrupted
    }

    /// Starts recording a DRAT proof in memory. Every clause the solver
    /// derives (1UIP learning, minimization, level-0 simplification, the
    /// assumption-core clause) is logged as an addition, and every clause it
    /// drops (learnt-clause reduction, `simplify`) as a deletion. Retrieve
    /// the proof with [`Solver::recorded_proof`] or [`Solver::take_proof`]
    /// and validate it with [`crate::checker`].
    ///
    /// Recording starts from the call onward, so enable it before adding
    /// clauses; proof logging off costs a single branch per derivation.
    pub fn record_proof(&mut self) {
        self.proof = Some(ProofOut::Recorder(DratProof::new()));
    }

    /// Redirects proof events to an arbitrary [`ProofSink`] instead of the
    /// in-memory recorder (e.g. a streaming serializer).
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        self.proof = Some(ProofOut::Stream(sink));
    }

    /// The proof recorded so far, when [`Solver::record_proof`] is active.
    pub fn recorded_proof(&self) -> Option<&DratProof> {
        match &self.proof {
            Some(ProofOut::Recorder(p)) => Some(p),
            _ => None,
        }
    }

    /// Takes ownership of the recorded proof, disabling further logging.
    pub fn take_proof(&mut self) -> Option<DratProof> {
        match self.proof.take() {
            Some(ProofOut::Recorder(p)) => Some(p),
            _ => None,
        }
    }

    /// True while proof logging (recorder or stream) is enabled.
    pub fn proof_logging_enabled(&self) -> bool {
        self.proof.is_some()
    }

    #[inline]
    fn proof_add(&mut self, clause: &[Lit]) {
        if let Some(out) = &mut self.proof {
            match out {
                ProofOut::Recorder(p) => p.add_clause(clause),
                ProofOut::Stream(s) => s.add_clause(clause),
            }
        }
    }

    #[inline]
    fn proof_delete(&mut self, clause: &[Lit]) {
        if let Some(out) = &mut self.proof {
            match out {
                ProofOut::Recorder(p) => p.delete_clause(clause),
                ProofOut::Stream(s) => s.delete_clause(clause),
            }
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(ClauseRef::INVALID);
        self.activity.push(0.0);
        self.polarity.push(self.config.default_polarity);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.frozen.push(false);
        self.eliminated.push(false);
        self.order.insert(v, &self.activity);
        v
    }

    /// Exempts a variable from bounded variable elimination, permanently.
    ///
    /// The freeze contract: any variable the caller may still mention in a
    /// *future* `add_clause` or `solve_with` call must be frozen before
    /// inprocessing can run, because an eliminated variable no longer exists
    /// in the simplified formula (mentioning one afterwards panics).
    /// Assumption variables are frozen automatically when passed to
    /// [`Solver::solve_with`]; incremental encoders (e.g. `netarch-logic`)
    /// freeze every variable they allocate.
    pub fn freeze_var(&mut self, var: Var) {
        self.frozen[var.index()] = true;
    }

    /// Re-admits a variable to bounded variable elimination, undoing
    /// [`Solver::freeze_var`].
    ///
    /// The caller asserts that no *future* `add_clause` or `solve_with`
    /// call will mention the variable (or that it will be re-frozen first):
    /// once a later inprocessing round eliminates it, mentioning it panics.
    /// This is how temporary pins — e.g. enumeration projections, which
    /// only need their variables alive while blocking clauses are being
    /// added — avoid exempting those variables from elimination for the
    /// rest of an incremental session. Note that [`Solver::solve_with`]
    /// freezes assumption variables permanently; thawing one of those
    /// breaks that contract and is the caller's responsibility.
    pub fn thaw_var(&mut self, var: Var) {
        self.frozen[var.index()] = false;
    }

    /// True when the variable is exempt from variable elimination.
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen[var.index()]
    }

    /// True when the variable has been removed by variable elimination.
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated[var.index()]
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            self.new_var();
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Limits the next `solve` call to roughly `conflicts` conflicts;
    /// exceeded budgets yield [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.budget = conflicts;
    }

    /// Adds a clause. Returns `false` if the solver is already known
    /// unsatisfiable (the clause is then ignored).
    ///
    /// Tautologies are silently dropped; duplicate literals are removed;
    /// empty clauses make the instance unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        let mut c: Vec<Lit> = lits.into_iter().collect();
        for l in &c {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} references an unallocated variable"
            );
            assert!(
                !self.eliminated[l.var().index()],
                "literal {l:?} references an eliminated variable; variables \
                 mentioned by future clauses must be frozen (Solver::freeze_var) \
                 before inprocessing runs"
            );
        }
        c.sort_unstable();
        c.dedup();
        // Drop tautologies and false literals; detect satisfied clauses.
        let mut simplified = Vec::with_capacity(c.len());
        let mut i = 0;
        while i < c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: var appears with both signs
            }
            match self.lit_value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // falsified at level 0: drop literal
                LBool::Undef => simplified.push(l),
            }
            i += 1;
        }
        // A clause that level-0 simplification actually changed is, from the
        // proof's perspective, a derived clause: log it so the checker can
        // validate the strengthening (the stripped literals are all
        // root-falsified, so the simplified clause is RUP).
        let was_strengthened = simplified.len() != c.len();
        match simplified.len() {
            0 => {
                self.proof_add(&[]);
                self.ok = false;
                false
            }
            1 => {
                if was_strengthened {
                    self.proof_add(&simplified);
                }
                self.enqueue(simplified[0], ClauseRef::INVALID);
                if self.propagate().is_some() {
                    self.proof_add(&[]);
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                if was_strengthened {
                    self.proof_add(&simplified);
                }
                let cref = self.db.add(&simplified, false);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_core`] returns the subset
    /// of assumptions that participated in the refutation.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict_core.clear();
        self.last_interrupted = false;
        if !self.ok {
            // Even the short-circuit path must invalidate the model: a
            // caller that ignores the UNSAT result must not be able to read
            // the satisfying assignment of an earlier solve.
            self.model.clear();
            return SolveResult::Unsat;
        }
        for l in assumptions {
            assert!(
                l.var().index() < self.num_vars(),
                "assumption {l:?} references an unallocated variable"
            );
            assert!(
                !self.eliminated[l.var().index()],
                "assumption {l:?} references an eliminated variable; freeze \
                 variables assumed across solves (Solver::freeze_var)"
            );
            // Assumption variables are frozen permanently: callers reuse
            // assumption literals across solves, so eliminating one between
            // solves would invalidate the incremental session protocol.
            self.frozen[l.var().index()] = true;
        }
        self.assumptions = assumptions.to_vec();
        self.backtrack_to(0);
        self.stats.solves += 1;

        let mut max_learnt =
            (self.db.num_original() as f64 * self.config.learnt_size_factor).max(100.0);
        let mut restart_num = 0u64;
        let budget_start = self.stats.conflicts;

        loop {
            let restart_limit = if self.config.restarts_enabled {
                luby(restart_num) * self.config.restart_base
            } else {
                u64::MAX
            };
            restart_num += 1;
            match self.search(restart_limit, &mut max_learnt, budget_start) {
                SearchOutcome::Sat => {
                    // Snapshot the full assignment before rewinding the
                    // trail; the model stays readable until the next solve
                    // while the search structures return to the root level,
                    // keeping the solver immediately reusable.
                    self.model.clear();
                    self.model.extend_from_slice(&self.assigns);
                    // Variables removed by elimination are unassigned in the
                    // search; give them values satisfying the deleted
                    // clauses so the model holds for the original formula.
                    self.extend_model();
                    self.backtrack_to(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    self.model.clear();
                    self.backtrack_to(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    // Restart boundaries are where inprocessing runs: the
                    // trail is at root level, so clauses can be deleted,
                    // strengthened, and resolved away without repair work.
                    if !self.maybe_inprocess() {
                        self.model.clear();
                        return SolveResult::Unsat;
                    }
                }
                SearchOutcome::BudgetExhausted => {
                    self.model.clear();
                    self.backtrack_to(0);
                    return SolveResult::Unknown;
                }
                SearchOutcome::Interrupted => {
                    self.stats.interrupts += 1;
                    self.model.clear();
                    self.backtrack_to(0);
                    self.last_interrupted = true;
                    return SolveResult::Unknown;
                }
            }
        }
    }

    /// Value of `var` in the model of the most recent solve.
    ///
    /// Returns `None` for every variable unless the most recent solve
    /// returned [`SolveResult::Sat`]: the model snapshot is cleared on
    /// UNSAT and budget-exhausted outcomes, so a stale assignment from an
    /// earlier SAT solve can never leak through.
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index()).and_then(|v| v.to_bool())
    }

    /// Value of a literal in the most recent satisfying model.
    pub fn model_lit_value(&self, lit: Lit) -> Option<bool> {
        self.model_value(lit.var())
            .map(|b| if lit.is_positive() { b } else { !b })
    }

    /// After an unsatisfiable `solve_with`, the subset of assumption
    /// literals that the refutation relied on.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Returns true while the clause set is not yet known unsatisfiable.
    pub fn is_consistent(&self) -> bool {
        self.ok
    }

    /// Permanently retires an activation literal by asserting `!lit` as a
    /// root-level unit. Every clause gated on `lit` (i.e. containing `!lit`)
    /// becomes root-satisfied garbage that the next [`Solver::simplify`]
    /// call reclaims. This is the "query teardown" half of the incremental
    /// session protocol: destructive constraints are added as `lit`-gated
    /// clauses, activated by assuming `lit`, and dissolved here — leaving
    /// learnt clauses, activity scores, and saved phases intact.
    ///
    /// Returns `false` when the solver is already known unsatisfiable.
    pub fn retire(&mut self, lit: Lit) -> bool {
        self.stats.retired_activations += 1;
        self.add_clause([!lit])
    }

    /// Level-0 simplification: removes clauses satisfied by root-level
    /// assignments and strips falsified literals from the rest, then
    /// rebuilds the watch lists. Preserves satisfiability and models.
    ///
    /// Useful between incremental batches once many units have been
    /// derived. Returns `false` when the instance is (or becomes) known
    /// unsatisfiable.
    pub fn simplify(&mut self) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return false;
        }
        // Collect surviving clauses with falsified literals stripped.
        let mut survivors: Vec<(Vec<Lit>, bool)> = Vec::new();
        let all: Vec<ClauseRef> = (0..self.db.len())
            .map(|i| ClauseRef(i as u32))
            .filter(|&c| !self.db.is_deleted(c))
            .collect();
        for cref in all {
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            let satisfied = lits.iter().any(|&l| self.lit_value(l) == LBool::True);
            if satisfied {
                self.proof_delete(&lits);
                self.stats.garbage_collected_clauses += 1;
                continue;
            }
            let remaining: Vec<Lit> = lits
                .iter()
                .copied()
                .filter(|&l| self.lit_value(l) != LBool::False)
                .collect();
            debug_assert!(
                remaining.len() >= 2,
                "a unit/empty clause at level 0 would have propagated or conflicted"
            );
            if remaining.len() != lits.len() {
                // Strengthen-then-drop: the stripped clause is RUP (the
                // removed literals are root-false), and only after it is in
                // the proof may the original clause be deleted.
                self.proof_add(&remaining);
                self.proof_delete(&lits);
            }
            survivors.push((remaining, self.db.is_learnt(cref)));
        }
        // Rebuild the database and watches; keep assignments/trail.
        self.db = ClauseDb::new();
        for ws in &mut self.watches {
            ws.clear();
        }
        for r in &mut self.reason {
            *r = ClauseRef::INVALID;
        }
        for (lits, learnt) in survivors {
            let cref = self.db.add(&lits, learnt);
            self.attach(cref);
        }
        true
    }


    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].under_polarity(lit.is_positive())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
        self.stats.propagations += 1;
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut i = 0;
            let mut j = 0;
            // Take the watch list out to satisfy the borrow checker; it is
            // restored (with retained watchers compacted) before returning.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: the blocker is already true.
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                {
                    // Normalize so the false literal (!p) is in slot 1.
                    let lits = self.db.lits_mut(cref);
                    if lits[0] == !p {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], !p);
                }
                let first = self.db.lits(cref)[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.lits(cref).len();
                for k in 2..len {
                    let lk = self.db.lits(cref)[k];
                    if self.lit_value(lk) != LBool::False {
                        self.db.lits_mut(cref).swap(1, k);
                        self.watches[(!lk).code()].push(Watcher { cref, blocker: first });
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: copy remaining watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, cref);
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot 0 = asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut trail_index = self.trail.len();

        loop {
            if self.db.is_learnt(cref) {
                let bump = self.clause_inc;
                if self.db.bump_activity(cref, bump) {
                    self.db.rescale_activities(1e100);
                    self.clause_inc /= 1e100;
                }
            }
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            let skip_first = usize::from(p.is_some());
            for &q in &lits[skip_first..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to expand.
            loop {
                trail_index -= 1;
                if self.seen[self.trail[trail_index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[trail_index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            cref = self.reason[lit.var().index()];
            debug_assert_ne!(cref, ClauseRef::INVALID);
        }

        if self.config.minimize_enabled {
            self.minimize(&mut learnt);
        }

        // Compute backtrack level: the second-highest level in the clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // Clear the seen markers for the literals kept in the clause.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backtrack_level)
    }

    /// Local clause minimization: drop literals whose reason clause is fully
    /// subsumed by the remaining learnt literals.
    fn minimize(&mut self, learnt: &mut Vec<Lit>) {
        // `seen` is still set for all learnt literals at this point except
        // the asserting one; re-mark everything to be safe.
        for &l in learnt.iter() {
            self.seen[l.var().index()] = true;
        }
        let mut kept = vec![learnt[0]];
        for &l in &learnt[1..] {
            let reason = self.reason[l.var().index()];
            if reason == ClauseRef::INVALID {
                kept.push(l);
                continue;
            }
            let redundant = self
                .db
                .lits(reason)
                .iter()
                .all(|&q| q == !l || self.seen[q.var().index()] || self.level[q.var().index()] == 0);
            if redundant {
                self.stats.minimized_literals += 1;
            } else {
                kept.push(l);
            }
        }
        for &l in learnt.iter() {
            self.seen[l.var().index()] = false;
        }
        *learnt = kept;
    }

    /// Literal-block distance: number of distinct decision levels in a clause.
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.increased(var, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.clause_inc /= self.config.clause_decay;
    }

    fn backtrack_to(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            self.polarity[v] = lit.is_positive();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = ClauseRef::INVALID;
            self.order.insert(lit.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = bound.min(self.qhead);
    }

    /// xorshift64*: the only source of randomness in the solver, fully
    /// determined by `SolverConfig::random_seed`.
    #[inline]
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Occasionally picks a seeded-random unassigned variable (and random
    /// polarity) instead of the VSIDS maximum. The skipped heap entries are
    /// harmless: `backtrack_to` re-inserts unassigned variables, and
    /// `VarHeap::insert` is idempotent.
    fn pick_random_decision(&mut self) -> Option<Lit> {
        let n = self.num_vars();
        if n == 0 {
            return None;
        }
        let r = self.next_rand();
        let start = (r % n as u64) as usize;
        let sign = (r >> 32) & 1 == 1;
        for off in 0..n {
            let v = Var::from_index((start + off) % n);
            if self.assigns[v.index()] == LBool::Undef && !self.eliminated[v.index()] {
                return Some(Lit::new(v, sign));
            }
        }
        None
    }

    fn pick_decision(&mut self) -> Option<Lit> {
        if self.config.random_decision_freq > 0.0 {
            let r = self.next_rand() as f64 / u64::MAX as f64;
            if r < self.config.random_decision_freq {
                if let Some(lit) = self.pick_random_decision() {
                    self.stats.random_decisions += 1;
                    return Some(lit);
                }
            }
        }
        if self.config.vsids_enabled {
            // Eliminated variables are skipped (they occur in no live clause
            // and get their values from model reconstruction); dropping them
            // from the heap here is permanent, since they are never assigned
            // and thus never re-inserted by `backtrack_to`.
            while let Some(v) = self.order.pop_max(&self.activity) {
                if self.assigns[v.index()] == LBool::Undef && !self.eliminated[v.index()] {
                    return Some(Lit::new(v, self.polarity[v.index()]));
                }
            }
            None
        } else {
            (0..self.num_vars())
                .map(Var::from_index)
                .find(|v| self.assigns[v.index()] == LBool::Undef && !self.eliminated[v.index()])
                .map(|v| Lit::new(v, self.polarity[v.index()]))
        }
    }

    fn search(
        &mut self,
        restart_limit: u64,
        max_learnt: &mut f64,
        budget_start: u64,
    ) -> SearchOutcome {
        let mut conflicts_this_restart = 0u64;
        loop {
            // Poll the cancellation flag first so a pre-set flag is observed
            // before any further conflicts accrue (the cancellation test
            // depends on this bound).
            if let Some(flag) = &self.interrupt {
                if flag.load(Ordering::Relaxed) {
                    return SearchOutcome::Interrupted;
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.proof_add(&[]);
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                let (learnt, backtrack_level) = self.analyze(conflict);
                self.proof_add(&learnt);
                // LBD is computed before backtracking, but `level[]` entries
                // are not cleared on unassignment, so the value is identical
                // either way.
                let lbd = if learnt.len() == 1 { 1 } else { self.compute_lbd(&learnt) };
                // Chronological backtracking: when the non-chronological
                // backjump would discard many decision levels, step back a
                // single level instead (Nadel & Ryvchin). The learnt clause
                // is still asserting there — every non-asserting literal
                // sits at a level ≤ backtrack_level < decision_level - 1 —
                // and the trail stays level-monotone, so analysis invariants
                // hold unchanged. Never applied inside the assumption
                // prefix, where level indexing must stay aligned.
                let mut target_level = backtrack_level;
                let ct = self.config.chrono_threshold;
                if ct > 0
                    && learnt.len() > 1
                    && self.decision_level() as usize > self.assumptions.len()
                    && self.decision_level() - backtrack_level > ct
                {
                    let chrono = self.decision_level() - 1;
                    if chrono > backtrack_level {
                        target_level = chrono;
                        self.stats.chrono_backtracks += 1;
                    }
                }
                self.backtrack_to(target_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, ClauseRef::INVALID);
                } else {
                    let cref = self.db.add(&learnt, true);
                    self.db.set_lbd(cref, lbd);
                    self.attach(cref);
                    self.stats.learnt_clauses += 1;
                    self.stats.learnt_literals += learnt.len() as u64;
                    self.enqueue(asserting, cref);
                }
                self.decay_activities();
                if let Some(budget) = self.budget {
                    if self.stats.conflicts - budget_start >= budget {
                        return SearchOutcome::BudgetExhausted;
                    }
                }
            } else {
                if conflicts_this_restart >= restart_limit && self.decision_level() > 0 {
                    return SearchOutcome::Restart;
                }
                if self.config.reduce_enabled && self.db.num_learnt() as f64 >= *max_learnt {
                    self.reduce_db();
                    *max_learnt *= self.config.learnt_size_inc;
                }
                // Extend with pending assumptions before free decisions.
                let level = self.decision_level() as usize;
                if level < self.assumptions.len() {
                    let a = self.assumptions[level];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied: open an empty decision level
                            // so assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(!a);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            self.enqueue(a, ClauseRef::INVALID);
                        }
                    }
                    continue;
                }
                match self.pick_decision() {
                    None => return SearchOutcome::Sat,
                    Some(lit) => {
                        self.trail_lim.push(self.trail.len());
                        self.stats.decisions += 1;
                        self.enqueue(lit, ClauseRef::INVALID);
                    }
                }
            }
        }
    }

    /// Computes the unsat core when an assumption `!a` is implied: walk the
    /// implication graph from `a`'s complement back to assumptions.
    fn analyze_final(&mut self, failing: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(!failing);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failing.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            if !self.seen[v] {
                continue;
            }
            let reason = self.reason[v];
            if reason == ClauseRef::INVALID {
                // A decision inside the assumption prefix = an assumption.
                if self.assumptions.contains(&lit) && lit != !failing {
                    self.conflict_core.push(lit);
                }
            } else {
                for &q in self.db.lits(reason).iter().skip(1) {
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[failing.var().index()] = false;
        if self.proof.is_some() {
            // The core clause ¬a₁ ∨ … ∨ ¬aₖ is RUP against the clauses the
            // refutation traversed (all logged or original), so log it: the
            // checker validates it like any other derivation, and it is the
            // artifact `checker::check_refutation_under_assumptions` ties
            // the reported core to.
            let core_clause: Vec<Lit> = self.conflict_core.iter().map(|&l| !l).collect();
            self.proof_add(&core_clause);
        }
    }

    /// Deletes the less useful half of the learnt clauses.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut learnt: Vec<ClauseRef> = self
            .db
            .iter_learnt()
            .filter(|&c| !self.is_reason(c) && self.db.lits(c).len() > 2)
            .collect();
        // Keep low-LBD, high-activity clauses.
        learnt.sort_by(|&a, &b| {
            self.db
                .lbd(a)
                .cmp(&self.db.lbd(b))
                .then(
                    self.db
                        .activity(b)
                        .partial_cmp(&self.db.activity(a))
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let keep = learnt.len() / 2;
        for &cref in &learnt[keep..] {
            if self.db.lbd(cref) <= 2 {
                continue; // glue clauses are always kept
            }
            if self.proof.is_some() {
                let lits = self.db.lits(cref).to_vec();
                self.proof_delete(&lits);
            }
            self.detach(cref);
            self.db.delete(cref);
            self.stats.deleted_clauses += 1;
        }
        if self.db.should_compact() {
            self.compact();
        }
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        let first = self.db.lits(cref)[0];
        let v = first.var().index();
        self.assigns[v].is_assigned() && self.reason[v] == cref
    }

    fn detach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code()].retain(|w| w.cref != cref);
        self.watches[(!l1).code()].retain(|w| w.cref != cref);
    }

    /// Compacts the clause arena and rewrites all references.
    fn compact(&mut self) {
        let remap = self.db.compact();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match remap[w.cref.0 as usize] {
                Some(new) => {
                    w.cref = new;
                    true
                }
                None => false,
            });
        }
        for r in &mut self.reason {
            if *r != ClauseRef::INVALID {
                *r = remap[r.0 as usize].unwrap_or(ClauseRef::INVALID);
            }
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
    Interrupted,
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
pub(crate) fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause([v[0], v[1]]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[2], v[3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for l in &v {
            assert_eq!(s.model_lit_value(*l), Some(true));
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause([v[0], !v[0]]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires
        // actual conflict analysis.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for hole in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause([!p[i][hole], !p[j][hole]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn solve_under_assumptions_and_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([!v[0], !v[1]]); // a and b conflict
        assert_eq!(s.solve_with(&[v[0], v[1], v[2]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&v[0]) || core.contains(&v[1]));
        assert!(!core.contains(&v[2]) || core.len() <= 2);
        // Without the conflicting pair, SAT again (incremental reuse).
        assert_eq!(s.solve_with(&[v[0], v[2]]), SolveResult::Sat);
        assert_eq!(s.model_lit_value(v[0]), Some(true));
        assert_eq!(s.model_lit_value(v[1]), Some(false));
    }

    #[test]
    fn incremental_clause_addition_after_solve() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([!v[0]]);
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn conflict_budget_returns_unknown_on_hard_instance() {
        // Pigeonhole 8 into 7 with a budget of 1 conflict.
        let n = 8;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                for (&a, &b) in pi.iter().zip(pj) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn model_is_cleared_after_unsat_solve() {
        // Regression: a SAT solve followed by an UNSAT one must not leave
        // the old model readable through `model_value`.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0].var()).is_some());
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
        assert_eq!(s.model_value(v[0].var()), None);
        assert_eq!(s.model_value(v[1].var()), None);
        assert_eq!(s.model_lit_value(v[0]), None);
    }

    #[test]
    fn model_is_cleared_on_budget_exhaustion_and_inconsistency() {
        // Budget-exhausted (Unknown) and already-inconsistent short-circuit
        // solves must also invalidate the model.
        let n = 8;
        let mut s = Solver::new();
        let free = s.new_var();
        s.add_clause([free.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(free), Some(true));
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i, pi) in p.iter().enumerate() {
            for pj in &p[i + 1..] {
                for (&a, &b) in pi.iter().zip(pj) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.model_value(free), None);

        // A solver driven to root inconsistency after a SAT solve takes the
        // `!self.ok` short-circuit on the next solve; the stale model must
        // be cleared there too.
        let mut t = Solver::new();
        let x = t.new_var();
        t.add_clause([x.positive()]);
        assert_eq!(t.solve(), SolveResult::Sat);
        assert_eq!(t.model_value(x), Some(true));
        assert!(!t.add_clause([!x.positive()]));
        assert_eq!(t.solve(), SolveResult::Unsat);
        assert_eq!(t.model_value(x), None);
    }

    #[test]
    fn retire_dissolves_gated_clauses() {
        // Clauses gated on an activation literal bind only while the
        // activation is assumed; retirement makes them garbage that
        // `simplify` reclaims, without touching ungated clauses.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let act = s.new_var().positive();
        s.add_clause([v[0], v[1]]); // ungated
        s.add_clause([!act, !v[0]]); // gated: act -> !v0
        s.add_clause([!act, !v[1]]); // gated: act -> !v1
        assert_eq!(s.solve_with(&[act]), SolveResult::Unsat);
        assert!(s.retire(act));
        assert_eq!(s.stats().retired_activations, 1);
        // The gated constraints no longer bind.
        assert_eq!(s.solve(), SolveResult::Sat);
        let live_before = s.num_clauses();
        assert!(s.simplify());
        assert!(s.stats().garbage_collected_clauses >= 2);
        assert!(s.num_clauses() < live_before);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn assumptions_already_implied_stay_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve_with(&[v[0], v[1]]), SolveResult::Sat);
    }

    #[test]
    fn assumption_contradicting_level0_unit_gives_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Unsat);
        assert_eq!(s.unsat_core(), &[!v[0]]);
    }
}
