//! The query engine.
//!
//! [`Engine`] wraps a compiled scenario and answers the paper's query
//! repertoire (§5.1):
//!
//! * **check** — "does there exist a choice of systems such that the
//!   following properties and constraints are met?" (§3.4);
//! * **optimize** — lexicographic `Optimize(latency > Hardware cost >
//!   monitoring)` (Listing 3);
//! * **diagnose** — when infeasible, *which requirements are in conflict*
//!   (§6 Explainability), as a minimal set of named rules;
//! * **enumerate** — equivalence classes of compliant designs (§6);
//! * **compare** — rule-of-thumb comparison of two systems in context,
//!   reporting incomparability honestly (§3.1).
//!
//! The engine is an **incremental session**: the scenario is compiled to
//! SAT exactly once, and every query runs on that one solver under
//! assumptions. Anything a query would have asserted destructively —
//! MaxSAT optimum hardening, enumeration blocking clauses — is gated
//! behind a per-query activation literal that is retired (permanently
//! falsified) when the query returns, so the gated clauses dissolve while
//! learned clauses, branching scores, and saved phases carry over to the
//! next query. Capacity planning adds its fleet to the same session on
//! first use, behind one long-lived activation literal, and answers each
//! fleet bound as an assumption. No query triggers a recompile.

use crate::compile::{compile, governing_kind, CompileStats, Compiled, Fleet};
use crate::error::{CatalogError, CompileError};
use crate::ordering::Comparison;
use crate::scenario::Scenario;
use crate::solution::Design;
use crate::types::{Dimension, HardwareKind, SystemId};
use netarch_logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch_logic::{Formula, Soft};
use netarch_sat::{Lit, SolveResult};

/// Retired activation literals tolerated before the session compacts its
/// clause database (dropping root-satisfied gated clauses).
const GC_EVERY: u32 = 8;

/// A rule implicated in an infeasibility.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictRule {
    /// Stable rule label (e.g. `req:SIMON:simon-needs-nic-timestamps`).
    pub label: String,
    /// Human-readable statement of the rule.
    pub description: String,
    /// Literature citation, when recorded.
    pub citation: Option<String>,
}

/// Why a scenario is infeasible: a minimal set of mutually conflicting
/// rules. Dropping any single one restores feasibility.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Diagnosis {
    /// The conflicting rules.
    pub conflicts: Vec<ConflictRule>,
}

/// Result of a satisfiability query.
#[derive(Debug)]
pub enum Outcome {
    /// A compliant design exists.
    Feasible(Design),
    /// No compliant design; here is a minimal conflict.
    Infeasible(Diagnosis),
}

impl Outcome {
    /// The design, when feasible.
    pub fn design(&self) -> Option<&Design> {
        match self {
            Outcome::Feasible(d) => Some(d),
            Outcome::Infeasible(_) => None,
        }
    }

    /// The diagnosis, when infeasible.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match self {
            Outcome::Feasible(_) => None,
            Outcome::Infeasible(d) => Some(d),
        }
    }
}

/// Report for one optimization level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelReport {
    /// Human-readable objective description.
    pub objective: String,
    /// Total weight of preference rules this level had to violate.
    pub penalty: u64,
}

/// An optimized design with its per-level objective report.
#[derive(Clone, Debug)]
pub struct OptimizedDesign {
    /// The chosen design.
    pub design: Design,
    /// Objective achievement, most important level first.
    pub levels: Vec<LevelReport>,
}

/// The reasoning engine over one scenario: a persistent incremental
/// solving session shared by every query.
pub struct Engine {
    scenario: Scenario,
    compiled: Compiled,
    /// Memoized `optimize` verdict. The scenario is immutable for the
    /// engine's lifetime and queries are non-destructive, so the
    /// lexicographic optimum is a session constant: computed on the first
    /// call, replayed on every later one.
    optimize_cache: Option<Result<OptimizedDesign, Diagnosis>>,
    /// Memoized enumerations, keyed by `(limit, include_hardware)` — pure
    /// for the same reason `optimize` is.
    enumerate_cache: Vec<((usize, bool), Vec<Design>)>,
    /// Capacity planning's fleet, built into the session by the first
    /// `plan_capacity` call.
    fleet: Option<Fleet>,
    /// Activation literals retired since the last garbage collection.
    retired_since_gc: u32,
}

impl Engine {
    /// [`Engine::new`]; the backend is ignored. Kept only because the
    /// benchmark harness under `archbench/` still calls it; ROADMAP item 1a
    /// deletes it.
    pub fn with_backend(
        scenario: Scenario,
        _backend: netarch_logic::SolveBackend,
    ) -> Result<Engine, CompileError> {
        Engine::new(scenario)
    }

    /// Compiles a scenario into an engine. Every query it answers runs on
    /// the engine's one session solver.
    pub fn new(scenario: Scenario) -> Result<Engine, CompileError> {
        let compiled = compile(&scenario)?;
        Ok(Engine {
            scenario,
            compiled,
            optimize_cache: None,
            enumerate_cache: Vec::new(),
            fleet: None,
            retired_since_gc: 0,
        })
    }

    /// The scenario under analysis.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Compilation size metrics plus session-reuse counters. Solver-side
    /// counters are the session solver's, which answers every query
    /// (capacity probes included). The size metrics describe the compile,
    /// not what later queries add to the session.
    pub fn stats(&self) -> CompileStats {
        let total = self.compiled.encoder.solver().stats();
        CompileStats {
            session_solves: total.solves,
            retired_activations: total.retired_activations,
            conflicts: total.conflicts,
            learnt_clauses: total.learnt_clauses,
            subsumed: total.subsumed,
            eliminated_vars: total.eliminated_vars,
            vivified: total.vivified,
            ..self.compiled.stats
        }
    }

    /// Retires a query's activation literal, dissolving its gated clauses,
    /// and periodically compacts the clause database (retired clauses are
    /// root-satisfied garbage).
    fn end_query(&mut self, gate: Lit) {
        self.compiled.encoder.retire(gate);
        self.retired_since_gc += 1;
        if self.retired_since_gc >= GC_EVERY {
            self.compiled.encoder.collect_garbage();
            self.retired_since_gc = 0;
        }
    }

    /// The design in the solver's model, sized by `scenario`.
    fn extract_design(&self, scenario: &Scenario) -> Design {
        Design::from_model(
            scenario,
            |id| {
                self.compiled
                    .system_atoms
                    .get(id)
                    .and_then(|&a| self.compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
            |id| {
                self.compiled
                    .hardware_atoms
                    .get(id)
                    .and_then(|&a| self.compiled.encoder.atom_value(a))
                    .unwrap_or(false)
            },
        )
    }

    fn diagnosis_from_mus(&self, mus: &[netarch_logic::GroupId]) -> Diagnosis {
        Diagnosis {
            conflicts: mus
                .iter()
                .map(|&g| {
                    let meta = self.compiled.rule(g);
                    ConflictRule {
                        label: meta.label.clone(),
                        description: meta.description.clone(),
                        citation: meta.citation.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Satisfiability: find any compliant design, or a minimal conflict.
    pub fn check(&mut self) -> Result<Outcome, CompileError> {
        let selectors = self.compiled.all_selectors();
        match self.compiled.encoder.solve_with(&selectors) {
            SolveResult::Sat => Ok(Outcome::Feasible(self.extract_design(&self.scenario))),
            SolveResult::Unsat | SolveResult::Unknown => {
                let ids = self.compiled.groups.ids();
                let mus = self
                    .compiled
                    .groups
                    .find_mus(&mut self.compiled.encoder, &ids)
                    .unwrap_or_default();
                Ok(Outcome::Infeasible(self.diagnosis_from_mus(&mus)))
            }
        }
    }

    /// Lexicographic optimization over the scenario's objective stack,
    /// with an implicit final parsimony level (prefer fewer systems) so
    /// unconstrained selections don't ride along.
    ///
    /// Runs entirely inside the session: every solve assumes the rule
    /// selectors plus one fresh activation literal, each level's optimum
    /// is hardened behind that literal (so later levels respect it), and
    /// the literal is retired on return. Because no query mutates the
    /// scenario, the verdict is then memoized: repeated `optimize` calls
    /// replay the first report without touching the solver. A mid-descent
    /// `HardUnsat` is impossible once the feasibility probe passed, so it
    /// surfaces as [`CompileError::Internal`] instead of being swallowed
    /// as an empty diagnosis.
    ///
    /// The cost and dimension levels group their softs by role category
    /// and hardware slot ([`netarch_logic::Soft::group`]), which the rules
    /// assumed here make at-most-one. Two checks guard that promise in
    /// release builds: a descent that finds a model costing more than the
    /// bound it probed answers [`MaxSatOutcome::BoundExceeded`], and every
    /// level's softs are re-evaluated on the final design, which must
    /// violate exactly the reported penalty. Either failure is
    /// [`CompileError::Internal`].
    pub fn optimize(&mut self) -> Result<Result<OptimizedDesign, Diagnosis>, CompileError> {
        // The optimum is a session constant (nothing a query does survives
        // its gate), so replay it once computed.
        if let Some(cached) = &self.optimize_cache {
            return Ok(cached.clone());
        }
        // First check feasibility (with usable diagnosis): the MUS
        // extraction below needs the session solver's unsat cores.
        let mut base = self.compiled.all_selectors();
        if self.compiled.encoder.solve_with(&base) != SolveResult::Sat {
            let ids = self.compiled.groups.ids();
            let mus = self
                .compiled
                .groups
                .find_mus(&mut self.compiled.encoder, &ids)
                .unwrap_or_default();
            let diagnosis = self.diagnosis_from_mus(&mus);
            self.optimize_cache = Some(Err(diagnosis.clone()));
            return Ok(Err(diagnosis));
        }
        // Compile the objective stack into the session, then the implicit
        // parsimony level (prefer designs without gratuitous selections).
        // Every verdict that gets here is memoized unless a level fails,
        // which the feasibility probe rules out, so this runs once.
        let mut objectives = Vec::with_capacity(self.compiled.objective_levels.len());
        for level in &self.compiled.objective_levels {
            let softs = compile_softs(&mut self.compiled.encoder, level.softs.clone())
                .map_err(|_| CompileError::ObjectiveOverflow)?;
            objectives.push((format!("{:?}", level.objective), softs));
        }
        let parsimony: Vec<Soft> = self
            .compiled
            .system_atoms
            .values()
            .map(|&a| Soft::new(1, Formula::not(Formula::Atom(a))))
            .collect();
        let parsimony = compile_softs(&mut self.compiled.encoder, parsimony)
            .map_err(|_| CompileError::ObjectiveOverflow)?;
        let gate = self.compiled.encoder.new_selector();
        let mut levels = Vec::new();
        // Each completed level's hardened bound references its (dormant by
        // default) totalizer, so its activation literal joins the base
        // assumptions for every later level.
        for (objective, softs) in &objectives {
            match minimize_under(&mut self.compiled.encoder, softs, &base, gate) {
                MaxSatOutcome::Optimal { cost, .. } => {
                    base.push(softs.activation());
                    levels.push(LevelReport {
                        objective: objective.clone(),
                        penalty: cost,
                    });
                }
                other => {
                    self.compiled.encoder.retire(gate);
                    return Err(internal_level_error(objective, &other));
                }
            }
        }
        match minimize_under(&mut self.compiled.encoder, &parsimony, &base, gate) {
            MaxSatOutcome::Optimal { .. } => {}
            other => {
                self.compiled.encoder.retire(gate);
                return Err(internal_level_error("parsimony", &other));
            }
        }
        // The final design must violate exactly each level's reported
        // penalty: an objective totalizer that undercounts could otherwise
        // let parsimony drift off a level's optimum unnoticed.
        for (level, (_, softs)) in levels.iter().zip(&objectives) {
            let cost = softs.model_cost(&self.compiled.encoder);
            if cost != level.penalty {
                self.compiled.encoder.retire(gate);
                return Err(CompileError::Internal(format!(
                    "objective level {} reported penalty {} but the final design violates {cost}",
                    level.objective, level.penalty
                )));
            }
        }
        let design = self.extract_design(&self.scenario);
        self.end_query(gate);
        let report = OptimizedDesign { design, levels };
        self.optimize_cache = Some(Ok(report.clone()));
        Ok(Ok(report))
    }

    /// Enumerates up to `limit` compliant designs, projected onto system
    /// selections (and hardware choices when `include_hardware`). Each
    /// returned design is a distinct equivalence class under the chosen
    /// projection (§6), extracted from a *representative full model* — so
    /// even system-projected classes come back with a concrete,
    /// constraint-satisfying hardware assignment. Enumeration runs on the
    /// session solver with gate-dissolved blocking clauses, so later
    /// queries see the full model space again; like
    /// `optimize`, a repeated query with the same `limit` and projection
    /// replays the memoized classes.
    pub fn enumerate_designs(
        &mut self,
        limit: usize,
        include_hardware: bool,
    ) -> Result<Vec<Design>, CompileError> {
        if limit == 0 {
            return Ok(Vec::new());
        }
        if let Some((_, cached)) = self
            .enumerate_cache
            .iter()
            .find(|(key, _)| *key == (limit, include_hardware))
        {
            return Ok(cached.clone());
        }
        // Session enumeration: every blocking clause is gated behind a
        // per-query activation literal, so retiring it afterwards hands
        // the unblocked model space back to the next query.
        let atoms = self.compiled.decision_atoms(include_hardware);
        let mut assumptions = self.compiled.all_selectors();
        let gate = self.compiled.encoder.new_selector();
        assumptions.push(gate);
        let atom_lits: Vec<Lit> = atoms
            .iter()
            .map(|&a| self.compiled.encoder.atom_lit(a))
            .collect();
        let mut designs = Vec::new();
        while designs.len() < limit {
            if self.compiled.encoder.solve_with(&assumptions) != SolveResult::Sat {
                break;
            }
            // Extract the design from the full model, then block this
            // *projected* assignment so the next model is a new
            // equivalence class.
            designs.push(self.extract_design(&self.scenario));
            let mut blocking: Vec<Lit> = Vec::with_capacity(atom_lits.len() + 1);
            blocking.push(!gate);
            blocking.extend(atoms.iter().zip(&atom_lits).map(|(&a, &lit)| {
                if self.compiled.encoder.atom_value(a).unwrap_or(false) {
                    !lit
                } else {
                    lit
                }
            }));
            netarch_logic::ClauseSink::add_clause(&mut self.compiled.encoder, &blocking);
        }
        self.end_query(gate);
        self.enumerate_cache
            .push(((limit, include_hardware), designs.clone()));
        Ok(designs)
    }

    /// Solves with only the named rule groups active (all other compiled
    /// rules are suspended). Primarily for verifying diagnoses: a minimal
    /// conflict is UNSAT as a subset, and SAT once any member is dropped.
    pub fn check_rule_subset(&mut self, labels: &[&str]) -> Result<bool, CompileError> {
        let ids = self.compiled.groups.ids();
        let selectors: Vec<netarch_sat::Lit> = ids
            .into_iter()
            .filter(|&g| labels.contains(&self.compiled.rule(g).label.as_str()))
            .map(|g| self.compiled.groups.selector(g))
            .collect();
        Ok(self.compiled.encoder.solve_with(&selectors) == SolveResult::Sat)
    }

    /// Plans a minimal sequence of role-level questions that would make
    /// the compliant design unique (§6's "minimal-effort ordering for the
    /// architect to provide"). Examines up to `limit` equivalence classes.
    pub fn disambiguate(
        &mut self,
        limit: usize,
    ) -> Result<crate::disambiguate::Disambiguation, CompileError> {
        let designs = self.enumerate_designs(limit, false)?;
        let truncated = designs.len() == limit;
        Ok(crate::disambiguate::plan_questions(&designs, truncated))
    }

    /// Rule-of-thumb comparison of two systems along a dimension, in this
    /// scenario's static context.
    pub fn compare(&self, a: &SystemId, b: &SystemId, dimension: &Dimension) -> Comparison {
        self.scenario
            .catalog
            .order()
            .compare(a, b, dimension, &self.scenario)
    }

    /// Should the architect run a measurement comparing `a` and `b` on
    /// `dimension`? The paper's §3.1 answer: "it is only needed if the
    /// answer changes the final design."
    ///
    /// The engine hypothesizes each outcome (an `a ≻ b` edge, then a
    /// `b ≻ a` edge, added via a modular [`crate::catalog::CatalogDelta`])
    /// and optimizes under both. Measuring is worthwhile exactly when the
    /// two hypothetical optima differ. This also captures §3.1's deadline
    /// example: if one of the systems is undeployable anyway (e.g. a
    /// research prototype under a production-only constraint), the optima
    /// coincide and the measurement is declared pointless.
    pub fn advise_measurement(
        &self,
        a: &SystemId,
        b: &SystemId,
        dimension: &Dimension,
    ) -> Result<MeasurementAdvice, CompileError> {
        let known = self.compare(a, b, dimension);
        if known != Comparison::Incomparable {
            return Ok(MeasurementAdvice {
                worthwhile: false,
                reason: format!(
                    "the knowledge base already orders {a} vs {b} on {dimension}: {known:?}"
                ),
                design_if_first_better: None,
                design_if_second_better: None,
            });
        }
        let hypothesize =
            |better: &SystemId, worse: &SystemId| -> Result<Option<Design>, CompileError> {
                let mut scenario = self.scenario.clone();
                scenario
                    .catalog
                    .apply(crate::catalog::CatalogDelta {
                        add_orderings: vec![crate::ordering::OrderingEdge::strict(
                            better.clone(),
                            worse.clone(),
                            dimension.clone(),
                        )],
                        ..crate::catalog::CatalogDelta::default()
                    })
                    .map_err(|e| match e {
                        CatalogError::UnknownSystem(id) => CompileError::UnknownSystem(id),
                        other => CompileError::InvalidCatalog(vec![other]),
                    })?;
                let mut engine = Engine::new(scenario)?;
                Ok(engine.optimize()?.ok().map(|r| r.design))
            };
        let with_a = hypothesize(a, b)?;
        let with_b = hypothesize(b, a)?;
        let worthwhile = match (&with_a, &with_b) {
            (Some(da), Some(db)) => da.selections != db.selections || da.hardware != db.hardware,
            (None, None) => false,
            _ => true, // one direction breaks feasibility: very informative
        };
        let reason = if worthwhile {
            format!("the optimal design changes with the {a} vs {b} verdict — measure it")
        } else if with_a.is_none() {
            "the scenario is infeasible regardless of the verdict".to_string()
        } else {
            format!(
                "the optimal design is the same under either verdict — \
                 measuring {a} vs {b} cannot change the outcome"
            )
        };
        Ok(MeasurementAdvice {
            worthwhile,
            reason,
            design_if_first_better: with_a,
            design_if_second_better: with_b,
        })
    }

    /// Capacity planning: the smallest server fleet (up to `max_servers`)
    /// that carries the workloads and a compliant system selection.
    ///
    /// The first call adds the fleet to the session: the server count as
    /// an order-encoded solver variable over `[1, B]`, where `B` is the
    /// largest fleet any design can need. Every call then assumes the
    /// fleet, `n ≤ max_servers`, the fleet's `capacity:` rules and every
    /// compiled rule but the fixed-fleet resource rules, and bisects on
    /// the count. The returned design is extracted at the optimal fleet
    /// size (costs and resource accounting use that size). Budget
    /// constraints, when set, are priced at the scenario's fixed
    /// `num_servers` — the query answers *size*, with cost reported
    /// afterwards.
    ///
    /// The demand totalizer takes each role category as one leaf, which
    /// the `role:` rules assumed here make at-most-one. A broken group can
    /// only undercount demand, so the design found at the optimum is
    /// checked against the fleet in release builds: a server-scaled
    /// resource it uses beyond what the fleet carries is
    /// [`CompileError::Internal`].
    pub fn plan_capacity(
        &mut self,
        max_servers: u64,
    ) -> Result<Result<CapacityPlan, Diagnosis>, CompileError> {
        let fleet = match self.fleet.take() {
            Some(fleet) => fleet,
            None => self.compiled.build_fleet(&self.scenario)?,
        };
        let plan = self.size_fleet(&fleet, max_servers.max(1));
        self.fleet = Some(fleet);
        plan
    }

    /// Bisects the fleet's server count under `n ≤ max`.
    fn size_fleet(
        &mut self,
        fleet: &Fleet,
        max: u64,
    ) -> Result<Result<CapacityPlan, Diagnosis>, CompileError> {
        let n = &fleet.servers;
        let mut base = vec![fleet.gate];
        if let netarch_logic::Bound::Lit(q) = n.ge_const(max.saturating_add(1)) {
            base.push(!q);
        }
        let mut assumptions = base.clone();
        assumptions.extend(
            fleet
                .groups
                .iter()
                .map(|&g| self.compiled.groups.selector(g)),
        );
        let encoder = &mut self.compiled.encoder;
        if encoder.solve_with(&assumptions) != SolveResult::Sat {
            let mus = self
                .compiled
                .groups
                .find_mus_under(encoder, &base, &fleet.groups)
                .unwrap_or_default();
            return Ok(Err(self.diagnosis_from_mus(&mus)));
        }
        let read_n =
            |encoder: &netarch_logic::Encoder| n.value(&|l| encoder.solver().model_lit_value(l));
        let mut best = read_n(encoder);
        let mut lo = n.lo();
        while lo < best {
            let mid = lo + (best - lo) / 2;
            let mut probe = assumptions.clone();
            if let netarch_logic::Bound::Lit(q) = n.ge_const(mid + 1) {
                probe.push(!q);
            }
            match encoder.solve_with(&probe) {
                SolveResult::Sat => best = read_n(encoder),
                SolveResult::Unsat | SolveResult::Unknown => lo = mid + 1,
            }
        }
        // Restore a model at the optimum.
        if let netarch_logic::Bound::Lit(q) = n.ge_const(best + 1) {
            assumptions.push(!q);
        }
        if encoder.solve_with(&assumptions) != SolveResult::Sat {
            return Err(CompileError::Internal(format!(
                "capacity planning found no model at its optimum of {best} servers"
            )));
        }
        // Extract the design against a scenario sized at the optimum.
        let mut sized = self.scenario.clone();
        sized.inventory.num_servers = best;
        let design = self.extract_design(&sized);
        // An undercounting demand totalizer only ever shrinks the fleet,
        // so a design that fits `best` servers proves `best` optimal.
        let model = design
            .hardware_for(HardwareKind::Server)
            .and_then(|id| self.scenario.catalog.hardware(id));
        if let Some(model) = model {
            for (resource, usage) in &design.resources {
                let carried = u128::from(model.capacity(resource)) * u128::from(best);
                if governing_kind(resource) == HardwareKind::Server
                    && u128::from(usage.used) > carried
                {
                    return Err(CompileError::Internal(format!(
                        "capacity planning sized {best} {} servers, which carry {carried} \
                         {resource}, but the design uses {}",
                        model.id, usage.used
                    )));
                }
            }
        }
        Ok(Ok(CapacityPlan {
            servers_needed: best,
            design,
        }))
    }
}

/// Result of [`Engine::advise_measurement`] — §3.1's "should I measure?"
#[derive(Clone, Debug)]
pub struct MeasurementAdvice {
    /// True when the measurement's outcome would change the design.
    pub worthwhile: bool,
    /// Human-readable justification.
    pub reason: String,
    /// The optimal design if the first system measures better (None when
    /// infeasible either way).
    pub design_if_first_better: Option<Design>,
    /// The optimal design if the second system measures better.
    pub design_if_second_better: Option<Design>,
}

/// Result of [`Engine::plan_capacity`].
#[derive(Clone, Debug)]
pub struct CapacityPlan {
    /// The minimal fleet size.
    pub servers_needed: u64,
    /// A compliant design at that fleet size.
    pub design: Design,
}

/// Maps an impossible mid-optimization MaxSAT outcome to a typed error.
/// `optimize` establishes feasibility before descending and activation
/// gating never removes models from the base theory, so a hard-UNSAT
/// level can only mean an engine bug — report it as such instead of
/// swallowing it as an empty diagnosis. So can a model costing more than
/// its bound, which only a broken at-most-one group produces.
fn internal_level_error(level: &str, outcome: &MaxSatOutcome) -> CompileError {
    match outcome {
        MaxSatOutcome::WeightOverflow => CompileError::ObjectiveOverflow,
        MaxSatOutcome::BoundExceeded { bound, cost } => CompileError::Internal(format!(
            "objective level {level} found a model costing {cost} under the bound {bound}"
        )),
        _ => CompileError::Internal(format!(
            "objective level {level} became infeasible after the feasibility probe"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::Condition;
    use crate::ordering::OrderingEdge;
    use crate::scenario::{Inventory, Objective, Pin, RoleRule};
    use crate::types::{Category, HardwareId, HardwareKind};
    use crate::workload::Workload;

    /// A small but complete scenario: two monitoring systems (one needs a
    /// NIC feature), two NIC models, one load balancer.
    fn test_scenario() -> Scenario {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("SIMON", Category::Monitoring)
                    .solves("detect_queue_length")
                    .requires(
                        "needs-nic-timestamps",
                        Condition::nics_have("NIC_TIMESTAMPS"),
                    )
                    .cost(400)
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("PINGMESH", Category::Monitoring)
                    .solves("detect_queue_length")
                    .cost(100)
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("ECMP", Category::LoadBalancer)
                    .solves("load_balancing")
                    .build(),
            )
            .unwrap();
        catalog
            .add_ordering(OrderingEdge::strict(
                "SIMON",
                "PINGMESH",
                Dimension::MonitoringQuality,
            ))
            .unwrap();
        catalog
            .add_ordering(OrderingEdge::strict(
                "PINGMESH",
                "SIMON",
                Dimension::DeploymentEase,
            ))
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("NIC_TS", HardwareKind::Nic)
                    .feature("NIC_TIMESTAMPS")
                    .cost(900)
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("NIC_PLAIN", HardwareKind::Nic)
                    .cost(300)
                    .build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(
                Workload::builder("app")
                    .needs("detect_queue_length")
                    .build(),
            )
            .with_role(Category::Monitoring, RoleRule::Required)
            .with_inventory(Inventory {
                nic_candidates: vec![HardwareId::new("NIC_TS"), HardwareId::new("NIC_PLAIN")],
                num_servers: 4,
                ..Inventory::default()
            })
    }

    #[test]
    fn check_finds_a_compliant_design() {
        let mut engine = Engine::new(test_scenario()).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        // Some monitoring system selected, and if it is SIMON the NIC must
        // be the timestamping model.
        let monitoring = design
            .selection(&Category::Monitoring)
            .expect("one monitor");
        if monitoring.as_str() == "SIMON" {
            assert_eq!(
                design.hardware_for(HardwareKind::Nic).unwrap().as_str(),
                "NIC_TS"
            );
        }
    }

    #[test]
    fn pin_forces_nic_upgrade() {
        let scenario = test_scenario().with_pin(Pin::Require(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        assert!(design.includes(&SystemId::new("SIMON")));
        assert_eq!(
            design.hardware_for(HardwareKind::Nic).unwrap().as_str(),
            "NIC_TS"
        );
    }

    #[test]
    fn contradictory_pins_yield_named_diagnosis() {
        let scenario = test_scenario()
            .with_pin(Pin::Require(SystemId::new("SIMON")))
            .with_pin(Pin::Forbid(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let diagnosis = outcome.diagnosis().expect("infeasible");
        let labels: Vec<&str> = diagnosis
            .conflicts
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert!(labels.contains(&"pin:require:SIMON"));
        assert!(labels.contains(&"pin:forbid:SIMON"));
        // Minimal: exactly the two pins, not the innocent rules.
        assert_eq!(diagnosis.conflicts.len(), 2);
    }

    #[test]
    fn requirement_conflict_names_the_requirement() {
        // Forbid the only NIC with timestamps, require SIMON.
        let mut scenario = test_scenario().with_pin(Pin::Require(SystemId::new("SIMON")));
        scenario.inventory.nic_candidates = vec![HardwareId::new("NIC_PLAIN")];
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        let diagnosis = outcome.diagnosis().expect("infeasible");
        let labels: Vec<&str> = diagnosis
            .conflicts
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert!(
            labels.contains(&"req:SIMON:needs-nic-timestamps"),
            "diagnosis should name the NIC-timestamp rule, got {labels:?}"
        );
    }

    #[test]
    fn optimize_monitoring_quality_picks_simon() {
        let scenario = test_scenario()
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality));
        let mut engine = Engine::new(scenario).unwrap();
        let result = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            result
                .design
                .selection(&Category::Monitoring)
                .unwrap()
                .as_str(),
            "SIMON"
        );
        assert_eq!(result.levels[0].penalty, 0);
    }

    #[test]
    fn optimize_cost_picks_pingmesh_and_cheap_nic() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        let result = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            result
                .design
                .selection(&Category::Monitoring)
                .unwrap()
                .as_str(),
            "PINGMESH"
        );
        assert_eq!(
            result
                .design
                .hardware_for(HardwareKind::Nic)
                .unwrap()
                .as_str(),
            "NIC_PLAIN"
        );
    }

    #[test]
    fn lexicographic_order_matters() {
        // Quality first: SIMON + expensive NIC. Cost first: PINGMESH.
        let quality_first = test_scenario()
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality))
            .with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(quality_first).unwrap();
        let r1 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            r1.design.selection(&Category::Monitoring).unwrap().as_str(),
            "SIMON"
        );

        let cost_first = test_scenario()
            .with_objective(Objective::MinimizeCost)
            .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality));
        let mut engine = Engine::new(cost_first).unwrap();
        let r2 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            r2.design.selection(&Category::Monitoring).unwrap().as_str(),
            "PINGMESH"
        );
    }

    #[test]
    fn engine_recovers_after_optimize() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        let _ = engine.optimize().unwrap();
        // The optimize gate is retired on return, so the session answers
        // later queries over the full model space.
        let outcome = engine.check().unwrap();
        assert!(outcome.design().is_some());
        let again = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            again
                .design
                .selection(&Category::Monitoring)
                .unwrap()
                .as_str(),
            "PINGMESH"
        );
    }

    #[test]
    fn enumerate_designs_lists_equivalence_classes() {
        let mut scenario = test_scenario();
        scenario
            .roles
            .insert(Category::LoadBalancer, RoleRule::Forbidden);
        let mut engine = Engine::new(scenario).unwrap();
        // Projected on systems only: SIMON or PINGMESH (ECMP forbidden).
        let designs = engine.enumerate_designs(16, false).unwrap();
        assert_eq!(designs.len(), 2, "{designs:?}");
        // Projected on systems + hardware: PINGMESH pairs with both NICs,
        // SIMON only with NIC_TS → 3 classes.
        let designs = engine.enumerate_designs(16, true).unwrap();
        assert_eq!(designs.len(), 3, "{designs:?}");
    }

    #[test]
    fn compare_exposes_order_and_incomparability() {
        let engine = Engine::new(test_scenario()).unwrap();
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality
            ),
            Comparison::Better
        );
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::DeploymentEase
            ),
            Comparison::Worse
        );
        assert_eq!(
            engine.compare(
                &SystemId::new("SIMON"),
                &SystemId::new("ECMP"),
                &Dimension::Throughput
            ),
            Comparison::Incomparable
        );
    }

    #[test]
    fn a_system_is_equal_to_itself_so_no_measurement_is_advised() {
        let engine = Engine::new(test_scenario()).unwrap();
        let simon = SystemId::new("SIMON");
        let ecmp = SystemId::new("ECMP");
        // SIMON has a quality edge; ECMP has no throughput edge at all.
        assert_eq!(
            engine.compare(&simon, &simon, &Dimension::MonitoringQuality),
            Comparison::Equal
        );
        assert_eq!(
            engine.compare(&ecmp, &ecmp, &Dimension::Throughput),
            Comparison::Equal
        );
        // A hypothetical `SIMON ≻ SIMON` edge would be a cycle; the advice
        // must stop at the known answer instead of optimizing under it.
        let advice = engine
            .advise_measurement(&simon, &simon, &Dimension::MonitoringQuality)
            .unwrap();
        assert!(!advice.worthwhile);
        assert!(
            advice.reason.contains("already orders"),
            "{}",
            advice.reason
        );
        assert!(advice.design_if_first_better.is_none());
    }

    #[test]
    fn measurement_advice_depends_on_decision_relevance() {
        // Two monitoring systems, incomparable on quality; the objective
        // maximizes quality → the verdict decides the design → measure.
        let scenario = {
            let mut s = test_scenario();
            // Remove the existing SIMON ≻ PINGMESH quality edge by
            // rebuilding the catalog without orderings.
            let mut catalog = Catalog::new();
            for spec in s.catalog.systems() {
                catalog.add_system(spec.clone()).unwrap();
            }
            for h in s.catalog.hardware_specs() {
                catalog.add_hardware(h.clone()).unwrap();
            }
            s.catalog = catalog;
            s.with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality))
        };
        let engine = Engine::new(scenario.clone()).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality,
            )
            .unwrap();
        assert!(advice.worthwhile, "{}", advice.reason);
        let da = advice.design_if_first_better.unwrap();
        let db = advice.design_if_second_better.unwrap();
        assert!(da.includes(&SystemId::new("SIMON")));
        assert!(db.includes(&SystemId::new("PINGMESH")));
    }

    #[test]
    fn measurement_not_worthwhile_when_already_ordered() {
        let engine = Engine::new(test_scenario()).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("SIMON"),
                &SystemId::new("PINGMESH"),
                &Dimension::MonitoringQuality,
            )
            .unwrap();
        assert!(!advice.worthwhile);
        assert!(advice.reason.contains("already orders"));
    }

    #[test]
    fn measurement_not_worthwhile_on_irrelevant_dimension() {
        // Objectives ignore DeploymentEase and no edge exists on it for
        // ECMP vs PINGMESH (different categories anyway): the design
        // cannot change.
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let engine = Engine::new(scenario).unwrap();
        let advice = engine
            .advise_measurement(
                &SystemId::new("ECMP"),
                &SystemId::new("PINGMESH"),
                &Dimension::Throughput,
            )
            .unwrap();
        assert!(!advice.worthwhile, "{}", advice.reason);
        assert!(advice.reason.contains("same under either verdict"));
    }

    #[test]
    fn plan_capacity_sizes_the_fleet() {
        use crate::types::Resource;
        let mut engine = Engine::new(fleet_scenario()).unwrap();
        let plan = engine.plan_capacity(64).unwrap().expect("feasible");
        // 200 workload + 40 system = 240 cores; 32/server → 8 servers.
        assert_eq!(plan.servers_needed, 8);
        assert!(plan.design.includes(&SystemId::new("MONITOR")));
        let cores = &plan.design.resources[&Resource::Cores];
        assert_eq!(cores.used, 240);
        assert_eq!(cores.capacity, Some(256));
    }

    #[test]
    fn plan_capacity_reports_impossible_fleets() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Monitoring)
                    .solves("m")
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("TINY", HardwareKind::Server)
                    .numeric("cores", 2.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").peak_cores(1000).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("TINY")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        // 1000 cores need 500 tiny servers; cap the fleet at 100 → infeasible.
        let result = engine.plan_capacity(100).unwrap();
        let diagnosis = result.unwrap_err();
        assert!(diagnosis
            .conflicts
            .iter()
            .any(|c| c.label.starts_with("capacity:cores:")));
        // With a big enough cap it works.
        let plan = engine.plan_capacity(600).unwrap().expect("feasible");
        assert_eq!(plan.servers_needed, 500);
    }

    #[test]
    fn workload_cores_checked_even_without_system_demands() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Monitoring)
                    .solves("m")
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV8", HardwareKind::Server)
                    .numeric("cores", 8.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").peak_cores(100).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV8")],
                num_servers: 2, // 16 cores < 100 required
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let outcome = engine.check().unwrap();
        assert!(
            outcome.diagnosis().is_some(),
            "engine must reject a fleet too small for the workload alone"
        );
    }

    #[test]
    fn stats_reflect_compilation() {
        let engine = Engine::new(test_scenario()).unwrap();
        let stats = engine.stats();
        assert!(stats.rules >= 4); // roles, requirement, workload need, hw choice
        assert_eq!(stats.decision_atoms, 5); // 3 systems + 2 NICs
        assert!(stats.clauses > 0);
        assert!(stats.solver_vars >= stats.decision_atoms);
        assert_eq!(stats.session_solves, 0); // no query ran yet
    }

    #[test]
    fn session_answers_interleaved_queries_without_recompiling() {
        let scenario = test_scenario().with_objective(Objective::MinimizeCost);
        let mut engine = Engine::new(scenario).unwrap();
        assert!(engine.check().unwrap().design().is_some());
        let opt1 = engine.optimize().unwrap().expect("feasible");
        let classes = engine.enumerate_designs(16, false).unwrap();
        assert!(classes.len() >= 2, "{classes:?}");
        assert!(engine.check().unwrap().design().is_some());
        // The optimum is stable across the interleaving: the enumeration
        // gate was retired, so no blocking clause constrains this solve.
        let opt2 = engine.optimize().unwrap().expect("feasible");
        assert_eq!(
            opt1.design.selections, opt2.design.selections,
            "interleaved queries perturbed the optimize answer"
        );
        let stats = engine.stats();
        assert!(stats.session_solves > 0);
        // 1 optimize + 1 enumerate; the second optimize is memoized.
        assert!(stats.retired_activations >= 2);
    }

    #[test]
    fn unsat_subset_query_leaves_no_stale_model() {
        // Regression: the solver used to keep the last SAT model visible
        // after an UNSAT solve, so a hypothetical extraction resurrected a
        // stale design. SAT probe first (model populated), contradictory
        // subset next (UNSAT), then extraction must see no assignment.
        let scenario = test_scenario()
            .with_pin(Pin::Require(SystemId::new("SIMON")))
            .with_pin(Pin::Forbid(SystemId::new("SIMON")));
        let mut engine = Engine::new(scenario).unwrap();
        assert!(engine.check_rule_subset(&["pin:require:SIMON"]).unwrap());
        assert!(!engine
            .check_rule_subset(&["pin:require:SIMON", "pin:forbid:SIMON"])
            .unwrap());
        let design = engine.extract_design(&engine.scenario);
        assert!(
            design.systems().is_empty() && design.hardware.is_empty(),
            "stale model leaked through an UNSAT solve: {design:?}"
        );
    }

    #[test]
    fn enumerate_zero_limit_short_circuits() {
        let mut engine = Engine::new(test_scenario()).unwrap();
        let designs = engine.enumerate_designs(0, true).unwrap();
        assert!(designs.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.session_solves, 0, "limit 0 must not touch the solver");
    }

    #[test]
    fn repeated_optimize_and_enumerate_replay_memoized_answers() {
        // Queries are pure within a session (the scenario never changes and
        // every gate is retired), so identical repeats must not re-solve.
        let mut engine = Engine::new(test_scenario()).unwrap();
        let o1 = engine.optimize().unwrap().expect("feasible");
        let d1 = engine.enumerate_designs(3, false).unwrap();
        let solves = engine.stats().session_solves;
        let o2 = engine.optimize().unwrap().expect("feasible");
        let d2 = engine.enumerate_designs(3, false).unwrap();
        assert_eq!(o1.design.selections, o2.design.selections);
        assert_eq!(d1.len(), d2.len());
        assert_eq!(
            engine.stats().session_solves,
            solves,
            "identical repeat queries must replay memoized session answers"
        );
        // A different projection is a different query and solves afresh.
        engine.enumerate_designs(3, true).unwrap();
        assert!(engine.stats().session_solves > solves);
    }

    #[test]
    fn impossible_maxsat_outcomes_map_to_typed_errors() {
        // Regression: `optimize` used to swallow a mid-descent HardUnsat
        // as `Ok(Err(Diagnosis::default()))` — indistinguishable from a
        // real (but unexplained) infeasibility. The mapping is now typed.
        match internal_level_error("MinimizeCost", &MaxSatOutcome::HardUnsat) {
            CompileError::Internal(context) => assert!(context.contains("MinimizeCost")),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(
            internal_level_error("x", &MaxSatOutcome::WeightOverflow),
            CompileError::ObjectiveOverflow
        );
        let exceeded = MaxSatOutcome::BoundExceeded { bound: 4, cost: 7 };
        match internal_level_error("MinimizeCost", &exceeded) {
            CompileError::Internal(context) => {
                assert!(context.contains("MinimizeCost") && context.contains("costing 7"))
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    /// MONITOR (40 cores) on 32-core SRV32 servers for a workload of 200
    /// peak cores: 240 cores need 8 servers.
    fn fleet_scenario() -> Scenario {
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("MONITOR", Category::Monitoring)
                    .solves("monitoring")
                    .consumes(Resource::Cores, AmountExpr::constant(40))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(
                Workload::builder("app")
                    .needs("monitoring")
                    .peak_cores(200)
                    .build(),
            )
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1,
                ..Inventory::default()
            })
    }

    #[test]
    fn session_fleet_spans_the_largest_fleet_a_design_needs() {
        // The domain stops at the largest fleet any design needs, whatever
        // the request: a bound of u64::MAX allocates what one of 64 does.
        let mut engine = Engine::new(fleet_scenario()).unwrap();
        let plan = engine.plan_capacity(u64::MAX).unwrap().expect("feasible");
        assert_eq!(plan.servers_needed, 8);
        let servers = &engine
            .fleet
            .as_ref()
            .expect("built by the first call")
            .servers;
        assert_eq!((servers.lo(), servers.hi()), (1, 8));
    }

    #[test]
    fn alternating_capacity_bounds_answer_on_one_fleet() {
        // Each bound is an assumption on the fleet the first call builds:
        // alternating bounds answer correctly and add no variables.
        let mut engine = Engine::new(fleet_scenario()).unwrap();
        let mut vars = None;
        for round in 0..3 {
            for (max, expected) in [(64, Some(8)), (7, None), (32, Some(8)), (8, Some(8))] {
                let answer = engine.plan_capacity(max).unwrap();
                match (answer, expected) {
                    (Ok(plan), Some(servers)) => {
                        assert_eq!(plan.servers_needed, servers, "round {round} max {max}")
                    }
                    (Err(diagnosis), None) => assert!(
                        diagnosis
                            .conflicts
                            .iter()
                            .any(|c| c.label == "capacity:cores:SRV32"),
                        "round {round} max {max}: {diagnosis:?}"
                    ),
                    (answer, _) => panic!("round {round} max {max}: {answer:?}"),
                }
                let now = engine.compiled.encoder.solver().num_vars();
                let first = *vars.get_or_insert(now);
                assert_eq!(first, now, "round {round} max {max} added variables");
            }
        }
    }

    #[test]
    fn capacity_bans_a_model_without_capacity_only_with_a_system_that_needs_it() {
        // HEAVY needs 4 `gpu` units, which NOGPU lacks; MON needs none and
        // fits one server. The fixed fleet of one server is feasible with
        // MON, so sizing the fleet must not ban NOGPU outright.
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("MON", Category::Monitoring)
                    .solves("m")
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("HEAVY", Category::Monitoring)
                    .solves("m")
                    .consumes(Resource::Custom("gpu".into()), AmountExpr::constant(4))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("NOGPU", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").peak_cores(16).build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("NOGPU")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let design = engine
            .check()
            .unwrap()
            .design()
            .cloned()
            .expect("MON on one NOGPU");
        assert!(design.includes(&SystemId::new("MON")));
        let plan = engine.plan_capacity(8).unwrap().expect("MON on one NOGPU");
        assert_eq!(plan.servers_needed, 1);
        assert!(plan.design.includes(&SystemId::new("MON")));
        assert!(!plan.design.includes(&SystemId::new("HEAVY")));
        // Pinning HEAVY leaves no server that hosts it, at any fleet size.
        let mut pinned = engine
            .scenario()
            .clone()
            .with_pin(Pin::Require(SystemId::new("HEAVY")));
        pinned.inventory.num_servers = 8;
        let mut engine = Engine::new(pinned).unwrap();
        assert!(engine.check().unwrap().diagnosis().is_some());
        let diagnosis = engine.plan_capacity(8).unwrap().unwrap_err();
        assert!(
            diagnosis
                .conflicts
                .iter()
                .any(|c| c.label == "capacity:custom:gpu:NOGPU"),
            "{diagnosis:?}"
        );
    }

    /// One 32-core server model, a workload that needs `m` and `lb`, and
    /// one system per `(id, category, solves, cores demands)`.
    fn demand_scenario(systems: &[(&str, Category, &str, &[u64])]) -> Scenario {
        use crate::condition::AmountExpr;
        use crate::types::Resource;
        let mut catalog = Catalog::new();
        for &(id, ref category, solves, demands) in systems {
            let mut b = SystemSpec::builder(id, category.clone()).solves(solves);
            for &cores in demands {
                b = b.consumes(Resource::Cores, AmountExpr::constant(cores));
            }
            catalog.add_system(b.build()).unwrap();
        }
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").needs("lb").build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1,
                ..Inventory::default()
            })
    }

    #[test]
    fn repeated_demands_of_one_resource_add_up() {
        // 40 cores listed twice is 80 cores, as one entry of 80 is: three
        // 32-core servers, not the two that counting 40 once would give.
        let servers = |demands: &[u64]| {
            let scenario = demand_scenario(&[
                ("MON", Category::Monitoring, "m", demands),
                ("LB", Category::LoadBalancer, "lb", &[]),
            ]);
            let mut engine = Engine::new(scenario).unwrap();
            engine
                .plan_capacity(64)
                .unwrap()
                .expect("feasible")
                .servers_needed
        };
        assert_eq!(servers(&[80]), 3);
        assert_eq!(servers(&[40, 40]), 3);
    }

    #[test]
    fn capacity_rejects_a_fleet_its_design_overloads() {
        // MON and LB need 40 cores each, 80 together: three 32-core
        // servers. Tagging both as one at-most-one group breaks the
        // promise the `role:` rules keep, so the demand totalizer counts
        // only 40 and the bisection settles on two servers; the design
        // found there must be refused, not reported.
        let scenario = demand_scenario(&[
            ("MON", Category::Monitoring, "m", &[40]),
            ("LB", Category::LoadBalancer, "lb", &[40]),
        ]);
        let mut engine = Engine::new(scenario.clone()).unwrap();
        assert_eq!(
            engine
                .plan_capacity(64)
                .unwrap()
                .expect("feasible")
                .servers_needed,
            3
        );
        let mut engine = Engine::new(scenario).unwrap();
        let atom = |id: &str| engine.compiled.system_atoms[&SystemId::new(id)].index();
        let (mon, lb) = (atom("MON"), atom("LB"));
        engine.compiled.atom_groups[lb] = engine.compiled.atom_groups[mon];
        match engine.plan_capacity(64) {
            Err(CompileError::Internal(message)) => {
                assert!(message.contains("sized 2 SRV32 servers"), "{message}")
            }
            other => panic!("a fleet of two carries 64 of 80 cores: {other:?}"),
        }
    }

    #[test]
    fn capacity_diagnosis_keeps_a_role_rule_the_grouped_demand_needs() {
        // A and B (30 cores each) require each other; C needs 50. One
        // 32-core server carries none of {C}, {A, B}, {A, B, C}, so the
        // rules without `role:monitoring` already conflict under an exact
        // sum. The MUS search tries that subset with the category as one
        // demand leaf, which counts A and B as 30, finds it feasible, and
        // so keeps the role rule. Pinned so that a change to this trade
        // (a smaller fleet encoding for a diagnosis that may name one
        // role rule too many) is deliberate.
        let mut catalog = Catalog::new();
        for (id, cores, partner) in [("A", 30, Some("B")), ("B", 30, Some("A")), ("C", 50, None)] {
            let mut b = SystemSpec::builder(id, Category::Monitoring)
                .solves("m")
                .consumes(
                    crate::types::Resource::Cores,
                    crate::condition::AmountExpr::constant(cores),
                );
            if let Some(partner) = partner {
                b = b.requires(format!("needs-{partner}"), Condition::system(partner));
            }
            catalog.add_system(b.build()).unwrap();
        }
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV32", HardwareKind::Server)
                    .numeric("cores", 32.0)
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("app").needs("m").build())
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV32")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut engine = Engine::new(scenario).unwrap();
        let diagnosis = engine.plan_capacity(1).unwrap().unwrap_err();
        let mut labels: Vec<&str> = diagnosis
            .conflicts
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        labels.sort_unstable();
        assert_eq!(
            labels,
            [
                "capacity:cores:SRV32",
                "hw:server",
                "req:A:needs-B",
                "req:B:needs-A",
                "role:monitoring",
                "workload:app:needs:m",
            ]
        );
    }
}
