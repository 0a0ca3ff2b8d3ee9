//! Compilation of a [`Scenario`] into SAT.
//!
//! The translation scheme (DESIGN.md §5):
//!
//! * one decision atom per candidate **system** and per candidate
//!   **hardware model**;
//! * role rules become cardinality constraints per category;
//! * each system's requirements become guarded implications
//!   `selected(s) → condition`, asserted as *named groups* so that
//!   infeasibility diagnoses name the offending rules-of-thumb;
//! * resource demands become pseudo-Boolean sums guarded by the hardware
//!   model that defines the capacity;
//! * the objective stack becomes lexicographic MaxSAT levels whose weights
//!   scalarize the preference partial order (dominance counts).

use crate::catalog::Catalog;
use crate::condition::Condition;
use crate::error::CompileError;
use crate::ordering::{EdgeKind, ResolvedOrder};
use crate::scenario::{Inventory, Objective, Pin, RoleRule, Scenario};
use crate::types::{Category, Dimension, Feature, HardwareId, HardwareKind, Resource, SystemId};
use netarch_logic::pb::{assert_pb_le_under, gcd, group_terms, gte_outputs, weight_sum, PbTerm};
use netarch_logic::{
    Atom, Bound, ClauseSink, Encoder, Formula, GroupId, GroupedAssertions, OrderInt, Soft,
};
use netarch_sat::Lit;
use std::collections::{BTreeMap, BTreeSet};

/// Provenance of one compiled rule group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable label, e.g. `req:SIMON:simon-needs-nic-timestamps`.
    pub label: String,
    /// Human-readable description of what the rule enforces.
    pub description: String,
    /// Source citation when the rule came from the literature.
    pub citation: Option<String>,
}

/// One lexicographic objective level, compiled to soft constraints.
pub struct ObjectiveLevel {
    /// The objective this level realizes.
    pub objective: Objective,
    /// Its soft constraints.
    pub softs: Vec<Soft>,
}

/// Compilation size metrics (experiment E9: linear-growth claim), plus
/// session-reuse counters filled in by [`crate::query::Engine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of named rule groups.
    pub rules: usize,
    /// Decision atoms (systems + hardware).
    pub decision_atoms: usize,
    /// Total clauses pushed into the solver.
    pub clauses: usize,
    /// Total solver variables (atoms + auxiliaries).
    pub solver_vars: usize,
    /// Solver invocations served by the persistent session solver.
    pub session_solves: u64,
    /// Per-query activation literals retired back into the session.
    pub retired_activations: u64,
    /// Always 0: every solve runs on the session solver. Kept only
    /// because the benchmark harness under `archbench/` still reads it;
    /// ROADMAP item 1a deletes it.
    pub portfolio_solves: u64,
    /// Conflicts resolved by the session solver over its lifetime.
    pub conflicts: u64,
    /// Learned clauses currently credited to the session solver — the
    /// state a serving layer preserves when it caches compiled scenarios
    /// and routes repeat traffic back to a warm session.
    pub learnt_clauses: u64,
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

netarch_rt::impl_json_struct!(CompileStats {
    rules,
    decision_atoms,
    clauses,
    solver_vars,
    session_solves,
    retired_activations,
    portfolio_solves,
    conflicts,
    learnt_clauses,
    subsumed,
    eliminated_vars,
    vivified,
});

/// A scenario compiled to SAT, ready for queries.
pub struct Compiled {
    /// The encoder holding the solver.
    pub encoder: Encoder,
    /// Rule groups (all must be assumed for the full scenario).
    pub groups: GroupedAssertions,
    /// Provenance per group, indexed by [`GroupId`].
    pub rules: Vec<RuleMeta>,
    /// Decision atom per candidate system.
    pub system_atoms: BTreeMap<SystemId, Atom>,
    /// Decision atom per candidate hardware model.
    pub hardware_atoms: BTreeMap<HardwareId, Atom>,
    /// Compiled objective stack.
    pub objective_levels: Vec<ObjectiveLevel>,
    /// The fixed-fleet `resource:` groups of server-scaled resources, which
    /// capacity planning suspends while it sizes the fleet instead.
    pub(crate) fixed_fleet_groups: Vec<GroupId>,
    /// The at-most-one group of each decision atom, indexed by atom: a
    /// system's role category, a hardware model's inventory slot. The
    /// `role:` and `hw:` rules make every group at-most-one in each model
    /// that assumes them, as optimize and capacity planning do, so the
    /// objective and demand totalizers take a group as one leaf.
    pub(crate) atom_groups: Vec<Option<u32>>,
    /// Size metrics.
    pub stats: CompileStats,
}

impl Compiled {
    /// All decision atoms (projection set for design enumeration).
    pub fn decision_atoms(&self, include_hardware: bool) -> Vec<Atom> {
        let mut out: Vec<Atom> = self.system_atoms.values().copied().collect();
        if include_hardware {
            out.extend(self.hardware_atoms.values().copied());
        }
        out
    }

    /// Selector literals of every rule group (assume all to activate the
    /// complete scenario).
    pub fn all_selectors(&self) -> Vec<Lit> {
        self.groups
            .ids()
            .into_iter()
            .map(|g| self.groups.selector(g))
            .collect()
    }

    /// Looks up rule provenance.
    pub fn rule(&self, id: GroupId) -> &RuleMeta {
        &self.rules[id.0]
    }

    /// Adds capacity planning's fleet to the session. The server count
    /// becomes an order-encoded integer over `[1, B]`, where `B` is the
    /// largest fleet any design can need. Each server-scaled resource gets
    /// one demand totalizer, whose leaves are the role categories' at-most-
    /// one groups, and each server model one `capacity:` group bounding the
    /// count from below by the demand of the selected systems. Every fleet
    /// clause is gated on one fresh activation literal, so the fleet stays
    /// dormant in queries that do not assume it: the `capacity:` groups join
    /// [`Compiled::all_selectors`], but without that literal they constrain
    /// nothing. [`crate::query::Engine::plan_capacity`] builds it once per
    /// session, on its first call.
    pub fn build_fleet(&mut self, scenario: &Scenario) -> Result<Fleet, CompileError> {
        let (demands, fixed_cores) = resource_demands(scenario)?;
        let models = &scenario.inventory.server_candidates;
        let mut sums = Vec::new();
        for (resource, sys_demands) in &demands {
            if governing_kind(resource) != HardwareKind::Server || models.is_empty() {
                continue;
            }
            let terms: Vec<PbTerm> = sys_demands
                .iter()
                .map(|(id, amount)| {
                    PbTerm::new(*amount, self.encoder.atom_lit(self.system_atoms[id]))
                })
                .collect();
            let total = weight_sum(&terms)
                .ok_or_else(|| CompileError::WeightOverflow(format!("{resource} demand")))?;
            let fixed = if *resource == Resource::Cores {
                fixed_cores
            } else {
                0
            };
            let tags = sys_demands
                .iter()
                .map(|(id, _)| self.atom_groups[self.system_atoms[id].index()]);
            sums.push((resource, group_terms(tags.zip(terms)), total, fixed));
        }
        let gate = self.encoder.new_selector();
        let mut groups: Vec<GroupId> = self
            .groups
            .ids()
            .into_iter()
            .filter(|g| !self.fixed_fleet_groups.contains(g))
            .collect();
        let bound = fleet_bound(scenario, &demands, fixed_cores);
        let Compiled {
            encoder,
            groups: rule_groups,
            rules,
            hardware_atoms,
            ..
        } = self;
        let servers = encoder.gated_scope(gate, |e| {
            let n = OrderInt::new(e, 1, bound);
            for (resource, leaves, total, fixed) in sums {
                let demand = gte_outputs(e, &leaves, total);
                for model_id in models {
                    let per_unit = scenario
                        .catalog
                        .hardware(model_id)
                        .map_or(0, |h| h.capacity(resource));
                    let model = e.atom_lit(hardware_atoms[model_id]);
                    let group_sel = e.new_selector();
                    // Demand `sum` (the workloads' own first) needs
                    // `n ≥ ⌈(fixed + sum) / per_unit⌉`. A larger sum's
                    // output implies a smaller one's, so the first need
                    // no fleet meets ends the rule.
                    let steps = std::iter::once((None, 0))
                        .chain(demand.outputs.iter().map(|&(sum, l)| (Some(l), sum)));
                    for (reached, sum) in steps {
                        let need = u128::from(fixed) + u128::from(sum);
                        let at_least = if need == 0 {
                            Bound::AlwaysTrue
                        } else if per_unit == 0 {
                            Bound::AlwaysFalse
                        } else {
                            u64::try_from(need.div_ceil(u128::from(per_unit)))
                                .map_or(Bound::AlwaysFalse, |k| n.ge_const(k))
                        };
                        let mut clause = vec![!group_sel, !model];
                        clause.extend(reached.map(|l: Lit| !l));
                        match at_least {
                            Bound::AlwaysTrue => {}
                            Bound::Lit(q) => {
                                clause.push(q);
                                e.add_clause(&clause);
                            }
                            Bound::AlwaysFalse => {
                                e.add_clause(&clause);
                                break;
                            }
                        }
                    }
                    let label = format!("capacity:{resource}:{model_id}");
                    groups.push(rule_groups.adopt_selector(group_sel, label.clone()));
                    rules.push(RuleMeta {
                        label,
                        description: format!(
                            "server count must cover {resource} demand on {model_id} \
                             ({per_unit}/unit)"
                        ),
                        citation: None,
                    });
                }
            }
            n
        });
        Ok(Fleet {
            gate,
            servers,
            groups,
        })
    }
}

/// Capacity planning's fleet in a compiled session (see
/// [`Compiled::build_fleet`]).
pub struct Fleet {
    /// The activation literal every fleet clause is gated on.
    pub gate: Lit,
    /// The server count, over `[1, B]`.
    pub servers: OrderInt,
    /// The groups a capacity query assumes: every compiled group but the
    /// fixed-fleet ones, then the fleet's `capacity:` groups.
    pub groups: Vec<GroupId>,
}

/// System demands per resource: `resource → [(system, amount)]`.
type Demands = BTreeMap<Resource, Vec<(SystemId, u64)>>;

struct Compiler<'a> {
    scenario: &'a Scenario,
    encoder: Encoder,
    groups: GroupedAssertions,
    rules: Vec<RuleMeta>,
    next_atom: u32,
    system_atoms: BTreeMap<SystemId, Atom>,
    hardware_atoms: BTreeMap<HardwareId, Atom>,
    fixed_fleet_groups: Vec<GroupId>,
    /// See [`Compiled::atom_groups`].
    atom_groups: Vec<Option<u32>>,
    next_group: u32,
    /// The role categories, in `role:` rule order.
    categories: Vec<Category>,
    /// The resolved order of each dimension that has edges.
    orders: BTreeMap<&'a Dimension, ResolvedOrder<'a>>,
}

/// [`compile`]; the backend is ignored. Kept only because the benchmark
/// harness under `archbench/` still calls it; ROADMAP item 1a deletes it.
pub fn compile_with_backend(
    scenario: &Scenario,
    _backend: netarch_logic::SolveBackend,
) -> Result<Compiled, CompileError> {
    compile(scenario)
}

/// Compiles a scenario. Validates the catalog, inventory references, and
/// preference order first.
pub fn compile(scenario: &Scenario) -> Result<Compiled, CompileError> {
    let catalog_errors = scenario.catalog.validate();
    if !catalog_errors.is_empty() {
        return Err(CompileError::InvalidCatalog(catalog_errors));
    }
    // Each dimension's order, resolved once in this context for the
    // cycle check, the performance bounds and the objectives.
    let mut orders = BTreeMap::new();
    for edge in scenario.catalog.order().edges() {
        orders
            .entry(&edge.dimension)
            .or_insert_with(|| scenario.catalog.order().resolve(&edge.dimension, scenario));
    }
    if let Some(witnesses) = orders.values().find_map(ResolvedOrder::cycle) {
        return Err(CompileError::PreferenceCycle { witnesses });
    }

    // Opt-in paranoia: under NETARCH_VERIFY_PROOFS every verdict the engine
    // produces is re-validated by the independent DRAT checker (and SAT
    // models re-evaluated), panicking on any discrepancy. Tests use this to
    // make a wrong diagnosis loud instead of silently wrong.
    let encoder = Encoder::with_config(netarch_logic::EncodeConfig {
        verify_proofs: netarch_logic::proofs_requested(),
    });
    let mut c = Compiler {
        scenario,
        encoder,
        groups: GroupedAssertions::new(),
        rules: Vec::new(),
        next_atom: 0,
        system_atoms: BTreeMap::new(),
        hardware_atoms: BTreeMap::new(),
        fixed_fleet_groups: Vec::new(),
        atom_groups: Vec::new(),
        next_group: 0,
        categories: Vec::new(),
        orders,
    };
    c.allocate_atoms()?;
    c.compile_roles()?;
    c.compile_requirements()?;
    c.compile_conflicts();
    c.compile_workload_needs();
    c.compile_performance_bounds();
    c.compile_hardware_choice();
    c.compile_resources()?;
    c.compile_pins()?;
    c.compile_budget();
    let objective_levels = c.compile_objectives();

    let stats = CompileStats {
        rules: c.rules.len(),
        decision_atoms: c.system_atoms.len() + c.hardware_atoms.len(),
        clauses: c.encoder.clause_count(),
        solver_vars: c.encoder.solver().num_vars(),
        ..CompileStats::default()
    };
    Ok(Compiled {
        encoder: c.encoder,
        groups: c.groups,
        rules: c.rules,
        system_atoms: c.system_atoms,
        hardware_atoms: c.hardware_atoms,
        objective_levels,
        fixed_fleet_groups: c.fixed_fleet_groups,
        atom_groups: c.atom_groups,
        stats,
    })
}

impl<'a> Compiler<'a> {
    fn fresh_atom(&mut self) -> Atom {
        let a = Atom(self.next_atom);
        self.next_atom += 1;
        self.atom_groups.push(None);
        a
    }

    /// Tags `atoms` as the next at-most-one group.
    fn tag_group(&mut self, atoms: &[Atom]) {
        let group = Some(self.next_group);
        self.next_group += 1;
        for atom in atoms {
            self.atom_groups[atom.index()] = group;
        }
    }

    /// The scenario's catalog, borrowed for the scenario's lifetime rather
    /// than the compiler's, so rules can be added while it is read.
    fn catalog(&self) -> &'a Catalog {
        &self.scenario.catalog
    }

    fn allocate_atoms(&mut self) -> Result<(), CompileError> {
        for spec in self.catalog().systems() {
            let a = self.fresh_atom();
            self.system_atoms.insert(spec.id.clone(), a);
        }
        let inv = &self.scenario.inventory;
        for (candidates, kind) in [
            (&inv.server_candidates, HardwareKind::Server),
            (&inv.nic_candidates, HardwareKind::Nic),
            (&inv.switch_candidates, HardwareKind::Switch),
        ] {
            for id in candidates {
                let spec = self
                    .catalog()
                    .hardware(id)
                    .ok_or_else(|| CompileError::UnknownHardware(id.clone()))?;
                if spec.kind != kind {
                    return Err(CompileError::WrongHardwareKind(id.clone()));
                }
                if self.hardware_atoms.contains_key(id) {
                    return Err(CompileError::RepeatedCandidate(id.clone()));
                }
                let a = self.fresh_atom();
                self.hardware_atoms.insert(id.clone(), a);
            }
        }
        Ok(())
    }

    fn system_formula(&self, id: &SystemId) -> Formula {
        match self.system_atoms.get(id) {
            Some(&a) => Formula::Atom(a),
            None => Formula::False,
        }
    }

    fn hardware_formula(&self, id: &HardwareId) -> Formula {
        match self.hardware_atoms.get(id) {
            Some(&a) => Formula::Atom(a),
            None => Formula::False,
        }
    }

    fn add_rule(
        &mut self,
        label: impl Into<String>,
        description: impl Into<String>,
        citation: Option<String>,
        formula: &Formula,
    ) -> GroupId {
        let label = label.into();
        let id = self
            .groups
            .add_group(&mut self.encoder, label.clone(), formula);
        self.rules.push(RuleMeta {
            label,
            description: description.into(),
            citation,
        });
        debug_assert_eq!(self.rules.len(), self.groups.len());
        id
    }

    /// Selection literals of hardware candidates of `kind` that carry
    /// `feature`.
    fn hardware_with_feature(&self, kind: HardwareKind, feature: &Feature) -> Vec<Formula> {
        let candidates = self.candidates_of_kind(kind);
        candidates
            .iter()
            .filter(|id| {
                self.catalog()
                    .hardware(id)
                    .is_some_and(|h| h.has_feature(feature))
            })
            .map(|id| self.hardware_formula(id))
            .collect()
    }

    fn candidates_of_kind(&self, kind: HardwareKind) -> &'a [HardwareId] {
        let inv = &self.scenario.inventory;
        match kind {
            HardwareKind::Server => &inv.server_candidates,
            HardwareKind::Nic => &inv.nic_candidates,
            HardwareKind::Switch => &inv.switch_candidates,
        }
    }

    /// Compiles a (statically pre-evaluated) condition into a formula over
    /// decision atoms.
    fn condition_formula(&self, condition: &Condition) -> Formula {
        match condition {
            Condition::True => Formula::True,
            Condition::False => Formula::False,
            Condition::SystemSelected(id) => self.system_formula(id),
            Condition::CategoryFilled(cat) => Formula::or(
                self.catalog()
                    .systems_in(cat)
                    .iter()
                    .map(|s| self.system_formula(&s.id)),
            ),
            Condition::NicFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Nic, f))
            }
            Condition::SwitchFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Switch, f))
            }
            Condition::ServerFeature(f) => {
                Formula::or(self.hardware_with_feature(HardwareKind::Server, f))
            }
            Condition::ProvidedFeature(f) => {
                let mut parts: Vec<Formula> = self
                    .catalog()
                    .systems()
                    .filter(|s| s.provides.contains(f))
                    .map(|s| self.system_formula(&s.id))
                    .collect();
                for kind in [
                    HardwareKind::Server,
                    HardwareKind::Nic,
                    HardwareKind::Switch,
                ] {
                    parts.extend(self.hardware_with_feature(kind, f));
                }
                Formula::or(parts)
            }
            // Static conditions should have been folded; fold defensively.
            Condition::WorkloadProperty(_) | Condition::Param(..) => {
                match condition.partial_eval(self.scenario) {
                    Condition::True => Formula::True,
                    _ => Formula::False,
                }
            }
            Condition::Not(inner) => Formula::not(self.condition_formula(inner)),
            Condition::All(parts) => Formula::and(parts.iter().map(|p| self.condition_formula(p))),
            Condition::Any(parts) => Formula::or(parts.iter().map(|p| self.condition_formula(p))),
        }
    }

    /// Role coverage cardinality per category. Every rule allows at most
    /// one of the category's systems, so each category is tagged as an
    /// at-most-one group.
    fn compile_roles(&mut self) -> Result<(), CompileError> {
        let mut categories: BTreeSet<Category> = self
            .catalog()
            .systems()
            .map(|s| s.category.clone())
            .collect();
        categories.extend(self.scenario.roles.keys().cloned());
        self.categories = categories.iter().cloned().collect();
        for cat in categories {
            let atoms: Vec<Atom> = self
                .catalog()
                .systems_in(&cat)
                .iter()
                .map(|s| self.system_atoms[&s.id])
                .collect();
            self.tag_group(&atoms);
            let members: Vec<Formula> = atoms.into_iter().map(Formula::Atom).collect();
            let rule = self.scenario.role_rule(&cat);
            match rule {
                RoleRule::Required => {
                    if members.is_empty() {
                        return Err(CompileError::EmptyRole(cat));
                    }
                    let f = Formula::exactly(1, members);
                    self.add_rule(
                        format!("role:{cat}"),
                        format!("exactly one {cat} system must be deployed"),
                        None,
                        &f,
                    );
                }
                RoleRule::Optional => {
                    if members.len() >= 2 {
                        let f = Formula::at_most(1, members);
                        self.add_rule(
                            format!("role:{cat}"),
                            format!("at most one {cat} system may be deployed"),
                            None,
                            &f,
                        );
                    }
                }
                RoleRule::Forbidden => {
                    if !members.is_empty() {
                        let f = Formula::and(members.into_iter().map(Formula::not));
                        self.add_rule(
                            format!("role:{cat}"),
                            format!("no {cat} system may be deployed"),
                            None,
                            &f,
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// `selected(s) → requirement-condition` per named requirement.
    fn compile_requirements(&mut self) -> Result<(), CompileError> {
        for spec in self.catalog().systems() {
            let sel = self.system_formula(&spec.id);
            for req in &spec.requires {
                let folded = req.condition.partial_eval(self.scenario);
                let body = self.condition_formula(&folded);
                let f = Formula::implies(sel.clone(), body);
                self.add_rule(
                    format!("req:{}:{}", spec.id, req.label),
                    format!("{} requires: {}", spec.name, req.condition),
                    req.citation.clone(),
                    &f,
                );
            }
        }
        Ok(())
    }

    /// Pairwise conflict clauses.
    fn compile_conflicts(&mut self) {
        let mut seen: BTreeSet<(&SystemId, &SystemId)> = BTreeSet::new();
        for spec in self.catalog().systems() {
            for b in &spec.conflicts {
                let a = &spec.id;
                if !seen.insert(if a <= b { (a, b) } else { (b, a) }) {
                    continue;
                }
                let f = Formula::not(Formula::and([
                    self.system_formula(a),
                    self.system_formula(b),
                ]));
                self.add_rule(
                    format!("conflict:{a}:{b}"),
                    format!("{} cannot coexist with {b}", spec.name),
                    None,
                    &f,
                );
            }
        }
    }

    /// Every workload need must be solved by a selected system.
    fn compile_workload_needs(&mut self) {
        let workloads = &self.scenario.workloads;
        for (wid, cap) in workloads
            .iter()
            .flat_map(|w| w.needs.iter().map(|c| (&w.id, c)))
        {
            let providers: Vec<Formula> = self
                .catalog()
                .systems_solving(cap)
                .iter()
                .map(|s| self.system_formula(&s.id))
                .collect();
            let f = Formula::or(providers);
            self.add_rule(
                format!("workload:{wid}:needs:{cap}"),
                format!("workload {wid} needs capability {cap}"),
                None,
                &f,
            );
        }
    }

    /// Listing 3 performance bounds: the selected system of the reference's
    /// category must be at least as good as the reference along the bound's
    /// dimension (statically resolvable edges only).
    fn compile_performance_bounds(&mut self) {
        let workloads = &self.scenario.workloads;
        for (wid, bound) in workloads
            .iter()
            .flat_map(|w| w.bounds.iter().map(|b| (&w.id, b)))
        {
            let Some(reference) = self.catalog().system(&bound.better_than) else {
                // Unknown reference: the bound is unsatisfiable knowledge —
                // surface as an impossible rule so diagnosis names it.
                self.add_rule(
                    format!("bound:{wid}:{}", bound.dimension),
                    format!(
                        "workload {wid} bound references unknown system {}",
                        bound.better_than
                    ),
                    None,
                    &Formula::False,
                );
                continue;
            };
            let order = self.orders.get(&bound.dimension);
            let acceptable = self
                .catalog()
                .systems_in(&reference.category)
                .into_iter()
                .filter(|s| match order {
                    Some(order) => order.at_least_as_good(&s.id, &bound.better_than),
                    None => s.id == bound.better_than,
                });
            let f = Formula::or(acceptable.map(|s| self.system_formula(&s.id)));
            self.add_rule(
                format!("bound:{wid}:{}", bound.dimension),
                format!(
                    "workload {wid} requires {} at least as good as {}",
                    bound.dimension, bound.better_than
                ),
                None,
                &f,
            );
        }
    }

    /// Exactly one hardware model per populated inventory slot, which is
    /// therefore tagged as an at-most-one group.
    fn compile_hardware_choice(&mut self) {
        for kind in [
            HardwareKind::Server,
            HardwareKind::Nic,
            HardwareKind::Switch,
        ] {
            let atoms: Vec<Atom> = self
                .candidates_of_kind(kind)
                .iter()
                .map(|id| self.hardware_atoms[id])
                .collect();
            if atoms.is_empty() {
                continue;
            }
            self.tag_group(&atoms);
            let members: Vec<Formula> = atoms.into_iter().map(Formula::Atom).collect();
            let f = Formula::exactly(1, members);
            self.add_rule(
                format!("hw:{kind}"),
                format!("exactly one {kind} model must be chosen"),
                None,
                &f,
            );
        }
    }

    /// Resource contention: for each resource with demands, and each
    /// capacity-defining hardware candidate, a guarded PB constraint.
    fn compile_resources(&mut self) -> Result<(), CompileError> {
        let (demands, fixed_cores) = resource_demands(self.scenario)?;
        for (resource, sys_demands) in demands {
            let kind = governing_kind(&resource);
            let candidates = self.candidates_of_kind(kind);
            if candidates.is_empty() {
                // No inventory for this slot: the resource is unconstrained
                // in this scenario (document: pure-software questions skip
                // hardware modeling).
                continue;
            }
            let fixed = if resource == Resource::Cores {
                fixed_cores
            } else {
                0
            };
            let first_group = self.groups.len();
            let terms: Vec<PbTerm> = sys_demands
                .iter()
                .map(|(id, amount)| {
                    let atom = self.system_atoms[id];
                    let lit = self.encoder.atom_lit(atom);
                    PbTerm::new(*amount, lit)
                })
                .collect();
            for model_id in candidates {
                let spec = self
                    .catalog()
                    .hardware(model_id)
                    .expect("validated in allocate_atoms");
                let scale = capacity_scale(&resource, &self.scenario.inventory);
                let Some(capacity) = spec.capacity(&resource).checked_mul(scale) else {
                    // A capacity past u64::MAX holds any demand that fits.
                    if weight_sum(&terms)
                        .and_then(|d| d.checked_add(fixed))
                        .is_some()
                    {
                        continue;
                    }
                    return Err(CompileError::WeightOverflow(format!(
                        "{resource} capacity and demand on {model_id}"
                    )));
                };
                let selector = {
                    let atom = self.hardware_atoms[model_id];
                    self.encoder.atom_lit(atom)
                };
                let label = format!("resource:{resource}:{model_id}");
                let description =
                    format!("with {model_id}, {resource} demand must fit capacity {capacity}");
                if capacity < fixed {
                    // The workloads alone exceed capacity: model unusable.
                    let f = Formula::not(Formula::Atom(self.hardware_atoms[model_id]));
                    self.add_rule(label, description, None, &f);
                    continue;
                }
                let budget = capacity - fixed;
                if weight_sum(&terms).is_some_and(|total| total <= budget) {
                    continue; // never binding
                }
                // Guarded PB: selector ∧ group-selector → Σ ≤ budget. The
                // rule's clauses are emitted by hand, so register its
                // selector directly.
                let group_sel = self.encoder.new_selector();
                assert_pb_le_under(&mut self.encoder, &[group_sel, selector], &terms, budget);
                self.register_manual_group(group_sel, label, description, None);
            }
            if kind == HardwareKind::Server {
                self.fixed_fleet_groups
                    .extend((first_group..self.groups.len()).map(GroupId));
            }
        }
        Ok(())
    }

    /// Registers a group whose clauses were already emitted under
    /// `selector`.
    fn register_manual_group(
        &mut self,
        selector: Lit,
        label: String,
        description: String,
        citation: Option<String>,
    ) {
        self.groups.adopt_selector(selector, label.clone());
        self.rules.push(RuleMeta {
            label,
            description,
            citation,
        });
        debug_assert_eq!(self.rules.len(), self.groups.len());
    }

    /// WhatIf pins.
    fn compile_pins(&mut self) -> Result<(), CompileError> {
        let pins = &self.scenario.pins;
        for pin in pins {
            match pin {
                Pin::Require(id) => {
                    if !self.system_atoms.contains_key(id) {
                        return Err(CompileError::UnknownSystem(id.clone()));
                    }
                    let f = self.system_formula(id);
                    self.add_rule(
                        format!("pin:require:{id}"),
                        format!("architect pinned {id} as already deployed"),
                        None,
                        &f,
                    );
                }
                Pin::Forbid(id) => {
                    if !self.system_atoms.contains_key(id) {
                        return Err(CompileError::UnknownSystem(id.clone()));
                    }
                    let f = Formula::not(self.system_formula(id));
                    self.add_rule(
                        format!("pin:forbid:{id}"),
                        format!("architect forbade {id}"),
                        None,
                        &f,
                    );
                }
            }
        }
        Ok(())
    }

    /// Total cost ≤ budget.
    fn compile_budget(&mut self) {
        let Some(budget) = self.scenario.budget_usd else {
            return;
        };
        let terms = self.cost_terms();
        if weight_sum(&terms).is_some_and(|total| total <= budget) {
            return;
        }
        let group_sel = self.encoder.new_selector();
        assert_pb_le_under(&mut self.encoder, &[group_sel], &terms, budget);
        self.register_manual_group(
            group_sel,
            "budget".to_string(),
            format!("total cost must not exceed ${budget}"),
            None,
        );
    }

    /// `(decision atom, cost)` pairs over all priced decisions.
    fn cost_items(&self) -> Vec<(Atom, u64)> {
        let mut items = Vec::new();
        for spec in self.catalog().systems() {
            if spec.cost_usd > 0 {
                items.push((self.system_atoms[&spec.id], spec.cost_usd));
            }
        }
        let inv = &self.scenario.inventory;
        for (candidates, count) in [
            (&inv.server_candidates, inv.num_servers),
            (&inv.nic_candidates, inv.num_servers), // one NIC per server
            (&inv.switch_candidates, inv.num_switches),
        ] {
            for id in candidates {
                let unit = self.catalog().hardware(id).map_or(0, |h| h.cost_usd);
                let cost = unit.saturating_mul(count.max(1));
                if cost > 0 {
                    items.push((self.hardware_atoms[id], cost));
                }
            }
        }
        items
    }

    /// Weighted cost terms over all decisions.
    fn cost_terms(&mut self) -> Vec<PbTerm> {
        self.cost_items()
            .into_iter()
            .map(|(atom, cost)| {
                let lit = self.encoder.atom_lit(atom);
                PbTerm::new(cost, lit)
            })
            .collect()
    }

    /// The objective stack, compiled to soft-constraint levels.
    fn compile_objectives(&self) -> Vec<ObjectiveLevel> {
        let objectives = &self.scenario.objectives;
        objectives
            .iter()
            .map(|objective| {
                let softs = match objective {
                    Objective::MaximizeDimension(dim) => self.dimension_softs(dim),
                    Objective::MinimizeCost => self.cost_softs(),
                    Objective::PreferCapability(cap) => {
                        let providers: Vec<Formula> = self
                            .catalog()
                            .systems_solving(cap)
                            .iter()
                            .map(|s| self.system_formula(&s.id))
                            .collect();
                        vec![Soft::new(1, Formula::or(providers))]
                    }
                };
                ObjectiveLevel {
                    objective: objective.clone(),
                    softs,
                }
            })
            .collect()
    }

    /// Scalarizes the preference order on one dimension: selecting a
    /// system is penalized by how many same-category systems dominate it
    /// in context; residual (dynamic) edges add conditional penalties.
    fn dimension_softs(&self, dim: &Dimension) -> Vec<Soft> {
        // Without edges every system ranks alike and nothing is residual.
        let Some(order) = self.orders.get(dim) else {
            return Vec::new();
        };
        let mut softs = Vec::new();
        for cat in &self.categories {
            let members = self.catalog().systems_in(cat);
            if members.len() < 2 {
                continue;
            }
            let ranks = order.ranks(members.iter().map(|s| &s.id));
            let max_rank = ranks.values().copied().max().unwrap_or(0);
            for s in &members {
                let penalty = (max_rank - ranks[&s.id]) as u64;
                if penalty > 0 {
                    softs.push(self.selection_soft(penalty, self.system_atoms[&s.id]));
                }
            }
        }
        // Dynamic edges: penalize the worse side when the residual
        // condition holds in the model.
        for (edge, residual) in order.residual() {
            if edge.kind == EdgeKind::Strict {
                let cond = self.condition_formula(residual);
                softs.push(Soft::new(
                    1,
                    Formula::not(Formula::and([cond, self.system_formula(&edge.worse)])),
                ));
            }
        }
        softs
    }

    /// Cost minimization as soft constraints, normalized to keep the
    /// weighted totalizer small.
    fn cost_softs(&self) -> Vec<Soft> {
        let items = self.cost_items();
        if items.is_empty() {
            return Vec::new();
        }
        let gcd = items.iter().fold(0u64, |acc, &(_, w)| gcd(acc, w));
        let scale = gcd.max(1);
        // Keep total distinct-sum space bounded: further scale down when
        // the normalized total is enormous.
        let total = items
            .iter()
            .fold(0u64, |acc, &(_, w)| acc.saturating_add(w / scale));
        let extra = (total / 2_000).max(1);
        items
            .into_iter()
            .map(|(atom, w)| self.selection_soft((w / scale / extra).max(1), atom))
            .collect()
    }

    /// A soft violated exactly when `atom` is selected, in the atom's
    /// at-most-one group.
    fn selection_soft(&self, weight: u64, atom: Atom) -> Soft {
        Soft::new(weight, Formula::not(Formula::Atom(atom)))
            .with_group(self.atom_groups[atom.index()])
    }
}

/// Per-resource system demands and the workloads' peak cores. Cores are
/// listed whenever the workloads need any, even when no *system* demands
/// them. A system that lists one resource more than once demands the sum,
/// as a single entry: the demand totalizer takes a role category as one
/// at-most-one leaf, which would count a system's repeated entries once.
fn resource_demands(scenario: &Scenario) -> Result<(Demands, u64), CompileError> {
    let mut demands = Demands::new();
    for spec in scenario.catalog.systems() {
        for d in &spec.resources {
            let amount = d
                .amount
                .eval(&|name| scenario.param_value(name))
                .map_err(|param| CompileError::MissingParam {
                    system: spec.id.clone(),
                    param,
                })?;
            if amount == 0 {
                continue;
            }
            let entries = demands.entry(d.resource.clone()).or_default();
            match entries.last_mut() {
                Some((id, total)) if *id == spec.id => {
                    *total = total.checked_add(amount).ok_or_else(|| {
                        CompileError::WeightOverflow(format!("{} demand of {id}", d.resource))
                    })?;
                }
                _ => entries.push((spec.id.clone(), amount)),
            }
        }
    }
    let fixed_cores = scenario
        .workloads
        .iter()
        .try_fold(0u64, |acc, w| acc.checked_add(w.peak_cores))
        .ok_or_else(|| CompileError::WeightOverflow("workload peak cores".into()))?;
    if fixed_cores > 0 {
        demands.entry(Resource::Cores).or_default();
    }
    Ok((demands, fixed_cores))
}

/// The largest fleet any design can need: for each server-scaled resource
/// and each server model with per-unit capacity, the fleet that carries
/// the workloads plus every system's demand; 1 when no model has capacity.
fn fleet_bound(scenario: &Scenario, demands: &Demands, fixed_cores: u64) -> u64 {
    let mut bound = 1;
    for (resource, sys_demands) in demands {
        if governing_kind(resource) != HardwareKind::Server {
            continue;
        }
        let fixed = if *resource == Resource::Cores {
            fixed_cores
        } else {
            0
        };
        let demand = u128::from(fixed)
            + sys_demands
                .iter()
                .map(|&(_, amount)| u128::from(amount))
                .sum::<u128>();
        for id in &scenario.inventory.server_candidates {
            let per_unit = scenario
                .catalog
                .hardware(id)
                .map_or(0, |h| h.capacity(resource));
            if per_unit > 0 {
                let need = demand.div_ceil(u128::from(per_unit));
                bound = bound.max(u64::try_from(need).unwrap_or(u64::MAX));
            }
        }
    }
    bound
}

/// Which hardware slot defines the capacity of a resource.
pub(crate) fn governing_kind(resource: &Resource) -> HardwareKind {
    match resource {
        Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => HardwareKind::Server,
        Resource::SwitchMemoryMb | Resource::P4Stages | Resource::QosClasses => {
            HardwareKind::Switch
        }
        Resource::SmartNicCapacity => HardwareKind::Nic,
    }
}

/// How capacity scales with inventory counts: per-deployment resources
/// multiply by unit count; per-device resources (pipeline stages, QoS
/// classes, SmartNIC share) do not.
fn capacity_scale(resource: &Resource, inventory: &Inventory) -> u64 {
    match resource {
        Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => {
            inventory.num_servers.max(1)
        }
        Resource::SwitchMemoryMb => inventory.num_switches.max(1),
        Resource::P4Stages | Resource::QosClasses | Resource::SmartNicCapacity => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::{AmountExpr, CmpOp};
    use crate::scenario::Pin;
    use crate::workload::Workload;

    fn one_system_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("X", Category::Monitoring)
                .solves("m")
                .build(),
        )
        .unwrap();
        c
    }

    #[test]
    fn unknown_hardware_in_inventory_rejected() {
        let scenario =
            Scenario::new(one_system_catalog()).with_inventory(crate::scenario::Inventory {
                nic_candidates: vec![HardwareId::new("GHOST_NIC")],
                ..Default::default()
            });
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::UnknownHardware(id)) if id.as_str() == "GHOST_NIC"
        ));
    }

    #[test]
    fn repeated_inventory_candidate_rejected() {
        // A repeated id would get two atoms, and `hw:nic` would count the
        // surviving one twice, making every design infeasible.
        let mut catalog = one_system_catalog();
        catalog
            .add_hardware(HardwareSpec::builder("N1", HardwareKind::Nic).build())
            .unwrap();
        let scenario = Scenario::new(catalog).with_inventory(crate::scenario::Inventory {
            nic_candidates: vec![HardwareId::new("N1"), HardwareId::new("N1")],
            ..Default::default()
        });
        let err = compile(&scenario)
            .err()
            .expect("a repeated candidate is rejected");
        assert_eq!(err, CompileError::RepeatedCandidate(HardwareId::new("N1")));
        assert!(err.to_string().contains("N1"), "{err}");
    }

    #[test]
    fn repeated_demands_past_u64_are_an_overflow() {
        // A system's repeated entries for one resource add up; past
        // u64::MAX no demand is exact.
        let half = u64::MAX / 2 + 1;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Monitoring)
                    .consumes(Resource::Cores, AmountExpr::constant(half))
                    .consumes(Resource::Cores, AmountExpr::constant(half))
                    .build(),
            )
            .unwrap();
        let err = compile(&Scenario::new(catalog))
            .err()
            .expect("the sum overflows");
        assert_eq!(
            err,
            CompileError::WeightOverflow("cores demand of X".into())
        );
    }

    #[test]
    fn wrong_kind_hardware_rejected() {
        let mut catalog = one_system_catalog();
        catalog
            .add_hardware(HardwareSpec::builder("SW", HardwareKind::Switch).build())
            .unwrap();
        let scenario = Scenario::new(catalog).with_inventory(crate::scenario::Inventory {
            nic_candidates: vec![HardwareId::new("SW")], // a switch in the NIC slot
            ..Default::default()
        });
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::WrongHardwareKind(id)) if id.as_str() == "SW"
        ));
    }

    #[test]
    fn empty_required_role_rejected() {
        let scenario = Scenario::new(one_system_catalog())
            .with_role(Category::Firewall, crate::scenario::RoleRule::Required);
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::EmptyRole(Category::Firewall))
        ));
    }

    #[test]
    fn missing_param_in_resource_amount_rejected() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Monitoring)
                    .consumes(Resource::Cores, AmountExpr::scaled("undefined_param", 1.0))
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog);
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::MissingParam { system, param })
                if system.as_str() == "X" && param.as_str() == "undefined_param"
        ));
    }

    #[test]
    fn preference_cycle_rejected() {
        let mut catalog = Catalog::new();
        for id in ["A", "B"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Transport).build())
                .unwrap();
        }
        catalog
            .add_ordering(crate::ordering::OrderingEdge::strict(
                "A",
                "B",
                Dimension::Latency,
            ))
            .unwrap();
        catalog
            .add_ordering(crate::ordering::OrderingEdge::strict(
                "B",
                "A",
                Dimension::Latency,
            ))
            .unwrap();
        let scenario = Scenario::new(catalog);
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::PreferenceCycle { .. })
        ));
    }

    /// `A ≻ A` is a cycle of one: the system would have to beat itself.
    #[test]
    fn a_strict_self_edge_is_a_preference_cycle() {
        let mut catalog = Catalog::new();
        for id in ["A", "B"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Transport).build())
                .unwrap();
        }
        let latency = Dimension::Latency;
        let edge = crate::ordering::OrderingEdge::strict;
        catalog
            .add_ordering(edge("A", "B", latency.clone()))
            .unwrap();
        catalog.add_ordering(edge("A", "A", latency)).unwrap();
        match compile(&Scenario::new(catalog)) {
            Err(CompileError::PreferenceCycle { witnesses }) => {
                assert_eq!(witnesses, vec![SystemId::new("A")]);
            }
            Err(other) => panic!("expected PreferenceCycle, got {other:?}"),
            Ok(_) => panic!("expected PreferenceCycle, got a successful compile"),
        }
    }

    #[test]
    fn conditional_preference_cycle_allowed_when_conditions_disjoint() {
        // A ≻ B at slow links, B ≻ A at fast links: fine in any one context.
        let mut catalog = Catalog::new();
        for id in ["A", "B"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Transport).build())
                .unwrap();
        }
        catalog
            .add_ordering(
                crate::ordering::OrderingEdge::strict("A", "B", Dimension::Latency)
                    .when(Condition::param("link_speed_gbps", CmpOp::Lt, 40.0)),
            )
            .unwrap();
        catalog
            .add_ordering(
                crate::ordering::OrderingEdge::strict("B", "A", Dimension::Latency)
                    .when(Condition::param("link_speed_gbps", CmpOp::Ge, 40.0)),
            )
            .unwrap();
        let scenario = Scenario::new(catalog).with_param("link_speed_gbps", 10.0);
        assert!(compile(&scenario).is_ok());
    }

    #[test]
    fn invalid_catalog_rejected_with_details() {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("X", Category::Transport)
                    .conflicts_with("GHOST")
                    .build(),
            )
            .unwrap();
        let scenario = Scenario::new(catalog);
        match compile(&scenario) {
            Err(CompileError::InvalidCatalog(errors)) => assert_eq!(errors.len(), 1),
            Err(other) => panic!("expected InvalidCatalog, got {other:?}"),
            Ok(_) => panic!("expected InvalidCatalog, got a successful compile"),
        }
    }

    #[test]
    fn unknown_pin_rejected() {
        let scenario =
            Scenario::new(one_system_catalog()).with_pin(Pin::Require(SystemId::new("GHOST")));
        assert!(matches!(
            compile(&scenario),
            Err(CompileError::UnknownSystem(id)) if id.as_str() == "GHOST"
        ));
    }

    #[test]
    fn compiled_formula_semantics_match_validator() {
        // Cross-check: a condition compiled to a Formula and evaluated on
        // a model must agree with baseline::eval_condition on the design
        // extracted from that model. Exercise each condition constructor.
        use crate::baseline::eval_condition;
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("PROVIDER", Category::LoadBalancer)
                    .solves("lb")
                    .provides("EDGEY")
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("DEPENDENT", Category::Firewall)
                    .solves("fw")
                    .requires(
                        "dep-rule",
                        Condition::all([
                            Condition::ProvidedFeature(crate::types::Feature::new("EDGEY")),
                            Condition::nics_have("F1"),
                            Condition::not(Condition::system("FORBIDDEN")),
                        ]),
                    )
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(SystemSpec::builder("FORBIDDEN", Category::Transport).build())
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("N1", HardwareKind::Nic)
                    .feature("F1")
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(HardwareSpec::builder("N2", HardwareKind::Nic).build())
            .unwrap();
        let scenario = Scenario::new(catalog)
            .with_workload(Workload::builder("w").needs("fw").build())
            .with_inventory(crate::scenario::Inventory {
                nic_candidates: vec![HardwareId::new("N1"), HardwareId::new("N2")],
                num_servers: 2,
                ..Default::default()
            });
        let mut engine = crate::query::Engine::new(scenario.clone()).unwrap();
        let outcome = engine.check().unwrap();
        let design = outcome.design().expect("feasible");
        // SAT said feasible; the independent evaluator must agree the
        // dependent's rule holds on the extracted design.
        let spec = scenario
            .catalog
            .system(&SystemId::new("DEPENDENT"))
            .unwrap();
        assert!(eval_condition(
            &spec.requires[0].condition,
            &scenario,
            design
        ));
        assert!(design.includes(&SystemId::new("PROVIDER")));
        assert!(!design.includes(&SystemId::new("FORBIDDEN")));
    }
}
