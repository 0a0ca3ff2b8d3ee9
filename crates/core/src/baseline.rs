//! Baseline reasoners and the independent design validator.
//!
//! The paper motivates SAT-based reasoning by contrast with two
//! alternatives: manual whiteboard planning (§2, error-prone on subtle
//! cross-system interactions) and LLMs-as-reasoners (§5.2, "failed to
//! return correct results when faced with nuances"). This module provides
//! executable stand-ins for both, plus an exhaustive enumerator as ground
//! truth for small scenarios:
//!
//! * [`GreedyArchitect`] — fills roles one at a time by local preference,
//!   never revisits earlier choices, checks only the requirements that are
//!   *directly visible* at each step. Mimics sequential human planning.
//! * [`ExhaustiveSearch`] — tries every combination (bounded); ground
//!   truth for correctness tests.
//! * [`SimulatedLlm`] — answers aggregate numeric queries exactly, but
//!   proposes designs from unconditional "popularity" and *never reports
//!   incomparability* (overconfidence is the failure mode §5.2 observed).
//!   This is a deterministic, seeded stand-in for GPT-4o — see DESIGN.md
//!   substitution #1.
//!
//! [`validate_design`] re-checks a design against scenario semantics
//! *without* the SAT solver, so engine and baselines are judged by the
//! same independent referee.

use crate::condition::Condition;
use crate::ordering::Comparison;
use crate::scenario::{Pin, RoleRule, Scenario};
use crate::solution::Design;
use crate::types::{Category, Dimension, HardwareId, HardwareKind, Resource, SystemId};
use std::collections::{BTreeMap, BTreeSet};

/// A rule violation found by [`validate_design`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable label mirroring the compiled rule labels.
    pub label: String,
    /// Human-readable description.
    pub description: String,
}

/// Evaluates a condition against a concrete design (semantic reference
/// implementation, independent of the SAT encoding).
pub fn eval_condition(condition: &Condition, scenario: &Scenario, design: &Design) -> bool {
    match condition {
        Condition::True => true,
        Condition::False => false,
        Condition::SystemSelected(id) => design.includes(id),
        Condition::CategoryFilled(cat) => design.selections.get(cat).is_some_and(|v| !v.is_empty()),
        Condition::NicFeature(f) => hardware_has(scenario, design, HardwareKind::Nic, f),
        Condition::SwitchFeature(f) => hardware_has(scenario, design, HardwareKind::Switch, f),
        Condition::ServerFeature(f) => hardware_has(scenario, design, HardwareKind::Server, f),
        Condition::ProvidedFeature(f) => {
            let by_system = design.systems().iter().any(|id| {
                scenario
                    .catalog
                    .system(id)
                    .is_some_and(|s| s.provides.contains(f))
            });
            by_system
                || [
                    HardwareKind::Server,
                    HardwareKind::Nic,
                    HardwareKind::Switch,
                ]
                .iter()
                .any(|&k| hardware_has(scenario, design, k, f))
        }
        Condition::WorkloadProperty(p) => scenario.workloads.iter().any(|w| w.has_property(p)),
        Condition::Param(name, op, v) => scenario
            .param_value(name)
            .is_some_and(|actual| op.apply(actual, *v)),
        Condition::Not(inner) => !eval_condition(inner, scenario, design),
        Condition::All(parts) => parts.iter().all(|p| eval_condition(p, scenario, design)),
        Condition::Any(parts) => parts.iter().any(|p| eval_condition(p, scenario, design)),
    }
}

fn hardware_has(
    scenario: &Scenario,
    design: &Design,
    kind: HardwareKind,
    feature: &crate::types::Feature,
) -> bool {
    design
        .hardware_for(kind)
        .and_then(|id| scenario.catalog.hardware(id))
        .is_some_and(|h| h.has_feature(feature))
}

/// Checks a design against every scenario rule; returns all violations.
pub fn validate_design(scenario: &Scenario, design: &Design) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut push = |label: String, description: String| {
        violations.push(Violation { label, description });
    };

    // Role rules.
    let mut categories: BTreeSet<Category> = scenario
        .catalog
        .systems()
        .map(|s| s.category.clone())
        .collect();
    categories.extend(scenario.roles.keys().cloned());
    for cat in &categories {
        let count = design.selections.get(cat).map_or(0, Vec::len);
        match scenario.role_rule(cat) {
            RoleRule::Required if count != 1 => push(
                format!("role:{cat}"),
                format!("category {cat} must have exactly one selection, has {count}"),
            ),
            RoleRule::Optional if count > 1 => push(
                format!("role:{cat}"),
                format!("category {cat} allows at most one selection, has {count}"),
            ),
            RoleRule::Forbidden if count > 0 => push(
                format!("role:{cat}"),
                format!("category {cat} is forbidden but has {count} selections"),
            ),
            _ => {}
        }
    }

    // System requirements and conflicts.
    for id in design.systems() {
        let Some(spec) = scenario.catalog.system(id) else {
            push(
                format!("unknown:{id}"),
                format!("design references unknown system {id}"),
            );
            continue;
        };
        for req in &spec.requires {
            if !eval_condition(&req.condition, scenario, design) {
                push(
                    format!("req:{id}:{}", req.label),
                    format!("{} requires {}", spec.name, req.condition),
                );
            }
        }
        for other in &spec.conflicts {
            if design.includes(other) {
                push(
                    format!("conflict:{id}:{other}"),
                    format!("{id} conflicts with {other}"),
                );
            }
        }
    }

    // Workload needs and bounds.
    for w in &scenario.workloads {
        for cap in &w.needs {
            let provided = design
                .systems()
                .iter()
                .any(|id| scenario.catalog.system(id).is_some_and(|s| s.solves(cap)));
            if !provided {
                push(
                    format!("workload:{}:needs:{cap}", w.id),
                    format!("workload {} needs {cap}", w.id),
                );
            }
        }
        for bound in &w.bounds {
            let Some(reference) = scenario.catalog.system(&bound.better_than) else {
                continue;
            };
            let ok = design
                .selections
                .get(&reference.category)
                .is_some_and(|sel| {
                    let order = scenario.catalog.order().resolve(&bound.dimension, scenario);
                    sel.iter()
                        .any(|id| order.at_least_as_good(id, &bound.better_than))
                });
            if !ok {
                push(
                    format!("bound:{}:{}", w.id, bound.dimension),
                    format!(
                        "workload {} requires {} at least as good as {}",
                        w.id, bound.dimension, bound.better_than
                    ),
                );
            }
        }
    }

    // Hardware slots: one model chosen per populated slot.
    let inv = &scenario.inventory;
    for (candidates, kind) in [
        (&inv.server_candidates, HardwareKind::Server),
        (&inv.nic_candidates, HardwareKind::Nic),
        (&inv.switch_candidates, HardwareKind::Switch),
    ] {
        if candidates.is_empty() {
            continue;
        }
        match design.hardware_for(kind) {
            None => push(
                format!("hw:{kind}"),
                format!("no {kind} model chosen from a populated slot"),
            ),
            Some(id) if !candidates.contains(id) => push(
                format!("hw:{kind}"),
                format!("{kind} model {id} is not among the candidates"),
            ),
            Some(_) => {}
        }
    }

    // Resources.
    for (resource, usage) in &design.resources {
        if let Some(capacity) = usage.capacity {
            if usage.used > capacity {
                push(
                    format!("resource:{resource}"),
                    format!(
                        "{resource} demand {} exceeds capacity {capacity}",
                        usage.used
                    ),
                );
            }
        }
    }

    // Pins and budget.
    for pin in &scenario.pins {
        match pin {
            Pin::Require(id) if !design.includes(id) => push(
                format!("pin:require:{id}"),
                format!("pinned system {id} missing from design"),
            ),
            Pin::Forbid(id) if design.includes(id) => push(
                format!("pin:forbid:{id}"),
                format!("forbidden system {id} present in design"),
            ),
            _ => {}
        }
    }
    if let Some(budget) = scenario.budget_usd {
        if design.total_cost_usd > budget {
            push(
                "budget".to_string(),
                format!("cost ${} exceeds budget ${budget}", design.total_cost_usd),
            );
        }
    }
    violations
}

/// A design-proposing strategy, for head-to-head comparison with the
/// SAT engine (experiment E8).
pub trait Reasoner {
    /// Short display name.
    fn name(&self) -> &'static str;

    /// Proposes a design, or `None` when the strategy gives up.
    fn propose(&mut self, scenario: &Scenario) -> Option<Design>;

    /// Compares two systems along a dimension (how the strategy would
    /// answer a rule-of-thumb question).
    fn compare(
        &mut self,
        scenario: &Scenario,
        a: &SystemId,
        b: &SystemId,
        dim: &Dimension,
    ) -> Comparison;
}

/// Sequential human-style planning: fill each role by local preference,
/// never backtrack, check only requirements visible at selection time.
#[derive(Default)]
pub struct GreedyArchitect;

impl GreedyArchitect {
    /// Creates the baseline.
    pub fn new() -> GreedyArchitect {
        GreedyArchitect
    }

    fn score(&self, scenario: &Scenario, id: &SystemId) -> (usize, u64) {
        // Prefer systems that dominate more peers on the scenario's first
        // dimension objective; tie-break on cost. Workload performance
        // bounds are respected when directly visible — the architect does
        // read the requirements sheet; what they lose is cross-component
        // interactions.
        let dim = scenario.objectives.iter().find_map(|o| match o {
            crate::scenario::Objective::MaximizeDimension(d) => Some(d),
            _ => None,
        });
        let rank = dim.zip(scenario.catalog.system(id)).map_or(0, |(d, spec)| {
            let order = scenario.catalog.order().resolve(d, scenario);
            let members = scenario.catalog.systems_in(&spec.category);
            order.ranks(members.iter().map(|m| &m.id))[id]
        });
        let bound_bonus = if self.meets_bounds(scenario, id) {
            1_000
        } else {
            0
        };
        let cost = scenario.catalog.system(id).map_or(0, |s| s.cost_usd);
        (rank + bound_bonus, cost)
    }

    /// Whether `id` satisfies every workload bound aimed at its category.
    fn meets_bounds(&self, scenario: &Scenario, id: &SystemId) -> bool {
        let Some(spec) = scenario.catalog.system(id) else {
            return true;
        };
        scenario.workloads.iter().all(|w| {
            w.bounds.iter().all(|bound| {
                let Some(reference) = scenario.catalog.system(&bound.better_than) else {
                    return true;
                };
                if reference.category != spec.category {
                    return true;
                }
                let order = scenario.catalog.order().resolve(&bound.dimension, scenario);
                order.at_least_as_good(id, &bound.better_than)
            })
        })
    }
}

impl Reasoner for GreedyArchitect {
    fn name(&self) -> &'static str {
        "greedy-architect"
    }

    fn propose(&mut self, scenario: &Scenario) -> Option<Design> {
        let mut selected: Vec<SystemId> = Vec::new();
        // Respect pins first (humans do remember explicit decisions).
        for pin in &scenario.pins {
            if let Pin::Require(id) = pin {
                selected.push(id.clone());
            }
        }
        let forbidden: BTreeSet<&SystemId> = scenario
            .pins
            .iter()
            .filter_map(|p| match p {
                Pin::Forbid(id) => Some(id),
                _ => None,
            })
            .collect();

        // Needed capabilities: pick one provider each, greedily.
        let needed: BTreeSet<_> = scenario
            .workloads
            .iter()
            .flat_map(|w| w.needs.iter().cloned())
            .collect();
        for cap in needed {
            if selected
                .iter()
                .any(|id| scenario.catalog.system(id).is_some_and(|s| s.solves(&cap)))
            {
                continue;
            }
            let mut providers = scenario.catalog.systems_solving(&cap);
            providers.retain(|s| !forbidden.contains(&s.id));
            providers.sort_by(|a, b| {
                let sa = self.score(scenario, &a.id);
                let sb = self.score(scenario, &b.id);
                sb.0.cmp(&sa.0).then(sa.1.cmp(&sb.1)).then(a.id.cmp(&b.id))
            });
            selected.push(providers.first()?.id.clone());
        }

        // Required roles: fill by local score.
        for (cat, rule) in &scenario.roles {
            if *rule != RoleRule::Required {
                continue;
            }
            if selected
                .iter()
                .any(|id| scenario.catalog.system(id).map(|s| &s.category) == Some(cat))
            {
                continue;
            }
            let mut members = scenario.catalog.systems_in(cat);
            members.retain(|s| !forbidden.contains(&s.id));
            members.sort_by(|a, b| {
                let sa = self.score(scenario, &a.id);
                let sb = self.score(scenario, &b.id);
                sb.0.cmp(&sa.0).then(sa.1.cmp(&sb.1)).then(a.id.cmp(&b.id))
            });
            selected.push(members.first()?.id.clone());
        }

        // Hardware: cheapest model per slot that satisfies the *directly
        // visible* single-feature requirements of the chosen systems.
        // (This single pass is exactly where the whiteboard method loses
        // cross-system interactions.)
        let mut needed_features: BTreeMap<HardwareKind, BTreeSet<crate::types::Feature>> =
            BTreeMap::new();
        for id in &selected {
            let Some(spec) = scenario.catalog.system(id) else {
                continue;
            };
            for req in &spec.requires {
                match &req.condition {
                    Condition::NicFeature(f) => {
                        needed_features
                            .entry(HardwareKind::Nic)
                            .or_default()
                            .insert(f.clone());
                    }
                    Condition::SwitchFeature(f) => {
                        needed_features
                            .entry(HardwareKind::Switch)
                            .or_default()
                            .insert(f.clone());
                    }
                    Condition::ServerFeature(f) => {
                        needed_features
                            .entry(HardwareKind::Server)
                            .or_default()
                            .insert(f.clone());
                    }
                    _ => {} // nested/compound requirements are overlooked
                }
            }
        }
        let inv = &scenario.inventory;
        let mut hardware: BTreeMap<HardwareKind, HardwareId> = BTreeMap::new();
        for (candidates, kind) in [
            (&inv.server_candidates, HardwareKind::Server),
            (&inv.nic_candidates, HardwareKind::Nic),
            (&inv.switch_candidates, HardwareKind::Switch),
        ] {
            if candidates.is_empty() {
                continue;
            }
            let needs = needed_features.get(&kind);
            let mut viable: Vec<&HardwareId> = candidates
                .iter()
                .filter(|id| {
                    let Some(h) = scenario.catalog.hardware(id) else {
                        return false;
                    };
                    needs.is_none_or(|fs| fs.iter().all(|f| h.has_feature(f)))
                })
                .collect();
            viable.sort_by_key(|id| scenario.catalog.hardware(id).map_or(0, |h| h.cost_usd));
            let choice = viable.first().copied().unwrap_or(candidates.first()?);
            hardware.insert(kind, choice.clone());
        }

        let selected_set: BTreeSet<SystemId> = selected.into_iter().collect();
        Some(Design::from_model(
            scenario,
            |id| selected_set.contains(id),
            |id| hardware.values().any(|h| h == id),
        ))
    }

    fn compare(
        &mut self,
        scenario: &Scenario,
        a: &SystemId,
        b: &SystemId,
        dim: &Dimension,
    ) -> Comparison {
        // Humans with the catalog open: faithful, including "don't know".
        scenario.catalog.order().compare(a, b, dim, scenario)
    }
}

/// Exhaustive enumeration over role-wise combinations; ground truth for
/// small scenarios. Gives up beyond `max_combinations`.
pub struct ExhaustiveSearch {
    /// Combination budget before giving up.
    pub max_combinations: u64,
}

impl Default for ExhaustiveSearch {
    fn default() -> ExhaustiveSearch {
        ExhaustiveSearch {
            max_combinations: 2_000_000,
        }
    }
}

impl ExhaustiveSearch {
    /// Creates the baseline with the default budget.
    pub fn new() -> ExhaustiveSearch {
        ExhaustiveSearch::default()
    }
}

impl Reasoner for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive-search"
    }

    fn propose(&mut self, scenario: &Scenario) -> Option<Design> {
        // Choice lists: per category, the candidate systems (plus None when
        // not required); per populated hardware slot, the candidates.
        let mut categories: Vec<Category> = scenario
            .catalog
            .systems()
            .map(|s| s.category.clone())
            .collect();
        categories.sort();
        categories.dedup();
        let mut axes: Vec<Vec<Option<SystemId>>> = Vec::new();
        for cat in &categories {
            let rule = scenario.role_rule(cat);
            if rule == RoleRule::Forbidden {
                continue;
            }
            let mut axis: Vec<Option<SystemId>> = Vec::new();
            if rule != RoleRule::Required {
                axis.push(None);
            }
            for s in scenario.catalog.systems_in(cat) {
                axis.push(Some(s.id.clone()));
            }
            axes.push(axis);
        }
        let inv = &scenario.inventory;
        let mut hw_axes: Vec<Vec<HardwareId>> = Vec::new();
        for candidates in [
            &inv.server_candidates,
            &inv.nic_candidates,
            &inv.switch_candidates,
        ] {
            if !candidates.is_empty() {
                hw_axes.push(candidates.clone());
            }
        }
        let total: u64 = axes
            .iter()
            .map(|a| a.len() as u64)
            .chain(hw_axes.iter().map(|a| a.len() as u64))
            .product();
        if total > self.max_combinations {
            return None;
        }

        let mut indices = vec![0usize; axes.len() + hw_axes.len()];
        loop {
            let systems: BTreeSet<SystemId> = axes
                .iter()
                .zip(&indices)
                .filter_map(|(axis, &i)| axis[i].clone())
                .collect();
            let hardware: BTreeSet<HardwareId> = hw_axes
                .iter()
                .zip(&indices[axes.len()..])
                .map(|(axis, &i)| axis[i].clone())
                .collect();
            let design = Design::from_model(
                scenario,
                |id| systems.contains(id),
                |id| hardware.contains(id),
            );
            if validate_design(scenario, &design).is_empty() {
                return Some(design);
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == indices.len() {
                    return None;
                }
                let axis_len = if k < axes.len() {
                    axes[k].len()
                } else {
                    hw_axes[k - axes.len()].len()
                };
                indices[k] += 1;
                if indices[k] < axis_len {
                    break;
                }
                indices[k] = 0;
                k += 1;
            }
        }
    }

    fn compare(
        &mut self,
        scenario: &Scenario,
        a: &SystemId,
        b: &SystemId,
        dim: &Dimension,
    ) -> Comparison {
        scenario.catalog.order().compare(a, b, dim, scenario)
    }
}

/// Deterministic stand-in for an LLM asked to reason over the encodings
/// (paper §5.2). Good at aggregates; overconfident and condition-blind on
/// nuanced comparisons.
pub struct SimulatedLlm {
    seed: u64,
}

impl SimulatedLlm {
    /// Creates the baseline with a seed controlling its hallucinated
    /// tie-breaks.
    pub fn new(seed: u64) -> SimulatedLlm {
        SimulatedLlm { seed }
    }

    /// Aggregate numeric query it *does* answer correctly (§5.2: "it
    /// accurately determined straightforward requirements such as the
    /// minimum number of cores"): total cores needed by all workloads plus
    /// all selected systems of a design.
    pub fn min_cores_needed(&self, scenario: &Scenario, design: &Design) -> u64 {
        let workload: u64 = scenario.workloads.iter().map(|w| w.peak_cores).sum();
        let systems: u64 = design
            .systems()
            .iter()
            .filter_map(|id| scenario.catalog.system(id))
            .flat_map(|s| &s.resources)
            .filter(|d| d.resource == Resource::Cores)
            .filter_map(|d| d.amount.eval(&|n| scenario.param_value(n)).ok())
            .sum();
        workload + systems
    }

    fn hash(&self, text: &str) -> u64 {
        // FNV-1a with the seed folded in: deterministic "hallucination".
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

impl Reasoner for SimulatedLlm {
    fn name(&self) -> &'static str {
        "simulated-llm"
    }

    fn propose(&mut self, scenario: &Scenario) -> Option<Design> {
        // Selection by unconditional popularity: global dominance count
        // across *all* dimensions ignoring every edge condition — exactly
        // the nuance-blindness §5.2 reports. Conflicts and hardware
        // requirements are not consulted.
        let mut selected: BTreeSet<SystemId> = BTreeSet::new();
        for pin in &scenario.pins {
            if let Pin::Require(id) = pin {
                selected.insert(id.clone());
            }
        }
        let needed: BTreeSet<_> = scenario
            .workloads
            .iter()
            .flat_map(|w| w.needs.iter().cloned())
            .collect();
        let popularity = |id: &SystemId| -> usize {
            scenario
                .catalog
                .order()
                .edges()
                .iter()
                .filter(|e| &e.better == id) // conditions ignored!
                .count()
        };
        for cap in needed {
            let mut providers = scenario.catalog.systems_solving(&cap);
            providers.sort_by(|a, b| {
                popularity(&b.id)
                    .cmp(&popularity(&a.id))
                    .then_with(|| self.hash(a.id.as_str()).cmp(&self.hash(b.id.as_str())))
            });
            if let Some(first) = providers.first() {
                selected.insert(first.id.clone());
            }
        }
        for (cat, rule) in &scenario.roles {
            if *rule != RoleRule::Required {
                continue;
            }
            if selected
                .iter()
                .any(|id| scenario.catalog.system(id).map(|s| &s.category) == Some(cat))
            {
                continue;
            }
            let mut members = scenario.catalog.systems_in(cat);
            members.sort_by_key(|s| std::cmp::Reverse(popularity(&s.id)));
            if let Some(first) = members.first() {
                selected.insert(first.id.clone());
            }
        }
        // Hardware: picks the "best-sounding" (most features) model,
        // ignoring what the chosen systems actually require.
        let inv = &scenario.inventory;
        let mut hardware: BTreeSet<HardwareId> = BTreeSet::new();
        for candidates in [
            &inv.server_candidates,
            &inv.nic_candidates,
            &inv.switch_candidates,
        ] {
            let best = candidates.iter().max_by_key(|id| {
                scenario
                    .catalog
                    .hardware(id)
                    .map_or(0, |h| h.features.len())
            });
            if let Some(id) = best {
                hardware.insert(id.clone());
            }
        }
        Some(Design::from_model(
            scenario,
            |id| selected.contains(id),
            |id| hardware.contains(id),
        ))
    }

    fn compare(
        &mut self,
        scenario: &Scenario,
        a: &SystemId,
        b: &SystemId,
        dim: &Dimension,
    ) -> Comparison {
        // Ignores edge conditions; never admits incomparability.
        let unconditional_a = scenario
            .catalog
            .order()
            .edges_on(dim)
            .any(|e| &e.better == a && &e.worse == b);
        let unconditional_b = scenario
            .catalog
            .order()
            .edges_on(dim)
            .any(|e| &e.better == b && &e.worse == a);
        match (unconditional_a, unconditional_b) {
            (true, false) => Comparison::Better,
            (false, true) => Comparison::Worse,
            _ => {
                // Hallucinated confident answer.
                if self.hash(a.as_str()) > self.hash(b.as_str()) {
                    Comparison::Better
                } else {
                    Comparison::Worse
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::AmountExpr;
    use crate::ordering::OrderingEdge;
    use crate::scenario::Inventory;
    use crate::workload::Workload;

    /// Scenario with a hidden cross-system interaction: system B requires
    /// a switch feature only present on the model that also carries A's.
    fn tricky_scenario() -> Scenario {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("A", Category::CongestionControl)
                    .solves("bandwidth_allocation")
                    .requires("a-needs-ecn", Condition::switches_have("ECN"))
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("B", Category::Monitoring)
                    .solves("monitoring")
                    .requires("b-needs-int", Condition::switches_have("INT"))
                    .build(),
            )
            .unwrap();
        // SW1: ECN only (cheap). SW2: ECN + INT (expensive).
        catalog
            .add_hardware(
                HardwareSpec::builder("SW1", HardwareKind::Switch)
                    .feature("ECN")
                    .cost(100)
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SW2", HardwareKind::Switch)
                    .feature("ECN")
                    .feature("INT")
                    .cost(900)
                    .build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(
                Workload::builder("app")
                    .needs("bandwidth_allocation")
                    .needs("monitoring")
                    .build(),
            )
            .with_inventory(Inventory {
                switch_candidates: vec![HardwareId::new("SW1"), HardwareId::new("SW2")],
                num_switches: 2,
                ..Inventory::default()
            })
    }

    #[test]
    fn validator_accepts_correct_design() {
        let s = tricky_scenario();
        let d = Design::from_model(
            &s,
            |id| matches!(id.as_str(), "A" | "B"),
            |id| id.as_str() == "SW2",
        );
        assert_eq!(validate_design(&s, &d), vec![]);
    }

    #[test]
    fn validator_catches_each_violation_kind() {
        let s = tricky_scenario();
        // Wrong switch: B's INT requirement violated.
        let d = Design::from_model(
            &s,
            |id| matches!(id.as_str(), "A" | "B"),
            |id| id.as_str() == "SW1",
        );
        let violations = validate_design(&s, &d);
        assert!(violations.iter().any(|v| v.label == "req:B:b-needs-int"));

        // Missing capability.
        let d = Design::from_model(&s, |id| id.as_str() == "A", |id| id.as_str() == "SW2");
        let violations = validate_design(&s, &d);
        assert!(violations
            .iter()
            .any(|v| v.label == "workload:app:needs:monitoring"));

        // No switch chosen despite populated slot.
        let d = Design::from_model(&s, |id| matches!(id.as_str(), "A" | "B"), |_| false);
        let violations = validate_design(&s, &d);
        assert!(violations.iter().any(|v| v.label == "hw:switch"));
    }

    #[test]
    fn greedy_solves_the_easy_case() {
        let mut greedy = GreedyArchitect::new();
        let s = tricky_scenario();
        let d = greedy.propose(&s).expect("greedy proposes");
        // Both features are directly-visible single-feature requirements,
        // so even greedy lands on SW2 here.
        assert_eq!(validate_design(&s, &d), vec![]);
    }

    #[test]
    fn greedy_misses_resource_contention() {
        // Two systems that individually fit a server's cores but jointly
        // exceed them; greedy picks both happily.
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("HOG1", Category::Monitoring)
                    .solves("monitoring")
                    .consumes(Resource::Cores, AmountExpr::constant(48))
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(
                SystemSpec::builder("HOG2", Category::VirtualSwitch)
                    .solves("virtualization")
                    .consumes(Resource::Cores, AmountExpr::constant(40))
                    .build(),
            )
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV", HardwareKind::Server)
                    .numeric("cores", 64.0)
                    .build(),
            )
            .unwrap();
        let s = Scenario::new(catalog)
            .with_workload(
                Workload::builder("app")
                    .needs("monitoring")
                    .needs("virtualization")
                    .build(),
            )
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV")],
                num_servers: 1,
                ..Inventory::default()
            });
        let mut greedy = GreedyArchitect::new();
        let d = greedy.propose(&s).expect("greedy proposes");
        let violations = validate_design(&s, &d);
        assert!(
            violations.iter().any(|v| v.label.starts_with("resource:")),
            "greedy should overcommit cores, got {violations:?}"
        );
        // The SAT engine, by contrast, correctly reports infeasibility.
        let mut engine = crate::query::Engine::new(s).unwrap();
        let outcome = engine.check().unwrap();
        assert!(outcome.diagnosis().is_some());
    }

    #[test]
    fn exhaustive_matches_engine_verdict() {
        let s = tricky_scenario();
        let mut exhaustive = ExhaustiveSearch::new();
        let d = exhaustive.propose(&s).expect("finds the valid combo");
        assert_eq!(validate_design(&s, &d), vec![]);
    }

    #[test]
    fn exhaustive_gives_up_over_budget() {
        let s = tricky_scenario();
        let mut exhaustive = ExhaustiveSearch {
            max_combinations: 1,
        };
        assert!(exhaustive.propose(&s).is_none());
    }

    #[test]
    fn llm_answers_aggregates_but_never_admits_ignorance() {
        let s = tricky_scenario();
        let mut llm = SimulatedLlm::new(7);
        let d = llm.propose(&s).expect("llm always answers");
        // Aggregate queries are exact:
        let cores = llm.min_cores_needed(&s, &d);
        assert_eq!(cores, 0); // no core demands in this scenario
                              // Comparison: no edges exist, yet it never says Incomparable.
        let verdict = llm.compare(
            &s,
            &SystemId::new("A"),
            &SystemId::new("B"),
            &Dimension::Throughput,
        );
        assert!(matches!(verdict, Comparison::Better | Comparison::Worse));
    }

    #[test]
    fn llm_ignores_edge_conditions() {
        use crate::condition::CmpOp;
        let mut catalog = Catalog::new();
        for id in ["X", "Y"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::NetworkStack).build())
                .unwrap();
        }
        // X beats Y only at ≥ 40 Gbps; scenario runs at 10 Gbps.
        catalog
            .add_ordering(
                OrderingEdge::strict("X", "Y", Dimension::Throughput).when(Condition::param(
                    "link_speed_gbps",
                    CmpOp::Ge,
                    40.0,
                )),
            )
            .unwrap();
        let s = Scenario::new(catalog).with_param("link_speed_gbps", 10.0);
        // Ground truth: incomparable at 10 Gbps (edge inactive).
        assert_eq!(
            s.catalog.order().compare(
                &SystemId::new("X"),
                &SystemId::new("Y"),
                &Dimension::Throughput,
                &s
            ),
            Comparison::Incomparable
        );
        // The simulated LLM still confidently answers.
        let mut llm = SimulatedLlm::new(1);
        assert!(matches!(
            llm.compare(
                &s,
                &SystemId::new("X"),
                &SystemId::new("Y"),
                &Dimension::Throughput
            ),
            Comparison::Better | Comparison::Worse
        ));
    }

    #[test]
    fn reasoner_names() {
        assert_eq!(GreedyArchitect::new().name(), "greedy-architect");
        assert_eq!(ExhaustiveSearch::new().name(), "exhaustive-search");
        assert_eq!(SimulatedLlm::new(0).name(), "simulated-llm");
    }
}
