//! Scenarios: a catalog plus the architect's inputs.
//!
//! A [`Scenario`] is one concrete design question: the hardware inventory
//! under consideration, the workloads to carry, which roles must be
//! filled, numeric parameters (link speed, flow counts), WhatIf pins
//! ("I have already deployed Sonata", §5.1), and the objective stack
//! (`Optimize(latency > Hardware cost > monitoring)`, Listing 3).

use crate::catalog::Catalog;
use crate::condition::StaticContext;
use crate::types::{Capability, Category, Dimension, HardwareId, ParamName, Property, SystemId};
use crate::workload::Workload;
use netarch_rt::{impl_json_enum, impl_json_struct};
use std::collections::BTreeMap;

/// The hardware under consideration: candidate models per slot and the
/// deployment's unit counts.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Inventory {
    /// Candidate server SKUs (the engine picks exactly one).
    pub server_candidates: Vec<HardwareId>,
    /// Candidate NIC models (one selected).
    pub nic_candidates: Vec<HardwareId>,
    /// Candidate switch models (one selected).
    pub switch_candidates: Vec<HardwareId>,
    /// Number of servers deployed (each with one NIC).
    pub num_servers: u64,
    /// Number of switches deployed.
    pub num_switches: u64,
}

impl_json_struct!(Inventory {
    server_candidates,
    nic_candidates,
    switch_candidates,
    num_servers,
    num_switches,
});

/// Whether a role must, may, or must not be filled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoleRule {
    /// Exactly one system of this category must be selected.
    Required,
    /// At most one system of this category may be selected.
    Optional,
    /// No system of this category may be selected.
    Forbidden,
}

impl_json_enum!(RoleRule {
    unit Required,
    unit Optional,
    unit Forbidden,
});

/// One level of the lexicographic objective stack.
#[derive(Clone, PartialEq, Debug)]
pub enum Objective {
    /// Prefer selections ranked higher in the preference order on this
    /// dimension (Listing 3's `latency` / `monitoring` terms).
    MaximizeDimension(Dimension),
    /// Minimize total monetary cost of hardware and systems (Listing 3's
    /// `Hardware cost` term).
    MinimizeCost,
    /// Prefer deployments that provide this capability (soft version of a
    /// workload need).
    PreferCapability(Capability),
}

impl_json_enum!(Objective {
    one MaximizeDimension(Dimension),
    unit MinimizeCost,
    one PreferCapability(Capability),
});

/// A WhatIf pin: force a system in or out of the design.
#[derive(Clone, PartialEq, Debug)]
pub enum Pin {
    /// The system must be part of the design ("already deployed").
    Require(SystemId),
    /// The system must not be part of the design.
    Forbid(SystemId),
}

impl_json_enum!(Pin {
    one Require(SystemId),
    one Forbid(SystemId),
});

/// A complete design question.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The knowledge catalog in force.
    pub catalog: Catalog,
    /// Workloads the architecture must carry.
    pub workloads: Vec<Workload>,
    /// Hardware candidates and counts.
    pub inventory: Inventory,
    /// Numeric parameters (`link_speed_gbps`, etc.). `num_flows` and
    /// `peak_cores` are derived from workloads automatically but may be
    /// overridden here.
    pub params: BTreeMap<ParamName, f64>,
    /// Role requirements. Categories not listed default to `Optional`.
    pub roles: BTreeMap<Category, RoleRule>,
    /// Lexicographic objective stack, most important first.
    pub objectives: Vec<Objective>,
    /// WhatIf pins.
    pub pins: Vec<Pin>,
    /// Optional budget cap on total cost, USD.
    pub budget_usd: Option<u64>,
}

impl_json_struct!(Scenario {
    catalog,
    workloads,
    inventory,
    params,
    roles,
    objectives,
    pins,
    budget_usd,
});

impl Scenario {
    /// Creates a scenario over a catalog with everything else empty.
    pub fn new(catalog: Catalog) -> Scenario {
        Scenario {
            catalog,
            workloads: Vec::new(),
            inventory: Inventory::default(),
            params: BTreeMap::new(),
            roles: BTreeMap::new(),
            objectives: Vec::new(),
            pins: Vec::new(),
            budget_usd: None,
        }
    }

    /// Adds a workload.
    pub fn with_workload(mut self, workload: Workload) -> Scenario {
        self.workloads.push(workload);
        self
    }

    /// Sets a parameter.
    pub fn with_param(mut self, name: impl Into<ParamName>, value: f64) -> Scenario {
        self.params.insert(name.into(), value);
        self
    }

    /// Declares a role rule.
    pub fn with_role(mut self, category: Category, rule: RoleRule) -> Scenario {
        self.roles.insert(category, rule);
        self
    }

    /// Appends an objective level.
    pub fn with_objective(mut self, objective: Objective) -> Scenario {
        self.objectives.push(objective);
        self
    }

    /// Adds a pin.
    pub fn with_pin(mut self, pin: Pin) -> Scenario {
        self.pins.push(pin);
        self
    }

    /// Sets the inventory.
    pub fn with_inventory(mut self, inventory: Inventory) -> Scenario {
        self.inventory = inventory;
        self
    }

    /// Sets the budget.
    pub fn with_budget(mut self, usd: u64) -> Scenario {
        self.budget_usd = Some(usd);
        self
    }

    /// The effective role rule for a category.
    pub fn role_rule(&self, category: &Category) -> RoleRule {
        self.roles
            .get(category)
            .copied()
            .unwrap_or(RoleRule::Optional)
    }

    /// The effective value of a parameter: explicit params win, then
    /// derived workload aggregates (`num_flows`, `peak_cores`,
    /// `peak_bandwidth_gbps`, `num_workloads`).
    pub fn param_value(&self, name: &ParamName) -> Option<f64> {
        if let Some(v) = self.params.get(name) {
            return Some(*v);
        }
        match name.as_str() {
            "num_flows" => Some(self.workloads.iter().map(|w| w.num_flows).sum::<u64>() as f64),
            "peak_cores" => Some(self.workloads.iter().map(|w| w.peak_cores).sum::<u64>() as f64),
            "peak_bandwidth_gbps" => Some(
                self.workloads
                    .iter()
                    .map(|w| w.peak_bandwidth_gbps)
                    .sum::<u64>() as f64,
            ),
            "num_workloads" => Some(self.workloads.len() as f64),
            "num_servers" => Some(self.inventory.num_servers as f64),
            "num_switches" => Some(self.inventory.num_switches as f64),
            _ => None,
        }
    }
}

/// One mechanical change to a scenario, produced by the sweep layer when
/// materializing an enumerated variant. Edits are deliberately coarse —
/// each one overwrites a whole knob — so that applying the same edit list
/// to the same base scenario is trivially deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioEdit {
    /// Pin a system into the design (`Pin::Require`).
    RequireSystem(SystemId),
    /// Pin a system out of the design (`Pin::Forbid`).
    ForbidSystem(SystemId),
    /// Replace the NIC candidate list.
    NicCandidates(Vec<HardwareId>),
    /// Replace the server candidate list.
    ServerCandidates(Vec<HardwareId>),
    /// Replace the switch candidate list.
    SwitchCandidates(Vec<HardwareId>),
    /// Set the server count.
    NumServers(u64),
    /// Set (or override) a numeric parameter.
    SetParam(ParamName, f64),
}

impl Scenario {
    /// Returns a copy of `self` with `edits` applied in order. Later edits
    /// to the same knob win, matching the stream order the sweep
    /// enumerator emits.
    pub fn with_edits(&self, edits: &[ScenarioEdit]) -> Scenario {
        let mut out = self.clone();
        for edit in edits {
            match edit {
                ScenarioEdit::RequireSystem(id) => {
                    out.pins.push(Pin::Require(id.clone()));
                }
                ScenarioEdit::ForbidSystem(id) => {
                    out.pins.push(Pin::Forbid(id.clone()));
                }
                ScenarioEdit::NicCandidates(ids) => {
                    out.inventory.nic_candidates = ids.clone();
                }
                ScenarioEdit::ServerCandidates(ids) => {
                    out.inventory.server_candidates = ids.clone();
                }
                ScenarioEdit::SwitchCandidates(ids) => {
                    out.inventory.switch_candidates = ids.clone();
                }
                ScenarioEdit::NumServers(n) => {
                    out.inventory.num_servers = *n;
                }
                ScenarioEdit::SetParam(name, value) => {
                    out.params.insert(name.clone(), *value);
                }
            }
        }
        out
    }
}

impl StaticContext for Scenario {
    fn param(&self, name: &ParamName) -> Option<f64> {
        self.param_value(name)
    }

    fn workload_has(&self, property: &Property) -> bool {
        self.workloads.iter().any(|w| w.has_property(property))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_params_aggregate_workloads() {
        let s = Scenario::new(Catalog::new())
            .with_workload(
                Workload::builder("w1")
                    .num_flows(100)
                    .peak_cores(10)
                    .peak_bandwidth(5)
                    .build(),
            )
            .with_workload(
                Workload::builder("w2")
                    .num_flows(50)
                    .peak_cores(20)
                    .peak_bandwidth(10)
                    .build(),
            );
        assert_eq!(s.param_value(&ParamName::new("num_flows")), Some(150.0));
        assert_eq!(s.param_value(&ParamName::new("peak_cores")), Some(30.0));
        assert_eq!(
            s.param_value(&ParamName::new("peak_bandwidth_gbps")),
            Some(15.0)
        );
        assert_eq!(s.param_value(&ParamName::new("num_workloads")), Some(2.0));
        assert_eq!(s.param_value(&ParamName::new("undefined")), None);
    }

    #[test]
    fn explicit_params_override_derived() {
        let s = Scenario::new(Catalog::new())
            .with_workload(Workload::builder("w").num_flows(100).build())
            .with_param("num_flows", 9.0);
        assert_eq!(s.param_value(&ParamName::new("num_flows")), Some(9.0));
    }

    #[test]
    fn static_context_sees_workload_properties() {
        let s = Scenario::new(Catalog::new())
            .with_workload(Workload::builder("w").property("wan_traffic").build());
        assert!(s.workload_has(&Property::new("wan_traffic")));
        assert!(!s.workload_has(&Property::new("short_flows")));
    }

    #[test]
    fn edits_apply_in_order_and_leave_base_untouched() {
        let base = Scenario::new(Catalog::new()).with_param("link_speed_gbps", 10.0);
        let edited = base.with_edits(&[
            ScenarioEdit::RequireSystem(SystemId::new("SONATA")),
            ScenarioEdit::NumServers(4),
            ScenarioEdit::SetParam(ParamName::new("link_speed_gbps"), 40.0),
            ScenarioEdit::SetParam(ParamName::new("link_speed_gbps"), 100.0),
            ScenarioEdit::NicCandidates(vec![HardwareId::new("NIC_A")]),
        ]);
        assert_eq!(edited.pins, vec![Pin::Require(SystemId::new("SONATA"))]);
        assert_eq!(edited.inventory.num_servers, 4);
        assert_eq!(
            edited.param_value(&ParamName::new("link_speed_gbps")),
            Some(100.0)
        );
        assert_eq!(
            edited.inventory.nic_candidates,
            vec![HardwareId::new("NIC_A")]
        );
        assert_eq!(base.inventory.num_servers, 0);
        assert!(base.pins.is_empty());
    }

    #[test]
    fn role_rules_default_to_optional() {
        let s = Scenario::new(Catalog::new()).with_role(Category::Monitoring, RoleRule::Required);
        assert_eq!(s.role_rule(&Category::Monitoring), RoleRule::Required);
        assert_eq!(s.role_rule(&Category::Firewall), RoleRule::Optional);
    }
}
