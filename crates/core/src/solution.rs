//! Designs: the engine's answers.
//!
//! A [`Design`] is one concrete architecture — the selected system per
//! role, the chosen hardware models, and derived cost/resource summaries.
//! Two solver models projecting to the same decision atoms are the same
//! design; equivalence classing happens at this level (paper §6).

use crate::scenario::Scenario;
use crate::types::{Category, HardwareId, HardwareKind, Resource, SystemId};
use netarch_rt::impl_json_struct;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A concrete architecture design.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Design {
    /// Selected systems grouped by category.
    pub selections: BTreeMap<Category, Vec<SystemId>>,
    /// Chosen hardware model per inventory slot.
    pub hardware: BTreeMap<HardwareKind, HardwareId>,
    /// Total cost (systems + hardware × counts), USD.
    pub total_cost_usd: u64,
    /// Resource usage: resource → (demand from systems + workloads,
    /// capacity under the chosen hardware, if constrained).
    pub resources: BTreeMap<Resource, ResourceUsage>,
}

impl_json_struct!(Design {
    selections,
    hardware,
    total_cost_usd,
    resources,
});

/// Demand vs. capacity for one resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResourceUsage {
    /// Total consumed by selected systems plus workload peaks.
    pub used: u64,
    /// Capacity under the chosen hardware, when the scenario constrains it.
    pub capacity: Option<u64>,
}

impl_json_struct!(ResourceUsage { used, capacity });

impl Design {
    /// All selected systems, flattened.
    pub fn systems(&self) -> BTreeSet<&SystemId> {
        self.selections.values().flatten().collect()
    }

    /// Whether a system is part of the design.
    pub fn includes(&self, id: &SystemId) -> bool {
        self.selections.values().any(|v| v.contains(id))
    }

    /// The single selection for a category, if exactly one.
    pub fn selection(&self, category: &Category) -> Option<&SystemId> {
        match self.selections.get(category).map(Vec::as_slice) {
            Some([one]) => Some(one),
            _ => None,
        }
    }

    /// The chosen hardware for a slot.
    pub fn hardware_for(&self, kind: HardwareKind) -> Option<&HardwareId> {
        self.hardware.get(&kind)
    }

    /// Extracts the design from a satisfied scenario model.
    ///
    /// `selected_system` / `selected_hardware` report each candidate's
    /// value in the model.
    pub fn from_model(
        scenario: &Scenario,
        selected_system: impl Fn(&SystemId) -> bool,
        selected_hardware: impl Fn(&HardwareId) -> bool,
    ) -> Design {
        let mut design = Design::default();
        for spec in scenario.catalog.systems() {
            if selected_system(&spec.id) {
                design
                    .selections
                    .entry(spec.category.clone())
                    .or_default()
                    .push(spec.id.clone());
                design.total_cost_usd += spec.cost_usd;
            }
        }
        let inv = &scenario.inventory;
        for (candidates, kind, count) in [
            (
                &inv.server_candidates,
                HardwareKind::Server,
                inv.num_servers,
            ),
            (&inv.nic_candidates, HardwareKind::Nic, inv.num_servers),
            (
                &inv.switch_candidates,
                HardwareKind::Switch,
                inv.num_switches,
            ),
        ] {
            for id in candidates {
                if selected_hardware(id) {
                    design.hardware.insert(kind, id.clone());
                    if let Some(h) = scenario.catalog.hardware(id) {
                        design.total_cost_usd += h.cost_usd.saturating_mul(count.max(1));
                    }
                }
            }
        }
        design.compute_resources(scenario);
        design
    }

    fn compute_resources(&mut self, scenario: &Scenario) {
        let mut usage: BTreeMap<Resource, u64> = BTreeMap::new();
        for spec in scenario.catalog.systems() {
            if !self.includes(&spec.id) {
                continue;
            }
            for d in &spec.resources {
                if let Ok(amount) = d.amount.eval(&|n| scenario.param_value(n)) {
                    *usage.entry(d.resource.clone()).or_default() += amount;
                }
            }
        }
        let workload_cores: u64 = scenario.workloads.iter().map(|w| w.peak_cores).sum();
        if workload_cores > 0 {
            *usage.entry(Resource::Cores).or_default() += workload_cores;
        }
        for (resource, used) in usage {
            let capacity = self.capacity_for(scenario, &resource);
            self.resources
                .insert(resource, ResourceUsage { used, capacity });
        }
    }

    fn capacity_for(&self, scenario: &Scenario, resource: &Resource) -> Option<u64> {
        let kind = match resource {
            Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => {
                HardwareKind::Server
            }
            Resource::SwitchMemoryMb | Resource::P4Stages | Resource::QosClasses => {
                HardwareKind::Switch
            }
            Resource::SmartNicCapacity => HardwareKind::Nic,
        };
        let model = self.hardware.get(&kind)?;
        let spec = scenario.catalog.hardware(model)?;
        let per_unit = spec.capacity(resource);
        let scale = match resource {
            Resource::Cores | Resource::ServerMemoryGb | Resource::Custom(_) => {
                scenario.inventory.num_servers.max(1)
            }
            Resource::SwitchMemoryMb => scenario.inventory.num_switches.max(1),
            _ => 1,
        };
        Some(per_unit * scale)
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Design (total cost ${}):", self.total_cost_usd)?;
        for (cat, systems) in &self.selections {
            write!(f, "  {cat}: ")?;
            for (i, s) in systems.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            writeln!(f)?;
        }
        for (kind, model) in &self.hardware {
            writeln!(f, "  {kind}: {model}")?;
        }
        for (resource, usage) in &self.resources {
            match usage.capacity {
                Some(cap) => writeln!(f, "  {resource}: {} / {cap}", usage.used)?,
                None => writeln!(f, "  {resource}: {} (unconstrained)", usage.used)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::component::{HardwareSpec, SystemSpec};
    use crate::condition::AmountExpr;
    use crate::scenario::Inventory;
    use crate::workload::Workload;

    fn scenario() -> Scenario {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("SIMON", Category::Monitoring)
                    .consumes(Resource::Cores, AmountExpr::scaled("num_flows", 0.001))
                    .cost(500)
                    .build(),
            )
            .unwrap();
        catalog
            .add_system(SystemSpec::builder("ECMP", Category::LoadBalancer).build())
            .unwrap();
        catalog
            .add_hardware(
                HardwareSpec::builder("SRV64", HardwareKind::Server)
                    .numeric("cores", 64.0)
                    .cost(8_000)
                    .build(),
            )
            .unwrap();
        Scenario::new(catalog)
            .with_workload(
                Workload::builder("app")
                    .num_flows(10_000)
                    .peak_cores(100)
                    .build(),
            )
            .with_inventory(Inventory {
                server_candidates: vec![HardwareId::new("SRV64")],
                num_servers: 10,
                ..Inventory::default()
            })
    }

    #[test]
    fn from_model_extracts_selections_costs_and_resources() {
        let s = scenario();
        let d = Design::from_model(&s, |id| id.as_str() == "SIMON", |id| id.as_str() == "SRV64");
        assert!(d.includes(&SystemId::new("SIMON")));
        assert!(!d.includes(&SystemId::new("ECMP")));
        assert_eq!(
            d.selection(&Category::Monitoring).unwrap().as_str(),
            "SIMON"
        );
        assert_eq!(
            d.hardware_for(HardwareKind::Server).unwrap().as_str(),
            "SRV64"
        );
        // cost: 500 (SIMON) + 10 × 8000 (servers)
        assert_eq!(d.total_cost_usd, 80_500);
        let cores = &d.resources[&Resource::Cores];
        // used: ceil(10000 × 0.001) = 10 from SIMON + 100 workload cores
        assert_eq!(cores.used, 110);
        assert_eq!(cores.capacity, Some(640));
    }

    #[test]
    fn display_renders_all_sections() {
        let s = scenario();
        let d = Design::from_model(&s, |_| true, |_| true);
        let text = d.to_string();
        assert!(text.contains("monitoring: SIMON"));
        assert!(text.contains("server: SRV64"));
        assert!(text.contains("cores: 110 / 640"));
    }

    #[test]
    fn selection_none_when_empty_or_multiple() {
        let s = scenario();
        let d = Design::from_model(&s, |_| false, |_| false);
        assert_eq!(d.selection(&Category::Monitoring), None);
        assert_eq!(d.total_cost_usd, 0);
    }
}
