//! System and hardware encodings — the paper's Listings 1 and 2.
//!
//! A [`SystemSpec`] captures a deployable software system at the paper's
//! "broad but shallow" abstraction level (§3.1): what it *solves*, what it
//! *requires* of the rest of the architecture, what it *conflicts* with,
//! which *resources* it consumes, and how it sits in the preference partial
//! order (the latter lives in [`crate::ordering`]). No performance numbers,
//! no temporal behavior (§3.2).
//!
//! A [`HardwareSpec`] mirrors the auto-generated encodings of Listing 1:
//! a model name plus feature flags and numeric attributes.

use crate::condition::{AmountExpr, Condition};
use crate::types::{Capability, Category, Feature, HardwareId, HardwareKind, Resource, SystemId};
use netarch_rt::impl_json_struct;
use std::collections::{BTreeMap, BTreeSet};

/// A named deployment requirement with provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct Requirement {
    /// Short human-readable rule name (used in diagnoses).
    pub label: String,
    /// The condition that must hold for the system to be deployable.
    pub condition: Condition,
    /// Where the rule came from (paper, datasheet, deployment experience).
    pub citation: Option<String>,
}

impl_json_struct!(Requirement {
    label,
    condition,
    citation
});

impl Requirement {
    /// Creates a requirement.
    pub fn new(label: impl Into<String>, condition: Condition) -> Requirement {
        Requirement {
            label: label.into(),
            condition,
            citation: None,
        }
    }

    /// Attaches a citation.
    pub fn cited(mut self, citation: impl Into<String>) -> Requirement {
        self.citation = Some(citation.into());
        self
    }
}

/// A resource demand: deploying the system consumes `amount` of `resource`.
#[derive(Clone, PartialEq, Debug)]
pub struct ResourceDemand {
    /// The contended resource.
    pub resource: Resource,
    /// How much is consumed (may scale with scenario parameters).
    pub amount: AmountExpr,
}

impl_json_struct!(ResourceDemand { resource, amount });

/// Encoding of one deployable system (paper Listing 2).
#[derive(Clone, PartialEq, Debug)]
pub struct SystemSpec {
    /// Unique identifier.
    pub id: SystemId,
    /// Human-readable name.
    pub name: String,
    /// The role this system fills.
    pub category: Category,
    /// Objectives the system can achieve (`solves = [...]`).
    pub solves: Vec<Capability>,
    /// Deployment requirements (`constraints = And(...)`).
    pub requires: Vec<Requirement>,
    /// Systems that cannot coexist with this one.
    pub conflicts: Vec<SystemId>,
    /// Resources consumed when deployed.
    pub resources: Vec<ResourceDemand>,
    /// Abstract features this system contributes to the deployment (e.g.
    /// a virtual switch offloading to SmartNICs provides
    /// `"TUNNEL_OFFLOAD"`), visible to other systems' conditions.
    pub provides: Vec<Feature>,
    /// Per-deployment monetary cost (licensing/engineering), USD.
    pub cost_usd: u64,
    /// Free-form notes (not used in reasoning).
    pub notes: Option<String>,
}

impl_json_struct!(SystemSpec {
    id,
    name,
    category,
    solves,
    requires,
    conflicts,
    resources,
    provides,
    cost_usd,
    notes,
});

impl SystemSpec {
    /// Starts a builder for the given id/category.
    pub fn builder(id: impl Into<SystemId>, category: Category) -> SystemSpecBuilder {
        let id = id.into();
        SystemSpecBuilder {
            spec: SystemSpec {
                name: id.as_str().to_string(),
                id,
                category,
                solves: Vec::new(),
                requires: Vec::new(),
                conflicts: Vec::new(),
                resources: Vec::new(),
                provides: Vec::new(),
                cost_usd: 0,
                notes: None,
            },
        }
    }

    /// True when the system claims to solve `capability`.
    pub fn solves(&self, capability: &Capability) -> bool {
        self.solves.contains(capability)
    }
}

/// Fluent builder for [`SystemSpec`] (mirrors the paper's
/// `System(solves = …, constraints = …)` constructor style).
pub struct SystemSpecBuilder {
    spec: SystemSpec,
}

impl SystemSpecBuilder {
    /// Sets the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Adds a solved capability.
    pub fn solves(mut self, capability: impl Into<Capability>) -> Self {
        self.spec.solves.push(capability.into());
        self
    }

    /// Adds a named requirement.
    pub fn requires(mut self, label: impl Into<String>, condition: Condition) -> Self {
        self.spec.requires.push(Requirement::new(label, condition));
        self
    }

    /// Adds a cited requirement.
    pub fn requires_cited(
        mut self,
        label: impl Into<String>,
        condition: Condition,
        citation: impl Into<String>,
    ) -> Self {
        self.spec
            .requires
            .push(Requirement::new(label, condition).cited(citation));
        self
    }

    /// Declares a conflicting system.
    pub fn conflicts_with(mut self, other: impl Into<SystemId>) -> Self {
        self.spec.conflicts.push(other.into());
        self
    }

    /// Adds a resource demand.
    pub fn consumes(mut self, resource: Resource, amount: AmountExpr) -> Self {
        self.spec
            .resources
            .push(ResourceDemand { resource, amount });
        self
    }

    /// Declares a provided feature.
    pub fn provides(mut self, feature: impl Into<Feature>) -> Self {
        self.spec.provides.push(feature.into());
        self
    }

    /// Sets the per-deployment cost.
    pub fn cost(mut self, usd: u64) -> Self {
        self.spec.cost_usd = usd;
        self
    }

    /// Attaches free-form notes.
    pub fn notes(mut self, notes: impl Into<String>) -> Self {
        self.spec.notes = Some(notes.into());
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SystemSpec {
        self.spec
    }
}

/// Encoding of one hardware model (paper Listing 1).
#[derive(Clone, PartialEq, Debug)]
pub struct HardwareSpec {
    /// Unique identifier.
    pub id: HardwareId,
    /// Vendor-facing model name, e.g. `"Cisco Catalyst 9500-40X"`.
    pub model_name: String,
    /// Which inventory slot this model competes for.
    pub kind: HardwareKind,
    /// Boolean feature flags (`"ECN"`, `"NIC_TIMESTAMPS"`, `"P4"`, …).
    pub features: BTreeSet<Feature>,
    /// Numeric attributes keyed by canonical names
    /// (`"port_bandwidth_gbps"`, `"ports"`, `"memory_gb"`,
    /// `"max_power_w"`, `"mac_table_entries"`, `"p4_stages"`, `"cores"`).
    pub numeric: BTreeMap<String, f64>,
    /// Unit cost, USD.
    pub cost_usd: u64,
}

impl_json_struct!(HardwareSpec {
    id,
    model_name,
    kind,
    features,
    numeric,
    cost_usd,
});

impl HardwareSpec {
    /// Starts a builder.
    pub fn builder(id: impl Into<HardwareId>, kind: HardwareKind) -> HardwareSpecBuilder {
        let id = id.into();
        HardwareSpecBuilder {
            spec: HardwareSpec {
                model_name: id.as_str().to_string(),
                id,
                kind,
                features: BTreeSet::new(),
                numeric: BTreeMap::new(),
                cost_usd: 0,
            },
        }
    }

    /// Whether the model carries a feature flag.
    pub fn has_feature(&self, feature: &Feature) -> bool {
        self.features.contains(feature)
    }

    /// A numeric attribute, if present.
    pub fn numeric(&self, key: &str) -> Option<f64> {
        self.numeric.get(key).copied()
    }

    /// Capacity this model contributes per unit for a resource, derived
    /// from its numeric attributes.
    pub fn capacity(&self, resource: &Resource) -> u64 {
        let key = match resource {
            Resource::Cores => "cores",
            Resource::ServerMemoryGb => "memory_gb",
            Resource::SwitchMemoryMb => "memory_mb",
            Resource::P4Stages => "p4_stages",
            Resource::SmartNicCapacity => "smartnic_capacity",
            Resource::QosClasses => "qos_classes",
            Resource::Custom(name) => name.as_str(),
        };
        self.numeric(key)
            .map_or(0, |v| if v <= 0.0 { 0 } else { v as u64 })
    }
}

/// Fluent builder for [`HardwareSpec`].
pub struct HardwareSpecBuilder {
    spec: HardwareSpec,
}

impl HardwareSpecBuilder {
    /// Sets the vendor model name.
    pub fn model_name(mut self, name: impl Into<String>) -> Self {
        self.spec.model_name = name.into();
        self
    }

    /// Adds a feature flag.
    pub fn feature(mut self, feature: impl Into<Feature>) -> Self {
        self.spec.features.insert(feature.into());
        self
    }

    /// Sets a numeric attribute.
    pub fn numeric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.spec.numeric.insert(key.into(), value);
        self
    }

    /// Sets the unit cost.
    pub fn cost(mut self, usd: u64) -> Self {
        self.spec.cost_usd = usd;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> HardwareSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::CmpOp;

    /// The paper's Listing 2, transliterated.
    fn simon() -> SystemSpec {
        SystemSpec::builder("SIMON", Category::Monitoring)
            .name("SIMON")
            .solves("capture_delays")
            .solves("detect_queue_length")
            .requires_cited(
                "simon-needs-nic-timestamps",
                Condition::nics_have("NIC_TIMESTAMPS"),
                "Geng et al., NSDI 2019",
            )
            .consumes(Resource::Cores, AmountExpr::scaled("num_flows", 0.001))
            .build()
    }

    #[test]
    fn listing_2_transliteration() {
        let s = simon();
        assert_eq!(s.id.as_str(), "SIMON");
        assert!(s.solves(&Capability::new("capture_delays")));
        assert!(s.solves(&Capability::new("detect_queue_length")));
        assert!(!s.solves(&Capability::new("firewalling")));
        assert_eq!(s.requires.len(), 1);
        assert_eq!(
            s.requires[0].condition,
            Condition::nics_have("NIC_TIMESTAMPS")
        );
        assert!(s.requires[0].citation.as_deref().unwrap().contains("NSDI"));
        assert_eq!(s.resources.len(), 1);
    }

    /// The paper's Listing 1, transliterated.
    fn catalyst_9500_40x() -> HardwareSpec {
        HardwareSpec::builder("CISCO_CATALYST_9500_40X", HardwareKind::Switch)
            .model_name("Cisco Catalyst 9500-40X")
            .numeric("port_bandwidth_gbps", 10.0)
            .numeric("max_power_w", 950.0)
            .numeric("ports", 40.0)
            .numeric("memory_gb", 16.0)
            .numeric("mac_table_entries", 64_000.0)
            .feature("ECN")
            .cost(24_000)
            .build()
    }

    #[test]
    fn listing_1_transliteration() {
        let hw = catalyst_9500_40x();
        assert_eq!(hw.model_name, "Cisco Catalyst 9500-40X");
        assert_eq!(hw.numeric("port_bandwidth_gbps"), Some(10.0));
        assert_eq!(hw.numeric("ports"), Some(40.0));
        assert!(hw.has_feature(&Feature::new("ECN")));
        assert!(!hw.has_feature(&Feature::new("P4")));
        assert_eq!(hw.numeric("p4_stages"), None); // "N/A" in the listing
    }

    #[test]
    fn capacity_derivation() {
        let server = HardwareSpec::builder("SRV", HardwareKind::Server)
            .numeric("cores", 64.0)
            .numeric("memory_gb", 512.0)
            .build();
        assert_eq!(server.capacity(&Resource::Cores), 64);
        assert_eq!(server.capacity(&Resource::ServerMemoryGb), 512);
        assert_eq!(server.capacity(&Resource::P4Stages), 0);
    }

    #[test]
    fn builder_accumulates_everything() {
        let s = SystemSpec::builder("X", Category::CongestionControl)
            .solves("bandwidth_allocation")
            .requires("needs-ecn", Condition::switches_have("ECN"))
            .requires(
                "fast-links-only",
                Condition::param("link_speed_gbps", CmpOp::Ge, 40.0),
            )
            .conflicts_with("Y")
            .provides("PACING")
            .cost(100)
            .notes("test system")
            .build();
        assert_eq!(s.requires.len(), 2);
        assert_eq!(s.conflicts, vec![SystemId::new("Y")]);
        assert_eq!(s.provides, vec![Feature::new("PACING")]);
        assert_eq!(s.cost_usd, 100);
    }

    #[test]
    fn json_roundtrip_system_and_hardware() {
        let s = simon();
        let text = netarch_rt::json::to_string_pretty(&s);
        assert_eq!(netarch_rt::json::from_str::<SystemSpec>(&text).unwrap(), s);

        let hw = catalyst_9500_40x();
        let text = netarch_rt::json::to_string_pretty(&hw);
        assert!(text.contains("Cisco Catalyst 9500-40X"));
        assert_eq!(
            netarch_rt::json::from_str::<HardwareSpec>(&text).unwrap(),
            hw
        );
    }
}
