//! Workload encodings — the paper's Listing 3.
//!
//! A workload is the architect's statement of what the network must carry:
//! descriptive properties (`dc_flows`, `short_flows`, `high_priority`),
//! placement, resource peaks, the capabilities it needs solved, and
//! performance bounds expressed against the preference partial order
//! ("the load balancing must be at least as good as packet spraying").

use crate::types::{Capability, Dimension, Property, SystemId, WorkloadId};
use netarch_rt::impl_json_struct;
use std::ops::Range;

/// A lower bound on solution quality along one dimension: the selected
/// system for the dimension's role must be *strictly better than* (or at
/// least *not worse than*) the reference system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PerformanceBound {
    /// The dimension the bound constrains.
    pub dimension: Dimension,
    /// The reference system (Listing 3: `better_than = PacketSpray`).
    pub better_than: SystemId,
}

impl_json_struct!(PerformanceBound {
    dimension,
    better_than
});

/// Encoding of one workload (paper Listing 3).
#[derive(Clone, PartialEq, Debug)]
pub struct Workload {
    /// Unique identifier.
    pub id: WorkloadId,
    /// Human-readable name.
    pub name: String,
    /// Descriptive properties (`dc_flows`, `short_flows`, …).
    pub properties: Vec<Property>,
    /// Racks the workload is deployed on (`deployed_at = racks[0:3]`).
    pub racks: Range<u32>,
    /// Peak CPU cores consumed by the application itself.
    pub peak_cores: u64,
    /// Peak bandwidth, Gbit/s.
    pub peak_bandwidth_gbps: u64,
    /// Approximate concurrent flow count (drives per-flow resource rules).
    pub num_flows: u64,
    /// Capabilities the architecture must provide for this workload.
    pub needs: Vec<Capability>,
    /// Quality floors against the preference order.
    pub bounds: Vec<PerformanceBound>,
}

impl_json_struct!(Workload {
    id,
    name,
    properties,
    racks,
    peak_cores,
    peak_bandwidth_gbps,
    num_flows,
    needs,
    bounds,
});

impl Workload {
    /// Starts a builder.
    pub fn builder(id: impl Into<WorkloadId>) -> WorkloadBuilder {
        let id = id.into();
        WorkloadBuilder {
            workload: Workload {
                name: id.as_str().to_string(),
                id,
                properties: Vec::new(),
                racks: 0..0,
                peak_cores: 0,
                peak_bandwidth_gbps: 0,
                num_flows: 0,
                needs: Vec::new(),
                bounds: Vec::new(),
            },
        }
    }

    /// Whether the workload carries `property`.
    pub fn has_property(&self, property: &Property) -> bool {
        self.properties.contains(property)
    }
}

/// Fluent builder for [`Workload`].
pub struct WorkloadBuilder {
    workload: Workload,
}

impl WorkloadBuilder {
    /// Sets the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.workload.name = name.into();
        self
    }

    /// Adds a descriptive property.
    pub fn property(mut self, property: impl Into<Property>) -> Self {
        self.workload.properties.push(property.into());
        self
    }

    /// Sets the rack placement.
    pub fn deployed_at(mut self, racks: Range<u32>) -> Self {
        self.workload.racks = racks;
        self
    }

    /// Sets peak core usage.
    pub fn peak_cores(mut self, cores: u64) -> Self {
        self.workload.peak_cores = cores;
        self
    }

    /// Sets peak bandwidth (Gbit/s).
    pub fn peak_bandwidth(mut self, gbps: u64) -> Self {
        self.workload.peak_bandwidth_gbps = gbps;
        self
    }

    /// Sets the concurrent flow count.
    pub fn num_flows(mut self, flows: u64) -> Self {
        self.workload.num_flows = flows;
        self
    }

    /// Adds a required capability.
    pub fn needs(mut self, capability: impl Into<Capability>) -> Self {
        self.workload.needs.push(capability.into());
        self
    }

    /// Adds a performance bound (`set_performance_bound` in Listing 3).
    pub fn performance_bound(
        mut self,
        dimension: Dimension,
        better_than: impl Into<SystemId>,
    ) -> Self {
        self.workload.bounds.push(PerformanceBound {
            dimension,
            better_than: better_than.into(),
        });
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Workload {
        self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Listing 3, transliterated.
    fn inference_app() -> Workload {
        Workload::builder("inference_app")
            .property("dc_flows")
            .property("short_flows")
            .property("high_priority")
            .deployed_at(0..3)
            .peak_cores(2800)
            .peak_bandwidth(30)
            .num_flows(50_000)
            .needs("load_balancing")
            .performance_bound(Dimension::LoadBalancingQuality, "PACKET_SPRAY")
            .build()
    }

    #[test]
    fn listing_3_transliteration() {
        let w = inference_app();
        assert_eq!(w.racks, 0..3);
        assert_eq!(w.peak_cores, 2800);
        assert_eq!(w.peak_bandwidth_gbps, 30);
        assert!(w.has_property(&Property::new("dc_flows")));
        assert!(w.has_property(&Property::new("high_priority")));
        assert!(!w.has_property(&Property::new("wan_traffic")));
        assert_eq!(w.bounds.len(), 1);
        assert_eq!(w.bounds[0].dimension, Dimension::LoadBalancingQuality);
        assert_eq!(w.bounds[0].better_than.as_str(), "PACKET_SPRAY");
    }

    #[test]
    fn json_roundtrip() {
        let w = inference_app();
        let text = netarch_rt::json::to_string(&w);
        assert_eq!(netarch_rt::json::from_str::<Workload>(&text).unwrap(), w);
    }
}
