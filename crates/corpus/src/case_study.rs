//! The §2.3 case study: an ML inference application.
//!
//! The architect "wants to deploy a machine learning inference
//! application … serve requests with low latency, so they want to use
//! load balancing. To ensure network delays do not interfere … they also
//! want to monitor network queue lengths." Five roles are in play:
//! virtualization, network stack, congestion control, load balancing, and
//! monitoring. Listing 3 gives the workload encoding and the objective
//! stack `Optimize(latency > Hardware cost > monitoring)`.
//!
//! The workload, inventory, roles and objectives are the text in
//! `corpus/case_study.narch`; [`batch_workload`] is the one workload that
//! only the Rust API builds.

use crate::narch;
use crate::vocab::{caps, props};
use netarch_core::prelude::*;

/// Listing 3's workload, transliterated.
pub fn inference_workload() -> Workload {
    narch::document()
        .workloads
        .iter()
        .find(|w| w.id.as_str() == "inference_app")
        .expect("corpus/case_study.narch defines inference_app")
        .clone()
}

/// A second workload for the §5.1 "support more applications" query:
/// a WAN-facing batch analytics job.
pub fn batch_workload() -> Workload {
    Workload::builder("batch_analytics")
        .name("WAN batch analytics")
        .property(props::DC_FLOWS)
        .property(props::WAN_TRAFFIC)
        .property(props::BUFFER_FILLING_TRAFFIC)
        .deployed_at(3..6)
        .peak_cores(1_600)
        .peak_bandwidth(80)
        .num_flows(20_000)
        .needs(caps::BANDWIDTH_ALLOCATION)
        .needs(caps::HOST_NETWORKING)
        .build()
}

/// The full case-study scenario with Listing 3's objective stack:
/// `Optimize(latency > Hardware cost > monitoring)`. Its inventory spans
/// server SKUs, NIC generations (plain → timestamping → SmartNIC), and
/// switch families (fixed-function → QCN-capable → programmable).
pub fn scenario() -> Scenario {
    narch::document()
        .scenario
        .clone()
        .expect("corpus/case_study.narch has a scenario block")
}

/// The §2.3 "simplest choices" starting point: OVS + Linux (Cubic) +
/// ECMP, no monitoring, fixed-function hardware. Encoded as pins over the
/// same catalog, with no objectives, so the engine can show *why* it
/// fails the latency goal.
pub fn naive_scenario() -> Scenario {
    let mut s = scenario();
    s.objectives.clear();
    for id in ["OVS", "LINUX", "CUBIC", "ECMP"] {
        s = s.with_pin(Pin::Require(SystemId::new(id)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_3_fields() {
        let w = inference_workload();
        assert_eq!(w.racks, 0..3);
        assert_eq!(w.peak_cores, 2_800);
        assert_eq!(w.peak_bandwidth_gbps, 30);
        assert!(w.has_property(&Property::new(props::DC_FLOWS)));
        assert!(w.has_property(&Property::new(props::SHORT_FLOWS)));
        assert!(w.has_property(&Property::new(props::HIGH_PRIORITY)));
        assert_eq!(w.bounds[0].better_than.as_str(), "PACKET_SPRAY");
    }

    #[test]
    fn inventory_models_exist_in_catalog() {
        let s = scenario();
        let inv = &s.inventory;
        for id in inv
            .server_candidates
            .iter()
            .chain(&inv.nic_candidates)
            .chain(&inv.switch_candidates)
        {
            assert!(s.catalog.hardware(id).is_some(), "missing {id}");
        }
    }

    #[test]
    fn objective_stack_is_listing_3() {
        let s = scenario();
        assert_eq!(
            s.objectives,
            vec![
                Objective::MaximizeDimension(Dimension::Latency),
                Objective::MinimizeCost,
                Objective::MaximizeDimension(Dimension::MonitoringQuality),
            ]
        );
    }

    #[test]
    fn naive_scenario_pins_the_simple_design() {
        let s = naive_scenario();
        assert_eq!(s.pins.len(), 4);
        assert!(s.objectives.is_empty());
    }
}
