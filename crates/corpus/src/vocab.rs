//! Canonical vocabulary for the knowledge corpus.
//!
//! The engine treats capabilities, features, and properties as opaque
//! tokens (paper §6: "we don't assign semantics to any individual
//! property"). The corpus nevertheless needs a *consistent* vocabulary so
//! that a system's `solves` matches a workload's `needs` and a hardware
//! feature matches a requirement. These constants are that contract.

/// Capability tokens (`solves = [...]` / workload `needs`).
pub mod caps {
    /// Dividing capacity between network participants (§2.1).
    pub const BANDWIDTH_ALLOCATION: &str = "bandwidth_allocation";
    /// End-host packet processing (a network stack).
    pub const HOST_NETWORKING: &str = "host_networking";
    /// Queue-length telemetry (Listing 2).
    pub const DETECT_QUEUE_LENGTH: &str = "detect_queue_length";
    /// Per-packet delay capture (Listing 2).
    pub const CAPTURE_DELAYS: &str = "capture_delays";
    /// Traffic filtering.
    pub const FIREWALLING: &str = "firewalling";
    /// Network virtualization / tenant overlay.
    pub const VIRTUALIZATION: &str = "virtualization";
    /// Service-level (L4) load balancing.
    pub const L4_LOAD_BALANCING: &str = "l4_load_balancing";
    /// L2 address resolution.
    pub const ADDRESS_RESOLUTION: &str = "address_resolution";
}

/// Hardware/provided feature tokens.
pub mod feats {
    /// NIC hardware timestamps (Timely/Swift/Simon dependency).
    pub const NIC_TIMESTAMPS: &str = "NIC_TIMESTAMPS";
    /// NIC-side packet reorder buffers (packet spraying dependency, §2.3).
    pub const REORDER_BUFFER: &str = "REORDER_BUFFER";
    /// NIC supports interrupt-driven polling handoff (Shenango, §4.2).
    pub const INTERRUPT_POLLING: &str = "INTERRUPT_POLLING";
    /// RDMA-capable NIC (RoCE).
    pub const RDMA: &str = "RDMA";
    /// iWARP-capable NIC.
    pub const IWARP: &str = "IWARP";
    /// A CPU-based SmartNIC.
    pub const SMARTNIC_CPU: &str = "SMARTNIC_CPU";
    /// An FPGA-based SmartNIC.
    pub const SMARTNIC_FPGA: &str = "SMARTNIC_FPGA";
    /// NIC driver supports XDP.
    pub const XDP: &str = "XDP";
    /// Switch supports ECN marking (DCTCP/DCQCN dependency).
    pub const ECN: &str = "ECN";
    /// Switch supports in-band network telemetry (HPCC dependency).
    pub const INT: &str = "INT";
    /// Switch supports QCN congestion notifications (Annulus, §2.3).
    pub const QCN: &str = "QCN";
    /// Switch supports priority flow control (RoCE/DCQCN dependency).
    pub const PFC: &str = "PFC";
    /// P4-programmable pipeline.
    pub const P4: &str = "P4";
    /// Deep packet buffers (scavenger-transport co-existence, §2.2).
    pub const DEEP_BUFFERS: &str = "DEEP_BUFFERS";
    /// Flowlet-switching support (LetFlow).
    pub const FLOWLET_SWITCHING: &str = "FLOWLET_SWITCHING";
    /// CONGA-style congestion-aware fabric ASIC.
    pub const CONGA_FABRIC: &str = "CONGA_FABRIC";
    /// Port mirroring (Everflow-class telemetry).
    pub const MIRRORING: &str = "MIRRORING";
    /// Provided (abstract): tunnel encap/decap offloaded from CPUs.
    pub const TUNNEL_OFFLOAD: &str = "TUNNEL_OFFLOAD";
    /// Provided (abstract): an edge site already provisioned with compute
    /// (the paper's §1 load-balancer-then-firewall example).
    pub const EDGE_PROVISIONED: &str = "EDGE_PROVISIONED";
    /// Provided (abstract): Snap's Pony Express transport engine active.
    pub const PONY: &str = "PONY";
    /// Server supports CXL memory expansion/pooling (§5.1 query 3).
    pub const CXL: &str = "CXL";
}

/// Workload property tokens.
pub mod props {
    /// Intra-datacenter flows (Listing 3).
    pub const DC_FLOWS: &str = "dc_flows";
    /// Mostly short flows (Listing 3).
    pub const SHORT_FLOWS: &str = "short_flows";
    /// Latency-critical (Listing 3).
    pub const HIGH_PRIORITY: &str = "high_priority";
    /// Competing WAN traffic present (Annulus condition, §4.1).
    pub const WAN_TRAFFIC: &str = "wan_traffic";
    /// Applications can be modified/recompiled (Snap+Pony condition, §3.1).
    pub const APPS_MODIFIABLE: &str = "apps_modifiable";
    /// VMs require live migration.
    pub const LIVE_MIGRATION: &str = "live_migration";
    /// Buffer-filling best-effort traffic shares the fabric (the
    /// delay-CC scavenger caveat, §2.2).
    pub const BUFFER_FILLING_TRAFFIC: &str = "buffer_filling_traffic";
    /// Deployment must use only production-hardened systems.
    pub const PRODUCTION_ONLY: &str = "production_only";
}

/// Scenario parameter names.
pub mod params {
    /// Fabric link speed, Gbit/s (Figure 1 conditions).
    pub const LINK_SPEED_GBPS: &str = "link_speed_gbps";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tokens_are_nonempty_and_unique() {
        let all = [
            super::caps::BANDWIDTH_ALLOCATION,
            super::caps::HOST_NETWORKING,
            super::caps::DETECT_QUEUE_LENGTH,
            super::caps::CAPTURE_DELAYS,
            super::caps::FIREWALLING,
            super::caps::VIRTUALIZATION,
            super::caps::L4_LOAD_BALANCING,
            super::caps::ADDRESS_RESOLUTION,
            super::feats::NIC_TIMESTAMPS,
            super::feats::REORDER_BUFFER,
            super::feats::INTERRUPT_POLLING,
            super::feats::RDMA,
            super::feats::IWARP,
            super::feats::SMARTNIC_CPU,
            super::feats::SMARTNIC_FPGA,
            super::feats::XDP,
            super::feats::ECN,
            super::feats::INT,
            super::feats::QCN,
            super::feats::PFC,
            super::feats::P4,
            super::feats::DEEP_BUFFERS,
            super::feats::FLOWLET_SWITCHING,
            super::feats::CONGA_FABRIC,
            super::feats::MIRRORING,
            super::feats::TUNNEL_OFFLOAD,
            super::feats::EDGE_PROVISIONED,
            super::feats::PONY,
            super::props::DC_FLOWS,
            super::props::SHORT_FLOWS,
            super::props::HIGH_PRIORITY,
            super::props::WAN_TRAFFIC,
            super::props::APPS_MODIFIABLE,
            super::props::LIVE_MIGRATION,
            super::props::BUFFER_FILLING_TRAFFIC,
            super::props::PRODUCTION_ONLY,
        ];
        let set: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
        assert!(all.iter().all(|t| !t.is_empty()));
    }
}
