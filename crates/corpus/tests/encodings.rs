//! Content checks on the committed corpus text, one module per
//! `corpus/*.narch` file: the counts, rules and features the paper's
//! listings and prose pin down. Every systems and hardware file loads on
//! its own; the ordering edges cite systems from every file, so their
//! checks read the whole corpus.
//!
//! `corpus_fingerprints_are_pinned` guards the corpus as a whole.

use netarch_core::component::{HardwareSpec, SystemSpec};
use netarch_core::prelude::*;
use netarch_corpus::vocab::{caps, feats, props};

/// Loads one embedded corpus file on its own.
fn load(path: &str) -> Catalog {
    let (_, text) = netarch_corpus::narch::SOURCES
        .iter()
        .find(|(p, _)| *p == path)
        .unwrap_or_else(|| panic!("{path} is not a corpus source"));
    netarch_dsl::load_str(text)
        .unwrap_or_else(|e| panic!("{path} does not load on its own: {e}"))
        .catalog
}

/// The systems in `corpus/systems/<file>.narch`.
fn systems_in(file: &str) -> Vec<SystemSpec> {
    load(&format!("corpus/systems/{file}.narch"))
        .systems()
        .cloned()
        .collect()
}

/// The hardware models in `corpus/hardware/<file>.narch`.
fn hardware_in(file: &str) -> Vec<HardwareSpec> {
    load(&format!("corpus/hardware/{file}.narch"))
        .hardware_specs()
        .cloned()
        .collect()
}

/// Every fingerprint of the corpus, pinned: the catalog, the §2.3 case
/// study, and its naive starting point. These are the values the corpus
/// had when the `.narch` text became its format of record, so any change
/// to what the text lowers to, or to how it is loaded, shows up here.
#[test]
fn corpus_fingerprints_are_pinned() {
    use netarch_core::fingerprint::{fingerprint_catalog, fingerprint_scenario};
    use netarch_corpus::case_study;

    let pinned = [
        (
            "catalog",
            fingerprint_catalog(&netarch_corpus::full_catalog()),
            "974d0ced660d0eb02bc51bee9411aef8",
        ),
        (
            "case study",
            fingerprint_scenario(&case_study::scenario()).full,
            "a4a3b1be2b0c40fc504f66ba7a2dd308",
        ),
        (
            "naive case study",
            fingerprint_scenario(&case_study::naive_scenario()).full,
            "61ba05ee94526889f435c5a283a46adb",
        ),
    ];
    for (what, got, want) in pinned {
        assert_eq!(
            got.to_string(),
            want,
            "the {what} fingerprint moved; if the corpus was edited on purpose, \
             update the constant in this test"
        );
    }
}

/// Network stacks: Figure 1 plus research stacks. Linux suffices below
/// ~40 Gbps (§3.1), NetChannel pays off only at ≥ 40 Gbps (§2.3), Snap's
/// Pony Express engine requires application modification (§3.1), and
/// Shenango needs interrupt-aware polling NICs and a spin core (§4.2).
mod stacks {
    use super::*;

    #[test]
    fn thirteen_stacks_all_solve_host_networking() {
        let all = systems_in("stacks");
        assert_eq!(all.len(), 13);
        for s in &all {
            assert_eq!(s.category, Category::NetworkStack);
            assert!(
                s.solves(&Capability::new(caps::HOST_NETWORKING)),
                "{}",
                s.id
            );
        }
    }

    #[test]
    fn figure1_stacks_present() {
        let ids: Vec<String> = systems_in("stacks")
            .iter()
            .map(|s| s.id.as_str().to_string())
            .collect();
        for required in [
            "ZYGOS",
            "LINUX",
            "SNAP_TCP",
            "SNAP_PONY",
            "NETCHANNEL",
            "SHENANGO",
            "DEMIKERNEL",
        ] {
            assert!(ids.contains(&required.to_string()), "missing {required}");
        }
    }

    #[test]
    fn pony_requires_app_modification() {
        let all = systems_in("stacks");
        let pony = all.iter().find(|s| s.id.as_str() == "SNAP_PONY").unwrap();
        assert!(pony
            .requires
            .iter()
            .any(|r| r.condition == Condition::workload(props::APPS_MODIFIABLE)));
        assert!(pony.provides.contains(&Feature::new(feats::PONY)));
    }

    #[test]
    fn netchannel_gated_on_40g() {
        let all = systems_in("stacks");
        let nc = all.iter().find(|s| s.id.as_str() == "NETCHANNEL").unwrap();
        assert!(nc.requires.iter().any(|r| matches!(
            &r.condition,
            Condition::Param(name, CmpOp::Ge, v) if name.as_str() == "link_speed_gbps" && *v == 40.0
        )));
    }

    #[test]
    fn shenango_needs_interrupt_polling() {
        let all = systems_in("stacks");
        let sh = all.iter().find(|s| s.id.as_str() == "SHENANGO").unwrap();
        assert!(sh
            .requires
            .iter()
            .any(|r| r.condition == Condition::nics_have(feats::INTERRUPT_POLLING)));
        // Dedicated spin core.
        assert!(sh.resources.iter().any(|d| d.resource == Resource::Cores));
    }
}

/// Congestion control: HPCC needs INT switches (§3.1), Timely and Swift
/// need NIC timestamps and a QoS class (§3.1), Annulus needs QCN and
/// WAN/DC competition (§2.3, §4.1), delay-based schemes carry the
/// scavenger caveat (§2.2, RFC 6297), and DCQCN rides on RoCEv2.
mod congestion {
    use super::*;

    #[test]
    fn fifteen_cc_systems() {
        let all = systems_in("congestion");
        assert_eq!(all.len(), 15);
        for s in &all {
            assert_eq!(s.category, Category::CongestionControl);
        }
    }

    #[test]
    fn hpcc_requires_int() {
        let all = systems_in("congestion");
        let hpcc = all.iter().find(|s| s.id.as_str() == "HPCC").unwrap();
        assert!(hpcc
            .requires
            .iter()
            .any(|r| r.condition == Condition::switches_have(feats::INT)));
    }

    #[test]
    fn annulus_carries_both_paper_conditions() {
        let all = systems_in("congestion");
        let a = all.iter().find(|s| s.id.as_str() == "ANNULUS").unwrap();
        assert!(a
            .requires
            .iter()
            .any(|r| r.condition == Condition::switches_have(feats::QCN)));
        assert!(a
            .requires
            .iter()
            .any(|r| r.condition == Condition::workload(props::WAN_TRAFFIC)));
    }

    #[test]
    fn delay_based_systems_carry_scavenger_caveat() {
        let all = systems_in("congestion");
        for id in ["VEGAS", "TIMELY", "SWIFT"] {
            let s = all.iter().find(|s| s.id.as_str() == id).unwrap();
            assert!(
                s.requires.iter().any(|r| r.label.contains("scavenger")),
                "{id} missing scavenger caveat"
            );
        }
    }

    #[test]
    fn timely_and_swift_reserve_a_qos_class() {
        let all = systems_in("congestion");
        for id in ["TIMELY", "SWIFT"] {
            let s = all.iter().find(|s| s.id.as_str() == id).unwrap();
            assert!(s
                .resources
                .iter()
                .any(|d| d.resource == Resource::QosClasses));
        }
    }

    #[test]
    fn dcqcn_depends_on_rocev2_selection() {
        let all = systems_in("congestion");
        let s = all.iter().find(|s| s.id.as_str() == "DCQCN").unwrap();
        assert!(s
            .requires
            .iter()
            .any(|r| r.condition == Condition::system("ROCEV2")));
    }
}

/// Monitoring: Listing 2's SIMON (capture_delays + detect_queue_length,
/// NIC timestamps, cores ∝ flows, plus the SmartNIC share §2.3 adds);
/// Sonata and Marple consume programmable-switch pipeline stages.
mod monitoring {
    use super::*;

    /// Listing 2's CPU_FACTOR: one collector core per 2 000 concurrent
    /// flows (a corpus assumption; the paper leaves the constant symbolic).
    const SIMON_CPU_FACTOR: f64 = 0.0005;

    #[test]
    fn nine_monitoring_systems() {
        let all = systems_in("monitoring");
        assert_eq!(all.len(), 9);
        for s in &all {
            assert_eq!(s.category, Category::Monitoring);
        }
    }

    #[test]
    fn simon_matches_listing_2() {
        let all = systems_in("monitoring");
        let simon = all.iter().find(|s| s.id.as_str() == "SIMON").unwrap();
        assert!(simon.solves(&Capability::new(caps::CAPTURE_DELAYS)));
        assert!(simon.solves(&Capability::new(caps::DETECT_QUEUE_LENGTH)));
        assert!(simon
            .requires
            .iter()
            .any(|r| r.condition == Condition::nics_have(feats::NIC_TIMESTAMPS)));
        let cores = simon
            .resources
            .iter()
            .find(|d| d.resource == Resource::Cores)
            .expect("cores demand");
        assert_eq!(
            cores.amount,
            AmountExpr::scaled("num_flows", SIMON_CPU_FACTOR)
        );
    }

    #[test]
    fn sonata_consumes_p4_stages() {
        let all = systems_in("monitoring");
        let sonata = all.iter().find(|s| s.id.as_str() == "SONATA").unwrap();
        assert!(sonata
            .resources
            .iter()
            .any(|d| d.resource == Resource::P4Stages));
        assert!(sonata
            .requires
            .iter()
            .any(|r| r.condition == Condition::switches_have(feats::P4)));
    }

    #[test]
    fn queue_length_has_multiple_providers() {
        let providers: Vec<String> = systems_in("monitoring")
            .iter()
            .filter(|s| s.solves(&Capability::new(caps::DETECT_QUEUE_LENGTH)))
            .map(|s| s.id.as_str().to_string())
            .collect();
        assert!(providers.len() >= 4, "{providers:?}");
    }
}

/// Firewalls: the edge firewall reuses the edge compute that L4 load
/// balancers provision (§1).
mod firewalls {
    use super::*;

    #[test]
    fn six_firewalls_all_solve_firewalling() {
        let all = systems_in("firewalls");
        assert_eq!(all.len(), 6);
        for s in &all {
            assert!(s.solves(&Capability::new(caps::FIREWALLING)));
        }
    }

    #[test]
    fn edge_firewall_needs_provisioned_edge() {
        let all = systems_in("firewalls");
        let edge = all.iter().find(|s| s.id.as_str() == "EDGE_FW").unwrap();
        assert!(edge.requires.iter().any(|r| matches!(
            &r.condition,
            Condition::ProvidedFeature(f) if f.as_str() == feats::EDGE_PROVISIONED
        )));
    }

    #[test]
    fn smartnic_fw_consumes_shared_capacity() {
        let all = systems_in("firewalls");
        let s = all.iter().find(|s| s.id.as_str() == "SMARTNIC_FW").unwrap();
        assert!(s
            .resources
            .iter()
            .any(|d| d.resource == Resource::SmartNicCapacity));
    }
}

/// Virtual switches: §2.3's first role.
mod vswitches {
    use super::*;

    #[test]
    fn seven_virtual_switches() {
        let all = systems_in("vswitches");
        assert_eq!(all.len(), 7);
        for s in &all {
            assert!(s.solves(&Capability::new(caps::VIRTUALIZATION)));
        }
    }

    #[test]
    fn accelnet_provides_tunnel_offload_and_uses_smartnic() {
        let all = systems_in("vswitches");
        let a = all.iter().find(|s| s.id.as_str() == "ACCELNET").unwrap();
        assert!(a.provides.contains(&Feature::new(feats::TUNNEL_OFFLOAD)));
        assert!(a
            .resources
            .iter()
            .any(|d| d.resource == Resource::SmartNicCapacity));
    }

    #[test]
    fn sriov_excludes_live_migration_workloads() {
        let all = systems_in("vswitches");
        let s = all
            .iter()
            .find(|s| s.id.as_str() == "SRIOV_PASSTHROUGH")
            .unwrap();
        assert!(s
            .requires
            .iter()
            .any(|r| r.condition == Condition::not(Condition::workload(props::LIVE_MIGRATION))));
    }
}

/// Load balancers: §2.3's chain (ECMP can leave load imbalanced; packet
/// spraying fixes it but needs NIC reorder buffers), fabric schemes that
/// need switch support, and L4 balancers that provision the edge (§1).
mod load_balancers {
    use super::*;

    #[test]
    fn ten_load_balancers() {
        assert_eq!(systems_in("load_balancers").len(), 10);
    }

    #[test]
    fn packet_spray_needs_reorder_buffers() {
        let all = systems_in("load_balancers");
        let spray = all
            .iter()
            .find(|s| s.id.as_str() == "PACKET_SPRAY")
            .unwrap();
        assert!(spray
            .requires
            .iter()
            .any(|r| r.condition == Condition::nics_have(feats::REORDER_BUFFER)));
    }

    #[test]
    fn l4_lbs_provision_the_edge() {
        let all = systems_in("load_balancers");
        for id in ["MAGLEV", "KATRAN"] {
            let s = all.iter().find(|s| s.id.as_str() == id).unwrap();
            assert!(
                s.provides.contains(&Feature::new(feats::EDGE_PROVISIONED)),
                "{id}"
            );
            assert!(s.solves(&Capability::new(caps::L4_LOAD_BALANCING)));
        }
    }

    #[test]
    fn fabric_lbs_need_switch_support() {
        let all = systems_in("load_balancers");
        for (id, feature) in [
            ("LETFLOW", feats::FLOWLET_SWITCHING),
            ("CONGA", feats::CONGA_FABRIC),
            ("HULA", feats::P4),
        ] {
            let s = all.iter().find(|s| s.id.as_str() == id).unwrap();
            assert!(
                s.requires
                    .iter()
                    .any(|r| r.condition == Condition::switches_have(feature)),
                "{id} should require switches.have({feature})"
            );
        }
    }
}

/// Transports and L2 address resolution: the §2.2 PFC-deadlock rule
/// ("PFC cannot be used with any flooding algorithms", §3.4, after Guo et
/// al., SIGCOMM 2016), with flooding and an ARP proxy to choose from.
mod transports {
    use super::*;

    #[test]
    fn eight_transport_layer_systems() {
        assert_eq!(systems_in("transports").len(), 8);
    }

    #[test]
    fn rocev2_encodes_the_pfc_deadlock_rule() {
        let all = systems_in("transports");
        let roce = all.iter().find(|s| s.id.as_str() == "ROCEV2").unwrap();
        assert!(roce
            .requires
            .iter()
            .any(|r| r.condition == Condition::not(Condition::system("ARP_FLOODING"))));
        assert!(roce
            .requires
            .iter()
            .any(|r| r.condition == Condition::switches_have(feats::PFC)));
        let deadlock_rule = roce
            .requires
            .iter()
            .find(|r| r.label == "pfc-forbids-flooding")
            .unwrap();
        assert!(deadlock_rule.citation.as_deref().unwrap().contains("Guo"));
    }

    #[test]
    fn l2_category_offers_flooding_and_proxy() {
        let all = systems_in("transports");
        let l2: Vec<&SystemSpec> = all
            .iter()
            .filter(|s| s.category == Category::Custom("l2-address-resolution".into()))
            .collect();
        assert_eq!(l2.len(), 2);
        for s in &l2 {
            assert!(s.solves(&Capability::new(caps::ADDRESS_RESOLUTION)));
        }
    }
}

/// Systems outside the seven core categories that the §5.1 queries need.
mod misc {
    use super::*;

    #[test]
    fn cxl_requires_capable_servers() {
        let all = systems_in("misc");
        assert_eq!(all.len(), 2);
        let cxl = all.iter().find(|s| s.id.as_str() == "CXL_POOL").unwrap();
        assert!(cxl.requires.iter().any(|r| matches!(
            &r.condition,
            Condition::ServerFeature(f) if f.as_str() == feats::CXL
        )));
    }
}

/// Preference orderings: Figure 1 (with its deliberate Shenango/Demikernel
/// gap), Listing 2's monitoring edges, and the §2.3 rules.
mod orderings {
    use super::*;

    fn edges() -> Vec<OrderingEdge> {
        netarch_corpus::full_catalog().order().edges().to_vec()
    }

    #[test]
    fn edges_reference_only_known_dimensions() {
        // Smoke: every edge builds and the set is non-trivial.
        let all = edges();
        assert!(all.len() >= 60, "got {}", all.len());
    }

    #[test]
    fn figure1_absence_is_preserved() {
        // No isolation edge touches both SHENANGO and DEMIKERNEL.
        let all = edges();
        let offending = all.iter().any(|e| {
            e.dimension == Dimension::Isolation
                && ((e.better.as_str() == "SHENANGO" && e.worse.as_str() == "DEMIKERNEL")
                    || (e.better.as_str() == "DEMIKERNEL" && e.worse.as_str() == "SHENANGO"))
        });
        assert!(
            !offending,
            "the paper deliberately leaves this pair incomparable"
        );
    }

    #[test]
    fn listing2_monitoring_edges_exact() {
        let all = edges();
        assert!(all
            .iter()
            .any(|e| e.dimension == Dimension::MonitoringQuality
                && e.better.as_str() == "SIMON"
                && e.worse.as_str() == "PINGMESH"));
        assert!(all.iter().any(|e| e.dimension == Dimension::DeploymentEase
            && e.better.as_str() == "PINGMESH"
            && e.worse.as_str() == "SIMON"));
    }

    #[test]
    fn netchannel_edges_are_speed_conditioned() {
        let all = edges();
        let strict = all
            .iter()
            .find(|e| {
                e.kind == EdgeKind::Strict
                    && e.better.as_str() == "NETCHANNEL"
                    && e.worse.as_str() == "LINUX"
            })
            .unwrap();
        assert_ne!(strict.condition, Condition::True);
        let equal = all
            .iter()
            .find(|e| {
                e.kind == EdgeKind::Equal
                    && e.better.as_str() == "NETCHANNEL"
                    && e.worse.as_str() == "LINUX"
            })
            .unwrap();
        assert_ne!(equal.condition, Condition::True);
    }

    #[test]
    fn dynamic_virtualization_edge_present() {
        let all = edges();
        assert!(all.iter().any(|e| {
            e.condition == Condition::CategoryFilled(Category::VirtualSwitch)
                && e.dimension == Dimension::TailLatency
        }));
    }
}

/// Switch models, Listing 1 style: the Cisco Catalyst 9500-40X exactly as
/// the paper's auto-extraction produced it, and families from
/// fixed-function through QCN-capable to programmable.
mod switches {
    use super::*;

    #[test]
    fn switch_count_and_uniqueness() {
        let all = hardware_in("switches");
        assert!(all.len() >= 38, "got {}", all.len());
        let ids: std::collections::BTreeSet<_> = all.iter().map(|h| h.id.clone()).collect();
        assert_eq!(ids.len(), all.len());
        for h in &all {
            assert_eq!(h.kind, HardwareKind::Switch);
            assert!(h.numeric("ports").unwrap() > 0.0);
            assert!(h.cost_usd > 0);
        }
    }

    #[test]
    fn listing_1_catalyst_matches_the_paper() {
        let all = hardware_in("switches");
        let c = all
            .iter()
            .find(|h| h.id.as_str() == "CISCO_CATALYST_9500_40X")
            .unwrap();
        assert_eq!(c.model_name, "Cisco Catalyst 9500-40X");
        assert_eq!(c.numeric("port_bandwidth_gbps"), Some(10.0));
        assert_eq!(c.numeric("max_power_w"), Some(950.0));
        assert_eq!(c.numeric("ports"), Some(40.0));
        assert_eq!(c.numeric("memory_mb"), Some(16_384.0)); // 16 GB
        assert_eq!(c.numeric("mac_table_entries"), Some(64_000.0));
        assert!(c.has_feature(&Feature::new(feats::ECN)));
        assert!(!c.has_feature(&Feature::new(feats::P4))); // "P4 Supported?": "No"
        assert_eq!(c.numeric("p4_stages"), None); // "N/A"
    }

    #[test]
    fn programmable_switches_expose_stages() {
        let all = hardware_in("switches");
        for h in &all {
            let p4 = h.has_feature(&Feature::new(feats::P4));
            let stages = h.numeric("p4_stages").unwrap_or(0.0);
            assert_eq!(p4, stages > 0.0, "{}: P4 flag and stages must agree", h.id);
        }
    }

    #[test]
    fn qcn_and_deep_buffer_models_exist() {
        let all = hardware_in("switches");
        assert!(all.iter().any(|h| h.has_feature(&Feature::new(feats::QCN))));
        assert!(all
            .iter()
            .any(|h| h.has_feature(&Feature::new(feats::DEEP_BUFFERS))));
        assert!(all
            .iter()
            .any(|h| h.has_feature(&Feature::new(feats::CONGA_FABRIC))));
    }
}

/// NIC models. The paper's marquee rules hinge on NIC features:
/// timestamps (Timely, Swift, Simon), reorder buffers (packet spraying),
/// interrupt-aware polling (Shenango), FPGA SmartNICs (AccelNet) and RDMA
/// (RoCE).
mod nics {
    use super::*;

    #[test]
    fn nic_count_and_uniqueness() {
        let all = hardware_in("nics");
        assert!(all.len() >= 38, "got {}", all.len());
        let ids: std::collections::BTreeSet<_> = all.iter().map(|h| h.id.clone()).collect();
        assert_eq!(ids.len(), all.len());
        for h in &all {
            assert_eq!(h.kind, HardwareKind::Nic);
        }
    }

    #[test]
    fn smartnics_expose_capacity() {
        let all = hardware_in("nics");
        for h in &all {
            let smart = h.has_feature(&Feature::new(feats::SMARTNIC_CPU))
                || h.has_feature(&Feature::new(feats::SMARTNIC_FPGA));
            let capacity = h.numeric("smartnic_capacity").unwrap_or(0.0);
            assert_eq!(smart, capacity > 0.0, "{}: SmartNIC flag vs capacity", h.id);
        }
    }

    #[test]
    fn rule_critical_feature_coverage() {
        let all = hardware_in("nics");
        let with = |f: &str| {
            all.iter()
                .filter(|h| h.has_feature(&Feature::new(f)))
                .count()
        };
        assert!(with(feats::NIC_TIMESTAMPS) >= 15, "timestamps scarce");
        assert!(with(feats::REORDER_BUFFER) >= 10, "reorder buffers scarce");
        assert!(
            with(feats::INTERRUPT_POLLING) >= 10,
            "interrupt polling scarce"
        );
        assert!(with(feats::RDMA) >= 10, "rdma scarce");
        assert!(with(feats::IWARP) >= 3, "iwarp scarce");
        assert!(with(feats::SMARTNIC_FPGA) >= 5, "fpga smartnics scarce");
        // And scarcity in the other direction: plenty of NICs *lack*
        // timestamps, so the Simon/Timely rules actually bind.
        assert!(with(feats::NIC_TIMESTAMPS) < all.len());
    }

    #[test]
    fn speeds_span_figure1_conditions() {
        let all = hardware_in("nics");
        assert!(all
            .iter()
            .any(|h| h.numeric("port_bandwidth_gbps") == Some(10.0)));
        assert!(all
            .iter()
            .any(|h| h.numeric("port_bandwidth_gbps").unwrap_or(0.0) >= 400.0));
    }
}

/// Server SKUs: a grid of CPU generations × core counts, as vendor SKU
/// sheets are laid out. Core counts feed the `Resource::Cores` capacity.
mod servers {
    use super::*;

    #[test]
    fn server_count_and_uniqueness() {
        let all = hardware_in("servers");
        assert!(all.len() >= 30, "got {}", all.len());
        let ids: std::collections::BTreeSet<_> = all.iter().map(|h| h.id.clone()).collect();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn cores_capacity_is_derivable() {
        for h in hardware_in("servers") {
            assert_eq!(h.kind, HardwareKind::Server);
            assert!(h.capacity(&Resource::Cores) >= 12);
            assert!(h.capacity(&Resource::ServerMemoryGb) >= 96);
            assert!(h.cost_usd >= 3_000);
        }
    }

    #[test]
    fn core_counts_span_small_to_huge() {
        let all = hardware_in("servers");
        let cores: Vec<u64> = all.iter().map(|h| h.capacity(&Resource::Cores)).collect();
        assert!(cores.iter().any(|&c| c <= 16));
        assert!(cores.iter().any(|&c| c >= 192));
    }
}
