//! Integration test for experiment E1: the Figure 1 partial ordering over
//! network stacks, edge-for-edge, including the paper's deliberate
//! absences and the conditional flips.

use netarch::core::ordering::Comparison;
use netarch::core::prelude::*;
use netarch::corpus::{full_catalog, vocab::params};

fn ctx(link_speed: f64) -> Scenario {
    Scenario::new(full_catalog())
        .with_workload(Workload::builder("app").property("dc_flows").build())
        .with_param(params::LINK_SPEED_GBPS, link_speed)
}

fn cmp(s: &Scenario, a: &str, b: &str, dim: Dimension) -> Comparison {
    s.catalog
        .order()
        .compare(&SystemId::new(a), &SystemId::new(b), &dim, s)
}

#[test]
fn throughput_edges_flip_at_40gbps() {
    let slow = ctx(10.0);
    let fast = ctx(100.0);
    // "Linux is usually sufficiently performant at low link rates" (§3.1).
    assert_eq!(cmp(&slow, "NETCHANNEL", "LINUX", Dimension::Throughput), Comparison::Equal);
    assert_eq!(cmp(&fast, "NETCHANNEL", "LINUX", Dimension::Throughput), Comparison::Better);
    // Exactly at the threshold: ≥ 40 counts as fast.
    let edge = ctx(40.0);
    assert_eq!(cmp(&edge, "NETCHANNEL", "LINUX", Dimension::Throughput), Comparison::Better);
}

#[test]
fn pony_beats_tcp_engine_unconditionally_on_throughput() {
    for speed in [10.0, 40.0, 100.0] {
        let s = ctx(speed);
        assert_eq!(
            cmp(&s, "SNAP_PONY", "SNAP_TCP", Dimension::Throughput),
            Comparison::Better,
            "at {speed} Gbps"
        );
    }
}

#[test]
fn isolation_edges_match_the_paper() {
    let s = ctx(100.0);
    // §2.3: "Shenango offers low latencies but less process isolation".
    assert_eq!(cmp(&s, "LINUX", "SHENANGO", Dimension::Isolation), Comparison::Better);
    assert_eq!(cmp(&s, "SHENANGO", "LINUX", Dimension::Isolation), Comparison::Worse);
    // §3.1: "there is no arrow between Shenango and Demikernel comparing
    // their isolation properties because we couldn't find a comparison".
    assert_eq!(
        cmp(&s, "SHENANGO", "DEMIKERNEL", Dimension::Isolation),
        Comparison::Incomparable
    );
    assert_eq!(
        cmp(&s, "DEMIKERNEL", "SHENANGO", Dimension::Isolation),
        Comparison::Incomparable
    );
}

#[test]
fn app_modification_prefers_unmodified_stacks() {
    let s = ctx(100.0);
    assert_eq!(
        cmp(&s, "LINUX", "SNAP_PONY", Dimension::AppCompatibility),
        Comparison::Better
    );
    assert_eq!(
        cmp(&s, "SNAP_TCP", "SNAP_PONY", Dimension::AppCompatibility),
        Comparison::Better
    );
    assert_eq!(
        cmp(&s, "LINUX", "SNAP_TCP", Dimension::AppCompatibility),
        Comparison::Equal
    );
}

#[test]
fn transitive_chains_resolve_through_equalities() {
    let fast = ctx(100.0);
    // SNAP_PONY ≻ SNAP_TCP ≻ LINUX (fast links) ⇒ SNAP_PONY ≻ LINUX.
    assert_eq!(cmp(&fast, "SNAP_PONY", "LINUX", Dimension::Throughput), Comparison::Better);
    // At slow links SNAP_TCP ≻ LINUX edge is inactive, but the equal edge
    // NETCHANNEL ≈ LINUX lets strictness travel: SNAP_* vs NETCHANNEL?
    let slow = ctx(10.0);
    assert_eq!(
        cmp(&slow, "SNAP_PONY", "NETCHANNEL", Dimension::Throughput),
        Comparison::Incomparable,
        "no path at slow speed"
    );
}

#[test]
fn listing2_monitoring_ordering_is_bidirectionally_honest() {
    let s = ctx(100.0);
    assert_eq!(
        cmp(&s, "SIMON", "PINGMESH", Dimension::MonitoringQuality),
        Comparison::Better
    );
    assert_eq!(
        cmp(&s, "SIMON", "PINGMESH", Dimension::DeploymentEase),
        Comparison::Worse
    );
    // And on a dimension nobody compared them: incomparable.
    assert_eq!(
        cmp(&s, "SIMON", "PINGMESH", Dimension::Throughput),
        Comparison::Incomparable
    );
}

#[test]
fn every_stack_pair_comparison_is_antisymmetric() {
    let s = ctx(100.0);
    let stacks: Vec<SystemId> = s
        .catalog
        .systems_in(&Category::NetworkStack)
        .iter()
        .map(|x| x.id.clone())
        .collect();
    for dim in [Dimension::Throughput, Dimension::Isolation, Dimension::AppCompatibility] {
        let order = s.catalog.order().resolve(&dim, &s);
        for a in &stacks {
            for b in &stacks {
                if a == b {
                    continue;
                }
                let ab = order.compare(a, b);
                let ba = order.compare(b, a);
                let expected = match ab {
                    Comparison::Better => Comparison::Worse,
                    Comparison::Worse => Comparison::Better,
                    Comparison::Equal => Comparison::Equal,
                    Comparison::Incomparable => Comparison::Incomparable,
                };
                assert_eq!(ba, expected, "{a} vs {b} on {dim}");
            }
        }
    }
}
