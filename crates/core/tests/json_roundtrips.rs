//! Round-trip tests for the interchange format over every core data
//! type: serialize → parse must be the identity, including on randomly
//! generated condition trees and preference orders.

use netarch_core::catalog::CatalogDelta;
use netarch_core::ordering::{OrderingEdge, PreferenceOrder};
use netarch_core::prelude::*;
use netarch_rt::json;
use netarch_rt::prop::{self, gen_vec, Config, Shrink};
use netarch_rt::{prop_assert_eq, Rng};

fn roundtrip<T: json::ToJson + json::FromJson>(value: &T) -> T {
    json::from_str(&json::to_string(value)).expect("parses back")
}

/// Shrinkable wrapper over a random condition tree.
#[derive(Clone, Debug)]
struct Cond(Condition);

fn gen_condition_depth(rng: &mut Rng, depth: u32) -> Condition {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..8u32) {
            0 => Condition::True,
            1 => Condition::False,
            2 => Condition::system(format!("S{}", rng.gen_range(0..9u32))),
            3 => Condition::CategoryFilled(Category::Monitoring),
            4 => Condition::nics_have(format!("F{}", rng.gen_range(0..4u32))),
            5 => Condition::switches_have("INT"),
            6 => Condition::workload(format!("p{}", rng.gen_range(0..4u32))),
            _ => Condition::param(
                format!("x{}", rng.gen_range(0..3u32)),
                *rng.choose(&[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq])
                    .unwrap(),
                (rng.gen_range(-1_000i64..1_000) as f64) / 8.0,
            ),
        };
    }
    let d = depth - 1;
    match rng.gen_range(0..3u32) {
        0 => Condition::not(gen_condition_depth(rng, d)),
        1 => Condition::all(gen_vec(rng, 1..=3, |r| gen_condition_depth(r, d))),
        _ => Condition::any(gen_vec(rng, 1..=3, |r| gen_condition_depth(r, d))),
    }
}

impl Shrink for Cond {
    fn shrink(&self) -> Vec<Cond> {
        match &self.0 {
            Condition::Not(inner) => vec![Cond((**inner).clone())],
            Condition::All(cs) | Condition::Any(cs) => cs.iter().map(|c| Cond(c.clone())).collect(),
            Condition::True => Vec::new(),
            _ => vec![Cond(Condition::True)],
        }
    }
}

#[test]
fn random_condition_trees_roundtrip() {
    prop::check(
        &Config::with_cases(192),
        |rng| Cond(gen_condition_depth(rng, 4)),
        |Cond(c)| {
            prop_assert_eq!(&roundtrip(c), c);
            Ok(())
        },
    );
}

#[test]
fn random_preference_orders_roundtrip() {
    prop::check(
        &Config::with_cases(128),
        |rng| {
            gen_vec(rng, 0..=10, |r| {
                (r.gen_range(0..6u32), r.gen_range(0..6u32), r.gen_bool(0.5))
            })
        },
        |edges| {
            let mut order = PreferenceOrder::new();
            for &(a, b, strict) in edges {
                let (a, b) = (
                    SystemId::new(format!("S{a}")),
                    SystemId::new(format!("S{b}")),
                );
                let edge = if strict {
                    OrderingEdge::strict(a, b, Dimension::Throughput)
                } else {
                    OrderingEdge::equal(a, b, Dimension::Isolation)
                };
                order.add(
                    edge.when(Condition::param("speed", CmpOp::Ge, 100.0))
                        .cited("test"),
                );
            }
            let back: PreferenceOrder = roundtrip(&order);
            prop_assert_eq!(back.edges(), order.edges());
            Ok(())
        },
    );
}

#[test]
fn workload_with_every_field_roundtrips() {
    let w = Workload::builder("inference_app")
        .name("Inference App")
        .property("dc_flows")
        .property("short_flows")
        .deployed_at(2..7)
        .peak_cores(2_800)
        .peak_bandwidth(30)
        .num_flows(50_000)
        .needs("load_balancing")
        .performance_bound(Dimension::LoadBalancingQuality, "PACKET_SPRAY")
        .build();
    assert_eq!(roundtrip(&w), w);
}

fn sample_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .solves("monitoring")
                .requires("needs-agents", Condition::param("cores", CmpOp::Ge, 8.0))
                .consumes(Resource::Cores, AmountExpr::scaled("num_flows", 0.001))
                .cost(500)
                .notes("host-stack telemetry")
                .build(),
        )
        .unwrap();
    catalog
        .add_system(
            SystemSpec::builder("LETFLOW", Category::LoadBalancer)
                .solves("load_balancing")
                .conflicts_with("CONGA")
                .build(),
        )
        .unwrap();
    catalog
        .add_system(
            SystemSpec::builder("CONGA", Category::LoadBalancer)
                .solves("load_balancing")
                .build(),
        )
        .unwrap();
    catalog
        .add_hardware(
            HardwareSpec::builder("TOFINO", HardwareKind::Switch)
                .model_name("Intel Tofino 2")
                .feature("P4")
                .numeric("stages", 20.0)
                .cost(14_000)
                .build(),
        )
        .unwrap();
    catalog
        .add_ordering(OrderingEdge::strict(
            SystemId::new("SIMON"),
            SystemId::new("LETFLOW"),
            Dimension::MonitoringQuality,
        ))
        .unwrap();
    catalog
}

#[test]
fn catalog_with_systems_hardware_and_order_roundtrips() {
    let catalog = sample_catalog();
    let back = roundtrip(&catalog);
    // Catalog has no PartialEq; textual equality of the canonical form
    // is the identity we care about for interchange.
    assert_eq!(json::to_string(&back), json::to_string(&catalog));
    assert_eq!(back.num_systems(), 3);
    assert_eq!(back.num_hardware(), 1);
    assert_eq!(back.order().edges().len(), 1);
}

#[test]
fn component_specs_roundtrip() {
    let catalog = sample_catalog();
    let system = catalog.system(&SystemId::new("SIMON")).unwrap();
    assert_eq!(&roundtrip(system), system);
    let hardware = catalog.hardware(&HardwareId::new("TOFINO")).unwrap();
    assert_eq!(&roundtrip(hardware), hardware);
}

#[test]
fn catalog_delta_roundtrips() {
    let delta = CatalogDelta::update_system(
        SystemSpec::builder("SIMON", Category::Monitoring)
            .cost(900)
            .build(),
    );
    let back = roundtrip(&delta);
    let mut catalog = sample_catalog();
    catalog.apply(back).unwrap();
    assert_eq!(
        catalog.system(&SystemId::new("SIMON")).unwrap().cost_usd,
        900
    );
}

#[test]
fn full_scenario_roundtrips() {
    let scenario = Scenario::new(sample_catalog())
        .with_workload(Workload::builder("app").num_flows(10_000).build())
        .with_param("link_speed_gbps", 100.0)
        .with_role(Category::Monitoring, RoleRule::Required)
        .with_objective(Objective::MaximizeDimension(Dimension::MonitoringQuality))
        .with_objective(Objective::MinimizeCost)
        .with_pin(Pin::Require(SystemId::new("SIMON")))
        .with_pin(Pin::Forbid(SystemId::new("CONGA")))
        .with_inventory(Inventory {
            switch_candidates: vec![HardwareId::new("TOFINO")],
            num_switches: 2,
            ..Inventory::default()
        })
        .with_budget(1_000_000);
    let back = roundtrip(&scenario);
    assert_eq!(
        json::to_string(&back.catalog),
        json::to_string(&scenario.catalog)
    );
    assert_eq!(back.workloads, scenario.workloads);
    assert_eq!(back.inventory, scenario.inventory);
    assert_eq!(back.params, scenario.params);
    assert_eq!(back.roles, scenario.roles);
    assert_eq!(back.objectives, scenario.objectives);
    assert_eq!(back.pins, scenario.pins);
    assert_eq!(back.budget_usd, scenario.budget_usd);
}

#[test]
fn design_roundtrips_with_resource_usage() {
    let scenario = Scenario::new(sample_catalog()).with_workload(
        Workload::builder("app")
            .num_flows(10_000)
            .peak_cores(64)
            .build(),
    );
    let design = netarch_core::solution::Design::from_model(
        &scenario,
        |id| id.as_str() == "SIMON",
        |_| false,
    );
    assert_eq!(roundtrip(&design), design);
}
