//! Exploring the design space: Figure 1 comparisons, incomparability, and
//! how conditions flip the partial order.
//!
//! Run with: `cargo run --example design_space`

use netarch::core::ordering::Comparison;
use netarch::core::prelude::*;
use netarch::corpus::{full_catalog, vocab::params};

fn scenario_at(link_speed: f64, apps_modifiable: bool) -> Scenario {
    let mut w = Workload::builder("app").property("dc_flows");
    if apps_modifiable {
        w = w.property("apps_modifiable");
    }
    Scenario::new(full_catalog())
        .with_workload(w.build())
        .with_param(params::LINK_SPEED_GBPS, link_speed)
}

fn show(engine: &Engine, a: &str, b: &str, dim: Dimension) {
    let verdict = engine.compare(&SystemId::new(a), &SystemId::new(b), &dim);
    let symbol = match verdict {
        Comparison::Better => "≻",
        Comparison::Worse => "≺",
        Comparison::Equal => "≈",
        Comparison::Incomparable => "⋈ (unknown)",
    };
    println!("  {a:12} {symbol:12} {b:12}  [{dim}]");
}

fn main() {
    println!("=== Figure 1 at 10 Gbps links ===");
    let engine = Engine::new(scenario_at(10.0, false)).expect("compiles");
    show(&engine, "NETCHANNEL", "LINUX", Dimension::Throughput);
    show(&engine, "SNAP_PONY", "SNAP_TCP", Dimension::Throughput);
    show(&engine, "LINUX", "SHENANGO", Dimension::Isolation);
    show(&engine, "SHENANGO", "DEMIKERNEL", Dimension::Isolation);
    show(&engine, "LINUX", "SNAP_PONY", Dimension::AppCompatibility);

    println!("\n=== The same pairs at 100 Gbps links ===");
    let engine = Engine::new(scenario_at(100.0, false)).expect("compiles");
    show(&engine, "NETCHANNEL", "LINUX", Dimension::Throughput);
    show(&engine, "SNAP_PONY", "SNAP_TCP", Dimension::Throughput);
    show(&engine, "SHENANGO", "DEMIKERNEL", Dimension::Isolation);

    println!(
        "\nNetChannel vs Linux flips from ≈ to ≻ as the link-speed condition\n\
         activates (paper §2.3/§3.1), while Shenango vs Demikernel stays\n\
         incomparable on isolation — the knowledge base honestly reports\n\
         what the literature never measured (§3.1).\n"
    );

    println!("=== Dominance ranks drive optimization ===");
    let scenario = scenario_at(100.0, true);
    let stacks: Vec<SystemId> = scenario
        .catalog
        .systems_in(&Category::NetworkStack)
        .iter()
        .map(|s| s.id.clone())
        .collect();
    let ranks = scenario
        .catalog
        .order()
        .resolve(&Dimension::Throughput, &scenario)
        .ranks(&stacks);
    let mut sorted: Vec<(&SystemId, usize)> = ranks.into_iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("network stacks by throughput dominance rank (100 Gbps):");
    for (id, rank) in sorted {
        println!("  {rank:3}  {id}");
    }
}
