//! Experiment E1 — regenerate **Figure 1**: the partial ordering of
//! network stacks over throughput / isolation / application-modification,
//! with its conditional edges and deliberate absences.
//!
//! Prints the full pairwise comparison matrix at 10 and 100 Gbps and
//! verifies the paper-stated edges.

use netarch_bench::{context_scenario, section, verdict_symbol};
use netarch_core::ordering::Comparison;
use netarch_core::prelude::*;

const FIG1_STACKS: [&str; 7] = [
    "ZYGOS", "LINUX", "SNAP_TCP", "SNAP_PONY", "NETCHANNEL", "SHENANGO", "DEMIKERNEL",
];

fn matrix(scenario: &Scenario, dim: &Dimension) {
    let order = scenario.catalog.order().resolve(dim, scenario);
    print!("{:12}", "");
    for b in FIG1_STACKS {
        print!("{b:>12}");
    }
    println!();
    for a in FIG1_STACKS {
        print!("{a:12}");
        for b in FIG1_STACKS {
            if a == b {
                print!("{:>12}", "—");
                continue;
            }
            let c = order.compare(&SystemId::new(a), &SystemId::new(b));
            print!("{:>12}", verdict_symbol(c));
        }
        println!();
    }
}

fn main() {
    for speed in [10.0, 100.0] {
        let scenario = context_scenario(speed);
        for dim in [
            Dimension::Throughput,
            Dimension::Isolation,
            Dimension::AppCompatibility,
        ] {
            section(&format!("Figure 1 [{dim}] at {speed} Gbps"));
            matrix(&scenario, &dim);
        }
    }

    section("Paper-stated edge checks");
    let slow = context_scenario(10.0);
    let fast = context_scenario(100.0);
    let checks: Vec<(&str, &str, &str, Dimension, &Scenario, Comparison)> = vec![
        ("NetChannel ≈ Linux below 40G", "NETCHANNEL", "LINUX", Dimension::Throughput, &slow, Comparison::Equal),
        ("NetChannel ≻ Linux at/above 40G", "NETCHANNEL", "LINUX", Dimension::Throughput, &fast, Comparison::Better),
        ("Pony ≻ TCP engine (throughput)", "SNAP_PONY", "SNAP_TCP", Dimension::Throughput, &fast, Comparison::Better),
        ("TCP engine ≻ Pony (app-compat)", "SNAP_TCP", "SNAP_PONY", Dimension::AppCompatibility, &fast, Comparison::Better),
        ("Linux ≻ Shenango (isolation)", "LINUX", "SHENANGO", Dimension::Isolation, &fast, Comparison::Better),
        ("Shenango ⋈ Demikernel (isolation — deliberate gap)", "SHENANGO", "DEMIKERNEL", Dimension::Isolation, &fast, Comparison::Incomparable),
    ];
    let mut pass = 0;
    for (label, a, b, dim, scenario, expected) in &checks {
        let got = scenario.catalog.order().compare(
            &SystemId::new(*a),
            &SystemId::new(*b),
            dim,
            *scenario,
        );
        let ok = got == *expected;
        pass += usize::from(ok);
        println!("  [{}] {label}: got {got:?}", if ok { "PASS" } else { "FAIL" });
    }
    println!("\n{pass}/{} paper-stated edges reproduced", checks.len());
    assert_eq!(pass, checks.len(), "Figure 1 reproduction incomplete");
}
