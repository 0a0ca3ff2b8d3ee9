//! Benchmark for experiment E1: Figure 1 ordering queries — resolving a
//! dimension's order (its dominance closure), pairwise comparisons, and
//! rank computation over the full corpus.

use netarch_bench::context_scenario;
use netarch_core::prelude::*;
use netarch_rt::bench::{black_box, Harness};

fn main() {
    let scenario = context_scenario(100.0);
    let stacks: Vec<SystemId> = scenario
        .catalog
        .systems_in(&Category::NetworkStack)
        .iter()
        .map(|s| s.id.clone())
        .collect();
    let order = scenario.catalog.order();
    let throughput = order.resolve(&Dimension::Throughput, &scenario);

    let mut h = Harness::new("fig1_ordering");

    h.bench("ordering/resolve_dimension", || {
        black_box(order.resolve(&Dimension::Throughput, &scenario))
    });

    h.bench("ordering/pairwise_compare", || {
        let mut verdicts = 0usize;
        for a in &stacks {
            for x in &stacks {
                if a != x {
                    black_box(throughput.compare(a, x));
                    verdicts += 1;
                }
            }
        }
        verdicts
    });

    h.bench("ordering/ranks_full_dimension", || {
        black_box(throughput.ranks(&stacks))
    });

    h.finish();
}
