//! # netarch-bench
//!
//! Experiment runners and benches regenerating every figure, listing, and
//! evaluation claim of the paper. Each `exp_*` binary prints the
//! paper-shaped rows recorded in EXPERIMENTS.md; the benches (on the
//! `netarch_rt::bench` harness) measure the performance dimensions (solve
//! time scaling, encoding growth, solver throughput).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netarch_core::ordering::Comparison;
use netarch_core::prelude::*;

/// Pretty-prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Renders a comparison verdict as the symbols used in Figure 1.
pub fn verdict_symbol(c: Comparison) -> &'static str {
    match c {
        Comparison::Better => "≻",
        Comparison::Worse => "≺",
        Comparison::Equal => "≈",
        Comparison::Incomparable => "⋈",
    }
}

/// Builds a scenario over the full corpus with one descriptive workload
/// and a link-speed parameter — the standard context for ordering
/// experiments.
pub fn context_scenario(link_speed_gbps: f64) -> Scenario {
    Scenario::new(netarch_corpus::full_catalog())
        .with_workload(Workload::builder("ctx").property("dc_flows").build())
        .with_param("link_speed_gbps", link_speed_gbps)
}

/// `exp_serve`'s tenant-facing base scenario over a sub-corpus of
/// `n_systems` systems, minimizing cost. Different sizes give different
/// catalogs (hence different shard affinities); per-tenant params give
/// cold traffic within one catalog.
pub fn serve_tenant(n_systems: usize, n_hardware: usize) -> Scenario {
    let catalog = subset_catalog(n_systems, n_hardware);
    let nics: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Nic)
        .iter()
        .take(3)
        .map(|h| h.id.clone())
        .collect();
    let switches: Vec<HardwareId> = catalog
        .hardware_of_kind(HardwareKind::Switch)
        .iter()
        .take(3)
        .map(|h| h.id.clone())
        .collect();
    Scenario::new(catalog)
        .with_workload(
            Workload::builder("app")
                .property("dc_flows")
                .peak_cores(200)
                .num_flows(10_000)
                .needs("host_networking")
                .build(),
        )
        .with_param("link_speed_gbps", 100.0)
        .with_objective(Objective::MinimizeCost)
        .with_inventory(Inventory {
            nic_candidates: nics,
            switch_candidates: switches,
            server_candidates: Vec::new(),
            num_servers: 16,
            num_switches: 2,
        })
}

/// A sub-catalog with the first `n_systems` systems (per category,
/// round-robin to keep all roles populated) and first `n_hardware`
/// hardware models — used by the scaling experiments.
pub fn subset_catalog(n_systems: usize, n_hardware: usize) -> Catalog {
    let full = netarch_corpus::full_catalog();
    let mut catalog = Catalog::new();
    // Round-robin over categories so every prefix spans the roles.
    let mut per_category: Vec<Vec<SystemSpec>> = Vec::new();
    let mut categories: Vec<Category> = full.systems().map(|s| s.category.clone()).collect();
    categories.sort();
    categories.dedup();
    for cat in &categories {
        per_category.push(full.systems_in(cat).into_iter().cloned().collect());
    }
    let mut taken: Vec<SystemSpec> = Vec::new();
    let mut index = 0;
    while taken.len() < n_systems {
        let mut advanced = false;
        for bucket in &per_category {
            if let Some(spec) = bucket.get(index) {
                if taken.len() < n_systems {
                    taken.push(spec.clone());
                    advanced = true;
                }
            }
        }
        if !advanced {
            break;
        }
        index += 1;
    }
    let ids: std::collections::BTreeSet<SystemId> = taken.iter().map(|s| s.id.clone()).collect();
    for mut spec in taken {
        spec.conflicts.retain(|c| ids.contains(c));
        spec.requires.retain(|r| {
            r.condition.referenced_systems().iter().all(|s| ids.contains(s))
        });
        catalog.add_system(spec).expect("unique");
    }
    for h in full.hardware_specs().take(n_hardware) {
        catalog.add_hardware(h.clone()).expect("unique");
    }
    for edge in full.order().edges() {
        if ids.contains(&edge.better) && ids.contains(&edge.worse) {
            catalog.add_ordering(edge.clone()).expect("endpoints exist");
        }
    }
    catalog
}

/// Persists an experiment's `RESULT_JSON` summary to `BENCH_<area>.json` so
/// the repo carries a perf trajectory across commits.
///
/// The file lands in `$NETARCH_BENCH_DIR` (default: the current directory,
/// i.e. the repo root when run via `cargo run`). Failure to write is a
/// warning, not an error — benches must still report on read-only checkouts.
pub fn persist_result(area: &str, summary: &netarch_rt::Json) {
    let dir = std::env::var("NETARCH_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{area}.json"));
    let mut text = netarch_rt::json::to_string_pretty(summary);
    text.push('\n');
    if let Err(err) = std::fs::write(&path, text) {
        eprintln!("warning: could not persist {}: {err}", path.display());
    } else {
        println!("persisted summary to {}", path.display());
    }
}

/// Like [`persist_result`], but gated for smoke runs: a smoke summary is
/// persisted only when `NETARCH_BENCH_DIR` is explicitly set (CI pointing
/// the output at a scratch dir for shape checks and the regression gate).
/// A bare smoke run never overwrites the committed trajectory files,
/// whose numbers come from full runs only.
pub fn persist_result_gated(area: &str, summary: &netarch_rt::Json, smoke: bool) {
    if smoke && std::env::var_os("NETARCH_BENCH_DIR").is_none() {
        println!("smoke run without NETARCH_BENCH_DIR: not persisting BENCH_{area}.json");
        return;
    }
    persist_result(area, summary);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_catalog_is_valid_at_every_size() {
        for n in [5, 10, 20, 40, 70] {
            let c = subset_catalog(n, 30);
            assert!(c.validate().is_empty(), "n={n}");
            assert!(c.num_systems() <= n);
        }
    }

    #[test]
    fn subset_spans_categories() {
        let c = subset_catalog(16, 0);
        let cats: std::collections::BTreeSet<_> =
            c.systems().map(|s| s.category.clone()).collect();
        assert!(cats.len() >= 7, "round-robin must cover roles: {cats:?}");
    }

    #[test]
    fn context_scenario_compiles() {
        let s = context_scenario(100.0);
        assert!(netarch_core::compile::compile(&s).is_ok());
    }
}
