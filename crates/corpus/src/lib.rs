//! # netarch-corpus
//!
//! The knowledge corpus for the HotNets '24 reproduction: "We encoded
//! over fifty systems, spread across Network Stacks, Congestion Control,
//! Network Monitoring, Firewalls, Virtual Switches, Load Balancers, and
//! Transport Protocols. In addition, we encode about 200 hardware specs
//! of servers, switches, NICs, etc, from publicly available information"
//! (paper §5.1).
//!
//! Every encoding carries provenance; rules taken verbatim from the paper
//! cite the section. See DESIGN.md substitution #4 for how the authors'
//! private encodings were reconstructed.
//!
//! The corpus is the `.narch` text under `corpus/` at the repo root, its
//! one format of record. This crate embeds that text ([`narch::SOURCES`]),
//! lowers it once per process ([`narch::document`]), and hands out
//! clones. Edit the text, then run
//! `netarch validate corpus/*.narch corpus/*/*.narch` to check the edit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;
pub mod narch;
pub mod vocab;

use netarch_core::prelude::*;

/// The full catalog: every system, hardware model, and ordering edge in
/// the corpus.
pub fn full_catalog() -> Catalog {
    narch::document().catalog.clone()
}

/// Every system encoding, in id order.
pub fn all_systems() -> Vec<SystemSpec> {
    narch::document().catalog.systems().cloned().collect()
}

/// Every hardware encoding, in id order.
pub fn all_hardware() -> Vec<HardwareSpec> {
    narch::document()
        .catalog
        .hardware_specs()
        .cloned()
        .collect()
}

/// Serializes the full catalog as pretty JSON (the interchange format the
/// paper's Listing 1 sketches).
pub fn catalog_json() -> String {
    netarch_rt::json::to_string_pretty(&narch::document().catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_claims_hold() {
        let catalog = full_catalog();
        assert!(
            catalog.num_systems() > 50,
            "paper §5.1 claims over fifty systems; corpus has {}",
            catalog.num_systems()
        );
        assert!(
            catalog.num_hardware() >= 180,
            "paper §5.1 claims about 200 hardware specs; corpus has {}",
            catalog.num_hardware()
        );
    }

    #[test]
    fn catalog_passes_referential_validation() {
        let catalog = full_catalog();
        let errors = catalog.validate();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn all_seven_paper_categories_populated() {
        let catalog = full_catalog();
        for cat in Category::builtin() {
            assert!(
                !catalog.systems_in(&cat).is_empty(),
                "category {cat} is empty"
            );
        }
    }

    #[test]
    fn no_preference_cycles_in_default_contexts() {
        use netarch_core::condition::StaticContext;
        struct Ctx(f64);
        impl StaticContext for Ctx {
            fn param(&self, name: &ParamName) -> Option<f64> {
                (name.as_str() == "link_speed_gbps").then_some(self.0)
            }
            fn workload_has(&self, _p: &Property) -> bool {
                true // worst case: every conditional edge active
            }
        }
        let catalog = full_catalog();
        let dims: std::collections::BTreeSet<Dimension> = catalog
            .order()
            .edges()
            .iter()
            .map(|e| e.dimension.clone())
            .collect();
        for speed in [10.0, 100.0] {
            for dim in &dims {
                assert_eq!(
                    catalog.order().resolve(dim, &Ctx(speed)).cycle(),
                    None,
                    "cycle on {dim} at {speed} Gbps"
                );
            }
        }
    }

    #[test]
    fn json_export_roundtrips() {
        let json = catalog_json();
        let back: Catalog = netarch_rt::json::from_str(&json).unwrap();
        assert_eq!(back.num_systems(), full_catalog().num_systems());
        assert_eq!(back.num_hardware(), full_catalog().num_hardware());
        assert!(json.contains("Cisco Catalyst 9500-40X"));
    }

    #[test]
    fn spec_size_grows_linearly_with_systems() {
        // §3.1's success metric: specification length linear in component
        // count. Check the per-system marginal stays bounded.
        let catalog = full_catalog();
        let total = catalog.spec_size();
        let components = catalog.num_systems() + catalog.num_hardware();
        let per_component = total as f64 / components as f64;
        assert!(
            per_component < 12.0,
            "spec units per component too high: {per_component:.1}"
        );
    }

    #[test]
    fn listings_come_in_id_order() {
        let ids: Vec<SystemId> = all_systems().into_iter().map(|s| s.id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "systems out of id order"
        );
        let ids: Vec<HardwareId> = all_hardware().into_iter().map(|h| h.id).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "hardware out of id order"
        );
    }
}
