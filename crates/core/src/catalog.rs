//! The knowledge catalog: the machine-readable compendium of systems,
//! hardware, and preference rules that the paper envisions the community
//! curating (§1, §3.3).

use crate::component::{HardwareSpec, SystemSpec};
use crate::error::CatalogError;
use crate::fingerprint::Fingerprint;
use crate::ordering::{OrderingEdge, PreferenceOrder};
use crate::types::{Capability, Category, HardwareId, HardwareKind, SystemId};
use netarch_rt::impl_json_struct;
use netarch_rt::json::{field, FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The knowledge catalog.
///
/// Clones are cheap: they share one copy of the content until one of
/// them mutates, which then copies it (copy-on-write). The content digest
/// ([`crate::fingerprint::fingerprint_catalog`]) is memoized beside the
/// shared content, so every clone of an unmodified catalog, on any
/// thread, computes it at most once between them.
#[derive(Clone, Default)]
pub struct Catalog {
    content: Arc<Content>,
}

#[derive(Clone, Default)]
struct Content {
    systems: BTreeMap<SystemId, SystemSpec>,
    hardware: BTreeMap<HardwareId, HardwareSpec>,
    order: PreferenceOrder,
    /// Digest of the three maps above; emptied by every mutation.
    digest: OnceLock<Fingerprint>,
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("systems", &self.content.systems)
            .field("hardware", &self.content.hardware)
            .field("order", &self.content.order)
            .finish()
    }
}

impl ToJson for Catalog {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("systems".to_string(), self.content.systems.to_json()),
            ("hardware".to_string(), self.content.hardware.to_json()),
            ("order".to_string(), self.content.order.to_json()),
        ])
    }
}

impl FromJson for Catalog {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let content = Content {
            systems: field(j, "systems")?,
            hardware: field(j, "hardware")?,
            order: field(j, "order")?,
            digest: OnceLock::new(),
        };
        Ok(Catalog { content: Arc::new(content) })
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The one way to mutable content: unshares it from other clones and
    /// forgets the memoized digest.
    fn content_mut(&mut self) -> &mut Content {
        let content = Arc::make_mut(&mut self.content);
        content.digest = OnceLock::new();
        content
    }

    /// The memoized content digest, shared by every clone of this content.
    pub(crate) fn digest_memo(&self) -> &OnceLock<Fingerprint> {
        &self.content.digest
    }

    /// Registers a system encoding; rejects duplicate ids.
    pub fn add_system(&mut self, spec: SystemSpec) -> Result<(), CatalogError> {
        if self.content.systems.contains_key(&spec.id) {
            return Err(CatalogError::DuplicateSystem(spec.id));
        }
        self.content_mut().systems.insert(spec.id.clone(), spec);
        Ok(())
    }

    /// Registers a hardware encoding; rejects duplicate ids.
    pub fn add_hardware(&mut self, spec: HardwareSpec) -> Result<(), CatalogError> {
        if self.content.hardware.contains_key(&spec.id) {
            return Err(CatalogError::DuplicateHardware(spec.id));
        }
        self.content_mut().hardware.insert(spec.id.clone(), spec);
        Ok(())
    }

    /// Adds a preference edge. Both endpoints must already be registered —
    /// rules-of-thumb about unknown systems are probably typos.
    pub fn add_ordering(&mut self, edge: OrderingEdge) -> Result<(), CatalogError> {
        for endpoint in [&edge.better, &edge.worse] {
            if !self.content.systems.contains_key(endpoint) {
                return Err(CatalogError::UnknownSystem(endpoint.clone()));
            }
        }
        self.content_mut().order.add(edge);
        Ok(())
    }

    /// Looks up a system.
    pub fn system(&self, id: &SystemId) -> Option<&SystemSpec> {
        self.content.systems.get(id)
    }

    /// Looks up a hardware model.
    pub fn hardware(&self, id: &HardwareId) -> Option<&HardwareSpec> {
        self.content.hardware.get(id)
    }

    /// All systems, ordered by id.
    pub fn systems(&self) -> impl Iterator<Item = &SystemSpec> {
        self.content.systems.values()
    }

    /// All hardware, ordered by id.
    pub fn hardware_specs(&self) -> impl Iterator<Item = &HardwareSpec> {
        self.content.hardware.values()
    }

    /// Systems of a category.
    pub fn systems_in(&self, category: &Category) -> Vec<&SystemSpec> {
        self.systems().filter(|s| &s.category == category).collect()
    }

    /// Systems claiming a capability.
    pub fn systems_solving(&self, capability: &Capability) -> Vec<&SystemSpec> {
        self.systems().filter(|s| s.solves(capability)).collect()
    }

    /// Hardware models of a kind.
    pub fn hardware_of_kind(&self, kind: HardwareKind) -> Vec<&HardwareSpec> {
        self.hardware_specs().filter(|h| h.kind == kind).collect()
    }

    /// The preference order.
    pub fn order(&self) -> &PreferenceOrder {
        &self.content.order
    }

    /// Number of systems.
    pub fn num_systems(&self) -> usize {
        self.content.systems.len()
    }

    /// Number of hardware models.
    pub fn num_hardware(&self) -> usize {
        self.content.hardware.len()
    }

    /// Validates referential integrity: every system id mentioned in
    /// conflicts, conditions, and ordering edges must be registered.
    /// Returns all dangling references.
    pub fn validate(&self) -> Vec<CatalogError> {
        let systems = &self.content.systems;
        let mut errors = Vec::new();
        for spec in systems.values() {
            for other in &spec.conflicts {
                if !systems.contains_key(other) {
                    errors.push(CatalogError::DanglingReference {
                        from: spec.id.clone(),
                        to: other.clone(),
                    });
                }
            }
            for req in &spec.requires {
                for referenced in req.condition.referenced_systems() {
                    if !systems.contains_key(referenced) {
                        errors.push(CatalogError::DanglingReference {
                            from: spec.id.clone(),
                            to: referenced.clone(),
                        });
                    }
                }
            }
        }
        errors
    }

    /// Total size of the specification in "rule units": systems count each
    /// requirement/conflict/resource/capability, hardware each feature and
    /// numeric attribute, orderings one each. The paper's §3.1 success
    /// metric is that this grows linearly with the component count.
    pub fn spec_size(&self) -> usize {
        let system_units: usize = self
            .systems()
            .map(|s| {
                1 + s.solves.len() + s.requires.len() + s.conflicts.len() + s.resources.len()
                    + s.provides.len()
            })
            .sum();
        let hardware_units: usize = self
            .hardware_specs()
            .map(|h| 1 + h.features.len() + h.numeric.len())
            .sum();
        system_units + hardware_units + self.order().edges().len()
    }
}

/// A modular catalog update — the paper's §6 "Proof modularity": "it is
/// possible for a new system (or a new version of an old system) to
/// update the properties it provides" without re-deriving anything else.
///
/// Upserts replace whole encodings by id (encodings are self-contained —
/// no semantics are attached to individual properties, so replacing one
/// is local). Removals drop the encoding and every ordering edge touching
/// it; if any *remaining* system still references the removed one (in a
/// conflict or condition), the delta is rejected so the knowledge base
/// can never silently dangle.
#[derive(Clone, Default, Debug)]
pub struct CatalogDelta {
    /// Systems to add or replace (matched by id).
    pub upsert_systems: Vec<SystemSpec>,
    /// Systems to remove.
    pub remove_systems: Vec<SystemId>,
    /// Hardware to add or replace (matched by id).
    pub upsert_hardware: Vec<HardwareSpec>,
    /// Hardware to remove.
    pub remove_hardware: Vec<HardwareId>,
    /// Ordering edges to append.
    pub add_orderings: Vec<OrderingEdge>,
}

impl_json_struct!(CatalogDelta {
    upsert_systems,
    remove_systems,
    upsert_hardware,
    remove_hardware,
    add_orderings,
});

impl CatalogDelta {
    /// A delta that replaces one system encoding (the common "new version
    /// of an old system" case).
    pub fn update_system(spec: SystemSpec) -> CatalogDelta {
        CatalogDelta { upsert_systems: vec![spec], ..CatalogDelta::default() }
    }
}

impl Catalog {
    /// Applies a delta atomically: on error the catalog is unchanged.
    pub fn apply(&mut self, delta: CatalogDelta) -> Result<(), CatalogError> {
        let mut next = self.clone();
        let content = next.content_mut();
        for id in &delta.remove_systems {
            if content.systems.remove(id).is_none() {
                return Err(CatalogError::UnknownSystem(id.clone()));
            }
        }
        for spec in delta.upsert_systems {
            content.systems.insert(spec.id.clone(), spec);
        }
        for id in &delta.remove_hardware {
            if content.hardware.remove(id).is_none() {
                return Err(CatalogError::UnknownHardware(id.clone()));
            }
        }
        for spec in delta.upsert_hardware {
            content.hardware.insert(spec.id.clone(), spec);
        }
        // Drop edges touching removed systems; then append new edges.
        let removed: std::collections::BTreeSet<&SystemId> =
            delta.remove_systems.iter().collect();
        let kept: Vec<OrderingEdge> = content
            .order
            .edges()
            .iter()
            .filter(|e| !removed.contains(&e.better) && !removed.contains(&e.worse))
            .cloned()
            .collect();
        content.order = PreferenceOrder::new();
        for e in kept {
            content.order.add(e);
        }
        for e in delta.add_orderings {
            for endpoint in [&e.better, &e.worse] {
                if !content.systems.contains_key(endpoint) {
                    return Err(CatalogError::UnknownSystem(endpoint.clone()));
                }
            }
            content.order.add(e);
        }
        // Referential integrity of the result.
        let errors = next.validate();
        if let Some(first) = errors.into_iter().next() {
            return Err(first);
        }
        *self = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ordering::OrderingEdge;
    use crate::types::Dimension;

    fn catalog_with(names: &[&str]) -> Catalog {
        let mut c = Catalog::new();
        for n in names {
            c.add_system(SystemSpec::builder(*n, Category::NetworkStack).build())
                .unwrap();
        }
        c
    }

    #[test]
    fn duplicate_system_rejected() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .add_system(SystemSpec::builder("LINUX", Category::NetworkStack).build())
            .unwrap_err();
        assert!(matches!(err, CatalogError::DuplicateSystem(_)));
    }

    #[test]
    fn ordering_requires_known_endpoints() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .add_ordering(OrderingEdge::strict("LINUX", "GHOST", Dimension::Throughput))
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownSystem(id) if id.as_str() == "GHOST"));
    }

    #[test]
    fn category_and_capability_lookup() {
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .solves("detect_queue_length")
                .build(),
        )
        .unwrap();
        c.add_system(
            SystemSpec::builder("ECMP", Category::LoadBalancer)
                .solves("load_balancing")
                .build(),
        )
        .unwrap();
        assert_eq!(c.systems_in(&Category::Monitoring).len(), 1);
        assert_eq!(c.systems_in(&Category::Firewall).len(), 0);
        assert_eq!(
            c.systems_solving(&Capability::new("load_balancing"))[0].id.as_str(),
            "ECMP"
        );
    }

    #[test]
    fn validate_finds_dangling_conflicts_and_conditions() {
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("A", Category::Transport)
                .conflicts_with("MISSING")
                .requires("needs-ghost", Condition::system("GHOST"))
                .build(),
        )
        .unwrap();
        let errors = c.validate();
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn delta_upsert_replaces_one_encoding_locally() {
        // §6 proof modularity: a new version of SIMON changes only SIMON.
        let mut c = Catalog::new();
        c.add_system(
            SystemSpec::builder("SIMON", Category::Monitoring)
                .requires("v1-rule", Condition::nics_have("NIC_TIMESTAMPS"))
                .build(),
        )
        .unwrap();
        c.add_system(SystemSpec::builder("PINGMESH", Category::Monitoring).build())
            .unwrap();
        c.add_ordering(OrderingEdge::strict("SIMON", "PINGMESH", Dimension::MonitoringQuality))
            .unwrap();
        let v2 = SystemSpec::builder("SIMON", Category::Monitoring)
            .requires("v2-rule", Condition::nics_have("SMARTNIC_CPU"))
            .build();
        c.apply(CatalogDelta::update_system(v2)).unwrap();
        let simon = c.system(&SystemId::new("SIMON")).unwrap();
        assert_eq!(simon.requires[0].label, "v2-rule");
        // The ordering and the other system are untouched.
        assert_eq!(c.order().edges().len(), 1);
        assert!(c.system(&SystemId::new("PINGMESH")).is_some());
    }

    #[test]
    fn delta_removal_drops_touching_edges() {
        let mut c = catalog_with(&["A", "B", "C"]);
        c.add_ordering(OrderingEdge::strict("A", "B", Dimension::Throughput)).unwrap();
        c.add_ordering(OrderingEdge::strict("B", "C", Dimension::Throughput)).unwrap();
        c.apply(CatalogDelta {
            remove_systems: vec![SystemId::new("B")],
            ..CatalogDelta::default()
        })
        .unwrap();
        assert!(c.system(&SystemId::new("B")).is_none());
        assert_eq!(c.order().edges().len(), 0, "both edges touched B");
    }

    #[test]
    fn delta_rejecting_dangling_reference_leaves_catalog_unchanged() {
        let mut c = catalog_with(&["A"]);
        c.add_system(
            SystemSpec::builder("D", Category::Transport).conflicts_with("A").build(),
        )
        .unwrap();
        // Removing A would leave D's conflict dangling.
        let err = c
            .apply(CatalogDelta {
                remove_systems: vec![SystemId::new("A")],
                ..CatalogDelta::default()
            })
            .unwrap_err();
        assert!(matches!(err, CatalogError::DanglingReference { .. }));
        assert!(c.system(&SystemId::new("A")).is_some(), "atomicity: rollback");
    }

    #[test]
    fn delta_new_system_with_edges_in_one_step() {
        let mut c = catalog_with(&["LINUX"]);
        c.apply(CatalogDelta {
            upsert_systems: vec![SystemSpec::builder("NEWSTACK", Category::NetworkStack).build()],
            add_orderings: vec![OrderingEdge::strict("NEWSTACK", "LINUX", Dimension::Throughput)],
            ..CatalogDelta::default()
        })
        .unwrap();
        assert_eq!(c.num_systems(), 2);
        assert_eq!(c.order().edges().len(), 1);
    }

    #[test]
    fn delta_edge_to_unknown_system_rejected() {
        let mut c = catalog_with(&["LINUX"]);
        let err = c
            .apply(CatalogDelta {
                add_orderings: vec![OrderingEdge::strict("GHOST", "LINUX", Dimension::Throughput)],
                ..CatalogDelta::default()
            })
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownSystem(_)));
    }

    #[test]
    fn delta_removing_unknown_hardware_names_it() {
        let mut c = Catalog::new();
        let err = c
            .apply(CatalogDelta {
                remove_hardware: vec![HardwareId::new("GHOST")],
                ..CatalogDelta::default()
            })
            .unwrap_err();
        assert_eq!(err, CatalogError::UnknownHardware(HardwareId::new("GHOST")));
        assert_eq!(err.to_string(), "unknown hardware GHOST");
    }

    #[test]
    fn clones_share_content_and_digest_until_one_mutates() {
        let original = catalog_with(&["A", "B"]);
        let digest = crate::fingerprint::fingerprint_catalog(&original);
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.content, &clone.content));
        assert_eq!(clone.digest_memo().get(), Some(&digest), "clones share the memo");

        // A rejected mutation neither unshares nor forgets.
        clone
            .add_system(SystemSpec::builder("A", Category::NetworkStack).build())
            .unwrap_err();
        assert!(Arc::ptr_eq(&original.content, &clone.content));

        clone.add_ordering(OrderingEdge::strict("A", "B", Dimension::Throughput)).unwrap();
        assert!(!Arc::ptr_eq(&original.content, &clone.content));
        assert_eq!(clone.digest_memo().get(), None, "a mutation forgets the digest");
        assert_eq!(original.digest_memo().get(), Some(&digest));
        assert_eq!(original.order().edges().len(), 0);
    }

    #[test]
    fn debug_prints_content_not_the_memo() {
        let digested = catalog_with(&["A"]);
        crate::fingerprint::fingerprint_catalog(&digested);
        assert_eq!(format!("{digested:?}"), format!("{:?}", catalog_with(&["A"])));
        assert!(!format!("{digested:?}").contains("digest"));
    }

    #[test]
    fn spec_size_grows_linearly_per_added_system() {
        let mut c = Catalog::new();
        let mut sizes = Vec::new();
        for i in 0..10 {
            c.add_system(
                SystemSpec::builder(format!("S{i}"), Category::Transport)
                    .solves("cap")
                    .requires("r", Condition::True)
                    .build(),
            )
            .unwrap();
            sizes.push(c.spec_size());
        }
        let deltas: Vec<usize> = sizes.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == deltas[0]), "growth not linear: {deltas:?}");
    }
}
