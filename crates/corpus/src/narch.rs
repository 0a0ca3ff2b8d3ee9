//! The corpus text: the committed `corpus/*.narch` files, embedded and
//! loaded through the `netarch-dsl` frontend.
//!
//! The text is the corpus's one format of record. [`document`] parses and
//! lowers it on first use and keeps the result for the rest of the
//! process; the crate's accessors clone from it, which is cheap because a
//! cloned `Catalog` shares its content until one side mutates.

use netarch_dsl::{Loader, ScenarioDoc};
use std::sync::OnceLock;

/// Embeds each repo-relative path beside its contents.
macro_rules! embed {
    ($($path:literal),* $(,)?) => {
        &[$(($path, include_str!(concat!("../../../", $path)))),*]
    };
}

/// Every committed corpus source, as `(repo-relative path, contents)`.
pub const SOURCES: &[(&str, &str)] = embed![
    "corpus/systems/stacks.narch",
    "corpus/systems/congestion.narch",
    "corpus/systems/monitoring.narch",
    "corpus/systems/firewalls.narch",
    "corpus/systems/vswitches.narch",
    "corpus/systems/load_balancers.narch",
    "corpus/systems/transports.narch",
    "corpus/systems/misc.narch",
    "corpus/hardware/switches.narch",
    "corpus/hardware/nics.narch",
    "corpus/hardware/servers.narch",
    "corpus/orderings.narch",
    "corpus/case_study.narch",
];

/// The whole lowered corpus (catalog, case-study workload and scenario,
/// and the document's queries), loaded once per process.
///
/// # Panics
/// Never on the shipped corpus: the crate's tests load every file.
pub fn document() -> &'static ScenarioDoc {
    static DOCUMENT: OnceLock<ScenarioDoc> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let mut loader = Loader::new();
        for (path, content) in SOURCES {
            loader
                .add_source(path, content)
                .expect("committed corpus text parses");
        }
        loader.finish().expect("committed corpus text lowers")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_dsl::QuerySpec;

    #[test]
    fn corpus_document_carries_the_case_study_queries() {
        let doc = document();
        assert_eq!(doc.queries, vec![QuerySpec::Check, QuerySpec::Optimize]);
    }

    /// Formatting stability: reprinting the lowered corpus parses back to
    /// text that reprints identically (print ∘ lower is a fixpoint), and
    /// the reload preserves the catalog exactly.
    #[test]
    fn committed_text_is_canonically_formatted() {
        let doc = document();
        let reprinted = netarch_dsl::print_doc(doc);
        let mut loader = Loader::new();
        loader.add_source("<reprinted>", &reprinted).unwrap();
        let again = loader.finish().unwrap();
        assert_eq!(netarch_dsl::print_doc(&again), reprinted);
        assert_eq!(
            netarch_rt::json::to_string(&again.catalog),
            netarch_rt::json::to_string(&doc.catalog)
        );
    }
}
