//! Disambiguation — the paper's §6 "Explainability" extension.
//!
//! "It is likely that an architect's inputs … will be under-specified,
//! leaving … the possibility for multiple viable solutions … a future
//! version of the reasoning system should identify a minimal-effort
//! ordering for the architect to provide to make the solution unique."
//!
//! Given the equivalence classes of compliant designs (projected onto
//! system selections), [`plan_questions`] computes a short sequence of
//! role-level questions ("which monitoring system do you prefer?") that
//! pins the design down. The sequence is built greedily to minimize the
//! *worst-case* number of remaining classes after each answer — a
//! decision-tree-depth heuristic over the class set.

use crate::solution::Design;
use crate::types::{Category, SystemId};
use std::collections::{BTreeMap, BTreeSet};

/// One question to the architect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Question {
    /// The role whose selection is ambiguous.
    pub category: Category,
    /// The distinct choices observed across the (worst-case) remaining
    /// classes. Includes `None` (role left unfilled) as an option when
    /// some class omits the role.
    pub options: Vec<Option<SystemId>>,
    /// Upper bound on classes remaining after the architect answers
    /// (worst case over answers).
    pub worst_case_remaining: usize,
}

/// The disambiguation plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Disambiguation {
    /// Number of design equivalence classes examined.
    pub classes: usize,
    /// Whether the class list was truncated by the enumeration limit
    /// (the plan is then a lower bound on the questions needed).
    pub truncated: bool,
    /// Greedy question sequence; empty when the design is already unique.
    pub questions: Vec<Question>,
    /// Classes that remain indistinguishable by role-level questions
    /// (identical system selections — differing only in hardware or other
    /// projections).
    pub residual_classes: usize,
}

/// Per-class fingerprint: each category's selection (or None).
type Fingerprint = BTreeMap<Category, Option<SystemId>>;

fn fingerprint(design: &Design, categories: &BTreeSet<Category>) -> Fingerprint {
    categories
        .iter()
        .map(|cat| {
            let selection = design.selections.get(cat).and_then(|v| v.first()).cloned();
            (cat.clone(), selection)
        })
        .collect()
}

/// Plans a greedy minimal question sequence over the given design
/// classes.
pub fn plan_questions(designs: &[Design], truncated: bool) -> Disambiguation {
    let categories: BTreeSet<Category> = designs
        .iter()
        .flat_map(|d| d.selections.keys().cloned())
        .collect();
    let mut classes: Vec<Fingerprint> = designs
        .iter()
        .map(|d| fingerprint(d, &categories))
        .collect();
    classes.sort();
    classes.dedup();
    let total = classes.len();

    let mut questions = Vec::new();
    let mut remaining = classes;
    while remaining.len() > 1 {
        // Pick the category minimizing the worst-case group size.
        let mut best: Option<(Category, usize, Vec<Option<SystemId>>)> = None;
        for cat in &categories {
            let mut groups: BTreeMap<Option<SystemId>, usize> = BTreeMap::new();
            for class in &remaining {
                *groups.entry(class[cat].clone()).or_default() += 1;
            }
            if groups.len() < 2 {
                continue; // everyone agrees; asking gains nothing
            }
            let worst = groups.values().copied().max().unwrap_or(0);
            let options: Vec<Option<SystemId>> = groups.into_keys().collect();
            let better = match &best {
                None => true,
                Some((_, best_worst, _)) => worst < *best_worst,
            };
            if better {
                best = Some((cat.clone(), worst, options));
            }
        }
        let Some((category, worst_case_remaining, options)) = best else {
            break; // no category splits the rest: residual ambiguity
        };
        // Descend into the worst-case branch: the plan must work for any
        // answer, so its length is driven by the largest group.
        let mut groups: BTreeMap<Option<SystemId>, Vec<Fingerprint>> = BTreeMap::new();
        for class in remaining {
            groups
                .entry(class[&category].clone())
                .or_default()
                .push(class);
        }
        remaining = groups
            .into_values()
            .max_by_key(Vec::len)
            .unwrap_or_default();
        questions.push(Question {
            category,
            options,
            worst_case_remaining,
        });
    }

    Disambiguation {
        classes: total,
        truncated,
        questions,
        residual_classes: remaining.len(),
    }
}

/// Renders a plan for humans.
pub fn render_plan(plan: &Disambiguation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if plan.classes <= 1 {
        let _ = writeln!(out, "The design is already unique; no questions needed.");
        return out;
    }
    let _ = writeln!(
        out,
        "{} compliant design classes{}; {} question(s) pin the design down:",
        plan.classes,
        if plan.truncated { " (truncated)" } else { "" },
        plan.questions.len()
    );
    for (i, q) in plan.questions.iter().enumerate() {
        let options: Vec<String> = q
            .options
            .iter()
            .map(|o| o.as_ref().map_or("(none)".to_string(), |s| s.to_string()))
            .collect();
        let _ = writeln!(
            out,
            "  {}. which {}? options: {} (≤{} classes remain)",
            i + 1,
            q.category,
            options.join(" / "),
            q.worst_case_remaining
        );
    }
    if plan.residual_classes > 1 {
        let _ = writeln!(
            out,
            "  ({} classes stay equivalent at the system level — they differ \
             only in hardware or ancillary choices)",
            plan.residual_classes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(pairs: &[(&Category, &str)]) -> Design {
        let mut d = Design::default();
        for (cat, sys) in pairs {
            d.selections
                .entry((*cat).clone())
                .or_default()
                .push(SystemId::new(*sys));
        }
        d
    }

    #[test]
    fn unique_design_needs_no_questions() {
        let mon = Category::Monitoring;
        let designs = vec![design(&[(&mon, "SIMON")]), design(&[(&mon, "SIMON")])];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.classes, 1);
        assert!(plan.questions.is_empty());
        assert!(render_plan(&plan).contains("already unique"));
    }

    #[test]
    fn single_differing_role_needs_one_question() {
        let mon = Category::Monitoring;
        let designs = vec![
            design(&[(&mon, "SIMON")]),
            design(&[(&mon, "PINGMESH")]),
            design(&[(&mon, "SONATA")]),
        ];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.classes, 3);
        assert_eq!(plan.questions.len(), 1);
        assert_eq!(plan.questions[0].category, mon);
        assert_eq!(plan.questions[0].options.len(), 3);
        assert_eq!(plan.questions[0].worst_case_remaining, 1);
        assert_eq!(plan.residual_classes, 1);
    }

    #[test]
    fn greedy_prefers_the_most_splitting_category() {
        let mon = Category::Monitoring;
        let lb = Category::LoadBalancer;
        // Monitoring splits 2×2; LB splits 4 ways: LB first is optimal.
        let designs = vec![
            design(&[(&mon, "SIMON"), (&lb, "ECMP")]),
            design(&[(&mon, "SIMON"), (&lb, "CONGA")]),
            design(&[(&mon, "PINGMESH"), (&lb, "HULA")]),
            design(&[(&mon, "PINGMESH"), (&lb, "DRILL")]),
        ];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.questions[0].category, lb);
        assert_eq!(
            plan.questions.len(),
            1,
            "LB answer fully determines the class"
        );
    }

    #[test]
    fn multi_step_plan_descends_worst_case() {
        let mon = Category::Monitoring;
        let lb = Category::LoadBalancer;
        // Three classes: mon splits {SIMON: 2, PINGMESH: 1}; within the
        // SIMON branch LB still differs → two questions worst case.
        let designs = vec![
            design(&[(&mon, "SIMON"), (&lb, "ECMP")]),
            design(&[(&mon, "SIMON"), (&lb, "CONGA")]),
            design(&[(&mon, "PINGMESH"), (&lb, "ECMP")]),
        ];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.questions.len(), 2);
        assert_eq!(plan.residual_classes, 1);
    }

    #[test]
    fn missing_role_becomes_a_none_option() {
        let mon = Category::Monitoring;
        let designs = vec![design(&[(&mon, "SIMON")]), design(&[])];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.questions.len(), 1);
        assert!(plan.questions[0].options.contains(&None));
        assert!(render_plan(&plan).contains("(none)"));
    }

    #[test]
    fn identical_fingerprints_are_residual() {
        // Two designs with equal selections (e.g. differing hardware) are
        // one class.
        let mon = Category::Monitoring;
        let designs = vec![design(&[(&mon, "SIMON")]), design(&[(&mon, "SIMON")])];
        let plan = plan_questions(&designs, false);
        assert_eq!(plan.classes, 1);
        assert_eq!(plan.residual_classes, 1);
    }
}
