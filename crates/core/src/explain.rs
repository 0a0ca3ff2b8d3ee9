//! Rendering diagnoses for humans.
//!
//! The paper's §6 asks that an infeasible scenario be explained by naming
//! the conflicting requirements and by suggesting what the architect could
//! relax. Because the diagnosis is a *minimal* unsatisfiable subset,
//! dropping any single member restores feasibility — so every member is a
//! valid relaxation candidate, ranked here by how painful dropping it
//! likely is (architect pins are easiest to reconsider, physical resource
//! limits hardest).

use crate::query::{ConflictRule, Diagnosis};
use std::fmt::Write as _;

/// How painful relaxing a rule is, from easiest to hardest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RelaxationDifficulty {
    /// An architect-supplied pin — a decision, not a fact.
    Pin,
    /// A workload requirement — could be renegotiated with the app team.
    WorkloadNeed,
    /// A preference/performance bound — quality tradeoff.
    Bound,
    /// A role rule — structural choice of the scenario.
    Role,
    /// A system's documented deployment requirement — violating it means
    /// the system simply won't work.
    SystemRequirement,
    /// A hardware capacity or budget limit — physics and money.
    Capacity,
}

impl RelaxationDifficulty {
    /// Classifies a rule by its label prefix (labels are stable:
    /// `pin:…`, `workload:…`, `bound:…`, `role:…`, `req:…`,
    /// `resource:…`/`budget`/`hw:…`).
    pub fn classify(rule: &ConflictRule) -> RelaxationDifficulty {
        let label = rule.label.as_str();
        if label.starts_with("pin:") {
            RelaxationDifficulty::Pin
        } else if label.starts_with("workload:") {
            RelaxationDifficulty::WorkloadNeed
        } else if label.starts_with("bound:") {
            RelaxationDifficulty::Bound
        } else if label.starts_with("role:") {
            RelaxationDifficulty::Role
        } else if label.starts_with("req:") || label.starts_with("conflict:") {
            RelaxationDifficulty::SystemRequirement
        } else {
            RelaxationDifficulty::Capacity
        }
    }

    /// Short human phrasing.
    pub fn as_advice(self) -> &'static str {
        match self {
            RelaxationDifficulty::Pin => "reconsider this pinned decision",
            RelaxationDifficulty::WorkloadNeed => "renegotiate this workload requirement",
            RelaxationDifficulty::Bound => "lower this performance bound",
            RelaxationDifficulty::Role => "reconsider whether this role must be filled",
            RelaxationDifficulty::SystemRequirement => {
                "this is a documented system constraint; work around it with different hardware or systems"
            }
            RelaxationDifficulty::Capacity => {
                "this is a capacity/budget limit; expand the inventory or budget"
            }
        }
    }
}

/// A ranked relaxation suggestion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relaxation {
    /// The rule that could be dropped.
    pub rule: ConflictRule,
    /// Estimated difficulty.
    pub difficulty: RelaxationDifficulty,
}

/// Suggests relaxations for a diagnosis, easiest first.
pub fn suggest_relaxations(diagnosis: &Diagnosis) -> Vec<Relaxation> {
    let mut out: Vec<Relaxation> = diagnosis
        .conflicts
        .iter()
        .map(|rule| Relaxation {
            difficulty: RelaxationDifficulty::classify(rule),
            rule: rule.clone(),
        })
        .collect();
    out.sort_by(|a, b| {
        a.difficulty
            .cmp(&b.difficulty)
            .then(a.rule.label.cmp(&b.rule.label))
    });
    out
}

/// Renders a diagnosis as a human-readable report.
pub fn render_diagnosis(diagnosis: &Diagnosis) -> String {
    let mut out = String::new();
    if diagnosis.conflicts.is_empty() {
        let _ = writeln!(
            out,
            "The scenario is infeasible, but no named rule participates — \
             the base encoding itself is inconsistent (this indicates a \
             knowledge-base bug)."
        );
        return out;
    }
    let _ = writeln!(
        out,
        "The scenario is infeasible. {} rules conflict (dropping any one \
         of them restores feasibility):",
        diagnosis.conflicts.len()
    );
    for rule in &diagnosis.conflicts {
        let _ = write!(out, "  • [{}] {}", rule.label, rule.description);
        if let Some(citation) = &rule.citation {
            let _ = write!(out, " (source: {citation})");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "Suggested relaxations, easiest first:");
    for relaxation in suggest_relaxations(diagnosis) {
        let _ = writeln!(
            out,
            "  → [{}]: {}",
            relaxation.rule.label,
            relaxation.difficulty.as_advice()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(label: &str) -> ConflictRule {
        ConflictRule {
            label: label.to_string(),
            description: format!("description of {label}"),
            citation: (label.contains("req")).then(|| "Some Paper, 2020".to_string()),
        }
    }

    #[test]
    fn classification_by_label_prefix() {
        assert_eq!(
            RelaxationDifficulty::classify(&rule("pin:require:SONATA")),
            RelaxationDifficulty::Pin
        );
        assert_eq!(
            RelaxationDifficulty::classify(&rule("workload:app:needs:x")),
            RelaxationDifficulty::WorkloadNeed
        );
        assert_eq!(
            RelaxationDifficulty::classify(&rule("req:SIMON:needs-ts")),
            RelaxationDifficulty::SystemRequirement
        );
        assert_eq!(
            RelaxationDifficulty::classify(&rule("resource:cores:SRV")),
            RelaxationDifficulty::Capacity
        );
        assert_eq!(
            RelaxationDifficulty::classify(&rule("budget")),
            RelaxationDifficulty::Capacity
        );
    }

    #[test]
    fn suggestions_sorted_easiest_first() {
        let d = Diagnosis {
            conflicts: vec![
                rule("req:SIMON:needs-ts"),
                rule("pin:require:SIMON"),
                rule("workload:app:needs:monitoring"),
            ],
        };
        let suggestions = suggest_relaxations(&d);
        assert_eq!(suggestions[0].difficulty, RelaxationDifficulty::Pin);
        assert_eq!(
            suggestions[1].difficulty,
            RelaxationDifficulty::WorkloadNeed
        );
        assert_eq!(
            suggestions[2].difficulty,
            RelaxationDifficulty::SystemRequirement
        );
    }

    #[test]
    fn render_includes_rules_citations_and_advice() {
        let d = Diagnosis {
            conflicts: vec![rule("pin:require:SIMON"), rule("req:SIMON:needs-ts")],
        };
        let text = render_diagnosis(&d);
        assert!(text.contains("2 rules conflict"));
        assert!(text.contains("pin:require:SIMON"));
        assert!(text.contains("Some Paper, 2020"));
        assert!(text.contains("reconsider this pinned decision"));
    }

    #[test]
    fn render_empty_diagnosis_flags_kb_bug() {
        let text = render_diagnosis(&Diagnosis::default());
        assert!(text.contains("knowledge-base bug"));
    }
}
