//! Differential runner: every enumerated variant exercises the warm
//! session engine against a fresh-engine oracle, over every query kind
//! and over multiple *orderings* of the same query tape.
//!
//! The oracle answers are order-free by construction (one throwaway
//! engine per query), so any admissible ordering of the warm session's
//! tape must reproduce them. Traversing the orderings is what catches
//! state leaks between gated queries — a blocking clause that outlives
//! its gate, a memo keyed too coarsely — that a single fixed interleaving
//! would mask. Orderings are walked lexicographically and budget-bounded;
//! with the default 3-op tape the 6-permutation walk is exhaustive. Any
//! disagreement fails fast: the report carries the first divergence and
//! the run stops.

use crate::compile::{variant_label, variant_scenario, SweepStream};
use netarch_core::baseline::validate_design;
use netarch_core::prelude::*;
use netarch_dsl::SweepSpec;

/// One step of a variant's query tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// Feasibility (`check`).
    Check,
    /// Lexicographic optimization (`optimize`).
    Optimize,
    /// Equivalence classes up to the limit (`enumerate_designs`).
    Enumerate(usize),
    /// Rule-subset satisfiability over a mask into the label pool.
    Subset(u32),
    /// Question planning over up to the limit classes (`disambiguate`).
    Disambiguate(usize),
    /// Minimal fleet size up to the bound (`plan_capacity`).
    Capacity(u64),
}

/// Budget knobs for one differential run.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Ops per variant tape. The tape rotates through all six query
    /// kinds across consecutive variants, so every kind is covered on
    /// any window of six variants.
    pub tape_len: usize,
    /// Max orderings traversed per variant (identity ordering first).
    /// `tape_len! ≤ ordering_budget` makes the traversal exhaustive.
    pub ordering_budget: usize,
    /// Limit for `Enumerate` ops.
    pub enumerate_limit: usize,
    /// Limit for `Disambiguate` ops.
    pub disambiguate_limit: usize,
    /// Fleet bound for `Capacity` ops.
    pub capacity_max: u64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            tape_len: 3,
            ordering_budget: 6,
            enumerate_limit: 4,
            disambiguate_limit: 4,
            capacity_max: 8,
        }
    }
}

/// Outcome of a differential run.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Variants exercised.
    pub variants: usize,
    /// Warm sessions compiled (one per traversed ordering).
    pub sessions: u64,
    /// Session queries executed.
    pub queries: u64,
    /// Orderings traversed across all variants.
    pub orderings: u64,
    /// First divergence between a session and the oracle, if any
    /// (fail-fast: the run stops on it).
    pub disagreement: Option<String>,
}

/// The deterministic query tape of one variant: `tape_len` ops starting
/// at kind `index % 6`, parameters varied by the index.
pub fn variant_tape(index: usize, opts: &DiffOptions) -> Vec<QueryOp> {
    (0..opts.tape_len)
        .map(|k| match (index + k) % 6 {
            0 => QueryOp::Check,
            1 => QueryOp::Optimize,
            2 => QueryOp::Enumerate(2 + (index + k) % opts.enumerate_limit.max(1)),
            3 => QueryOp::Subset(index as u32 ^ 0b1011),
            4 => QueryOp::Disambiguate(opts.disambiguate_limit.max(1)),
            _ => QueryOp::Capacity(2 + (index as u64 % opts.capacity_max.max(1))),
        })
        .collect()
}

/// Candidate rule labels for subset queries: compiled rule labels the
/// scenario *may* produce. Absent labels filter to nothing inside
/// `check_rule_subset`, identically on both engines, so the pool can
/// over-approximate freely.
fn label_pool(scenario: &Scenario) -> Vec<String> {
    let mut pool: Vec<String> =
        scenario.roles.keys().map(|c| format!("role:{c}")).collect();
    for w in &scenario.workloads {
        for cap in &w.needs {
            pool.push(format!("workload:{}:needs:{}", w.id, cap));
        }
    }
    for pin in &scenario.pins {
        pool.push(match pin {
            Pin::Require(id) => format!("pin:require:{id}"),
            Pin::Forbid(id) => format!("pin:forbid:{id}"),
        });
    }
    for spec in scenario.catalog.systems() {
        for req in &spec.requires {
            pool.push(format!("req:{}:{}", spec.id, req.label));
        }
    }
    pool
}

/// A semantic answer fingerprint: everything two engines must agree on,
/// nothing they legitimately may not (designs and diagnoses are
/// witnesses, so they are validated, not compared).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Feasible(bool),
    Penalties(Option<Vec<u64>>),
    Classes {
        count: usize,
        /// Sorted system-set fingerprints; `None` when truncated (the
        /// enumerated subsets may then legitimately differ).
        sets: Option<Vec<Vec<String>>>,
    },
    SubsetSat(bool),
    Plan {
        classes: usize,
        truncated: bool,
        residual: usize,
        questions: usize,
    },
    Servers(Option<u64>),
}

fn class_sets(designs: &[Design]) -> Vec<Vec<String>> {
    let mut sets: Vec<Vec<String>> = designs
        .iter()
        .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
        .collect();
    sets.sort();
    sets
}

/// Runs one op on an engine, returning the semantic answer. Designs are
/// validated against the scenario by the SAT-free checker on the way out;
/// an infeasible `check`'s diagnosis is replayed as an UNSAT rule subset
/// on a fresh engine when `replay_diagnosis` is set (once per variant —
/// it compiles an extra engine).
fn run_op(
    engine: &mut Engine,
    scenario: &Scenario,
    pool: &[String],
    op: QueryOp,
    replay_diagnosis: bool,
) -> Result<Answer, String> {
    let fail = |e: CompileError| format!("engine error on {op:?}: {e}");
    match op {
        QueryOp::Check => {
            let outcome = engine.check().map_err(fail)?;
            if let Some(design) = outcome.design() {
                let violations = validate_design(scenario, design);
                if !violations.is_empty() {
                    return Err(format!("check produced an invalid design: {violations:?}"));
                }
            }
            if let Some(diagnosis) = outcome.diagnosis() {
                let labels: Vec<&str> =
                    diagnosis.conflicts.iter().map(|c| c.label.as_str()).collect();
                if labels.is_empty() {
                    return Err("infeasible check returned an empty diagnosis".into());
                }
                if replay_diagnosis {
                    let mut fresh = Engine::new(scenario.clone()).map_err(fail)?;
                    if fresh.check_rule_subset(&labels).map_err(fail)? {
                        return Err(format!(
                            "diagnosis {labels:?} is satisfiable on a fresh engine"
                        ));
                    }
                }
            }
            Ok(Answer::Feasible(outcome.design().is_some()))
        }
        QueryOp::Optimize => {
            let outcome = engine.optimize().map_err(fail)?;
            Ok(Answer::Penalties(match outcome {
                Ok(optimized) => {
                    let violations = validate_design(scenario, &optimized.design);
                    if !violations.is_empty() {
                        return Err(format!(
                            "optimize produced an invalid design: {violations:?}"
                        ));
                    }
                    Some(optimized.levels.iter().map(|l| l.penalty).collect())
                }
                Err(_) => None,
            }))
        }
        QueryOp::Enumerate(limit) => {
            let designs = engine.enumerate_designs(limit, false).map_err(fail)?;
            for d in &designs {
                let violations = validate_design(scenario, d);
                if !violations.is_empty() {
                    return Err(format!(
                        "enumerate produced an invalid design: {violations:?}"
                    ));
                }
            }
            Ok(Answer::Classes {
                count: designs.len(),
                sets: (designs.len() < limit).then(|| class_sets(&designs)),
            })
        }
        QueryOp::Subset(mask) => {
            let labels: Vec<&str> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| (mask >> (i % 32)) & 1 == 1)
                .map(|(_, l)| l.as_str())
                .collect();
            Ok(Answer::SubsetSat(engine.check_rule_subset(&labels).map_err(fail)?))
        }
        QueryOp::Disambiguate(limit) => {
            let plan = engine.disambiguate(limit).map_err(fail)?;
            Ok(Answer::Plan {
                classes: plan.classes,
                truncated: plan.truncated,
                residual: plan.residual_classes,
                questions: plan.questions.len(),
            })
        }
        QueryOp::Capacity(max) => {
            let outcome = engine.plan_capacity(max).map_err(fail)?;
            Ok(Answer::Servers(match outcome {
                Ok(plan) => Some(plan.servers_needed),
                Err(_) => None,
            }))
        }
    }
}

/// Advances `perm` to the next lexicographic permutation; false once the
/// last one has been visited.
fn next_permutation(perm: &mut [usize]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    let Some(i) = (0..perm.len() - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
        return false;
    };
    let j = (i + 1..perm.len()).rev().find(|&j| perm[j] > perm[i]).expect("successor exists");
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

/// Runs the whole stream differentially. Fails fast: the first
/// session-vs-oracle divergence (or invalid witness) is recorded in
/// [`DiffReport::disagreement`] and the run stops there.
///
/// Engine *construction* failures are surfaced as `Err` — a sweep whose
/// variants do not compile is a sweep bug, not a differential finding.
pub fn run_differential(
    spec: &SweepSpec,
    base: &Scenario,
    stream: &SweepStream,
    opts: &DiffOptions,
) -> Result<DiffReport, CompileError> {
    let mut report = DiffReport::default();
    for variant in &stream.variants {
        let scenario = variant_scenario(spec, base, &variant.picks);
        let pool = label_pool(&scenario);
        let tape = variant_tape(variant.index, opts);
        report.variants += 1;

        // Oracle: one throwaway engine per op, so the answers cannot
        // depend on any ordering.
        let mut oracle: Vec<Answer> = Vec::with_capacity(tape.len());
        for (k, &op) in tape.iter().enumerate() {
            let mut fresh = Engine::new(scenario.clone())?;
            match run_op(&mut fresh, &scenario, &pool, op, k == 0) {
                Ok(answer) => oracle.push(answer),
                Err(why) => {
                    report.disagreement = Some(format!(
                        "variant {} [{}] oracle {op:?}: {why}",
                        variant.index,
                        variant_label(spec, &variant.picks),
                    ));
                    return Ok(report);
                }
            }
        }

        let mut perm: Vec<usize> = (0..tape.len()).collect();
        let mut traversed = 0usize;
        loop {
            traversed += 1;
            report.orderings += 1;
            report.sessions += 1;
            let mut session = Engine::new(scenario.clone())?;
            for &slot in &perm {
                let op = tape[slot];
                report.queries += 1;
                let answer = match run_op(&mut session, &scenario, &pool, op, false) {
                    Ok(answer) => answer,
                    Err(why) => {
                        report.disagreement = Some(format!(
                            "variant {} [{}] ordering {perm:?} {op:?}: {why}",
                            variant.index,
                            variant_label(spec, &variant.picks),
                        ));
                        return Ok(report);
                    }
                };
                if answer != oracle[slot] {
                    report.disagreement = Some(format!(
                        "variant {} [{}] ordering {perm:?} {op:?}: session answered \
                         {answer:?}, oracle {:?}",
                        variant.index,
                        variant_label(spec, &variant.picks),
                        oracle[slot],
                    ));
                    return Ok(report);
                }
            }
            if traversed >= opts.ordering_budget || !next_permutation(&mut perm) {
                break;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_walk_lexicographically() {
        let mut perm = vec![0, 1, 2];
        let mut seen = vec![perm.clone()];
        while next_permutation(&mut perm) {
            seen.push(perm.clone());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1, 2],
                vec![0, 2, 1],
                vec![1, 0, 2],
                vec![1, 2, 0],
                vec![2, 0, 1],
                vec![2, 1, 0],
            ]
        );
    }

    #[test]
    fn tapes_cover_every_query_kind_across_six_variants() {
        let opts = DiffOptions::default();
        let mut kinds = std::collections::BTreeSet::new();
        for index in 0..6 {
            for op in variant_tape(index, &opts) {
                kinds.insert(match op {
                    QueryOp::Check => 0,
                    QueryOp::Optimize => 1,
                    QueryOp::Enumerate(_) => 2,
                    QueryOp::Subset(_) => 3,
                    QueryOp::Disambiguate(_) => 4,
                    QueryOp::Capacity(_) => 5,
                });
            }
        }
        assert_eq!(kinds.len(), 6);
    }
}
