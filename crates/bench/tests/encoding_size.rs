//! Size guards on the weighted sums the engine really encodes: the
//! generalized totalizer of the §2.3 case study's budget rule, and the
//! cost objective of the largest `exp_serve` tenant, both at the weight
//! total and at the cap one descent uses (the cost of its first model).
//! A regression in the weight-sorted, pruned merge or in the objective's
//! saturation shows up here as a clause count, long before it shows up
//! as latency.

use netarch_bench::serve_tenant;
use netarch_core::compile::compile_with_backend;
use netarch_core::prelude::*;
use netarch_logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch_logic::pb::{gte_outputs, PbTerm};
use netarch_logic::{ClauseSink, CollectSink, SolveBackend};

fn clause_count(scenario: &Scenario) -> usize {
    compile_with_backend(scenario, SolveBackend::Sequential)
        .expect("compiles")
        .encoder
        .clause_count()
}

#[test]
fn case_study_budget_rule_stays_under_2500_clauses() {
    // archbench's realistic-budget op: 64 servers, a budget 10% over
    // their cheapest design. As a generalized totalizer this rule took
    // 2.0 M clauses weight-sorted and pruned, 10.36 M before that.
    let mut scenario = netarch_corpus::case_study::scenario();
    scenario.inventory.num_servers = 64;
    let budget = clause_count(&scenario.clone().with_budget(1_212_000)) - clause_count(&scenario);
    assert!(budget <= 2_500, "budget rule emitted {budget} clauses");
}

#[test]
fn serve_tenant_cost_objective_stays_small() {
    let scenario = serve_tenant(70, 60);
    let mut c = compile_with_backend(&scenario, SolveBackend::Sequential).expect("compiles");
    let softs = c
        .objective_levels
        .iter()
        .find(|level| level.objective == Objective::MinimizeCost)
        .expect("the tenant minimizes cost")
        .softs
        .clone();

    // At the weight total: the totalizer a descent would need without
    // a first model to cap it (2.60 M clauses unsorted and unpruned).
    let mut sink = CollectSink::default();
    let terms: Vec<PbTerm> = softs
        .iter()
        .map(|s| PbTerm::new(s.weight, sink.fresh_lit()))
        .collect();
    let total = softs.iter().map(|s| s.weight).sum();
    gte_outputs(&mut sink, &terms, total);
    assert!(
        sink.clauses.len() <= 400_000,
        "{} clauses at the total",
        sink.clauses.len()
    );

    // What one descent adds: its totalizer, saturated at its first
    // model's cost, plus the hardened bound.
    let base = c.all_selectors();
    let objective = compile_softs(&mut c.encoder, softs).expect("no overflow");
    let gate = c.encoder.new_selector();
    let before = c.encoder.clause_count();
    let outcome = minimize_under(&mut c.encoder, &objective, &base, gate);
    assert!(
        matches!(outcome, MaxSatOutcome::Optimal { .. }),
        "{outcome:?}"
    );
    let descent = c.encoder.clause_count() - before;
    assert!(descent <= 30_000, "the descent added {descent} clauses");
}
