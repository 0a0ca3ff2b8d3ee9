//! Size guards on the weighted sums the engine really encodes: the
//! binary adder of the §2.3 case study's budget rule; the case study's
//! cost objective and capacity fleet; and the cost objective of the
//! largest `exp_serve` tenant, both at the weight total and at the cap one
//! descent uses (the cost of its first model). A regression in the
//! weight-sorted, pruned merge, in the at-most-one grouping of role
//! categories and hardware slots, or in the objective's saturation shows up
//! here as a clause count, long before it shows up as latency.

use netarch_bench::serve_tenant;
use netarch_core::compile::compile_with_backend;
use netarch_core::prelude::*;
use netarch_logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch_logic::pb::{gte_outputs, PbTerm};
use netarch_logic::{ClauseSink, CollectSink, Formula, Soft, SolveBackend};

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

/// The clauses each objective level's descent adds, in the order and
/// session `Engine::optimize` runs them: every level's softs and parsimony
/// compiled first, then one descent per level under the hardened bounds
/// of the levels before it. A descent adds its totalizer, saturated at its
/// first model's cost, plus the hardened bound.
fn descent_clauses(scenario: &Scenario) -> Vec<(Objective, usize)> {
    let mut c = compile_with_backend(scenario, SolveBackend::Sequential).expect("compiles");
    let mut objectives = Vec::new();
    for level in &c.objective_levels {
        let softs = compile_softs(&mut c.encoder, level.softs.clone()).expect("no overflow");
        objectives.push((level.objective.clone(), softs));
    }
    let parsimony: Vec<Soft> = c
        .system_atoms
        .values()
        .map(|&a| Soft::new(1, Formula::not(Formula::Atom(a))))
        .collect();
    compile_softs(&mut c.encoder, parsimony).expect("no overflow");
    let mut base = c.all_selectors();
    let gate = c.encoder.new_selector();
    let mut sizes = Vec::new();
    for (objective, softs) in objectives {
        let before = c.encoder.clause_count();
        let outcome = minimize_under(&mut c.encoder, &softs, &base, gate);
        assert!(matches!(outcome, MaxSatOutcome::Optimal { .. }), "{outcome:?}");
        sizes.push((objective, c.encoder.clause_count() - before));
        base.push(softs.activation());
    }
    sizes
}

#[test]
fn case_study_cost_level_stays_under_4000_clauses() {
    // Listing 3's `latency > Hardware cost > monitoring` on the case
    // study. The cost level sums 59 terms, but its role categories and
    // hardware slots each enter the totalizer as one leaf: 31,463 clauses
    // with every term its own leaf, 3,209 grouped.
    let scenario = netarch_corpus::case_study::scenario();
    let sizes = descent_clauses(&scenario);
    let cost = sizes
        .iter()
        .find(|(objective, _)| *objective == Objective::MinimizeCost)
        .map(|&(_, clauses)| clauses)
        .expect("the case study minimizes cost");
    assert!(cost <= 4_000, "the cost level's descent added {cost} clauses: {sizes:?}");
}

#[test]
fn case_study_fleet_stays_under_2500_clauses() {
    // Capacity planning's fleet on the case study: the server count's order
    // encoding, the core-demand totalizer over role categories, and one
    // `capacity:` group per server model. 8,852 clauses with one leaf per
    // system, 1,945 grouped.
    let scenario = netarch_corpus::case_study::scenario();
    let mut c = compile_with_backend(&scenario, SolveBackend::Sequential).expect("compiles");
    let before = c.encoder.clause_count();
    c.build_fleet(&scenario).expect("the fleet builds");
    let fleet = c.encoder.clause_count() - before;
    assert!(fleet <= 2_500, "the fleet added {fleet} clauses");
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
    // Every term is its own leaf here, so this guards the merge itself.
    let terms: Vec<[PbTerm; 1]> = softs
        .iter()
        .map(|s| [PbTerm::new(s.weight, sink.fresh_lit())])
        .collect();
    let total = softs.iter().map(|s| s.weight).sum();
    gte_outputs(&mut sink, &terms, total);
    assert!(
        sink.clauses.len() <= 400_000,
        "{} clauses at the total",
        sink.clauses.len()
    );

    // What one descent adds: its totalizer, saturated at its first
    // model's cost, plus the hardened bound. 27,799 clauses with every
    // soft its own leaf, 20,458 with role categories and hardware slots
    // grouped; the bound is that plus 10%.
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
    assert!(descent <= 22_500, "the descent added {descent} clauses");
}
