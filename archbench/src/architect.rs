//! `architect` and `architect-2t`: one architect iterating on the §2.3
//! case study over the full `.narch` corpus, closed loop, one client.
//!
//! Each op applies a seeded what-if edit, compiles a fresh engine, answers
//! one query and renders the answer. The two workloads run the same tape
//! on the sequential backend and on the deterministic 2-worker portfolio.

use std::collections::BTreeMap;
use std::time::Instant;

use netarch_core::baseline::validate_design;
use netarch_core::compile::{compile_with_backend, Compiled};
use netarch_core::prelude::*;
use netarch_core::query::Outcome as Verdict;
use netarch_logic::maxsat::{compile_softs, minimize_under, MaxSatOutcome};
use netarch_logic::{Formula, PortfolioOptions, Soft, SolveBackend};
use netarch_rt::Rng;
use netarch_sat::SolveResult;

use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Distinct ops on the tape, 26 of each query kind; the closed loop
/// cycles through them.
pub const TAPE_LEN: usize = 130;

/// The tape index of the realistic-budget check (a check slot).
const BUDGET_OP: usize = 0;

/// The realistic budget: 10% over the cheapest design of the case study
/// at 64 servers ($1,101,900).
const BUDGET_USD: u64 = 1_212_000;

/// Whole passes a run makes at least: two passes leave more than ten
/// samples beyond p95.
const MIN_PASSES: usize = 2;

/// Ops between two timed set-ups: 13 set-ups a pass, spread over it.
const SETUP_EVERY: usize = 10;

const DIGESTS: &str = include_str!("../architect_digests.txt");

/// The backend a workload pins: sequential, or the deterministic
/// 2-worker portfolio that runs the parallel query loops.
pub fn backend(two_threads: bool) -> SolveBackend {
    if two_threads {
        SolveBackend::Portfolio(PortfolioOptions {
            num_threads: 2,
            deterministic: true,
            ..PortfolioOptions::default()
        })
    } else {
        SolveBackend::Sequential
    }
}

/// The question an op asks.
#[derive(Clone, Copy, Debug)]
enum Query {
    Check,
    Optimize,
    Enumerate(usize),
    Disambiguate(usize),
    Capacity(u64),
}

impl Query {
    fn name(self) -> &'static str {
        match self {
            Query::Check => "check",
            Query::Optimize => "optimize",
            Query::Enumerate(_) => "enumerate",
            Query::Disambiguate(_) => "disambiguate",
            Query::Capacity(_) => "capacity",
        }
    }
}

/// One tape entry: the edited scenario and the question.
struct Op {
    scenario: Scenario,
    query: Query,
}

/// Witness-free digest of an answer plus the designs to validate.
pub struct Answer {
    pub digest: String,
    /// Designs with the scenario size they were extracted at (capacity
    /// plans size the fleet to the answer).
    pub designs: Vec<(Design, Option<u64>)>,
}

/// Loads and lowers the full `.narch` corpus and returns the case study.
pub fn load_case_study(tracer: &mut Tracer) -> Result<Scenario, String> {
    let open = tracer.enter("dsl.load");
    let mut loader = netarch_dsl::Loader::new();
    let mut doc = Ok(());
    for (path, content) in netarch_corpus::narch::SOURCES {
        doc = loader.add_source(path, content).map_err(|e| e.to_string());
        if doc.is_err() {
            break;
        }
    }
    let doc = doc.and_then(|()| loader.finish().map_err(|e| e.to_string()));
    tracer.exit(open);
    doc?.scenario
        .ok_or_else(|| "corpus has no scenario block".into())
}

/// The tape: `TAPE_LEN` what-if edits of the case study, each paired
/// with a query, drawn once from [`crate::DEFAULT_SEED`]. Tapes drawn
/// from other seeds differ in their mix of heavy ops, which moved
/// `ops_per_s` by 31% over five seeds; with one tape, every run does the
/// same work and `--seed` orders the visits.
///
/// The mix is even: op `i` asks query kind `i % 5`, and each of its one
/// or two edits is drawn uniformly from the six edit kinds. Drawn budgets
/// ($10k-$50k) lie below any design's cost, so they run the MUS
/// diagnosis path. One op, [`BUDGET_OP`], asks the what-if a realistic
/// budget poses: does a design of 64 servers fit a budget 10% over their
/// cheapest one? `compile_budget`'s totalizer grows by about 8 clauses
/// per dollar (10.4 M clauses here), so that check takes seconds where
/// the other ops take milliseconds. Optimize and capacity under that
/// budget take 3.7-6.1 s sequential and over 20 s on the portfolio, more
/// than a run can hold.
fn tape(base: &Scenario) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(crate::DEFAULT_SEED ^ 0xA4C1_7EC7);
    let systems: Vec<SystemId> = base
        .roles
        .keys()
        .flat_map(|cat| base.catalog.systems_in(cat))
        .map(|s| s.id.clone())
        .collect();
    let objectives = base.objectives.clone();
    (0..TAPE_LEN)
        .map(|i| {
            let mut scenario = base.clone();
            for _ in 0..rng.gen_range(1..=2u32) {
                match rng.gen_range(0..6u32) {
                    0 => {
                        let speed =
                            [10.0, 25.0, 40.0, 100.0, 200.0, 400.0][rng.gen_range(0..6usize)];
                        scenario = scenario.with_param("link_speed_gbps", speed);
                    }
                    1 => {
                        scenario.inventory.num_servers =
                            [16, 32, 64, 96, 128, 256][rng.gen_range(0..6usize)]
                    }
                    2 => {
                        let id = systems[rng.gen_range(0..systems.len())].clone();
                        scenario = scenario.with_pin(Pin::Require(id));
                    }
                    3 => {
                        let id = systems[rng.gen_range(0..systems.len())].clone();
                        scenario = scenario.with_pin(Pin::Forbid(id));
                    }
                    4 => scenario = scenario.with_budget(rng.gen_range(1u64..=5) * 10_000),
                    _ => {
                        let mut order = objectives.clone();
                        rng.shuffle(&mut order);
                        order.truncate(rng.gen_range(1..=order.len().max(1)));
                        scenario.objectives = order;
                    }
                }
            }
            let query = match i % 5 {
                0 => Query::Check,
                1 => Query::Optimize,
                2 => Query::Enumerate(rng.gen_range(2..=4usize)),
                3 => Query::Disambiguate(4),
                _ => Query::Capacity([64, 128, 256][rng.gen_range(0..3usize)]),
            };
            if i == BUDGET_OP {
                scenario = base.clone().with_budget(BUDGET_USD);
                scenario.inventory.num_servers = 64;
            }
            Op { scenario, query }
        })
        .collect()
}

/// Per-op counters read from the engine after the op (traced run only).
#[derive(Default)]
pub struct Counters {
    clauses: u64,
    objective_clauses: u64,
    objective_vars: u64,
    descent_solves: u64,
    sat: netarch_sat::Stats,
    portfolio_solves: u64,
}

impl Counters {
    pub fn absorb_engine(&mut self, engine: &Engine) {
        let s = engine.stats();
        self.clauses += s.clauses as u64;
        self.sat.solves += s.session_solves;
        self.sat.conflicts += s.conflicts;
        self.sat.learnt_clauses += s.learnt_clauses;
        self.sat.subsumed += s.subsumed;
        self.sat.eliminated_vars += s.eliminated_vars;
        self.sat.vivified += s.vivified;
        self.portfolio_solves += s.portfolio_solves;
    }

    fn absorb_compiled(&mut self, compiled: &Compiled) {
        self.clauses += compiled.stats.clauses as u64;
        self.sat.absorb(&solver_totals(compiled));
        self.portfolio_solves += compiled.encoder.portfolio_solve_count();
    }

    pub fn insert_into(&self, out: &mut Outcome) {
        let m = &mut out.metrics;
        *m.entry("core.clauses").or_default() += self.clauses as f64;
        *m.entry("logic.objective_clauses").or_default() += self.objective_clauses as f64;
        *m.entry("logic.objective_vars").or_default() += self.objective_vars as f64;
        *m.entry("logic.descent_solves").or_default() += self.descent_solves as f64;
        *m.entry("sat.solves").or_default() += self.sat.solves as f64;
        *m.entry("sat.conflicts").or_default() += self.sat.conflicts as f64;
        *m.entry("sat.learnt_clauses").or_default() += self.sat.learnt_clauses as f64;
        *m.entry("sat.subsumed").or_default() += self.sat.subsumed as f64;
        *m.entry("sat.eliminated_vars").or_default() += self.sat.eliminated_vars as f64;
        *m.entry("sat.vivified").or_default() += self.sat.vivified as f64;
        *m.entry("sat.portfolio_solves").or_default() += self.portfolio_solves as f64;
    }
}

/// Session solver plus parallel-worker effort, as `Engine::stats` sums it.
fn solver_totals(compiled: &Compiled) -> netarch_sat::Stats {
    let mut total = *compiled.encoder.solver().stats();
    total.absorb(&compiled.encoder.parallel_worker_stats());
    total
}

fn class_digest(designs: &[Design], limit: usize) -> String {
    let mut classes: Vec<String> = designs
        .iter()
        .map(|d| {
            d.systems()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    classes.sort();
    if designs.len() < limit {
        format!("{} exhaustive [{}]", designs.len(), classes.join(" "))
    } else {
        format!("{} truncated", designs.len())
    }
}

fn infeasible(diagnosis: &Diagnosis) -> Result<String, String> {
    if diagnosis.conflicts.is_empty() {
        Err("infeasible answer with an empty diagnosis".into())
    } else {
        Ok("infeasible".into())
    }
}

/// Runs one op: fresh engine, query, rendered answer. Under an enabled
/// tracer, optimize runs through [`optimize_mirror`] so its inner layers
/// get spans of their own.
fn run_op(
    op: &Op,
    scenario: Scenario,
    backend: &SolveBackend,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<Answer, String> {
    if tracer.enabled() && matches!(op.query, Query::Optimize) {
        return optimize_mirror(&scenario, backend, tracer, counters);
    }
    let open = tracer.enter("core.compile");
    let engine = Engine::with_backend(scenario, backend.clone());
    tracer.exit(open);
    let mut engine = engine.map_err(|e| format!("compile: {e}"))?;
    let e = |e: CompileError| e.to_string();
    let mut rendered = String::new();
    let mut designs = Vec::new();
    let digest = match op.query {
        Query::Check => {
            let outcome = tracer.time("core.check", || engine.check()).map_err(e)?;
            tracer.time("core.render", || match &outcome {
                Verdict::Feasible(d) => rendered = d.to_string(),
                Verdict::Infeasible(diag) => rendered = render_diagnosis(diag),
            });
            match outcome {
                Verdict::Feasible(d) => {
                    designs.push((d, None));
                    "feasible".to_string()
                }
                Verdict::Infeasible(diag) => infeasible(&diag)?,
            }
        }
        Query::Optimize => {
            let result = tracer
                .time("core.optimize", || engine.optimize())
                .map_err(e)?;
            tracer.time("core.render", || match &result {
                Ok(o) => rendered = render_optimized(&o.design, o.levels.iter().map(|l| l.penalty)),
                Err(diag) => rendered = render_diagnosis(diag),
            });
            match result {
                Ok(o) => {
                    designs.push((o.design, None));
                    format!(
                        "{:?}",
                        o.levels.iter().map(|l| l.penalty).collect::<Vec<_>>()
                    )
                }
                Err(diag) => infeasible(&diag)?,
            }
        }
        Query::Enumerate(limit) => {
            let found = tracer
                .time("core.enumerate", || engine.enumerate_designs(limit, false))
                .map_err(e)?;
            tracer.time("core.render", || {
                rendered = found
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            });
            let digest = class_digest(&found, limit);
            designs.extend(found.into_iter().map(|d| (d, None)));
            digest
        }
        Query::Disambiguate(limit) => {
            let plan = tracer
                .time("core.disambiguate", || engine.disambiguate(limit))
                .map_err(e)?;
            tracer.time("core.render", || rendered = render_plan(&plan));
            if plan.truncated {
                format!("{} truncated", plan.classes)
            } else {
                format!(
                    "{} questions {} residual {}",
                    plan.classes,
                    plan.questions.len(),
                    plan.residual_classes
                )
            }
        }
        Query::Capacity(max) => {
            let result = tracer
                .time("core.capacity", || engine.plan_capacity(max))
                .map_err(e)?;
            tracer.time("core.render", || match &result {
                Ok(plan) => rendered = format!("{} servers\n{}", plan.servers_needed, plan.design),
                Err(diag) => rendered = render_diagnosis(diag),
            });
            match result {
                Ok(plan) => {
                    designs.push((plan.design, Some(plan.servers_needed)));
                    format!("{} servers", plan.servers_needed)
                }
                Err(diag) => infeasible(&diag)?,
            }
        }
    };
    std::hint::black_box(rendered);
    if tracer.enabled() {
        counters.absorb_engine(&engine);
    }
    Ok(Answer {
        digest: format!("{} {digest}", op.query.name()),
        designs,
    })
}

fn render_optimized(design: &Design, penalties: impl Iterator<Item = u64>) -> String {
    let levels: Vec<String> = penalties.map(|p| p.to_string()).collect();
    format!("penalties {}\n{design}", levels.join(" > "))
}

/// `Engine::optimize` rebuilt from public calls so its layers can be
/// timed apart: compile, objective encoding (one `compile_softs` per
/// level plus parsimony), then one `minimize_under` descent per level.
/// It makes the same solver calls in the same order, so it must reach the
/// same penalties; the traced run checks that it does.
pub fn optimize_mirror(
    scenario: &Scenario,
    backend: &SolveBackend,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<Answer, String> {
    let open = tracer.enter("core.compile");
    let compiled = compile_with_backend(scenario, backend.clone());
    tracer.exit(open);
    let mut compiled = compiled.map_err(|e| format!("compile: {e}"))?;
    let open = tracer.enter("core.optimize");
    let result = optimize_compiled(&mut compiled, scenario, tracer, counters);
    tracer.exit(open);
    counters.absorb_compiled(&compiled);
    let (penalties, design) = match result? {
        Some(found) => found,
        None => {
            return Ok(Answer {
                digest: "optimize infeasible".into(),
                designs: Vec::new(),
            })
        }
    };
    let rendered = tracer.time("core.render", || {
        render_optimized(&design, penalties.iter().copied())
    });
    std::hint::black_box(rendered);
    Ok(Answer {
        digest: format!("optimize {penalties:?}"),
        designs: vec![(design, None)],
    })
}

fn optimize_compiled(
    c: &mut Compiled,
    scenario: &Scenario,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<Option<(Vec<u64>, Design)>, String> {
    let mut base = c.all_selectors();
    if c.encoder.solve_with_backend(&base) != SolveResult::Sat {
        let ids = c.groups.ids();
        let mus = c.groups.find_mus(&mut c.encoder, &ids).unwrap_or_default();
        if mus.is_empty() {
            return Err("infeasible optimize with an empty diagnosis".into());
        }
        return Ok(None);
    }
    let clauses = c.encoder.clause_count();
    let vars = c.encoder.solver().num_vars();
    let mut levels = Vec::with_capacity(c.objective_levels.len());
    for level in &c.objective_levels {
        let open = tracer.enter("logic.objective_encode");
        let compiled = compile_softs(&mut c.encoder, level.softs.clone());
        tracer.exit(open);
        levels.push(compiled.map_err(|e| e.to_string())?);
    }
    let parsimony: Vec<Soft> = c
        .system_atoms
        .values()
        .map(|&a| Soft::new(1, Formula::not(Formula::Atom(a))))
        .collect();
    let open = tracer.enter("logic.objective_encode");
    let parsimony = compile_softs(&mut c.encoder, parsimony);
    tracer.exit(open);
    let parsimony = parsimony.map_err(|e| e.to_string())?;
    counters.objective_clauses += (c.encoder.clause_count() - clauses) as u64;
    counters.objective_vars += (c.encoder.solver().num_vars() - vars) as u64;

    let gate = c.encoder.new_selector();
    let solves = solver_totals(c).solves;
    let mut penalties = Vec::with_capacity(levels.len());
    for softs in levels.iter().chain([&parsimony]) {
        let open = tracer.enter("logic.descent");
        let outcome = minimize_under(&mut c.encoder, softs, &base, gate);
        tracer.exit(open);
        match outcome {
            MaxSatOutcome::Optimal { cost, .. } => penalties.push(cost),
            other => return Err(format!("descent ended {other:?}")),
        }
        base.push(softs.activation());
    }
    penalties.pop(); // parsimony is not a reported level
    counters.descent_solves += solver_totals(c).solves - solves;
    let design = Design::from_model(
        scenario,
        |id| {
            c.system_atoms
                .get(id)
                .and_then(|&a| c.encoder.atom_value(a))
                .unwrap_or(false)
        },
        |id| {
            c.hardware_atoms
                .get(id)
                .and_then(|&a| c.encoder.atom_value(a))
                .unwrap_or(false)
        },
    );
    c.encoder.retire(gate);
    Ok(Some((penalties, design)))
}

/// Validates every design with the SAT-free checker; returns the first
/// violation found.
fn validate(op: &Op, answer: &Answer) -> Result<(), String> {
    for (design, servers) in &answer.designs {
        let mut scenario;
        let checked = match servers {
            Some(n) => {
                scenario = op.scenario.clone();
                scenario.inventory.num_servers = *n;
                &scenario
            }
            None => &op.scenario,
        };
        let violations = validate_design(checked, design);
        if !violations.is_empty() {
            return Err(format!(
                "{} returned an invalid design: {violations:?}",
                op.query.name()
            ));
        }
    }
    Ok(())
}

/// Expected digests of the tape, by tape index.
fn stored_digests() -> Result<Vec<String>, String> {
    let digests: Vec<String> = DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_once(' ').map_or("", |(_, d)| d).to_string())
        .collect();
    if digests.len() != TAPE_LEN {
        return Err(format!(
            "architect_digests.txt holds {} digests, want {TAPE_LEN}",
            digests.len()
        ));
    }
    Ok(digests)
}

/// Writes the tape's digests beside the benchmark.
pub fn record_digests() -> Result<(), String> {
    let base = load_case_study(&mut Tracer::new(false))?;
    let ops = tape(&base);
    let mut text = String::from(
        "# Expected answer digests of the architect tape, one per tape index.\n\
         # Regenerate with `archbench --record-digests`.\n",
    );
    for (i, op) in ops.iter().enumerate() {
        let answer = run_op(
            op,
            op.scenario.clone(),
            &backend(false),
            &mut Tracer::new(false),
            &mut Counters::default(),
        )?;
        validate(op, &answer)?;
        text.push_str(&format!("{i} {}\n", answer.digest));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("architect_digests.txt");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The order in which the closed loop visits the tape.
fn visit_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..TAPE_LEN).collect();
    Rng::seed_from_u64(seed ^ 0x0DE2_0001).shuffle(&mut order);
    order
}

/// Checks one op's answer against the reference and the validator.
fn check(
    out: &mut Outcome,
    op: &Op,
    index: usize,
    answer: &Result<Answer, String>,
    expected: &str,
) {
    match answer {
        Err(e) => out.fail(format!("op {index} ({}): {e}", op.query.name())),
        Ok(a) if a.digest != expected => out.fail(format!(
            "op {index}: answered `{}`, expected `{expected}`",
            a.digest
        )),
        Ok(a) => {
            if let Err(e) = validate(op, a) {
                out.fail(format!("op {index}: {e}"));
            }
        }
    }
}

pub fn run(args: &Args, two_threads: bool) -> Result<Outcome, String> {
    let backend = backend(two_threads);
    let mut out = Outcome::default();
    if args.trace {
        return run_traced(args, &backend);
    }
    let base = load_case_study(&mut Tracer::new(false))?;
    let ops = tape(&base);
    let order = visit_order(args.seed);

    let mut untraced = Tracer::new(false);
    let mut counters = Counters::default();
    let mut latencies = Vec::new();
    let mut answers: Vec<(usize, Result<Answer, String>)> = Vec::new();
    let (setup_s, walls) = crate::run_passes(
        args.seconds,
        MIN_PASSES,
        || load_case_study(&mut Tracer::new(false)),
        drop,
        |sample_setup| {
            for (visit, &index) in order.iter().enumerate() {
                if visit % SETUP_EVERY == 0 {
                    sample_setup()?;
                }
                let scenario = ops[index].scenario.clone();
                let t0 = Instant::now();
                let answer = run_op(
                    &ops[index],
                    scenario,
                    &backend,
                    &mut untraced,
                    &mut counters,
                );
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                answers.push((index, answer));
            }
            Ok(())
        },
    )?;
    crate::end_to_end(&mut out, setup_s, &latencies, &walls)?;

    // Checks, outside the timed region. Every answer must match the
    // stored digest; a design already validated for its op is not
    // validated again.
    let expected = stored_digests()?;
    let mut seen: BTreeMap<usize, Vec<Design>> = BTreeMap::new();
    out.attempted = answers.len() as u64;
    for (index, answer) in &answers {
        let known = seen.entry(*index).or_default();
        let done = answer.as_ref().is_ok_and(|a| {
            a.digest == expected[*index] && a.designs.iter().all(|(d, _)| known.contains(d))
        });
        if !done {
            check(&mut out, &ops[*index], *index, answer, &expected[*index]);
            if let Ok(a) = answer {
                known.extend(a.designs.iter().map(|(d, _)| d.clone()));
            }
        }
    }
    Ok(out)
}

/// An untraced pass (warm-up, and the reference answers), a traced pass,
/// then a second untraced pass as the overhead baseline.
fn run_traced(args: &Args, backend: &SolveBackend) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let base = load_case_study(&mut tracer)?;
    let ops = tape(&base);
    let order = visit_order(args.seed);
    let expected = stored_digests()?;
    let untraced_pass = || -> Vec<Result<Answer, String>> {
        let mut answers: Vec<_> = (0..TAPE_LEN).map(|_| Err(String::new())).collect();
        for &i in &order {
            let (mut plain, mut ignored) = (Tracer::new(false), Counters::default());
            answers[i] = run_op(
                &ops[i],
                ops[i].scenario.clone(),
                backend,
                &mut plain,
                &mut ignored,
            );
        }
        answers
    };
    let reference = untraced_pass();

    let mut counters = Counters::default();
    let mut traced: Vec<_> = (0..TAPE_LEN).map(|_| Err(String::new())).collect();
    let started = Instant::now();
    for &i in &order {
        let scenario = ops[i].scenario.clone();
        tracer.set_op(i as u64 + 1);
        let open = tracer.enter("op");
        traced[i] = run_op(&ops[i], scenario, backend, &mut tracer, &mut counters);
        tracer.exit(open);
    }
    let traced_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::hint::black_box(untraced_pass());
    let untraced_s = started.elapsed().as_secs_f64();

    out.attempted = 2 * TAPE_LEN as u64;
    for (i, op) in ops.iter().enumerate() {
        check(&mut out, op, i, &reference[i], &expected[i]);
        // The traced pass answers optimize through the mirror: it must
        // reproduce Engine::optimize's penalties.
        check(&mut out, op, i, &traced[i], &expected[i]);
    }
    crate::layer_times(&mut out, &tracer);
    counters.insert_into(&mut out);
    out.metrics.insert("trace.ops", TAPE_LEN as f64);
    out.metrics.insert(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    println!(
        "traced pass {traced_s:.3} s vs untraced {untraced_s:.3} s; mirror answers checked on {} optimize ops",
        ops.iter().filter(|op| matches!(op.query, Query::Optimize)).count()
    );
    tracer.write_jsonl(&crate::trace_path(&args.workload, args.seed))?;
    Ok(out)
}
