//! `netarch` — command-line interface to the reasoning engine.
//!
//! Scenarios come in two interchange formats, detected by extension and
//! content: the declarative `.narch` text DSL (the paper's Listings 1–3
//! surface syntax; see `docs/ENCODING_GUIDE.md`) and self-contained JSON
//! documents. Every query command accepts either; `.narch` scenarios may
//! be split across several files (catalog in one, workloads and the
//! `scenario` block in another).
//!
//! ```text
//! netarch demo > scenario.json            # the paper's §2.3 case study (JSON)
//! netarch demo --narch > scenario.narch   # the same case study as .narch text
//! netarch load corpus/*.narch             # parse + lower, print a summary
//! netarch validate scenario.narch         # references and compile checks
//! netarch fmt scenario.narch              # canonical formatting to stdout
//! netarch check scenario.narch            # feasibility + design or diagnosis
//! netarch optimize scenario.json          # lexicographic Optimize(...)
//! netarch capacity scenario.narch 512     # minimal fleet size
//! netarch enumerate scenario.json 8       # design equivalence classes
//! netarch questions scenario.narch        # §6 disambiguation plan
//! netarch compare scenario.json SIMON PINGMESH monitoring_quality
//! netarch export-catalog                  # full knowledge corpus as JSON
//! ```

use netarch::core::explain::render_diagnosis;
use netarch::core::prelude::*;
use netarch::dsl;
use netarch_rt::jobj;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                // A reader that stops early (`| head`) has all it wants.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(Failure::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Error(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. Only a usage error (an unknown command, flag or
/// malformed argument) is followed by the usage text.
#[derive(Debug)]
pub enum Failure {
    /// The command line itself is wrong.
    Usage(String),
    /// The command ran and failed: unreadable input, a scenario error.
    Error(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Error(message)
    }
}

fn usage(message: impl Into<String>) -> Failure {
    Failure::Usage(message.into())
}

const USAGE: &str = "usage:
  netarch demo [--narch]                  print the §2.3 case-study scenario (JSON, or .narch text)
  netarch export-catalog                  print the full knowledge corpus as JSON
  netarch load <file>...                  parse + lower scenario files, print a summary
  netarch validate <file>...              check references and the scenario, report problems
  netarch fmt <file.narch>                reprint a .narch file in canonical form
  netarch check <file>...                 find a compliant design or a minimal conflict
  netarch optimize <file>...              lexicographic optimization over the objectives
  netarch capacity <file>... <max>        minimal server fleet up to <max>
  netarch enumerate <file>... <limit>     design equivalence classes
  netarch questions <file>...             disambiguation question plan
  netarch compare <file>... <A> <B> <dim> rule-of-thumb comparison
  netarch sweep <file>... [opts]          enumerate a `sweep` block's admissible
                                          scenario variants as a seeded stream
    opts: --name <sweep>       pick a sweep when the document defines several
          --export <dir>       write each variant as a canonical .narch file
          --oracle             run every query on each variant through a warm
                               session and compare against fresh-engine
                               oracles across query orderings
          --smoke              print only the stable variants/digest manifest
                               line (what CI diffs against its golden copy)
  netarch serve-replay <file>... [opts]   replay a seeded request tape through
                                          the sharded multi-tenant service
    opts: --spec <spec.json>   replay spec (seed/requests/mix weights)
          --requests <n>       tape length           (default 64)
          --seed <n>           tape PRNG seed        (default 0)
          --shards <n>         worker shards         (default 2)
          --sessions <n>       warm sessions/shard   (default 4)
          --no-cache           compile every request (baseline mode)
          --oracle             differentially check each answer against
                               a fresh single-use engine

scenario files are .narch text (the declarative DSL) or JSON; the format
is detected from the extension, falling back to a content sniff (JSON
documents start with `{`). A .narch scenario may span several files —
every file is merged before the query runs.

append --json to check/optimize/capacity for machine-readable output";

/// Dispatches a command line; pure function for testability.
pub fn run(args: &[&str]) -> Result<String, Failure> {
    // A trailing `--json` switches design-producing commands to JSON.
    let (args, json) = match args.split_last() {
        Some((&"--json", rest)) => (rest, true),
        _ => (args, false),
    };
    match args {
        ["demo"] => {
            let scenario = netarch::corpus::case_study::scenario();
            Ok(netarch_rt::json::to_string_pretty(&scenario))
        }
        ["demo", "--narch"] => {
            Ok(dsl::print_scenario(&netarch::corpus::case_study::scenario()))
        }
        ["export-catalog"] => Ok(netarch::corpus::catalog_json()),
        ["load", paths @ ..] if !paths.is_empty() => {
            let doc = load_doc(paths)?;
            Ok(summarize(&doc))
        }
        ["validate", paths @ ..] if !paths.is_empty() => {
            let doc = load_doc(paths)?;
            let errors = doc.catalog.validate();
            if !errors.is_empty() {
                let mut out = String::from("catalog has dangling references:\n");
                for e in &errors {
                    out.push_str(&format!("  {e}\n"));
                }
                return Err(out.into());
            }
            // A scenario must also pass compile's own checks: inventory,
            // pins, parameters and preference cycles in its context.
            if let Some(scenario) = &doc.scenario {
                netarch::core::compile::compile(scenario).map_err(|e| e.to_string())?;
            }
            Ok(format!("OK\n{}", summarize(&doc)))
        }
        ["fmt", path] => {
            let text = read_file(path)?;
            if detect_format(path, &text) != Format::Narch {
                return Err(format!(
                    "{path} is not a .narch file; `fmt` formats DSL text only"
                )
                .into());
            }
            let doc = lower_narch(&[(path, text)])?;
            Ok(dsl::print_doc(&doc))
        }
        ["check", paths @ ..] if !paths.is_empty() => {
            let mut engine = load_engine(paths)?;
            match engine.check().map_err(|e| e.to_string())? {
                Outcome::Feasible(design) if json => {
                    Ok(netarch_rt::json::to_string_pretty(&jobj! {
                        "design": design,
                        "stats": engine.stats(),
                    }))
                }
                Outcome::Feasible(design) => Ok(format!("FEASIBLE\n{design}")),
                Outcome::Infeasible(diagnosis) => {
                    Ok(format!("INFEASIBLE\n{}", render_diagnosis(&diagnosis)))
                }
            }
        }
        ["optimize", paths @ ..] if !paths.is_empty() => {
            let mut engine = load_engine(paths)?;
            match engine.optimize().map_err(|e| e.to_string())? {
                Ok(result) if json => {
                    Ok(netarch_rt::json::to_string_pretty(&jobj! {
                        "design": result.design,
                        "stats": engine.stats(),
                    }))
                }
                Ok(result) => {
                    let mut out = format!("OPTIMAL\n{}", result.design);
                    for level in &result.levels {
                        out.push_str(&format!(
                            "level {:40} penalty {}\n",
                            level.objective, level.penalty
                        ));
                    }
                    Ok(out)
                }
                Err(diagnosis) => Ok(format!("INFEASIBLE\n{}", render_diagnosis(&diagnosis))),
            }
        }
        ["capacity", paths @ .., max] if !paths.is_empty() => {
            let max: u64 = max.parse().map_err(|_| usage(format!("bad fleet bound {max:?}")))?;
            let mut engine = load_engine(paths)?;
            match engine.plan_capacity(max).map_err(|e| e.to_string())? {
                Ok(plan) if json => Ok(netarch_rt::json::to_string_pretty(&jobj! {
                    "servers_needed": plan.servers_needed,
                    "design": plan.design,
                    "stats": engine.stats(),
                })),
                Ok(plan) => Ok(format!(
                    "SERVERS NEEDED: {}\n{}",
                    plan.servers_needed, plan.design
                )),
                Err(diagnosis) => Ok(format!("INFEASIBLE\n{}", render_diagnosis(&diagnosis))),
            }
        }
        ["enumerate", paths @ .., limit] if !paths.is_empty() => {
            let limit: usize = limit.parse().map_err(|_| usage(format!("bad limit {limit:?}")))?;
            let mut engine = load_engine(paths)?;
            let designs = engine
                .enumerate_designs(limit, false)
                .map_err(|e| e.to_string())?;
            let mut out = format!("{} equivalence classes\n", designs.len());
            for (i, d) in designs.iter().enumerate() {
                let systems: Vec<String> =
                    d.systems().iter().map(|s| s.to_string()).collect();
                out.push_str(&format!("class {}: {}\n", i + 1, systems.join(", ")));
            }
            Ok(out)
        }
        ["questions", paths @ ..] if !paths.is_empty() => {
            let mut engine = load_engine(paths)?;
            let plan = engine.disambiguate(256).map_err(|e| e.to_string())?;
            Ok(netarch::core::disambiguate::render_plan(&plan))
        }
        ["serve-replay", rest @ ..] if !rest.is_empty() => serve_replay(rest, json),
        ["sweep", rest @ ..] if !rest.is_empty() => sweep_cmd(rest, json),
        ["compare", paths @ .., a, b, dim] if !paths.is_empty() => {
            let engine = load_engine(paths)?;
            let dimension = parse_dimension(dim, &engine.scenario().catalog)?;
            let verdict = engine.compare(
                &SystemId::new(*a),
                &SystemId::new(*b),
                &dimension,
            );
            Ok(format!("{a} vs {b} on {dimension}: {verdict:?}"))
        }
        [] => Err(usage("no command given")),
        other => Err(usage(format!("unrecognized command {:?}", other.join(" ")))),
    }
}

// ---------------------------------------------------------------------------
// sweep: enumerate a sweep block's variant stream, with optional fan-out
// ---------------------------------------------------------------------------

/// Enumerates a `sweep` block into its deterministic variant stream and
/// optionally fans it out: `--export` writes each variant as a canonical
/// `.narch` corpus entry, `--oracle` runs the differential harness, and
/// `--smoke` prints only the manifest line CI goldens.
fn sweep_cmd(args: &[&str], json: bool) -> Result<String, Failure> {
    use netarch::sweep as sw;

    let mut paths: Vec<&str> = Vec::new();
    let mut name: Option<&str> = None;
    let mut export: Option<&str> = None;
    let mut smoke = false;
    let mut oracle = false;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--name" => name = Some(it.next().ok_or_else(|| usage("--name needs a sweep name"))?),
            "--export" => {
                export = Some(it.next().ok_or_else(|| usage("--export needs a directory"))?)
            }
            "--smoke" => smoke = true,
            "--oracle" => oracle = true,
            flag if flag.starts_with("--") => {
                return Err(usage(format!("unknown sweep flag {flag:?}")))
            }
            path => paths.push(path),
        }
    }
    if paths.is_empty() {
        return Err(usage("sweep needs at least one scenario file"));
    }

    let doc = load_doc(&paths)?;
    let scenario = doc.require_scenario().map_err(|e| e.to_string())?.clone();
    let spec = match (name, doc.sweeps.as_slice()) {
        (_, []) => return Err("the given files define no sweep block".to_string().into()),
        (Some(n), sweeps) => sweeps.iter().find(|s| s.name == n).ok_or_else(|| {
            let known: Vec<&str> = sweeps.iter().map(|s| s.name.as_str()).collect();
            format!("no sweep named {n:?}; the document defines: {}", known.join(", "))
        })?,
        (None, [only]) => only,
        (None, sweeps) => {
            let known: Vec<&str> = sweeps.iter().map(|s| s.name.as_str()).collect();
            return Err(format!(
                "the document defines {} sweeps ({}); pick one with --name",
                sweeps.len(),
                known.join(", ")
            )
            .into());
        }
    };

    let stream = sw::enumerate_sweep(spec, &scenario.catalog).map_err(|e| e.to_string())?;
    let manifest = format!(
        "sweep {}: variants={} admissible={} seed={} digest={}",
        spec.name,
        stream.variants.len(),
        stream.admissible,
        spec.seed,
        stream.digest_hex(),
    );

    let mut exported = 0usize;
    if let Some(dir) = export {
        let root = std::path::Path::new(dir);
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let width = stream.variants.len().to_string().len().max(3);
        for variant in &stream.variants {
            let label = sw::variant_label(spec, &variant.picks);
            let concrete = sw::variant_scenario(spec, &scenario, &variant.picks);
            let body = dsl::print_scenario(&concrete);
            let header = format!(
                "# Generated by `netarch sweep --export` from sweep {:?}.\n\
                 # Variant {} of {}: {label}\n\n",
                spec.name,
                variant.index,
                stream.variants.len(),
            );
            let path = root.join(format!("{}-{:0width$}.narch", spec.name, variant.index));
            std::fs::write(&path, format!("{header}{body}"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            exported += 1;
        }
    }

    let mut report = None;
    if oracle {
        let opts = sw::DiffOptions::default();
        let r = sw::run_differential(spec, &scenario, &stream, &opts).map_err(|e| e.to_string())?;
        if let Some(d) = &r.disagreement {
            return Err(format!("differential disagreement: {d}").into());
        }
        report = Some(r);
    }

    if smoke {
        return Ok(manifest);
    }
    if json {
        let variants: Vec<netarch_rt::Json> = stream
            .variants
            .iter()
            .map(|v| {
                jobj! {
                    "index": v.index as u64,
                    "label": sw::variant_label(spec, &v.picks),
                }
            })
            .collect();
        let mut out = jobj! {
            "sweep": spec.name.clone(),
            "seed": spec.seed,
            "admissible": stream.admissible,
            "truncated": stream.truncated,
            "digest": stream.digest_hex(),
            "variants": variants,
        };
        if let (Some(r), netarch_rt::Json::Obj(fields)) = (&report, &mut out) {
            fields.push((
                "oracle".to_string(),
                jobj! {
                    "sessions": r.sessions,
                    "queries": r.queries,
                    "orderings": r.orderings,
                    "disagreements": 0u64,
                },
            ));
        }
        return Ok(netarch_rt::json::to_string_pretty(&out));
    }

    let mut out = format!("{manifest}\n");
    if stream.truncated {
        out.push_str(&format!(
            "(limit {} truncated the {}-variant admissible universe)\n",
            spec.limit, stream.admissible
        ));
    }
    for variant in &stream.variants {
        out.push_str(&format!(
            "  [{}] {}\n",
            variant.index,
            sw::variant_label(spec, &variant.picks)
        ));
    }
    if exported > 0 {
        out.push_str(&format!(
            "wrote {exported} variant file(s) under {}\n",
            export.unwrap_or(".")
        ));
    }
    if let Some(r) = &report {
        out.push_str(&format!(
            "oracle: {} orderings / {} queries across {} warm sessions — all agreed\n",
            r.orderings, r.queries, r.sessions
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve-replay: deterministic load replay through the sharded service
// ---------------------------------------------------------------------------

/// Parses the serve-replay argument list (scenario paths interleaved
/// with flags), builds the tape, runs the service, and reports.
fn serve_replay(args: &[&str], json: bool) -> Result<String, Failure> {
    use netarch::serve::{self, ReplaySpec, Service, ServiceConfig};

    let mut paths: Vec<&str> = Vec::new();
    let mut spec = ReplaySpec::default();
    let mut spec_overrides: Vec<(&str, u64)> = Vec::new();
    let mut shards = 2usize;
    let mut sessions = 4usize;
    let mut cache = true;
    let mut oracle = false;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        let mut value = |flag: &str| -> Result<u64, Failure> {
            it.next()
                .ok_or_else(|| usage(format!("{flag} needs a value")))?
                .parse::<u64>()
                .map_err(|_| usage(format!("{flag} needs a non-negative integer")))
        };
        match arg {
            "--spec" => {
                let path = it.next().ok_or_else(|| usage("--spec needs a file"))?;
                let text = read_file(path)?;
                let parsed = netarch_rt::json::from_str(&text)
                    .map_err(|e| format!("cannot parse {path}: {e}"))?;
                spec = ReplaySpec::from_json(&parsed)?;
            }
            "--requests" => spec_overrides.push(("requests", value("--requests")?)),
            "--seed" => spec_overrides.push(("seed", value("--seed")?)),
            "--shards" => shards = value("--shards")?.max(1) as usize,
            "--sessions" => sessions = value("--sessions")?.max(1) as usize,
            "--no-cache" => cache = false,
            "--oracle" => oracle = true,
            flag if flag.starts_with("--") => {
                return Err(usage(format!("unknown serve-replay flag {flag:?}")))
            }
            path => paths.push(path),
        }
    }
    // CLI overrides win over the spec file regardless of argument order.
    for (key, value) in spec_overrides {
        match key {
            "requests" => spec.requests = value as usize,
            "seed" => spec.seed = value,
            _ => unreachable!(),
        }
    }
    if paths.is_empty() {
        return Err(usage("serve-replay needs at least one scenario file"));
    }

    let doc = load_doc(&paths)?;
    let scenario = doc.require_scenario().map_err(|e| e.to_string())?.clone();
    let tape = serve::generate_tape(&spec, &[scenario]);
    let config = ServiceConfig {
        shards,
        sessions_per_shard: sessions,
        cache,
        backend: netarch::logic::backend_from_env(),
    };
    let started = std::time::Instant::now();
    let (responses, stats) = Service::run(config, tape.clone());
    let elapsed_micros = started.elapsed().as_micros() as u64;

    let mut disagreements = 0usize;
    if oracle {
        for (request, response) in tape.iter().zip(&responses) {
            let expected = match Engine::new(request.scenario.clone()) {
                Ok(mut engine) => serve::request::run_query(&mut engine, &request.query),
                Err(e) => Err(e.to_string()),
            };
            if expected != response.answer {
                disagreements += 1;
            }
        }
    }

    let summary = serve::report::summary(&responses, &stats, elapsed_micros);
    if oracle && disagreements > 0 {
        return Err(format!(
            "{disagreements} response(s) disagreed with the fresh-engine oracle"
        )
        .into());
    }
    if json {
        return Ok(netarch_rt::json::to_string_pretty(&summary));
    }
    let count = |key: &str| summary.get(key).and_then(netarch_rt::Json::as_u64).unwrap_or(0);
    let mut out = format!(
        "replayed {} requests ({} cold / {} repeat / {} variant) on {} shard(s)\n",
        count("requests"),
        count("cold"),
        count("repeat"),
        count("variant"),
        count("shards"),
    );
    out.push_str(&format!(
        "cache: {} hits, {} misses, {} evictions, {} sessions retained\n",
        count("cache_hits"),
        count("cache_misses"),
        count("evictions"),
        count("sessions_retained"),
    ));
    for (shard, s) in stats.shards.iter().enumerate() {
        out.push_str(&format!(
            "shard {shard}: {} requests, {} hits\n",
            s.requests, s.cache_hits
        ));
    }
    let p = |path: [&str; 2]| {
        summary
            .get(path[0])
            .and_then(|l| l.get(path[1]))
            .and_then(netarch_rt::Json::as_u64)
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "latency µs: p50 {} / p95 {} / p99 {} (warm p50 {}, cold p50 {})\n",
        p(["latency", "p50_us"]),
        p(["latency", "p95_us"]),
        p(["latency", "p99_us"]),
        p(["warm_latency", "p50_us"]),
        p(["cold_latency", "p50_us"]),
    ));
    if count("errors") > 0 {
        out.push_str(&format!("{} request(s) answered with errors\n", count("errors")));
    }
    if oracle {
        out.push_str("oracle: every response matched a fresh single-use engine\n");
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Scenario loading: .narch or JSON, detected per file
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
enum Format {
    Json,
    Narch,
}

/// Extension wins; otherwise sniff the first non-whitespace byte (JSON
/// scenario documents are objects, so they open with `{`).
fn detect_format(path: &str, text: &str) -> Format {
    if path.ends_with(".narch") {
        return Format::Narch;
    }
    if path.ends_with(".json") {
        return Format::Json;
    }
    match text.trim_start().as_bytes().first() {
        Some(b'{') => Format::Json,
        _ => Format::Narch,
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn lower_narch(sources: &[(&str, String)]) -> Result<dsl::ScenarioDoc, String> {
    let mut loader = dsl::Loader::new();
    for (path, text) in sources {
        loader.add_source(path, text).map_err(|e| e.to_string())?;
    }
    loader.finish().map_err(|e| e.to_string())
}

/// Loads one scenario document from one JSON file or any number of
/// `.narch` files.
fn load_doc(paths: &[&str]) -> Result<dsl::ScenarioDoc, String> {
    let mut narch: Vec<(&str, String)> = Vec::new();
    let mut json: Vec<(&str, String)> = Vec::new();
    for path in paths {
        let text = read_file(path)?;
        match detect_format(path, &text) {
            Format::Narch => narch.push((path, text)),
            Format::Json => json.push((path, text)),
        }
    }
    match (narch.is_empty(), json.len()) {
        (false, 0) => lower_narch(&narch),
        (true, 1) => {
            let (path, text) = &json[0];
            let scenario: Scenario = netarch_rt::json::from_str(text).map_err(|e| {
                format!(
                    "cannot parse {path} as a JSON scenario: {e}\n\
                     (if this is DSL text, name it *.narch so the format is unambiguous)"
                )
            })?;
            Ok(dsl::ScenarioDoc {
                catalog: scenario.catalog.clone(),
                workloads: scenario.workloads.clone(),
                scenario: Some(scenario),
                queries: Vec::new(),
                sweeps: Vec::new(),
            })
        }
        (true, 0) => Err("no scenario files given".to_string()),
        (true, _) => Err("more than one JSON scenario given; pass exactly one".to_string()),
        (false, _) => {
            Err("cannot mix JSON and .narch scenario files in one invocation".to_string())
        }
    }
}

fn load_engine(paths: &[&str]) -> Result<Engine, String> {
    let doc = load_doc(paths)?;
    let scenario = doc.require_scenario().map_err(|e| e.to_string())?.clone();
    Engine::new(scenario).map_err(|e| e.to_string())
}

fn summarize(doc: &dsl::ScenarioDoc) -> String {
    let mut out = format!(
        "{} systems, {} hardware models, {} ordering edges, {} workloads",
        doc.catalog.num_systems(),
        doc.catalog.num_hardware(),
        doc.catalog.order().edges().len(),
        doc.workloads.len(),
    );
    match &doc.scenario {
        Some(s) => out.push_str(&format!(
            "\nscenario: {} params, {} roles, {} objectives, {} pins",
            s.params.len(),
            s.roles.len(),
            s.objectives.len(),
            s.pins.len(),
        )),
        None => out.push_str("\nno scenario block (catalog-only document)"),
    }
    if !doc.queries.is_empty() {
        let kinds: Vec<&str> = doc.queries.iter().map(|q| q.kind()).collect();
        out.push_str(&format!("\nqueries: {}", kinds.join(", ")));
    }
    out
}

/// Reads a dimension as `.narch` files spell it (`monitoring_quality`) or
/// as answers print it (`monitoring-quality`). A custom dimension is named
/// bare or as `custom:name`, and only when some ordering edge in the
/// catalog uses it.
fn parse_dimension(text: &str, catalog: &Catalog) -> Result<Dimension, String> {
    let builtin = dsl::dimension_from_name(text).or_else(|| {
        dsl::dimension_from_name(&text.replace('-', "_")).filter(|d| d.to_string() == text)
    });
    let names = |d: &&Dimension| match d {
        Dimension::Custom(name) => name == text || d.to_string() == text,
        _ => false,
    };
    let custom = || catalog.order().edges().iter().map(|e| &e.dimension).find(names);
    builtin.or_else(|| custom().cloned()).ok_or_else(|| {
        format!(
            "unknown dimension {text:?}: name a built-in dimension as .narch files do \
             (e.g. monitoring_quality) or a custom one the catalog's orderings use"
        )
    })
}
