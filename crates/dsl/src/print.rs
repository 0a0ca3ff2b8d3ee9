//! Pretty-printer: core values → canonical `.narch` text.
//!
//! The printer is the inverse of [`crate::lower`]: for any value built
//! through the core builders, `lower(parse(print(x))) == x`. It emits the
//! *canonical* form — defaults omitted, names bare when they lex as
//! identifiers and quoted (or escaped into labelled sub-blocks) otherwise —
//! so printing is also a formatter: `parse → print` is a fixpoint.

use crate::lower::ScenarioDoc;
use crate::query::QuerySpec;
use crate::sweep::{AltRef, ChoiceKind, SweepConstraint, SweepSpec};
use crate::vocab;
use netarch_core::component::{HardwareSpec, SystemSpec};
use netarch_core::prelude::*;
use netarch_rt::text::{is_bare_ident, quote};
use std::fmt::Write as _;

/// Prints a whole document: catalog, workloads, scenario, queries.
pub fn print_doc(doc: &ScenarioDoc) -> String {
    let mut p = Printer::new();
    p.catalog(&doc.catalog);
    for w in &doc.workloads {
        p.workload(w);
    }
    if let Some(scenario) = &doc.scenario {
        p.scenario_block(scenario);
    }
    for q in &doc.queries {
        p.query(q);
    }
    for s in &doc.sweeps {
        p.sweep(s);
    }
    p.out
}

/// Prints a runnable scenario: its catalog, workloads, and `scenario`
/// block (no queries).
pub fn print_scenario(scenario: &Scenario) -> String {
    let mut p = Printer::new();
    p.catalog(&scenario.catalog);
    for w in &scenario.workloads {
        p.workload(w);
    }
    p.scenario_block(scenario);
    p.out
}

/// Prints `query` blocks only.
pub fn print_queries<'a>(queries: impl IntoIterator<Item = &'a QuerySpec>) -> String {
    let mut p = Printer::new();
    for q in queries {
        p.query(q);
    }
    p.out
}

/// Prints `sweep` blocks only.
pub fn print_sweeps<'a>(sweeps: impl IntoIterator<Item = &'a SweepSpec>) -> String {
    let mut p = Printer::new();
    for s in sweeps {
        p.sweep(s);
    }
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Printer {
        Printer { out: String::new(), indent: 0 }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, header: &str) {
        // Blank line between top-level blocks.
        if self.indent == 0 && !self.out.is_empty() {
            self.out.push('\n');
        }
        self.line(&format!("{header} {{"));
        self.indent += 1;
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.line("}");
    }

    fn attr(&mut self, key: &str, value: &str) {
        self.line(&format!("{key} = {value}"));
    }

    fn catalog(&mut self, catalog: &Catalog) {
        for spec in catalog.systems() {
            self.system(spec);
        }
        for spec in catalog.hardware_specs() {
            self.hardware(spec);
        }
        for edge in catalog.order().edges() {
            self.ordering(edge);
        }
    }

    fn system(&mut self, spec: &SystemSpec) {
        self.open(&format!("system {}", quote(spec.id.as_str())));
        if spec.name != spec.id.as_str() {
            self.attr("name", &quote(&spec.name));
        }
        self.attr("category", &category_text(&spec.category));
        if !spec.solves.is_empty() {
            let names = name_list(spec.solves.iter().map(|c| c.as_str()));
            self.attr("solves", &names);
        }
        for req in &spec.requires {
            self.open(&format!("requires {}", quote(&req.label)));
            self.attr("condition", &condition_text(&req.condition));
            if let Some(citation) = &req.citation {
                self.attr("citation", &quote(citation));
            }
            self.close();
        }
        if !spec.conflicts.is_empty() {
            let names = name_list(spec.conflicts.iter().map(|s| s.as_str()));
            self.attr("conflicts", &names);
        }
        if !spec.resources.is_empty() {
            self.open("consumes");
            for demand in &spec.resources {
                match resource_ident(&demand.resource) {
                    Some(ident) => self.attr(ident, &amount_text(&demand.amount)),
                    None => {
                        let Resource::Custom(name) = &demand.resource else {
                            unreachable!("built-in resources always have idents");
                        };
                        self.open(&format!("demand {}", quote(name)));
                        self.attr("amount", &amount_text(&demand.amount));
                        self.close();
                    }
                }
            }
            self.close();
        }
        if !spec.provides.is_empty() {
            let names = name_list(spec.provides.iter().map(|f| f.as_str()));
            self.attr("provides", &names);
        }
        if spec.cost_usd != 0 {
            self.attr("cost_usd", &spec.cost_usd.to_string());
        }
        if let Some(notes) = &spec.notes {
            self.attr("notes", &quote(notes));
        }
        self.close();
    }

    fn hardware(&mut self, spec: &HardwareSpec) {
        self.open(&format!("hardware {}", quote(spec.id.as_str())));
        self.attr("kind", vocab::hardware_kind_name(spec.kind));
        if spec.model_name != spec.id.as_str() {
            self.attr("model", &quote(&spec.model_name));
        }
        if !spec.features.is_empty() {
            let names = name_list(spec.features.iter().map(|f| f.as_str()));
            self.attr("features", &names);
        }
        if spec.cost_usd != 0 {
            self.attr("cost_usd", &spec.cost_usd.to_string());
        }
        if !spec.numeric.is_empty() {
            self.open("attrs");
            for (key, value) in &spec.numeric {
                if is_bare_ident(key) {
                    self.attr(key, &number_text(*value));
                } else {
                    self.open(&format!("attr {}", quote(key)));
                    self.attr("value", &number_text(*value));
                    self.close();
                }
            }
            self.close();
        }
        self.close();
    }

    fn ordering(&mut self, edge: &OrderingEdge) {
        self.open("ordering");
        self.attr("better", &name_text(edge.better.as_str()));
        self.attr("worse", &name_text(edge.worse.as_str()));
        self.attr("dimension", &dimension_text(&edge.dimension));
        if edge.kind != EdgeKind::Strict {
            self.attr("kind", vocab::edge_kind_name(edge.kind));
        }
        if edge.condition != Condition::True {
            self.attr("when", &condition_text(&edge.condition));
        }
        if let Some(citation) = &edge.citation {
            self.attr("citation", &quote(citation));
        }
        self.close();
    }

    fn workload(&mut self, w: &Workload) {
        self.open(&format!("workload {}", quote(w.id.as_str())));
        if w.name != w.id.as_str() {
            self.attr("name", &quote(&w.name));
        }
        if !w.properties.is_empty() {
            let names = name_list(w.properties.iter().map(|p| p.as_str()));
            self.attr("properties", &names);
        }
        if w.racks != (0..0) {
            self.attr("racks", &format!("{}..{}", w.racks.start, w.racks.end));
        }
        if w.peak_cores != 0 {
            self.attr("peak_cores", &w.peak_cores.to_string());
        }
        if w.peak_bandwidth_gbps != 0 {
            self.attr("peak_bandwidth_gbps", &w.peak_bandwidth_gbps.to_string());
        }
        if w.num_flows != 0 {
            self.attr("num_flows", &w.num_flows.to_string());
        }
        if !w.needs.is_empty() {
            let names = name_list(w.needs.iter().map(|c| c.as_str()));
            self.attr("needs", &names);
        }
        for bound in &w.bounds {
            self.open("bound");
            self.attr("dimension", &dimension_text(&bound.dimension));
            self.attr("better_than", &name_text(bound.better_than.as_str()));
            self.close();
        }
        self.close();
    }

    fn scenario_block(&mut self, s: &Scenario) {
        self.open("scenario");
        if !s.params.is_empty() {
            self.open("params");
            for (name, value) in &s.params {
                if is_bare_ident(name.as_str()) {
                    self.attr(name.as_str(), &number_text(*value));
                } else {
                    self.open(&format!("param {}", quote(name.as_str())));
                    self.attr("value", &number_text(*value));
                    self.close();
                }
            }
            self.close();
        }
        if s.inventory != Inventory::default() {
            self.open("inventory");
            let inv = &s.inventory;
            if !inv.server_candidates.is_empty() {
                self.attr("servers", &name_list(inv.server_candidates.iter().map(|h| h.as_str())));
            }
            if !inv.nic_candidates.is_empty() {
                self.attr("nics", &name_list(inv.nic_candidates.iter().map(|h| h.as_str())));
            }
            if !inv.switch_candidates.is_empty() {
                self.attr(
                    "switches",
                    &name_list(inv.switch_candidates.iter().map(|h| h.as_str())),
                );
            }
            if inv.num_servers != 0 {
                self.attr("num_servers", &inv.num_servers.to_string());
            }
            if inv.num_switches != 0 {
                self.attr("num_switches", &inv.num_switches.to_string());
            }
            self.close();
        }
        if !s.roles.is_empty() {
            self.open("roles");
            for (category, rule) in &s.roles {
                match vocab::category_name(category) {
                    Some(name) => self.attr(name, vocab::role_rule_name(*rule)),
                    None => {
                        self.open("role");
                        self.attr("category", &category_text(category));
                        self.attr("rule", vocab::role_rule_name(*rule));
                        self.close();
                    }
                }
            }
            self.close();
        }
        if !s.objectives.is_empty() {
            let entries: Vec<String> = s.objectives.iter().map(objective_text).collect();
            self.attr("objectives", &format!("[{}]", entries.join(", ")));
        }
        if !s.pins.is_empty() {
            let entries: Vec<String> = s.pins.iter().map(pin_text).collect();
            self.attr("pins", &format!("[{}]", entries.join(", ")));
        }
        if let Some(budget) = s.budget_usd {
            self.attr("budget_usd", &budget.to_string());
        }
        self.close();
    }

    fn query(&mut self, q: &QuerySpec) {
        self.open(&format!("query {}", quote(q.kind())));
        match q {
            QuerySpec::Check | QuerySpec::Optimize => {}
            QuerySpec::Capacity { max } => self.attr("max", &max.to_string()),
            QuerySpec::Enumerate { limit } => self.attr("limit", &limit.to_string()),
            QuerySpec::Questions { budget } => self.attr("budget", &budget.to_string()),
            QuerySpec::Compare { a, b, dimension } => {
                self.attr("a", &name_text(a.as_str()));
                self.attr("b", &name_text(b.as_str()));
                self.attr("dimension", &dimension_text(dimension));
            }
        }
        self.close();
    }

    fn sweep(&mut self, s: &SweepSpec) {
        self.open(&format!("sweep {}", quote(&s.name)));
        if s.seed != 0 {
            self.attr("seed", &s.seed.to_string());
        }
        if s.limit != 256 {
            self.attr("limit", &s.limit.to_string());
        }
        for group in &s.groups {
            self.open(&format!("choose {}", quote(&group.name)));
            match &group.kind {
                ChoiceKind::Systems { candidates, optional } => {
                    self.attr("systems", &name_list(candidates.iter().map(|s| s.as_str())));
                    if *optional {
                        self.attr("optional", "true");
                    }
                }
                ChoiceKind::Nics(ids) => {
                    self.attr("nics", &name_list(ids.iter().map(|h| h.as_str())));
                }
                ChoiceKind::Servers(ids) => {
                    self.attr("servers", &name_list(ids.iter().map(|h| h.as_str())));
                }
                ChoiceKind::Switches(ids) => {
                    self.attr("switches", &name_list(ids.iter().map(|h| h.as_str())));
                }
                ChoiceKind::NumServers(counts) => {
                    let parts: Vec<String> = counts.iter().map(u64::to_string).collect();
                    self.attr("num_servers", &format!("[{}]", parts.join(", ")));
                }
                ChoiceKind::Param { name, values } => {
                    self.attr("param", &param_ref_text(name));
                    let parts: Vec<String> = values.iter().map(|v| number_text(*v)).collect();
                    self.attr("values", &format!("[{}]", parts.join(", ")));
                }
            }
            self.close();
        }
        if !s.require.is_empty() {
            let entries: Vec<String> = s.require.iter().map(sweep_constraint_text).collect();
            self.attr("require", &format!("[{}]", entries.join(", ")));
        }
        if !s.forbid.is_empty() {
            let entries: Vec<String> = s.forbid.iter().map(sweep_constraint_text).collect();
            self.attr("forbid", &format!("[{}]", entries.join(", ")));
        }
        self.close();
    }
}

fn alt_ref_text(alt: &AltRef) -> String {
    match alt {
        AltRef::Name(n) => name_text(n),
        AltRef::Number(v) => number_text(*v),
    }
}

fn sweep_constraint_text(constraint: &SweepConstraint) -> String {
    match constraint {
        SweepConstraint::Picked { group, alternative } => {
            format!("picked({}, {})", name_text(group), alt_ref_text(alternative))
        }
        SweepConstraint::Not(inner) => format!("not({})", sweep_constraint_text(inner)),
        SweepConstraint::All(parts) => {
            let inner: Vec<String> = parts.iter().map(sweep_constraint_text).collect();
            format!("all({})", inner.join(", "))
        }
        SweepConstraint::Any(parts) => {
            let inner: Vec<String> = parts.iter().map(sweep_constraint_text).collect();
            format!("any({})", inner.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// Value printers
// ---------------------------------------------------------------------------

/// A name in expression position: bare when it lexes as one identifier.
fn name_text(name: &str) -> String {
    if is_bare_ident(name) {
        name.to_string()
    } else {
        quote(name)
    }
}

fn name_list<'a>(names: impl Iterator<Item = &'a str>) -> String {
    let parts: Vec<String> = names.map(name_text).collect();
    format!("[{}]", parts.join(", "))
}

/// A number that re-lexes as the same `f64`: integral values in `i64`
/// range print bare; anything whose `Display` form would lex as an
/// out-of-range integer gets a `.0` suffix to force the float path.
pub(crate) fn number_text(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.parse::<i64>().is_ok() {
        text
    } else {
        format!("{text}.0")
    }
}

pub(crate) fn category_text(category: &Category) -> String {
    match vocab::category_name(category) {
        Some(name) => name.to_string(),
        None => {
            let Category::Custom(name) = category else {
                unreachable!("built-in categories always have names");
            };
            format!("custom({})", quote(name))
        }
    }
}

pub(crate) fn dimension_text(dimension: &Dimension) -> String {
    match vocab::dimension_name(dimension) {
        Some(name) => name.to_string(),
        None => {
            let Dimension::Custom(name) = dimension else {
                unreachable!("built-in dimensions always have names");
            };
            format!("custom({})", quote(name))
        }
    }
}

/// The bare-ident spelling of a resource, when one lowers back to it:
/// built-ins always do; a custom resource only when its name is an
/// identifier that does not shadow a built-in.
fn resource_ident(resource: &Resource) -> Option<&str> {
    if let Some(name) = vocab::resource_name(resource) {
        return Some(name);
    }
    let Resource::Custom(name) = resource else {
        unreachable!("built-in resources always have names");
    };
    if is_bare_ident(name) && vocab::resource_from_ident(name) == *resource {
        Some(name)
    } else {
        None
    }
}

fn param_ref_text(name: &ParamName) -> String {
    if is_bare_ident(name.as_str()) {
        name.as_str().to_string()
    } else {
        format!("param({})", quote(name.as_str()))
    }
}

fn objective_text(objective: &Objective) -> String {
    match objective {
        Objective::MaximizeDimension(d) => format!("maximize({})", dimension_text(d)),
        Objective::MinimizeCost => "minimize_cost".to_string(),
        Objective::PreferCapability(c) => format!("prefer({})", name_text(c.as_str())),
    }
}

fn pin_text(pin: &Pin) -> String {
    match pin {
        Pin::Require(id) => format!("require({})", name_text(id.as_str())),
        Pin::Forbid(id) => format!("forbid({})", name_text(id.as_str())),
    }
}

pub(crate) fn condition_text(condition: &Condition) -> String {
    match condition {
        Condition::True => "true".to_string(),
        Condition::False => "false".to_string(),
        Condition::SystemSelected(id) => format!("deployed({})", name_text(id.as_str())),
        Condition::CategoryFilled(c) => format!("filled({})", category_text(c)),
        Condition::NicFeature(f) => format!("nics.have({})", name_text(f.as_str())),
        Condition::SwitchFeature(f) => format!("switches.have({})", name_text(f.as_str())),
        Condition::ServerFeature(f) => format!("servers.have({})", name_text(f.as_str())),
        Condition::ProvidedFeature(f) => format!("provided({})", name_text(f.as_str())),
        Condition::WorkloadProperty(p) => format!("workload.has({})", name_text(p.as_str())),
        Condition::Param(name, op, value) => format!(
            "{} {} {}",
            param_ref_text(name),
            vocab::cmp_op_text(*op),
            number_text(*value)
        ),
        Condition::Not(inner) => format!("not({})", condition_text(inner)),
        Condition::All(parts) => {
            let inner: Vec<String> = parts.iter().map(condition_text).collect();
            format!("all({})", inner.join(", "))
        }
        Condition::Any(parts) => {
            let inner: Vec<String> = parts.iter().map(condition_text).collect();
            format!("any({})", inner.join(", "))
        }
    }
}

pub(crate) fn amount_text(amount: &AmountExpr) -> String {
    match amount {
        AmountExpr::Const(n) => n.to_string(),
        AmountExpr::ParamScaled { param, factor } => {
            format!("{} * {}", number_text(*factor), param_ref_text(param))
        }
        AmountExpr::Sum(parts) => {
            let mut text = String::new();
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    text.push_str(" + ");
                }
                let _ = write!(text, "{}", amount_text(part));
            }
            text
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_text_relexes() {
        assert_eq!(number_text(100.0), "100");
        assert_eq!(number_text(0.001), "0.001");
        assert_eq!(number_text(-1.5), "-1.5");
        // Too big for i64 — forced onto the float path.
        assert_eq!(number_text(1e19), "10000000000000000000.0");
    }

    #[test]
    fn names_quote_only_when_needed() {
        assert_eq!(name_text("NIC_TIMESTAMPS"), "NIC_TIMESTAMPS");
        assert_eq!(name_text("Cisco 9500"), "\"Cisco 9500\"");
    }

    #[test]
    fn custom_resource_shadowing_builtin_loses_its_ident() {
        assert_eq!(resource_ident(&Resource::Cores), Some("cores"));
        assert_eq!(resource_ident(&Resource::Custom("fpga_luts".into())), Some("fpga_luts"));
        assert_eq!(resource_ident(&Resource::Custom("cores".into())), None);
        assert_eq!(resource_ident(&Resource::Custom("fpga-luts".into())), None);
    }

    #[test]
    fn condition_text_nested() {
        let c = Condition::any([
            Condition::nics_have("NIC_TIMESTAMPS"),
            Condition::all([
                Condition::system("SONATA"),
                Condition::Param(ParamName::new("link_speed_gbps"), CmpOp::Ge, 40.0),
            ]),
        ]);
        assert_eq!(
            condition_text(&c),
            "any(nics.have(NIC_TIMESTAMPS), all(deployed(SONATA), link_speed_gbps >= 40))"
        );
    }
}
