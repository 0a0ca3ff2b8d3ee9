//! Conditional partial orders over systems — the paper's Figure 1.
//!
//! Performance knowledge is deliberately *not* numeric (§3.2): it is a set
//! of rules-of-thumb of the form "A is better than B along dimension D,
//! when condition C holds" (solid arrows in Figure 1), or "A and B are
//! equal along D" (dashed lines). The order is intentionally *incomplete*:
//! if no chain of edges connects two systems, they are incomparable, and
//! the engine reports that rather than inventing an answer (§3.1: the
//! missing Shenango↔Demikernel isolation comparison).

use crate::condition::{Condition, StaticContext};
use crate::types::{Dimension, SystemId};
use netarch_rt::{impl_json_enum, impl_json_struct};
use std::collections::BTreeMap;

/// Edge flavor: strict preference (solid arrow) or equivalence (dashed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// `better ≻ worse` (solid arrow, points to the lower system).
    Strict,
    /// `better ≈ worse` (dashed line, both equal).
    Equal,
}

impl_json_enum!(EdgeKind {
    unit Strict,
    unit Equal,
});

/// One rule-of-thumb preference edge.
#[derive(Clone, PartialEq, Debug)]
pub struct OrderingEdge {
    /// The preferred system (for `Equal`, an arbitrary side).
    pub better: SystemId,
    /// The less-preferred system (for `Equal`, the other side).
    pub worse: SystemId,
    /// The dimension the edge speaks about.
    pub dimension: Dimension,
    /// When the edge applies (Figure 1: "Network load ≥ 40 Gbps").
    pub condition: Condition,
    /// Strict preference or equivalence.
    pub kind: EdgeKind,
    /// Source of the rule.
    pub citation: Option<String>,
}

impl_json_struct!(OrderingEdge {
    better,
    worse,
    dimension,
    condition,
    kind,
    citation,
});

impl OrderingEdge {
    /// An unconditional strict edge `better ≻ worse` on `dimension`.
    pub fn strict(
        better: impl Into<SystemId>,
        worse: impl Into<SystemId>,
        dimension: Dimension,
    ) -> OrderingEdge {
        OrderingEdge {
            better: better.into(),
            worse: worse.into(),
            dimension,
            condition: Condition::True,
            kind: EdgeKind::Strict,
            citation: None,
        }
    }

    /// An unconditional equivalence edge on `dimension`.
    pub fn equal(
        a: impl Into<SystemId>,
        b: impl Into<SystemId>,
        dimension: Dimension,
    ) -> OrderingEdge {
        OrderingEdge {
            better: a.into(),
            worse: b.into(),
            dimension,
            condition: Condition::True,
            kind: EdgeKind::Equal,
            citation: None,
        }
    }

    /// Restricts the edge to a condition.
    pub fn when(mut self, condition: Condition) -> OrderingEdge {
        self.condition = condition;
        self
    }

    /// Attaches a citation.
    pub fn cited(mut self, citation: impl Into<String>) -> OrderingEdge {
        self.citation = Some(citation.into());
        self
    }
}

/// Outcome of comparing two systems in a context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comparison {
    /// The first system strictly dominates the second.
    Better,
    /// The second system strictly dominates the first.
    Worse,
    /// Connected only through equivalence edges.
    Equal,
    /// No chain of applicable edges relates the two — the knowledge base
    /// simply does not know (first-class incompleteness, §3.1).
    Incomparable,
}

/// A set of conditional preference edges with dominance queries.
#[derive(Clone, Default, Debug)]
pub struct PreferenceOrder {
    edges: Vec<OrderingEdge>,
}

impl_json_struct!(PreferenceOrder { edges });

impl PreferenceOrder {
    /// Creates an empty order.
    pub fn new() -> PreferenceOrder {
        PreferenceOrder::default()
    }

    /// Adds an edge.
    pub fn add(&mut self, edge: OrderingEdge) {
        self.edges.push(edge);
    }

    /// All edges.
    pub fn edges(&self) -> &[OrderingEdge] {
        &self.edges
    }

    /// Edges on a dimension.
    pub fn edges_on<'a>(
        &'a self,
        dimension: &'a Dimension,
    ) -> impl Iterator<Item = &'a OrderingEdge> + 'a {
        self.edges.iter().filter(move |e| &e.dimension == dimension)
    }

    /// Resolves the order on `dimension` in `ctx`: see [`ResolvedOrder`].
    /// Resolve once to ask many questions of one dimension.
    pub fn resolve<'a>(
        &'a self,
        dimension: &Dimension,
        ctx: &dyn StaticContext,
    ) -> ResolvedOrder<'a> {
        let mut active = Vec::new();
        let mut residual = Vec::new();
        for e in self.edges.iter().filter(|e| &e.dimension == dimension) {
            match e.condition.partial_eval(ctx) {
                Condition::True => active.push(e),
                Condition::False => {}
                open => residual.push((e, open)),
            }
        }
        let mut systems: Vec<&SystemId> =
            active.iter().flat_map(|e| [&e.better, &e.worse]).collect();
        systems.sort();
        systems.dedup();
        let n = systems.len();
        let index = |id: &SystemId| systems.binary_search(&id).expect("indexed above");
        // Steps out of each system: `(to, strict)`. Equal edges run both ways.
        let mut steps: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
        for e in &active {
            let (better, worse) = (index(&e.better), index(&e.worse));
            match e.kind {
                EdgeKind::Strict => steps[better].push((worse, true)),
                EdgeKind::Equal => {
                    steps[better].push((worse, false));
                    steps[worse].push((better, false));
                }
            }
        }
        // One walk per system over `(system, took a strict step)` states:
        // `(j, false)` is reached through equal edges alone, `(j, true)`
        // through a chain with at least one strict edge.
        let mut dominates = vec![false; n * n];
        let mut class = vec![0; n];
        let mut seen = vec![false; 2 * n];
        let mut stack = Vec::new();
        for start in 0..n {
            seen.fill(false);
            seen[2 * start] = true;
            stack.push((start, false));
            while let Some((node, strict)) = stack.pop() {
                for &(to, step) in &steps[node] {
                    let strict = strict || step;
                    let state = 2 * to + usize::from(strict);
                    if !seen[state] {
                        seen[state] = true;
                        stack.push((to, strict));
                    }
                }
            }
            class[start] = (0..n).find(|&j| seen[2 * j]).expect("start reaches itself");
            for j in 0..n {
                dominates[start * n + j] = seen[2 * j + 1];
            }
        }
        ResolvedOrder {
            systems,
            dominates,
            class,
            residual,
        }
    }

    /// Compares two systems along a dimension in a static context:
    /// `self.resolve(dimension, ctx).compare(a, b)`.
    pub fn compare(
        &self,
        a: &SystemId,
        b: &SystemId,
        dimension: &Dimension,
        ctx: &dyn StaticContext,
    ) -> Comparison {
        self.resolve(dimension, ctx).compare(a, b)
    }
}

/// One dimension's preference order resolved in a static context.
///
/// Each edge's condition is evaluated once: an edge whose condition holds
/// is *active*, one whose condition depends on solver choices keeps its
/// *residual* condition, and the rest are dropped. The systems on active
/// edges are indexed, and their equality classes and strict-dominance
/// closure are computed once, so every query is a lookup. `a` dominates `b`
/// when a chain of active edges leads from `a` to `b`, strict edges taken
/// forward and equal edges either way, with at least one strict edge on it.
#[derive(Clone, Debug)]
pub struct ResolvedOrder<'a> {
    /// Systems on active edges, sorted by id; a system's position is its
    /// index.
    systems: Vec<&'a SystemId>,
    /// `dominates[i * n + j]`: system `i` dominates system `j`. A system
    /// that dominates itself lies on a preference cycle.
    dominates: Vec<bool>,
    /// Per system, the least index joined to it by equal edges alone.
    class: Vec<usize>,
    /// Edges whose conditions stay open, with their residual conditions.
    residual: Vec<(&'a OrderingEdge, Condition)>,
}

impl<'a> ResolvedOrder<'a> {
    fn index(&self, id: &SystemId) -> Option<usize> {
        self.systems.binary_search(&id).ok()
    }

    /// The indices of two different systems on active edges.
    fn pair(&self, a: &SystemId, b: &SystemId) -> Option<(usize, usize)> {
        let (i, j) = (self.index(a)?, self.index(b)?);
        (i != j).then_some((i, j))
    }

    fn dominates_at(&self, i: usize, j: usize) -> bool {
        self.dominates[i * self.systems.len() + j]
    }

    /// Whether `a` strictly dominates a different system `b`.
    pub fn dominates(&self, a: &SystemId, b: &SystemId) -> bool {
        self.pair(a, b)
            .is_some_and(|(i, j)| self.dominates_at(i, j))
    }

    /// Whether equal edges alone join `a` to a different system `b`.
    pub fn equal(&self, a: &SystemId, b: &SystemId) -> bool {
        self.pair(a, b)
            .is_some_and(|(i, j)| self.class[i] == self.class[j])
    }

    /// Compares two systems. A system is [`Comparison::Equal`] to itself,
    /// as [`ResolvedOrder::at_least_as_good`] holds it as good as itself.
    pub fn compare(&self, a: &SystemId, b: &SystemId) -> Comparison {
        if a == b {
            return Comparison::Equal;
        }
        match (self.dominates(a, b), self.dominates(b, a)) {
            (true, false) => Comparison::Better,
            (false, true) => Comparison::Worse,
            (true, true) => Comparison::Incomparable, // contradictory edges
            (false, false) if self.equal(a, b) => Comparison::Equal,
            (false, false) => Comparison::Incomparable,
        }
    }

    /// Whether `a` is `b`, dominates it, or equals it: what a workload's
    /// performance bound (Listing 3) asks of the selected system.
    pub fn at_least_as_good(&self, a: &SystemId, b: &SystemId) -> bool {
        a == b || self.dominates(a, b) || self.equal(a, b)
    }

    /// Dominance rank of each system in `universe`: the number of universe
    /// members it strictly dominates. Used by the optimizer to scalarize
    /// the partial order into soft-constraint weights.
    pub fn ranks<'u>(
        &self,
        universe: impl IntoIterator<Item = &'u SystemId>,
    ) -> BTreeMap<&'u SystemId, usize> {
        let members: Vec<(&SystemId, Option<usize>)> =
            universe.into_iter().map(|s| (s, self.index(s))).collect();
        let rank = |i: usize| {
            let dominated = |j: usize| j != i && self.dominates_at(i, j);
            members
                .iter()
                .filter(|(_, j)| j.is_some_and(dominated))
                .count()
        };
        members
            .iter()
            .map(|&(s, i)| (s, i.map_or(0, rank)))
            .collect()
    }

    /// A strict-preference cycle among the active edges, as its witnesses:
    /// the first pair of systems in id order that dominate each other,
    /// else the first system that dominates itself (a strict self-edge).
    pub fn cycle(&self) -> Option<Vec<SystemId>> {
        let n = self.systems.len();
        let pair = (0..n).find_map(|i| {
            (i + 1..n)
                .find(|&j| self.dominates_at(i, j) && self.dominates_at(j, i))
                .map(|j| vec![self.systems[i].clone(), self.systems[j].clone()])
        });
        pair.or_else(|| {
            (0..n)
                .find(|&i| self.dominates_at(i, i))
                .map(|i| vec![self.systems[i].clone()])
        })
    }

    /// Edges that stay conditional after static resolution, paired with
    /// their residual conditions, in catalog order.
    pub fn residual(&self) -> &[(&'a OrderingEdge, Condition)] {
        &self.residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::CmpOp;
    use crate::types::{ParamName, Property};

    struct Ctx {
        link_speed: f64,
    }

    impl StaticContext for Ctx {
        fn param(&self, name: &ParamName) -> Option<f64> {
            (name.as_str() == "link_speed_gbps").then_some(self.link_speed)
        }
        fn workload_has(&self, _p: &Property) -> bool {
            false
        }
    }

    fn sid(s: &str) -> SystemId {
        SystemId::new(s)
    }

    /// A miniature of Figure 1's throughput (yellow) ordering.
    fn figure1_like() -> PreferenceOrder {
        let mut o = PreferenceOrder::new();
        let t = Dimension::Throughput;
        o.add(
            OrderingEdge::strict("NETCHANNEL", "LINUX", t.clone()).when(Condition::param(
                "link_speed_gbps",
                CmpOp::Ge,
                40.0,
            )),
        );
        o.add(
            OrderingEdge::equal("NETCHANNEL", "LINUX", t.clone()).when(Condition::param(
                "link_speed_gbps",
                CmpOp::Lt,
                40.0,
            )),
        );
        o.add(OrderingEdge::strict("SNAP", "NETCHANNEL", t.clone()));
        o.add(OrderingEdge::strict("SHENANGO", "LINUX", t));
        o
    }

    #[test]
    fn conditional_edge_activates_with_parameter() {
        let o = figure1_like();
        let t = Dimension::Throughput;
        let fast = o.resolve(&t, &Ctx { link_speed: 100.0 });
        let slow = o.resolve(&t, &Ctx { link_speed: 10.0 });
        assert_eq!(
            fast.compare(&sid("NETCHANNEL"), &sid("LINUX")),
            Comparison::Better
        );
        assert_eq!(
            slow.compare(&sid("NETCHANNEL"), &sid("LINUX")),
            Comparison::Equal
        );
        assert_eq!(
            fast.compare(&sid("LINUX"), &sid("NETCHANNEL")),
            Comparison::Worse
        );
    }

    #[test]
    fn transitive_dominance() {
        let o = figure1_like();
        let t = Dimension::Throughput;
        let fast = o.resolve(&t, &Ctx { link_speed: 100.0 });
        // SNAP ≻ NETCHANNEL ≻ LINUX (at 100 Gbps)
        assert_eq!(
            fast.compare(&sid("SNAP"), &sid("LINUX")),
            Comparison::Better
        );
        assert!(fast.dominates(&sid("SNAP"), &sid("NETCHANNEL")));
        assert!(fast.dominates(&sid("SNAP"), &sid("LINUX")));
    }

    #[test]
    fn strictness_travels_through_equal_edges() {
        // A ≻ B, B ≈ C ⇒ A ≻ C.
        let mut o = PreferenceOrder::new();
        let d = Dimension::Isolation;
        o.add(OrderingEdge::strict("A", "B", d.clone()));
        o.add(OrderingEdge::equal("B", "C", d.clone()));
        let r = o.resolve(&d, &Ctx { link_speed: 0.0 });
        assert_eq!(r.compare(&sid("A"), &sid("C")), Comparison::Better);
        // But B vs C alone: Equal, no strict edge on the path.
        assert_eq!(r.compare(&sid("B"), &sid("C")), Comparison::Equal);
    }

    #[test]
    fn incomparability_is_reported_not_invented() {
        // Figure 1: no isolation edge between SHENANGO and DEMIKERNEL.
        let o = figure1_like();
        let ctx = Ctx { link_speed: 100.0 };
        assert_eq!(
            o.compare(
                &sid("SHENANGO"),
                &sid("DEMIKERNEL"),
                &Dimension::Isolation,
                &ctx
            ),
            Comparison::Incomparable
        );
        // And SNAP vs SHENANGO on throughput: both beat others but no chain
        // connects them.
        assert_eq!(
            o.compare(&sid("SNAP"), &sid("SHENANGO"), &Dimension::Throughput, &ctx),
            Comparison::Incomparable
        );
    }

    #[test]
    fn ranks_scalarize_dominance() {
        let o = figure1_like();
        let t = Dimension::Throughput;
        let fast = o.resolve(&t, &Ctx { link_speed: 100.0 });
        let universe = vec![
            sid("SNAP"),
            sid("NETCHANNEL"),
            sid("LINUX"),
            sid("SHENANGO"),
        ];
        let ranks = fast.ranks(&universe);
        assert_eq!(ranks[&sid("SNAP")], 2); // dominates NETCHANNEL, LINUX
        assert_eq!(ranks[&sid("NETCHANNEL")], 1);
        assert_eq!(ranks[&sid("LINUX")], 0);
        assert_eq!(ranks[&sid("SHENANGO")], 1);
    }

    #[test]
    fn dynamic_edges_survive_partial_eval() {
        let mut o = PreferenceOrder::new();
        let t = Dimension::Throughput;
        // Figure 1: "If (Pony enabled) > If (TCP enabled)" — dynamic on a
        // system selection.
        o.add(OrderingEdge::strict("SNAP", "LINUX", t.clone()).when(Condition::system("PONY")));
        let r = o.resolve(&t, &Ctx { link_speed: 100.0 });
        assert_eq!(
            r.compare(&sid("SNAP"), &sid("LINUX")),
            Comparison::Incomparable
        );
        let dynamic = r.residual();
        assert_eq!(dynamic.len(), 1);
        assert_eq!(dynamic[0].1, Condition::system("PONY"));
    }

    #[test]
    fn cycle_detection() {
        let mut o = PreferenceOrder::new();
        let d = Dimension::Latency;
        o.add(OrderingEdge::strict("A", "B", d.clone()));
        o.add(OrderingEdge::strict("B", "C", d.clone()));
        let ctx = Ctx { link_speed: 0.0 };
        assert_eq!(o.resolve(&d, &ctx).cycle(), None);
        o.add(OrderingEdge::strict("C", "A", d.clone()));
        assert!(o.resolve(&d, &ctx).cycle().is_some());
    }

    /// A mutually dominating pair is named before a self-edge, so every
    /// cycle with two witnesses keeps them; a lone self-edge is a cycle.
    #[test]
    fn cycle_witnesses_prefer_a_pair_over_a_self_edge() {
        let d = Dimension::Latency;
        let ctx = Ctx { link_speed: 0.0 };
        let mut o = PreferenceOrder::new();
        o.add(OrderingEdge::strict("A", "A", d.clone()));
        assert_eq!(o.resolve(&d, &ctx).cycle(), Some(vec![sid("A")]));
        o.add(OrderingEdge::strict("C", "B", d.clone()));
        o.add(OrderingEdge::equal("B", "C", d.clone()));
        assert_eq!(o.resolve(&d, &ctx).cycle(), Some(vec![sid("B"), sid("C")]));
    }

    #[test]
    fn json_roundtrip() {
        let o = figure1_like();
        let text = netarch_rt::json::to_string(&o);
        let back: PreferenceOrder = netarch_rt::json::from_str(&text).unwrap();
        assert_eq!(back.edges().len(), o.edges().len());
    }
}
