//! Property tests for the conditional partial-order algebra: the resolved
//! dominance closure must behave like a preorder with strictness —
//! antisymmetric verdicts, transitive dominance, ranks consistent with
//! pairwise comparisons, and equivalence symmetric — and must agree with a
//! brute-force closure on orders with cycles, self-edges and conditions.

use netarch_core::condition::StaticContext;
use netarch_core::ordering::{Comparison, OrderingEdge, PreferenceOrder};
use netarch_core::prelude::*;
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{prop_assert, prop_assert_eq, Rng};

const N: usize = 6;

fn sid(i: usize) -> SystemId {
    SystemId::new(format!("S{i}"))
}

struct NoCtx;
impl StaticContext for NoCtx {
    fn param(&self, _n: &ParamName) -> Option<f64> {
        None
    }
    fn workload_has(&self, _p: &Property) -> bool {
        false
    }
}

/// Raw edge lists; a shrinkable stand-in for a [`PreferenceOrder`].
type RawEdges = (Vec<(usize, usize)>, Vec<(usize, usize)>);

fn gen_edges(rng: &mut Rng) -> RawEdges {
    let strict = gen_vec(rng, 0..=9, |r| (r.gen_range(0..N), r.gen_range(0..N)));
    let equal = gen_vec(rng, 0..=3, |r| (r.gen_range(0..N), r.gen_range(0..N)));
    (strict, equal)
}

/// Random DAG-ish edge set: strict edges only from lower to higher index
/// (guaranteeing acyclicity), equal edges anywhere.
fn build_order(edges: &RawEdges) -> PreferenceOrder {
    let mut o = PreferenceOrder::new();
    for &(a, b) in &edges.0 {
        let (a, b) = (a % N, b % N);
        if a == b {
            continue;
        }
        let (hi, lo) = if a < b { (a, b) } else { (b, a) };
        o.add(OrderingEdge::strict(
            sid(hi),
            sid(lo),
            Dimension::Throughput,
        ));
    }
    for &(a, b) in &edges.1 {
        let (a, b) = (a % N, b % N);
        if a == b {
            continue;
        }
        // Equal edges only between same-index-parity nodes to avoid
        // collapsing strict chains into cycles.
        if a % 2 == b % 2 {
            o.add(OrderingEdge::equal(sid(a), sid(b), Dimension::Isolation));
        }
    }
    o
}

#[test]
fn comparisons_are_antisymmetric() {
    prop::check(&Config::with_cases(128), gen_edges, |edges| {
        let o = build_order(edges);
        let r = o.resolve(&Dimension::Throughput, &NoCtx);
        for a in 0..N {
            for b in 0..N {
                if a == b {
                    continue;
                }
                let ab = r.compare(&sid(a), &sid(b));
                let ba = r.compare(&sid(b), &sid(a));
                let expected = match ab {
                    Comparison::Better => Comparison::Worse,
                    Comparison::Worse => Comparison::Better,
                    other => other,
                };
                prop_assert_eq!(ba, expected, "S{} vs S{}", a, b);
            }
        }
        Ok(())
    });
}

#[test]
fn dominance_is_transitive() {
    prop::check(&Config::with_cases(128), gen_edges, |edges| {
        let o = build_order(edges);
        let r = o.resolve(&Dimension::Throughput, &NoCtx);
        for a in 0..N {
            for b in (0..N).filter(|&b| r.dominates(&sid(a), &sid(b))) {
                for c in (0..N).filter(|&c| r.dominates(&sid(b), &sid(c))) {
                    prop_assert!(
                        r.dominates(&sid(a), &sid(c)),
                        "S{} ≻ S{} ≻ S{} but closure misses the chain",
                        a,
                        b,
                        c
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn strict_dominance_is_irreflexive_on_acyclic_inputs() {
    prop::check(&Config::with_cases(128), gen_edges, |edges| {
        let o = build_order(edges);
        let r = o.resolve(&Dimension::Throughput, &NoCtx);
        prop_assert_eq!(r.cycle(), None);
        for a in 0..N {
            prop_assert!(!r.dominates(&sid(a), &sid(a)), "S{} dominates itself", a);
        }
        Ok(())
    });
}

#[test]
fn ranks_agree_with_pairwise_dominance() {
    prop::check(&Config::with_cases(128), gen_edges, |edges| {
        let o = build_order(edges);
        let r = o.resolve(&Dimension::Throughput, &NoCtx);
        let universe: Vec<SystemId> = (0..N).map(sid).collect();
        let ranks = r.ranks(&universe);
        for a in 0..N {
            let expected = (0..N)
                .filter(|&b| b != a)
                .filter(|&b| r.compare(&sid(a), &sid(b)) == Comparison::Better)
                .count();
            prop_assert_eq!(ranks[&sid(a)], expected, "rank of S{}", a);
        }
        Ok(())
    });
}

#[test]
fn equality_is_symmetric_and_never_strict() {
    prop::check(&Config::with_cases(128), gen_edges, |edges| {
        let o = build_order(edges);
        let r = o.resolve(&Dimension::Isolation, &NoCtx);
        for a in 0..N {
            for b in (0..N).filter(|&b| r.equal(&sid(a), &sid(b))) {
                prop_assert!(
                    r.equal(&sid(b), &sid(a)),
                    "equality not symmetric: S{} ~ S{}",
                    a,
                    b
                );
                // No strict edges exist on this dimension in the generator,
                // so equality must be the whole story.
                prop_assert_eq!(r.compare(&sid(a), &sid(b)), Comparison::Equal);
            }
        }
        Ok(())
    });
}

#[test]
fn conditional_edges_do_not_leak_across_contexts() {
    prop::check(
        &Config::with_cases(128),
        |rng| gen_vec(rng, 1..=7, |r| (r.gen_range(0..N), r.gen_range(0..N))),
        |strict| {
            // Every edge gated on a parameter the context lacks: nothing holds.
            let mut o = PreferenceOrder::new();
            for &(a, b) in strict {
                let (a, b) = (a % N, b % N);
                if a == b {
                    continue;
                }
                let (hi, lo) = if a < b { (a, b) } else { (b, a) };
                o.add(
                    OrderingEdge::strict(sid(hi), sid(lo), Dimension::Latency)
                        .when(Condition::param("undefined_param", CmpOp::Ge, 1.0)),
                );
            }
            for a in 0..N {
                for b in 0..N {
                    if a == b {
                        continue;
                    }
                    prop_assert_eq!(
                        o.compare(&sid(a), &sid(b), &Dimension::Latency, &NoCtx),
                        Comparison::Incomparable
                    );
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Reference closure: arbitrary orders against Floyd–Warshall
// ---------------------------------------------------------------------------

/// A context whose only parameter is `p`.
struct P(f64);
impl StaticContext for P {
    fn param(&self, name: &ParamName) -> Option<f64> {
        (name.as_str() == "p").then_some(self.0)
    }
    fn workload_has(&self, _p: &Property) -> bool {
        false
    }
}

/// `(a, b, code)`: an edge between `a` and `b`, strict when `code` is even
/// (self-edges and cycles allowed), with condition `code / 2`: always,
/// `p ≥ 1`, `p < 1`, or a system selection that stays residual.
type AnyEdges = Vec<(usize, usize, usize)>;

const CONTEXTS: [f64; 2] = [0.0, 2.0];

fn any_order(edges: &AnyEdges) -> PreferenceOrder {
    let mut o = PreferenceOrder::new();
    for &(a, b, code) in edges {
        let (a, b, code) = (a % N, b % N, code % 8);
        let edge = if code % 2 == 0 {
            OrderingEdge::strict(sid(a), sid(b), Dimension::Latency)
        } else {
            OrderingEdge::equal(sid(a), sid(b), Dimension::Latency)
        };
        o.add(match code / 2 {
            0 => edge,
            1 => edge.when(Condition::param("p", CmpOp::Ge, 1.0)),
            2 => edge.when(Condition::param("p", CmpOp::Lt, 1.0)),
            _ => edge.when(Condition::system(sid((a + 1) % N))),
        });
    }
    o
}

/// Whether edge `code` holds statically at parameter value `p`, and
/// whether it stays residual there.
fn holds(code: usize, p: f64) -> (bool, bool) {
    match (code % 8) / 2 {
        0 => (true, false),
        1 => (p >= 1.0, false),
        2 => (p < 1.0, false),
        _ => (false, true),
    }
}

/// Brute force: `reach` is the reflexive-transitive closure of one step
/// (a strict edge forward, an equal edge either way) and `same` that of
/// equal steps alone, both by Floyd–Warshall. `i` dominates `j` when some
/// strict edge `k ≻ l` has `i ⇝ k` and `l ⇝ j`.
fn brute_closure(edges: &AnyEdges, p: f64) -> ([[bool; N]; N], [[bool; N]; N]) {
    let mut reach = [[false; N]; N];
    let mut same = [[false; N]; N];
    let mut strict = Vec::new();
    for i in 0..N {
        reach[i][i] = true;
        same[i][i] = true;
    }
    for &(a, b, code) in edges {
        let (a, b) = (a % N, b % N);
        if !holds(code, p).0 {
            continue;
        }
        reach[a][b] = true;
        if code % 2 == 0 {
            strict.push((a, b));
        } else {
            reach[b][a] = true;
            same[a][b] = true;
            same[b][a] = true;
        }
    }
    for k in 0..N {
        for i in 0..N {
            for j in 0..N {
                reach[i][j] |= reach[i][k] && reach[k][j];
                same[i][j] |= same[i][k] && same[k][j];
            }
        }
    }
    let mut dominates = [[false; N]; N];
    for i in 0..N {
        for j in 0..N {
            dominates[i][j] = strict.iter().any(|&(k, l)| reach[i][k] && reach[l][j]);
        }
    }
    (dominates, same)
}

#[test]
fn resolved_order_matches_a_brute_force_closure() {
    let gen = |rng: &mut Rng| {
        gen_vec(rng, 0..=10, |r| {
            (r.gen_range(0..N), r.gen_range(0..N), r.gen_range(0..8))
        })
    };
    prop::check(&Config::with_cases(256), gen, |edges| {
        let o = any_order(edges);
        for p in CONTEXTS {
            let r = o.resolve(&Dimension::Latency, &P(p));
            let (dom, same) = brute_closure(edges, p);
            for a in 0..N {
                for b in 0..N {
                    let (sa, sb) = (sid(a), sid(b));
                    let d = a != b && dom[a][b];
                    let e = a != b && same[a][b];
                    prop_assert_eq!(r.dominates(&sa, &sb), d, "S{} ≻ S{} at p={}", a, b, p);
                    prop_assert_eq!(r.equal(&sa, &sb), e, "S{} ≈ S{} at p={}", a, b, p);
                    let want = match (d, a != b && dom[b][a]) {
                        (true, false) => Comparison::Better,
                        (false, true) => Comparison::Worse,
                        (false, false) if e => Comparison::Equal,
                        _ => Comparison::Incomparable,
                    };
                    prop_assert_eq!(r.compare(&sa, &sb), want, "S{} vs S{} at p={}", a, b, p);
                }
            }
            let universe: Vec<SystemId> = (0..N).map(sid).collect();
            let ranks = r.ranks(&universe);
            for a in 0..N {
                let want = (0..N).filter(|&b| b != a && dom[a][b]).count();
                prop_assert_eq!(ranks[&sid(a)], want, "rank of S{} at p={}", a, p);
            }
            let cyclic = (0..N).any(|a| dom[a][a]);
            let cycle = r.cycle();
            prop_assert_eq!(cycle.is_some(), cyclic, "cycle at p={}", p);
            for w in cycle.iter().flatten() {
                let i: usize = w.as_str()[1..].parse().unwrap();
                prop_assert!(dom[i][i], "witness {} is on no cycle at p={}", w, p);
            }
            let residual = edges.iter().filter(|e| holds(e.2, p).1).count();
            prop_assert_eq!(r.residual().len(), residual, "residual edges at p={}", p);
        }
        Ok(())
    });
}
