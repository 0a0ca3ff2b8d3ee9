//! Metamorphic and oracle tests for the MaxSAT layer.
//!
//! Most tests apply meaning-preserving (or meaning-shifting-in-a-known-way)
//! transformations to random weighted MaxSAT instances and assert the
//! relation between the optima:
//!
//! * permuting the soft constraints never changes the optimum,
//! * duplicating a soft constraint is equivalent to doubling its weight,
//! * adding a soft constraint satisfied by an optimal model never changes
//!   the optimum.
//!
//! One test pins the optimum itself: the linear descent must reach the
//! brute-force optimum over every assignment of the instance's atoms.
//!
//! Every variant solves on a fresh `Encoder` — the optimizer hardens its
//! optimum into the solver, so encoders cannot be reused across variants.

use netarch_logic::maxsat::{self, MaxSatOutcome};
use netarch_logic::{Atom, Encoder, Formula, Soft};
use netarch_rt::prop::{self, gen_vec, Config};
use netarch_rt::{impl_shrink_struct, prop_assert_eq, Rng};

/// A literal over a small atom universe: (atom index, polarity).
type RawLit = (u32, bool);

/// A random weighted instance: hard 2-literal disjunctions plus weighted
/// soft literals, over up to 5 atoms.
#[derive(Clone, Debug)]
struct RawInstance {
    num_atoms: u32,
    hard: Vec<Vec<RawLit>>,
    soft: Vec<(u64, RawLit)>,
}

impl_shrink_struct!(RawInstance { num_atoms, hard, soft });

fn gen_instance(rng: &mut Rng) -> RawInstance {
    let num_atoms = rng.gen_range(2..=5u32);
    let lit = |r: &mut Rng| (r.gen_range(0..num_atoms), r.gen_bool(0.5));
    let hard = gen_vec(rng, 0..=4, |r| gen_vec(r, 2..=2, lit));
    let soft = gen_vec(rng, 1..=5, |r| (r.gen_range(1..=5u64), lit(r)));
    RawInstance { num_atoms, hard, soft }
}

/// Shrinking is structure-blind; clamp atom indices back into range.
fn normalize(raw: &RawInstance) -> RawInstance {
    let num_atoms = raw.num_atoms.clamp(2, 5);
    let fix = |&(a, pos): &RawLit| (a % num_atoms, pos);
    RawInstance {
        num_atoms,
        hard: raw.hard.iter().map(|c| c.iter().map(fix).collect()).collect(),
        soft: raw.soft.iter().map(|&(w, l)| (w.max(1), fix(&l))).collect(),
    }
}

fn formula(l: RawLit) -> Formula {
    let atom = Formula::Atom(Atom(l.0));
    if l.1 {
        atom
    } else {
        Formula::not(atom)
    }
}

fn softs(raw: &[(u64, RawLit)]) -> Vec<Soft> {
    raw.iter().map(|&(w, l)| Soft::new(w, formula(l))).collect()
}

fn encoder_for(raw: &RawInstance) -> Encoder {
    let mut e = Encoder::new();
    for clause in &raw.hard {
        e.assert(&Formula::or(clause.iter().map(|&l| formula(l))));
    }
    e
}

/// Optimum cost on a fresh encoder; `None` when the hard part is UNSAT.
fn optimum(raw: &RawInstance, soft: &[Soft]) -> Option<u64> {
    let mut e = encoder_for(raw);
    match maxsat::minimize(&mut e, soft) {
        MaxSatOutcome::Optimal { cost, .. } => Some(cost),
        MaxSatOutcome::HardUnsat => None,
        MaxSatOutcome::WeightOverflow => {
            unreachable!("generated weights are tiny; the total cannot overflow")
        }
    }
}

#[test]
fn permuting_soft_order_never_changes_the_optimum() {
    prop::check(
        &Config::with_cases(64),
        |rng| {
            let inst = gen_instance(rng);
            // A permutation as a seed; materialized after normalization so
            // shrinking cannot desynchronize it from the soft list.
            let perm_seed = rng.gen_range(0..u64::MAX / 2);
            (inst, perm_seed)
        },
        |(inst, perm_seed)| {
            let inst = normalize(inst);
            let base = softs(&inst.soft);
            // Fisher-Yates with a derived Rng.
            let mut permuted = base.clone();
            let mut r = Rng::seed_from_u64(*perm_seed);
            for i in (1..permuted.len()).rev() {
                permuted.swap(i, r.gen_range(0..=i));
            }
            prop_assert_eq!(
                optimum(&inst, &base),
                optimum(&inst, &permuted),
                "permutation changed the optimum"
            );
            Ok(())
        },
    );
}

#[test]
fn duplicating_a_soft_equals_doubling_its_weight() {
    prop::check(
        &Config::with_cases(64),
        |rng| {
            let inst = gen_instance(rng);
            let pick = rng.gen_range(0..inst.soft.len());
            (inst, pick)
        },
        |(inst, pick)| {
            let inst = normalize(inst);
            if inst.soft.is_empty() {
                return Ok(()); // shrinking may empty the soft list
            }
            let pick = *pick % inst.soft.len();
            let base = softs(&inst.soft);

            // Variant A: the picked soft appears twice at its weight.
            let mut duplicated = base.clone();
            duplicated.push(base[pick].clone());
            // Variant B: the picked soft once, at double weight.
            let mut doubled = base;
            doubled[pick].weight *= 2;

            prop_assert_eq!(
                optimum(&inst, &duplicated),
                optimum(&inst, &doubled),
                "duplicate soft is not equivalent to doubled weight"
            );
            Ok(())
        },
    );
}

#[test]
fn adding_a_soft_satisfied_by_an_optimal_model_preserves_the_optimum() {
    prop::check(
        &Config::with_cases(64),
        |rng| {
            let inst = gen_instance(rng);
            let atom_seed = rng.gen_range(0..u32::MAX);
            let weight = rng.gen_range(1..=5u64);
            (inst, atom_seed, weight)
        },
        |(inst, atom_seed, weight)| {
            let inst = normalize(inst);
            let base = softs(&inst.soft);

            // Solve the base instance and keep the optimal model around.
            let mut e = encoder_for(&inst);
            let base_cost = match maxsat::minimize(&mut e, &base) {
                MaxSatOutcome::Optimal { cost, .. } => cost,
                // Nothing to compare (tiny weights cannot overflow).
                _ => return Ok(()),
            };

            // A literal the optimal model satisfies. Atoms never mentioned
            // get a fixed polarity: a soft on them is free to satisfy, which
            // is exactly the "already satisfied" case too.
            let atom = Atom(atom_seed % inst.num_atoms);
            let value = e.atom_value(atom).unwrap_or(true);
            let extra = Soft::new(*weight, if value {
                Formula::Atom(atom)
            } else {
                Formula::not(Formula::Atom(atom))
            });

            let mut extended = base;
            extended.push(extra);
            prop_assert_eq!(
                optimum(&inst, &extended),
                Some(base_cost),
                "satisfied extra soft changed the optimum"
            );
            Ok(())
        },
    );
}

/// The brute-force optimum over every assignment of the instance's atoms;
/// `None` when no assignment satisfies the hard part.
fn brute_force_optimum(raw: &RawInstance, soft: &[Soft]) -> Option<u64> {
    (0u32..1 << raw.num_atoms)
        .filter_map(|bits| {
            let value = |a: Atom| (bits >> a.0) & 1 == 1;
            let holds = |&(a, pos): &RawLit| value(Atom(a)) == pos;
            if !raw.hard.iter().all(|clause| clause.iter().any(holds)) {
                return None;
            }
            Some(soft.iter().filter(|s| !s.formula.eval(&value)).map(|s| s.weight).sum())
        })
        .min()
}

#[test]
fn linear_descent_reaches_the_brute_force_optimum() {
    // The generator's instances have at most 5 atoms, so the oracle
    // enumerates all of their assignments. Uniform weights make many
    // assignments tie; mixed weights make the descent bisect over uneven
    // achievable sums.
    prop::check(&Config::with_cases(64), gen_instance, |inst| {
        let inst = normalize(inst);
        let mixed = softs(&inst.soft);
        let uniform: Vec<Soft> =
            mixed.iter().map(|s| Soft::new(1, s.formula.clone())).collect();
        for (kind, soft) in [("uniform", &uniform), ("mixed", &mixed)] {
            prop_assert_eq!(
                optimum(&inst, soft),
                brute_force_optimum(&inst, soft),
                "{} weights: descent missed the optimum", kind
            );
        }
        Ok(())
    });
}
