//! Differential property sweep for the racing MaxSAT descent.
//!
//! Over seeded random weighted instances, `minimize` on an encoder whose
//! backend races bound probes across 1, 2, or 4 parallel seats — in both
//! deterministic and racing arbitration — must report exactly the optimum
//! cost the plain sequential encoder finds. Deterministic runs must repeat
//! bit-identically (same cost, same violated set, same model values).
//!
//! All randomness is seeded — running the sweep twice explores the same
//! instances.

use netarch_logic::backend::{PortfolioOptions, SolveBackend};
use netarch_logic::maxsat::{minimize, MaxSatOutcome, Soft};
use netarch_logic::{Atom, EncodeConfig, Encoder, Formula};
use netarch_rt::Rng;

struct Instance {
    hard: Vec<Formula>,
    soft: Vec<Soft>,
    num_atoms: u32,
}

fn gen_instance(rng: &mut Rng) -> Instance {
    let num_atoms = rng.gen_range(3..=7u32);
    let atom = |rng: &mut Rng, n: u32| {
        let f = Formula::Atom(Atom(rng.gen_range(0..n)));
        if rng.gen_bool(0.5) {
            Formula::not(f)
        } else {
            f
        }
    };
    let mut hard = Vec::new();
    for _ in 0..rng.gen_range(0..6) {
        let x = atom(rng, num_atoms);
        let y = atom(rng, num_atoms);
        hard.push(Formula::or([x, y]));
    }
    let mut soft = Vec::new();
    for _ in 0..rng.gen_range(2..8) {
        soft.push(Soft::new(rng.gen_range(1..9), atom(rng, num_atoms)));
    }
    Instance {
        hard,
        soft,
        num_atoms,
    }
}

fn encoder_with(backend: SolveBackend) -> Encoder {
    Encoder::with_config(EncodeConfig {
        backend,
        ..EncodeConfig::default()
    })
}

fn optimize(instance: &Instance, backend: SolveBackend) -> (MaxSatOutcome, Vec<Option<bool>>) {
    let mut e = encoder_with(backend);
    for h in &instance.hard {
        e.assert(h);
    }
    let outcome = minimize(&mut e, &instance.soft);
    let model = (0..instance.num_atoms)
        .map(|i| e.atom_value(Atom(i)))
        .collect();
    (outcome, model)
}

fn racing_backend(threads: usize, deterministic: bool) -> SolveBackend {
    SolveBackend::Portfolio(PortfolioOptions {
        num_threads: threads,
        deterministic,
        ..PortfolioOptions::default()
    })
}

#[test]
fn racing_descent_matches_sequential_optimum() {
    let mut rng = Rng::seed_from_u64(0xDE5C_E117);
    let mut optima = 0usize;
    for case_idx in 0..30 {
        let instance = gen_instance(&mut rng);
        let (expected, _) = optimize(&instance, SolveBackend::Sequential);
        for threads in [1usize, 2, 4] {
            for deterministic in [true, false] {
                let (got, _) = optimize(&instance, racing_backend(threads, deterministic));
                let label = format!("case={case_idx} threads={threads} det={deterministic}");
                match (&expected, &got) {
                    (
                        MaxSatOutcome::Optimal { cost: a, .. },
                        MaxSatOutcome::Optimal { cost: b, .. },
                    ) => assert_eq!(a, b, "{label}: optimum cost disagrees"),
                    (a, b) => assert_eq!(a, b, "{label}: outcome kind disagrees"),
                }
            }
        }
        if matches!(expected, MaxSatOutcome::Optimal { .. }) {
            optima += 1;
        }
    }
    assert!(
        optima >= 15,
        "degenerate sweep: only {optima} optimizable cases"
    );
}

#[test]
fn deterministic_racing_descent_repeats_bit_identically() {
    let mut rng = Rng::seed_from_u64(0x002E_9EA7);
    for case_idx in 0..10 {
        let instance = gen_instance(&mut rng);
        let (o1, m1) = optimize(&instance, racing_backend(4, true));
        let (o2, m2) = optimize(&instance, racing_backend(4, true));
        assert_eq!(o1, o2, "case {case_idx}: outcome drifted between runs");
        assert_eq!(m1, m2, "case {case_idx}: model drifted between runs");
    }
}
