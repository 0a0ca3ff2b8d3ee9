//! Persistent probe workers: the crate's one source of parallel solving.
//!
//! A [`ProbePool`] keeps one diversified [`Solver`] per seat alive over one
//! fixed formula, so the CNF is built once per worker and every learnt
//! clause stays warm for the next round. Callers issue *rounds*: probe `i`
//! of a round runs on seat `i`, each probe an assumption set over the same
//! formula. A one-shot parallel solve is a single round that broadcasts the
//! same assumptions to every seat; a query loop (the MaxSAT descent) issues
//! round after round at different bounds.
//!
//! Within a round the seats race under first-winner-cancels: any seat
//! reaching a decisive verdict raises the shared interrupt flag, and the
//! other seats abandon their (now redundant) probes at the next poll. The
//! flag is polled as the first statement of every search-loop iteration, so
//! a cancelled probe stops within one conflict and its solver stays usable.
//!
//! In deterministic mode there is no interrupt flag: every seat runs its
//! probe to completion (or its conflict budget), so seat `i`'s outcome is a
//! pure function of the formula and the sequence of probes dispatched to
//! seat `i`. A caller that dispatches probes positionally and folds results
//! in a fixed order gets bit-identical runs.
//!
//! Seats are diversified by `diversified_config`: seat 0 runs the base
//! configuration unmodified, so a one-seat pool searches exactly like the
//! sequential solver. All randomness flows from the configured seed.

use crate::lit::{Lit, Var};
use crate::solver::{SolveResult, Solver, SolverConfig};
use crate::stats::Stats;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Derives seat `seat`'s solver configuration from the base.
///
/// Seat 0 is always the base unmodified (sequential equivalence); later
/// seats vary saved-phase polarity, VSIDS decay, restart cadence, and
/// seeded random tie-breaking. Seats ≥ 4 cycle the variations with fresh
/// seeds. All randomness flows from `seed` — nothing here reads the clock
/// or ambient entropy.
fn diversified_config(base: &SolverConfig, seat: usize, seed: u64) -> SolverConfig {
    let mut c = base.clone();
    if seat == 0 {
        return c;
    }
    c.random_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seat as u64);
    match seat % 4 {
        1 => {
            // Opposite phase corner: starts "all true" where the base
            // starts "all false".
            c.default_polarity = !base.default_polarity;
        }
        2 => {
            // Aggressive forgetting + rapid restarts + light randomness.
            c.var_decay = 0.85;
            c.restart_base = 50;
            c.random_decision_freq = 0.01;
        }
        3 => {
            // Slow decay + long restarts + opposite phase + more noise.
            c.var_decay = 0.99;
            c.restart_base = 300;
            c.default_polarity = !base.default_polarity;
            c.random_decision_freq = 0.05;
        }
        _ => {
            // seat % 4 == 0 (seat ≥ 4): base search shape, but seeded
            // random tie-breaking makes it explore differently.
            c.random_decision_freq = 0.02;
        }
    }
    c
}

/// Configuration for a [`ProbePool`].
#[derive(Clone, Debug)]
pub struct ProbePoolConfig {
    /// Number of worker seats (clamped to at least 1).
    pub seats: usize,
    /// Variable count of the formula.
    pub num_vars: usize,
    /// The formula every seat loads once at startup.
    pub clauses: Arc<Vec<Vec<Lit>>>,
    /// Base solver configuration; seat 0 runs it unmodified, later seats
    /// run seeded variations (see the [module docs](self)).
    pub base: SolverConfig,
    /// Variables any round's probe may assume, frozen in every seat at
    /// startup. The session solver freezes assumption variables lazily at
    /// first use, but pool seats see a *different* assumption set each
    /// round — a variable only assumed in round N could be eliminated by a
    /// seat's restart-boundary inprocessing during rounds 1..N, and
    /// assuming an eliminated variable is a protocol violation. Callers
    /// must declare the full assumable set up front.
    pub frozen: Vec<Var>,
    /// Deterministic mode: no cancellation; each seat's outcome depends
    /// only on its own probe sequence.
    pub deterministic: bool,
    /// Diversification seed; all seat randomness flows from it.
    pub seed: u64,
    /// Optional per-probe conflict budget; exhausted probes report
    /// [`SolveResult::Unknown`].
    pub conflict_budget: Option<u64>,
}

/// Outcome of one probe on one seat.
#[derive(Clone, Debug)]
pub struct ProbeOutcome {
    /// The probe verdict (`Unknown` when interrupted or budget-bounded).
    pub result: SolveResult,
    /// Full model (indexed by variable) when the verdict is SAT.
    pub model: Option<Vec<Option<bool>>>,
}

/// Reads a literal's value out of a raw model vector (as carried by
/// [`ProbeOutcome::model`]).
pub fn lit_value_in(model: &[Option<bool>], lit: Lit) -> Option<bool> {
    model
        .get(lit.var().index())
        .copied()
        .flatten()
        .map(|b| if lit.is_positive() { b } else { !b })
}

/// What a seat sends back per probe: its outcome, or the message of a
/// panic that killed the seat.
type SeatReply = (usize, Result<ProbeOutcome, String>);

struct Seat {
    jobs: mpsc::Sender<Vec<Lit>>,
    handle: thread::JoinHandle<Result<Stats, String>>,
}

/// The message a panic payload carries (`panic!` with a literal or with
/// format arguments), for re-raising on the caller's thread.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A pool of persistent probe workers over one formula. See the
/// [module docs](self).
pub struct ProbePool {
    seats: Vec<Seat>,
    results: mpsc::Receiver<SeatReply>,
    interrupt: Arc<AtomicBool>,
}

impl ProbePool {
    /// Spawns the worker seats; each builds its solver from the shared
    /// formula once and then waits for probes.
    pub fn new(config: ProbePoolConfig) -> ProbePool {
        let n = config.seats.max(1);
        let interrupt = Arc::new(AtomicBool::new(false));
        let (results_tx, results) = mpsc::channel::<SeatReply>();
        let mut seats = Vec::with_capacity(n);
        for seat in 0..n {
            let (jobs_tx, jobs_rx) = mpsc::channel::<Vec<Lit>>();
            let seat_config = diversified_config(&config.base, seat, config.seed);
            let clauses = Arc::clone(&config.clauses);
            let interrupt = Arc::clone(&interrupt);
            let results_tx = results_tx.clone();
            let num_vars = config.num_vars;
            let deterministic = config.deterministic;
            let budget = config.conflict_budget;
            let frozen = config.frozen.clone();
            let serve = move |results_tx: &mpsc::Sender<SeatReply>| {
                let mut solver = Solver::with_config(seat_config);
                solver.ensure_vars(num_vars);
                for clause in clauses.iter() {
                    if !solver.add_clause(clause.iter().copied()) {
                        break;
                    }
                }
                for &v in &frozen {
                    solver.freeze_var(v);
                }
                solver.set_conflict_budget(budget);
                if !deterministic {
                    solver.set_interrupt(Arc::clone(&interrupt));
                }
                while let Ok(assumptions) = jobs_rx.recv() {
                    let result = solver.solve_with(&assumptions);
                    if matches!(result, SolveResult::Sat | SolveResult::Unsat) && !deterministic {
                        // Decisive: cancel the other seats' probes. The
                        // caller resets the flag before the next round.
                        interrupt.store(true, Ordering::Relaxed);
                    }
                    let model = if result == SolveResult::Sat {
                        Some(
                            (0..num_vars)
                                .map(|i| solver.model_value(Var::from_index(i)))
                                .collect(),
                        )
                    } else {
                        None
                    };
                    if results_tx.send((seat, Ok(ProbeOutcome { result, model }))).is_err() {
                        break;
                    }
                }
                *solver.stats()
            };
            let handle = thread::spawn(move || {
                // A panicking seat must still answer: every seat holds a
                // clone of the result sender, so a seat that died silently
                // would leave `solve_round` waiting forever on the others.
                panic::catch_unwind(AssertUnwindSafe(|| serve(&results_tx))).map_err(|payload| {
                    let message = panic_message(payload.as_ref());
                    let _ = results_tx.send((seat, Err(message.clone())));
                    message
                })
            });
            seats.push(Seat { jobs: jobs_tx, handle });
        }
        ProbePool { seats, results, interrupt }
    }

    /// Number of worker seats.
    pub fn seats(&self) -> usize {
        self.seats.len()
    }

    /// Races one round of probes: probe `i` runs on seat `i`, and the
    /// returned outcomes are positional (`outcomes[i]` answers `probes[i]`).
    /// At most [`ProbePool::seats`] probes per round.
    ///
    /// In racing mode the first decisive seat interrupts the rest, whose
    /// probes then come back `Unknown`; in deterministic mode every seat
    /// finishes. The call blocks until all of the round's probes report.
    pub fn solve_round(&mut self, probes: &[Vec<Lit>]) -> Vec<ProbeOutcome> {
        assert!(
            probes.len() <= self.seats.len(),
            "round of {} probes exceeds {} seats",
            probes.len(),
            self.seats.len()
        );
        self.interrupt.store(false, Ordering::Relaxed);
        for (seat, probe) in self.seats.iter().zip(probes) {
            // A send fails only when the seat is gone; a seat that died of a
            // panic still sends its message, and the loop below raises it.
            let _ = seat.jobs.send(probe.clone());
        }
        let mut outcomes: Vec<Option<ProbeOutcome>> = Vec::with_capacity(probes.len());
        outcomes.resize_with(probes.len(), || None);
        for _ in 0..probes.len() {
            let (seat, reply) = self
                .results
                .recv()
                .expect("every probe seat exited before answering its probe");
            match reply {
                Ok(outcome) => outcomes[seat] = Some(outcome),
                Err(message) => panic!("probe seat {seat} panicked: {message}"),
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every dispatched seat reports exactly once"))
            .collect()
    }

    /// Shuts the pool down and returns each seat's accumulated solver
    /// statistics, so callers can fold worker effort into session totals.
    pub fn finish(self) -> Vec<Stats> {
        let ProbePool { seats, results, .. } = self;
        drop(results);
        seats
            .into_iter()
            .enumerate()
            .map(|(i, seat)| {
                drop(seat.jobs); // closes the job queue; the worker loop ends
                seat.handle
                    .join()
                    .expect("probe seat threads catch their panics")
                    .unwrap_or_else(|message| panic!("probe seat {i} panicked: {message}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seats: usize, clauses: Vec<Vec<Lit>>, num_vars: usize, deterministic: bool) -> ProbePool {
        ProbePool::new(ProbePoolConfig {
            seats,
            num_vars,
            clauses: Arc::new(clauses),
            base: SolverConfig::default(),
            frozen: (0..num_vars).map(Var::from_index).collect(),
            deterministic,
            seed: 7,
            conflict_budget: None,
        })
    }

    #[test]
    fn probes_answer_positionally() {
        // x0 ∨ x1; probe A assumes ¬x0 (SAT via x1), probe B assumes
        // ¬x0 ∧ ¬x1 (UNSAT). In deterministic mode both finish; in racing
        // mode the first decisive seat may cancel the other to `Unknown`,
        // but a decisive answer must still be the correct one.
        let v = |i: usize| Var::from_index(i);
        let clauses = vec![vec![v(0).positive(), v(1).positive()]];
        for deterministic in [false, true] {
            let mut p = pool(2, clauses.clone(), 2, deterministic);
            let outcomes = p.solve_round(&[
                vec![v(0).negative()],
                vec![v(0).negative(), v(1).negative()],
            ]);
            match outcomes[0].result {
                SolveResult::Sat => {
                    let model = outcomes[0].model.as_ref().expect("SAT carries a model");
                    assert_eq!(lit_value_in(model, v(1).positive()), Some(true));
                }
                SolveResult::Unknown => assert!(!deterministic, "only cancellation yields Unknown"),
                SolveResult::Unsat => panic!("probe A is satisfiable"),
            }
            match outcomes[1].result {
                SolveResult::Unsat => assert!(outcomes[1].model.is_none()),
                SolveResult::Unknown => assert!(!deterministic, "only cancellation yields Unknown"),
                SolveResult::Sat => panic!("probe B is unsatisfiable"),
            }
            assert!(
                outcomes.iter().any(|o| o.result != SolveResult::Unknown),
                "at least one seat reaches a decisive verdict"
            );
            let stats = p.finish();
            assert_eq!(stats.len(), 2);
            assert_eq!(stats[0].solves, 1);
            assert_eq!(stats[1].solves, 1);
        }
    }

    #[test]
    fn seats_persist_across_rounds() {
        let v = |i: usize| Var::from_index(i);
        let clauses = vec![vec![v(0).positive(), v(1).positive()]];
        let mut p = pool(2, clauses, 2, true);
        for _ in 0..3 {
            let outcomes = p.solve_round(&[vec![v(0).negative()], vec![v(1).negative()]]);
            assert_eq!(outcomes[0].result, SolveResult::Sat);
            assert_eq!(outcomes[1].result, SolveResult::Sat);
        }
        let stats = p.finish();
        // One solver per seat survived all three rounds.
        assert_eq!(stats[0].solves, 3);
        assert_eq!(stats[1].solves, 3);
    }

    #[test]
    fn deterministic_rounds_repeat_bit_identically() {
        let v = |i: usize| Var::from_index(i);
        // A slightly constrained formula so models are nontrivial.
        let clauses = vec![
            vec![v(0).positive(), v(1).positive(), v(2).positive()],
            vec![v(0).negative(), v(3).positive()],
        ];
        let run = || {
            let mut p = pool(3, clauses.clone(), 4, true);
            let mut transcripts = Vec::new();
            for _ in 0..2 {
                let outcomes =
                    p.solve_round(&[vec![], vec![v(1).negative()], vec![v(2).negative()]]);
                transcripts.extend(
                    outcomes.into_iter().map(|o| (o.result, o.model)),
                );
            }
            (transcripts, p.finish())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        for ((r1, m1), (r2, m2)) in t1.iter().zip(&t2) {
            assert_eq!(r1, r2);
            assert_eq!(m1, m2);
        }
        assert_eq!(s1, s2, "per-seat stats must be timing-independent");
    }

    /// A two-seat deterministic pool whose config forces inprocessing after
    /// the very first conflict; (x0 ∨ x1) ∧ (x0 ∨ ¬x1) yields that conflict
    /// under the all-false default polarity, and x2 — touched by no
    /// round-1 assumption — is a prime BVE target via (x2 ∨ x3) ∧ (¬x2 ∨ x4).
    fn inprocessing_pool(frozen: Vec<Var>) -> ProbePool {
        let v = |i: usize| Var::from_index(i);
        let clauses = vec![
            vec![v(0).positive(), v(1).positive()],
            vec![v(0).positive(), v(1).negative()],
            vec![v(2).positive(), v(3).positive()],
            vec![v(2).negative(), v(4).positive()],
        ];
        ProbePool::new(ProbePoolConfig {
            seats: 2,
            num_vars: 5,
            clauses: Arc::new(clauses),
            base: SolverConfig {
                restart_base: 1,
                inprocess_interval: 1,
                ..SolverConfig::default()
            },
            frozen,
            deterministic: true,
            seed: 7,
            conflict_budget: None,
        })
    }

    #[test]
    fn declared_assumables_survive_seat_inprocessing() {
        // Regression: a variable assumed only in a *later* round must not
        // be BVE-eliminated by a seat's restart-boundary inprocessing
        // during an earlier round. Declaring x2 up front keeps round 2's
        // assumption legal.
        let v = |i: usize| Var::from_index(i);
        let mut p = inprocessing_pool(vec![v(2)]);
        let first = p.solve_round(&[vec![], vec![]]);
        assert!(first.iter().all(|o| o.result == SolveResult::Sat));
        let second = p.solve_round(&[vec![v(2).positive()], vec![v(2).negative()]]);
        assert_eq!(second[0].result, SolveResult::Sat);
        assert_eq!(second[1].result, SolveResult::Sat);
        let model = second[0].model.as_ref().expect("SAT probes carry a model");
        assert_eq!(lit_value_in(model, v(2).positive()), Some(true));
        p.finish();
    }

    #[test]
    fn short_rounds_use_a_prefix_of_seats() {
        let v = |i: usize| Var::from_index(i);
        let mut p = pool(4, vec![vec![v(0).positive()]], 1, true);
        let outcomes = p.solve_round(&[vec![]]);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].result, SolveResult::Sat);
        let stats = p.finish();
        assert_eq!(stats[0].solves, 1);
        assert_eq!(stats[1].solves, 0, "idle seats stay idle");
    }

    #[test]
    #[should_panic(expected = "references an eliminated variable")]
    fn a_panicking_seat_fails_the_round_instead_of_hanging() {
        // Regression: without the declaration, seat 0 eliminates x2 in
        // round 1 and panics on round 2's assumption while seat 1 answers.
        // The round must re-raise seat 0's own message, not wait forever
        // for a reply that never comes.
        let v = |i: usize| Var::from_index(i);
        let mut p = inprocessing_pool(vec![]);
        p.solve_round(&[vec![], vec![]]);
        p.solve_round(&[vec![v(2).positive()], vec![v(2).negative()]]);
    }

    #[test]
    fn seat_zero_is_base_config() {
        let base = SolverConfig::default();
        let s0 = diversified_config(&base, 0, 42);
        assert_eq!(s0.random_seed, base.random_seed);
        assert_eq!(s0.default_polarity, base.default_polarity);
        assert_eq!(s0.random_decision_freq, base.random_decision_freq);
        // Later seats actually differ.
        let s1 = diversified_config(&base, 1, 42);
        assert_ne!(s1.default_polarity, base.default_polarity);
    }
}
