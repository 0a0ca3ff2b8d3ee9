//! Requests, semantic answers, and the query runner.
//!
//! A request pairs a full [`Scenario`] with one query. The service's
//! correctness contract is *semantic*: a cached warm session and a fresh
//! throwaway engine may surface different witnesses (designs, MUS
//! membership) for the same question, but the decided content — the
//! feasibility verdict, the optimal penalty vector, the untruncated
//! equivalence-class set, the minimal fleet size — is unique. [`Answer`]
//! digests exactly that decided content, so differential comparison is
//! equality, with no tolerance knobs.

use netarch_core::prelude::*;

/// The queries the service answers. A subset of the engine surface,
/// chosen so every answer digest is unique-valued (witness-free).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Feasibility: does any compliant design exist?
    Check,
    /// Lexicographic optimization over the scenario's objective stack.
    Optimize,
    /// Enumerate design equivalence classes up to a limit.
    Enumerate(usize),
    /// Minimal fleet size within a server budget.
    Capacity(u64),
}

impl QueryKind {
    /// Short name used in reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Check => "check",
            QueryKind::Optimize => "optimize",
            QueryKind::Enumerate(_) => "enumerate",
            QueryKind::Capacity(_) => "capacity",
        }
    }
}

/// How the load generator classified a request (cold compile, exact
/// repeat of an earlier scenario, or near-variant sharing its catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// First sighting of this scenario content.
    Cold,
    /// Byte-identical repeat of an earlier request's scenario.
    Repeat,
    /// Mutated context over an earlier request's catalog.
    Variant,
}

impl RequestClass {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            RequestClass::Cold => "cold",
            RequestClass::Repeat => "repeat",
            RequestClass::Variant => "variant",
        }
    }
}

/// One unit of service work.
#[derive(Clone, Debug)]
pub struct Request {
    /// Monotone id assigned by the submitter; responses are returned in
    /// id order regardless of completion order.
    pub id: u64,
    /// The tenant's scenario.
    pub scenario: Scenario,
    /// The question to answer over it.
    pub query: QueryKind,
    /// Traffic class (informational; carried through to the response).
    pub class: RequestClass,
}

/// The semantic digest of a query answer.
///
/// Every variant carries only content with a unique correct value, so
/// two correct engines always produce equal digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// `check`: whether a compliant design exists.
    Feasibility(bool),
    /// `optimize`: per-level optimal penalties (`None` ⇒ infeasible).
    Penalties(Option<Vec<u64>>),
    /// `enumerate`: class count, plus the sorted class sets when the
    /// enumeration was exhaustive (count < limit). Truncated
    /// enumerations only pin the count — which prefix of classes
    /// surfaces is witness choice.
    Classes {
        /// Number of equivalence classes found (≤ limit).
        count: usize,
        /// Sorted system-id sets per class, present iff exhaustive.
        exhaustive: Option<Vec<Vec<String>>>,
    },
    /// `capacity`: minimal servers needed (`None` ⇒ infeasible at max).
    Capacity(Option<u64>),
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Shard that served it.
    pub shard: usize,
    /// Whether a warm cached session answered (no compilation).
    pub cache_hit: bool,
    /// Echo of the request's traffic class.
    pub class: RequestClass,
    /// The semantic answer, or a compile error rendered to text.
    pub answer: Result<Answer, String>,
    /// Service time in microseconds (queue wait excluded).
    pub micros: u64,
}

/// Runs one query on an engine and digests the answer.
///
/// Shared by the service workers and the fresh-engine oracle so both
/// sides of a differential comparison digest identically.
pub fn run_query(engine: &mut Engine, query: &QueryKind) -> Result<Answer, String> {
    match query {
        QueryKind::Check => {
            let outcome = engine.check().map_err(|e| e.to_string())?;
            Ok(Answer::Feasibility(outcome.design().is_some()))
        }
        QueryKind::Optimize => {
            let result = engine.optimize().map_err(|e| e.to_string())?;
            Ok(Answer::Penalties(
                result
                    .ok()
                    .map(|r| r.levels.iter().map(|l| l.penalty).collect()),
            ))
        }
        QueryKind::Enumerate(limit) => {
            let designs = engine
                .enumerate_designs(*limit, false)
                .map_err(|e| e.to_string())?;
            let count = designs.len();
            let exhaustive = (count < *limit).then(|| {
                let mut classes: Vec<Vec<String>> = designs
                    .iter()
                    .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
                    .collect();
                classes.sort();
                classes
            });
            Ok(Answer::Classes { count, exhaustive })
        }
        QueryKind::Capacity(max) => {
            let result = engine.plan_capacity(*max).map_err(|e| e.to_string())?;
            Ok(Answer::Capacity(result.ok().map(|p| p.servers_needed)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole point of the serving layer: engines move to worker
    // threads and responses come back over channels. Compile-time
    // proof that the session object stays `Send`.
    fn assert_send<T: Send>() {}

    #[test]
    fn engine_and_wire_types_are_send() {
        assert_send::<Engine>();
        assert_send::<Request>();
        assert_send::<Response>();
    }
}
