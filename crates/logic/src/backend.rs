//! Solve-backend selection: sequential session solver vs parallel portfolio.
//!
//! The incremental session solver is the default — it carries learned
//! clauses, heuristic state, and activation-literal bookkeeping across
//! queries. The portfolio backend adds one parallel path: the MaxSAT
//! descent races its bound probes on a `netarch_sat::ProbePool` of
//! diversified seats. Every other solve, one-shot verdicts and
//! core/MUS-bearing ones included, stays on the session solver.
//!
//! The `NETARCH_THREADS` environment variable selects the backend globally:
//! unset, empty, `0`, or `1` mean sequential; `N ≥ 2` means an N-seat
//! portfolio (see [`threads_requested`]).

/// Which solver executes a query's decisive solve calls.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum SolveBackend {
    /// The encoder's own incremental session solver.
    #[default]
    Sequential,
    /// Diversified parallel seats on a probe pool.
    Portfolio(PortfolioOptions),
}

impl SolveBackend {
    /// True for the portfolio variant.
    pub fn is_portfolio(&self) -> bool {
        matches!(self, SolveBackend::Portfolio(_))
    }

    /// A portfolio backend with `num_threads` seats and default options.
    pub fn portfolio(num_threads: usize) -> SolveBackend {
        SolveBackend::Portfolio(PortfolioOptions {
            num_threads,
            ..PortfolioOptions::default()
        })
    }
}

/// Portfolio tuning exposed at the logic layer.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioOptions {
    /// Seat count; fewer than 2 seats solve sequentially on the session
    /// solver.
    pub num_threads: usize,
    /// Deterministic arbitration (no cancellation; every seat finishes and
    /// the lowest-index decisive seat wins) for reproducible runs; see
    /// `netarch_sat::probes`.
    pub deterministic: bool,
    /// Diversification seed threaded into every seat's RNG.
    pub seed: u64,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            num_threads: 4,
            deterministic: false,
            seed: 0,
        }
    }
}

/// Thread count requested via the `NETARCH_THREADS` environment variable,
/// or `None` when unset/invalid (which callers treat as sequential).
pub fn threads_requested() -> Option<usize> {
    parse_threads(std::env::var("NETARCH_THREADS").ok().as_deref())
}

/// The backend selected by the environment: a portfolio when
/// `NETARCH_THREADS` requests two or more seats, sequential otherwise.
/// `NETARCH_DETERMINISTIC` (`1`/`on`) refines a portfolio backend with
/// deterministic arbitration — bit-identical runs, no cancellation.
pub fn backend_from_env() -> SolveBackend {
    match threads_requested() {
        Some(n) if n >= 2 => {
            let mut opts = PortfolioOptions {
                num_threads: n,
                ..PortfolioOptions::default()
            };
            if let Some(on) = parse_switch(std::env::var("NETARCH_DETERMINISTIC").ok().as_deref()) {
                opts.deterministic = on;
            }
            SolveBackend::Portfolio(opts)
        }
        _ => SolveBackend::Sequential,
    }
}

/// Interprets a boolean environment switch (`NETARCH_DETERMINISTIC`):
/// `0`/`off`/`false`/`no` disable, `1`/`on`/`true`/`yes` enable, anything
/// else (including unset) leaves the default. Split out as a pure helper
/// (like [`parse_threads`]) so tests avoid process-global environment
/// mutation.
fn parse_switch(value: Option<&str>) -> Option<bool> {
    match value?.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" => Some(false),
        "1" | "on" | "true" | "yes" => Some(true),
        _ => None,
    }
}

/// Interprets a raw `NETARCH_THREADS` value. Split out (like the
/// `NETARCH_VERIFY_PROOFS` parser) so tests can exercise the rules without
/// mutating process-global environment state, which races with parallel
/// test threads.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let v = value?.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n.min(64)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_parse_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        // Absurd requests are clamped, not honored.
        assert_eq!(parse_threads(Some("100000")), Some(64));
    }

    #[test]
    fn switch_parse_rules() {
        assert_eq!(parse_switch(None), None);
        assert_eq!(parse_switch(Some("")), None);
        assert_eq!(parse_switch(Some("0")), Some(false));
        assert_eq!(parse_switch(Some("off")), Some(false));
        assert_eq!(parse_switch(Some(" FALSE ")), Some(false));
        assert_eq!(parse_switch(Some("no")), Some(false));
        assert_eq!(parse_switch(Some("1")), Some(true));
        assert_eq!(parse_switch(Some("on")), Some(true));
        assert_eq!(parse_switch(Some("yes")), Some(true));
        assert_eq!(parse_switch(Some("maybe")), None);
    }

    #[test]
    fn default_options_race_four_seats() {
        let opts = PortfolioOptions::default();
        assert_eq!(opts.num_threads, 4);
        assert!(!opts.deterministic);
        assert_eq!(opts.seed, 0);
    }

    #[test]
    fn backend_construction() {
        assert!(!SolveBackend::Sequential.is_portfolio());
        let b = SolveBackend::portfolio(2);
        assert!(b.is_portfolio());
        assert_eq!(
            b,
            SolveBackend::Portfolio(PortfolioOptions {
                num_threads: 2,
                ..PortfolioOptions::default()
            })
        );
    }
}
