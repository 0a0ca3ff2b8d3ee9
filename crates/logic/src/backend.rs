//! Names left from the deleted parallel solve backend.
//!
//! Every solve runs on the encoder's one session solver. [`SolveBackend`]
//! and [`PortfolioOptions`] survive only because the benchmark harness
//! under `archbench/` still names them; nothing reads them, and ROADMAP
//! item 1a deletes them together with the harness's uses.

/// Ignored: every value solves sequentially on the session solver.
/// ROADMAP item 1a deletes it.
#[derive(Clone, Debug, Default)]
pub enum SolveBackend {
    /// The session solver, as every value is.
    #[default]
    Sequential,
    /// Also the session solver; the options are ignored.
    Portfolio(PortfolioOptions),
}

/// Ignored: no field changes how anything is solved. ROADMAP item 1a
/// deletes it.
#[derive(Clone, Debug, Default)]
pub struct PortfolioOptions {
    /// Ignored.
    pub num_threads: usize,
    /// Ignored.
    pub deterministic: bool,
    /// Ignored.
    pub seed: u64,
}
