//! What every workload provides to the measuring loop.

use crowdkit_core::error::Result;

use crate::probe::Layers;

/// The deterministic result of one job: what was bought, what it cost,
/// how right it was and how long the simulated crowd took. Two jobs on
/// the same inputs must produce equal outcomes, whatever the thread count
/// and whether or not they were traced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Units attempted: single-answer asks for `label` and `adaptive`;
    /// user requests plus the answers they asked for, for `query`.
    pub attempted: u64,
    /// Units that failed: answers not delivered, or requests that errored.
    pub failed: u64,
    /// Crowd answers bought.
    pub answers: u64,
    /// Crowd spend in cost units.
    pub spend: f64,
    /// Labels (or requests) whose result equals the ground truth.
    pub correct: u64,
    /// Labels (or requests) judged.
    pub judged: u64,
    /// Simulated crowd clock at the end of the job, in seconds.
    pub makespan_sim_s: f64,
}

/// One benchmark workload. Inputs are generated from the seed when the
/// workload is constructed; `setup` and `job` only consume them.
pub trait Workload {
    /// What set-up hands to the job: everything a user builds before the
    /// first ask.
    type Env;

    /// Builds the platform (and, for `query`, loads the catalog), with
    /// every thread knob set to `threads`.
    fn setup(&self, threads: usize, tr: Option<&Layers>) -> Result<Self::Env>;

    /// Runs the job once. Per-request latencies in milliseconds are pushed
    /// to `latencies_ms` by workloads made of many requests.
    fn job(
        &self,
        env: &Self::Env,
        tr: Option<&Layers>,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<Outcome>;
}

/// Derives an independent 64-bit seed for input stream `stream` from the
/// benchmark seed (splitmix64 finaliser).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
