//! # crowdkit-provenance — decision lineage and spend attribution
//!
//! The observability stack can say how fast inference ran
//! (`crowdkit-obs` events, `crowdkit-metrics` telemetry) but not *why* a
//! task ended up with label L or which workers swayed it. This crate is
//! the decision-provenance layer: while the obs scope asks for provenance,
//! the truth inferencers record, per task, the contributing responses, the
//! final per-worker quality/weight at convergence, the posterior margin
//! (top-1 vs top-2 probability), and the label flip history across EM
//! iterations; the assignment driver and the CrowdSQL Volcano executor
//! attribute crowd spend down node → task → worker. Everything is emitted
//! as typed `prov.*` obs events with sim-clock/deterministic fields only,
//! so provenance streams are byte-identical across thread counts like the
//! rest of the event log. `crowdtrace why <task-id>` and
//! `crowdtrace audit` are the query side.
//!
//! ## Event schema
//!
//! | key          | deterministic fields |
//! |--------------|----------------------|
//! | `prov.task`  | `algo`, `task`, `label`, `margin`, `n`, `votes` ("w3=1,w7=0"), `flips` ("i2:0>1") |
//! | `prov.worker`| `algo`, `worker`, `weight`, `answers`, `agree`, `overruled` |
//! | `prov.run`   | `algo`, `tasks`, `workers`, `contested`, `margin_thr`, `margin_mean`, `flips` |
//! | `prov.spend` | `scope` ("node"/"task"/"worker"), `node` or `task` or `worker`, `spend`, `answers` or `questions` |
//!
//! `prov.task` and `prov.worker` are high-volume detail events: they are
//! only emitted when the active obs recorder reports
//! [`detail()`](crowdkit_obs::Recorder::detail) (the JSONL capture path),
//! while the one-per-inference-run `prov.run` summary also lands in
//! aggregating recorders so contested/low-margin counts reach
//! `RUNREPORT.json`.
//!
//! ## Scoping
//!
//! Provenance owns no sink: its events go to the obs recorder. It is a
//! bit on the obs [`Scope`](crowdkit_obs::Scope), read with
//! [`crowdkit_obs::provenance`], so it follows the obs scope's nesting,
//! panic-restore and per-thread rules. With the bit off (the default)
//! every instrumentation site costs one thread-local read and a branch.
//!
//! ```
//! use std::sync::Arc;
//! use crowdkit_obs as obs;
//! use crowdkit_provenance as prov;
//!
//! assert!(!prov::capture_detail());
//! let rec = Arc::new(obs::JsonlRecorder::in_memory());
//! obs::with_scope(obs::Scope { recorder: rec, provenance: true }, || {
//!     assert!(prov::capture_detail());
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod lineage;
pub mod spend;

pub use lineage::RunLineage;
pub use spend::SpendLedger;

/// Whether high-volume per-task/per-worker/per-answer provenance should
/// be captured right now: the obs scope on this thread asks for
/// provenance *and* its recorder wants detail events. Spend ledgers check
/// this once per run and skip all bookkeeping otherwise.
pub fn capture_detail() -> bool {
    crowdkit_obs::provenance() && crowdkit_obs::current().detail()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_obs as obs;
    use std::sync::Arc;

    #[test]
    fn capture_detail_requires_a_detail_recorder() {
        assert!(!capture_detail());
        let scope = |recorder: Arc<dyn obs::Recorder>, provenance| obs::Scope {
            recorder,
            provenance,
        };
        let jsonl = Arc::new(obs::JsonlRecorder::in_memory());
        obs::with_scope(scope(jsonl.clone(), true), || assert!(capture_detail()));
        obs::with_scope(scope(jsonl, false), || {
            assert!(!capture_detail(), "a detail recorder alone is not enough");
        });
        obs::with_scope(scope(Arc::new(obs::NullRecorder), true), || {
            assert!(!capture_detail(), "the bit alone is not enough");
        });
        obs::with_scope(scope(Arc::new(obs::MemoryRecorder::new()), true), || {
            assert!(!capture_detail(), "aggregators skip detail events");
        });
    }
}
