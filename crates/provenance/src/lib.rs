//! # crowdkit-provenance — decision lineage and spend attribution
//!
//! The observability stack can say how fast inference ran
//! (`crowdkit-obs` events, `crowdkit-metrics` telemetry) but not *why* a
//! task ended up with label L or which workers swayed it. This crate is
//! the decision-provenance layer: while a provenance scope is active, the
//! truth inferencers record, per task, the contributing responses, the
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
//! The sink mirrors the `crowdkit-obs` recorder / `crowdkit-metrics`
//! registry pattern: a thread-local scope entered with
//! [`with_provenance`], restored on unwind, nestable. When no scope is
//! active on the calling thread, [`enabled`] costs one relaxed atomic
//! load and a branch — inference hot loops pay nothing. Capture is
//! additionally gated on the obs recorder being enabled, since the events
//! have nowhere else to go.
//!
//! ```
//! use crowdkit_provenance as prov;
//!
//! assert!(!prov::enabled());
//! prov::with_provenance(|| assert!(prov::enabled()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod lineage;
pub mod spend;

pub use lineage::RunLineage;
pub use spend::SpendLedger;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Count of provenance scopes alive process-wide. Zero means no thread
/// can possibly capture, so [`enabled`] short-circuits on one relaxed
/// load without touching the thread-local.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of provenance scopes on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Whether a provenance scope is active on this thread. Disabled cost:
/// one relaxed load and a branch.
pub fn enabled() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) != 0 && DEPTH.with(|d| d.get() > 0)
}

/// Closes one scope when dropped, so a panic inside [`with_provenance`]
/// cannot leak the scope into later work.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` inside a provenance scope on this thread, closing it
/// afterwards (including on panic). Scopes nest.
///
/// The scope is per-thread, exactly like the obs recorder scope: work `f`
/// hands to other threads captures nothing. Instrumented layers honour
/// this by emitting lineage only from sequential, fixed-order code paths
/// — that is what keeps `prov.*` streams byte-identical across thread
/// counts.
pub fn with_provenance<R>(f: impl FnOnce() -> R) -> R {
    ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = ScopeGuard;
    f()
}

/// Whether high-volume per-task/per-worker/per-answer provenance should
/// be captured right now: a provenance scope is active on this thread
/// *and* the obs recorder wants detail events. Spend ledgers check this
/// once per run and skip all bookkeeping otherwise.
pub fn capture_detail() -> bool {
    enabled() && crowdkit_obs::current().detail()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!enabled());
        assert!(!capture_detail());
    }

    #[test]
    fn with_provenance_scopes_and_restores() {
        with_provenance(|| assert!(enabled()));
        assert!(!enabled());
    }

    #[test]
    fn scopes_nest() {
        with_provenance(|| {
            with_provenance(|| assert!(enabled()));
            assert!(enabled(), "closing the inner scope keeps the outer one");
        });
        assert!(!enabled());
    }

    #[test]
    fn scope_restores_after_panic() {
        let result = std::panic::catch_unwind(|| {
            with_provenance(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leak the scope");
    }

    #[test]
    fn scope_is_thread_local() {
        with_provenance(|| {
            let other = std::thread::spawn(enabled).join().expect("join");
            assert!(!other, "other threads see no scope");
        });
    }

    #[test]
    fn capture_detail_requires_a_detail_recorder() {
        use std::sync::Arc;
        with_provenance(|| {
            // Null recorder: scope alone is not enough.
            assert!(!capture_detail());
            let jsonl = Arc::new(crowdkit_obs::JsonlRecorder::in_memory());
            crowdkit_obs::with_recorder(jsonl, || assert!(capture_detail()));
            let mem = Arc::new(crowdkit_obs::MemoryRecorder::new());
            crowdkit_obs::with_recorder(mem, || {
                assert!(!capture_detail(), "aggregators skip detail events");
            });
        });
    }
}
