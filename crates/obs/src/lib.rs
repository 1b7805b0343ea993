//! # crowdkit-obs — deterministic tracing and run telemetry
//!
//! Structured, near-zero-overhead observability for the crowdkit stack.
//! Every layer (platform simulation, assignment, truth inference, SQL and
//! Datalog execution) emits [`Event`]s describing what it did — wave sizes,
//! budget debits, makespans, per-iteration convergence deltas, per-plan-node
//! crowd fetches — into whichever [`Recorder`] is active.
//!
//! ## Determinism contract
//!
//! The event stream (keys, simulated timestamps and deterministic fields)
//! is a pure function of the run's seed and inputs: layers emit only from
//! sequential, fixed-order code paths, never from inside parallel workers,
//! so the stream is byte-identical at any thread count — the same rule the
//! compute kernels follow. Host-side timings ride along in separate
//! wall-clock fields that deterministic sinks omit (see
//! [`JsonlRecorder::with_wall`]).
//!
//! ## Installing a scope
//!
//! What telemetry is on is a thread-local [`Scope`], entered like a
//! tracing subscriber: the recorder events go to, and whether decision
//! provenance is captured into it. The default is [`NullRecorder`] with
//! provenance off, which reduces every instrumentation site to one branch:
//!
//! ```
//! use std::sync::Arc;
//! use crowdkit_obs as obs;
//!
//! let rec = Arc::new(obs::MemoryRecorder::new());
//! let scope = obs::Scope { recorder: rec.clone(), provenance: false };
//! obs::with_scope(scope, || {
//!     // Any crowdkit work in here is recorded.
//!     obs::quality("accuracy", 0.93);
//! });
//! assert_eq!(rec.count("exp.quality"), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod event;
pub mod header;
pub mod histogram;
pub mod recorder;
pub mod report;

pub use event::{wall_ns, Event, FieldValue, WallTimer};
pub use header::{StreamHeader, STREAM_MAGIC, STREAM_SCHEMA_VERSION};
pub use histogram::LogHistogram;
pub use recorder::{
    FieldStats, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, ShardBuffers,
    ShardRecorder, Tee,
};
pub use report::{CostReport, ExperimentReport, InferenceReport, LatencyReport, RunReport};

use std::cell::RefCell;
use std::sync::Arc;

/// The telemetry installed on one thread: where events go, and whether
/// the layers also capture decision provenance into that recorder.
///
/// The default — [`NullRecorder`], provenance off — is "nothing
/// installed": every instrumentation site reduces to one thread-local read
/// and a branch.
pub struct Scope {
    /// Receives every event and sample recorded on this thread.
    pub recorder: Arc<dyn Recorder>,
    /// Whether truth inference, assignment and CrowdSQL execution record
    /// decision lineage (`prov.*` events) into [`recorder`](Self::recorder).
    pub provenance: bool,
}

impl Default for Scope {
    fn default() -> Self {
        Self {
            recorder: Arc::new(NullRecorder),
            provenance: false,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Scope> = RefCell::new(Scope::default());
}

/// The recorder active on this thread. Defaults to [`NullRecorder`].
///
/// Hot paths should call this once per operation and reuse the handle
/// rather than re-resolving per item.
pub fn current() -> Arc<dyn Recorder> {
    CURRENT.with(|c| c.borrow().recorder.clone())
}

/// Whether the active recorder wants events — the cheap pre-check for
/// instrumentation sites that would otherwise build an [`Event`].
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().recorder.enabled())
}

/// Whether the active scope asks for decision provenance. Off by default.
pub fn provenance() -> bool {
    CURRENT.with(|c| c.borrow().provenance)
}

/// Restores the previous scope when dropped, so a panic inside
/// [`with_scope`] cannot leak the installed scope into later work.
struct RestoreGuard {
    previous: Option<Scope>,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

/// Runs `f` with `scope` installed on this thread, restoring the previous
/// scope afterwards (including on panic). Scopes nest.
///
/// The scope is per-thread: work `f` hands to other threads sees those
/// threads' own scopes (normally the default). Instrumented layers honour
/// this by emitting only from the calling thread's sequential code.
pub fn with_scope<R>(scope: Scope, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), scope));
    let _guard = RestoreGuard {
        previous: Some(previous),
    };
    f()
}

/// Records `event` into the active recorder, if one is enabled.
pub fn record(event: Event) {
    CURRENT.with(|c| {
        let rec = &c.borrow().recorder;
        if rec.enabled() {
            rec.record(event);
        }
    });
}

/// Records a scalar sample into the active recorder, if one is enabled.
pub fn sample(key: &'static str, value: f64) {
    CURRENT.with(|c| {
        let rec = &c.borrow().recorder;
        if rec.enabled() {
            rec.samples(key, &[value]);
        }
    });
}

/// Reports a quality metric (accuracy, F1, rank correlation, …) for the
/// current run as an `exp.quality` event. The per-metric means surface in
/// the run's [`ExperimentReport`].
pub fn quality(metric: &'static str, value: f64) {
    record(Event::new("exp.quality").str("metric", metric).f64("value", value));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_scope(provenance: bool) -> (Arc<MemoryRecorder>, Scope) {
        let rec = Arc::new(MemoryRecorder::new());
        let scope = Scope {
            recorder: rec.clone(),
            provenance,
        };
        (rec, scope)
    }

    #[test]
    fn default_scope_is_null_without_provenance() {
        assert!(!enabled());
        assert!(!provenance());
        // Recording into the default is a no-op, not a panic.
        record(Event::new("x"));
        sample("y", 1.0);
    }

    #[test]
    fn with_scope_installs_and_restores() {
        let (rec, scope) = memory_scope(true);
        with_scope(scope, || {
            assert!(enabled());
            assert!(provenance());
            record(Event::new("k").u64("n", 1));
            quality("acc", 0.5);
        });
        assert!(!enabled());
        assert!(!provenance());
        assert_eq!(rec.count("k"), 1);
        assert_eq!(rec.count("exp.quality"), 1);
    }

    #[test]
    fn with_scope_nests() {
        let (outer, outer_scope) = memory_scope(true);
        let (inner, inner_scope) = memory_scope(false);
        with_scope(outer_scope, || {
            record(Event::new("a"));
            with_scope(inner_scope, || {
                assert!(!provenance(), "the inner scope's bit wins");
                record(Event::new("b"));
            });
            assert!(provenance(), "closing the inner scope restores the outer");
            record(Event::new("c"));
        });
        assert_eq!(outer.count("a"), 1);
        assert_eq!(outer.count("c"), 1);
        assert_eq!(outer.count("b"), 0);
        assert_eq!(inner.count("b"), 1);
    }

    #[test]
    fn with_scope_restores_after_panic() {
        let (_rec, scope) = memory_scope(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scope(scope, || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leak the scoped recorder");
        assert!(!provenance(), "panic must not leak the provenance bit");
    }

    #[test]
    fn scope_is_thread_local() {
        let (_rec, scope) = memory_scope(true);
        with_scope(scope, || {
            let other = std::thread::spawn(|| (enabled(), provenance()));
            assert_eq!(
                other.join().unwrap(),
                (false, false),
                "other threads see the default"
            );
            assert!(enabled() && provenance());
        });
    }
}
