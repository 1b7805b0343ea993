//! # crowdkit-metrics — scoped runtime telemetry
//!
//! Live operational state for the crowdkit stack: how many tasks are
//! queued, how fast budget is burning, how big the EM active set is, how
//! long a sweep takes — the counters, gauges and histograms a service
//! front-end (`crowdkitd`, ROADMAP item 1) needs for admission control
//! and backpressure. Where `crowdkit-obs` records *what happened* as a
//! replayable event stream, this crate maintains *what is true right
//! now*, cheaply enough to leave on inside the EM hot loops (the CI
//! overhead gate pins a registry scope against none at <3%).
//!
//! ## Architecture
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free primitives with
//!   cache-line-padded per-thread shards and relaxed atomics; reads merge
//!   shards on demand (see [`primitives`]).
//! * [`Registry`] — a typed struct-of-metrics per subsystem (platform,
//!   assign, truth, sql): hot paths touch fields directly, no string
//!   lookup (see [`registry`]).
//! * [`SnapshotExporter`] — diffs consecutive [`Snapshot`]s and emits
//!   `metrics.snapshot` obs events, wall fields segregated so snapshot
//!   streams stay `crowdtrace diff`-able (see [`snapshot`]).
//!
//! ## Scoping
//!
//! Metrics are on inside a registry scope and off outside one. The
//! active registry is thread-local and scoped, like the obs scope:
//! [`with_registry`] installs a registry for a region of work, and
//! [`current`] returns it, or `None` when this thread has none — then
//! the instrumented layers write nothing. The experiment suite runs 17
//! experiments on concurrent threads; per-experiment scoped registries
//! keep their counters independent, which is what makes
//! `metrics.snapshot` streams byte-identical across thread counts.
//!
//! ```
//! use std::sync::Arc;
//! use crowdkit_metrics as metrics;
//!
//! assert!(metrics::current().is_none());
//! let reg = Arc::new(metrics::Registry::new());
//! metrics::with_registry(reg.clone(), || {
//!     if let Some(m) = metrics::current() {
//!         m.assign.questions.add(3);
//!     }
//! });
//! assert_eq!(reg.assign.questions.value(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod primitives;
pub mod registry;
pub mod snapshot;

pub use primitives::{
    bucket_bound, bucket_of, Clock, Counter, Gauge, HistData, Histogram, N_BUCKETS, N_SHARDS,
};
pub use registry::{
    to_micros, AlgoMetrics, AssignMetrics, PlatformMetrics, Registry, SqlMetrics, TruthMetrics,
};
pub use snapshot::{delta_events, MetricValue, Snapshot, SnapshotExporter, BUCKET_NAMES};

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// The registry active on this thread: the innermost [`with_registry`]
/// scope, or `None` outside every scope.
///
/// Hot paths should call this once per operation (per batch, per EM run)
/// and reuse the handle rather than re-resolving per item.
pub fn current() -> Option<Arc<Registry>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previous scoped registry when dropped, so a panic inside
/// [`with_registry`] cannot leak the scope into later work.
struct RestoreGuard {
    previous: Option<Option<Arc<Registry>>>,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

/// Runs `f` with `reg` as this thread's active registry, restoring the
/// previous scope afterwards (including on panic). Scopes nest.
///
/// The scope is per-thread: work `f` hands to other threads sees those
/// threads' own registries (normally none). Instrumented layers honour
/// this by updating metrics only from the calling thread's sequential
/// code, the same rule the obs layer follows.
pub fn with_registry<R>(reg: Arc<Registry>, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(reg));
    let _guard = RestoreGuard {
        previous: Some(previous),
    };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_current(reg: &Arc<Registry>) -> bool {
        current().is_some_and(|c| Arc::ptr_eq(&c, reg))
    }

    #[test]
    fn unscoped_current_is_none() {
        assert!(current().is_none());
        let other = std::thread::spawn(|| current().is_none());
        assert!(other.join().unwrap(), "a fresh thread has no registry");
    }

    #[test]
    fn with_registry_scopes_and_restores() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            assert!(is_current(&reg));
            current().expect("scoped").sql.queries.inc();
        });
        assert!(current().is_none());
        assert_eq!(reg.sql.queries.value(), 1);
    }

    #[test]
    fn scopes_nest() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        with_registry(outer.clone(), || {
            current().expect("outer").assign.waves.inc();
            with_registry(inner.clone(), || {
                current().expect("inner").assign.waves.add(2)
            });
            current().expect("outer").assign.waves.inc();
        });
        assert_eq!(outer.assign.waves.value(), 2);
        assert_eq!(inner.assign.waves.value(), 2);
    }

    #[test]
    fn scope_restores_after_panic() {
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_registry(reg.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(
            current().is_none(),
            "panic must not leak the scoped registry"
        );
    }

    #[test]
    fn scope_is_thread_local() {
        let reg = Arc::new(Registry::new());
        with_registry(reg.clone(), || {
            let other = std::thread::spawn(|| current().is_none());
            assert!(other.join().unwrap(), "other threads see no registry");
            assert!(is_current(&reg));
        });
    }
}
