//! The cross-layer cost ledger: who was paid, for which task, under
//! which plan node.
//!
//! A [`SpendLedger`] accumulates per-task and per-worker crowd spend as
//! answers are delivered (the assignment driver and the CrowdSQL round
//! oracle feed it from their sequential delivery loops) and flushes it as
//! `prov.spend` detail events — `scope:"task"` and `scope:"worker"` rows
//! keyed by external id, in ascending id order. Plan-node attribution
//! (`scope:"node"`) is emitted directly by the Volcano executor, which
//! already tracks per-operator question counts; together the three scopes
//! let `crowdtrace why` answer "what did this task cost and who earned
//! it" and `crowdtrace audit` compute spend-per-correct-label.

use std::collections::BTreeMap;

use crowdkit_obs::{self as obs, Event, Recorder};

/// Accumulates crowd spend by task and by worker for one run.
///
/// Construct only when [`crate::capture_detail`] holds (the events are
/// high-volume detail rows); `BTreeMap` keys make the flush order — and
/// therefore the event stream — deterministic regardless of delivery
/// interleaving upstream.
#[derive(Debug, Default)]
pub struct SpendLedger {
    by_task: BTreeMap<u64, (f64, u64)>,
    by_worker: BTreeMap<u64, (f64, u64)>,
}

impl SpendLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books `cost` against external task id `task` and worker id
    /// `worker` (one delivered answer).
    pub fn note(&mut self, task: u64, worker: u64, cost: f64) {
        let t = self.by_task.entry(task).or_insert((0.0, 0));
        t.0 += cost;
        t.1 += 1;
        let w = self.by_worker.entry(worker).or_insert((0.0, 0));
        w.0 += cost;
        w.1 += 1;
    }

    /// True when no answers were booked.
    pub fn is_empty(&self) -> bool {
        self.by_task.is_empty()
    }

    /// Flushes the ledger as `prov.spend` events into the active obs
    /// recorder: one `scope:"task"` row per task then one
    /// `scope:"worker"` row per worker, ascending by external id. Call
    /// from sequential code after the run completes.
    pub fn emit(&self) {
        let rec = obs::current();
        if !rec.enabled() {
            return;
        }
        for (&task, &(spend, answers)) in &self.by_task {
            rec.record(
                Event::new("prov.spend")
                    .str("scope", "task")
                    .u64("task", task)
                    .f64("spend", spend)
                    .u64("answers", answers),
            );
        }
        for (&worker, &(spend, answers)) in &self.by_worker {
            rec.record(
                Event::new("prov.spend")
                    .str("scope", "worker")
                    .u64("worker", worker)
                    .f64("spend", spend)
                    .u64("answers", answers),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ledger_aggregates_and_emits_in_id_order() {
        let mut ledger = SpendLedger::new();
        assert!(ledger.is_empty());
        ledger.note(7, 2, 0.05);
        ledger.note(3, 2, 0.05);
        ledger.note(7, 1, 0.10);
        assert!(!ledger.is_empty());

        let rec = Arc::new(obs::JsonlRecorder::in_memory().with_wall(false));
        let scope = obs::Scope {
            recorder: rec.clone(),
            provenance: false,
        };
        obs::with_scope(scope, || ledger.emit());
        let text = String::from_utf8(rec.take_bytes()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 2);
        assert!(lines[0].contains("\"scope\":\"task\"") && lines[0].contains("\"task\":3"));
        assert!(lines[1].contains("\"task\":7") && lines[1].contains("\"answers\":2"));
        let spend7: f64 = 0.05 + 0.10;
        assert!(lines[1].contains(&format!("\"spend\":{spend7}")));
        assert!(lines[2].contains("\"scope\":\"worker\"") && lines[2].contains("\"worker\":1"));
        assert!(lines[3].contains("\"worker\":2") && lines[3].contains("\"answers\":2"));
    }

    #[test]
    fn emit_into_null_recorder_is_a_no_op() {
        let mut ledger = SpendLedger::new();
        ledger.note(1, 1, 1.0);
        ledger.emit();
    }
}
