//! The ordered set of open tasks that the greedy policies pick from.
//!
//! A greedy policy scores every open task and buys for the best one. A
//! task's score depends only on its vote vector, and between two picks
//! only the tasks the [`AssignState`] logged as changed can move. So
//! instead of rescanning, [`Ranking`] keeps the open tasks in a
//! `BTreeSet` ordered by the scan's own comparator and, on each pick,
//! re-keys just the logged tasks: O(log n) per logged change, plus one
//! score evaluation per change of a task's vote total.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::policy::AssignState;

/// A policy's open tasks, ordered best first, kept in step with one
/// state's change log.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ranking {
    /// What the cache was built for; any difference forces a rebuild.
    basis: Option<Basis>,
    /// How much of the state's change log has been replayed.
    cursor: usize,
    /// Per task: the vote total its score was computed at, and its key.
    slots: Vec<Slot>,
    /// The open tasks' keys, best first.
    open: BTreeSet<Key>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Basis {
    state: u64,
    tasks: usize,
    labels: usize,
    cap: u32,
    param: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    total: u32,
    key: Key,
}

/// Ordered as the greedy scans break ties: higher score first, then fewer
/// answers (received plus in flight), then the smaller index.
#[derive(Debug, Clone, Copy)]
struct Key {
    score: f64,
    count: u32,
    task: u32,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.count.cmp(&other.count))
            .then_with(|| self.task.cmp(&other.task))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl Ranking {
    /// The open task with the highest `score`, ties to fewer answers and
    /// then to the smaller index; `None` when every task is at its cap.
    ///
    /// `score(state, t)` must depend only on `state.votes(t)` and on the
    /// policy parameters whose bits are `param`: a score is recomputed
    /// only when the task's vote total changes, and everything is rebuilt
    /// when `param` (or the state) does.
    pub(crate) fn first<F>(
        &mut self,
        state: &AssignState,
        param: u64,
        mut score: F,
    ) -> Option<usize>
    where
        F: FnMut(&AssignState, usize) -> f64,
    {
        let basis = Basis {
            state: state.id(),
            tasks: state.num_tasks(),
            labels: state.num_labels(),
            cap: state.max_answers_per_task,
            param,
        };
        match state.changes_since(self.cursor) {
            Some(changed) if self.basis == Some(basis) => {
                for &t in changed {
                    self.update(state, t as usize, &mut score);
                }
            }
            _ => self.rebuild(state, basis, &mut score),
        }
        self.cursor = state.changes_logged();
        self.open.first().map(|key| key.task as usize)
    }

    fn rebuild<F>(&mut self, state: &AssignState, basis: Basis, score: &mut F)
    where
        F: FnMut(&AssignState, usize) -> f64,
    {
        self.basis = Some(basis);
        self.open.clear();
        self.slots.clear();
        for t in 0..state.num_tasks() {
            let key = Key {
                score: score(state, t),
                count: state.count(t),
                // Task indices fit in `u32`: see `AssignState::new`.
                task: t as u32,
            };
            self.slots.push(Slot {
                total: state.votes(t).iter().sum(),
                key,
            });
            if key.count < basis.cap {
                self.open.insert(key);
            }
        }
    }

    fn update<F>(&mut self, state: &AssignState, t: usize, score: &mut F)
    where
        F: FnMut(&AssignState, usize) -> f64,
    {
        let Some(slot) = self.slots.get_mut(t) else {
            return;
        };
        self.open.remove(&slot.key);
        let total: u32 = state.votes(t).iter().sum();
        if total != slot.total {
            slot.total = total;
            slot.key.score = score(state, t);
        }
        slot.key.count = state.count(t);
        if slot.key.count < state.max_answers_per_task {
            self.open.insert(slot.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdkit_core::metrics::entropy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs a `run_assignment`-shaped loop (waves of at most `n` picks,
    /// each marked pending, then cleared and answered) and returns the
    /// score evaluations and the answers recorded.
    fn drive(n: usize, budget: usize, cap: u32) -> (usize, usize) {
        let mut state = AssignState::new(n, 2, cap);
        let mut ranking = Ranking::default();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (mut evals, mut asked) = (0usize, 0usize);
        while asked < budget {
            let wave_cap = (budget - asked).min(n);
            let mut wave = Vec::new();
            while wave.len() < wave_cap {
                let pick = ranking.first(&state, 0, |s, t| {
                    evals += 1;
                    entropy(&s.posterior(t))
                });
                let Some(t) = pick else { break };
                state.note_pending(t);
                wave.push(t);
            }
            if wave.is_empty() {
                break;
            }
            state.clear_pending();
            for t in wave {
                state.record(t, rng.gen_range(0..2));
                asked += 1;
            }
        }
        (evals, asked)
    }

    #[test]
    fn scores_are_evaluated_once_per_task_plus_once_per_answer() {
        for (n, cap) in [(1, 9), (7, 3), (200, 9), (1000, 9)] {
            let (evals, asked) = drive(n, 5 * n, cap);
            assert!(asked > 0);
            assert!(
                evals <= n + asked,
                "n = {n}: {evals} score evaluations for {asked} answers; a rescan per pick is back"
            );
        }
    }
}
