//! Assignment policies.

use std::sync::atomic::{AtomicU64, Ordering};

use crowdkit_core::metrics::entropy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ranking::Ranking;

/// Source of [`AssignState`] ids; 0 is never handed out.
static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_state_id() -> u64 {
    // Relaxed: the id publishes no other data, it only has to be unique.
    NEXT_STATE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The observable state a policy decides from: per-task vote counts, the
/// answers in flight, and the per-task answer cap.
///
/// The state also logs which tasks every call to [`record`](Self::record),
/// [`note_pending`](Self::note_pending) and
/// [`clear_pending`](Self::clear_pending) touched, under an id unique to
/// this state. The greedy policies replay that log to update their
/// ranking of open tasks instead of rescanning every task on each pick.
/// Votes only grow, so within one state a task's vote total identifies its
/// vote vector. A clone gets a fresh id and an empty log.
#[derive(Debug)]
pub struct AssignState {
    /// `votes[t][l]` = answers so far labelling task `t` as `l`.
    votes: Vec<Vec<u32>>,
    /// Answers requested but not yet received, per task. The batched
    /// driver marks a task pending while assembling a wave so a policy
    /// called repeatedly does not pile the whole wave onto one task.
    pending: Vec<u32>,
    /// Hard per-task cap on answers (platforms bound assignments per HIT).
    pub max_answers_per_task: u32,
    id: u64,
    /// Task indices touched, in call order; only ever appended to.
    changed: Vec<u32>,
}

impl Clone for AssignState {
    fn clone(&self) -> Self {
        Self {
            votes: self.votes.clone(),
            pending: self.pending.clone(),
            max_answers_per_task: self.max_answers_per_task,
            id: fresh_state_id(),
            changed: Vec::new(),
        }
    }
}

impl AssignState {
    /// Fresh state for `n_tasks` tasks over `k` labels.
    ///
    /// Task indices are logged as `u32`. Every task owns a vote vector, so
    /// a state with more than `u32::MAX` tasks could not be allocated.
    pub fn new(n_tasks: usize, k: usize, max_answers_per_task: u32) -> Self {
        Self {
            votes: vec![vec![0u32; k]; n_tasks],
            pending: vec![0u32; n_tasks],
            max_answers_per_task,
            id: fresh_state_id(),
            changed: Vec::new(),
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.votes.len()
    }

    /// Answers so far for task `t`, per label.
    pub fn votes(&self, t: usize) -> &[u32] {
        &self.votes[t]
    }

    /// All per-task vote counts, consuming the state.
    pub fn into_votes(self) -> Vec<Vec<u32>> {
        self.votes
    }

    /// Total answers task `t` has received or has in flight.
    pub fn count(&self, t: usize) -> u32 {
        self.votes[t].iter().sum::<u32>() + self.pending[t]
    }

    /// Tasks that can still receive answers.
    pub fn open_tasks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.votes.len()).filter(move |&t| self.count(t) < self.max_answers_per_task)
    }

    /// Records an answer.
    pub fn record(&mut self, t: usize, label: u32) {
        self.votes[t][label as usize] += 1;
        self.changed.push(t as u32);
    }

    /// Marks one in-flight ask for task `t`.
    pub fn note_pending(&mut self, t: usize) {
        self.pending[t] += 1;
        self.changed.push(t as u32);
    }

    /// Clears all in-flight marks (the wave came back).
    pub fn clear_pending(&mut self) {
        for (t, p) in self.pending.iter_mut().enumerate() {
            if *p != 0 {
                *p = 0;
                self.changed.push(t as u32);
            }
        }
    }

    /// Smoothed posterior over labels for task `t` (votes + 1 Laplace).
    pub fn posterior(&self, t: usize) -> Vec<f64> {
        let total: u32 = self.votes[t].iter().sum();
        let k = self.votes[t].len() as f64;
        self.votes[t]
            .iter()
            .map(|&v| (v as f64 + 1.0) / (total as f64 + k))
            .collect()
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn num_labels(&self) -> usize {
        self.votes.first().map_or(0, Vec::len)
    }

    /// Length of the change log.
    pub(crate) fn changes_logged(&self) -> usize {
        self.changed.len()
    }

    /// The tasks touched since the log held `cursor` entries, or `None`
    /// when it never held that many.
    pub(crate) fn changes_since(&self, cursor: usize) -> Option<&[u32]> {
        self.changed.get(cursor..)
    }
}

/// Chooses the next task to buy an answer for.
pub trait AssignmentPolicy {
    /// Short name for experiment tables.
    fn name(&self) -> &'static str;

    /// The task index to ask about next, or `None` when every task is at
    /// its cap (or the policy decides to stop).
    fn next_task(&mut self, state: &AssignState) -> Option<usize>;
}

/// Uniform random among open tasks.
#[derive(Debug)]
pub struct RandomAssign {
    rng: StdRng,
}

impl RandomAssign {
    /// Creates the policy with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AssignmentPolicy for RandomAssign {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_task(&mut self, state: &AssignState) -> Option<usize> {
        let open = state.open_tasks().count();
        if open == 0 {
            None
        } else {
            state.open_tasks().nth(self.rng.gen_range(0..open))
        }
    }
}

/// Evens out redundancy: always the open task with the fewest answers
/// (ties → smallest index).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    ranking: Ranking,
}

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn next_task(&mut self, state: &AssignState) -> Option<usize> {
        self.ranking.first(state, 0, |_, _| 0.0)
    }
}

/// Uncertainty sampling: the open task with the highest posterior entropy.
///
/// Unanswered tasks have maximal entropy and get served first; once every
/// task has one answer, budget flows to the contested ones. Ties go to the
/// task with fewer answers, then to the smaller index.
#[derive(Debug, Clone, Default)]
pub struct EntropyGreedy {
    ranking: Ranking,
}

impl AssignmentPolicy for EntropyGreedy {
    fn name(&self) -> &'static str {
        "entropy"
    }

    fn next_task(&mut self, state: &AssignState) -> Option<usize> {
        self.ranking
            .first(state, 0, |s, t| entropy(&s.posterior(t)))
    }
}

/// QASCA-flavoured expected accuracy gain.
///
/// For each open task compute the current max-posterior `p` and the
/// *expected* max-posterior after one more answer, where the next answer is
/// simulated under the assumed worker accuracy: with probability derived
/// from the current posterior the answer supports each label, and the
/// posterior is updated by Bayes with the one-coin likelihood. The policy
/// buys for the task with the largest expected improvement (ties → fewer
/// answers, then the smaller index).
#[derive(Debug, Clone)]
pub struct ExpectedAccuracyGain {
    /// Assumed worker accuracy (one-coin), e.g. 0.75.
    pub worker_accuracy: f64,
    ranking: Ranking,
}

impl Default for ExpectedAccuracyGain {
    fn default() -> Self {
        Self::new(0.75)
    }
}

impl ExpectedAccuracyGain {
    /// The policy under an assumed one-coin worker accuracy.
    pub fn new(worker_accuracy: f64) -> Self {
        Self {
            worker_accuracy,
            ranking: Ranking::default(),
        }
    }
}

/// Expected gain in max-posterior from one more answer on task `t`.
fn expected_gain(worker_accuracy: f64, state: &AssignState, t: usize) -> f64 {
    let post = state.posterior(t);
    let current = post.iter().cloned().fold(0.0, f64::max);
    expected_after_one(worker_accuracy, &post) - current
}

/// Expected max-posterior after one more simulated answer on a task with
/// the given posterior.
fn expected_after_one(worker_accuracy: f64, post: &[f64]) -> f64 {
    let k = post.len();
    let p = worker_accuracy.clamp(1e-6, 1.0 - 1e-6);
    let wrong = (1.0 - p) / (k as f64 - 1.0).max(1.0);
    let mut expected = 0.0;
    // The next answer is `a` with probability Σ_t post[t]·P(a|t).
    for a in 0..k {
        let mut prob_a = 0.0;
        let mut updated: Vec<f64> = Vec::with_capacity(k);
        for (t, &pt) in post.iter().enumerate() {
            let like = if t == a { p } else { wrong };
            prob_a += pt * like;
            updated.push(pt * like);
        }
        if prob_a <= 0.0 {
            continue;
        }
        let max_updated = updated.iter().cloned().fold(0.0, f64::max) / prob_a;
        expected += prob_a * max_updated;
    }
    expected
}

impl AssignmentPolicy for ExpectedAccuracyGain {
    fn name(&self) -> &'static str {
        "expected_gain"
    }

    fn next_task(&mut self, state: &AssignState) -> Option<usize> {
        let acc = self.worker_accuracy;
        self.ranking
            .first(state, acc.to_bits(), |s, t| expected_gain(acc, s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_tracks_counts_and_caps() {
        let mut s = AssignState::new(3, 2, 2);
        assert_eq!(s.open_tasks().count(), 3);
        s.record(0, 1);
        s.record(0, 1);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.open_tasks().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn posterior_is_laplace_smoothed() {
        let mut s = AssignState::new(1, 2, 10);
        assert_eq!(s.posterior(0), vec![0.5, 0.5]);
        s.record(0, 1);
        let p = s.posterior(0);
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_equalizes() {
        let mut s = AssignState::new(3, 2, 5);
        let mut p = RoundRobin::default();
        let mut order = Vec::new();
        for _ in 0..6 {
            let t = p.next_task(&s).unwrap();
            order.push(t);
            s.record(t, 0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_stops_when_everything_capped() {
        let mut s = AssignState::new(2, 2, 1);
        let mut p = RoundRobin::default();
        s.record(0, 0);
        s.record(1, 0);
        assert_eq!(p.next_task(&s), None);
    }

    #[test]
    fn entropy_greedy_prefers_the_contested_task() {
        let mut s = AssignState::new(2, 2, 10);
        // Task 0: 3-0 (confident). Task 1: 2-2 (contested).
        s.record(0, 0);
        s.record(0, 0);
        s.record(0, 0);
        s.record(1, 0);
        s.record(1, 1);
        s.record(1, 0);
        s.record(1, 1);
        let mut p = EntropyGreedy::default();
        assert_eq!(p.next_task(&s), Some(1));
    }

    #[test]
    fn entropy_greedy_serves_unanswered_tasks_first() {
        let mut s = AssignState::new(3, 2, 10);
        s.record(0, 0);
        s.record(2, 1);
        let mut p = EntropyGreedy::default();
        assert_eq!(p.next_task(&s), Some(1), "fresh task has max entropy");
    }

    #[test]
    fn expected_gain_prefers_contested_over_settled() {
        let mut s = AssignState::new(2, 2, 10);
        // Task 0 settled 4-0; task 1 split 2-2.
        for _ in 0..4 {
            s.record(0, 0);
        }
        s.record(1, 0);
        s.record(1, 1);
        s.record(1, 0);
        s.record(1, 1);
        let mut p = ExpectedAccuracyGain::default();
        assert_eq!(p.next_task(&s), Some(1));
    }

    #[test]
    fn expected_gain_is_nonnegative_math() {
        for post in [vec![0.5, 0.5], vec![0.9, 0.1], vec![0.34, 0.33, 0.33]] {
            let before = post.iter().cloned().fold(0.0, f64::max);
            let after = expected_after_one(0.8, &post);
            assert!(
                after >= before - 1e-9,
                "one more informative answer cannot reduce expected max-posterior: {before} → {after}"
            );
        }
    }

    #[test]
    fn random_assign_is_deterministic_per_seed_and_respects_caps() {
        let s = AssignState::new(5, 2, 3);
        let pick = |seed: u64| -> Vec<usize> {
            let mut p = RandomAssign::new(seed);
            (0..10).filter_map(|_| p.next_task(&s)).collect()
        };
        assert_eq!(pick(1), pick(1));
        let mut s2 = AssignState::new(2, 2, 1);
        s2.record(0, 0);
        let mut p = RandomAssign::new(0);
        for _ in 0..10 {
            assert_eq!(p.next_task(&s2), Some(1), "task 0 is capped");
        }
    }
}
