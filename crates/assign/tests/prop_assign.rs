//! Property-based tests for assignment policies: every policy must pick
//! only open tasks, stop exactly when everything is capped, and (for the
//! quality-aware ones) honour its selection criterion.

use crowdkit_assign::{
    AssignState, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
use crowdkit_core::metrics::entropy;
use proptest::prelude::*;

/// Builds a state from arbitrary per-task votes under a common cap.
fn state_from(votes: Vec<(u32, u32)>, cap: u32) -> AssignState {
    let mut s = AssignState::new(votes.len(), 2, cap);
    for (t, (no, yes)) in votes.iter().enumerate() {
        for _ in 0..(*no).min(cap) {
            s.record(t, 0);
        }
        for _ in 0..(*yes).min(cap.saturating_sub(*no)) {
            s.record(t, 1);
        }
    }
    s
}

fn policies(seed: u64) -> Vec<Box<dyn AssignmentPolicy>> {
    vec![
        Box::new(RandomAssign::new(seed)),
        Box::new(RoundRobin::default()),
        Box::new(EntropyGreedy::default()),
        Box::new(ExpectedAccuracyGain::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Policies only ever select open tasks, and return None exactly when
    /// every task is at its cap.
    #[test]
    fn policies_respect_caps(
        votes in prop::collection::vec((0u32..6, 0u32..6), 1..12),
        cap in 1u32..8,
        seed in 0u64..100,
    ) {
        let s = state_from(votes, cap);
        let any_open = s.open_tasks().next().is_some();
        for mut p in policies(seed) {
            match p.next_task(&s) {
                Some(t) => {
                    prop_assert!(any_open, "{} picked from a fully-capped state", p.name());
                    prop_assert!(t < s.num_tasks());
                    prop_assert!(
                        s.count(t) < cap,
                        "{} picked capped task {t}", p.name()
                    );
                }
                None => prop_assert!(!any_open, "{} gave up with open tasks", p.name()),
            }
        }
    }

    /// EntropyGreedy always picks a task whose posterior entropy is maximal
    /// among open tasks.
    #[test]
    fn entropy_greedy_picks_a_max_entropy_task(
        votes in prop::collection::vec((0u32..5, 0u32..5), 1..10),
    ) {
        let s = state_from(votes, 20);
        let mut p = EntropyGreedy::default();
        if let Some(t) = p.next_task(&s) {
            let chosen = entropy(&s.posterior(t));
            for other in s.open_tasks() {
                prop_assert!(
                    chosen >= entropy(&s.posterior(other)) - 1e-9,
                    "task {t} (H={chosen:.4}) is not maximal"
                );
            }
        }
    }

    /// Round-robin keeps the vote counts balanced: after any number of
    /// steps, max and min task counts differ by at most one.
    #[test]
    fn round_robin_balances_counts(n_tasks in 1usize..10, steps in 0usize..40) {
        let mut s = AssignState::new(n_tasks, 2, u32::MAX);
        let mut p = RoundRobin::default();
        for _ in 0..steps {
            let t = p.next_task(&s).expect("uncapped tasks stay open");
            s.record(t, 0);
        }
        let counts: Vec<u32> = (0..n_tasks).map(|t| s.count(t)).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "unbalanced counts {counts:?}");
    }

    /// RandomAssign with the same seed replays the same choices.
    #[test]
    fn random_assign_is_reproducible(
        votes in prop::collection::vec((0u32..4, 0u32..4), 1..8),
        seed in 0u64..50,
    ) {
        let s = state_from(votes, 10);
        let picks = |seed: u64| -> Vec<Option<usize>> {
            let mut p = RandomAssign::new(seed);
            (0..10).map(|_| p.next_task(&s)).collect()
        };
        prop_assert_eq!(picks(seed), picks(seed));
    }
}
