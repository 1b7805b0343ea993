//! # crowdkit-assign
//!
//! Task assignment and budget allocation: *which task should the next
//! answer be bought for?*
//!
//! Under a fixed budget, accuracy is decided by where the answers go.
//! The tutorial's task-assignment axis contrasts static redundancy
//! (everything gets `k` answers) with quality-aware policies that spend the
//! marginal answer where it most improves expected accuracy (QASCA-style).
//! This crate implements:
//!
//! * [`policy::RandomAssign`] — uniform random among unfinished tasks (the
//!   platform default, the baseline in every comparison);
//! * [`policy::RoundRobin`] — equalized redundancy;
//! * [`policy::EntropyGreedy`] — uncertainty sampling: buy for the task
//!   whose current vote posterior has the highest entropy;
//! * [`policy::ExpectedAccuracyGain`] — QASCA-flavoured: buy for the task
//!   with the largest expected gain in posterior accuracy from one more
//!   answer under an assumed worker accuracy.
//!
//! [`driver::run_assignment`] executes any policy against a
//! [`crowdkit_core::traits::CrowdOracle`] under a question budget and
//! returns the collected matrix, ready for truth inference. Experiment E8
//! sweeps the policies under identical budgets.
//!
//! ## Cost per pick
//!
//! The three greedy policies pick the open task that ranks first by
//! (score descending under `f64::total_cmp`, answers received plus in
//! flight ascending, index ascending); the score is the expected gain,
//! the entropy, or a constant 0 for round-robin. A score depends only on
//! the task's vote vector, and between picks only a few tasks change. So
//! [`AssignState`] logs the index of every task that `record`,
//! `note_pending` or `clear_pending` touches, under an id unique to the
//! state, and each policy keeps its open tasks in an ordered set that it
//! updates by replaying that log from where it left off. A pick costs
//! O(log n) per logged change, and a score is recomputed only when the
//! task's vote total moved (votes only grow, so the total identifies the
//! vector). The set is rebuilt, at n score evaluations, when the state
//! id, the task or label count, the cap or the policy's parameter differ
//! from what it was built for. The picks are exactly those of a scan over
//! every open task: `tests/prop_reference_picks.rs` checks them against
//! such scans.
//!
//! The change information lives in the state, not in the
//! [`AssignmentPolicy`] trait: a wrapper that forwards only `name` and
//! `next_task` (a timing probe, say) keeps working, where a trait hook
//! that every wrapper had to forward would silently go stale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod policy;
mod ranking;

pub use driver::{run_assignment, AssignmentOutcome};
pub use policy::{
    AssignState, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
