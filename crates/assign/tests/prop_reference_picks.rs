//! Every policy picks exactly what its plain scan over all open tasks
//! would pick. The greedy policies keep a ranking that they update from
//! the state's change log; `RandomAssign` counts the open tasks instead of
//! collecting them. The scans below are the reference: at every step of
//! random driver-like histories, index and `None` must agree.

use crowdkit_assign::{
    AssignState, AssignmentPolicy, EntropyGreedy, ExpectedAccuracyGain, RandomAssign, RoundRobin,
};
use crowdkit_core::metrics::entropy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scan_round_robin(s: &AssignState) -> Option<usize> {
    s.open_tasks().min_by_key(|&t| (s.count(t), t))
}

fn scan_entropy(s: &AssignState) -> Option<usize> {
    s.open_tasks()
        .map(|t| (t, entropy(&s.posterior(t))))
        .max_by(|(ta, ea), (tb, eb)| {
            ea.total_cmp(eb)
                .then_with(|| s.count(*tb).cmp(&s.count(*ta)))
                .then_with(|| tb.cmp(ta))
        })
        .map(|(t, _)| t)
}

fn expected_after_one(worker_accuracy: f64, post: &[f64]) -> f64 {
    let k = post.len();
    let p = worker_accuracy.clamp(1e-6, 1.0 - 1e-6);
    let wrong = (1.0 - p) / (k as f64 - 1.0).max(1.0);
    let mut expected = 0.0;
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

fn scan_expected_gain(worker_accuracy: f64, s: &AssignState) -> Option<usize> {
    s.open_tasks()
        .map(|t| {
            let post = s.posterior(t);
            let current = post.iter().cloned().fold(0.0, f64::max);
            (t, expected_after_one(worker_accuracy, &post) - current)
        })
        .max_by(|(ta, ga), (tb, gb)| {
            ga.total_cmp(gb)
                .then_with(|| s.count(*tb).cmp(&s.count(*ta)))
                .then_with(|| tb.cmp(ta))
        })
        .map(|(t, _)| t)
}

fn scan_random(rng: &mut StdRng, s: &AssignState) -> Option<usize> {
    let open: Vec<usize> = s.open_tasks().collect();
    if open.is_empty() {
        None
    } else {
        Some(open[rng.gen_range(0..open.len())])
    }
}

/// One step of a history, applied to the current state. Task and label
/// numbers are reduced modulo the current state's sizes.
#[derive(Debug, Clone)]
enum Op {
    /// Mark the pick of policy `.0 % 4` pending, as the driver does while
    /// it assembles a wave.
    PendPick(usize),
    /// The wave came back: clear pending marks and record one answer for
    /// each of the first `.0` marked tasks, labelled from `.1`.
    Wave(usize, u64),
    NotePending(usize),
    Record(usize, u32),
    ClearPending,
    /// Continue on the other state.
    Switch,
    /// Replace the other state by a clone of the current one; the two
    /// then diverge.
    Clone,
    SetAccuracy(f64),
    SetCap(u32),
}

/// Ops drawn with weights: mostly driver-like picks, some waves, and the
/// rarer direct edits, state switches, clones and parameter changes.
fn op() -> impl Strategy<Value = Op> {
    (0u32..26, 0usize..64, 0u64..u64::MAX).prop_map(|(kind, x, bits)| match kind {
        0..=11 => Op::PendPick(x),
        12..=13 => Op::Wave(x % 40, bits),
        14..=15 => Op::NotePending(x),
        16..=19 => Op::Record(x, (bits % 5) as u32),
        20 => Op::ClearPending,
        21 => Op::Switch,
        22 => Op::Clone,
        23..=24 => Op::SetAccuracy([0.5, 0.6, 0.75, 0.9, 0.99][x % 5]),
        _ => Op::SetCap(1 + (x % 9) as u32),
    })
}

/// Tasks, labels (k ∈ {2, 3, 5}) and cap of one state.
fn shape() -> impl Strategy<Value = (usize, usize, u32)> {
    (1usize..24, 0usize..3, 1u32..10).prop_map(|(n, k, cap)| (n, [2, 3, 5][k], cap))
}

struct Policies {
    random: RandomAssign,
    random_ref: StdRng,
    round_robin: RoundRobin,
    entropy: EntropyGreedy,
    gain: ExpectedAccuracyGain,
}

impl Policies {
    /// Picks with every policy, checks each against its scan, and returns
    /// the picks in the order random, round-robin, entropy, gain.
    fn pick(&mut self, s: &AssignState) -> Result<[Option<usize>; 4], TestCaseError> {
        let picks = [
            self.random.next_task(s),
            self.round_robin.next_task(s),
            self.entropy.next_task(s),
            self.gain.next_task(s),
        ];
        let scans = [
            scan_random(&mut self.random_ref, s),
            scan_round_robin(s),
            scan_entropy(s),
            scan_expected_gain(self.gain.worker_accuracy, s),
        ];
        prop_assert_eq!(picks, scans);
        Ok(picks)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn picks_equal_the_reference_scans(
        a in shape(),
        b in shape(),
        seed in 0u64..1000,
        ops in prop::collection::vec(op(), 1..240),
    ) {
        let mut states = [AssignState::new(a.0, a.1, a.2), AssignState::new(b.0, b.1, b.2)];
        let mut cur = 0usize;
        let mut wave: Vec<usize> = Vec::new();
        let mut p = Policies {
            random: RandomAssign::new(seed),
            random_ref: StdRng::seed_from_u64(seed),
            round_robin: RoundRobin::default(),
            entropy: EntropyGreedy::default(),
            gain: ExpectedAccuracyGain::new(0.75),
        };
        for op in ops {
            let picks = p.pick(&states[cur])?;
            let s = &mut states[cur];
            let (n, k) = (s.num_tasks(), s.votes(0).len());
            match op {
                Op::PendPick(i) => {
                    if let Some(t) = picks[i % 4] {
                        s.note_pending(t);
                        wave.push(t);
                    }
                }
                Op::Wave(m, labels) => {
                    s.clear_pending();
                    for (j, &t) in wave.iter().take(m).enumerate() {
                        if t < n {
                            s.record(t, ((labels >> (j % 64)) as usize % k) as u32);
                        }
                    }
                    wave.clear();
                }
                Op::NotePending(t) => s.note_pending(t % n),
                Op::Record(t, l) => s.record(t % n, l % k as u32),
                Op::ClearPending => s.clear_pending(),
                Op::Switch => cur = 1 - cur,
                Op::Clone => states[1 - cur] = states[cur].clone(),
                Op::SetAccuracy(acc) => p.gain.worker_accuracy = acc,
                Op::SetCap(cap) => s.max_answers_per_task = cap,
            }
        }
        p.pick(&states[cur])?;
    }
}
