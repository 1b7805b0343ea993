//! Telemetry overhead gate: each instrumented layer on against off, on
//! the two hot paths where its writes concentrate.
//!
//! Telemetry is off when nothing is installed on the thread, so every arm
//! is a scope:
//!
//! | layer      | workloads       | off arm                     | on arm                     | bound |
//! |------------|-----------------|-----------------------------|----------------------------|-------|
//! | obs        | `ask_batch`, DS | default scope               | a `MemoryRecorder`         | 5 %   |
//! | metrics    | `ask_batch`, DS | a `MemoryRecorder`          | the same plus a `Registry` | 3 %   |
//! | provenance | DS              | a `MemoryRecorder`, bit off | the same, bit on           | 5 %   |
//!
//! The metrics arms both run under a recorder, so the gated difference is
//! the registry's writes alone: the EM loops' phase timers, which run
//! whenever either sink is in scope, are paid by both arms. The suite
//! always installs both.
//!
//! `ask_batch` is batched platform execution (200 tasks × 3 votes) and DS
//! is Dawid–Skene EM over a 500 × 5 matrix. Three choices keep the gate
//! from failing on an unchanged tree:
//!
//! * The workloads run at one kernel thread. Instrumentation fires only
//!   from sequential code, so one thread measures all of it, without the
//!   worker pool's scheduling noise.
//! * Each arm's sink is created once per gate and reused across samples,
//!   as a suite experiment reuses its own. A fresh registry per sample
//!   would time its first-touch page faults, not its writes.
//! * Samples interleave off and on, and the gate is the median of the
//!   adjacent on/off pair ratios: drift hits both halves of a pair, and a
//!   few disturbed pairs cannot move the median.
//!
//! Every gate runs and prints before the binary fails on any of them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crowdkit_core::ask::AskRequest;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::Task;
use crowdkit_core::traits::{CrowdOracle, TruthInferencer};
use crowdkit_metrics as metrics;
use crowdkit_obs as obs;
use crowdkit_sim::dataset::LabelingDataset;
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::{mixes, PopulationBuilder};
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_truth::em::EmConfig;
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};

const N_TASKS: usize = 200;
const VOTES: usize = 3;
const SEED: u64 = 7;
const SAMPLES: usize = 60;

fn run_batch(tasks: &[Task]) {
    let pop = PopulationBuilder::new().reliable(80, 0.8, 0.95).build(SEED);
    let crowd = PlatformBuilder::new(pop)
        .latency(LatencyModel::human_default())
        .seed(SEED)
        .threads(1)
        .build();
    let reqs: Vec<AskRequest<'_>> = tasks
        .iter()
        .map(|t| AskRequest::new(t).with_redundancy(VOTES))
        .collect();
    let outs = crowd.ask_batch(&reqs).expect("unlimited budget");
    assert!(outs.iter().all(|o| o.delivered() == VOTES));
}

fn inference_matrix() -> ResponseMatrix {
    let data = LabelingDataset::binary(500, SEED);
    let crowd = SimulatedCrowd::new(mixes::mixed(60, SEED), SEED);
    label_tasks(&crowd, &data.tasks, 5, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

/// What one side of a gated pair installs around the work.
#[derive(Clone, Copy)]
struct Arm {
    recorder: bool,
    registry: bool,
    provenance: bool,
}

/// Nothing installed: the default scope.
const BARE: Arm = Arm {
    recorder: false,
    registry: false,
    provenance: false,
};
const OBS: Arm = Arm {
    recorder: true,
    ..BARE
};
const OBS_METRICS: Arm = Arm {
    registry: true,
    ..OBS
};
const OBS_PROVENANCE: Arm = Arm {
    provenance: true,
    ..OBS
};

/// A gated pair: name, bound, off arm, on arm and the work they time.
type Gate<'a> = (&'a str, f64, Arm, Arm, &'a dyn Fn());

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Runs `work` alternately under the `off` and `on` arms, `SAMPLES` pairs
/// after one warm-up each, prints the result and returns whether the
/// median pair overhead stays under `bound`. The gate's recorder and
/// registry are created once and shared by both arms.
fn check_pair(name: &str, bound: f64, off: Arm, on: Arm, work: &dyn Fn()) -> bool {
    let rec = Arc::new(obs::MemoryRecorder::new());
    let reg = Arc::new(metrics::Registry::new());
    let run = |arm: Arm| {
        let scope = if arm.recorder {
            obs::Scope {
                recorder: rec.clone(),
                provenance: arm.provenance,
            }
        } else {
            obs::Scope::default()
        };
        obs::with_scope(scope, || {
            if arm.registry {
                metrics::with_registry(reg.clone(), work);
            } else {
                work();
            }
        });
    };
    run(off);
    run(on);
    let mut off_ns = Vec::with_capacity(SAMPLES);
    let mut on_ns = Vec::with_capacity(SAMPLES);
    let mut ratios = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        run(off);
        let a = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        run(on);
        let b = t0.elapsed().as_nanos() as f64;
        off_ns.push(a);
        on_ns.push(b);
        ratios.push(b / a);
    }
    let overhead = median(ratios) - 1.0;
    let pass = overhead < bound;
    println!(
        "{name}: off {:.0} ns, on {:.0} ns (medians), median pair overhead {:+.2}% \
         (bound {:.0}%) {}",
        median(off_ns),
        median(on_ns),
        overhead * 100.0,
        bound * 100.0,
        if pass { "ok" } else { "OVER BUDGET" }
    );
    pass
}

fn main() {
    let tasks = LabelingDataset::binary(N_TASKS, SEED).tasks;
    let matrix = inference_matrix();
    let ds = DawidSkene::with_config(EmConfig {
        threads: 1,
        ..EmConfig::default()
    });
    let ask = || run_batch(&tasks);
    let infer = || {
        black_box(ds.infer(black_box(&matrix)).expect("non-empty matrix"));
    };
    let gates: [Gate<'_>; 5] = [
        ("obs ask_batch", 0.05, BARE, OBS, &ask),
        ("obs dawid_skene", 0.05, BARE, OBS, &infer),
        ("metrics ask_batch", 0.03, OBS, OBS_METRICS, &ask),
        ("metrics dawid_skene", 0.03, OBS, OBS_METRICS, &infer),
        ("provenance dawid_skene", 0.05, OBS, OBS_PROVENANCE, &infer),
    ];
    let failed: Vec<&str> = gates
        .into_iter()
        .filter(|&(name, bound, off, on, work)| !check_pair(name, bound, off, on, work)) // crowdkit-lint: allow(DET002) — benchmark harness: the gate's verdict comes from wall time on purpose
        .map(|(name, ..)| name)
        .collect();
    assert!(
        failed.is_empty(),
        "telemetry overhead over budget: {}",
        failed.join(", ")
    );
}
