//! Provenance overhead gate: lineage capture on vs off.
//!
//! The decision-provenance layer mirrors the obs/metrics cost contract:
//! with no provenance scope active every instrumentation site reduces to
//! one relaxed atomic load and a branch, and with a scope active the
//! lineage bookkeeping is `O(tasks × labels)` per EM iteration — a couple
//! of compares next to the transcendentals the E-step just spent. `main`
//! enforces both ends before the benches run: inference under an active
//! provenance scope (summary-only MemoryRecorder, the suite default) must
//! stay within 5 % of inference with obs alone.
//!
//! Samples are interleaved (off, on, off, …) so clock drift and thermal
//! effects hit both arms equally, and the gate compares minima, the
//! statistic least sensitive to scheduler noise.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::traits::TruthInferencer;
use crowdkit_obs as obs;
use crowdkit_provenance as prov;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{dataset::LabelingDataset, SimulatedCrowd};
use crowdkit_truth::{pipeline::label_tasks, DawidSkene, MajorityVote};

const SEED: u64 = 7;
const GATE_SAMPLES: usize = 60;
const MAX_OVERHEAD: f64 = 0.05;

fn inference_matrix() -> ResponseMatrix {
    let data = LabelingDataset::binary(500, SEED);
    let crowd = SimulatedCrowd::new(mixes::mixed(60, SEED), SEED);
    label_tasks(&crowd, &data.tasks, 5, &MajorityVote)
        .expect("collection succeeds")
        .matrix
}

/// Interleaved min-of-N comparison: runs `f` alternately under an obs
/// recorder alone and under the same recorder plus a provenance scope,
/// returning `(off_min_ns, on_min_ns)`.
fn gate_pair(mut f: impl FnMut()) -> (u64, u64) {
    let rec: Arc<dyn obs::Recorder> = Arc::new(obs::MemoryRecorder::new());
    // Warm both arms.
    obs::with_recorder(rec.clone(), &mut f);
    prov::with_provenance(|| obs::with_recorder(rec.clone(), &mut f));
    let mut off_min = u64::MAX;
    let mut on_min = u64::MAX;
    for _ in 0..GATE_SAMPLES {
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        obs::with_recorder(rec.clone(), &mut f);
        off_min = off_min.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now(); // crowdkit-lint: allow(DET002) — benchmark harness: measuring wall time is the point
        prov::with_provenance(|| obs::with_recorder(rec.clone(), &mut f));
        on_min = on_min.min(t0.elapsed().as_nanos() as u64);
    }
    (off_min, on_min)
}

fn check_overhead(name: &str, f: impl FnMut()) {
    let (off_min, on_min) = gate_pair(f);
    let overhead = on_min as f64 / off_min as f64 - 1.0;
    println!(
        "{name}: provenance off {off_min} ns, on {on_min} ns ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "{name}: provenance overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}

fn bench_dawid_skene(c: &mut Criterion) {
    let m = inference_matrix();
    let ds = DawidSkene::default();
    let mut group = c.benchmark_group("prov_dawid_skene_500x5");
    let rec: Arc<dyn obs::Recorder> = Arc::new(obs::MemoryRecorder::new());
    group.bench_function("scope_off", |b| {
        b.iter(|| {
            obs::with_recorder(rec.clone(), || {
                ds.infer(std::hint::black_box(&m)).unwrap()
            })
        });
    });
    group.bench_function("scope_on", |b| {
        b.iter(|| {
            prov::with_provenance(|| {
                obs::with_recorder(rec.clone(), || {
                    ds.infer(std::hint::black_box(&m)).unwrap()
                })
            })
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dawid_skene);

fn main() {
    let m = inference_matrix();
    let ds = DawidSkene::default();
    check_overhead("dawid_skene", || {
        std::hint::black_box(ds.infer(&m).unwrap());
    });
    benches();
}
