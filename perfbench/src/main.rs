//! End-to-end benchmark of crowdkit.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload label --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads (`label`, `adaptive`, `query`), each a closed loop of
//! one client in this process, with every thread knob pinned to 1. The
//! seed derives `VARIANTS` input sets of one workload. After one untimed
//! warm-up job, whole cycles over the variants (set-up, then job, for each)
//! repeat until `--seconds` have passed; timings are medians over every
//! repeat, scaled to a reference machine speed (see `calibrate`), and the
//! deterministic metrics (spend, accuracy, simulated makespan, delivered
//! ratio) are pooled over the variants, which keeps them from swinging
//! with one seed's stragglers.
//!
//! * `--trace 0` prints the end-to-end metrics.
//! * `--trace 1` alternates plain and traced repeats and prints the
//!   per-layer metrics, which come from timing calls into each layer's
//!   public functions from this benchmark's own code (see `probe`).
//!
//! Every run also checks the program's outputs: each repeat's
//! deterministic outcome must equal its variant's first; each variant's
//! outcome must equal the one recorded for this seed in `expected.tsv`
//! (when recorded); traced and plain outcomes must be equal; and a
//! reduced-size instance must give the same outcome at the default thread
//! count as at one thread.
//!
//! `--record FIRST..LAST` prints the `expected.tsv` lines for a seed range
//! instead of measuring. `--kernel-check ROUNDS` prints how far the
//! calibration kernel's time moves with the work that runs before it.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calibrate;
mod probe;
mod report;
mod workload;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crowdkit_core::par::default_threads;

use std::hint::black_box;

use crate::calibrate::Speed;
use crate::probe::Layers;
use crate::report::{median, percentile, Metrics};
use crate::workload::{derive, Outcome, Workload};
use crate::workloads::{Adaptive, Label, Query};

/// Thread count every measured run uses.
const THREADS: usize = 1;
/// Input sets one seed derives; every run measures whole cycles of them.
const VARIANTS: u64 = 8;
/// Set-up samples per run, and the least time one sample's batch spans.
const SETUP_SAMPLES: usize = 41;
const SETUP_BATCH: Duration = Duration::from_millis(20);

const RECORDED: &str = include_str!("../expected.tsv");

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<(u64, u64)>,
    kernel_check: Option<usize>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
        kernel_check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--record" => {
                let (a, b) = value
                    .split_once("..")
                    .ok_or_else(|| bad(&"expected FIRST..LAST"))?;
                args.record = Some((
                    a.parse().map_err(|e| bad(&e))?,
                    b.parse().map_err(|e| bad(&e))?,
                ));
            }
            "--kernel-check" => args.kernel_check = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match args.workload.as_str() {
        _ if args.kernel_check.is_some() => kernel_check(&args),
        "label" => drive(&args, label),
        "adaptive" => drive(&args, adaptive),
        "query" => drive(&args, query),
        other => Err(format!("unknown workload '{other}' (label, adaptive, query)").into()),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Full-size inputs, or the reduced size used for the thread check.
#[derive(Clone, Copy)]
enum Size {
    Full,
    Reduced,
}

fn label(seed: u64, size: Size) -> Label {
    match size {
        Size::Full => Label::new(seed, 2000, 1000, 5),
        Size::Reduced => Label::new(seed, 300, 150, 5),
    }
}

fn adaptive(seed: u64, size: Size) -> Adaptive {
    match size {
        Size::Full => Adaptive::new(seed, 1000, 60, 5000, 9),
        Size::Reduced => Adaptive::new(seed, 150, 60, 750, 9),
    }
}

fn query(seed: u64, size: Size) -> Query {
    match size {
        Size::Full => Query::new(seed, 1000, 40, 400, 80),
        Size::Reduced => Query::new(seed, 200, 40, 60, 80),
    }
}

fn drive<W: Workload>(args: &Args, make: fn(u64, Size) -> W) -> Result<()> {
    let variant_seed = |seed: u64, v: u64| derive(seed, 100 + v);
    if let Some((first, last)) = args.record {
        for seed in first..=last {
            for v in 0..VARIANTS {
                let out = one_job(&make(variant_seed(seed, v), Size::Full), THREADS)?;
                println!("{}", record_line(&args.workload, seed, v, &out));
            }
        }
        return Ok(());
    }
    let inputs: Vec<W> = (0..VARIANTS)
        .map(|v| make(variant_seed(args.seed, v), Size::Full))
        .collect();
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut run = if args.trace {
        traced(&inputs, seconds)?
    } else {
        untraced(&inputs, seconds)?
    };

    // Output checks beyond repeat-to-repeat equality.
    let mut recorded = 0;
    let mut mismatches = Vec::new();
    for (v, out) in run.references.iter().enumerate() {
        let got = record_line(&args.workload, args.seed, v as u64, out);
        if let Some(line) = lookup_recorded(&got) {
            recorded += 1;
            if line != got {
                mismatches.push(format!(
                    "differs from expected.tsv\n  recorded {line}\n  got      {got}"
                ));
            }
        }
    }
    mismatches.into_iter().for_each(|m| run.fail(m));
    let small = make(variant_seed(args.seed, 0), Size::Reduced);
    let many = default_threads();
    let at_one = one_job(&small, 1)?;
    let at_many = one_job(&small, many)?;
    if at_one != at_many {
        run.fail(format!(
            "reduced-size outcome at {many} threads differs from 1 thread: {at_many:?} vs {at_one:?}"
        ));
    }
    let pooled = Pooled::of(&run.references);
    if pooled.failed > 0 {
        run.fail(format!(
            "{} of {} units failed",
            pooled.failed, pooled.attempted
        ));
    }

    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":{THREADS},\"nproc\":{},\
         \"git_rev\":\"{}\",\"variants\":{VARIANTS},\"recorded_variants\":{recorded},\
         \"jobs\":{},\"threads_checked\":{many},\"answers_per_job\":{},\"failed_ratio\":{}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::git_rev(),
        run.jobs.len(),
        pooled.answers as f64 / VARIANTS as f64,
        pooled.failed_ratio(),
    );
    for problem in &run.problems {
        println!("CHECK FAILED: {problem}");
    }
    let attempted: u64 = run.jobs.iter().map(|o| o.attempted).sum();
    let failed: u64 = run.jobs.iter().map(|o| o.failed).sum();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        run.problems.is_empty(),
        run.metrics.to_json()?,
    );
    Ok(())
}

/// What one run measured and every check that failed.
struct Run {
    metrics: Metrics,
    /// The first outcome of each variant.
    references: Vec<Outcome>,
    /// The outcome of every measured job.
    jobs: Vec<Outcome>,
    problems: Vec<String>,
}

impl Run {
    fn new(references: Vec<Outcome>) -> Self {
        Self {
            metrics: Metrics::default(),
            references,
            jobs: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Books a measured job of variant `v`. The first outcome of a variant
    /// becomes its reference; every later one must repeat it exactly.
    fn book(&mut self, what: &str, v: usize, got: Outcome) {
        match self.references.get(v) {
            None => self.references.push(got.clone()),
            Some(reference) if *reference != got => {
                let problem = format!("{what} of variant {v}: {got:?} differs from {reference:?}");
                self.fail(problem);
            }
            Some(_) => {}
        }
        self.jobs.push(got);
    }
}

/// Outcomes summed over the variants.
struct Pooled {
    attempted: u64,
    failed: u64,
    answers: u64,
    spend: f64,
    correct: u64,
    judged: u64,
    makespan_sim_s: f64,
}

impl Pooled {
    fn of(outs: &[Outcome]) -> Self {
        Self {
            attempted: outs.iter().map(|o| o.attempted).sum(),
            failed: outs.iter().map(|o| o.failed).sum(),
            answers: outs.iter().map(|o| o.answers).sum(),
            spend: outs.iter().map(|o| o.spend).sum(),
            correct: outs.iter().map(|o| o.correct).sum(),
            judged: outs.iter().map(|o| o.judged).sum(),
            makespan_sim_s: outs.iter().map(|o| o.makespan_sim_s).sum(),
        }
    }

    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn one_job<W: Workload>(w: &W, threads: usize) -> Result<Outcome> {
    let env = w.setup(threads, None)?;
    Ok(w.job(&env, None, &mut Vec::new())?)
}

fn record_line(workload: &str, seed: u64, variant: u64, out: &Outcome) -> String {
    format!(
        "{workload}\t{seed}\t{variant}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        out.attempted,
        out.failed,
        out.answers,
        out.spend,
        out.correct,
        out.judged,
        out.makespan_sim_s
    )
}

/// The recorded line with the same workload, seed and variant as `line`.
fn lookup_recorded(line: &str) -> Option<&'static str> {
    let key: Vec<&str> = line.split('\t').take(3).collect();
    RECORDED
        .lines()
        .find(|l| l.split('\t').take(3).eq(key.iter().copied()))
}

/// One timed job.
struct Rep {
    /// Job time scaled to reference speed.
    job_s: f64,
    /// Job time as measured.
    raw_job_s: f64,
    /// The scale factor applied.
    factor: f64,
    outcome: Outcome,
}

/// Sets up, then times one job. The job time and the request latencies it
/// pushes to `latencies_ms` are scaled to reference speed.
fn timed_rep<W: Workload>(
    w: &W,
    tr: Option<&Layers>,
    speed: &mut Speed,
    latencies_ms: &mut Vec<f64>,
) -> Result<Rep> {
    let env = w.setup(THREADS, tr)?;
    let first = latencies_ms.len();
    let start = Instant::now();
    let outcome = w.job(&env, tr, latencies_ms)?;
    let raw_job_s = start.elapsed().as_secs_f64();
    drop(env);
    let factor = speed.factor();
    latencies_ms[first..].iter_mut().for_each(|x| *x *= factor);
    Ok(Rep {
        job_s: raw_job_s * factor,
        raw_job_s,
        factor,
        outcome,
    })
}

/// The untimed warm-up job; its outcome is the first variant's reference.
fn warm_up<W: Workload>(inputs: &[W]) -> Result<Vec<Outcome>> {
    Ok(vec![one_job(&inputs[0], THREADS)?])
}

/// Median set-up time over `SETUP_SAMPLES` samples, each the mean of a
/// batch of back-to-back set-ups lasting at least `SETUP_BATCH`, rotating
/// through the variants. Set-up is short, so batching keeps timer and
/// allocator jitter out of the samples. The kernel runs after each batch,
/// and the median is scaled by the median kernel time of this phase: one
/// kernel timing is as long as a batch and too noisy to scale a sample by.
/// Returns the scaled and the raw median.
fn setup_median<W: Workload>(inputs: &[W], speed: &mut Speed) -> Result<(f64, f64)> {
    let t0 = Instant::now();
    drop(inputs[0].setup(THREADS, None)?);
    let one = t0.elapsed().as_secs_f64().max(1e-7);
    let batch = (SETUP_BATCH.as_secs_f64() / one).ceil() as usize;
    let mut raw = Vec::with_capacity(SETUP_SAMPLES);
    let mut factors = Vec::with_capacity(SETUP_SAMPLES);
    for w in inputs.iter().cycle().take(SETUP_SAMPLES) {
        let start = Instant::now();
        for _ in 0..batch {
            drop(w.setup(THREADS, None)?);
        }
        raw.push(start.elapsed().as_secs_f64() / batch as f64);
        factors.push(speed.factor());
    }
    let raw_s = median(&raw);
    Ok((raw_s * median(&factors), raw_s))
}

/// The end-to-end run: plain repeats only.
fn untraced<W: Workload>(inputs: &[W], seconds: Duration) -> Result<Run> {
    let mut run = Run::new(warm_up(inputs)?);
    // Before the calibration kernel first runs: its buffers would count.
    let peak_rss_mb = report::peak_rss_mb()?;
    let mut speed = Speed::new();
    let (mut job_s, mut raw_job_s, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while job_s.is_empty() || start.elapsed() < seconds {
        for (v, w) in inputs.iter().enumerate() {
            let rep = timed_rep(w, None, &mut speed, &mut latencies)?;
            run.book("repeat", v, rep.outcome);
            job_s.push(rep.job_s);
            raw_job_s.push(rep.raw_job_s);
        }
    }
    let (setup_s, raw_setup_s) = setup_median(inputs, &mut speed)?;

    // A request's latency is its median over the run's repeats of the same
    // request, which keeps one slow repeat from setting the tail. Workloads
    // without per-request latencies serve one request per job.
    let per_request = !latencies.is_empty();
    let latencies = if per_request {
        per_request_medians(&latencies, job_s.len(), inputs.len())
    } else {
        job_s.iter().map(|s| s * 1e3).collect()
    };
    // The tail is the 99th percentile, or, with fewer than 1,000 samples,
    // the highest percentile that still has ten samples beyond it.
    let tail_q = (1.0 - 10.0 / latencies.len() as f64).clamp(0.5, 0.99);
    let tail = percentile(&latencies, tail_q);
    let beyond_tail = latencies.iter().filter(|&&x| x > tail).count();
    println!(
        "{{\"latency_samples\":{},\"per_request\":{per_request},\"tail_quantile\":{tail_q},\
         \"beyond_tail\":{beyond_tail},\"setup_samples\":{SETUP_SAMPLES},\"raw_job_s\":{},\
         \"raw_setup_s\":{raw_setup_s},\"kernel_s\":{},\"reference_kernel_s\":{}}}",
        latencies.len(),
        median(&raw_job_s),
        median(speed.kernel_samples()),
        calibrate::REFERENCE_S,
    );

    let pooled = Pooled::of(&run.references);
    let n = VARIANTS as f64;
    let m = &mut run.metrics;
    m.push("setup_s", setup_s, "s");
    m.push("job_s", median(&job_s), "s");
    m.push("spend", pooled.spend / n, "unit");
    m.push(
        "accuracy",
        pooled.correct as f64 / pooled.judged.max(1) as f64,
        "ratio",
    );
    m.push("makespan_sim_s", pooled.makespan_sim_s / n, "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    m.push("delivered_ratio", 1.0 - pooled.failed_ratio(), "ratio");
    m.push("query_p50_ms", percentile(&latencies, 0.5), "ms");
    m.push("query_p99_ms", tail, "ms");
    Ok(run)
}

/// Per-request medians from `latencies`, which holds `reps` jobs' request
/// latencies back to back, job `r` being of variant `r % variants`.
fn per_request_medians(latencies: &[f64], reps: usize, variants: usize) -> Vec<f64> {
    let per_job = latencies.len() / reps;
    let mut out = Vec::with_capacity(per_job * variants);
    for v in 0..variants {
        for i in 0..per_job {
            let same: Vec<f64> = (v..reps)
                .step_by(variants)
                .map(|r| latencies[r * per_job + i])
                .collect();
            out.push(median(&same));
        }
    }
    out
}

/// The per-layer run: plain and traced repeats alternate, so the tracing
/// overhead is measured under the same conditions.
fn traced<W: Workload>(inputs: &[W], seconds: Duration) -> Result<Run> {
    let mut run = Run::new(warm_up(inputs)?);
    let mut speed = Speed::new();
    let mut plain_s = Vec::new();
    let mut samples: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < seconds {
        for (v, w) in inputs.iter().enumerate() {
            let plain = timed_rep(w, None, &mut speed, &mut Vec::new())?;
            run.book("plain repeat", v, plain.outcome);
            plain_s.push(plain.job_s);
            let layers = Layers::default();
            let rep = timed_rep(w, Some(&layers), &mut speed, &mut Vec::new())?;
            run.book("traced repeat", v, rep.outcome);
            samples.push(report::layer_metrics(&layers, rep.raw_job_s, rep.factor));
        }
    }
    let mut metrics = Metrics::median_of(&samples);
    let traced_s = metrics.get("traced_job_s").unwrap_or(f64::NAN);
    metrics.push(
        "trace_overhead_ratio",
        traced_s / median(&plain_s) - 1.0,
        "ratio",
    );
    report::print_shares(&metrics);
    run.metrics = metrics;
    Ok(run)
}

/// `--kernel-check`: how far the calibration kernel's time moves with the
/// work that ran just before it. Each round runs every predecessor once,
/// in an order that rotates from round to round, and times the kernel
/// right after each. A kernel time is divided by the median of its round,
/// which takes out the machine's slow and fast phases. Prints, per
/// predecessor, the quartiles of these ratios over the rounds.
fn kernel_check(args: &Args) -> Result<()> {
    let rounds = args.kernel_check.unwrap_or(0).max(1);
    let (l, a, q) = (
        label(args.seed, Size::Full),
        adaptive(args.seed, Size::Full),
        query(args.seed, Size::Full),
    );
    let mut hoard = Vec::new();
    type Before<'a> = Box<dyn FnMut() -> Result<()> + 'a>;
    let mut before: Vec<(&str, Before)> = vec![
        ("kernel", Box::new(|| Ok(()))),
        ("label", Box::new(|| one_job(&l, THREADS).map(drop))),
        ("adaptive", Box::new(|| one_job(&a, THREADS).map(drop))),
        ("query", Box::new(|| one_job(&q, THREADS).map(drop))),
        (
            "heap_bloat",
            Box::new(|| {
                bloat_heap(&mut hoard);
                Ok(())
            }),
        ),
    ];
    let mut speed = Speed::new();
    let mut all = Vec::with_capacity(rounds * before.len());
    let mut ratios = vec![Vec::with_capacity(rounds); before.len()];
    for r in 0..rounds {
        let mut round = vec![0.0; before.len()];
        for i in 0..before.len() {
            let k = (i + r) % before.len();
            (before[k].1)()?;
            round[k] = speed.kernel_s();
        }
        let mid = median(&round);
        for (k, t) in round.iter().enumerate() {
            ratios[k].push(t / mid);
        }
        all.extend(round);
    }
    println!(
        "kernel time after each predecessor, as a share of its round's median \
         ({rounds} rounds, seed {}, median kernel time {:.4} ms)",
        args.seed,
        median(&all) * 1e3
    );
    for ((name, _), r) in before.iter().zip(&ratios) {
        println!(
            "  {name:<10} q1 {:.4}  median {:.4}  q3 {:.4}",
            percentile(r, 0.25),
            median(r),
            percentile(r, 0.75)
        );
    }
    Ok(())
}

/// Leaves the heap large and fragmented: about 16 MiB of small blocks of
/// mixed sizes stay alive in `hoard` (replacing the previous call's), half
/// as many were freed between them, and a 16 MiB block was mapped and
/// freed, which raises glibc's mmap threshold.
fn bloat_heap(hoard: &mut Vec<Vec<u8>>) {
    black_box(vec![1u8; 16 << 20]);
    let mut next = Vec::with_capacity(8192);
    for i in 0..16_384usize {
        let block = vec![i as u8; 16 + (i * 37) % 4096];
        if i % 2 == 0 {
            next.push(block);
        }
    }
    *hoard = next;
}
