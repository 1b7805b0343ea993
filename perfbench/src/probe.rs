//! Timing probes for the traced run.
//!
//! The traced run wraps each layer's public entry points from the outside:
//! the benchmark hands the program a [`ProbedOracle`] instead of the
//! platform, a [`TimedInferencer`] instead of the inferencer and a
//! [`TimedPolicy`] instead of the assignment policy, and it times the
//! calls it makes itself (`label_tasks`, `run_assignment`,
//! `Session::query_crowd`, the Datalog engine) as spans. No code inside
//! the program is changed or instrumented.
//!
//! Two kinds of accumulator exist. A [`Leaf`] is a call that contains no
//! other timed call (every `CrowdOracle` method, `TruthInferencer::infer`,
//! `AssignmentPolicy::next_task`). A [`Span`] is a call that contains
//! leaves; its *self* time is its wall time minus the leaf time spent
//! inside it. Spans never nest in these workloads, so the job time splits
//! exactly into leaf time, span self time and a residual outside both.

use std::cell::Cell;
use std::time::Instant;

use crowdkit_assign::{AssignState, AssignmentPolicy};
use crowdkit_core::answer::Answer;
use crowdkit_core::ask::{AskOutcome, AskRequest};
use crowdkit_core::error::Result;
use crowdkit_core::response::ResponseMatrix;
use crowdkit_core::task::Task;
use crowdkit_core::traits::{CrowdOracle, InferenceResult, TruthInferencer};

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and call count of a leaf layer.
#[derive(Debug, Default)]
pub struct Leaf {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Leaf {
    fn add(&self, start: Instant, calls: u64) {
        self.ns.set(self.ns.get() + elapsed_ns(start));
        self.calls.set(self.calls.get() + calls);
    }

    /// Busy seconds.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    /// Calls counted.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Self time and call count of a span layer.
#[derive(Debug, Default)]
pub struct Span {
    self_ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Span {
    /// Self seconds: wall time of the spans minus the leaf time inside.
    pub fn secs(&self) -> f64 {
        self.self_ns.get() as f64 * 1e-9
    }

    /// Spans recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Every accumulator of one traced job.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every `CrowdOracle` method. `calls` counts the four ask methods;
    /// the two accessors are timed but not counted.
    pub sim: Leaf,
    /// Answers the ask methods were asked for and did not deliver.
    pub sim_tally: Tally,
    /// `TruthInferencer::infer`.
    pub truth: Leaf,
    /// EM iterations reported by `InferenceResult::iterations`.
    pub truth_iterations: Cell<u64>,
    /// Inference calls that reported convergence.
    pub truth_converged: Cell<u64>,
    /// `truth::pipeline::label_tasks`.
    pub pipeline: Span,
    /// `AssignmentPolicy::next_task`.
    pub assign: Leaf,
    /// `assign::driver::run_assignment`.
    pub driver: Span,
    /// `Session::query_crowd`.
    pub sql: Span,
    /// `Session::execute_ddl` during set-up.
    pub ddl: Leaf,
    /// `parse_program`, `Engine::new` and `Engine::run`.
    pub datalog: Span,
    /// Sums of the `QueryStats` each `query_crowd` call returned.
    pub sql_stats: Cell<SqlTotals>,
    /// Sums of the `EvalStats` each Datalog run returned.
    pub datalog_stats: Cell<DatalogTotals>,
}

/// Sums over `crowdkit_sql::QueryStats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlTotals {
    /// Crowd answers purchased.
    pub questions: u64,
    /// Platform round-trips.
    pub rounds: u64,
    /// NULL cells filled.
    pub cells_filled: u64,
    /// CROWDEQUAL verdicts bought.
    pub equal_checks: u64,
    /// Pairwise comparisons played.
    pub comparisons: u64,
    /// Metered spend.
    pub spend: f64,
    /// Spend the cost model predicted.
    pub predicted_spend: f64,
}

/// Sums over `crowdkit_datalog::EvalStats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct DatalogTotals {
    /// Fetches that reached the resolver.
    pub fetches: u64,
    /// Fetches the per-binding cache absorbed.
    pub fetch_hits: u64,
    /// Fixpoint iterations.
    pub iterations: u64,
}

impl Layers {
    fn leaf_ns(&self) -> u64 {
        self.sim.ns.get() + self.truth.ns.get() + self.assign.ns.get()
    }

    /// Runs `f` as one call of `span`, booking its self time.
    pub fn span<R>(&self, span: &Span, f: impl FnOnce() -> R) -> R {
        let leaf_before = self.leaf_ns();
        let start = Instant::now();
        let out = f();
        let wall = elapsed_ns(start);
        let inside = self.leaf_ns() - leaf_before;
        span.self_ns
            .set(span.self_ns.get() + wall.saturating_sub(inside));
        span.calls.set(span.calls.get() + 1);
        out
    }

    /// Runs `f` as one call of the leaf `leaf`.
    pub fn leaf<R>(&self, leaf: &Leaf, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        leaf.add(start, 1);
        out
    }

    fn count(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }
}

/// Runs `f` as a span when tracing, or plainly when not.
pub fn span<R>(tr: Option<&Layers>, pick: impl Fn(&Layers) -> &Span, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(l) => l.span(pick(l), f),
        None => f(),
    }
}

/// Answers asked for, and how many of them were not delivered, over every
/// ask method of a [`ProbedOracle`].
#[derive(Debug, Default)]
pub struct Tally {
    asked: Cell<u64>,
    missing: Cell<u64>,
}

impl Tally {
    /// Answers asked for.
    pub fn asked(&self) -> u64 {
        self.asked.get()
    }

    /// Answers asked for but not delivered: shortfalls, and every answer
    /// of an ask call that failed.
    pub fn missing(&self) -> u64 {
        self.missing.get()
    }

    /// Answers delivered.
    pub fn delivered(&self) -> u64 {
        self.asked() - self.missing()
    }

    fn book(&self, asked: usize, missing: usize) {
        Layers::count(&self.asked, asked as u64);
        Layers::count(&self.missing, missing as u64);
    }

    fn book_outcomes(&self, outs: &[AskOutcome]) {
        for out in outs {
            self.book(out.delivered() + out.missing(), out.missing());
        }
    }
}

/// A `CrowdOracle` that forwards every method to `inner`, tallies the
/// answers asked for and not delivered, and, when given a leaf, times each
/// call into it.
///
/// All six methods are forwarded, the provided ones too: leaving `ask`,
/// `ask_batch` or `ask_many` to the trait defaults would route them
/// through `ask_one`, a different code path with a different RNG stream.
pub struct ProbedOracle<'a, O: ?Sized> {
    inner: &'a O,
    tally: &'a Tally,
    leaf: Option<&'a Leaf>,
}

impl<'a, O: CrowdOracle + ?Sized> ProbedOracle<'a, O> {
    /// Wraps `inner`, timing into `layers.sim` and tallying into
    /// `layers.sim_tally`.
    pub fn timed(inner: &'a O, layers: &'a Layers) -> Self {
        Self {
            inner,
            tally: &layers.sim_tally,
            leaf: Some(&layers.sim),
        }
    }

    /// Wraps `inner`, tallying into `tally` without timing.
    pub fn counting(inner: &'a O, tally: &'a Tally) -> Self {
        Self {
            inner,
            tally,
            leaf: None,
        }
    }

    /// Runs `f`, booking it as `calls` calls when timing.
    fn call<R>(&self, calls: u64, f: impl FnOnce() -> R) -> R {
        let Some(leaf) = self.leaf else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        leaf.add(start, calls);
        out
    }
}

impl<O: CrowdOracle + ?Sized> CrowdOracle for ProbedOracle<'_, O> {
    fn ask_one(&self, task: &Task) -> Result<Answer> {
        let out = self.call(1, || self.inner.ask_one(task));
        self.tally.book(1, usize::from(out.is_err()));
        out
    }

    fn ask(&self, req: &AskRequest<'_>) -> Result<AskOutcome> {
        let out = self.call(1, || self.inner.ask(req));
        match &out {
            Ok(o) => self.tally.book_outcomes(std::slice::from_ref(o)),
            Err(_) => {
                let asked = req.redundancy.max(1);
                self.tally.book(asked, asked);
            }
        }
        out
    }

    fn ask_batch(&self, reqs: &[AskRequest<'_>]) -> Result<Vec<AskOutcome>> {
        let out = self.call(1, || self.inner.ask_batch(reqs));
        match &out {
            Ok(outs) => self.tally.book_outcomes(outs),
            Err(_) => {
                let asked: usize = reqs.iter().map(|r| r.redundancy.max(1)).sum();
                self.tally.book(asked, asked);
            }
        }
        out
    }

    fn ask_many(&self, task: &Task, k: usize) -> Result<Vec<Answer>> {
        let out = self.call(1, || self.inner.ask_many(task, k));
        let asked = k.max(1);
        let got = out.as_ref().map_or(0, Vec::len);
        self.tally.book(asked, asked.saturating_sub(got));
        out
    }

    fn remaining_budget(&self) -> Option<f64> {
        self.call(0, || self.inner.remaining_budget())
    }

    fn answers_delivered(&self) -> u64 {
        self.call(0, || self.inner.answers_delivered())
    }
}

/// A `TruthInferencer` that times `infer` and books its iteration count.
pub struct TimedInferencer<'a, I: ?Sized> {
    inner: &'a I,
    layers: &'a Layers,
}

impl<'a, I: TruthInferencer + ?Sized> TimedInferencer<'a, I> {
    /// Wraps `inner`, booking into `layers`.
    pub fn new(inner: &'a I, layers: &'a Layers) -> Self {
        Self { inner, layers }
    }
}

impl<I: TruthInferencer + ?Sized> TruthInferencer for TimedInferencer<'_, I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn infer(&self, matrix: &ResponseMatrix) -> Result<InferenceResult> {
        let out = self
            .layers
            .leaf(&self.layers.truth, || self.inner.infer(matrix));
        if let Ok(r) = &out {
            Layers::count(&self.layers.truth_iterations, r.iterations as u64);
            Layers::count(&self.layers.truth_converged, u64::from(r.converged));
        }
        out
    }
}

/// An `AssignmentPolicy` that times every `next_task` call.
pub struct TimedPolicy<'a, P: ?Sized> {
    inner: &'a mut P,
    layers: &'a Layers,
}

impl<'a, P: AssignmentPolicy + ?Sized> TimedPolicy<'a, P> {
    /// Wraps `inner`, booking into `layers`.
    pub fn new(inner: &'a mut P, layers: &'a Layers) -> Self {
        Self { inner, layers }
    }
}

impl<P: AssignmentPolicy + ?Sized> AssignmentPolicy for TimedPolicy<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_task(&mut self, state: &AssignState) -> Option<usize> {
        let start = Instant::now();
        let out = self.inner.next_task(state);
        self.layers.assign.add(start, 1);
        out
    }
}
