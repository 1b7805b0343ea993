//! Statistics, metric lists and the run's provenance fields.

use crate::calibrate::REFERENCE_S;
use crate::probe::Layers;

/// Named metrics with units, in the order they were pushed.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if pushed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Per-metric medians over samples that list the same metrics.
    pub fn median_of(samples: &[Metrics]) -> Metrics {
        let Some(first) = samples.first() else {
            return Metrics::default();
        };
        let mut out = Metrics::default();
        for (i, &(name, _, unit)) in first.0.iter().enumerate() {
            let values: Vec<f64> = samples.iter().map(|s| s.0[i].1).collect();
            out.push(name, median(&values), unit);
        }
        out
    }

    /// The `metrics` object of the result line. Fails on a value JSON
    /// cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for &(name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            parts.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Process high-water resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn per(total_s: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_s * 1e9 / count as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced job that took `job_s`, with every
/// time scaled by `scale` to reference speed.
///
/// A layer the workload never calls reads 0. `residual_s` is job time
/// outside every timed call; the `share.*` metrics divide by `job_s`.
/// `raw.traced_job_s` and `calib.kernel_ms` are the unscaled job time and
/// the kernel time behind `scale`, so a shift in the kernel shows.
pub fn layer_metrics(l: &Layers, job_s: f64, scale: f64) -> Metrics {
    let raw_job_s = job_s;
    let sql = l.sql_stats.get();
    let dl = l.datalog_stats.get();
    let sim_s = l.sim.secs() * scale;
    let truth_s = l.truth.secs() * scale;
    let pipeline_s = l.pipeline.secs() * scale;
    let assign_s = l.assign.secs() * scale;
    let driver_s = l.driver.secs() * scale;
    let sql_s = l.sql.secs() * scale;
    let datalog_s = l.datalog.secs() * scale;
    let job_s = job_s * scale;
    let residual_s = job_s - sim_s - truth_s - pipeline_s - assign_s - driver_s - sql_s - datalog_s;
    let mut m = Metrics::default();
    m.push("traced_job_s", job_s, "s");
    m.push("sim.busy_s", sim_s, "s");
    m.push("sim.calls", l.sim.calls() as f64, "count");
    m.push("sim.answers", l.sim_tally.delivered() as f64, "count");
    m.push(
        "sim.ns_per_answer",
        per(sim_s, l.sim_tally.delivered()),
        "ns",
    );
    m.push("sim.ns_per_call", per(sim_s, l.sim.calls()), "ns");
    m.push("sim.shortfalls", l.sim_tally.missing() as f64, "count");
    m.push("truth.busy_s", truth_s, "s");
    m.push("truth.calls", l.truth.calls() as f64, "count");
    m.push("truth.iterations", l.truth_iterations.get() as f64, "count");
    m.push(
        "truth.ns_per_iteration",
        per(truth_s, l.truth_iterations.get()),
        "ns",
    );
    m.push("truth.converged", l.truth_converged.get() as f64, "count");
    m.push("truth.pipeline_self_s", pipeline_s, "s");
    m.push("assign.busy_s", assign_s, "s");
    m.push("assign.picks", l.assign.calls() as f64, "count");
    m.push("assign.ns_per_pick", per(assign_s, l.assign.calls()), "ns");
    m.push("assign.driver_self_s", driver_s, "s");
    m.push("sql.self_s", sql_s, "s");
    m.push("sql.queries", l.sql.calls() as f64, "count");
    m.push("sql.self_ns_per_query", per(sql_s, l.sql.calls()), "ns");
    m.push("sql.ddl_s", l.ddl.secs() * scale, "s");
    m.push("sql.questions", sql.questions as f64, "count");
    m.push("sql.rounds", sql.rounds as f64, "count");
    m.push("sql.cells_filled", sql.cells_filled as f64, "count");
    m.push("sql.equal_checks", sql.equal_checks as f64, "count");
    m.push("sql.comparisons", sql.comparisons as f64, "count");
    m.push(
        "sql.spend_pred_ratio",
        ratio(sql.spend, sql.predicted_spend),
        "ratio",
    );
    m.push("datalog.self_s", datalog_s, "s");
    m.push("datalog.programs", l.datalog.calls() as f64, "count");
    m.push("datalog.fetches", dl.fetches as f64, "count");
    m.push(
        "datalog.fetch_hit_ratio",
        ratio(dl.fetch_hits as f64, (dl.fetches + dl.fetch_hits) as f64),
        "ratio",
    );
    m.push("datalog.iterations", dl.iterations as f64, "count");
    m.push("residual_s", residual_s, "s");
    m.push("share.sim", sim_s / job_s, "ratio");
    m.push("share.truth", (truth_s + pipeline_s) / job_s, "ratio");
    m.push("share.assign", (assign_s + driver_s) / job_s, "ratio");
    m.push("share.sql", sql_s / job_s, "ratio");
    m.push("share.datalog", datalog_s / job_s, "ratio");
    m.push("share.residual", residual_s / job_s, "ratio");
    m.push("raw.traced_job_s", raw_job_s, "s");
    m.push("calib.kernel_ms", REFERENCE_S / scale * 1e3, "ms");
    m
}

/// Prints each layer's share of the traced job time, residual included.
pub fn print_shares(m: &Metrics) {
    let job = m.get("traced_job_s").unwrap_or(f64::NAN);
    println!("layer shares of traced job_s = {job:.4} s (medians over traced repeats)");
    for layer in ["sim", "truth", "assign", "sql", "datalog", "residual"] {
        let key = format!("share.{layer}");
        let share = m.get(&key).unwrap_or(f64::NAN);
        println!("  {layer:<9} {:>7.2}%", share * 100.0);
    }
}
