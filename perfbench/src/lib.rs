//! # perfbench — the arrow directory benchmark
//!
//! One command runs one of four seeded workloads and prints its metrics:
//!
//! * `sim` — the simulator in analysis mode (open loop, Zipf over 16 objects)
//!   and the Figure 10 closed loop in experiment mode;
//! * `analysis` — `queuing_analysis::measure_ratio`, the paper's dynamic
//!   analysis, on uniform, hotspot and bursty schedules;
//! * `net` — the socket tier in one process under an open loop at fixed rates,
//!   a saturation phase and a rate search;
//! * `cluster` — four `arrowd` processes running a closed loop.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics of
//! [`catalog::END_TO_END`]; a traced run (`--trace 1`) measures untraced for
//! half its time, then records spans around every call into a layer for the
//! other half, and prints the per-layer metrics of [`catalog::PER_LAYER`]
//! (including the tracing overhead). Every run checks the program's outputs;
//! a failed check fails the run.

pub mod analysis;
pub mod calib;
pub mod catalog;
pub mod cluster;
pub mod floors;
pub mod net;
pub mod sim;
pub mod spans;
pub mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulator: open loop, Zipf over 16 objects, Figure 10 closed loop.
    Sim,
    /// Dynamic analysis: `measure_ratio` on seeded schedules.
    Analysis,
    /// Socket tier in one process.
    Net,
    /// Four `arrowd` processes.
    Cluster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Sim,
        Workload::Analysis,
        Workload::Net,
        Workload::Cluster,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim => "sim",
            Workload::Analysis => "analysis",
            Workload::Net => "net",
            Workload::Cluster => "cluster",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phases last, in total.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Toy sizes (the benchmark's own tests).
    pub toy: bool,
    /// Where traces and daemon journals go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Time for each half of a traced run (untraced, then traced), or the
    /// whole time of an untraced run.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Metric values of one run, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Set `name` (which must be in the catalog) to `value`.
    ///
    /// # Panics
    /// On a name the catalog does not list (a bug in this benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::find(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload's unit: simulated requests,
    /// analyses or acquires).
    pub attempted: u64,
    /// Operations that failed, were refused or missed their deadline.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
}

impl Outcome {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Add a report line.
    pub fn say(&mut self, line: String) {
        self.report.push(line);
    }

    /// Report a timing sample set: median and the highest percentile with at
    /// least ten samples beyond it, with the sample count.
    pub fn say_timing(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let line = match tail(samples) {
            Some((p, v)) => format!(
                "{name}: p50 {:.4} {unit}, p{p} {v:.4} {unit} (n={})",
                percentile(samples, 50.0),
                samples.len()
            ),
            None => format!(
                "{name}: p50 {:.4} {unit} (n={}; too few samples for a tail percentile)",
                percentile(samples, 50.0),
                samples.len()
            ),
        };
        self.report.push(line);
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9, p99, p95, p90, p75 with at least ten samples beyond
/// it, and its value.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [
        ("99.9", 99.9),
        ("99", 99.0),
        ("95", 95.0),
        ("90", 90.0),
        ("75", 75.0),
    ]
    .into_iter()
    .find(|&(_, p)| samples.len() as f64 * (1.0 - p / 100.0) >= 10.0)
    .map(|(label, p)| (label, percentile(samples, p)))
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Run one workload.
pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    calib::reset();
    calib::sample();
    let mut out = match workload {
        Workload::Sim => sim::run(ctx)?,
        Workload::Analysis => analysis::run(ctx)?,
        Workload::Net => net::run(ctx)?,
        Workload::Cluster => cluster::run(ctx)?,
    };
    let (cal_s, cal_n) = calib::median_s();
    let speed = calib::speed();
    out.say(format!(
        "host calibration: median {:.3} ms over {cal_n} samples, speed {speed:.3} of the \
         reference ({:.1} ms)",
        cal_s * 1e3,
        calib::REFERENCE_S * 1e3
    ));
    if ctx.trace {
        out.metrics.set("host.calibration_ms", cal_s * 1e3);
    } else if matches!(workload, Workload::Sim | Workload::Analysis) {
        // Single-threaded compute tracks the calibration loop closely; the
        // multi-threaded `net` and `cluster` runs do not, and are reported
        // as measured.
        let raw = at_reference_speed(&mut out.metrics, speed);
        out.say(format!("end-to-end as measured: {}", raw.join(", ")));
    }
    check_coverage(workload, ctx, &mut out);
    Ok(out)
}

/// Report end-to-end timings at the reference host speed (see [`calib`]):
/// times scale by the measured speed, rates by its inverse. The values as
/// measured are returned for the report.
fn at_reference_speed(metrics: &mut Metrics, speed: f64) -> Vec<String> {
    let mut raw = Vec::new();
    for def in catalog::END_TO_END {
        let Some(v) = metrics.get(def.name) else {
            continue;
        };
        let scaled = match def.name {
            "peak_rss_mb" => continue,
            "throughput_per_s" => v / speed,
            _ => v * speed,
        };
        raw.push(format!("{} {v:.6} {}", def.name, def.unit));
        metrics.set(def.name, scaled);
    }
    raw
}

/// Every metric the run must print was measured, and every end-to-end
/// metric is a positive number.
fn check_coverage(workload: Workload, ctx: &Ctx, out: &mut Outcome) {
    let list = if ctx.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    for def in list.iter().filter(|d| d.on.contains(&workload)) {
        match out.metrics.get(def.name) {
            None => out
                .check_failures
                .push(format!("metric {} was not measured", def.name)),
            Some(v) if !v.is_finite() => out
                .check_failures
                .push(format!("metric {} is not a number: {v}", def.name)),
            Some(v) if !ctx.trace && v <= 0.0 => out.check_failures.push(format!(
                "end-to-end metric {} is not positive: {v}",
                def.name
            )),
            Some(_) => {}
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of the run's list (per-layer metrics a workload does not
/// exercise read 0).
pub fn result_json(ctx: &Ctx, out: &Outcome) -> String {
    let list = if ctx.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|def| {
            let v = out.metrics.get(def.name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            // `f64`'s `Display` is the shortest round-trip decimal, never
            // exponent notation: valid JSON with all its digits.
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, v, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Write a trace document into the run's output directory.
pub fn write_trace(ctx: &Ctx, name: &str, doc: &str) -> Result<PathBuf, String> {
    let path = ctx.out_dir.join(name);
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Set the layer self times and the tracing overhead of a traced run, and
/// write its spans out.
///
/// `untraced_per_op` and `traced_per_op` are wall seconds per operation in
/// the untraced and traced halves.
pub fn finish_trace(
    ctx: &Ctx,
    workload: Workload,
    spans: &[spans::Span],
    untraced_per_op: f64,
    traced_per_op: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let self_times = spans::self_times(spans);
    for def in catalog::PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("self_s.") && d.on.contains(&workload))
    {
        let layer = &def.name["self_s.".len()..];
        out.metrics
            .set(def.name, self_times.get(layer).copied().unwrap_or(0.0));
    }
    for (layer, s) in &self_times {
        out.say(format!("self time {layer}: {s:.4} s"));
    }
    let overhead = if untraced_per_op > 0.0 {
        traced_per_op / untraced_per_op - 1.0
    } else {
        0.0
    };
    out.metrics.set("trace.overhead_share", overhead);
    out.say(format!(
        "tracing overhead: {:.2}% ({:.6} s/op traced vs {:.6} s/op untraced)",
        overhead * 100.0,
        traced_per_op,
        untraced_per_op
    ));
    let doc = spans::chrome_json(spans);
    let events = arrow_trace::chrome::parse_check(&doc)
        .map_err(|e| format!("span trace is not valid JSON: {e}"))?;
    let path = write_trace(
        ctx,
        &format!("{}-seed{}-spans.json", workload.name(), ctx.seed),
        &doc,
    )?;
    out.say(format!(
        "spans: {} events written to {}",
        events,
        path.display()
    ));
    Ok(())
}
