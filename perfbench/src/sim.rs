//! `sim`: the simulator does nearly all the work, with no sockets and no bound
//! computation. Three shapes on the paper platform (complete graph, balanced
//! binary tree), sized so each takes a similar share of a round:
//!
//! * `open` — analysis-mode arrow, uniform open loop, 512 nodes, 10k requests;
//! * `zipf16` — analysis-mode arrow, Zipf s=1.1 over 16 objects, 256 nodes,
//!   10k requests;
//! * `closed_arrow` / `closed_central` — the Figure 10 closed loop in
//!   experiment mode on 64 processors, arrow and the centralized baseline, as
//!   `figure_10` runs them.

use crate::spans;
use crate::sys::{Delta, PhaseLog};
use crate::{median, Ctx, Outcome};
use arrow_core::prelude::*;
use std::time::Instant;

/// Exact simulator counts `(events, messages)` of the seed-independent closed
/// loop at full size.
const CLOSED_ARROW: (u64, u64) = (35_956, 12_858);
const CLOSED_CENTRAL: (u64, u64) = (50_560, 20_160);
/// Exact counts of the seeded shapes at seed 1, full size.
const OPEN_SEED1: (u64, u64) = (24_406, 14_406);
const ZIPF16_SEED1: (u64, u64) = (51_499, 41_499);

/// Service time of the closed loop (the `fig10_latency` default).
const SERVICE_TIME: f64 = 0.2;

struct Shape {
    name: &'static str,
    /// Its per-layer metrics: ns per event, events, messages.
    metrics: [&'static str; 3],
    instance: Instance,
    work: Work,
    config: RunConfig,
    /// Recorded exact `(events, messages)`, where known for this input.
    expected: Option<(u64, u64)>,
}

enum Work {
    Open(RequestSchedule),
    Closed(Workload),
}

impl Shape {
    fn run(&self) -> Result<QueuingOutcome, RunError> {
        match &self.work {
            Work::Open(schedule) => run_schedule_checked(&self.instance, schedule, &self.config),
            Work::Closed(workload) => run_checked(&self.instance, workload, &self.config),
        }
    }
}

/// Per-shape totals over a measured half.
#[derive(Default, Clone, Copy)]
struct Totals {
    runs: u64,
    wall_ns: u64,
    events: u64,
    messages: u64,
    requests: u64,
}

/// Build the shapes; returns them with the seconds spent building instances
/// and generating workloads.
fn setup(ctx: &Ctx) -> (Vec<Shape>, f64, f64) {
    let (open_n, open_r, zipf_n, zipf_r, closed_n, closed_rpn) = if ctx.toy {
        (32, 200, 16, 200, 8, 10)
    } else {
        (512, 10_000, 256, 10_000, 64, 160)
    };
    let full = !ctx.toy;
    let seed = ctx.seed;
    let t = Instant::now();
    let [open_i, zipf_i, closed_i] = [open_n, zipf_n, closed_n].map(|n| {
        spans::time("netgraph", "Instance::complete_uniform", || {
            Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary)
        })
    });
    let instance_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // Horizons as in `arrow_bench::throughput::throughput_workload`: many
    // requests in flight at once.
    let open = spans::time("arrow_core.workload", "workload::uniform_random", || {
        workload::uniform_random(open_n, open_r, (open_r as f64 / open_n as f64) * 4.0, seed)
    });
    let zipf = spans::time("arrow_core.workload", "workload::zipf_objects", || {
        workload::zipf_objects(
            zipf_n,
            16,
            1.1,
            zipf_r,
            (zipf_r as f64 / zipf_n as f64) * 4.0,
            seed,
        )
    });
    let closed = Workload::ClosedLoop(ClosedLoopSpec {
        requests_per_node: closed_rpn,
        local_service_time: SERVICE_TIME,
    });
    let generate_s = t.elapsed().as_secs_f64();
    let analysis = RunConfig::analysis(ProtocolKind::Arrow);
    let shapes = vec![
        Shape {
            name: "open",
            metrics: [
                "run.ns_per_event.open",
                "run.events.open",
                "run.messages.open",
            ],
            instance: open_i,
            work: Work::Open(open),
            config: analysis.clone(),
            expected: (full && seed == 1).then_some(OPEN_SEED1),
        },
        Shape {
            name: "zipf16",
            metrics: [
                "run.ns_per_event.zipf16",
                "run.events.zipf16",
                "run.messages.zipf16",
            ],
            instance: zipf_i,
            work: Work::Open(zipf),
            config: analysis,
            expected: (full && seed == 1).then_some(ZIPF16_SEED1),
        },
        Shape {
            name: "closed_arrow",
            metrics: [
                "run.ns_per_event.closed_arrow",
                "run.events.closed_arrow",
                "run.messages.closed_arrow",
            ],
            instance: closed_i.clone(),
            work: Work::Closed(closed.clone()),
            config: RunConfig::experiment(ProtocolKind::Arrow, SERVICE_TIME),
            expected: full.then_some(CLOSED_ARROW),
        },
        Shape {
            name: "closed_central",
            metrics: [
                "run.ns_per_event.closed_central",
                "run.events.closed_central",
                "run.messages.closed_central",
            ],
            instance: closed_i,
            work: Work::Closed(closed),
            config: RunConfig::experiment(ProtocolKind::Centralized, SERVICE_TIME),
            expected: full.then_some(CLOSED_CENTRAL),
        },
    ];
    (shapes, instance_s, generate_s)
}

/// Rounds between two set-ups interleaved with the measured rounds.
const SETUP_EVERY: usize = 8;

/// Run rounds (one run of every shape) for `seconds`, at least two rounds,
/// calling `between` before every `SETUP_EVERY`th round (outside its timing).
/// Returns per-shape totals and round wall times (ms).
fn measure(
    shapes: &[Shape],
    seconds: f64,
    seen: &mut [Option<(u64, u64)>],
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) -> (Vec<Totals>, Vec<f64>) {
    let mut totals = vec![Totals::default(); shapes.len()];
    let mut rounds_ms = Vec::new();
    let start = Instant::now();
    while rounds_ms.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        if rounds_ms.len() % SETUP_EVERY == 0 {
            between();
        }
        crate::calib::sample();
        let _round = spans::enter("perfbench", "round");
        let r0 = Instant::now();
        for (i, shape) in shapes.iter().enumerate() {
            let t = Instant::now();
            let result = spans::time("arrow_core.run", shape.name, || shape.run());
            let wall_ns = t.elapsed().as_nanos() as u64;
            match result {
                Ok(o) => {
                    let counts = (o.sim_events, o.total_messages);
                    let first = *seen[i].get_or_insert(counts);
                    out.check(counts == first, || {
                        format!(
                            "{}: counts {counts:?} differ between runs ({first:?})",
                            shape.name
                        )
                    });
                    let tot = &mut totals[i];
                    tot.runs += 1;
                    tot.wall_ns += wall_ns;
                    tot.events += o.sim_events;
                    tot.messages += o.total_messages;
                    tot.requests += o.request_count() as u64;
                    out.attempted += o.request_count() as u64;
                }
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.check(false, || format!("{}: run failed: {e}", shape.name));
                }
            }
        }
        rounds_ms.push(r0.elapsed().as_secs_f64() * 1e3);
    }
    (totals, rounds_ms)
}

fn requests_and_wall(totals: &[Totals]) -> (u64, f64) {
    let requests = totals.iter().map(|t| t.requests).sum();
    let wall = totals.iter().map(|t| t.wall_ns).sum::<u64>() as f64 / 1e9;
    (requests, wall)
}

/// Run the `sim` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut log = PhaseLog::default();
    log.mark("start");

    // Set up a few times, then once every few measured rounds: set-up
    // sees the host over the whole run, as the rounds and the calibration
    // loop do. Report the median. (The interleaved set-ups add about 1.5% to
    // the CPU the rounds' period measures.)
    let mut setups = Vec::new();
    let mut pieces = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let (shapes, instance_s, generate_s) = setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
        pieces.push((instance_s, generate_s));
        shapes
    };
    let reps = if ctx.toy { 1 } else { 5 };
    let mut shapes = Vec::new();
    for _ in 0..reps {
        shapes = set_up();
    }
    let before = log.mark("setup done");

    let mut seen = vec![None; shapes.len()];
    let (totals, rounds_ms) = measure(
        &shapes,
        ctx.measure_seconds(),
        &mut seen,
        &mut out,
        &mut || {
            if !ctx.toy {
                set_up();
            }
        },
    );
    let after = log.mark("measured");
    let setup_s = median(&setups);
    let delta = Delta::between(&before, &after);
    let (requests, wall) = requests_and_wall(&totals);
    let events: u64 = totals.iter().map(|t| t.events).sum();

    for (shape, (tot, counts)) in shapes.iter().zip(totals.iter().zip(&seen)) {
        if let (Some(expected), Some(counts)) = (shape.expected, counts) {
            out.check(*counts == expected, || {
                format!(
                    "{}: (events, messages) = {counts:?}, recorded {expected:?}",
                    shape.name
                )
            });
        }
        out.say(format!(
            "{:<15} runs {:>4}  events/run {:>6}  messages/run {:>6}  {:>7.1} ns/event  {:>9.0} req/s",
            shape.name,
            tot.runs,
            counts.map_or(0, |c| c.0),
            counts.map_or(0, |c| c.1),
            tot.wall_ns as f64 / tot.events.max(1) as f64,
            tot.requests as f64 / (tot.wall_ns.max(1) as f64 / 1e9)
        ));
    }
    out.say_timing("round wall time", "ms", &rounds_ms);
    out.say(format!("setup: {setups:.4?} s"));

    let m = &mut out.metrics;
    if !ctx.trace {
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", after.peak_rss_mb);
        // Rounds are identical: the median round gives the rate, robust to
        // bursts of interference that hit a few rounds.
        let per_round = requests as f64 / rounds_ms.len() as f64;
        m.set("throughput_per_s", per_round / (median(&rounds_ms) / 1e3));
        m.set("latency_ms", median(&rounds_ms));
        m.set(
            "cpu_us_per_op",
            delta.cpu_s() / requests.max(1) as f64 * 1e6,
        );
    } else {
        m.set("sim_requests_per_s", requests as f64 / wall);
        m.set(
            "netgraph.instance_s",
            median(&pieces.iter().map(|p| p.0).collect::<Vec<_>>()),
        );
        m.set(
            "arrow_core.workload.generate_s",
            median(&pieces.iter().map(|p| p.1).collect::<Vec<_>>()),
        );
        for (shape, (tot, counts)) in shapes.iter().zip(totals.iter().zip(&seen)) {
            let [ns, ev, msg] = shape.metrics;
            m.set(ns, tot.wall_ns as f64 / tot.events.max(1) as f64);
            m.set(ev, counts.map_or(0, |c| c.0) as f64);
            m.set(msg, counts.map_or(0, |c| c.1) as f64);
        }
        m.set(
            "alloc.per_event",
            delta.allocs as f64 / events.max(1) as f64,
        );
        m.set(
            "alloc.bytes_per_event",
            delta.alloc_bytes as f64 / events.max(1) as f64,
        );
        m.set("proc.harness_cpu_s", delta.cpu_s());
        m.set("proc.sys_share", delta.sys_share());

        // Traced half: set up once more and run rounds with spans.
        spans::start();
        let (traced_shapes, _, _) = spans::time("perfbench", "setup", || setup(ctx));
        let (traced, _) = measure(
            &traced_shapes,
            ctx.measure_seconds(),
            &mut seen,
            &mut out,
            &mut || {},
        );
        let recorded = spans::finish();
        log.mark("traced");
        let (t_requests, t_wall) = requests_and_wall(&traced);
        out.metrics.set("proc.fds_peak", log.fds_peak() as f64);
        crate::finish_trace(
            ctx,
            crate::Workload::Sim,
            &recorded,
            wall / requests.max(1) as f64,
            t_wall / t_requests.max(1) as f64,
            &mut out,
        )?;
    }
    out.report.extend(log.lines());
    Ok(out)
}
