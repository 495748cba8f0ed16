//! `analysis`: the paper's dynamic analysis as users run it
//! (`competitive_ratio`) — `queuing_analysis::measure_ratio` on a seeded set of
//! schedules on a 64-node complete graph with a balanced binary tree: uniform
//! and hotspot schedules of 1,000 requests and bursty schedules of 500.
//! `compress_schedule` does nearly all the work and the simulator very little;
//! bursty schedules trigger Lemma 3.11 shifts, each of which restarts the scan.

use crate::spans;
use crate::sys::{Delta, PhaseLog};
use crate::{median, Ctx, Outcome};
use arrow_core::prelude::*;
use queuing_analysis::{
    best_lower_bound, compress_schedule, measure_ratio, OptBoundKind, RatioReport, RequestSet,
};
use std::time::Instant;

/// Recorded bound kinds `(exact, manhattan_mst, distance_mst)` over one pass
/// of the full-size set at seed 1.
const BOUND_KINDS_SEED1: [u64; 3] = [0, 6, 0];

/// Schedules of each kind in the set.
const COPIES: u64 = 2;

struct Item {
    kind: &'static str,
    schedule: RequestSchedule,
}

fn setup(ctx: &Ctx) -> (Instance, Vec<Item>, f64, f64) {
    let (n, big, bursts, burst) = if ctx.toy {
        (8, 40, 4, 5)
    } else {
        (64, 1_000, 20, 25)
    };
    let t = Instant::now();
    let instance = spans::time("netgraph", "Instance::complete_uniform", || {
        let instance = Instance::complete_uniform(n, SpanningTreeKind::BalancedBinary);
        // Warm the cached all-pairs distances and stretch report, as a
        // sweep over one topology does.
        instance.distances();
        instance.stretch_report();
        instance
    });
    let instance_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // As in `ratio_sweep`: horizon 3n, hotspot at both ends of the tree.
    // Two schedules of each kind, so one seed's schedules being cheaper or
    // dearer than another's moves a pass less.
    let horizon = 3.0 * n as f64;
    let mut items = Vec::new();
    for copy in 0..COPIES {
        let s = ctx.seed.wrapping_add(copy * 0x9E37_79B9);
        items.push(Item {
            kind: "uniform",
            schedule: spans::time("arrow_core.workload", "workload::uniform_random", || {
                workload::uniform_random(n, big, horizon, s)
            }),
        });
        items.push(Item {
            kind: "hotspot",
            schedule: spans::time("arrow_core.workload", "workload::hotspot", || {
                workload::hotspot(n, &[0, n - 1], 0.7, big, horizon, s)
            }),
        });
        // Quiet gaps far longer than the tree diameter: every gap shifts.
        items.push(Item {
            kind: "bursty",
            schedule: spans::time("arrow_core.workload", "workload::bursty_phases", || {
                workload::bursty_phases(n, bursts, burst, 40.0, s)
            }),
        });
    }
    (instance, items, instance_s, t.elapsed().as_secs_f64())
}

fn kind_index(kind: OptBoundKind) -> usize {
    match kind {
        OptBoundKind::Exact => 0,
        OptBoundKind::ManhattanMst => 1,
        OptBoundKind::DistanceMst => 2,
    }
}

/// Check one report: a non-degenerate ratio certifies the Theorem 3.19 bound,
/// and the ratio is bit-identical to the first one seen for this schedule.
fn check_report(i: usize, r: &RatioReport, first: &mut [Option<RatioReport>], out: &mut Outcome) {
    out.check(r.opt_bound_degenerate || r.certifies_bound(), || {
        format!(
            "schedule {i}: ratio {} does not certify the bound {}",
            r.ratio, r.theorem_bound
        )
    });
    let first = first[i].get_or_insert_with(|| r.clone());
    out.check(
        r.ratio.to_bits() == first.ratio.to_bits() && r.opt_bound.kind == first.opt_bound.kind,
        || {
            format!(
                "schedule {i}: ratio {} differs between runs ({})",
                r.ratio, first.ratio
            )
        },
    );
}

/// Untraced half: whole passes over the set through `measure_ratio`, for
/// `seconds` and at least five passes, calling `between` before every pass
/// (outside its timing). Returns pass wall times (ms), the wall seconds and
/// the analyses done.
fn measure(
    instance: &Instance,
    items: &[Item],
    seconds: f64,
    first: &mut [Option<RatioReport>],
    kinds: &mut Vec<[u64; 3]>,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) -> (Vec<f64>, f64, u64) {
    let config = RunConfig::analysis(ProtocolKind::Arrow);
    let mut passes_ms = Vec::new();
    let mut analyses = 0;
    let start = Instant::now();
    while passes_ms.len() < 5 || start.elapsed().as_secs_f64() < seconds {
        between();
        let mut pass_s = 0.0;
        let mut pass_kinds = [0u64; 3];
        for (i, item) in items.iter().enumerate() {
            // The host's speed changes within seconds: sample it beside
            // every analysis, outside the timed part.
            crate::calib::sample();
            let t = Instant::now();
            let r = measure_ratio(instance, &item.schedule, &config);
            pass_s += t.elapsed().as_secs_f64();
            pass_kinds[kind_index(r.opt_bound.kind)] += 1;
            check_report(i, &r, first, out);
            analyses += 1;
        }
        kinds.push(pass_kinds);
        passes_ms.push(pass_s * 1e3);
    }
    (passes_ms, start.elapsed().as_secs_f64(), analyses)
}

/// Seconds per piece of one traced analysis.
#[derive(Default, Clone, Copy)]
struct Pieces {
    run: f64,
    compress: f64,
    request_set: f64,
    lower_bound: f64,
}

/// Traced half: the pieces of `measure_ratio` timed separately, composed into
/// a ratio that must equal `measure_ratio`'s bit for bit.
fn traced_pass(
    instance: &Instance,
    items: &[Item],
    first: &[Option<RatioReport>],
    per_item: &mut [Vec<Pieces>],
    stretch_s: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let _pass = spans::enter("perfbench", "pass");
    let config = RunConfig::analysis(ProtocolKind::Arrow);
    let t = Instant::now();
    spans::time("netgraph", "stretch_with_distances", || {
        netgraph::stretch_with_distances(instance.graph(), instance.tree(), &instance.distances())
    });
    stretch_s.push(t.elapsed().as_secs_f64());
    for (i, item) in items.iter().enumerate() {
        let _analysis = spans::enter("perfbench", "analysis");
        let t = Instant::now();
        let cost = spans::time("arrow_core.run", "run_schedule", || {
            run_schedule_checked(instance, &item.schedule, &config)
        });
        let t_run = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let compressed = spans::time("queuing_analysis", "compress_schedule", || {
            compress_schedule(&item.schedule, instance.tree())
        });
        let t_compress = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rs = spans::time(
            "queuing_analysis",
            "RequestSet::with_graph_distances",
            || {
                RequestSet::with_graph_distances(
                    &compressed,
                    instance.tree(),
                    Some(instance.distances()),
                )
            },
        );
        let t_rs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bound = spans::time("queuing_analysis", "best_lower_bound", || {
            best_lower_bound(&rs)
        });
        let t_bound = t.elapsed().as_secs_f64();
        per_item[i].push(Pieces {
            run: t_run,
            compress: t_compress,
            request_set: t_rs,
            lower_bound: t_bound,
        });
        let cost = match cost {
            Ok(o) => o.total_latency,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("schedule {i}: run failed: {e}"));
                continue;
            }
        };
        let Some(expected) = &first[i] else { continue };
        let composed = if bound.value > 0.0 {
            cost / bound.value
        } else {
            f64::NAN
        };
        out.check(
            composed.to_bits() == expected.ratio.to_bits() && bound.kind == expected.opt_bound.kind,
            || {
                format!(
                    "schedule {i}: composed ratio {composed} differs from measure_ratio's {}",
                    expected.ratio
                )
            },
        );
    }
}

/// Run the `analysis` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut log = PhaseLog::default();
    log.mark("start");
    // Set up many times, then a few times before every measured pass:
    // set-up sees the host over the whole run, as the passes and the
    // calibration loop do. Report the median.
    let mut setups = Vec::new();
    let mut pieces = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let (instance, items, instance_s, generate_s) = setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
        pieces.push((instance_s, generate_s));
        (instance, items)
    };
    let (mut instance, mut items) = set_up();
    for _ in 1..if ctx.toy { 1 } else { 50 } {
        (instance, items) = set_up();
    }
    let before = log.mark("setup done");

    let mut first = vec![None; items.len()];
    let mut kinds = Vec::new();
    let (passes_ms, wall, analyses) = measure(
        &instance,
        &items,
        ctx.measure_seconds(),
        &mut first,
        &mut kinds,
        &mut out,
        &mut || {
            for _ in 0..if ctx.toy { 0 } else { 10 } {
                set_up();
            }
        },
    );
    let after = log.mark("measured");
    let delta = Delta::between(&before, &after);
    out.attempted += analyses;

    let pass_kinds = kinds[0];
    out.check(kinds.iter().all(|k| *k == pass_kinds), || {
        format!("bound kinds differ between passes: {kinds:?}")
    });
    if !ctx.toy && ctx.seed == 1 {
        out.check(pass_kinds == BOUND_KINDS_SEED1, || {
            format!("bound kinds {pass_kinds:?}, recorded {BOUND_KINDS_SEED1:?}")
        });
    }
    for (i, (item, r)) in items.iter().zip(&first).enumerate() {
        if let Some(r) = r {
            out.say(format!(
                "schedule {i} ({:<7} {:>4} requests): ratio {:.6} (bound {:.3}, {:?})",
                item.kind, r.requests, r.ratio, r.theorem_bound, r.opt_bound.kind
            ));
        }
    }
    out.say_timing("pass wall time", "ms", &passes_ms);
    out.say(format!(
        "{analyses} analyses in {wall:.3} s: {:.3} analyses/s; setup {setups:.4?} s",
        analyses as f64 / wall
    ));

    if !ctx.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setups));
        m.set("peak_rss_mb", after.peak_rss_mb);
        // Passes are identical: the median pass gives the rate.
        m.set(
            "throughput_per_s",
            items.len() as f64 / (median(&passes_ms) / 1e3),
        );
        m.set("latency_ms", median(&passes_ms));
        m.set("cpu_us_per_op", delta.cpu_s() / analyses as f64 * 1e6);
    } else {
        spans::start();
        let (t_instance, t_items, _, _) = spans::time("perfbench", "setup", || setup(ctx));
        let mut per_item = vec![Vec::new(); t_items.len()];
        let mut stretch_s = Vec::new();
        let start = Instant::now();
        let mut traced_analyses = 0u64;
        while stretch_s.is_empty() || start.elapsed().as_secs_f64() < ctx.measure_seconds() {
            traced_pass(
                &t_instance,
                &t_items,
                &first,
                &mut per_item,
                &mut stretch_s,
                &mut out,
            );
            traced_analyses += t_items.len() as u64;
        }
        let traced_wall = start.elapsed().as_secs_f64();
        let recorded = spans::finish();
        log.mark("traced");
        out.attempted += traced_analyses;

        let all: Vec<Pieces> = per_item.iter().flatten().copied().collect();
        let mean = |f: fn(&Pieces) -> f64| all.iter().map(f).sum::<f64>() / all.len() as f64;
        let compress_of = |kind: &str| {
            let v: Vec<f64> = items
                .iter()
                .zip(&per_item)
                .filter(|(it, _)| it.kind == kind)
                .flat_map(|(_, p)| p.iter().map(|p| p.compress))
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let total: f64 = all
            .iter()
            .map(|p| p.run + p.compress + p.request_set + p.lower_bound)
            .sum();
        let compress_share = all.iter().map(|p| p.compress).sum::<f64>() / total;
        out.say(format!(
            "compress_schedule share of analysis time: {:.1}% (simulator {:.2}%)",
            compress_share * 100.0,
            all.iter().map(|p| p.run).sum::<f64>() / total * 100.0
        ));
        let m = &mut out.metrics;
        m.set("analyses_per_s", analyses as f64 / wall);
        m.set("run.s", mean(|p| p.run));
        m.set(
            "queuing_analysis.compress_s.uniform",
            compress_of("uniform"),
        );
        m.set(
            "queuing_analysis.compress_s.hotspot",
            compress_of("hotspot"),
        );
        m.set("queuing_analysis.compress_s.bursty", compress_of("bursty"));
        m.set("queuing_analysis.compress_share", compress_share);
        m.set("queuing_analysis.request_set_s", mean(|p| p.request_set));
        m.set("queuing_analysis.lower_bound_s", mean(|p| p.lower_bound));
        m.set("netgraph.stretch_report_s", median(&stretch_s));
        m.set("queuing_analysis.bound_kind.exact", pass_kinds[0] as f64);
        m.set(
            "queuing_analysis.bound_kind.manhattan_mst",
            pass_kinds[1] as f64,
        );
        m.set(
            "queuing_analysis.bound_kind.distance_mst",
            pass_kinds[2] as f64,
        );
        m.set(
            "netgraph.instance_s",
            median(&pieces.iter().map(|p| p.0).collect::<Vec<_>>()),
        );
        m.set(
            "arrow_core.workload.generate_s",
            median(&pieces.iter().map(|p| p.1).collect::<Vec<_>>()),
        );
        m.set("proc.harness_cpu_s", delta.cpu_s());
        m.set("proc.sys_share", delta.sys_share());
        m.set("proc.fds_peak", log.fds_peak() as f64);
        crate::finish_trace(
            ctx,
            crate::Workload::Analysis,
            &recorded,
            wall / analyses as f64,
            traced_wall / traced_analyses as f64,
            &mut out,
        )?;
    }
    out.report.extend(log.lines());
    Ok(out)
}
