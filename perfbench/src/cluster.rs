//! `cluster`: four `arrowd` processes (the `cluster --smoke` shape) over
//! loopback TCP — the only path where frames cross processes, and the only
//! workload that exercises `arrow_cluster`: launch, control protocol, journal
//! flush and merge. Each round assigns Zipf-shaped per-(node, object) work on
//! two objects through `Cluster::start_workload`; every daemon runs it as a
//! closed loop and reports `done`. The run does a fixed number of rounds, so
//! the daemons' journals (and memory) grow the same way on every commit.

use crate::spans;
use crate::sys::PhaseLog;
use crate::{median, Ctx, Outcome};
use arrow_cluster::{locate_arrowd, Cluster, ClusterConfig, ClusterReport, ProcUsage, WorkOutcome};
use arrow_core::prelude::ObjectId;
use arrow_trace::{HistMetric, Metric};
use desim::SimRng;
use netgraph::{generators, NodeId, RootedTree};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const NODES: usize = 4;
const OBJECTS: usize = 2;
/// How long one daemon-side acquire may wait before it counts as failed.
const ACQUIRE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long one round may take before unreported daemons count as failed.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);

fn tree() -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(NODES), 0)
}

/// Seeded work of one round: every node works on both objects; a seeded
/// object is its hot one (`base` acquires), the other gets half, each count
/// jittered by up to a tenth.
fn round_work(base: usize, rng: &mut SimRng) -> Vec<(NodeId, ObjectId, usize)> {
    let mut work = Vec::new();
    for v in 0..NODES {
        let hot = rng.index(OBJECTS);
        for o in 0..OBJECTS {
            let rank = (o + OBJECTS - hot) % OBJECTS;
            let count = base.div_ceil(rank + 1) + rng.index(base / 10 + 1);
            work.push((v, ObjectId(o as u32), count));
        }
    }
    work
}

struct Launched {
    cluster: Cluster,
    journal_dir: PathBuf,
}

fn launch(arrowd: &Path, out_dir: &Path, k: usize) -> Result<(Launched, f64), String> {
    let mut cfg = ClusterConfig::new(arrowd, tree(), OBJECTS);
    cfg.journal_dir = out_dir.join(format!("journals-{}-{k}", std::process::id()));
    let journal_dir = cfg.journal_dir.clone();
    let t = Instant::now();
    let cluster = spans::time("arrow_cluster", "Cluster::launch", || Cluster::launch(cfg))
        .map_err(|e| format!("cluster launch failed: {e}"))?;
    Ok((
        Launched {
            cluster,
            journal_dir,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// Graceful shutdown; the journals are read and then removed.
fn shut_down(l: Launched) -> Result<(ClusterReport, f64), String> {
    let t = Instant::now();
    let report = spans::time("arrow_cluster", "Cluster::shutdown", || {
        l.cluster.shutdown()
    });
    let shutdown_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&l.journal_dir);
    Ok((
        report.map_err(|e| format!("cluster shutdown failed: {e}"))?,
        shutdown_s,
    ))
}

/// One round's results.
struct Round {
    wall_s: f64,
    done_spread_s: f64,
    completed: u64,
    failed: u64,
}

/// Start one round and collect every daemon's `done`, noting when each
/// arrived (polled every few milliseconds).
fn round(cluster: &mut Cluster, work: &[(NodeId, ObjectId, usize)], out: &mut Outcome) -> Round {
    let _span = spans::enter("perfbench", "round");
    let assigned =
        |v: NodeId| -> u64 { work.iter().filter(|w| w.0 == v).map(|w| w.2 as u64).sum() };
    let t0 = Instant::now();
    let mut result = Round {
        wall_s: 0.0,
        done_spread_s: 0.0,
        completed: 0,
        failed: 0,
    };
    if let Err(e) = spans::time("arrow_cluster", "start_workload", || {
        cluster.start_workload(work, ACQUIRE_TIMEOUT, 1)
    }) {
        out.check(false, || format!("start_workload: {e}"));
        result.failed = work.iter().map(|w| w.2 as u64).sum();
        return result;
    }
    let mut done_at: Vec<Option<Instant>> = vec![None; NODES];
    while done_at.iter().any(Option::is_none) {
        let late = t0.elapsed() > ROUND_DEADLINE;
        let outcomes = spans::time("arrow_cluster", "await_done", || {
            cluster.await_done(Duration::from_millis(2))
        });
        for (v, outcome) in outcomes {
            if done_at[v].is_some() {
                continue;
            }
            match outcome {
                WorkOutcome::Done {
                    completed, failed, ..
                } => {
                    done_at[v] = Some(Instant::now());
                    result.completed += completed;
                    result.failed += failed;
                }
                WorkOutcome::TimedOut if !late => {}
                other => {
                    done_at[v] = Some(Instant::now());
                    result.failed += assigned(v);
                    out.check(false, || format!("daemon {v}: {other:?}"));
                }
            }
        }
    }
    let times: Vec<Instant> = done_at.into_iter().flatten().collect();
    let first = times.iter().min().copied().unwrap_or(t0);
    let last = times.iter().max().copied().unwrap_or(t0);
    result.wall_s = last.duration_since(t0).as_secs_f64();
    result.done_spread_s = last.duration_since(first).as_secs_f64();
    result
}

fn usage_sum(before: &[(NodeId, ProcUsage)], after: &[(NodeId, ProcUsage)]) -> (f64, f64, f64) {
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut sys = 0.0;
    for (v, a) in after {
        let b = before
            .iter()
            .find(|(u, _)| u == v)
            .map_or(ProcUsage::default(), |(_, b)| *b);
        let cpu = a.cpu_seconds() - b.cpu_seconds();
        sum += cpu;
        max = max.max(cpu);
        sys += (a.stime_ticks - b.stime_ticks) as f64
            / arrow_cluster::procstat::CLOCK_TICKS_PER_SEC as f64;
    }
    (sum, max, sys)
}

/// Run the `cluster` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let arrowd = locate_arrowd()?;
    let mut out = Outcome::default();
    let mut log = PhaseLog::default();
    log.mark("start");
    let base = if ctx.toy { 500 } else { 3_000 };
    // About two rounds per measured second at the seed commit's speed; the
    // count is fixed so every commit does the same work.
    let rounds_per_half = if ctx.toy {
        3
    } else {
        (ctx.measure_seconds() * 2.0).round().max(3.0) as usize
    };
    let mut rng = SimRng::new(ctx.seed);

    // Launch to ready, several times; keep the last cluster.
    let reps = if ctx.toy { 1 } else { 5 };
    let mut launches = Vec::new();
    let mut kept = None;
    for k in 0..reps {
        if let Some(old) = kept.take() {
            shut_down(old)?;
        }
        let (l, s) = launch(&arrowd, &ctx.out_dir, k)?;
        launches.push(s);
        kept = Some(l);
    }
    let mut l = kept.expect("at least one launch");
    log.mark("launched");

    // Warm-up round: dials the token channels.
    let warm = round_work(base / 10 + 1, &mut rng);
    let mut total_completed = round(&mut l.cluster, &warm, &mut out).completed;
    let pids: Vec<u32> = (0..NODES).map(|v| l.cluster.pid(v)).collect();
    out.say(format!("daemon pids {pids:?}"));

    let halves = if ctx.trace { 2 } else { 1 };
    let mut per_half = Vec::new();
    for half in 0..halves {
        if half == 1 {
            spans::start();
        }
        let before = l.cluster.scrape_usage();
        let harness0 = crate::sys::Sample::now();
        let mut rounds = Vec::new();
        for _ in 0..rounds_per_half {
            let work = round_work(base, &mut rng);
            out.attempted += work.iter().map(|w| w.2 as u64).sum::<u64>();
            crate::calib::sample();
            let r = round(&mut l.cluster, &work, &mut out);
            out.failed += r.failed;
            total_completed += r.completed;
            rounds.push(r);
        }
        let after = l.cluster.scrape_usage();
        let harness = crate::sys::Delta::between(&harness0, &crate::sys::Sample::now());
        per_half.push((rounds, usage_sum(&before, &after), after, harness));
        log.mark(if half == 0 { "measured" } else { "traced" });
    }
    let (report, shutdown_s) = shut_down(l)?;
    let t = Instant::now();
    let orders = spans::time("arrow_core.order", "validated_orders", || {
        report.validated_orders()
    });
    let validate_s = t.elapsed().as_secs_f64();
    let recorded = spans::finish();
    match orders {
        Ok(orders) => {
            let ordered: u64 = orders.iter().map(|(_, o)| o.len() as u64).sum();
            out.check(ordered == total_completed, || {
                format!("{ordered} ordered of {total_completed} completed acquires")
            });
        }
        Err(e) => out.check(false, || {
            format!("per-object orders do not validate: {e:?}")
        }),
    }
    out.check(report.failures().is_empty(), || {
        format!("daemon failures: {:?}", report.failures())
    });

    let (rounds, (cpu_sum, cpu_max, cpu_sys), usage, harness) = &per_half[0];
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let rounds_ms: Vec<f64> = rounds.iter().map(|r| r.wall_s * 1e3).collect();
    let peak_sum_mb = usage.iter().map(|(_, u)| u.peak_rss_kb).sum::<u64>() as f64 / 1024.0;
    let peak_max_mb = usage.iter().map(|(_, u)| u.peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0;
    let cpu_us = cpu_sum / completed.max(1) as f64 * 1e6;
    out.say_timing("round wall time", "ms", &rounds_ms);
    out.say(format!(
        "{completed} acquires in {} rounds, {wall:.3} s: {:.0} acq/s; daemons {cpu_sum:.2} s CPU \
         ({cpu_us:.1} us/acquire), peak RSS {peak_sum_mb:.1} MB summed; launch {launches:.3?} s",
        rounds.len(),
        completed as f64 / wall
    ));

    if !ctx.trace {
        let m = &mut out.metrics;
        m.set("setup_s", median(&launches));
        m.set("peak_rss_mb", peak_sum_mb);
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.completed as f64 / r.wall_s)
            .collect();
        m.set("throughput_per_s", median(&rates));
        m.set("latency_ms", median(&rounds_ms));
        m.set("cpu_us_per_op", cpu_us);
    } else {
        let reg = report.metrics();
        let acq = reg.get(Metric::Acquisitions).max(1) as f64;
        let per = |m: Metric| reg.get(m) as f64 / acq;
        let m = &mut out.metrics;
        m.set("acquires_per_s", completed as f64 / wall);
        m.set("cpu_us_per_acquire", cpu_us);
        m.set(
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        m.set("arrow_net.queue_frames_per_acq", per(Metric::QueueFrames));
        m.set("arrow_net.token_frames_per_acq", per(Metric::TokenFrames));
        m.set("arrow_net.bytes_per_acq", per(Metric::BytesSent));
        m.set("arrow_net.socket_writes_per_acq", per(Metric::SocketWrites));
        m.set("arrow_net.socket_reads_per_acq", per(Metric::SocketReads));
        m.set(
            "arrow_net.reactor_wakeups_per_acq",
            per(Metric::ReactorWakeups),
        );
        m.set(
            "arrow_net.frames_per_write",
            reg.get(Metric::FramesSent) as f64 / reg.get(Metric::SocketWrites).max(1) as f64,
        );
        m.set("order.validate_s", validate_s);
        m.set("arrow_cluster.launch_s", median(&launches));
        m.set("arrow_cluster.cpu_s.sum", *cpu_sum);
        m.set("arrow_cluster.cpu_s.max_daemon", *cpu_max);
        m.set("arrow_cluster.peak_rss_mb.max_daemon", peak_max_mb);
        m.set(
            "arrow_cluster.done_spread_s",
            median(&rounds.iter().map(|r| r.done_spread_s).collect::<Vec<_>>()),
        );
        m.set(
            "arrow_cluster.acquire_ms.p50",
            reg.hist(HistMetric::AcquireNanos)
                .quantile(0.5)
                .unwrap_or(0) as f64
                / 1e6,
        );
        m.set("arrow_cluster.shutdown_s", shutdown_s);
        m.set("proc.harness_cpu_s", harness.cpu_s());
        m.set(
            "proc.sys_share",
            if *cpu_sum > 0.0 {
                cpu_sys / cpu_sum
            } else {
                0.0
            },
        );
        m.set("proc.fds_peak", log.fds_peak() as f64);
        let (t_rounds, ..) = &per_half[1];
        let t_completed: u64 = t_rounds.iter().map(|r| r.completed).sum();
        let t_wall: f64 = t_rounds.iter().map(|r| r.wall_s).sum();
        crate::finish_trace(
            ctx,
            crate::Workload::Cluster,
            &recorded,
            wall / completed.max(1) as f64,
            t_wall / t_completed.max(1) as f64,
            &mut out,
        )?;
    }
    out.report.extend(log.lines());
    Ok(out)
}
