//! `net`: the socket tier in one process — 64 nodes over loopback TCP, Zipf
//! s=1.1 over 16 objects. After a warm-up that dials the full mesh, one
//! driver thread runs an open loop at a light and a heavy rate, a saturation
//! phase with a fixed window of acquires in flight, and a rate search. It
//! issues with `start_acquire_object_routed`, reaps grants from one channel,
//! releases each at once, and times each acquire from when it was due.
//!
//! Every acquire has a deadline: a grant that fails, or arrives after the
//! deadline, counts as failed against the acquires attempted (a late grant is
//! still released). Every phase ends within its own deadline.

use crate::floors;
use crate::spans;
use crate::sys::{check_fd_limit, Delta, PhaseLog, Sample};
use crate::{mean, median, percentile, Ctx, Outcome};
use arrow_core::prelude::{workload, ObjectId};
use arrow_net::{Grant, NetConfig, NetHandle, NetReport, NetRuntime};
use arrow_trace::analysis::reconstruct;
use arrow_trace::{HistMetric, Metric, MetricsSnapshot, TraceRecorder};
use netgraph::{generators, NodeId, RootedTree};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape and load of one `net` run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Directory nodes (socket peers).
    pub nodes: usize,
    /// Objects sharing the tree.
    pub objects: usize,
    /// Offered rate of the light phase (acquires/s).
    pub light_rate: f64,
    /// Offered rate of the heavy phase (acquires/s).
    pub heavy_rate: f64,
    /// Acquires of the saturation phase.
    pub saturation_acquires: usize,
    /// Acquires in flight during the saturation phase.
    pub saturation_window: usize,
    /// Per-acquire deadline.
    pub deadline: Duration,
}

impl Params {
    /// The benchmark's sizes (toy sizes for the benchmark's own tests).
    pub fn for_ctx(ctx: &Ctx) -> Params {
        if ctx.toy {
            Params {
                nodes: 8,
                objects: 4,
                light_rate: 200.0,
                heavy_rate: 1_000.0,
                saturation_acquires: 600,
                saturation_window: 32,
                deadline: Duration::from_secs(2),
            }
        } else {
            Params {
                nodes: 64,
                objects: 16,
                light_rate: 1_000.0,
                heavy_rate: 8_000.0,
                saturation_acquires: 60_000,
                saturation_window: 256,
                deadline: Duration::from_secs(2),
            }
        }
    }

    /// File descriptors a warmed-up full mesh holds: one listener per node
    /// and both ends of one connection per node pair, plus headroom for the
    /// reactors, stdio and `/proc` reads.
    pub fn fd_need(&self) -> u64 {
        let n = self.nodes as u64;
        n + n * (n - 1) + 64
    }
}

/// Acquires in the seeded pool the driver cycles through.
const POOL: usize = 1 << 16;

/// The seeded acquire sequence: issuing node uniform, object Zipf(1.1).
pub fn acquire_pool(p: &Params, seed: u64) -> Vec<(NodeId, ObjectId)> {
    let len = if p.nodes <= 8 { 4_096 } else { POOL };
    workload::zipf_objects(p.nodes, p.objects, 1.1, len, len as f64, seed)
        .requests()
        .iter()
        .map(|r| (r.node, r.obj))
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    Granted,
    Failed,
}

struct Slot {
    due: Instant,
    phase: usize,
    state: State,
}

/// Per-phase results.
#[derive(Default, Clone)]
pub struct PhaseStats {
    /// Phase name.
    pub name: &'static str,
    /// Acquires issued.
    pub issued: u64,
    /// Acquires granted within their deadline.
    pub granted: u64,
    /// Acquires failed, refused or past their deadline.
    pub failed: u64,
    /// Due-time-to-grant latencies (ms) of granted acquires.
    pub latency_ms: Vec<f64>,
    /// `Grant.wait` (ms): the part of the latency spent at the issuing node.
    pub wait_ms: Vec<f64>,
    /// How late the generator issued each acquire (ms).
    pub late_ms: Vec<f64>,
    /// Wall time of each `start_acquire_object_routed` call (ns).
    pub issue_ns: Vec<f64>,
    /// Wall time of each `release_object` call (ns).
    pub release_ns: Vec<f64>,
    /// Grants received while the phase was issuing.
    pub granted_in_window: u64,
    /// Phase start.
    pub start: Option<Instant>,
    /// The issuing windows (open-loop phases issue in blocks).
    pub windows: Vec<(Instant, Instant)>,
    /// True while the phase is issuing.
    pub issuing: bool,
    /// When the last in-deadline grant arrived.
    pub last_grant: Option<Instant>,
}

/// The single driver thread's view of the mesh.
struct Driver<'a> {
    handles: Vec<NetHandle>,
    tx: Sender<Grant>,
    rx: Receiver<Grant>,
    pool: &'a [(NodeId, ObjectId)],
    next: usize,
    slots: Vec<Slot>,
    by_stream: HashMap<(NodeId, u32), VecDeque<usize>>,
    in_flight: VecDeque<usize>,
    phases: Vec<PhaseStats>,
    deadline: Duration,
    errors: Vec<String>,
}

impl<'a> Driver<'a> {
    fn new(rt: &NetRuntime, pool: &'a [(NodeId, ObjectId)], deadline: Duration) -> Self {
        let (tx, rx) = channel();
        Driver {
            handles: (0..rt.node_count()).map(|v| rt.handle(v)).collect(),
            tx,
            rx,
            pool,
            next: 0,
            slots: Vec::new(),
            by_stream: HashMap::new(),
            in_flight: VecDeque::new(),
            phases: Vec::new(),
            deadline,
            errors: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        self.phases.push(PhaseStats {
            name,
            start: Some(Instant::now()),
            ..PhaseStats::default()
        });
        self.phases.len() - 1
    }

    fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Grants not yet received, including those of acquires already failed
    /// by their deadline (their tokens must still be released).
    fn unreaped(&self) -> usize {
        self.by_stream.values().map(VecDeque::len).sum()
    }

    fn issue(&mut self, phase: usize, due: Instant) {
        let (node, obj) = self.pool[self.next % self.pool.len()];
        self.next += 1;
        let t = Instant::now();
        spans::time("arrow_net", "start_acquire_object_routed", || {
            self.handles[node].start_acquire_object_routed(obj, &self.tx)
        });
        let issued = Instant::now();
        let idx = self.slots.len();
        self.slots.push(Slot {
            due,
            phase,
            state: State::Pending,
        });
        self.by_stream
            .entry((node, obj.0))
            .or_default()
            .push_back(idx);
        self.in_flight.push_back(idx);
        let st = &mut self.phases[phase];
        st.issued += 1;
        st.issue_ns.push(issued.duration_since(t).as_nanos() as f64);
        st.late_ms
            .push(t.saturating_duration_since(due).as_secs_f64() * 1e3);
    }

    fn reap(&mut self, grant: Grant) {
        let now = Instant::now();
        let Some(idx) = self
            .by_stream
            .get_mut(&(grant.node, grant.obj.0))
            .and_then(VecDeque::pop_front)
        else {
            self.errors.push(format!(
                "grant for node {} object {} matches no acquire",
                grant.node, grant.obj
            ));
            return;
        };
        let slot = &mut self.slots[idx];
        let late = now.saturating_duration_since(slot.due) > self.deadline;
        let st = &mut self.phases[slot.phase];
        if slot.state == State::Pending && late {
            slot.state = State::Failed;
            st.failed += 1;
        }
        let was = slot.state;
        match grant.result {
            Ok(req) => {
                let t = Instant::now();
                spans::time("arrow_net", "release_object", || {
                    self.handles[grant.node].release_object(grant.obj, req)
                });
                st.release_ns.push(t.elapsed().as_nanos() as f64);
                if was == State::Pending {
                    slot.state = State::Granted;
                    st.granted += 1;
                    st.latency_ms
                        .push(now.saturating_duration_since(slot.due).as_secs_f64() * 1e3);
                    st.wait_ms.push(grant.wait.as_secs_f64() * 1e3);
                    st.last_grant = Some(now);
                    if st.issuing {
                        st.granted_in_window += 1;
                    }
                    spans::request(
                        "acquire",
                        grant.node,
                        req.0,
                        spans::ns_at(slot.due),
                        spans::ns_at(now),
                    );
                }
            }
            Err(_) if was == State::Pending => {
                slot.state = State::Failed;
                st.failed += 1;
            }
            Err(_) => {}
        }
        self.retire();
    }

    /// Drop finished acquires from the front of the in-flight list, and fail
    /// the ones past their deadline (their grants are still released later).
    fn retire(&mut self) {
        let now = Instant::now();
        while let Some(&idx) = self.in_flight.front() {
            let slot = &mut self.slots[idx];
            match slot.state {
                State::Pending if now.saturating_duration_since(slot.due) > self.deadline => {
                    slot.state = State::Failed;
                    self.phases[slot.phase].failed += 1;
                }
                State::Pending => break,
                State::Granted | State::Failed => {}
            }
            self.in_flight.pop_front();
        }
    }

    /// Wait for one grant until `until`; false when the wait timed out.
    fn wait_until(&mut self, until: Instant) -> bool {
        let left = until.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(grant) => {
                self.reap(grant);
                while let Ok(grant) = self.rx.try_recv() {
                    self.reap(grant);
                }
                true
            }
            Err(RecvTimeoutError::Timeout) => {
                self.retire();
                false
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.errors.push("grant channel closed".to_string());
                false
            }
        }
    }

    /// Wait until nothing is in flight, at most `limit`.
    fn drain(&mut self, limit: Duration) {
        let until = Instant::now() + limit;
        while self.outstanding() > 0 && Instant::now() < until {
            self.wait_until((Instant::now() + Duration::from_millis(5)).min(until));
        }
    }

    /// One block of an open loop at `rate` for `seconds`, into `phase`:
    /// acquire `k` is due at `start + k / rate`, whatever happened to
    /// earlier ones.
    fn open_loop(&mut self, phase: usize, rate: f64, seconds: f64) {
        let _span = spans::enter("perfbench", self.phases[phase].name);
        let start = Instant::now();
        self.phases[phase].issuing = true;
        let count = (rate * seconds).round().max(1.0) as usize;
        for k in 0..count {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            while Instant::now() < due {
                self.wait_until(due);
            }
            self.issue(phase, due);
            // Behind schedule the loop issues back to back: still reap (and
            // release) whatever landed meanwhile.
            while let Ok(grant) = self.rx.try_recv() {
                self.reap(grant);
            }
        }
        let st = &mut self.phases[phase];
        st.issuing = false;
        st.windows.push((start, Instant::now()));
        // Every acquire ends by its deadline: granted, failed or timed out.
        self.drain(self.deadline + Duration::from_secs(1));
    }

    /// One block of the saturation phase: keep `window` acquires in flight
    /// until `count` were issued; returns the block's grant rate and mean
    /// acquire latency (ms).
    fn saturate(
        &mut self,
        phase: usize,
        count: usize,
        window: usize,
        limit: Duration,
    ) -> (f64, f64) {
        let _span = spans::enter("perfbench", "saturation");
        let start = Instant::now();
        let granted = self.phases[phase].granted;
        let sampled = self.phases[phase].latency_ms.len();
        self.phases[phase].issuing = true;
        let until = start + limit;
        let mut issued = 0;
        while issued < count && Instant::now() < until {
            while issued < count && self.outstanding() < window {
                self.issue(phase, Instant::now());
                issued += 1;
            }
            self.wait_until(Instant::now() + Duration::from_millis(5));
        }
        self.phases[phase].issuing = false;
        self.drain(self.deadline + Duration::from_secs(1));
        let st = &self.phases[phase];
        let end = st.last_grant.unwrap_or(start);
        let rate =
            (st.granted - granted) as f64 / end.duration_since(start).as_secs_f64().max(1e-9);
        (rate, mean(&st.latency_ms[sampled..]))
    }
}

/// Latency limit of the rate search, on p99.
const LATENCY_LIMIT_MS: f64 = 20.0;
/// Share of offered acquires a search step must grant while it issues.
const COMPLETION_FLOOR: f64 = 0.98;

/// Whether a phase meets the latency limit without a growing backlog: no
/// failure, p99 within the limit and nearly every acquire granted before the
/// phase stopped issuing.
fn keeps_up(st: &PhaseStats) -> bool {
    st.failed == 0
        && percentile(&st.latency_ms, 99.0) <= LATENCY_LIMIT_MS
        && st.granted_in_window as f64 >= COMPLETION_FLOOR * st.issued as f64
}

/// How long one warm-up acquire may take (it may dial a connection).
const WARM_UP_TIMEOUT: Duration = Duration::from_secs(10);

/// Dial every node pair by passing object 0's token along a sequence whose
/// consecutive nodes cover every pair.
fn warm_up(rt: &NetRuntime, deadline: Duration) -> Result<(), String> {
    let n = rt.node_count();
    let handles: Vec<NetHandle> = (0..n).map(|v| rt.handle(v)).collect();
    let obj = ObjectId(0);
    let visit = |v: NodeId| -> Result<(), String> {
        let req = handles[v]
            .try_acquire_object_timeout(obj, deadline)
            .map_err(|e| format!("warm-up acquire at node {v}: {e}"))?;
        handles[v].release_object(obj, req);
        Ok(())
    };
    for i in 0..n {
        for j in (i + 1)..n {
            visit(i)?;
            visit(j)?;
        }
    }
    Ok(())
}

/// A freshly warmed mesh serves acquires several times more slowly for its
/// first few seconds; measuring then would straddle the change. Let it idle.
fn settle(ctx: &Ctx) {
    if !ctx.toy {
        std::thread::sleep(Duration::from_secs(4));
    }
}

fn tree(nodes: usize) -> RootedTree {
    RootedTree::from_tree_graph(&generators::balanced_binary_tree(nodes), 0)
}

/// No injected latency, one reactor shard. With the default two shards on a
/// two-core host, three busy threads (two shards and the driver) share two
/// cores, and where the kernel places them decides a whole run: the heavy
/// rate's median sat at either ~0.11 or ~0.15 ms, run by run. One shard and
/// the driver fit the cores.
fn config() -> NetConfig {
    NetConfig {
        shards: 1,
        ..NetConfig::instant()
    }
}

/// Spawn and warm a mesh; returns it with the spawn and warm-up seconds.
fn bring_up(
    p: &Params,
    tree: &RootedTree,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<(NetRuntime, f64, f64), String> {
    let t = Instant::now();
    let rt = spans::time("arrow_net", "NetRuntime::spawn_multi", || match recorder {
        Some(rec) => {
            NetRuntime::spawn_multi_probed(tree, p.objects, config(), |v| rec.wall_probe(v))
        }
        None => NetRuntime::spawn_multi(tree, p.objects, config()),
    });
    let spawn_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    spans::time("arrow_net", "warm_up", || warm_up(&rt, WARM_UP_TIMEOUT))?;
    Ok((rt, spawn_s, t.elapsed().as_secs_f64()))
}

/// Shut a mesh down and validate its orders; returns the report with the
/// shutdown and validation seconds.
fn tear_down(rt: NetRuntime, out: &mut Outcome) -> (NetReport, f64, f64) {
    let t = Instant::now();
    let report = spans::time("arrow_net", "NetRuntime::shutdown", || rt.shutdown());
    let shutdown_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let orders = spans::time("arrow_core.order", "validated_orders", || {
        report.validated_orders()
    });
    let validate_s = t.elapsed().as_secs_f64();
    match orders {
        Ok(orders) => {
            let ordered: usize = orders.iter().map(|(_, o)| o.len()).sum();
            out.check(ordered == report.schedule().len(), || {
                format!(
                    "{ordered} ordered of {} issued requests",
                    report.schedule().len()
                )
            });
        }
        Err(e) => out.check(false, || {
            format!("per-object orders do not validate: {e:?}")
        }),
    }
    out.check(report.failures().is_empty(), || {
        format!("transport failures: {:?}", report.failures())
    });
    out.check(report.stats().unexpected_frames == 0, || {
        "out-of-protocol frames arrived".to_string()
    });
    (report, shutdown_s, validate_s)
}

/// What the measured phases of one mesh produced.
struct Measured {
    light: PhaseStats,
    heavy: PhaseStats,
    saturation: Option<PhaseStats>,
    /// Grant rate of each saturation block.
    saturation_rates: Vec<f64>,
    /// Mean acquire latency (ms) of each saturation block.
    saturation_latency_ms: Vec<f64>,
    max_rate: f64,
    /// Registry and process deltas over the heavy phase.
    heavy_reg: MetricsSnapshot,
    heavy_proc: Delta,
    /// Process delta over the saturation phase.
    saturation_proc: Delta,
    /// Peak RSS (MB) before the rate search.
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

/// Heavy, light (and saturation and rate search when `full`) on a warm mesh.
fn measure(
    rt: &NetRuntime,
    p: &Params,
    pool: &[(NodeId, ObjectId)],
    seconds: f64,
    full: bool,
    log: &mut PhaseLog,
    out: &mut Outcome,
) -> Measured {
    let mut d = Driver::new(rt, pool, p.deadline);
    let light_s = seconds * if full { 0.3 } else { 0.6 };
    let heavy_s = seconds * if full { 0.2 } else { 0.4 };
    // Heavy, light and saturation alternate in blocks spread over the
    // measured time, so all three see the same conditions of a shared host.
    let heavy = d.begin("heavy");
    let light = d.begin("light");
    let saturation = full.then(|| d.begin("saturation"));
    let blocks = (heavy_s / 0.25).round().max(1.0);
    let mut heavy_reg = MetricsSnapshot::default();
    let mut heavy_proc = Delta::default();
    let mut saturation_proc = Delta::default();
    let mut saturation_rates = Vec::new();
    let mut saturation_latency_ms = Vec::new();
    for _ in 0..blocks as usize {
        let reg0 = rt.stats().metrics();
        let s0 = Sample::now();
        d.open_loop(heavy, p.heavy_rate, heavy_s / blocks);
        heavy_proc.add(&Delta::between(&s0, &Sample::now()));
        heavy_reg.merge(&rt.stats().metrics().diff(&reg0));
        d.open_loop(light, p.light_rate, light_s / blocks);
        if let Some(phase) = saturation {
            let s0 = Sample::now();
            let count = p.saturation_acquires / blocks as usize;
            let limit = Duration::from_secs_f64(seconds.max(10.0));
            let (rate, latency_ms) = d.saturate(phase, count, p.saturation_window, limit);
            saturation_rates.push(rate);
            saturation_latency_ms.push(latency_ms);
            saturation_proc.add(&Delta::between(&s0, &Sample::now()));
        }
        crate::calib::sample();
    }
    // Journals grow with the fixed work done so far; the rate search's
    // work is not fixed.
    let peak_rss_mb = log.mark("blocks done").peak_rss_mb;
    let mut max_rate = 0.0;
    if full {
        // Rate search in half-second steps of x1.15: up from the heavy rate
        // while the loop keeps up, or down from it until it does.
        let search_until = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
        let up = keeps_up(&d.phases[heavy]);
        let mut rate = p.heavy_rate;
        if up {
            max_rate = rate;
        }
        while Instant::now() < search_until && (max_rate == rate || (!up && max_rate == 0.0)) {
            rate = if up { rate * 1.15 } else { rate / 1.15 };
            let step = d.begin("search");
            d.open_loop(step, rate, 0.5);
            if keeps_up(&d.phases[step]) {
                max_rate = rate;
            }
        }
        log.mark("search done");
    }
    // Every grant, late ones included, is released before shutdown.
    let until = Instant::now() + p.deadline + Duration::from_secs(5);
    while d.unreaped() > 0 && Instant::now() < until {
        d.wait_until((Instant::now() + Duration::from_millis(5)).min(until));
    }
    for e in &d.errors {
        out.check(false, || e.clone());
    }
    out.check(d.unreaped() == 0, || {
        format!("{} grants never arrived", d.unreaped())
    });
    let attempted = d.phases.iter().map(|s| s.issued).sum();
    let failed = d.phases.iter().map(|s| s.failed).sum();
    let mut phases = std::mem::take(&mut d.phases);
    for st in &phases {
        out.say(format!(
            "{:<10} issued {:>6} granted {:>6} failed {:>4} in-window {:>6}",
            st.name, st.issued, st.granted, st.failed, st.granted_in_window
        ));
    }
    Measured {
        saturation: saturation.map(|i| phases[i].clone()),
        saturation_rates,
        saturation_latency_ms,
        heavy: std::mem::take(&mut phases[heavy]),
        light: std::mem::take(&mut phases[light]),
        max_rate,
        heavy_reg,
        heavy_proc,
        saturation_proc,
        peak_rss_mb,
        attempted,
        failed,
    }
}

fn per_acq(reg: &MetricsSnapshot, m: Metric, acquires: u64) -> f64 {
    reg.get(m) as f64 / acquires.max(1) as f64
}

/// Run the `net` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    run_with(ctx, &Params::for_ctx(ctx))
}

/// Run the `net` workload with explicit parameters.
pub fn run_with(ctx: &Ctx, p: &Params) -> Result<Outcome, String> {
    check_fd_limit(p.fd_need())?;
    let mut out = Outcome::default();
    let mut log = PhaseLog::default();
    log.mark("start");

    // Set up (tree, acquire pool, spawn, warm-up) and measure on that mesh;
    // set up again afterwards, so the kernel's work of closing a torn-down
    // mesh never overlaps the measured phases, and report the median.
    let reps = if ctx.toy { 1 } else { 3 };
    let mut setups = Vec::new();
    let mut spawn_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut instance_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut set_up = || -> Result<_, String> {
        let t = Instant::now();
        let tr = tree(p.nodes);
        instance_s.push(t.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let pool = acquire_pool(p, ctx.seed);
        generate_s.push(t1.elapsed().as_secs_f64());
        let (rt, s, w) = bring_up(p, &tr, None)?;
        setups.push(t.elapsed().as_secs_f64());
        spawn_s.push(s);
        warm_s.push(w);
        Ok((rt, pool))
    };
    let (rt, pool) = set_up()?;
    let connections = rt.stats().snapshot().connections_dialed;
    log.mark("setup done");
    settle(ctx);

    let m = measure(
        &rt,
        p,
        &pool,
        ctx.measure_seconds(),
        true,
        &mut log,
        &mut out,
    );
    let would_block = rt.stats().snapshot().would_block_retries;
    let (_, shutdown_s, validate_s) = tear_down(rt, &mut out);
    log.mark("shut down");
    for _ in 1..reps {
        let (rt, _) = set_up()?;
        tear_down(rt, &mut out);
    }
    log.mark("set up again");
    out.attempted += m.attempted;
    out.failed += m.failed;

    let sat = m.saturation.as_ref().expect("full measurement saturates");
    let sat_rate = median(&m.saturation_rates);
    let sat_cpu_us = m.saturation_proc.cpu_s() / sat.granted.max(1) as f64 * 1e6;
    let heavy_cpu_us = m.heavy_proc.cpu_s() / m.heavy.granted.max(1) as f64 * 1e6;
    out.say_timing("acquire latency at light rate", "ms", &m.light.latency_ms);
    out.say_timing("acquire latency at heavy rate", "ms", &m.heavy.latency_ms);
    out.say_timing("generator lateness (light+heavy)", "ms", &{
        let mut v = m.light.late_ms.clone();
        v.extend(&m.heavy.late_ms);
        v
    });
    out.say(format!(
        "saturation: {} acquires, window {}, {sat_rate:.0} acq/s (median of {} blocks of {}), \
         {sat_cpu_us:.1} us CPU per acquire; max rate with tail <= {} ms: {:.0} acq/s; heavy \
         phase {heavy_cpu_us:.1} us CPU per acquire",
        sat.granted,
        p.saturation_window,
        m.saturation_rates.len(),
        sat.granted as usize / m.saturation_rates.len().max(1),
        LATENCY_LIMIT_MS,
        m.max_rate
    ));
    out.say(format!(
        "saturation blocks: rates {:.0?} acq/s, mean latencies {:.2?} ms",
        m.saturation_rates, m.saturation_latency_ms
    ));
    out.say_timing("acquire latency at saturation", "ms", &sat.latency_ms);
    out.say(format!(
        "mean acquire latency at saturation: {:.4} ms (median over blocks; n={})",
        median(&m.saturation_latency_ms),
        sat.latency_ms.len()
    ));

    out.say(format!(
        "mesh: {connections} connections, fd need {}, fd limit {:?}; setup {setups:.3?} s \
         (spawn {spawn_s:.3?}, warm-up {warm_s:.3?})",
        p.fd_need(),
        crate::sys::fd_limit()
    ));

    if !ctx.trace {
        let mm = &mut out.metrics;
        mm.set("setup_s", median(&setups));
        mm.set("peak_rss_mb", m.peak_rss_mb);
        mm.set("throughput_per_s", sat_rate);
        mm.set("latency_ms", median(&m.saturation_latency_ms));
        mm.set("cpu_us_per_op", sat_cpu_us);
    } else {
        let heavy_acq = m.heavy.granted;
        let mm = &mut out.metrics;
        mm.set("acquire_p50_ms.light", median(&m.light.latency_ms));
        mm.set(
            "acquire_p99_ms.light",
            percentile(&m.light.latency_ms, 99.0),
        );
        mm.set("acquire_p50_ms.heavy", median(&m.heavy.latency_ms));
        mm.set(
            "acquire_p99_ms.heavy",
            percentile(&m.heavy.latency_ms, 99.0),
        );
        mm.set("acquire_samples.light", m.light.latency_ms.len() as f64);
        mm.set("acquire_samples.heavy", m.heavy.latency_ms.len() as f64);
        mm.set("max_rate_acq_s", m.max_rate);
        mm.set("cpu_us_per_acquire", heavy_cpu_us);
        mm.set("failed_share", m.failed as f64 / m.attempted.max(1) as f64);
        mm.set("netgraph.instance_s", median(&instance_s));
        mm.set("arrow_core.workload.generate_s", median(&generate_s));
        mm.set("arrow_net.spawn_s", median(&spawn_s));
        mm.set("arrow_net.warmup_s", median(&warm_s));
        mm.set("arrow_net.connections", connections as f64);
        let reg = &m.heavy_reg;
        mm.set(
            "arrow_net.queue_frames_per_acq",
            per_acq(reg, Metric::QueueFrames, heavy_acq),
        );
        mm.set(
            "arrow_net.token_frames_per_acq",
            per_acq(reg, Metric::TokenFrames, heavy_acq),
        );
        mm.set(
            "arrow_net.bytes_per_acq",
            per_acq(reg, Metric::BytesSent, heavy_acq),
        );
        mm.set(
            "arrow_net.socket_writes_per_acq",
            per_acq(reg, Metric::SocketWrites, heavy_acq),
        );
        mm.set(
            "arrow_net.socket_reads_per_acq",
            per_acq(reg, Metric::SocketReads, heavy_acq),
        );
        mm.set(
            "arrow_net.reactor_wakeups_per_acq",
            per_acq(reg, Metric::ReactorWakeups, heavy_acq),
        );
        mm.set(
            "arrow_net.frames_per_write",
            reg.get(Metric::FramesSent) as f64 / reg.get(Metric::SocketWrites).max(1) as f64,
        );
        let q = |h: HistMetric, q: f64| reg.hist(h).quantile(q).unwrap_or(0) as f64;
        mm.set(
            "arrow_net.events_per_wakeup.p50",
            q(HistMetric::EventsPerWakeup, 0.5),
        );
        mm.set(
            "arrow_net.shard_queue_depth.p99",
            q(HistMetric::ShardQueueDepth, 0.99),
        );
        mm.set("arrow_net.would_block_retries", would_block as f64);
        mm.set("arrow_net.grant_wait_ms.p50", median(&m.light.wait_ms));
        mm.set(
            "arrow_net.grant_wait_ms.p99",
            percentile(&m.light.wait_ms, 99.0),
        );
        mm.set("arrow_net.shutdown_s", shutdown_s);
        mm.set("order.validate_s", validate_s);
        mm.set(
            "alloc.per_acquire",
            m.heavy_proc.allocs as f64 / heavy_acq.max(1) as f64,
        );
        mm.set(
            "alloc.bytes_per_acquire",
            m.heavy_proc.alloc_bytes as f64 / heavy_acq.max(1) as f64,
        );
        mm.set("proc.sys_share", m.heavy_proc.sys_share());
        mm.set("proc.harness_cpu_s", m.heavy_proc.cpu_s());
        mm.set("driver.issue_ns.p50", median(&m.heavy.issue_ns));
        mm.set("driver.release_ns.p50", median(&m.heavy.release_ns));
        let mut late = m.light.late_ms.clone();
        late.extend(&m.heavy.late_ms);
        mm.set("driver.late_ms.p99", percentile(&late, 99.0));
        mm.set("driver.late_ms.max", percentile(&late, 100.0));
        traced_half(ctx, p, &pool, &m, &mut log, &mut out)?;
    }
    out.report.extend(log.lines());
    Ok(out)
}

/// The traced half: a probed mesh under the light and heavy phases with
/// spans around every call, per-request phases from the wall probes, and the
/// core and wire floors.
fn traced_half(
    ctx: &Ctx,
    p: &Params,
    pool: &[(NodeId, ObjectId)],
    untraced: &Measured,
    log: &mut PhaseLog,
    out: &mut Outcome,
) -> Result<(), String> {
    let recorder = Arc::new(TraceRecorder::new());
    let rec_t0 = Instant::now();
    spans::start();
    let tr = &spans::time("netgraph", "balanced_binary_tree", || tree(p.nodes));
    let (rt, _, _) = bring_up(p, tr, Some(&recorder))?;
    settle(ctx);
    let m = measure(&rt, p, pool, ctx.measure_seconds(), false, log, out);
    tear_down(rt, out);
    let floors = spans::time("perfbench", "floors", || {
        floors::measure(
            tr,
            p.objects,
            &pool[..pool.len().min(16_384)],
            Duration::from_millis(if ctx.toy { 50 } else { 400 }),
            out,
        )
    });
    let recorded = spans::finish();
    log.mark("traced");
    out.attempted += m.attempted;
    out.failed += m.failed;

    let mm = &mut out.metrics;
    mm.set("core.ns_per_acquire", floors.core_ns_per_acquire);
    mm.set("wire.encode_ns", floors.encode_ns);
    mm.set("wire.scan_ns", floors.scan_ns);
    mm.set("proc.fds_peak", log.fds_peak() as f64);

    // Per-request phases from the probes, split by the phase each request
    // was issued in.
    let recorder = Arc::try_unwrap(recorder)
        .map_err(|_| "trace recorder still shared after shutdown".to_string())?;
    let traces = reconstruct(&recorder.finish());
    let issued_in = |st: &PhaseStats, at: f64| {
        st.windows.iter().any(|(s, e)| {
            (s.duration_since(rec_t0).as_secs_f64()..=e.duration_since(rec_t0).as_secs_f64())
                .contains(&at)
        })
    };
    let mut exported = Vec::new();
    for (label, st) in [("light", &m.light), ("heavy", &m.heavy)] {
        let mut transit = Vec::new();
        let mut queue_wait = Vec::new();
        let mut grant_wait = Vec::new();
        for t in traces
            .iter()
            .filter(|t| t.issued_at.is_some_and(|at| issued_in(st, at)))
        {
            if let Some(ph) = t.phases() {
                transit.push(ph.transit * 1e3);
                queue_wait.push(ph.queue_wait * 1e3);
                grant_wait.push(ph.grant_wait * 1e3);
                if exported.len() < 4_000 {
                    exported.push(t.clone());
                }
            }
        }
        out.say_timing(&format!("trace transit ({label})"), "ms", &transit);
        out.say_timing(&format!("trace queue wait ({label})"), "ms", &queue_wait);
        out.say_timing(&format!("trace grant wait ({label})"), "ms", &grant_wait);
        let names: [[&'static str; 2]; 3] = if label == "light" {
            [
                ["trace.transit_ms.p50.light", "trace.transit_ms.p99.light"],
                [
                    "trace.queue_wait_ms.p50.light",
                    "trace.queue_wait_ms.p99.light",
                ],
                [
                    "trace.grant_wait_ms.p50.light",
                    "trace.grant_wait_ms.p99.light",
                ],
            ]
        } else {
            [
                ["trace.transit_ms.p50.heavy", "trace.transit_ms.p99.heavy"],
                [
                    "trace.queue_wait_ms.p50.heavy",
                    "trace.queue_wait_ms.p99.heavy",
                ],
                [
                    "trace.grant_wait_ms.p50.heavy",
                    "trace.grant_wait_ms.p99.heavy",
                ],
            ]
        };
        for ([p50, p99], v) in names.iter().zip([&transit, &queue_wait, &grant_wait]) {
            out.metrics.set(p50, median(v));
            out.metrics.set(p99, percentile(v, 99.0));
        }
    }
    let doc = arrow_trace::chrome::export(&exported, 1e6);
    arrow_trace::chrome::parse_check(&doc).map_err(|e| format!("request trace: {e}"))?;
    let path = crate::write_trace(ctx, &format!("net-seed{}-requests.json", ctx.seed), &doc)?;
    out.say(format!(
        "request phases: {} requests written to {}",
        exported.len(),
        path.display()
    ));
    out.say(format!(
        "floors: core {:.0} ns/acquire, encode {:.1} ns/frame, scan {:.1} ns/frame over {} frames",
        floors.core_ns_per_acquire, floors.encode_ns, floors.scan_ns, floors.frames
    ));
    crate::finish_trace(
        ctx,
        crate::Workload::Net,
        &recorded,
        median(&untraced.heavy.latency_ms) / 1e3,
        median(&m.heavy.latency_ms) / 1e3,
        out,
    )
}
