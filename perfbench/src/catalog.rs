//! Every metric the benchmark prints, with its unit and the workloads it is
//! measured on. `BENCHMARK.json` at the repository root lists the same names
//! and units (a test keeps the two in step).

use crate::Workload::{self, Analysis, Cluster, Net, Sim};

/// One metric: its name, unit and the workloads that measure it.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Workloads on which the metric is measured. Elsewhere a per-layer metric
    /// reads 0: the layer is not exercised by that workload.
    pub on: &'static [Workload],
}

const ALL: &[Workload] = &[Sim, Analysis, Net, Cluster];
const SIM: &[Workload] = &[Sim];
const ANA: &[Workload] = &[Analysis];
const NET: &[Workload] = &[Net];
const CLU: &[Workload] = &[Cluster];
const LIVE: &[Workload] = &[Net, Cluster];
const SETUP: &[Workload] = &[Sim, Analysis, Net];
const SIMANA: &[Workload] = &[Sim, Analysis];

const fn d(name: &'static str, unit: &'static str, on: &'static [Workload]) -> Def {
    Def { name, unit, on }
}

/// End-to-end metrics, printed by every untraced run of every workload. Each
/// workload defines the operation they count (see `perfbench/WORKLOADS.md`).
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", ALL),
    d("peak_rss_mb", "MB", ALL),
    d("throughput_per_s", "1/s", ALL),
    d("latency_ms", "ms", ALL),
    d("cpu_us_per_op", "us", ALL),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Def] = &[
    // The workload-specific end-to-end numbers, from the untraced
    // half of the traced run.
    d("sim_requests_per_s", "1/s", SIM),
    d("analyses_per_s", "1/s", ANA),
    d("acquire_p50_ms.light", "ms", NET),
    d("acquire_p99_ms.light", "ms", NET),
    d("acquire_p50_ms.heavy", "ms", NET),
    d("acquire_p99_ms.heavy", "ms", NET),
    d("acquire_samples.light", "count", NET),
    d("acquire_samples.heavy", "count", NET),
    d("max_rate_acq_s", "1/s", NET),
    d("cpu_us_per_acquire", "us", LIVE),
    d("acquires_per_s", "1/s", CLU),
    d("failed_share", "ratio", LIVE),
    // Layer self time in the traced half, from the benchmark's own spans.
    d("self_s.netgraph", "s", SETUP),
    d("self_s.arrow_core.workload", "s", SETUP),
    d("self_s.arrow_core.run", "s", SIMANA),
    d("self_s.queuing_analysis", "s", ANA),
    d("self_s.arrow_core.order", "s", LIVE),
    d("self_s.arrow_core.live.core", "s", NET),
    d("self_s.arrow_net.wire", "s", NET),
    d("self_s.arrow_net", "s", NET),
    d("self_s.arrow_cluster", "s", CLU),
    d("self_s.perfbench", "s", ALL),
    d("trace.overhead_share", "ratio", ALL),
    // Process accounting of the benchmark process (cluster: the daemons).
    d("proc.harness_cpu_s", "s", ALL),
    d("proc.sys_share", "ratio", ALL),
    d("proc.fds_peak", "count", ALL),
    d("host.calibration_ms", "ms", ALL),
    // Set-up layers.
    d("netgraph.instance_s", "s", SETUP),
    d("arrow_core.workload.generate_s", "s", SETUP),
    // Simulator (sim).
    d("run.ns_per_event.open", "ns", SIM),
    d("run.ns_per_event.zipf16", "ns", SIM),
    d("run.ns_per_event.closed_arrow", "ns", SIM),
    d("run.ns_per_event.closed_central", "ns", SIM),
    d("run.events.open", "count", SIM),
    d("run.events.zipf16", "count", SIM),
    d("run.events.closed_arrow", "count", SIM),
    d("run.events.closed_central", "count", SIM),
    d("run.messages.open", "count", SIM),
    d("run.messages.zipf16", "count", SIM),
    d("run.messages.closed_arrow", "count", SIM),
    d("run.messages.closed_central", "count", SIM),
    d("alloc.per_event", "count", SIM),
    d("alloc.bytes_per_event", "B", SIM),
    // Dynamic analysis (analysis).
    d("run.s", "s", ANA),
    d("queuing_analysis.compress_s.uniform", "s", ANA),
    d("queuing_analysis.compress_s.hotspot", "s", ANA),
    d("queuing_analysis.compress_s.bursty", "s", ANA),
    d("queuing_analysis.compress_share", "ratio", ANA),
    d("queuing_analysis.request_set_s", "s", ANA),
    d("queuing_analysis.lower_bound_s", "s", ANA),
    d("netgraph.stretch_report_s", "s", ANA),
    d("queuing_analysis.bound_kind.exact", "count", ANA),
    d("queuing_analysis.bound_kind.manhattan_mst", "count", ANA),
    d("queuing_analysis.bound_kind.distance_mst", "count", ANA),
    // Socket tier (net) and the daemons' registries (cluster).
    d("arrow_net.spawn_s", "s", NET),
    d("arrow_net.warmup_s", "s", NET),
    d("arrow_net.connections", "count", NET),
    d("arrow_net.queue_frames_per_acq", "count", LIVE),
    d("arrow_net.token_frames_per_acq", "count", LIVE),
    d("arrow_net.bytes_per_acq", "B", LIVE),
    d("arrow_net.socket_writes_per_acq", "count", LIVE),
    d("arrow_net.socket_reads_per_acq", "count", LIVE),
    d("arrow_net.reactor_wakeups_per_acq", "count", LIVE),
    d("arrow_net.frames_per_write", "count", LIVE),
    d("arrow_net.events_per_wakeup.p50", "count", NET),
    d("arrow_net.shard_queue_depth.p99", "count", NET),
    d("arrow_net.would_block_retries", "count", NET),
    d("arrow_net.grant_wait_ms.p50", "ms", NET),
    d("arrow_net.grant_wait_ms.p99", "ms", NET),
    d("arrow_net.shutdown_s", "s", NET),
    d("alloc.per_acquire", "count", NET),
    d("alloc.bytes_per_acquire", "B", NET),
    d("driver.issue_ns.p50", "ns", NET),
    d("driver.release_ns.p50", "ns", NET),
    d("driver.late_ms.p99", "ms", NET),
    d("driver.late_ms.max", "ms", NET),
    d("order.validate_s", "s", LIVE),
    // Per-request phases reconstructed from the wall probes (net, traced half).
    d("trace.transit_ms.p50.light", "ms", NET),
    d("trace.transit_ms.p99.light", "ms", NET),
    d("trace.queue_wait_ms.p50.light", "ms", NET),
    d("trace.queue_wait_ms.p99.light", "ms", NET),
    d("trace.grant_wait_ms.p50.light", "ms", NET),
    d("trace.grant_wait_ms.p99.light", "ms", NET),
    d("trace.transit_ms.p50.heavy", "ms", NET),
    d("trace.transit_ms.p99.heavy", "ms", NET),
    d("trace.queue_wait_ms.p50.heavy", "ms", NET),
    d("trace.queue_wait_ms.p99.heavy", "ms", NET),
    d("trace.grant_wait_ms.p50.heavy", "ms", NET),
    d("trace.grant_wait_ms.p99.heavy", "ms", NET),
    // Layer floors (net): the protocol core and the wire codec alone.
    d("core.ns_per_acquire", "ns", NET),
    d("wire.encode_ns", "ns", NET),
    d("wire.scan_ns", "ns", NET),
    // Process cluster.
    d("arrow_cluster.launch_s", "s", CLU),
    d("arrow_cluster.cpu_s.sum", "s", CLU),
    d("arrow_cluster.cpu_s.max_daemon", "s", CLU),
    d("arrow_cluster.peak_rss_mb.max_daemon", "MB", CLU),
    d("arrow_cluster.done_spread_s", "s", CLU),
    d("arrow_cluster.acquire_ms.p50", "ms", CLU),
    d("arrow_cluster.shutdown_s", "s", CLU),
];

/// Metrics where a larger value is better; for every other metric smaller is
/// better (or, for exact counts, the direction is moot).
const HIGHER_IS_BETTER: &[&str] = &[
    "throughput_per_s",
    "sim_requests_per_s",
    "analyses_per_s",
    "acquire_samples.light",
    "acquire_samples.heavy",
    "max_rate_acq_s",
    "acquires_per_s",
    "arrow_net.frames_per_write",
    "arrow_net.events_per_wakeup.p50",
];

/// `"higher"` or `"lower"`: which way `name` improves.
pub fn better(name: &str) -> &'static str {
    if HIGHER_IS_BETTER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}
