//! Causal-trace integration: probed conformance runs, coverage validation and
//! Chrome trace-event export.
//!
//! `conformance --trace [DIR]` re-runs every fault-free case's sim tier with
//! recording probes ([`arrow_trace::TraceRecorder::sim_probe`]), reconstructs
//! the per-request causal chains, and holds them to the
//! [`InvariantKind::TraceCoverage`] contract:
//!
//! * every issued request leaves a trace with a **complete** hop chain
//!   (origin → … → predecessor's origin, every hop receive observed);
//! * each chain's tree-path cost equals the `c_A` adjacency
//!   `d_T(predecessor origin, origin)` of the **validated queuing order** — the
//!   same quantity the paper charges arrow for that request (equation (1)), so
//!   the trace plane and the order validators must agree exactly;
//!
//! and writes `case-<seed>.trace.json` (Chrome trace-event JSON, Perfetto-
//! loadable) into the trace directory. The same export is attached next to the
//! replay file of every failing fault-free case, so a violation ships with the
//! causal story of the run that produced it.
//!
//! Fault-injected cases are not traced: epoch recovery legitimately truncates
//! and re-issues chains, so completeness is not a contract there.

use crate::case::ReplayCase;
use crate::invariants::{InvariantKind, Violation};
use arrow_core::prelude::*;
use arrow_trace::analysis::{self, RequestTrace};
use arrow_trace::TraceRecorder;
use netgraph::RootedTree;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Chrome `ts` fields are microseconds; render one simulator time unit as one
/// millisecond so sub-unit async jitter stays visible at Perfetto's default
/// zoom.
pub const SIM_US_PER_UNIT: f64 = 1_000.0;

/// Run a case's sim tier with recording probes and reconstruct the per-request
/// causal traces alongside the validated outcome.
pub fn trace_sim_case(case: &ReplayCase) -> Result<(QueuingOutcome, Vec<RequestTrace>), RunError> {
    let instance = case.spec.build_instance();
    let schedule = case.schedule();
    let mut cfg = case.spec.run_config(ProtocolKind::Arrow);
    // The sim tier emits `ProbeEvent::Granted` when the requester learns its
    // request completed — which, for a remote origin, is the `Found`
    // acknowledgement. Without acks only locally-queued requests would ever
    // look granted and every remote chain would reconstruct as incomplete.
    cfg.ack_to_requester = true;
    let recorder = Arc::new(TraceRecorder::new());
    let outcome = arrow_core::run::run_schedule_probed(&instance, &schedule, &cfg, |v| {
        recorder.sim_probe(v)
    })?;
    let events = Arc::try_unwrap(recorder)
        .expect("sim probes flushed when the run returned")
        .finish();
    Ok((outcome, analysis::reconstruct(&events)))
}

/// Weight of the traversed tree edge `(u, v)` (direction-agnostic: one endpoint
/// is the other's parent).
fn edge_weight(tree: &RootedTree, u: usize, v: usize) -> f64 {
    if tree.parent(u) == Some(v) {
        tree.parent_edge_weight(u)
    } else {
        tree.parent_edge_weight(v)
    }
}

/// Check reconstructed traces against the validated queuing orders: every
/// request covered, every chain complete, every chain's path cost equal to the
/// order's `c_A` adjacency (`d_T` between consecutive origins, starting from
/// the root that holds each object's token initially).
pub fn check_trace_coverage(
    tier: &str,
    tree: &RootedTree,
    outcome: &QueuingOutcome,
    traces: &[RequestTrace],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut fail = |detail: String| {
        violations.push(Violation {
            invariant: InvariantKind::TraceCoverage,
            tier: tier.to_string(),
            detail,
        });
    };
    if traces.len() != outcome.request_count() {
        fail(format!(
            "{} traces reconstructed for {} issued requests",
            traces.len(),
            outcome.request_count()
        ));
    }
    let by_key: HashMap<(u32, u64), &RequestTrace> =
        traces.iter().map(|t| ((t.obj, t.req), t)).collect();
    let weight = |u: usize, v: usize| edge_weight(tree, u, v);
    for (obj, order) in &outcome.orders {
        // Every object's token starts at the tree root (the virtual root
        // request r0), so the first chain's cost is charged from there.
        let mut pred_origin = tree.root();
        for id in order.order() {
            let Some(t) = by_key.get(&(obj.0, id.0)) else {
                fail(format!("no trace for object {} request {}", obj.0, id.0));
                continue;
            };
            if !t.complete() {
                fail(format!(
                    "incomplete hop chain for object {} request {} ({} hops observed)",
                    obj.0,
                    id.0,
                    t.hops.len()
                ));
                pred_origin = t.origin;
                continue;
            }
            let queued_at = t.queued.as_ref().expect("complete implies queued").node;
            if queued_at != pred_origin {
                fail(format!(
                    "object {} request {} queued at node {queued_at}, but the validated \
                     order puts its predecessor's origin at node {pred_origin}",
                    obj.0, id.0
                ));
            }
            let want = tree.distance(pred_origin, t.origin);
            let got = t.path_cost(&weight);
            if (got - want).abs() > 1e-6 {
                fail(format!(
                    "object {} request {}: traced path cost {got} != c_A adjacency {want} \
                     (d_T({pred_origin}, {}))",
                    obj.0, id.0, t.origin
                ));
            }
            pred_origin = t.origin;
        }
    }
    violations
}

/// Export traces as Chrome trace-event JSON into `dir/case-<seed>.trace.json`,
/// validating that the emitted document parses. Returns the written path.
pub fn write_case_trace(
    dir: &Path,
    seed: u64,
    traces: &[RequestTrace],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = arrow_trace::chrome::export(traces, SIM_US_PER_UNIT);
    arrow_trace::chrome::parse_check(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let path = dir.join(format!("case-{}.trace.json", seed));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Trace one fault-free case end to end: probed sim run, coverage check, and
/// (when `dir` is given) Chrome JSON export. Returns the violations and the
/// written trace path. Fault-injected cases return no violations and no file.
pub fn trace_case(case: &ReplayCase, dir: Option<&Path>) -> (Vec<Violation>, Option<PathBuf>) {
    if !case.faults.is_empty() {
        return (Vec::new(), None);
    }
    match trace_sim_case(case) {
        Err(e) => (
            vec![Violation {
                invariant: InvariantKind::TraceCoverage,
                tier: "sim".to_string(),
                detail: format!("probed sim run failed: {e}"),
            }],
            None,
        ),
        Ok((outcome, traces)) => {
            let instance = case.spec.build_instance();
            let violations = check_trace_coverage("sim", instance.tree(), &outcome, &traces);
            let path = dir.and_then(|d| match write_case_trace(d, case.spec.seed, &traces) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!(
                        "warning: could not write trace for case {}: {e}",
                        case.spec.seed
                    );
                    None
                }
            });
            (violations, path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_driver::NetDriver;
    use crate::sweep::{derive_spec, SweepOptions};
    use arrow_core::driver::ThreadDriver;
    use arrow_trace::recorder::TraceEventRecord;
    use std::collections::BTreeMap;

    fn events_via<F>(run: F) -> (QueuingOutcome, Vec<TraceEventRecord>)
    where
        F: FnOnce(&Arc<TraceRecorder>) -> Result<QueuingOutcome, RunError>,
    {
        let recorder = Arc::new(TraceRecorder::new());
        let outcome = run(&recorder).expect("probed replay succeeded");
        let events = Arc::try_unwrap(recorder)
            .expect("probes flushed at shutdown")
            .finish();
        (outcome, events)
    }

    fn traces_via<F>(run: F) -> (QueuingOutcome, Vec<RequestTrace>)
    where
        F: FnOnce(&Arc<TraceRecorder>) -> Result<QueuingOutcome, RunError>,
    {
        let (outcome, events) = events_via(run);
        (outcome, analysis::reconstruct(&events))
    }

    /// Per-kind counts of the probe events `case`'s sim tier emits, with the
    /// setup of [`trace_sim_case`].
    fn sim_probe_counts(case: &ReplayCase) -> BTreeMap<String, usize> {
        let instance = case.spec.build_instance();
        let mut cfg = case.spec.run_config(ProtocolKind::Arrow);
        cfg.ack_to_requester = true;
        let (_, events) = events_via(|rec| {
            arrow_core::run::run_schedule_probed(&instance, &case.schedule(), &cfg, |v| {
                rec.sim_probe(v)
            })
        });
        let mut counts = BTreeMap::new();
        for r in events {
            let name = format!("{:?}", r.ev);
            let kind = name.split([' ', '{']).next().unwrap_or_default();
            *counts.entry(kind.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Satellite property: across seeded conformance cases and all three tiers,
    /// every trace-reconstructed hop path must cost exactly the `c_A` adjacency
    /// of the validated queuing order (the check inside
    /// [`check_trace_coverage`]) — the trace plane and the order validators
    /// measure the same protocol.
    #[test]
    fn traced_path_cost_matches_queuing_order_c_a_on_all_tiers() {
        let opts = SweepOptions::smoke();
        for i in 0..4 {
            let case = ReplayCase::generate(derive_spec(&opts, i));
            let instance = case.spec.build_instance();
            let schedule = case.schedule();
            let cfg = case.spec.run_config(ProtocolKind::Arrow);

            // Tier 1: deterministic simulator.
            let (outcome, traces) = trace_sim_case(&case).expect("sim case runs");
            let v = check_trace_coverage("sim", instance.tree(), &outcome, &traces);
            assert!(v.is_empty(), "case {i} (sim): {v:?}");

            // Tier 2: thread runtime (wall-clock probes).
            let (outcome, traces) = traces_via(|rec| {
                ThreadDriver.run_probed(&instance, &schedule, &cfg, |v| rec.wall_probe(v))
            });
            let v = check_trace_coverage("thread", instance.tree(), &outcome, &traces);
            assert!(v.is_empty(), "case {i} (thread): {v:?}");

            // Tier 3: socket runtime.
            let (outcome, traces) = traces_via(|rec| {
                NetDriver::default().run_probed(&instance, &schedule, &cfg, |v| rec.wall_probe(v))
            });
            let v = check_trace_coverage("net", instance.tree(), &outcome, &traces);
            assert!(v.is_empty(), "case {i} (net): {v:?}");
        }
    }

    #[test]
    fn trace_case_writes_a_parseable_chrome_export() {
        let opts = SweepOptions::smoke();
        let case = ReplayCase::generate(derive_spec(&opts, 0));
        let dir = std::env::temp_dir().join(format!("arrow-trace-test-{}", std::process::id()));
        let (violations, path) = trace_case(&case, Some(&dir));
        assert!(violations.is_empty(), "{violations:?}");
        let path = path.expect("trace file written");
        let text = std::fs::read_to_string(&path).unwrap();
        let events = arrow_trace::chrome::parse_check(&text).unwrap();
        assert!(events > 0);
        let _ = std::fs::remove_dir_all(&dir);

        // Every probe fires from the shared arrow automaton or its simulator
        // adapter; pin exactly what this case emits, per kind.
        let recorded = [
            ("Granted", 6),
            ("QueueReceived", 8),
            ("QueueSent", 8),
            ("QueuedBehind", 6),
            ("RequestIssued", 6),
        ];
        let want: BTreeMap<String, usize> = recorded
            .into_iter()
            .map(|(kind, n)| (kind.to_string(), n))
            .collect();
        assert_eq!(sim_probe_counts(&case), want);
    }

    #[test]
    fn coverage_check_flags_a_missing_request() {
        let opts = SweepOptions::smoke();
        let case = ReplayCase::generate(derive_spec(&opts, 1));
        let instance = case.spec.build_instance();
        let (outcome, mut traces) = trace_sim_case(&case).expect("sim case runs");
        assert!(check_trace_coverage("sim", instance.tree(), &outcome, &traces).is_empty());
        traces.pop();
        let v = check_trace_coverage("sim", instance.tree(), &outcome, &traces);
        assert!(
            v.iter()
                .all(|v| v.invariant == InvariantKind::TraceCoverage && v.tier == "sim"),
            "{v:?}"
        );
        assert!(!v.is_empty());
    }
}
