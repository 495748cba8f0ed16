//! The simulator tier's arrow node: a [`desim`] adapter over the shared arrow
//! automaton.
//!
//! The protocol itself — per-object link pointers, path reversal, epoch recovery
//! and the re-issue of pending requests (Section 2 of the paper, generalized to a
//! multi-object directory) — exists once, in [`QueuingCore`]. The thread, socket
//! and cluster tiers run the same automaton inside [`crate::live::ArrowCore`], and
//! the `arrow-model` checker verifies it, so the simulator's figures come from the
//! model-checked code.
//!
//! [`ArrowNode`] adds only what is specific to the paper's simulation:
//!
//! * the per-message local service time ([`crate::protocol::ServiceQueue`]);
//! * the optional requester acknowledgement ([`ProtoMsg::Found`]), routed over the
//!   graph metric `d_G` when a distance matrix is provided via
//!   [`ArrowNode::set_distances`];
//! * the closed-loop workload of Section 5, drawing its ids from the core's
//!   request-id sequence;
//! * virtual-time order records, issue and completion logs, and the
//!   inter-processor `queue()` hop count of Figure 11;
//! * protocol-violation capture and duplicate-completion suppression across
//!   recovery epochs.
//!
//! Every dispatch feeds one input to the core and then translates the actions the
//! core reported, in order: [`CoreAction::SendQueue`] becomes a simulator send,
//! [`CoreAction::Queued`] an order record plus either the local completion or a
//! `Found` acknowledgement. An own request stops being pending in the core when it
//! completes here (locally or by its acknowledgement).

use crate::live::core::{CoreAction, QueuingCore};
use crate::order::OrderRecord;
use crate::protocol::{ProtoMsg, ServiceQueue, WorkItem, SERVICE_TIMER_TAG};
use crate::request::{ObjectId, RequestId};
use crate::workload::ClosedLoopSpec;
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use desim::{Context, Process, SimDuration, SimTime};
use netgraph::{DistanceMatrix, NodeId};
use std::collections::HashSet;
use std::sync::Arc;

/// One simulated arrow node: the shared [`QueuingCore`] driven by the simulator.
///
/// `P` is the observability hook ([`arrow_trace::Probe`]) of the core; the default
/// [`NoProbe`] compiles the instrumentation out. A recording node emits a
/// [`ProbeEvent::Tick`] carrying the simulation clock before each dispatch, so a
/// shared sim-mode recorder timestamps events in simulation units.
#[derive(Debug)]
pub struct ArrowNode<P: Probe = NoProbe> {
    /// The arrow automaton of this node.
    core: QueuingCore<P>,
    /// The actions of the current core call, translated right after it (kept
    /// between dispatches to reuse the allocation).
    actions: Vec<CoreAction>,
    /// Whether to send a [`ProtoMsg::Found`] ack back to the requester.
    send_ack: bool,
    /// All-pairs graph distances: when present, acks travel as direct sends paying
    /// `d_G(me, origin)` instead of whatever link happens to connect the pair.
    distances: Option<Arc<DistanceMatrix>>,
    /// Local per-message service time model (shared across objects — the CPU is one).
    service: ServiceQueue,
    /// Closed-loop workload: requests this node still has to issue (0 in open loop).
    closed_loop_remaining: u64,
    /// Successor notifications recorded at this node (it was the sink).
    records: Vec<OrderRecord>,
    /// Requests issued by this node: `(request, object, issue time)`.
    issued: Vec<(RequestId, ObjectId, SimTime)>,
    /// Completions of this node's own requests (ack received or locally satisfied),
    /// with the completion time — used by the closed-loop experiment.
    own_completions: Vec<(RequestId, SimTime)>,
    /// Number of `queue()` messages this node sent to *another* node (inter-processor
    /// hops, the quantity of Figure 11).
    queue_hops: u64,
    /// First protocol violation observed (e.g. a non-arrow message): the offending
    /// input is dropped and described here instead of aborting the simulation, so
    /// the harness can surface it as a typed [`crate::run::RunError`].
    violation: Option<String>,
    /// Own requests that have completed, used to drop duplicate completion
    /// notifications arriving across epochs (first one wins).
    completed: HashSet<RequestId>,
    /// Duplicate completion notifications suppressed at this node.
    duplicate_grants: u64,
}

impl<P: Probe> ArrowNode<P> {
    /// The simulator node running `core`.
    ///
    /// * `send_ack` — send `Found` acknowledgements back to requesters.
    /// * `service_time` — local per-message service time in time units (0 = free).
    pub fn new(core: QueuingCore<P>, send_ack: bool, service_time: f64) -> Self {
        ArrowNode {
            core,
            actions: Vec::new(),
            send_ack,
            distances: None,
            service: ServiceQueue::new(service_time),
            closed_loop_remaining: 0,
            records: Vec::new(),
            issued: Vec::new(),
            own_completions: Vec::new(),
            queue_hops: 0,
            violation: None,
            completed: HashSet::new(),
            duplicate_grants: 0,
        }
    }

    /// Provide the all-pairs graph distances; from then on `Found` acknowledgements
    /// travel as direct sends paying exactly `d_G(me, requester)` — the cost model of
    /// Section 5 — instead of the weight of whatever single link joins the pair.
    ///
    /// Note that direct sends bypass the simulator's latency model: even under the
    /// asynchronous model, acks take deterministically `d_G`. Acks are not part of
    /// the protocol cost the analysis randomises, so this only sharpens the
    /// completion-latency measurement.
    pub fn set_distances(&mut self, distances: Arc<DistanceMatrix>) {
        self.distances = Some(distances);
    }

    /// Enable the closed-loop workload: this node will issue `spec.requests_per_node`
    /// requests for the default object, the first at time 0 and each subsequent one
    /// as soon as the previous completes (plus the local service time).
    pub fn enable_closed_loop(&mut self, spec: &ClosedLoopSpec) {
        assert!(
            spec.local_service_time > 0.0,
            "closed-loop workloads need a positive local service time \
             (otherwise a node would issue its whole budget in a single instant)"
        );
        self.closed_loop_remaining = spec.requests_per_node;
        self.service = ServiceQueue::new(spec.local_service_time);
    }

    /// The arrow automaton of this node (link pointers, epoch, pending requests).
    pub fn core(&self) -> &QueuingCore<P> {
        &self.core
    }

    /// Successor notifications recorded at this node.
    pub fn records(&self) -> &[OrderRecord] {
        &self.records
    }

    /// Requests issued by this node: `(request, object, issue time)`.
    pub fn issued(&self) -> &[(RequestId, ObjectId, SimTime)] {
        &self.issued
    }

    /// Completions of this node's own requests (only tracked when acks are enabled
    /// or the request completed locally).
    pub fn own_completions(&self) -> &[(RequestId, SimTime)] {
        &self.own_completions
    }

    /// Inter-processor `queue()` messages sent by this node.
    pub fn queue_hops(&self) -> u64 {
        self.queue_hops
    }

    /// The first protocol violation this node observed, if any (the violating
    /// message was dropped, not processed). The harness turns this into a typed
    /// [`crate::run::RunError::ProtocolViolation`] instead of aborting.
    pub fn protocol_violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Duplicate cross-epoch completion notifications suppressed (first one wins).
    pub fn duplicate_grants(&self) -> u64 {
        self.duplicate_grants
    }

    /// Hand a work item to the local service queue, processing it right away when
    /// the queue is pass-through.
    fn offer(&mut self, ctx: &mut Context<ProtoMsg>, item: WorkItem) {
        if let Some((from, msg)) = self.service.offer(ctx, item) {
            self.process(ctx, from, msg);
        }
    }

    /// Feed one message to the core once the service queue releases it, then
    /// translate the core's actions.
    fn process(&mut self, ctx: &mut Context<ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        // Sync a sim-mode recorder to the simulation clock before any event from
        // this dispatch; compiles to nothing under `NoProbe`.
        self.core.probe_mut().record(ProbeEvent::Tick {
            units: ctx.now().as_units_f64(),
        });
        let mut found = None;
        match msg {
            ProtoMsg::Issue { req, obj } => {
                assert!(!req.is_root(), "cannot issue the virtual root request");
                self.issued.push((req, obj, ctx.now()));
                self.core.issue(obj, req, &mut self.actions);
            }
            ProtoMsg::Queue {
                req,
                obj,
                origin,
                epoch,
            } => self
                .core
                .on_queue(from, obj, req, origin, epoch, &mut self.actions),
            ProtoMsg::Found {
                req, obj, epoch, ..
            } => {
                if self.core.admit_epoch(obj, epoch, &mut self.actions) {
                    found = Some((req, obj));
                }
            }
            ProtoMsg::Epoch { epoch } => self.core.on_epoch(epoch, &mut self.actions),
            other => {
                // A non-arrow message is a protocol bug; record it (first one wins)
                // and drop the message rather than tearing the whole process down.
                self.violation.get_or_insert_with(|| {
                    format!("arrow node received non-arrow message {other:?}")
                });
            }
        }
        // Translate in order, right after the call. Nothing here re-enters
        // `process` (a closed loop's next issue waits in the service queue).
        for i in 0..self.actions.len() {
            match self.actions[i] {
                CoreAction::SendQueue {
                    to,
                    obj,
                    req,
                    origin,
                    epoch,
                } => {
                    self.queue_hops += 1;
                    ctx.send(
                        to,
                        ProtoMsg::Queue {
                            req,
                            obj,
                            origin,
                            epoch,
                        },
                    );
                }
                CoreAction::Queued {
                    obj,
                    pred,
                    succ,
                    origin,
                    epoch,
                } => self.queued(ctx, obj, pred, succ, origin, epoch),
                CoreAction::SendToken { .. } | CoreAction::Granted { .. } => {
                    unreachable!("the queuing core moves no tokens")
                }
            }
        }
        self.actions.clear();
        if let Some((req, obj)) = found {
            self.note_own_completion(ctx, req, obj);
        }
    }

    /// The queuing of `succ` behind `pred` completed at this node; record it, notify
    /// the requester if acks are on, and feed the closed-loop workload.
    fn queued(
        &mut self,
        ctx: &mut Context<ProtoMsg>,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        origin: NodeId,
        epoch: u64,
    ) {
        let me = self.core.node();
        self.records.push(OrderRecord {
            predecessor: pred,
            successor: succ,
            obj,
            at_node: me,
            informed_at: ctx.now(),
            epoch,
        });
        ctx.record_completion(succ.0);
        if origin == me {
            // The requester is local: its request completed right here.
            self.note_own_completion(ctx, succ, obj);
        } else if self.send_ack {
            let found = ProtoMsg::Found {
                req: succ,
                obj,
                pred,
                epoch,
            };
            match &self.distances {
                // With a graph metric available, the ack pays d_G(me, origin): the
                // notification travels over the shortest graph path, not over the
                // (possibly heavier) single link joining the pair.
                Some(dm) => ctx.send_direct(
                    origin,
                    found,
                    SimDuration::from_units_f64(dm.dist(me, origin)),
                ),
                None => ctx.send(origin, found),
            }
        }
    }

    /// One of this node's own requests completed; in closed-loop mode, issue the next.
    fn note_own_completion(&mut self, ctx: &mut Context<ProtoMsg>, req: RequestId, obj: ObjectId) {
        self.core.complete(obj, req);
        if !self.completed.insert(req) {
            // A request can complete once per epoch it was re-issued in; only the
            // first notification counts (and feeds the closed loop).
            self.duplicate_grants += 1;
            return;
        }
        self.core.probe_mut().record(ProbeEvent::Granted {
            obj: obj.0,
            req: req.0,
        });
        self.own_completions.push((req, ctx.now()));
        if self.closed_loop_remaining > 0 {
            self.closed_loop_remaining -= 1;
            if self.closed_loop_remaining > 0 {
                self.issue_next(ctx);
            }
        }
    }

    /// Closed loop: issue the next request for the default object. It joins the
    /// service queue, so it pays the local service time before being processed;
    /// a closed loop's service time is positive, so the queue always buffers it.
    fn issue_next(&mut self, ctx: &mut Context<ProtoMsg>) {
        let issue = ProtoMsg::Issue {
            req: self.core.fresh_request_id(),
            obj: ObjectId::DEFAULT,
        };
        let now = self.service.offer(ctx, (self.core.node(), issue));
        assert!(now.is_none(), "a closed loop never runs pass-through");
    }
}

impl<P: Probe> Process<ProtoMsg> for ArrowNode<P> {
    fn on_start(&mut self, ctx: &mut Context<ProtoMsg>) {
        // Closed-loop mode: issue the first request at time zero.
        if self.closed_loop_remaining > 0 {
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        self.offer(ctx, (from, msg));
    }

    fn on_external(&mut self, ctx: &mut Context<ProtoMsg>, input: ProtoMsg) {
        self.offer(ctx, (self.core.node(), input));
    }

    fn on_timer(&mut self, ctx: &mut Context<ProtoMsg>, tag: u64) {
        if tag == SERVICE_TIMER_TAG {
            if let Some((from, msg)) = self.service.on_timer(ctx) {
                self.process(ctx, from, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimConfig, SimTime, Simulator};

    fn issue(i: u64) -> ProtoMsg {
        ProtoMsg::Issue {
            req: RequestId(i),
            obj: ObjectId::DEFAULT,
        }
    }

    /// A node of an `n`-node system serving `objects` objects from `link`.
    fn node(v: NodeId, link: NodeId, objects: usize, n: usize, ack: bool) -> ArrowNode {
        ArrowNode::new(QueuingCore::new(v, link, objects, n, NoProbe), ack, 0.0)
    }

    /// Build `objects`-object arrow nodes for a path 0 - 1 - ... - (n-1) rooted at
    /// `root` (all links initially point towards the root).
    fn path_nodes_multi(n: usize, root: usize, objects: usize, ack: bool) -> Vec<ArrowNode> {
        (0..n)
            .map(|v| {
                let link = if v == root {
                    v
                } else if v > root {
                    v - 1
                } else {
                    v + 1
                };
                node(v, link, objects, n, ack)
            })
            .collect()
    }

    fn path_nodes(n: usize, root: usize, ack: bool) -> Vec<ArrowNode> {
        path_nodes_multi(n, root, 1, ack)
    }

    fn link(node: &ArrowNode, obj: ObjectId) -> NodeId {
        node.core().link_of(obj)
    }

    fn is_sink(node: &ArrowNode, obj: ObjectId) -> bool {
        link(node, obj) == node.core().node()
    }

    const D: ObjectId = ObjectId::DEFAULT;

    #[test]
    fn initial_root_is_sink_with_virtual_request() {
        let nodes = path_nodes(4, 0, false);
        assert!(is_sink(&nodes[0], D));
        assert_eq!(nodes[0].core().last_id_of(D), RequestId::ROOT);
        // A non-root node's initial id is never read (it can only become a sink
        // by issuing, which overwrites it); what matters is its pointer.
        assert!(!is_sink(&nodes[1], D));
        assert_eq!(link(&nodes[1], D), 0);
    }

    #[test]
    fn single_remote_request_travels_to_root_and_reverses_path() {
        let mut sim = Simulator::new(path_nodes(4, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.run();
        // The request from node 3 is ordered behind the virtual root request at node 0.
        let recs = sim.node(0).records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        assert_eq!(recs[0].successor, RequestId(1));
        assert_eq!(recs[0].informed_at, SimTime::from_units(3));
        // All pointers now lead to node 3 (the new tail).
        assert_eq!(link(sim.node(0), D), 1);
        assert_eq!(link(sim.node(1), D), 2);
        assert_eq!(link(sim.node(2), D), 3);
        assert!(is_sink(sim.node(3), D));
        // 3 inter-processor queue hops.
        let hops: u64 = (0..4).map(|v| sim.node(v).queue_hops()).sum();
        assert_eq!(hops, 3);
    }

    #[test]
    fn local_request_at_root_completes_without_messages() {
        let mut sim = Simulator::new(path_nodes(3, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 0, issue(1));
        sim.run();
        assert_eq!(sim.stats().messages_delivered, 0);
        let recs = sim.node(0).records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
        // The root remains the sink and its id is now the new request.
        assert!(is_sink(sim.node(0), D));
        assert_eq!(sim.node(0).core().last_id_of(D), RequestId(1));
        assert_eq!(sim.node(0).own_completions().len(), 1);
        assert_eq!(sim.node(0).core().pending().count(), 0);
    }

    #[test]
    fn two_sequential_requests_chain_correctly() {
        let mut sim = Simulator::new(path_nodes(4, 0, false), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 3, issue(1));
        sim.schedule_external(SimTime::from_units(100), 1, issue(2));
        sim.run();
        // Request 1 behind root (recorded at node 0), request 2 behind request 1
        // (recorded at node 3, which holds request 1).
        assert_eq!(sim.node(0).records().len(), 1);
        let rec3 = sim.node(3).records();
        assert_eq!(rec3.len(), 1);
        assert_eq!(rec3[0].predecessor, RequestId(1));
        assert_eq!(rec3[0].successor, RequestId(2));
        // d_T(1, 3) = 2, issued at t=100 => informed at t=102.
        assert_eq!(rec3[0].informed_at, SimTime::from_units(102));
    }

    #[test]
    fn concurrent_requests_are_all_queued_exactly_once() {
        let n = 8;
        // Path 0-1-...-7 rooted at 0.
        let mut sim = Simulator::new(path_nodes(n, 0, false), SimConfig::synchronous());
        for v in 1..n {
            sim.schedule_external(SimTime::ZERO, v, issue(v as u64));
        }
        sim.run();
        let mut successors: Vec<RequestId> = (0..n)
            .flat_map(|v| sim.node(v).records().iter().map(|r| r.successor))
            .collect();
        successors.sort();
        successors.dedup();
        assert_eq!(successors.len(), n - 1, "every request queued exactly once");
        // Exactly one node is the final sink.
        let sinks = (0..n).filter(|&v| is_sink(sim.node(v), D)).count();
        assert_eq!(sinks, 1);
    }

    #[test]
    fn per_object_arrow_state_is_independent() {
        // Two objects on a path 0 - 1 - 2 - 3, both rooted at node 0. A request for
        // object 1 must flip only object 1's pointers.
        let nodes = path_nodes_multi(4, 0, 2, false);
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.schedule_external(
            SimTime::ZERO,
            3,
            ProtoMsg::Issue {
                req: RequestId(1),
                obj: ObjectId(1),
            },
        );
        sim.run();
        // Object 1's pointers now lead to node 3; object 0's still lead to node 0.
        assert!(is_sink(sim.node(3), ObjectId(1)));
        assert!(!is_sink(sim.node(3), ObjectId(0)));
        assert!(is_sink(sim.node(0), ObjectId(0)));
        assert_eq!(link(sim.node(0), ObjectId(1)), 1);
        // The record belongs to object 1.
        let recs = sim.node(0).records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].obj, ObjectId(1));
        assert_eq!(recs[0].predecessor, RequestId::ROOT);
    }

    #[test]
    fn concurrent_requests_for_different_objects_do_not_interfere() {
        // Simultaneous requests for K distinct objects each complete against their
        // own virtual root request — no cross-object queuing.
        let k = 4;
        let n = 6;
        let nodes = path_nodes_multi(n, 0, k, false);
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        for o in 0..k {
            sim.schedule_external(
                SimTime::ZERO,
                n - 1 - o,
                ProtoMsg::Issue {
                    req: RequestId(1 + o as u64),
                    obj: ObjectId(o as u32),
                },
            );
        }
        sim.run();
        let recs: Vec<OrderRecord> = (0..n)
            .flat_map(|v| sim.node(v).records().iter().copied())
            .collect();
        assert_eq!(recs.len(), k);
        for rec in &recs {
            // Every request queues directly behind its own object's root request.
            assert_eq!(rec.predecessor, RequestId::ROOT, "record {rec:?}");
        }
        let mut objs: Vec<ObjectId> = recs.iter().map(|r| r.obj).collect();
        objs.sort();
        objs.dedup();
        assert_eq!(objs.len(), k, "one completion per object");
    }

    #[test]
    #[should_panic(expected = "does not serve object")]
    fn request_for_unknown_object_panics() {
        let mut node = node(0, 0, 1, 1, false);
        let mut ctx = Context::new(0, SimTime::ZERO);
        node.on_external(
            &mut ctx,
            ProtoMsg::Issue {
                req: RequestId(1),
                obj: ObjectId(3),
            },
        );
    }

    #[test]
    fn ack_reaches_the_requester() {
        let mut sim = Simulator::new(path_nodes(4, 0, true), SimConfig::synchronous());
        sim.schedule_external(SimTime::ZERO, 2, issue(1));
        sim.run();
        let completions = sim.node(2).own_completions();
        assert_eq!(completions.len(), 1);
        // 2 hops to reach the root plus 1 hop (direct) back.
        assert_eq!(completions[0].1, SimTime::from_units(3));
        // The ack completed the request in the core as well.
        assert_eq!(sim.node(2).core().pending().count(), 0);
    }

    #[test]
    fn closed_loop_issues_the_configured_number_of_requests() {
        let spec = ClosedLoopSpec {
            requests_per_node: 5,
            local_service_time: 0.1,
        };
        let mut nodes = path_nodes(3, 0, true);
        for node in &mut nodes {
            node.enable_closed_loop(&spec);
        }
        let mut sim = Simulator::new(nodes, SimConfig::synchronous());
        sim.run();
        let total_issued: usize = (0..3).map(|v| sim.node(v).issued().len()).sum();
        assert_eq!(total_issued, 15);
        let total_recorded: usize = (0..3).map(|v| sim.node(v).records().len()).sum();
        assert_eq!(total_recorded, 15);
        // Ids are globally unique.
        let mut ids: Vec<u64> = (0..3)
            .flat_map(|v| sim.node(v).issued().iter().map(|(r, _, _)| r.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    #[should_panic(expected = "positive local service time")]
    fn closed_loop_requires_positive_service_time() {
        let mut node = node(0, 0, 1, 1, true);
        node.enable_closed_loop(&ClosedLoopSpec {
            requests_per_node: 10,
            local_service_time: 0.0,
        });
    }

    #[test]
    fn central_message_is_recorded_as_violation_not_processed() {
        let mut node = node(0, 0, 1, 2, false);
        let mut ctx = Context::new(0, SimTime::ZERO);
        assert!(node.protocol_violation().is_none());
        node.on_message(
            &mut ctx,
            1,
            ProtoMsg::CentralEnqueue {
                req: RequestId(1),
                obj: ObjectId::DEFAULT,
                origin: 1,
            },
        );
        let violation = node.protocol_violation().expect("violation recorded");
        assert!(violation.contains("non-arrow message"), "{violation}");
        // The violating message was dropped: no record, no state change.
        assert!(node.records().is_empty());
        assert!(is_sink(&node, D));
        // A second violation does not overwrite the first.
        node.on_message(
            &mut ctx,
            1,
            ProtoMsg::CentralReply {
                req: RequestId(2),
                obj: ObjectId::DEFAULT,
                pred: RequestId(1),
            },
        );
        assert!(node
            .protocol_violation()
            .unwrap()
            .contains("CentralEnqueue"));
    }
}
