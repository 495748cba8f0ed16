//! The transport-agnostic per-node arrow state machine — the one implementation
//! of the protocol that every execution tier runs.
//!
//! Four tiers run arrow: the discrete-event simulator ([`crate::arrow`]), the
//! in-process thread runtime ([`super::ArrowRuntime`]), the socket runtime
//! (`arrow-net`) and the process cluster built on it. The protocol itself exists
//! once, in this module, in two layers:
//!
//! * [`QueuingCore`] is the arrow queuing automaton: per-object link pointers and
//!   last ids, path reversal, recovery-epoch admission and bump, re-issue of
//!   pending own requests, the request-id sequence and the protocol probes. It
//!   reports what the transport must do as [`CoreAction::SendQueue`] and
//!   [`CoreAction::Queued`] only. The simulator's node ([`crate::arrow::ArrowNode`])
//!   is a thin adapter over it that turns those two actions into simulator sends,
//!   order records and the optional `Found` acknowledgements of the paper's
//!   experiment.
//! * [`ArrowCore`] wraps a [`QueuingCore`] with the per-(object, request) token
//!   bookkeeping of distributed mutual exclusion — grant-or-hold on every
//!   [`CoreAction::Queued`], release, token receipt — and adds
//!   [`CoreAction::SendToken`] and [`CoreAction::Granted`]. The thread, socket and
//!   cluster tiers run it, and the `arrow-model` checker verifies it.
//!
//! A request stops being pending when its wrapper says so
//! ([`QueuingCore::complete`]): [`ArrowCore`] when the token arrives, the simulator
//! adapter when the `Found` acknowledgement arrives or the request queues locally.
//! The transports own everything I/O-shaped: channels, sockets or the simulator,
//! the map from pending requests to application wakeups, latency, and statistics.
//!
//! # Invariants the transports rely on
//!
//! * [`CoreAction::SendQueue`] targets are always tree neighbours of this node
//!   (`queue()` messages travel tree edges only).
//! * [`CoreAction::SendToken`] targets are never this node — a token grant for a
//!   local request surfaces as [`CoreAction::Granted`] instead.
//! * [`CoreAction::Queued`] fires exactly once per request, at the node holding the
//!   predecessor, when that node learns the successor's identity (Definition 3.2's
//!   end point; transports can log it as an order record).
//!
//! # Batched draining
//!
//! Every input method appends to a caller-owned `Vec<CoreAction>` and never reads
//! what was there before the call, so a transport may feed **many** inputs into the
//! *same* actions vector and translate the accumulated list once — the actions of
//! each input are contiguous and in input order, which preserves per-link FIFO as
//! long as the transport emits sends in list order. Both the thread runtime and the
//! socket runtime drain their inboxes in batches this way: it turns a burst of
//! protocol traffic into one apply pass (and, on the socket tier, into coalesced
//! writes) instead of one transport round-trip per message. The protocol itself
//! does not care — a node is free to receive more messages before acting on
//! earlier ones, because correctness only requires that each link delivers in
//! FIFO order.

use crate::request::{ObjectId, RequestId};
use arrow_trace::{NoProbe, Probe, ProbeEvent};
use netgraph::{NodeId, RootedTree};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// What a transport must do after feeding an input to [`ArrowCore`] (or, for the
/// first two variants only, to [`QueuingCore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Send the arrow `queue()` message for `obj` to tree neighbour `to`.
    SendQueue {
        /// Destination (a tree neighbour of this node; never this node itself).
        to: NodeId,
        /// Object whose queue the request joins.
        obj: ObjectId,
        /// The request being queued.
        req: RequestId,
        /// Node that issued the request.
        origin: NodeId,
        /// Recovery epoch the message belongs to (stamped on the wire; receivers
        /// reject stale epochs).
        epoch: u64,
    },
    /// Send `obj`'s exclusion token to `to`, granting its request `req`.
    SendToken {
        /// Destination (the granted request's origin; never this node itself).
        to: NodeId,
        /// Object whose token moves.
        obj: ObjectId,
        /// The request being granted.
        req: RequestId,
        /// Recovery epoch the token belongs to (a stale-epoch token is a ghost
        /// from before a regeneration and is rejected on receipt).
        epoch: u64,
    },
    /// This node's own request `req` now holds `obj`'s token: wake the application.
    Granted {
        /// Object whose token arrived.
        obj: ObjectId,
        /// The local request being granted.
        req: RequestId,
    },
    /// Request `succ` (issued at `origin`) was queued directly behind `pred` in
    /// `obj`'s queue, and this node (holding `pred`) just learnt it.
    Queued {
        /// Object whose queue grew.
        obj: ObjectId,
        /// The earlier request (possibly [`RequestId::ROOT`]).
        pred: RequestId,
        /// The request queued behind it.
        succ: RequestId,
        /// Node that issued `succ`.
        origin: NodeId,
        /// Recovery epoch the succession belongs to (journaled into the order
        /// records for per-epoch validation).
        epoch: u64,
    },
}

/// Per-object arrow state at one node.
#[derive(Debug, Clone)]
struct ObjectState {
    /// `link_o(v)`: a tree neighbour, or the node itself when it is the sink.
    link: NodeId,
    /// `id_o(v)`: the last request for this object issued here. Initialised to the
    /// virtual root request at every node — see the invariant note in
    /// [`QueuingCore::new`].
    last_id: RequestId,
}

/// The arrow queuing automaton of one node for `K` objects (paper, Section 2):
/// link pointers, path reversal and epoch-based recovery, independent of how
/// messages travel and of what the queue is used for.
///
/// * When `v` **issues** request `a` for object `o` it sets `id_o(v) ← a`, sends
///   `queue(a, o)` to `link_o(v)` and sets `link_o(v) ← v`; if `v` already was the
///   sink, `a` is queued behind the previous `id_o(v)` without any message.
/// * When `u` **receives** `queue(a, o)` from `w` it flips `link_o(u) ← w`; if the
///   old link pointed to another node it forwards `queue(a, o)` there, otherwise
///   `u` was the sink and `a` is queued behind `id_o(u)`.
///
/// Objects interact only through the shared links: their pointers and queues are
/// fully independent.
///
/// Inputs append [`CoreAction::SendQueue`] and [`CoreAction::Queued`] to the
/// caller's actions vector. `P` is the observability hook
/// ([`arrow_trace::Probe`]): every protocol transition is reported to
/// `probe.record(..)`, and the default [`NoProbe`] compiles those calls out.
#[derive(Debug, Clone)]
pub struct QueuingCore<P: Probe = NoProbe> {
    me: NodeId,
    total_nodes: u64,
    next_seq: u64,
    objects: Vec<ObjectState>,
    /// Current recovery epoch (0 until a fault is detected). Stamped on outgoing
    /// messages; inputs from older epochs are rejected, newer ones fast-forward.
    epoch: u64,
    /// The initial link pointer (tree parent, or `me` at the root), kept so an
    /// epoch bump can reset every object to the initial tree orientation.
    initial_link: NodeId,
    /// Own requests issued and not yet completed: re-issued, under the same ids
    /// and in ascending `(object, request)` order, after every epoch bump.
    pending: BTreeSet<(ObjectId, RequestId)>,
    /// Stale-epoch inputs rejected by this node.
    stale_drops: u64,
    /// The observability hook (zero-sized and inert for [`NoProbe`]).
    probe: P,
}

impl<P: Probe> QueuingCore<P> {
    /// Queuing state for node `me` of a system of `total_nodes` nodes, serving
    /// `objects` objects whose link pointers all start at `initial_link` (the node's
    /// tree parent, or `me` itself at the root), with `probe` observing every
    /// protocol transition.
    ///
    /// Every object starts with `last_id = r0`, but only the root's value is ever
    /// read before being overwritten — a non-root node can only become a sink by
    /// issuing a request (which sets `last_id` first), so its initial value is never
    /// observed.
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn new(
        me: NodeId,
        initial_link: NodeId,
        objects: usize,
        total_nodes: usize,
        probe: P,
    ) -> Self {
        assert!(objects > 0, "a directory serves at least one object");
        QueuingCore {
            me,
            total_nodes: total_nodes as u64,
            next_seq: 0,
            objects: vec![
                ObjectState {
                    link: initial_link,
                    last_id: RequestId::ROOT,
                };
                objects
            ],
            epoch: 0,
            initial_link,
            pending: BTreeSet::new(),
            stale_drops: 0,
            probe,
        }
    }

    /// Queuing state for node `me` of the given rooted spanning tree: the initial
    /// link is the tree parent (or `me` itself at the root), so following pointers
    /// from anywhere leads to the root, which holds every object's virtual request.
    pub fn for_tree(me: NodeId, tree: &RootedTree, objects: usize, probe: P) -> Self {
        let link = if me == tree.root() {
            me
        } else {
            tree.parent(me).expect("non-root node has a parent")
        };
        QueuingCore::new(me, link, objects, tree.node_count(), probe)
    }

    /// The probe, for wrappers and transports that emit their own events (grants,
    /// the orphaned-grant self-release) through the node's recording channel.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Number of objects served.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The recovery epoch this node has reached (0 in fault-free runs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stale-epoch inputs this node rejected.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops
    }

    /// The current link pointer for `obj` (a tree neighbour, or this node itself
    /// when it is the object's sink).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn link_of(&self, obj: ObjectId) -> NodeId {
        self.object(obj).link
    }

    /// `id_o(v)`: the last request for `obj` issued here ([`RequestId::ROOT`] until
    /// the first issue; see [`QueuingCore::new`]).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn last_id_of(&self, obj: ObjectId) -> RequestId {
        self.object(obj).last_id
    }

    /// This node's own requests still awaiting completion, in ascending order.
    pub fn pending(&self) -> impl Iterator<Item = (ObjectId, RequestId)> + '_ {
        self.pending.iter().copied()
    }

    /// A fresh request id from this node's sequence: unique across nodes
    /// (interleaved by node id) and across this node's objects (one shared
    /// sequence). +1 keeps ids disjoint from the root id 0.
    pub fn fresh_request_id(&mut self) -> RequestId {
        let id = 1 + self.me as u64 + self.next_seq * self.total_nodes;
        self.next_seq += 1;
        RequestId(id)
    }

    /// Restore the stable-storage request-id counter: advance the sequence to at
    /// least `seq` (never backwards).
    pub fn advance_request_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Crash-restart: link pointers, pending requests and the recovery epoch are
    /// lost and reset to the initial tree orientation; the request-id sequence
    /// survives (see [`ArrowCore::reboot`]).
    pub fn reboot(&mut self) {
        for state in &mut self.objects {
            state.link = self.initial_link;
            state.last_id = RequestId::ROOT;
        }
        self.pending.clear();
        self.epoch = 0;
    }

    fn object(&self, obj: ObjectId) -> &ObjectState {
        self.objects
            .get(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {} does not serve object {obj}", self.me))
    }

    fn object_mut(&mut self, obj: ObjectId) -> &mut ObjectState {
        let me = self.me;
        self.objects
            .get_mut(obj.0 as usize)
            .unwrap_or_else(|| panic!("node {me} does not serve object {obj}"))
    }

    /// The wrapper reports that own request `(obj, req)` completed (its token
    /// arrived, or its requester learnt its predecessor): it is no longer re-issued
    /// after an epoch bump.
    pub fn complete(&mut self, obj: ObjectId, req: RequestId) {
        self.pending.remove(&(obj, req));
    }

    /// Epoch guard for in-band inputs: `false` means the input is stale and must be
    /// dropped; a newer epoch first fast-forwards this node (a restarted or
    /// partitioned-away node can miss detection signals and learns the current
    /// epoch from live traffic).
    pub fn admit_epoch(
        &mut self,
        obj: ObjectId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) -> bool {
        if epoch < self.epoch {
            self.stale_drops += 1;
            self.probe.record(ProbeEvent::StaleDrop { obj: obj.0 });
            return false;
        }
        if epoch > self.epoch {
            self.bump_epoch(epoch, actions);
        }
        true
    }

    /// Fault detection signal: advance to recovery epoch `epoch` (no-op unless it
    /// is newer than the local epoch).
    pub fn on_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        if epoch > self.epoch {
            self.bump_epoch(epoch, actions);
        }
    }

    /// Advance to recovery epoch `epoch`: reset every object's link pointer to the
    /// initial tree orientation (the initial root becomes every object's sink
    /// again, holding the regenerated virtual request `r0`), then re-issue every
    /// pending own request under its original id.
    fn bump_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        self.epoch = epoch;
        self.probe.record(ProbeEvent::EpochAdopted { epoch });
        for state in &mut self.objects {
            state.link = self.initial_link;
            state.last_id = RequestId::ROOT;
        }
        // A re-issue, not a new request: no second RequestIssued event, but the
        // fresh hop chain is traced like any other.
        for (obj, req) in self.pending.clone() {
            self.step_issue(obj, req, actions);
        }
    }

    /// Own request `req` for `obj` enters the system here: it becomes pending until
    /// the wrapper [completes](QueuingCore::complete) it.
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn issue(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        self.probe.record(ProbeEvent::RequestIssued {
            obj: obj.0,
            req: req.0,
            origin: self.me,
        });
        self.pending.insert((obj, req));
        self.step_issue(obj, req, actions);
    }

    /// The issue transition, shared by fresh issues and post-bump re-issues:
    /// `id_o(v) ← a`; send `queue(a, o)` to `link_o(v)`; `link_o(v) ← v`.
    #[inline]
    fn step_issue(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        let me = self.me;
        let state = self.object_mut(obj);
        let pred = std::mem::replace(&mut state.last_id, req);
        if state.link == me {
            // Local sink: req is queued directly behind our previous request.
            self.queued(obj, pred, req, me, actions);
        } else {
            let to = std::mem::replace(&mut state.link, me);
            self.send_queue(to, obj, req, me, actions);
        }
    }

    /// Arrow path reversal for one object: a `queue()` message for request `req`
    /// (issued at `origin`, stamped with the sender's `epoch`) arrived from tree
    /// neighbour `from`. Stale-epoch messages are dropped; newer ones fast-forward
    /// this node first.
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    #[inline]
    pub fn on_queue(
        &mut self,
        from: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) {
        if !self.admit_epoch(obj, epoch, actions) {
            return;
        }
        self.probe.record(ProbeEvent::QueueReceived {
            obj: obj.0,
            req: req.0,
            origin,
            from,
        });
        let me = self.me;
        let state = self.object_mut(obj);
        let old_link = std::mem::replace(&mut state.link, from);
        if old_link == me {
            let pred = state.last_id;
            self.queued(obj, pred, req, origin, actions);
        } else {
            self.send_queue(old_link, obj, req, origin, actions);
        }
    }

    fn send_queue(
        &mut self,
        to: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        actions: &mut Vec<CoreAction>,
    ) {
        self.probe.record(ProbeEvent::QueueSent {
            obj: obj.0,
            req: req.0,
            origin,
            to,
        });
        actions.push(CoreAction::SendQueue {
            to,
            obj,
            req,
            origin,
            epoch: self.epoch,
        });
    }

    /// Request `succ` (from `origin`) has been queued behind `pred` in `obj`'s
    /// queue, and `pred` lives here.
    fn queued(
        &mut self,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        origin: NodeId,
        actions: &mut Vec<CoreAction>,
    ) {
        self.probe.record(ProbeEvent::QueuedBehind {
            obj: obj.0,
            req: succ.0,
            pred: pred.0,
            origin,
        });
        actions.push(CoreAction::Queued {
            obj,
            pred,
            succ,
            origin,
            epoch: self.epoch,
        });
    }
}

/// Per-own-request token bookkeeping at the issuing node. A request whose entry
/// exists and is still pending in the [`QueuingCore`] has not received its token;
/// every other entry's token has arrived (the application holds it, or held it and
/// released).
#[derive(Debug, Clone, Default)]
struct TokenState {
    /// The token for this request has been (or never needed to be) released.
    released: bool,
    /// The successor of this request, once known: `(request, origin node)`.
    successor: Option<(RequestId, NodeId)>,
}

/// A deterministic, canonically ordered copy of one [`ArrowCore`]'s protocol
/// state, exposed for the `arrow-model` explicit-state model checker.
///
/// Two cores that would behave identically on every future input produce equal
/// snapshots: the token map is flattened into a sorted vector, so iteration
/// order of the underlying `HashMap` never leaks into the snapshot. `Hash`,
/// `Eq` and `Ord` are derived, which makes the snapshot directly usable as a
/// key in visited-state sets and as input to canonical state hashing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreSnapshot {
    /// The node the snapshot was taken at.
    pub node: NodeId,
    /// Current recovery epoch.
    pub epoch: u64,
    /// Next value of the per-node request-id sequence (captured because two
    /// cores that differ only here still assign different future ids).
    pub next_seq: u64,
    /// Per-object `(link, last_id)` pairs, indexed by object id.
    pub objects: Vec<(NodeId, RequestId)>,
    /// Token bookkeeping rows, sorted by `(object, request)`.
    pub tokens: Vec<TokenRow>,
}

/// One row of [`CoreSnapshot::tokens`]:
/// `(object, request, granted, released, successor)`.
pub type TokenRow = (ObjectId, RequestId, bool, bool, Option<(RequestId, NodeId)>);

/// The per-node arrow automaton for `K` objects with exclusion tokens: a
/// [`QueuingCore`] plus per-(object, request) token bookkeeping, independent of
/// how messages actually travel.
///
/// Each input is handed to the queuing core first; the token layer then walks the
/// actions that input appended, in order, and follows every
/// [`CoreAction::Queued`] with the grant it implies (a
/// [`CoreAction::Granted`] or [`CoreAction::SendToken`]), or holds the successor
/// until the predecessor's token is released.
///
/// `Clone` is derived so an explicit-state model checker can branch a system
/// state into successors; the clone is an independent automaton with identical
/// behaviour.
///
/// The `P` parameter is the observability hook ([`arrow_trace::Probe`]). The
/// default [`NoProbe`] monomorphizes the probe calls to nothing, so the plain
/// constructors ([`ArrowCore::new`], [`ArrowCore::for_tree`]) build the probe-free
/// automaton; recording cores come from [`ArrowCore::with_probe`] /
/// [`ArrowCore::for_tree_with_probe`]. The probe is *not* protocol state: it is
/// excluded from [`ArrowCore::snapshot`] and [`ArrowCore::hash_into`], so the
/// model checker's state space is identical whether or not a run is traced.
#[derive(Debug, Clone)]
pub struct ArrowCore<P: Probe = NoProbe> {
    queue: QueuingCore<P>,
    /// Token bookkeeping for requests issued by this node, keyed by
    /// (object, request id).
    tokens: HashMap<(ObjectId, RequestId), TokenState>,
}

impl ArrowCore {
    /// Arrow state for node `me` of a system of `total_nodes` nodes, serving
    /// `objects` objects whose link pointers all start at `initial_link` (the node's
    /// tree parent, or `me` itself at the root). See [`QueuingCore::new`].
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn new(me: NodeId, initial_link: NodeId, objects: usize, total_nodes: usize) -> Self {
        ArrowCore::with_probe(me, initial_link, objects, total_nodes, NoProbe)
    }

    /// Arrow state for node `me` of the given rooted spanning tree: the initial link
    /// is the tree parent (or `me` itself at the root), so following pointers from
    /// anywhere leads to the root, which holds every object's initial token.
    pub fn for_tree(me: NodeId, tree: &RootedTree, objects: usize) -> Self {
        ArrowCore::for_tree_with_probe(me, tree, objects, NoProbe)
    }
}

impl<P: Probe> ArrowCore<P> {
    /// Like [`ArrowCore::new`], with a recording probe observing every protocol
    /// transition of this node.
    ///
    /// # Panics
    /// If `objects` is zero.
    pub fn with_probe(
        me: NodeId,
        initial_link: NodeId,
        objects: usize,
        total_nodes: usize,
        probe: P,
    ) -> Self {
        ArrowCore::wrap(QueuingCore::new(
            me,
            initial_link,
            objects,
            total_nodes,
            probe,
        ))
    }

    /// Like [`ArrowCore::for_tree`], with a recording probe.
    pub fn for_tree_with_probe(me: NodeId, tree: &RootedTree, objects: usize, probe: P) -> Self {
        ArrowCore::wrap(QueuingCore::for_tree(me, tree, objects, probe))
    }

    fn wrap(queue: QueuingCore<P>) -> Self {
        ArrowCore {
            queue,
            tokens: HashMap::new(),
        }
    }

    /// The probe, for transports that emit runtime-level events (e.g. the
    /// orphaned-grant self-release) through the node's recording channel.
    pub fn probe_mut(&mut self) -> &mut P {
        self.queue.probe_mut()
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.queue.node()
    }

    /// Number of objects served.
    pub fn object_count(&self) -> usize {
        self.queue.object_count()
    }

    /// The recovery epoch this node has reached (0 in fault-free runs).
    pub fn epoch(&self) -> u64 {
        self.queue.epoch()
    }

    /// Stale-epoch inputs this node rejected.
    pub fn stale_drops(&self) -> u64 {
        self.queue.stale_drops()
    }

    /// The current link pointer for `obj` (a tree neighbour, or this node itself
    /// when it is the object's sink).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn link_of(&self, obj: ObjectId) -> NodeId {
        self.queue.link_of(obj)
    }

    /// Token rows in canonical `(object, request)` order.
    fn token_rows(&self) -> Vec<TokenRow> {
        let mut tokens: Vec<_> = self
            .tokens
            .iter()
            .map(|(&(obj, req), st)| {
                let granted = !self.queue.pending.contains(&(obj, req));
                (obj, req, granted, st.released, st.successor)
            })
            .collect();
        tokens.sort();
        tokens
    }

    /// A deterministic, canonically ordered copy of this core's protocol state.
    ///
    /// Used by the `arrow-model` checker both to test state equality (dedup) and
    /// to read protocol facts — link pointers, pending requests, epochs — without
    /// reaching into private fields. The snapshot is independent of `HashMap`
    /// iteration order, so equal protocol states always snapshot equal.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            node: self.node(),
            epoch: self.epoch(),
            next_seq: self.queue.next_seq,
            objects: self
                .queue
                .objects
                .iter()
                .map(|st| (st.link, st.last_id))
                .collect(),
            tokens: self.token_rows(),
        }
    }

    /// Feed this core's canonical state into a hasher (a cheaper alternative to
    /// building a full [`CoreSnapshot`] when only a state hash is needed).
    ///
    /// Deterministic across runs for the same protocol state: the token map is
    /// folded in sorted order and the hasher sees exactly the fields a
    /// [`CoreSnapshot`] carries.
    pub fn hash_into<H: Hasher>(&self, hasher: &mut H) {
        self.node().hash(hasher);
        self.epoch().hash(hasher);
        self.queue.next_seq.hash(hasher);
        for st in &self.queue.objects {
            st.link.hash(hasher);
            st.last_id.hash(hasher);
        }
        self.token_rows().hash(hasher);
    }

    /// This node's own requests still awaiting their token, sorted.
    pub fn pending(&self) -> Vec<(ObjectId, RequestId)> {
        self.queue.pending().collect()
    }

    /// Crash-restart: volatile protocol state (link pointers, token bookkeeping,
    /// the recovery epoch) is lost and reset to the initial tree orientation. The
    /// request-id counter survives — it models a counter in stable storage — so
    /// requests issued after the restart never collide with pre-crash ids. The
    /// node re-learns the current epoch from the next detection signal or from
    /// the first newer-epoch message it receives.
    pub fn reboot(&mut self) {
        self.queue.reboot();
        self.tokens.clear();
    }

    /// Restore the stable-storage request-id counter after a *process*-level
    /// restart: advance `next_seq` to at least `seq` (never backwards).
    ///
    /// [`ArrowCore::reboot`] models an in-process crash, where the counter
    /// genuinely survives. A killed and re-spawned process starts from a fresh
    /// core whose counter is zero; re-issuing ids the dead incarnation already
    /// used would collide with its requests still chained in surviving nodes'
    /// journals. A restart supervisor passes a safe lower bound here (e.g. an
    /// over-estimate of requests per incarnation) before the core issues
    /// anything.
    pub fn advance_request_seq(&mut self, seq: u64) {
        self.queue.advance_request_seq(seq);
    }

    /// Fault detection signal: advance to recovery epoch `epoch` (no-op unless it
    /// is newer than the local epoch).
    ///
    /// A bump resets every object's link pointer to the initial tree orientation
    /// — the initial root becomes every object's sink again, holding a
    /// *regenerated* token behind the virtual request `r0` — discards token state
    /// of already-granted requests (a token held across a bump is a ghost of the
    /// old epoch; its release becomes a no-op and stale-epoch sends of it are
    /// rejected by receivers), and re-issues every still-pending own request under
    /// its original request id, so transports' waiting maps stay valid.
    pub fn on_epoch(&mut self, epoch: u64, actions: &mut Vec<CoreAction>) {
        let (before, start) = (self.epoch(), actions.len());
        self.queue.on_epoch(epoch, actions);
        self.settle(before, start, actions);
    }

    /// Issue a queuing request for `obj` on behalf of the local application.
    /// Returns the fresh request id; the transport must remember it so a later
    /// [`CoreAction::Granted`] can wake the right waiter (possibly among `actions`
    /// already).
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn acquire(&mut self, obj: ObjectId, actions: &mut Vec<CoreAction>) -> RequestId {
        let req = self.queue.fresh_request_id();
        self.tokens.insert((obj, req), TokenState::default());
        let (before, start) = (self.epoch(), actions.len());
        self.queue.issue(obj, req, actions);
        self.settle(before, start, actions);
        req
    }

    /// Arrow path reversal for one object: a `queue()` message for request `req`
    /// (issued at `origin`, stamped with the sender's `epoch`) arrived from tree
    /// neighbour `from`. Stale-epoch messages are dropped; newer ones fast-forward
    /// this node first.
    ///
    /// # Panics
    /// If `obj` is out of range for this node.
    pub fn on_queue(
        &mut self,
        from: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) {
        let (before, start) = (self.epoch(), actions.len());
        self.queue.on_queue(from, obj, req, origin, epoch, actions);
        self.settle(before, start, actions);
    }

    /// `obj`'s exclusion token arrived for this node's own request `req`, stamped
    /// with the sender's `epoch`. A stale-epoch token is a ghost of a pre-recovery
    /// epoch and is dropped — the request it would have granted has already been
    /// re-issued under the current epoch.
    pub fn on_token(
        &mut self,
        obj: ObjectId,
        req: RequestId,
        epoch: u64,
        actions: &mut Vec<CoreAction>,
    ) {
        let (before, start) = (self.epoch(), actions.len());
        if !self.queue.admit_epoch(obj, epoch, actions) {
            return;
        }
        self.settle(before, start, actions);
        self.probe_mut().record(ProbeEvent::TokenReceived {
            obj: obj.0,
            req: req.0,
        });
        let granted = self.token_received(obj, req);
        actions.push(granted);
    }

    /// The local application released `obj`'s token it held for `req`.
    ///
    /// A release of a token granted before an epoch bump finds no bookkeeping
    /// entry (the bump discarded it) and is a no-op: that token died with its
    /// epoch and must not grant anyone.
    pub fn on_release(&mut self, obj: ObjectId, req: RequestId, actions: &mut Vec<CoreAction>) {
        let Some(state) = self.tokens.get_mut(&(obj, req)) else {
            return;
        };
        self.queue.probe_mut().record(ProbeEvent::Released {
            obj: obj.0,
            req: req.0,
        });
        if let Some((succ, origin)) = state.successor.take() {
            self.tokens.remove(&(obj, req));
            let grant = self.grant(obj, succ, origin);
            actions.push(grant);
        } else {
            state.released = true;
        }
    }

    /// The token half of one input: if the queuing core bumped its epoch, drop the
    /// tokens that died with the old epoch; then follow every
    /// [`CoreAction::Queued`] the input appended (from `start` on) with its grant.
    fn settle(&mut self, epoch_before: u64, start: usize, actions: &mut Vec<CoreAction>) {
        if self.epoch() != epoch_before {
            // Granted tokens die with their epoch; pending requests survive (the
            // queuing core re-issued them) with any old-epoch linkage cleared.
            let pending = &self.queue.pending;
            self.tokens.retain(|key, st| {
                *st = TokenState::default();
                pending.contains(key)
            });
        }
        let mut i = start;
        while i < actions.len() {
            if let CoreAction::Queued {
                obj,
                pred,
                succ,
                origin,
                ..
            } = actions[i]
            {
                if let Some(grant) = self.grant_or_hold(obj, pred, succ, origin) {
                    i += 1;
                    actions.insert(i, grant);
                }
            }
            i += 1;
        }
    }

    /// Request `succ` (from `origin`) has been queued behind `pred`, which lives
    /// here: hand it the token if `pred`'s is free, or remember it as `pred`'s
    /// successor until `pred` releases.
    fn grant_or_hold(
        &mut self,
        obj: ObjectId,
        pred: RequestId,
        succ: RequestId,
        origin: NodeId,
    ) -> Option<CoreAction> {
        if !pred.is_root() {
            // The root's virtual request r0 holds a token that is already free.
            let state = self.tokens.entry((obj, pred)).or_default();
            if !state.released {
                state.successor = Some((succ, origin));
                return None;
            }
            self.tokens.remove(&(obj, pred));
        }
        Some(self.grant(obj, succ, origin))
    }

    /// Hand `obj`'s token to the node that issued `req`.
    fn grant(&mut self, obj: ObjectId, req: RequestId, origin: NodeId) -> CoreAction {
        if origin == self.node() {
            return self.token_received(obj, req);
        }
        self.probe_mut().record(ProbeEvent::TokenSent {
            obj: obj.0,
            req: req.0,
            to: origin,
        });
        CoreAction::SendToken {
            to: origin,
            obj,
            req,
            epoch: self.epoch(),
        }
    }

    fn token_received(&mut self, obj: ObjectId, req: RequestId) -> CoreAction {
        self.tokens.entry((obj, req)).or_default();
        self.queue.complete(obj, req);
        // No TokenReceived event here: a local handoff (grant to self) has no
        // token flight, and the analysis reads its absence as grant_wait = 0.
        self.probe_mut().record(ProbeEvent::Granted {
            obj: obj.0,
            req: req.0,
        });
        CoreAction::Granted { obj, req }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    #[test]
    fn root_acquire_is_granted_locally() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let req = core.acquire(ObjectId::DEFAULT, &mut out);
        // The root is the sink of its own virtual request r0, already released.
        assert_eq!(
            out,
            vec![
                CoreAction::Queued {
                    obj: ObjectId::DEFAULT,
                    pred: RequestId::ROOT,
                    succ: req,
                    origin: 0,
                    epoch: 0,
                },
                CoreAction::Granted {
                    obj: ObjectId::DEFAULT,
                    req,
                },
            ]
        );
    }

    #[test]
    fn non_root_acquire_sends_queue_towards_parent() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(5, &t, 1);
        let mut out = Vec::new();
        let req = core.acquire(ObjectId::DEFAULT, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: t.parent(5).unwrap(),
                obj: ObjectId::DEFAULT,
                req,
                origin: 5,
                epoch: 0,
            }]
        );
    }

    #[test]
    fn queue_is_forwarded_along_old_link_with_path_reversal() {
        let t = tree(7);
        // Node 1's link initially points at its parent 0; a queue() arriving from
        // child 3 must be forwarded to 0 and the link must flip to 3.
        let mut core = ArrowCore::for_tree(1, &t, 1);
        let mut out = Vec::new();
        core.on_queue(3, ObjectId::DEFAULT, RequestId(9), 3, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: 0,
                obj: ObjectId::DEFAULT,
                req: RequestId(9),
                origin: 3,
                epoch: 0,
            }]
        );
        out.clear();
        // A second queue() arriving from 0 must now chase the flipped link to 3.
        core.on_queue(0, ObjectId::DEFAULT, RequestId(10), 6, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendQueue {
                to: 3,
                obj: ObjectId::DEFAULT,
                req: RequestId(10),
                origin: 6,
                epoch: 0,
            }]
        );
    }

    #[test]
    fn token_waits_for_release_then_travels_to_successor() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let own = core.acquire(ObjectId::DEFAULT, &mut out);
        out.clear();
        // A remote request queues behind ours before we release.
        core.on_queue(1, ObjectId::DEFAULT, RequestId(40), 2, 0, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::Queued {
                obj: ObjectId::DEFAULT,
                pred: own,
                succ: RequestId(40),
                origin: 2,
                epoch: 0,
            }],
            "token is still held: no grant yet"
        );
        out.clear();
        core.on_release(ObjectId::DEFAULT, own, &mut out);
        assert_eq!(
            out,
            vec![CoreAction::SendToken {
                to: 2,
                obj: ObjectId::DEFAULT,
                req: RequestId(40),
                epoch: 0,
            }]
        );
    }

    #[test]
    fn release_before_successor_known_hands_over_immediately_later() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        let own = core.acquire(ObjectId::DEFAULT, &mut out);
        out.clear();
        core.on_release(ObjectId::DEFAULT, own, &mut out);
        assert!(out.is_empty(), "no successor yet: nothing to do");
        core.on_queue(1, ObjectId::DEFAULT, RequestId(7), 1, 0, &mut out);
        assert_eq!(
            out,
            vec![
                CoreAction::Queued {
                    obj: ObjectId::DEFAULT,
                    pred: own,
                    succ: RequestId(7),
                    origin: 1,
                    epoch: 0,
                },
                CoreAction::SendToken {
                    to: 1,
                    obj: ObjectId::DEFAULT,
                    req: RequestId(7),
                    epoch: 0,
                },
            ]
        );
    }

    #[test]
    fn objects_have_independent_links_and_ids() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(2, &t, 2);
        assert_eq!(core.object_count(), 2);
        let mut out = Vec::new();
        let a = core.acquire(ObjectId(0), &mut out);
        let b = core.acquire(ObjectId(1), &mut out);
        assert_ne!(a, b, "one shared id sequence across objects");
        // Both queues were sent towards the parent independently.
        let targets: Vec<NodeId> = out
            .iter()
            .filter_map(|act| match act {
                CoreAction::SendQueue { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![t.parent(2).unwrap(), t.parent(2).unwrap()]);
    }

    #[test]
    fn request_ids_are_disjoint_across_nodes() {
        let t = tree(7);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for v in 0..7 {
            let mut core = ArrowCore::for_tree(v, &t, 1);
            for _ in 0..5 {
                assert!(seen.insert(core.acquire(ObjectId::DEFAULT, &mut out)));
            }
        }
        assert!(!seen.contains(&RequestId::ROOT));
    }

    #[test]
    #[should_panic(expected = "does not serve object")]
    fn out_of_range_object_panics() {
        let mut core = ArrowCore::for_tree(0, &tree(3), 1);
        let mut out = Vec::new();
        core.acquire(ObjectId(1), &mut out);
    }

    #[test]
    fn epoch_bump_reissues_uncompleted_requests_in_ascending_order() {
        let t = tree(7);
        let parent = t.parent(5).unwrap();
        let mut q = QueuingCore::for_tree(5, &t, 2, NoProbe);
        let mut out = Vec::new();
        let (a, b, c) = (
            q.fresh_request_id(),
            q.fresh_request_id(),
            q.fresh_request_id(),
        );
        q.issue(ObjectId(1), a, &mut out);
        q.issue(ObjectId(0), b, &mut out);
        q.issue(ObjectId(0), c, &mut out);
        q.complete(ObjectId(0), b);
        out.clear();
        q.on_epoch(1, &mut out);
        let reissue = |obj, req| CoreAction::SendQueue {
            to: parent,
            obj,
            req,
            origin: 5,
            epoch: 1,
        };
        assert_eq!(out, vec![reissue(ObjectId(0), c), reissue(ObjectId(1), a)]);
        out.clear();
        assert!(!q.admit_epoch(ObjectId(0), 0, &mut out));
        assert!(out.is_empty());
        assert_eq!(q.stale_drops(), 1);
    }

    fn hash_of(core: &ArrowCore) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        core.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn snapshots_are_canonical_and_track_state_changes() {
        let t = tree(7);
        let mut a = ArrowCore::for_tree(3, &t, 2);
        let mut b = ArrowCore::for_tree(3, &t, 2);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(hash_of(&a), hash_of(&b));

        // Identical input sequences keep the snapshots (and hashes) equal even
        // though the token HashMaps were populated independently.
        let mut out = Vec::new();
        for core in [&mut a, &mut b] {
            core.acquire(ObjectId(0), &mut out);
            core.acquire(ObjectId(1), &mut out);
            core.on_queue(
                t.parent(3).unwrap(),
                ObjectId(0),
                RequestId(99),
                0,
                0,
                &mut out,
            );
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(hash_of(&a), hash_of(&b));

        // Any further input changes the snapshot.
        let before = a.snapshot();
        a.acquire(ObjectId(0), &mut out);
        assert_ne!(a.snapshot(), before);
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn snapshot_exposes_links_and_clone_is_independent() {
        let t = tree(7);
        let mut core = ArrowCore::for_tree(1, &t, 1);
        assert_eq!(core.link_of(ObjectId::DEFAULT), t.parent(1).unwrap());
        let frozen = core.clone();
        let mut out = Vec::new();
        core.acquire(ObjectId::DEFAULT, &mut out);
        // The issuing node becomes the object's sink; the clone is unaffected.
        assert_eq!(core.link_of(ObjectId::DEFAULT), 1);
        assert_eq!(core.snapshot().objects[0].0, 1);
        assert_eq!(frozen.snapshot().objects[0].0, t.parent(1).unwrap());
        assert_eq!(core.snapshot().tokens.len(), 1);
        assert!(frozen.snapshot().tokens.is_empty());
    }
}
