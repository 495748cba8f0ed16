//! Layer floors for the traced `net` run: what an acquire costs in the
//! protocol core alone, and what a frame costs in the wire codec alone.
//!
//! An in-memory router over one [`ArrowCore`] per node replays the `net`
//! workload's seeded acquire sequence, routing the returned [`CoreAction`]s
//! through a FIFO queue and releasing every grant at once. Its orders are
//! validated like every other tier's. The frames that replay sends are then
//! encoded and scanned back with the socket tier's codec.

use crate::{spans, Outcome};
use arrow_core::live::{ArrowCore, CoreAction};
use arrow_core::order::per_object_orders;
use arrow_core::protocol::ProtoMsg;
use arrow_core::{ObjectId, OrderRecord, Request, RequestId, RequestSchedule};
use arrow_net::Frame;
use desim::SimTime;
use netgraph::{NodeId, RootedTree};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Acquires issued before the router drains its queue: several requests per
/// object are in flight at once, as under load.
const BATCH: usize = 32;

/// Measured floors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floors {
    /// Wall nanoseconds per acquire in the protocol core alone.
    pub core_ns_per_acquire: f64,
    /// Nanoseconds to encode one frame (`Frame::encode_into`).
    pub encode_ns: f64,
    /// Nanoseconds to scan one frame back (`Frame::scan`).
    pub scan_ns: f64,
    /// Frames one replay sends.
    pub frames: usize,
}

enum Msg {
    Queue {
        to: NodeId,
        from: NodeId,
        obj: ObjectId,
        req: RequestId,
        origin: NodeId,
        epoch: u64,
    },
    Token {
        to: NodeId,
        obj: ObjectId,
        req: RequestId,
        epoch: u64,
    },
    Release {
        node: NodeId,
        obj: ObjectId,
        req: RequestId,
    },
}

/// What a replay leaves behind when asked to keep it.
#[derive(Default)]
struct Journal {
    frames: Vec<Frame>,
    records: Vec<OrderRecord>,
    issued: Vec<Request>,
}

struct Router<'a> {
    cores: Vec<ArrowCore>,
    queue: VecDeque<Msg>,
    actions: Vec<CoreAction>,
    journal: Option<&'a mut Journal>,
    step: u64,
}

impl Router<'_> {
    fn route(&mut self, at: NodeId) {
        for action in self.actions.drain(..) {
            match action {
                CoreAction::SendQueue {
                    to,
                    obj,
                    req,
                    origin,
                    epoch,
                } => {
                    if let Some(j) = self.journal.as_deref_mut() {
                        j.frames.push(Frame::Proto(ProtoMsg::Queue {
                            req,
                            obj,
                            origin,
                            epoch,
                        }));
                    }
                    self.queue.push_back(Msg::Queue {
                        to,
                        from: at,
                        obj,
                        req,
                        origin,
                        epoch,
                    });
                }
                CoreAction::SendToken {
                    to,
                    obj,
                    req,
                    epoch,
                } => {
                    if let Some(j) = self.journal.as_deref_mut() {
                        j.frames.push(Frame::Token { obj, req, epoch });
                    }
                    self.queue.push_back(Msg::Token {
                        to,
                        obj,
                        req,
                        epoch,
                    });
                }
                CoreAction::Granted { obj, req } => {
                    self.queue.push_back(Msg::Release { node: at, obj, req })
                }
                CoreAction::Queued {
                    obj,
                    pred,
                    succ,
                    epoch,
                    ..
                } => {
                    if let Some(j) = self.journal.as_deref_mut() {
                        j.records.push(OrderRecord {
                            predecessor: pred,
                            successor: succ,
                            obj,
                            at_node: at,
                            informed_at: SimTime::from_subticks(self.step),
                            epoch,
                        });
                    }
                }
            }
        }
    }

    fn replay(&mut self, seq: &[(NodeId, ObjectId)]) {
        for chunk in seq.chunks(BATCH) {
            for &(v, obj) in chunk {
                self.step += 1;
                let req = self.cores[v].acquire(obj, &mut self.actions);
                if let Some(j) = self.journal.as_deref_mut() {
                    j.issued.push(Request {
                        id: req,
                        node: v,
                        time: SimTime::from_subticks(self.step),
                        obj,
                    });
                }
                self.route(v);
            }
            while let Some(msg) = self.queue.pop_front() {
                self.step += 1;
                let at = match msg {
                    Msg::Queue {
                        to,
                        from,
                        obj,
                        req,
                        origin,
                        epoch,
                    } => {
                        self.cores[to].on_queue(from, obj, req, origin, epoch, &mut self.actions);
                        to
                    }
                    Msg::Token {
                        to,
                        obj,
                        req,
                        epoch,
                    } => {
                        self.cores[to].on_token(obj, req, epoch, &mut self.actions);
                        to
                    }
                    Msg::Release { node, obj, req } => {
                        self.cores[node].on_release(obj, req, &mut self.actions);
                        node
                    }
                };
                self.route(at);
            }
        }
    }
}

fn cores(tree: &RootedTree, objects: usize) -> Vec<ArrowCore> {
    (0..tree.node_count())
        .map(|v| ArrowCore::for_tree(v, tree, objects))
        .collect()
}

/// Measure both floors over `seq`, repeating each for at least `budget`.
/// Validates the replay's per-object orders and the codec round trip.
pub fn measure(
    tree: &RootedTree,
    objects: usize,
    seq: &[(NodeId, ObjectId)],
    budget: Duration,
    out: &mut Outcome,
) -> Floors {
    // One journaled replay: orders must validate, frames feed the codec.
    let mut journal = Journal::default();
    let mut router = Router {
        cores: cores(tree, objects),
        queue: VecDeque::new(),
        actions: Vec::new(),
        journal: Some(&mut journal),
        step: 0,
    };
    router.replay(seq);
    let schedule = RequestSchedule::from_requests(std::mem::take(&mut journal.issued));
    match per_object_orders(&journal.records, &schedule) {
        Ok(orders) => {
            let ordered: usize = orders.iter().map(|(_, o)| o.len()).sum();
            out.check(ordered == seq.len(), || {
                format!("core replay ordered {ordered} of {} acquires", seq.len())
            });
        }
        Err((obj, e)) => out.check(false, || format!("core replay: object {obj}: {e:?}")),
    }

    // The core alone: fresh cores per replay, replays timed.
    let mut ns = 0u128;
    let mut acquires = 0usize;
    let start = Instant::now();
    while acquires == 0 || start.elapsed() < budget {
        let mut router = Router {
            cores: cores(tree, objects),
            queue: VecDeque::new(),
            actions: Vec::new(),
            journal: None,
            step: 0,
        };
        let t = Instant::now();
        spans::time("arrow_core.live.core", "replay", || {
            router.replay(black_box(seq))
        });
        ns += t.elapsed().as_nanos();
        acquires += seq.len();
    }

    // The codec alone over the replay's frame mix.
    let frames = &journal.frames;
    let mut buf = Vec::with_capacity(frames.len() * 32);
    let (mut enc_ns, mut enc_n) = (0u128, 0usize);
    let start = Instant::now();
    while enc_n == 0 || start.elapsed() < budget / 2 {
        buf.clear();
        let t = Instant::now();
        spans::time("arrow_net.wire", "Frame::encode_into", || {
            for f in frames {
                f.encode_into(&mut buf);
            }
        });
        enc_ns += t.elapsed().as_nanos();
        enc_n += frames.len();
        black_box(&buf);
    }
    match scan_all(&buf) {
        Ok(decoded) => out.check(decoded == *frames, || {
            "wire round trip changed the frames".to_string()
        }),
        Err(e) => out.check(false, || format!("wire scan failed: {e}")),
    }
    let (mut scan_ns, mut scan_n) = (0u128, 0usize);
    let start = Instant::now();
    while scan_n == 0 || start.elapsed() < budget / 2 {
        let t = Instant::now();
        let scanned = spans::time("arrow_net.wire", "Frame::scan", || {
            let mut rest = black_box(&buf[..]);
            let mut n = 0usize;
            while let Ok(Some((frame, used))) = Frame::scan(rest) {
                black_box(frame);
                rest = &rest[used..];
                n += 1;
            }
            n
        });
        scan_ns += t.elapsed().as_nanos();
        scan_n += scanned;
    }
    Floors {
        core_ns_per_acquire: ns as f64 / acquires as f64,
        encode_ns: enc_ns as f64 / enc_n.max(1) as f64,
        scan_ns: scan_ns as f64 / scan_n.max(1) as f64,
        frames: frames.len(),
    }
}

fn scan_all(mut buf: &[u8]) -> Result<Vec<Frame>, arrow_net::WireError> {
    let mut frames = Vec::new();
    while let Some((frame, used)) = Frame::scan(buf)? {
        frames.push(frame);
        buf = &buf[used..];
    }
    Ok(frames)
}
