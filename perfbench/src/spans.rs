//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Spans are kept in memory (per thread) and written out at the end
//! as a Chrome trace-event document that Perfetto loads.
//!
//! Recording is off unless [`start`] was called on the thread, so untraced
//! runs pay one thread-local check per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the call went into (a module name, or `perfbench`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since [`start`].
    pub start_ns: u64,
    /// End, nanoseconds since [`start`].
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id, for the lifetime spans of `net` acquires.
    pub req: Option<u64>,
    /// Node track for request-lifetime spans (they overlap on the driver
    /// thread, so they do not nest and count towards no layer's self time).
    pub track: Option<usize>,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Begin recording on this thread (drops anything recorded before).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stop recording on this thread and return the spans.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// An open span; it closes when dropped.
pub struct Guard(Option<u32>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let now = tr.t0.elapsed().as_nanos() as u64;
                tr.spans[idx as usize].end_ns = now;
                if tr.stack.last() == Some(&idx) {
                    tr.stack.pop();
                }
            }
        });
    }
}

/// Open a span for a call into `layer`.
pub fn enter(layer: &'static str, name: &'static str) -> Guard {
    Guard(TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let idx = tr.spans.len() as u32;
        let now = tr.t0.elapsed().as_nanos() as u64;
        tr.spans.push(Span {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: tr.stack.last().copied(),
            req: None,
            track: None,
        });
        tr.stack.push(idx);
        Some(idx)
    }))
}

/// Run `f` inside a span for a call into `layer`.
pub fn time<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(layer, name);
    f()
}

/// `at` as nanoseconds since recording started on this thread (0 when off).
pub fn ns_at(at: Instant) -> u64 {
    TRACER.with(|t| {
        t.borrow().as_ref().map_or(0, |tr| {
            at.saturating_duration_since(tr.t0).as_nanos() as u64
        })
    })
}

/// Record the lifetime of one request (`net` acquires: due time to grant),
/// on the track of its issuing node, under the innermost open span.
pub fn request(name: &'static str, node: usize, req: u64, start_ns: u64, end_ns: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let parent = tr.stack.last().copied();
            tr.spans.push(Span {
                layer: "arrow_net",
                name,
                start_ns,
                end_ns,
                parent,
                req: Some(req),
                track: Some(node),
            });
        }
    });
}

/// Self time per layer: each nesting span's duration minus the part its
/// child spans cover, summed by layer (seconds). Request-lifetime spans are
/// left out: they overlap each other and the calls that serve them.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.track.is_none()) {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.track.is_none()) {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Render spans as a Chrome trace-event document (the shape
/// `arrow_trace::chrome` emits): nesting spans on track 0, request
/// lifetimes on one track per node.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut tracks: Vec<usize> = spans.iter().filter_map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut events = vec![
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", \
         \"args\": {\"name\": \"benchmark\"}}"
            .to_string(),
    ];
    for n in &tracks {
        events.push(format!(
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"node {n} requests\"}}}}",
            n + 1
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let tid = s.track.map_or(0, |n| n + 1);
        let parent = s.parent.map_or(-1, i64::from);
        let req = s.req.map_or(-1, |r| r as i64);
        events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{\"id\": {i}, \"parent\": {parent}, \
             \"req\": {req}}}}}",
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.name,
            s.layer
        ));
    }
    out.push_str("    ");
    out.push_str(&events.join(",\n    "));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_requests() {
        let spans = vec![
            Span {
                layer: "perfbench",
                name: "phase",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: None,
                track: None,
            },
            Span {
                layer: "arrow_net",
                name: "call",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: None,
                track: None,
            },
            Span {
                layer: "arrow_net",
                name: "acquire",
                start_ns: 5,
                end_ns: 95,
                parent: Some(0),
                req: Some(7),
                track: Some(3),
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["perfbench"], 70e-9);
        assert_eq!(st["arrow_net"], 30e-9);
        let doc = chrome_json(&spans);
        assert_eq!(arrow_trace::chrome::parse_check(&doc), Ok(5));
    }

    #[test]
    fn spans_nest_and_record_nothing_when_off() {
        {
            let _g = enter("netgraph", "off");
        }
        start();
        {
            let _outer = enter("perfbench", "outer");
            time("netgraph", "inner", || ());
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(finish().is_empty(), "recording stopped");
    }
}
