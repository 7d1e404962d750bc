//! In-memory spans around calls into each layer, written once at exit as
//! Chrome trace-event JSON (Perfetto and `chrome://tracing` open it).
//!
//! A span has a name, a start and end, the span that caused it, the
//! workload it ran under, and a lane (the thread it ran on, so parallel
//! work shows side by side). Kernels that time many sub-microsecond calls
//! record one span per batch with its call count, so the per-call figure
//! is the span's duration divided by its calls. A disabled tracer records
//! nothing, so untraced runs pay nothing for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.solve` or `exp.fig01_power_law`.
    pub name: String,
    /// The workload (or `layers`) the span ran under.
    pub workload: &'static str,
    /// Thread lane for display.
    pub lane: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Calls the span covers (1 unless a kernel batched them).
    pub calls: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    workload: &'static str,
    lane: u64,
    start: Option<Instant>,
}

impl Open {
    /// This span's id, to pass as the parent of its children (`None` when
    /// the tracer is disabled).
    pub fn id(&self) -> Option<u64> {
        self.start.map(|_| self.id)
    }

    /// Renames the span before it ends (e.g. a lookup that turned out to
    /// be a hit).
    pub fn rename(&mut self, name: &str) {
        if self.start.is_some() {
            self.name = name.to_string();
        }
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span.
    pub fn begin(
        &self,
        name: impl Into<String>,
        workload: &'static str,
        parent: Option<u64>,
        lane: u64,
    ) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent: None,
                name: String::new(),
                workload,
                lane,
                start: None,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            workload,
            lane,
            start: Some(Instant::now()),
        }
    }

    /// Ends a span covering one call.
    pub fn end(&self, open: Open) {
        self.end_calls(open, 1);
    }

    /// Ends a span covering `calls` calls.
    pub fn end_calls(&self, open: Open, calls: u64) {
        let Some(start) = open.start else {
            return;
        };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            workload: open.workload,
            lane: open.lane,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            calls: calls.max(1),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A copy of every finished span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (children may overlap one another when they
/// ran on parallel lanes; overlap is counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds), with `metadata` (already-rendered JSON values keyed
/// by name) under `otherData`.
pub fn chrome_trace_json(spans: &[Span], metadata: &[(&str, String)]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"calls\":{},\"self_us\":{:.3}}}}}",
            escape(&s.name),
            s.workload,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.lane,
            s.id,
            parent,
            s.calls,
            self_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e3,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{");
    for (i, (key, value)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{value}", escape(key)));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            workload: "layers",
            lane: 0,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children on parallel lanes cover 10..60.
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 60),
            // A child running past its parent only counts inside it.
            span(4, Some(1), 90, 120),
            // A grandchild does not reduce the grandparent directly.
            span(5, Some(2), 20, 40),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 40 - 20);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let open = tracer.begin("x", "layers", None, 0);
        assert_eq!(open.id(), None);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_divides_batches() {
        let tracer = Tracer::new(true);
        let outer = tracer.begin("outer", "layers", None, 0);
        let inner = tracer.begin("inner", "layers", outer.id(), 1);
        tracer.end_calls(inner, 4);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].calls, 4);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let spans = [span(1, None, 0, 2000), span(2, Some(1), 500, 1500)];
        let text = chrome_trace_json(&spans, &[("seed", "7".to_string())]);
        let doc = bandwall_experiments::serve::json::Json::parse(&text).expect("valid JSON");
        let events = doc.as_obj().expect("object")["traceEvents"]
            .as_arr()
            .expect("event array");
        assert_eq!(events.len(), 2);
        let args = events[0].as_obj().expect("event")["args"]
            .as_obj()
            .expect("args");
        assert_eq!(args["self_us"].as_num(), Some(1.0));
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
