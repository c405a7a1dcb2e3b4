//! Host-time spans the benchmark records around its calls into each layer:
//! name, start, end, parent, and one run id. They stay in memory and are
//! written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the run started.
#[derive(Debug, Clone)]
struct Span {
    /// What the span timed (`layer.call`).
    name: &'static str,
    start_ns: u64,
    /// 0 while the span is open.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// An in-memory span recorder for one benchmark run.
#[derive(Debug)]
pub struct Spans {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose spans all carry `run` as their run id.
    pub fn new(run: String) -> Spans {
        Spans {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"run\":\"{}\",\"spans\":[", self.run);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}
