//! Host-side spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written once, as Chrome-trace JSON, when
//! the traced run ends. Spans inside the program are the simulator's own
//! tracer (`Sim::set_tracing`); these cover what it cannot see: world
//! construction, load, the run itself, the audit, each isolated cell.

use std::time::Instant;

/// One closed or still-open host span.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// What ran.
    pub name: String,
    /// Workload the span belongs to (the shared identifier).
    pub workload: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock; `None` while open.
    pub end_ns: Option<u64>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    workload: String,
    stack: Vec<usize>,
    spans: Vec<HostSpan>,
}

impl Spans {
    /// An empty recorder for `workload`.
    pub fn new(workload: &str) -> Self {
        Spans {
            epoch: Instant::now(),
            workload: workload.to_owned(),
            stack: Vec::new(),
            spans: Vec::with_capacity(1 << 12),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns `f`'s value and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(HostSpan {
            name: name.to_owned(),
            workload: self.workload.clone(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: None,
        });
        self.stack.push(index);
        let value = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = Some(end_ns);
        (value, end_ns - start_ns)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let total = span.end_ns.unwrap_or(span.start_ns) - span.start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns.unwrap_or(s.start_ns) - s.start_ns)
            .sum();
        total.saturating_sub(children)
    }

    /// Chrome-trace ("Trace Event Format") JSON, loadable in Perfetto.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let end = s.end_ns.unwrap_or(s.start_ns);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                crate::json::quote(&s.name),
                crate::json::quote(&s.workload),
                s.start_ns as f64 / 1e3,
                (end - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("]}");
        out
    }
}
