//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, request)`; spans of one request
//! share its identifier and nest by `parent` (an index into the same list).
//! A disabled tracer records nothing and its `span` is the bare call, which
//! is what the untraced end-to-end run uses. Spans are kept in memory and
//! written once, after the workload, as `trace-<workload>.json`.

use std::path::Path;
use std::time::Instant;

use experiments::json::Json;

/// `parent` of a span with no enclosing span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock; hand it back with
    /// [`absorb`](Self::absorb) when the thread is done.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Runs `f` inside a span; the span's parent is the innermost span open
    /// on this tracer.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).sum::<f64>() / 1e9
    }

    /// Duration of each span called `name`, in nanoseconds.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
    }

    /// Writes the spans as one JSON document:
    /// `{"workload", "seed", "spans": [[name, start_ns, end_ns, parent, request], ...]}`
    /// with `parent` −1 for a root span.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        out.push_str(&format!(
            "{{\"workload\":{},\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":[\n",
            Json::Str(workload.to_string()).pretty()
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "[\"{}\",{},{},{parent},{}]{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].request == 7 && spans[0].end_ns >= spans[1].end_ns);
        assert!(t.total_s("outer") >= t.total_s("inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_is_json() {
        let mut t = Tracer::new(true);
        t.span("a", 1, |t| t.span("b", 1, |_| ()));
        let path = crate::out_dir().join("trace-unit-test.json");
        t.write(&path, "w", 3).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            panic!("no spans")
        };
        assert_eq!(spans.len(), 2);
    }
}
