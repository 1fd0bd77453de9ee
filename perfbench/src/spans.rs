//! The traced run's span recorder: every timed call into a layer gets a
//! span (name, start, end, parent), kept in memory and written out as
//! JSON lines when the run ends. Layer metrics are computed from the
//! spans, so the file and the printed numbers cannot disagree.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.query.sa`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// An append-only span list sharing one time origin with its forks.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// An empty recorder on the same clock, for another thread; fold it
    /// back with [`Spans::absorb`].
    pub fn fork(&self) -> Self {
        Self { origin: self.origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames span `id` (for spans whose kind is known only once the
    /// timed call returns).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Moves `other`'s spans (recorded on a fork) into this recorder,
    /// re-parenting its roots under `parent`.
    pub fn absorb(&mut self, other: Spans, parent: Option<SpanId>) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_absorb_forks() {
        let mut spans = Spans::new();
        let root = spans.open("root", None);
        let x = spans.time("child", Some(root), || 7);
        assert_eq!(x, 7);
        let mut fork = spans.fork();
        let f = fork.open("forked", None);
        fork.time("grandchild", Some(f), || ());
        fork.close(f);
        spans.absorb(fork, Some(root));
        spans.close(root);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.spans[2].parent, Some(root));
        assert_eq!(spans.spans[3].parent, Some(2));
        assert_eq!(spans.durations("child").len(), 1);
        assert!(spans.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
