//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! public call (point sampling, the offline build, one harness run, a
//! probe), and its self time is its duration minus the part its child
//! spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.theta_build`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per span, so the plain run measures the program alone.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON lines: `id`, `parent`, `name`, `start_ns`,
    /// `end_ns`, `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(tr.self_ns(0) < spans[0].end_ns - spans[0].start_ns);
        assert_eq!(tr.durations("inner").len(), 1);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
