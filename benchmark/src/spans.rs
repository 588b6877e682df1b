//! In-memory spans recorded around the calls into each layer, written out
//! as a Chrome trace (`chrome://tracing`, Perfetto) when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the recorder's span list; spans of
/// one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Lane (thread) the span was recorded on.
    pub lane: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// Appends spans for one lane; lanes merge their recorders at the end.
pub struct Recorder {
    origin: Instant,
    lane: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of a run share `origin`, so their spans line up.
    pub fn new(origin: Instant, lane: u64) -> Recorder {
        Recorder {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            lane: self.lane,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Time `f` as a child of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.begin(name, Some(parent), request);
        let out = f();
        self.end(span);
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_us)
    }

    /// Move another lane's spans in, keeping parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// True when every child lies inside its parent's interval and shares
    /// its request id.
    pub fn well_nested(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => true,
            Some(p) => {
                let parent = &self.spans[p];
                parent.start_ns <= s.start_ns
                    && s.end_ns <= parent.end_ns
                    && parent.request == s.request
            }
        })
    }

    /// Write complete (`"ph":"X"`) events, one per span, timestamps in µs.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            // Span names are identifiers chosen in this crate: no escaping needed.
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1_000.0,
                (s.end_ns - s.start_ns) as f64 / 1_000.0,
                s.request,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .expect("writing to a String");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_survive_a_merge() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0);
        let root = a.begin("request", None, 1);
        a.child("layer", root, || std::hint::black_box(2 + 2));
        a.end(root);
        let mut b = Recorder::new(origin, 1);
        let root_b = b.begin("request", None, 2);
        b.child("layer", root_b, || ());
        b.end(root_b);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert!(a.well_nested());
        assert_eq!(a.durations_us("layer").count(), 2);
    }
}
