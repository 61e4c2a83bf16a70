//! In-memory spans recorded around the benchmark's calls into the
//! program's layers, written out as JSONL when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric stem, e.g. `"core.dodin"`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The campaign or request the span belongs to.
    pub id: String,
}

/// A single-threaded span recorder.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: RefCell<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: RefCell::new(String::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with a campaign or request id.
    pub fn set_id(&self, id: &str) {
        *self.id.borrow_mut() = id.to_string();
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent: self.open.borrow().last().copied(),
                id: self.id.borrow().clone(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }

    /// Record an already-measured interval (e.g. from another thread)
    /// as a top-level span.
    pub fn record(&self, name: &'static str, start: u64, end: u64, id: &str) {
        self.spans.borrow_mut().push(Span {
            name,
            start,
            end,
            parent: None,
            id: id.to_string(),
        });
    }

    /// The finished spans, in start order of recording.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Render spans as JSONL: one object per span with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for ((i, s), own) in spans.iter().enumerate().zip(self_times(spans)) {
        out.push_str(&format!(
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"id\":\"{}\"}}\n",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.id
        ));
    }
    out
}
