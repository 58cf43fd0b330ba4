//! In-memory spans recorded by the traced run, their self times, and the
//! Chrome trace-event export.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer; the program itself is not instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use equalizer_obs::json::escape_json;

/// One timed interval on one worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `governor.epoch`.
    pub name: &'static str,
    /// Free-form detail (an op's label), empty when none.
    pub label: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Benchmark worker that ran it (the Chrome `tid`).
    pub worker: usize,
    /// Start, in ns since the shared trace origin.
    pub start_ns: u64,
    /// End, in ns since the shared trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans for one op on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    worker: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (shared by every
    /// worker, so spans from different threads line up).
    pub fn new(origin: Instant, worker: usize) -> Self {
        Self {
            origin,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Now, in ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, label: String) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            label,
            parent: self.open.last().copied(),
            worker: self.worker,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` and any span still open inside it; returns the
    /// duration of `id` in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].dur_ns()
    }

    /// Closes every open span and returns the recording.
    pub fn finish(mut self) -> Vec<Span> {
        if let Some(&root) = self.open.first() {
            self.end(root);
        }
        self.spans
    }
}

/// Appends `spans` (indexed from 0) to `all`, rebasing parent indices.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// How much of `[start, end)` the intervals cover, counting overlaps once.
pub fn covered_ns(start: u64, end: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let cover = covered_ns(
                s.start_ns,
                s.end_ns,
                kids.iter().map(|&k| (spans[k].start_ns, spans[k].end_ns)),
            );
            s.dur_ns() - cover
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Renders spans as Chrome trace-event JSON (complete `X` events,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(workload)
    ));
    for s in spans {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.worker,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        ));
        if !s.label.is_empty() {
            out.push_str(&format!(
                ",\"args\":{{\"label\":\"{}\"}}",
                escape_json(&s.label)
            ));
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            label: String::new(),
            parent,
            worker: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("epoch", Some(0), 10, 60),
            span("governor.epoch", Some(1), 20, 30),
            // Overlaps its sibling and pokes out of the parent: only the
            // uncovered, in-parent part counts once.
            span("observer", Some(1), 25, 70),
            span("power.energy", Some(0), 80, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 10, 45, 10]);
        let named = by_name(&spans);
        assert_eq!(named["epoch"], (1, 50, 10));
        assert_eq!(covered_ns(0, 10, [(2, 4), (3, 6), (8, 20)]), 6);
        assert_eq!(covered_ns(5, 10, []), 0);
    }

    #[test]
    fn tracer_nests_and_closes_open_spans() {
        let mut t = Tracer::new(Instant::now(), 3);
        let op = t.begin("op", "k/s".into());
        let inner = t.begin("engine.new", String::new());
        t.end(inner);
        let _left_open = t.begin("epoch", String::new());
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[2].parent, Some(op));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.worker == 3));
        let mut all = vec![span("figure", None, 0, 1)];
        append(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut spans = vec![
            span("op", None, 1_000, 9_000),
            span("engine.new", Some(0), 1_500, 2_000),
        ];
        spans[0].label = "mri-q/\"P\"\n".into();
        let text = chrome_json(&spans, "sweep-compute");
        equalizer_obs::json::validate(&text).unwrap();
        assert!(
            text.contains("\"ph\":\"X\"") && text.contains("\"ts\":1.5"),
            "{text}"
        );
    }
}
