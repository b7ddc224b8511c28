//! The traced mode's span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around its
//! calls into each crate's public functions; nothing inside the program
//! is instrumented. Each span has a name, a start, an end and a parent,
//! and every span of one item or request carries that item's trace id.
//! Spans stay in memory and are written out when the run ends.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`]'s span list.
    pub parent: Option<usize>,
}

/// Records the spans of one trace (one item, or one request).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, trace: u64) -> Self {
        Tracer {
            epoch,
            trace,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let at = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            trace: self.trace,
            name,
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open one.
    pub fn close(&mut self, idx: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time per span name, in nanoseconds, over the spans of one trace
/// (`spans[i].parent` indexes into `spans`).
pub fn self_times(spans: &[Span], into: &mut BTreeMap<&'static str, f64>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(
            s.start_ns,
            s.end_ns,
            children[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns)),
        );
        *into.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64;
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Write every trace's spans as JSON lines to `path`, creating its
/// directory. Parents are rewritten as span ids unique within the trace.
pub fn write_jsonl(path: &std::path::Path, traces: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in traces {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

/// The self-time table the traced mode prints to stderr: one row per
/// span name, with its share of all self time.
pub fn render_table(self_ns: &BTreeMap<&'static str, f64>) -> String {
    let grand: f64 = self_ns.values().sum();
    let mut rows: Vec<(&&str, &f64)> = self_ns.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    let mut out = format!("{:<28} {:>12} {:>7}\n", "span", "self ms", "share");
    for (name, ns) in rows {
        let share = if grand > 0.0 { 100.0 * ns / grand } else { 0.0 };
        out.push_str(&format!("{name:<28} {:>12.3} {share:>6.1}%\n", ns / 1e6));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            trace: 1,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100] has children a [10,40] and b [30,60] (overlapping:
        // their union covers 50), a has child c [15,20], and d sits
        // partly outside its parent b, so only its overlap counts.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 15, 20, Some(1)),
            span("d", 55, 70, Some(2)),
        ];
        let mut st = BTreeMap::new();
        self_times(&spans, &mut st);
        assert_eq!(st["root"], 50.0);
        assert_eq!(st["a"], 25.0);
        assert_eq!(st["b"], 25.0);
        assert_eq!(st["c"], 5.0);
        assert_eq!(st["d"], 15.0);
    }

    #[test]
    fn self_times_accumulate_per_name() {
        let spans = vec![
            span("item", 0, 10, None),
            span("x", 1, 3, Some(0)),
            span("x", 5, 9, Some(0)),
        ];
        let mut st = BTreeMap::new();
        self_times(&spans, &mut st);
        self_times(&spans, &mut st);
        assert_eq!(st["x"], 12.0);
        assert_eq!(st["item"], 8.0);
        assert_eq!(total_ns(&spans, "x"), 6);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new(Instant::now(), 9);
        let root = t.open("root");
        t.time("child", || std::hint::black_box(3 + 4));
        t.close(root);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 9 && s.start_ns <= s.end_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
