//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out as
//! JSON lines.

use std::io::Write;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Identifier shared by every span of one traced operation (a graph's
    /// V-cycle, a serve job).
    pub op: String,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Counters recorded at the same boundary (kernel-log deltas).
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    workload: String,
    op: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            op: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans recorded from now on with operation id `op`.
    pub fn set_op(&mut self, op: &str) {
        self.op = op.to_string();
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s result and the span's index.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op.clone(),
            parent: self.open.last().copied(),
            start: self.now(),
            end: f64::NAN,
            counters: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (out, id)
    }

    /// Record a root span timed by the caller (for spans measured on
    /// other threads).
    pub fn record(&mut self, op: &str, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            op: op.to_string(),
            parent: None,
            start: start.saturating_duration_since(self.epoch).as_secs_f64(),
            end: end.saturating_duration_since(self.epoch).as_secs_f64(),
            counters: Vec::new(),
        });
    }

    /// Attach counters to span `id`.
    pub fn add_counters(&mut self, id: usize, counters: Vec<(String, u64)>) {
        self.spans[id].counters.extend(counters);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let counters: Vec<String> =
                s.counters.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
            writeln!(
                w,
                "{{\"id\":{id},\"workload\":{},\"op\":{},\"name\":{},\"parent\":{},\
                 \"start_s\":{:.9},\"end_s\":{:.9},\"counters\":{{{}}}}}",
                json_str(&self.workload),
                json_str(&s.op),
                json_str(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start,
                s.end,
                counters.join(",")
            )?;
        }
        w.flush()
    }
}

/// A JSON string literal (the benchmark's names need no escapes beyond
/// quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name: String::new(), op: String::new(), parent, start, end, counters: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![span(None, 0.0, 10.0), span(Some(0), 1.0, 3.0), span(Some(0), 4.0, 8.0)];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 4.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![span(None, 0.0, 10.0), span(Some(0), 1.0, 5.0), span(Some(0), 3.0, 7.0)];
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_clips_children() {
        // Grandchild time is already inside its parent's child interval;
        // a child that outlives its parent is clipped to the parent.
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 2.0, 6.0),
            span(Some(1), 3.0, 4.0),
            span(Some(0), 9.0, 12.0),
        ];
        assert_eq!(self_times(&spans), vec![5.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_ops() {
        let mut t = Tracer::new("w");
        t.set_op("g1");
        let ((), root) = t.span("root", |t| {
            t.span("child", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[1].op, "g1");
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let st = self_times(s);
        assert!(st[0] >= 0.0 && st[0] <= s[0].duration());
    }
}
