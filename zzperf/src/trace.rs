//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer's
//! public functions. A span records its name, start, end, parent and
//! request id; spans stay in memory until the run ends, when
//! [`Tracer::write_ndjson`] writes them out. A layer's *self time* is its
//! span minus the part of that interval its child spans cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span (layer) name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (0 = set-up).
    pub request: u64,
}

/// The span store. `None` everywhere a workload runs untraced, so the
/// untraced path pays nothing beyond an `Option` check.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store is never poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&self, index: usize) {
        let end = self.now();
        self.spans.lock().expect("span store is never poisoned")[index].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, request);
        let out = f();
        self.close(index);
        out
    }

    /// Every span's self time (seconds), in span order.
    pub fn self_times(&self) -> Vec<(Span, f64)> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let covered = children
                    .get(&i)
                    .map_or(0, |kids| covered_within(kids, span.start, span.end));
                let own = (span.end - span.start).saturating_sub(covered);
                (span.clone(), own as f64 * 1e-9)
            })
            .collect()
    }

    /// Writes every span as one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store is never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when `tracer` is present, plainly otherwise.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, f),
        None => f(),
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_within(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in v {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_once_even_when_they_overlap() {
        assert_eq!(covered_within(&[(2, 5), (4, 8), (20, 30)], 0, 10), 6);
        assert_eq!(covered_within(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::default();
        let root = tracer.open("root", None, 1);
        tracer.span("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.close(root);
        let times = tracer.self_times();
        let total: f64 = times.iter().map(|(_, t)| t).sum();
        let root_span = &times[0].0;
        let root_len = (root_span.end - root_span.start) as f64 * 1e-9;
        assert!((total - root_len).abs() < 1e-9);
        assert!(times[1].1 >= 0.005);
    }
}
