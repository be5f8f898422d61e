//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    /// Layer-qualified name, e.g. `uarch.measure`.
    pub name: &'static str,
    /// Identifier shared by the spans of one cell or request.
    pub key: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
}

/// A span recorder; a disabled one runs the closures without timing them.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = self.origin.elapsed().as_secs_f64();
        let idx = self.record(name, key, start, start);
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        r
    }

    /// Records an interval timed elsewhere (client-side event
    /// timestamps), nested under the innermost open span.
    pub fn record_at(
        &mut self,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let (s, e) = (at(start), at(end));
        self.record(name, key, s, e)
    }

    fn record(&mut self, name: &'static str, key: u64, start: f64, end: f64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(Span { name, key, parent, start, end });
        self.spans.len() - 1
    }

    /// Opens an already-recorded span so later records nest under it.
    pub fn enter(&mut self, idx: usize) {
        self.open.push(idx);
    }

    /// Closes the innermost span opened with [`Tracer::enter`].
    pub fn exit(&mut self) {
        self.open.pop();
    }

    /// Duration of span `idx`, in seconds.
    pub fn duration(&self, idx: usize) -> f64 {
        self.spans[idx].end - self.spans[idx].start
    }

    /// Total self time per span name over every span: each span's
    /// duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self.self_times_where(|_| true)
    }

    /// [`Tracer::self_times`] over span `root` and its descendants only.
    pub fn subtree_self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        // A parent is always recorded before its children.
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
        }
        self.self_times_where(|i| inside[i])
    }

    fn self_times_where(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, (s, c)) in self.spans.iter().zip(child).enumerate() {
            if keep(i) {
                *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c).max(0.0);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"key\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.key, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Runs the sequence `seq` untraced, traced, then untraced again, and
/// returns the traced run's tracer and output with the mean of the two
/// untraced walls, so the tracing overhead is not confounded with drift
/// between the runs. `seq` returns its output with its own wall.
pub fn traced<T>(
    mut seq: impl FnMut(&mut Tracer) -> Result<(T, f64), String>,
) -> Result<(Tracer, T, f64), String> {
    let (_, before) = seq(&mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let (out, _) = seq(&mut tr)?;
    let (_, after) = seq(&mut Tracer::new(false))?;
    Ok((tr, out, (before + after) / 2.0))
}
