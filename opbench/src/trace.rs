//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by benchmark code around calls into each layer's
//! public functions (name, start, end, parent, run id) and written out as
//! JSON lines when the run ends. A disabled tracer records nothing and
//! costs one branch per call, so the untraced runs that give the
//! end-to-end figures pay no tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Thread-safe span sink (epoch writes are recorded from the daemon's
/// engine worker thread).
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the part covered by child spans.
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off (the traced run alternates traced and
    /// untraced iterations to measure the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Allocates a span id for a span whose interval is recorded later
    /// with [`Tracer::record`] (used for roots whose children need the id).
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Records an interval measured by the caller.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        run: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span sink poisoned").push(Span {
            id,
            parent,
            name,
            run,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u32,
        body: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return body();
        }
        let id = self.open();
        let start = Instant::now();
        let value = body();
        self.record(id, parent, name, run, start, Instant::now());
        value
    }

    /// Per-name totals and self times. A span's self time is its duration
    /// minus the union of its children's intervals, clipped to the span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_s += total as f64 * 1e-9;
            entry.self_s += total.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root = t.open();
        let base = t.origin;
        let at = |ms: u64| base + std::time::Duration::from_millis(ms);
        t.record(root, None, "root", 0, at(0), at(100));
        t.record(t.open(), Some(root), "child", 0, at(10), at(40));
        t.record(t.open(), Some(root), "child", 0, at(30), at(50));
        let layers = t.layers();
        assert!((layers["root"].self_s - 0.060).abs() < 1e-6);
        assert!((layers["child"].total_s - 0.050).abs() < 1e-6);
        assert_eq!(layers["child"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.layers().is_empty());
    }
}
