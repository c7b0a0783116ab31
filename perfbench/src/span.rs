//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in a span: name, start, end, parent span and request id. Spans
//! stay in memory and are written out as JSON lines when the run ends. A
//! span's *self time* is its duration minus the part of it that its child
//! spans cover. With tracing off the same calls are timed but nothing is
//! recorded, so the untraced run pays only for `Instant::now`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span that carries one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: f64,
}

impl SelfTime {
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns, self.count as f64)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve a span id, so children can name their parent before it
    /// closes. 0 when tracing is off.
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record the interval `[start, end]` under an id from [`Tracer::open`].
    pub fn close(
        &self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Record `[start, end]` as a fresh span; returns its id.
    pub fn record(
        &self,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open();
        self.close(id, parent, request, name, start, end);
        id
    }

    /// Time `f` as a span named `name`. `f` receives the span's id so it
    /// can open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.close(id, parent, request, name, start, end);
        (out, end - start)
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns().saturating_sub(covered) as f64;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_clipped_and_merged() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 2, 25), 13 + 5);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.open();
        t.record(root, 1, "child", at(1), at(3));
        t.record(root, 1, "child", at(4), at(5));
        t.close(root, 0, 1, "root", at(0), at(10));
        let st = t.self_times();
        assert_eq!(st["root"].count, 1);
        assert!((st["root"].total_ns - 7e6).abs() < 1.0);
        assert!((st["child"].total_ns - 3e6).abs() < 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", 0, 0, |id| id);
        assert_eq!(v, 0);
        assert!(d >= Duration::ZERO);
        assert!(t.is_empty());
    }
}
