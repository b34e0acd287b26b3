//! The benchmark's own span ledger: spans recorded around each call into
//! a layer's public functions, kept in memory and written out at the end.
//!
//! A span's layer is its name up to the first `.` (`lang.compile` is
//! `lang`). A layer's self time is the sum of its spans' durations minus
//! the time their direct children cover; spans opened from one thread
//! nest sequentially, so children never overlap.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the ledger, in opening order.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Which workload item (class, job) the span belongs to.
    pub job: u64,
    /// Nanoseconds since the ledger's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the ledger's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The ledger's lock is held only to push a span or bump the id counter.
const POISONED: &str = "a thread panicked while recording a span";

/// Span recorder. When off, [`Ledger::span`] only calls its closure.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    epoch: Instant,
    inner: Mutex<(u64, Vec<Span>)>,
}

impl Ledger {
    /// A recording ledger (`on`) or an inert one.
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            epoch: Instant::now(),
            inner: Mutex::new((0, Vec::new())),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (to parent nested spans), or `None` when the ledger is off.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut g = self.inner.lock().expect(POISONED);
            g.0 += 1;
            g.0
        };
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.inner.lock().expect(POISONED).1.push(Span {
            id,
            parent,
            name,
            job,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Takes every finished span, in closing order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.lock().expect(POISONED).1)
    }
}

/// Self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// JSON Lines, one span per line, in opening order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    let mut out = String::new();
    for s in sorted {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.name, s.job, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_time_subtracts_children() {
        let l = Ledger::new(true);
        l.span("bench.job", None, 7, |root| {
            spin(2);
            l.span("core.synth", root, 7, |synth| {
                spin(2);
                l.span("screen.pairs", synth, 7, |_| spin(3));
            });
        });
        let spans = l.take();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.job == 7));
        let by = self_time_by_layer(&spans);
        let job = total_ns(&spans, "bench.job");
        let sum: u64 = by.values().sum();
        assert_eq!(sum, job, "self times partition the root span");
        assert!(by["screen"] >= 3_000_000);
        assert!(by["core"] >= 2_000_000 && by["core"] < total_ns(&spans, "core.synth"));
    }

    #[test]
    fn off_ledger_records_nothing() {
        let l = Ledger::new(false);
        let v = l.span("lang.compile", None, 0, |id| {
            assert_eq!(id, None);
            5
        });
        assert_eq!(v, 5);
        assert!(l.take().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let l = Ledger::new(true);
        l.span("a.x", None, 1, |p| l.span("b.y", p, 1, |_| ()));
        let text = to_jsonl(&l.take());
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
