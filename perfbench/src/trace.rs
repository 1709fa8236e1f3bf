//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, its parent span, and the id of the
//! cell or request it belongs to. Spans stay in memory and are written out
//! once at the end of the run; a layer's self time is its spans' duration
//! minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `sched.slack`.
    pub name: &'static str,
    /// The cell or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<u32>,
    /// Nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover, nanoseconds.
    pub self_ns: u64,
}

/// A span recorder for one thread. Traces from several threads share an
/// epoch and are merged with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_ns: u64,
}

impl Tracer {
    /// An empty trace whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            last_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through
    /// the tracer it is handed) become children of this one.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        self.last_ns = end_ns - start_ns;
        out
    }

    /// Duration of the span that closed most recently, in milliseconds.
    #[must_use]
    pub fn last_ms(&self) -> f64 {
        self.last_ns as f64 / 1e6
    }

    /// Every span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's trace (same epoch), re-indexing its parent
    /// links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(child);
        }
        out
    }

    /// Mean microseconds per span named `name` (`0` when none).
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .filter(|l| l.count > 0)
            .map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.count as f64)
    }

    /// The printed per-layer self-time table.
    #[must_use]
    pub fn table(&self) -> String {
        let layers = self.layers();
        let all_self: u64 = layers.values().map(|l| l.self_ns).sum();
        let mut out = format!(
            "{:<24} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        );
        for (name, l) in &layers {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * crate::stats::ratio(l.self_ns as f64, all_self as f64)
            );
        }
        out
    }

    /// The span file: provenance plus every span, as one JSON document.
    #[must_use]
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"provenance\":{provenance},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let l = t.layers();
        assert_eq!(l["outer"].count, 1);
        assert!(l["inner"].total_ns >= 5_000_000);
        assert!(l["outer"].self_ns < l["inner"].total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", 0, |_| ());
        let mut b = Tracer::new(epoch);
        b.span("y", 1, |t| t.span("z", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_json("{}").contains("\"name\":\"z\""));
    }
}
