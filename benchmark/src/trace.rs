//! Benchmark-side spans: one record per call into a layer, kept in
//! memory for the whole run and written out when it ends.
//!
//! A span records its name, start, end, parent span and the unit (pass,
//! edit or batch) it belongs to.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `ast.parse`.
    pub name: &'static str,
    /// Unit the span belongs to.
    pub unit: u32,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall nanoseconds the span covers.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span and counter sink.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Unit that spans opened from now on belong to.
    pub unit: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            unit: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            unit: self.unit,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> Duration {
        let i = self.stack.pop().expect("close() matches an open()");
        let end = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end;
        Duration::from_nanos(span.ns())
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, sorted.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.secs(name).iter().sum()
    }

    /// Seconds the outermost spans cover.
    pub fn attributed(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns() as f64 * 1e-9)
            .sum()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            unit: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps its sibling: counted once
            span(60, 70, Some(0)),
            span(25, 40, Some(2)),  // grandchild: not the root's business
            span(95, 120, Some(0)), // clipped to the parent's end
        ];
        let own = self_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 5);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 15);
        assert_eq!(own[4], 15);
    }

    #[test]
    fn spans_nest_and_only_the_outermost_are_attributed() {
        let mut rec = Recorder::new();
        rec.open("outer");
        rec.time("inner", || std::thread::sleep(Duration::from_millis(2)));
        let outer = rec.close();
        rec.count("n", 2);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(rec.total("inner") >= 0.002);
        assert!((rec.attributed() - outer.as_secs_f64()).abs() < 1e-12);
        assert_eq!(rec.counter("n"), 2);
    }
}
