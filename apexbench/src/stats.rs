//! Order statistics and span arithmetic.
//!
//! Everything here is pure so the rules the report depends on are unit
//! tested: the nearest-rank quantile, the tail-percentile rule (the
//! highest percentile with at least ten samples beyond it), and the
//! self-time / `unattributed` arithmetic of the traced run.

use std::time::{Duration, Instant};

/// Percentiles the tail metric may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples (the slack
/// keeps `0.9 · 10` from rounding up to rank 10).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, for `n` samples (`None` below ten samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// A sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (nearest rank; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed interval of the traced run. Times are nanoseconds from the
/// tracer's origin; `parent` indexes the enclosing span; spans of one
/// request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or container name (`serve.state.submit`, `request`, …).
    pub name: &'static str,
    /// Start, ns from the origin.
    pub start: u64,
    /// End, ns from the origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Span length in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder: nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// ns from the origin to `t` (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.push(name, start, start, parent, req)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records an already-measured interval.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its length minus the part of its interval
/// that the union of its children covers (children are clipped to the
/// parent, and overlapping children are not double counted). For a
/// container span this is the time no layer accounts for —
/// `unattributed`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.len() - covered(&mut kids))
        .collect()
}

/// Length of the union of intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(9), None);
        // 20 samples: p50 leaves 10 beyond, p90 only 2.
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        for n in [20usize, 57, 100, 1000, 12_345] {
            let q = tail_percentile(n).unwrap();
            assert!(beyond(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(10, 0.9), 1);
        assert_eq!(beyond(110, 0.9), 11);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union 10..40 counts once.
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild is covered by its own parent only.
            span("d", 62, 65, Some(3)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 30 - 10, "unattributed under request");
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 10 - 3);
        assert_eq!(st[4], 3);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("request", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 45, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 40 - 10 - 5);
    }

    #[test]
    fn a_fully_covered_parent_has_no_unattributed_time() {
        let spans = vec![span("request", 0, 10, None), span("x", 0, 10, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }
}
