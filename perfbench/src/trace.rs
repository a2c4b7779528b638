//! In-memory spans for the traced run: one span per call into a layer,
//! with its parent and request id, written out only when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Chunk, commit or batch index the call served.
    pub req: u64,
}

/// Records spans; nesting follows the call stack of [`Tracer::span`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// Record a span measured elsewhere (e.g. by the generator's threads,
    /// whose instants share this tracer's origin).
    pub fn record(&mut self, name: &'static str, req: u64, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            req,
        });
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: index, name, start, end, parent, request.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("idx\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "-".into(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                sp.name, sp.start, sp.end, sp.req
            );
        }
        s
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
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

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let par = &spans[p];
            let (s, e) = (sp.start.max(par.start), sp.end.min(par.end));
            if s < e {
                kids[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(sp, k)| (sp.end - sp.start).saturating_sub(covered(k)))
        .collect()
}

/// Sum of self times per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let st = self_times(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (sp, t) in spans.iter().zip(st) {
        match out.iter_mut().find(|(n, _)| *n == sp.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((sp.name, t)),
        }
    }
    out
}

/// Mean cost (ns) of recording one empty span: what the tracer adds to
/// every call it wraps.
pub fn empty_span_ns() -> f64 {
    const N: u64 = 100_000;
    let mut t = Tracer::new();
    let t0 = Instant::now();
    for i in 0..N {
        t.span("empty", i, |_| ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Share (percent) of `[from, to)` that no top-level span covers.
pub fn unattributed_pct(spans: &[Span], from: u64, to: u64) -> f64 {
    let top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start.max(from), s.end.min(to)))
        .filter(|(s, e)| s < e)
        .collect();
    let wall = to.saturating_sub(from).max(1);
    100.0 * (wall - covered(top).min(wall)) as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn interval_union() {
        assert_eq!(covered(vec![]), 0);
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("chunk", 0, 100, None),
            sp("push", 10, 40, Some(0)),
            // Overlapping sibling: the union (10..60) counts once.
            sp("encode", 30, 60, Some(0)),
            sp("scan", 15, 25, Some(1)),
            // A child spilling past its parent is clipped to it.
            sp("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 40]);
        let by = self_time_by_name(&spans);
        assert_eq!(by[0], ("chunk", 40));
        assert_eq!(by.len(), 5);
    }

    #[test]
    fn unattributed_share() {
        let spans = vec![
            sp("a", 0, 30, None),
            sp("b", 50, 100, None),
            sp("c", 60, 70, Some(1)),
        ];
        assert!((unattributed_pct(&spans, 0, 100) - 20.0).abs() < 1e-9);
        assert!((unattributed_pct(&spans, 0, 200) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_by_call_stack() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
        });
        t.span("next", 8, |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(t.to_tsv().lines().count() == 4);
    }

    #[test]
    fn empty_span_cost_is_small_and_positive() {
        let ns = empty_span_ns();
        assert!(ns > 0.0 && ns < 100_000.0, "{ns} ns per span");
    }
}
