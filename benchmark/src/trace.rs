//! The benchmark's own span recorder. Spans are recorded from outside the
//! program, around calls into its public functions; they live in memory and
//! are written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by an operation's `op` span and everything replayed for it.
    pub op_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Record `f` as a child span of `parent` (same `op_id`); returns what
    /// `f` returned and the span's duration in nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, Some(parent), self.spans[parent].op_id);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(f64::from(s.op_id))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (their union), so concurrent
/// child spans never drive a self time negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // 0: [0,100]  1: [10,60] child of 0  2: [20,30] child of 1
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        // A grandchild shortens only its own parent's self time.
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50] and [30,70] overlap on [30,50]; [80,120] sticks
        // out of the parent and is clipped to [80,100].
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(80, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 20);
        // A child entirely outside its parent covers nothing.
        let outside = [span(0, 10, None), span(20, 30, Some(0))];
        assert_eq!(self_times(&outside), vec![10, 10]);
    }

    #[test]
    fn recorder_links_children_and_summarises_by_name() {
        let mut rec = Recorder::new();
        let op = rec.begin("op", None, 7);
        let (v, _) = rec.time("child", op, || 41 + 1);
        rec.end(op);
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!((s[1].parent, s[1].op_id), (Some(op), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let sum = rec.summary();
        assert_eq!(sum["op"].0, 1);
        assert_eq!(sum["op"].2, sum["op"].1 - sum["child"].1);
        let doc = rec.to_json("w", 3);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
