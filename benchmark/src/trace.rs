//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code, around the calls it
//! makes into each product crate (spans *inside* the crates are a later
//! change — ROADMAP item 2). One [`Tracer`] per load thread, so the hot
//! path is a `Vec::push`; tracers are merged when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span within its tracer (and, after [`merge`], globally).
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation (request or update) this span belongs to.
    pub op_id: u64,
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch` (shared by all threads of a run).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit bounds (used for intervals timed by
    /// the caller and for child spans synthesized from timings a product
    /// call returned).
    pub fn push(
        &mut self,
        op_id: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        op_id: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        (value, self.push(op_id, parent, name, start, end))
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, op_id: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.push(op_id, parent, name, now, now)
    }

    /// Ends an [`Tracer::open`]ed span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Lays `parts` end to end as children of `parent`, starting at the
    /// parent's start — how timings *returned* by a product call (e.g.
    /// `StepTimings`) become child spans.
    pub fn children_from_durations(&mut self, parent: SpanId, parts: &[(&'static str, u64)]) {
        let (op_id, mut at) = {
            let p = &self.spans[parent as usize];
            (p.op_id, p.start_ns)
        };
        for &(name, ns) in parts {
            self.push(op_id, Some(parent), name, at, at + ns);
            at += ns;
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Concatenates per-thread tracers, rebasing parent ids.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::with_capacity(tracers.iter().map(Tracer::len).sum());
    for t in tracers {
        let base = all.len() as SpanId;
        all.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children may overlap each other and may stick
/// out of the parent; both are handled by clipping and taking the
/// union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name aggregate over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ self time.
    pub self_ns: u64,
}

/// Aggregates spans by name (sorted by name).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The trace file: the per-name table over *all* recorded spans, and
/// the spans themselves up to `max_spans` (whole operations, replayed
/// ones first — they carry the layer-by-layer trees).
pub fn to_json(spans: &[Span], replayed_ops: &[u64], max_spans: usize) -> Json {
    let table = Json::Arr(
        totals_by_name(spans)
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::Str(name.into())),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect(),
    );
    let replayed: std::collections::BTreeSet<u64> = replayed_ops.iter().copied().collect();
    // Two passes keep operations whole: replayed ops, then the rest in
    // recording order, until the cap.
    let mut keep: Vec<usize> = (0..spans.len())
        .filter(|&i| replayed.contains(&spans[i].op_id))
        .collect();
    keep.truncate(max_spans);
    let room = max_spans - keep.len();
    keep.extend(
        (0..spans.len())
            .filter(|&i| !replayed.contains(&spans[i].op_id))
            .take(room),
    );
    // Written spans are renumbered; a parent that was not kept (cannot
    // happen while ops stay whole) would render as null.
    let mut new_id = vec![None; spans.len()];
    for (n, &i) in keep.iter().enumerate() {
        new_id[i] = Some(n);
    }
    let written = Json::Arr(
        keep.iter()
            .map(|&i| {
                let s = &spans[i];
                Json::obj([
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("name", Json::Str(s.name.into())),
                    (
                        "parent",
                        s.parent
                            .and_then(|p| new_id[p as usize])
                            .map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans_written", Json::Num(keep.len() as f64)),
        ("replayed_ops", Json::Num(replayed.len() as f64)),
        ("by_name", table),
        ("spans", written),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 0,
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // root [0,100]; children [10,50] and [30,70] overlap on [30,50];
        // a third [65,68] is inside the second's cover.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 65, 68),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child sticking out on both sides covers the whole parent; a
        // disjoint one covers nothing.
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 150),
            span(Some(0), 180, 400),
            span(Some(0), 500, 600),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 20);
    }

    #[test]
    fn synthesized_children_tile_the_parent_start() {
        let mut t = Tracer::new(Instant::now());
        let parent = t.push(7, None, "core.eval", 1_000, 2_000);
        t.children_from_durations(parent, &[("core.search", 300), ("core.spec_prune", 500)]);
        let spans = merge(vec![t]);
        assert_eq!(spans[1].start_ns, 1_000);
        assert_eq!(spans[2].start_ns, 1_300);
        assert_eq!(spans[2].end_ns, 1_800);
        assert!(spans[1..]
            .iter()
            .all(|s| s.op_id == 7 && s.parent == Some(0)));
        assert_eq!(self_times(&spans)[0], 200);
    }

    #[test]
    fn merge_rebases_parents_and_totals_add_up() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let ra = a.push(1, None, "op", 0, 10);
        a.push(1, Some(ra), "leaf", 2, 6);
        let mut b = Tracer::new(epoch);
        let rb = b.push(2, None, "op", 0, 20);
        b.push(2, Some(rb), "leaf", 5, 10);
        let spans = merge(vec![a, b]);
        assert_eq!(spans[3].parent, Some(2));
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["op"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 21
            }
        );
        assert_eq!(totals["leaf"].self_ns, 9);
        // Σ self over a tree == root duration.
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all_self, 30);
    }

    #[test]
    fn trace_file_keeps_replayed_ops_first_and_respects_the_cap() {
        let mut t = Tracer::new(Instant::now());
        for op in 0..10u64 {
            let r = t.push(op, None, "op", op * 10, op * 10 + 5);
            t.push(op, Some(r), "leaf", op * 10 + 1, op * 10 + 2);
        }
        let spans = merge(vec![t]);
        let doc = to_json(&spans, &[9], 4);
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_f64), Some(20.0));
        let written = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(written.len(), 4);
        assert_eq!(written[0].get("op_id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(written[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(written[2].get("op_id").and_then(Json::as_f64), Some(0.0));
    }
}
