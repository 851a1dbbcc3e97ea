//! The r-clique engine on per-query nearest lists gives what the engine
//! that probed a neighbor-index row once per candidate pair gave.
//!
//! The test-only reference below is that engine as it was: greedy finds
//! the nearest candidate of every other keyword by a binary search of
//! the pivot's row for each candidate, the candidate filter tests
//! exclusions with `Vec::contains` and each fixed node by a row probe,
//! and every Lawler subspace repeats all of it. The shipped engine
//! reads the same distances from nearest lists built once per query.
//!
//! Random graphs, plus a hub and a band shape, with random queries must
//! give equal outcomes, field for field — answers in rank order and
//! completeness, the anytime bound included — under an unlimited and a
//! check-limited budget, and must leave the same rows resident in two
//! freshly built neighbor indexes.

use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::answer::{rank_and_truncate, AnswerGraph};
use bgi_search::rclique::{clique_answer, NeighborIndex};
use bgi_search::{
    Budget, Completeness, Interrupted, KeywordQuery, KeywordSearch, RClique, SearchOutcome,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference's greedy seed slice.
const REF_GREEDY_SEED_CHECKS: u64 = 1024;

#[derive(Clone)]
enum RefSlot {
    Fixed(VId),
    Open { excluded: Vec<VId> },
}

struct RefNode {
    key: u64,
    seq: u64,
    lb: u64,
    greedy: Option<(u64, Vec<VId>)>,
    scan_complete: bool,
    slots: Vec<RefSlot>,
}

impl PartialEq for RefNode {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for RefNode {}
impl PartialOrd for RefNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// The reference engine over one query's content lists.
struct RefAnytime<'a> {
    content: Vec<&'a [VId]>,
    neighbor: &'a NeighborIndex,
    r: u32,
}

impl RefAnytime<'_> {
    fn dist(&self, u: VId, v: VId) -> Option<u32> {
        self.neighbor.distance(u, v).filter(|&d| d <= self.r)
    }

    fn ref_filtered_candidates(&self, slots: &[RefSlot]) -> Option<Vec<Vec<VId>>> {
        let fixed: Vec<VId> = slots
            .iter()
            .filter_map(|s| match s {
                RefSlot::Fixed(v) => Some(*v),
                RefSlot::Open { .. } => None,
            })
            .collect();
        let mut lists = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let list: Vec<VId> = match slot {
                RefSlot::Fixed(v) => {
                    if fixed.iter().any(|&u| u != *v && self.dist(u, *v).is_none()) {
                        return None;
                    }
                    vec![*v]
                }
                RefSlot::Open { excluded } => self.content[i]
                    .iter()
                    .copied()
                    .filter(|v| !excluded.contains(v))
                    .filter(|&v| fixed.iter().all(|&u| self.dist(u, v).is_some()))
                    .collect(),
            };
            if list.is_empty() {
                return None;
            }
            lists.push(list);
        }
        Some(lists)
    }

    fn ref_lower_bound(&self, slots: &[RefSlot], cands: &[Vec<VId>]) -> u64 {
        let n = slots.len();
        let mut lb = 0u64;
        let open_min = |u: VId, list: &[VId]| -> u64 {
            list.iter()
                .filter_map(|&w| self.dist(u, w))
                .min()
                .unwrap_or(0) as u64
        };
        for i in 0..n {
            for j in i + 1..n {
                match (&slots[i], &slots[j]) {
                    (RefSlot::Fixed(u), RefSlot::Fixed(v)) => {
                        lb += self.dist(*u, *v).unwrap_or(0) as u64;
                    }
                    (RefSlot::Fixed(u), RefSlot::Open { .. }) => lb += open_min(*u, &cands[j]),
                    (RefSlot::Open { .. }, RefSlot::Fixed(v)) => lb += open_min(*v, &cands[i]),
                    (RefSlot::Open { .. }, RefSlot::Open { .. }) => {}
                }
            }
        }
        lb
    }

    /// Greedy with one row probe per (pivot candidate, candidate) pair.
    fn ref_greedy(&self, cands: &[Vec<VId>], budget: &Budget) -> (Option<(u64, Vec<VId>)>, bool) {
        let n = cands.len();
        let Some(pivot) = (0..n).min_by_key(|&i| cands[i].len()) else {
            return (None, true);
        };
        let mut best: Option<(u64, Vec<VId>)> = None;
        for &u in &cands[pivot] {
            if budget.is_exhausted() {
                return (best, false);
            }
            let mut picked = vec![u; n];
            let mut feasible = true;
            for j in 0..n {
                if j == pivot {
                    continue;
                }
                let mut best_j: Option<(u32, VId)> = None;
                for &w in &cands[j] {
                    if let Some(d) = self.dist(u, w) {
                        if best_j.is_none_or(|(bd, bw)| (d, w) < (bd, bw)) {
                            best_j = Some((d, w));
                        }
                    }
                }
                match best_j {
                    Some((_, w)) => picked[j] = w,
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let mut weight = 0u64;
            let mut valid = true;
            'pairs: for a in 0..n {
                for b in a + 1..n {
                    match self.dist(picked[a], picked[b]) {
                        Some(d) => weight += d as u64,
                        None => {
                            valid = false;
                            break 'pairs;
                        }
                    }
                }
            }
            if valid
                && best
                    .as_ref()
                    .is_none_or(|(bw, ba)| (weight, &picked) < (*bw, ba))
            {
                best = Some((weight, picked));
            }
        }
        (best, true)
    }

    fn ref_push(
        &self,
        frontier: &mut BinaryHeap<Reverse<RefNode>>,
        seq: &mut u64,
        slots: Vec<RefSlot>,
        budget: &Budget,
    ) {
        let Some(cands) = self.ref_filtered_candidates(&slots) else {
            return;
        };
        let lb = self.ref_lower_bound(&slots, &cands);
        let (best, complete) = self.ref_greedy(&cands, budget);
        let key = best.as_ref().map_or(lb, |(w, _)| *w);
        frontier.push(Reverse(RefNode {
            key,
            seq: *seq,
            lb,
            greedy: best,
            scan_complete: complete,
            slots,
        }));
        *seq += 1;
    }

    fn ref_run(&self, k: usize, budget: &Budget) -> (Vec<(u64, Vec<VId>)>, Completeness) {
        let n = self.content.len();
        let mut frontier: BinaryHeap<Reverse<RefNode>> = BinaryHeap::new();
        let mut seq = 0u64;
        let root = vec![
            RefSlot::Open {
                excluded: Vec::new()
            };
            n
        ];
        let seed_budget = budget.grace(REF_GREEDY_SEED_CHECKS);
        self.ref_push(&mut frontier, &mut seq, root, &seed_budget);
        let mut results: Vec<(u64, Vec<VId>)> = Vec::new();
        let interrupted = loop {
            if frontier.is_empty() || results.len() >= k {
                break false;
            }
            if budget.is_exhausted() {
                break true;
            }
            let Some(Reverse(mut node)) = frontier.pop() else {
                break false;
            };
            if !node.scan_complete {
                if let Some(cands) = self.ref_filtered_candidates(&node.slots) {
                    let (best, complete) = self.ref_greedy(&cands, budget);
                    node.greedy = match (best, node.greedy) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    node.scan_complete = complete;
                    node.key = node.greedy.as_ref().map_or(node.lb, |(w, _)| *w);
                    frontier.push(Reverse(node));
                }
                continue;
            }
            match node.greedy {
                Some((weight, picked)) => {
                    results.push((weight, picked.clone()));
                    for i in 0..n {
                        if matches!(node.slots[i], RefSlot::Fixed(_)) {
                            continue;
                        }
                        let mut child: Vec<RefSlot> = Vec::with_capacity(n);
                        for (j, slot) in node.slots.iter().enumerate() {
                            if j < i {
                                child.push(match slot {
                                    RefSlot::Fixed(v) => RefSlot::Fixed(*v),
                                    RefSlot::Open { .. } => RefSlot::Fixed(picked[j]),
                                });
                            } else if j == i {
                                let mut excluded = match slot {
                                    RefSlot::Open { excluded } => excluded.clone(),
                                    RefSlot::Fixed(_) => Vec::new(),
                                };
                                excluded.push(picked[i]);
                                child.push(RefSlot::Open { excluded });
                            } else {
                                child.push(slot.clone());
                            }
                        }
                        self.ref_push(&mut frontier, &mut seq, child, budget);
                    }
                }
                None => {
                    let Some(cands) = self.ref_filtered_candidates(&node.slots) else {
                        continue;
                    };
                    let Some(j) = (0..n)
                        .filter(|&i| matches!(node.slots[i], RefSlot::Open { .. }))
                        .min_by_key(|&i| cands[i].len())
                    else {
                        continue;
                    };
                    let w = cands[j][0];
                    let mut fixed = node.slots.clone();
                    fixed[j] = RefSlot::Fixed(w);
                    self.ref_push(&mut frontier, &mut seq, fixed, budget);
                    let mut excluded_slots = node.slots;
                    if let RefSlot::Open { excluded } = &mut excluded_slots[j] {
                        excluded.push(w);
                    }
                    self.ref_push(&mut frontier, &mut seq, excluded_slots, budget);
                }
            }
        };
        if !interrupted {
            return (results, Completeness::Exact);
        }
        let mut min_lb = u64::MAX;
        for Reverse(node) in frontier.drain() {
            min_lb = min_lb.min(node.lb);
            if let Some(found) = node.greedy {
                results.push(found);
            }
        }
        let completeness = match results.iter().map(|&(w, _)| w).min() {
            None => Completeness::Truncated,
            Some(best) => Completeness::Anytime {
                bound: if min_lb == u64::MAX {
                    0
                } else {
                    best.saturating_sub(min_lb)
                },
            },
        };
        (results, completeness)
    }
}

/// The reference `RClique::search_anytime`: the same wrap-up around the
/// reference engine.
fn ref_rclique(
    radius: u32,
    g: &DiGraph,
    index: &NeighborIndex,
    query: &KeywordQuery,
    k: usize,
    budget: &Budget,
) -> Result<SearchOutcome, Interrupted> {
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    let r = query.dmax.min(radius);
    let content: Vec<&[VId]> = query.keywords.iter().map(|&q| g.vertices_with(q)).collect();
    if content.iter().any(|c| c.is_empty()) {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    let engine = RefAnytime {
        content,
        neighbor: index,
        r,
    };
    let (mut found, completeness) = engine.ref_run(k, budget);
    if found.is_empty() {
        return if completeness.is_exact() {
            Ok(SearchOutcome::exact(Vec::new()))
        } else {
            Err(Interrupted)
        };
    }
    found.sort();
    found.truncate(k);
    let answers: Vec<AnswerGraph> = found
        .iter()
        .map(|(weight, picked)| clique_answer(g, r, picked, *weight))
        .collect();
    Ok(SearchOutcome {
        answers: rank_and_truncate(answers, k),
        completeness,
    })
}

fn draw<S: Strategy>(s: S, rng: &mut TestRng) -> S::Value {
    s.generate(rng)
}

fn labels(n: usize, rng: &mut TestRng) -> Vec<LabelId> {
    let alphabet = draw(1u32..=5, rng);
    let labels = draw(vec(0..alphabet, n), rng);
    labels.into_iter().map(LabelId).collect()
}

/// A random labelled graph with fewer than 80 vertices.
fn random_graph(rng: &mut TestRng) -> DiGraph {
    let n = draw(1usize..80, rng);
    let edges = draw(vec((0..n as u32, 0..n as u32), 0..3 * n), rng)
        .into_iter()
        .map(|(u, v)| (VId(u), VId(v)))
        .collect();
    GraphBuilder::from_edges(labels(n, rng), edges)
}

/// A few hubs each tied to every vertex of its own stretch, both
/// directions at random: balls that hold nearly the whole graph.
fn hub_graph(rng: &mut TestRng) -> DiGraph {
    let n = draw(2usize..80, rng);
    let hubs = draw(1usize..=3, rng).min(n);
    let mut edges = Vec::new();
    for v in hubs..n {
        let hub = VId((v % hubs) as u32);
        if draw(0u8..2, rng) == 0 {
            edges.push((hub, VId(v as u32)));
        } else {
            edges.push((VId(v as u32), hub));
        }
    }
    for h in 1..hubs {
        edges.push((VId(h as u32 - 1), VId(h as u32)));
    }
    GraphBuilder::from_edges(labels(n, rng), edges)
}

/// A band: every vertex tied to the next `1..=3` in id order, so balls
/// are long runs of consecutive ids and distances grow along the band.
fn band_graph(rng: &mut TestRng) -> DiGraph {
    let n = draw(1usize..80, rng);
    let width = draw(1usize..=3, rng);
    let mut edges = Vec::new();
    for v in 0..n {
        for w in v + 1..(v + 1 + width).min(n) {
            edges.push((VId(v as u32), VId(w as u32)));
        }
    }
    GraphBuilder::from_edges(labels(n, rng), edges)
}

struct CliqueCase {
    g: DiGraph,
    radius: u32,
    /// `(keywords, d_max, k, check limit)`.
    queries: Vec<(Vec<u32>, u32, usize, u64)>,
}

fn clique_case() -> impl Strategy<Value = CliqueCase> {
    FnStrategy::new(|rng: &mut TestRng| CliqueCase {
        g: match draw(0u8..4, rng) {
            0 => hub_graph(rng),
            1 => band_graph(rng),
            _ => random_graph(rng),
        },
        radius: draw(1u32..=4, rng),
        queries: draw(
            vec((vec(0u32..6, 1..5), 1u32..=4, 1usize..=40, 0u64..400), 1..6),
            rng,
        ),
    })
}

/// The rows resident in `index`, owned.
fn resident(index: &NeighborIndex) -> Vec<(VId, Vec<(VId, u16)>)> {
    (index.resident_rows())
        .map(|(v, row)| (v, row.to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nearest_list_engine_equals_row_probing_engine(case in clique_case()) {
        let CliqueCase { g, radius, queries } = case;
        let rc = RClique { radius };
        for (keywords, dmax, k, checks) in queries {
            let q = KeywordQuery::new(keywords.into_iter().map(LabelId).collect::<Vec<_>>(), dmax);
            for budget in [Budget::unlimited(), Budget::with_check_limit(checks)] {
                let shipped_index = rc.build_index(&g);
                let ref_index = rc.build_index(&g);
                let shipped = rc.search_anytime(&g, &shipped_index, &q, k, &budget.clone());
                let reference = ref_rclique(radius, &g, &ref_index, &q, k, &budget);
                prop_assert_eq!(
                    shipped, reference,
                    "radius {} k {} checks {} query {:?}", radius, k, checks, q
                );
                prop_assert_eq!(
                    resident(&shipped_index), resident(&ref_index),
                    "rows, radius {} k {} checks {} query {:?}", radius, k, checks, q
                );
            }
        }
    }
}
