//! The interruptible r-clique answer search space: greedy seed +
//! branch-and-bound improvement under a cooperative [`Budget`].
//!
//! A search (sub)space assigns each query keyword a *slot*: either
//! fixed to one content node or open over the keyword's content list
//! minus exclusions (Lawler decomposition, Sec. 5.2 of the BiG-index
//! paper). The engine explores spaces best-first:
//!
//! 1. **Greedy seed.** The root space's greedy answer (Kargar & An's
//!    2-approximation) is computed under a small deterministic op
//!    slice ([`GREEDY_SEED_CHECKS`], via [`Budget::grace`]) that is
//!    independent of the wall-clock budget — even a query whose
//!    deadline already fired gets a best-effort seed answer.
//! 2. **Branch and bound.** Each popped space either *emits* its
//!    greedy answer and Lawler-splits into disjoint subspaces, or — if
//!    greedy found nothing but the space is not provably infeasible —
//!    *binary-branches* on one candidate (fix it vs. exclude it), so
//!    no answer is ever silently dropped: run to completion, the
//!    enumeration is exhaustive over feasible spaces.
//! 3. **Admissible bounds.** Every frontier space carries a lower
//!    bound on the weight of any answer it can still contain
//!    (fixed–fixed pairs exact, fixed–open pairs the minimum candidate
//!    distance, open–open pairs 0). On interruption the engine reports
//!    `best_so_far − min_frontier_bound` as a sound optimality gap and
//!    sweeps the frontier's already-computed greedy answers into the
//!    result set, so interrupted searches return everything discovered.
//!
//! **Nearest lists.** Every distance the engine asks is between content
//! nodes of two different keywords (a query's keywords are a set and a
//! vertex has one label, so the content lists are disjoint). The first
//! time a space needs the distances from content node `u`, the engine
//! builds `u`'s *nearest list* from its neighbor-index row (Kargar &
//! An's neighbor-list layout): the content nodes of the other keywords
//! within `r` of `u`, sorted by `(distance, id)` and tagged with their
//! keyword. The list lives until the query ends, so the Lawler
//! subspaces that re-ask the same node reuse it. Greedy then takes, per
//! keyword, the first list entry inside the space's candidate set —
//! the `(distance, id)` minimum a scan of that set would find — and a
//! fixed node's list, spread over a dense mark, answers every
//! membership and bound test against it in `O(1)`. A list is built
//! only at the first test that asks a distance from `u`, so a query
//! fills the rows of exactly the nodes its tests ask about: a
//! one-keyword query reads none, and a filter that proves a space empty
//! stops before the rows its later tests would read. Lists, marks and
//! the vertex → content-node map sit in one per-thread [`Scratch`], as
//! the traversal kernel's slots do: no hashing, nothing allocated per
//! probe.
//!
//! Exploration is deterministic for a given budget-check sequence:
//! with [`Budget::with_check_limit`] budgets, a larger limit explores
//! a strict superset of a smaller one (the discovered-answer stream
//! has the prefix property), which is what makes anytime quality
//! monotone in budget — the property test pins this down.

use super::neighbor_index::NeighborIndex;
use crate::cancel::Budget;
use crate::outcome::Completeness;
use bgi_graph::VId;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Deterministic op slice the greedy seed always receives, even when
/// the real budget is already exhausted (one check per pivot
/// candidate scanned). Keeps "seed first" a guarantee rather than a
/// race against the deadline.
pub(crate) const GREEDY_SEED_CHECKS: u64 = 1024;

/// A content node's id within one query: its position in the
/// keywords' content lists laid end to end. Label tables list a
/// label's vertices in id order, so within one keyword local order is
/// vertex-id order and every tie-break reads the same on either.
type Local = u32;

/// "No such node" and "not within `r`".
const NONE: u32 = u32::MAX;

/// One slot of a search (sub)space.
#[derive(Debug, Clone)]
enum Slot {
    /// Fixed to a single content node (by decomposition or branching).
    Fixed(Local),
    /// The keyword's full content-node list minus exclusions.
    Open { excluded: Vec<Local> },
}

/// One frontier entry: a space, its admissible lower bound, and its
/// (possibly partial) greedy answer. Min-ordered by `key` — the greedy
/// answer's weight when one exists, the lower bound otherwise — with a
/// FIFO sequence tiebreak so exploration order is deterministic.
struct Node {
    key: u64,
    seq: u64,
    lb: u64,
    greedy: Option<(u64, Vec<Local>)>,
    /// False when the greedy scan was cut off by the budget — the
    /// recorded answer (if any) is valid but may not be the space's
    /// best greedy answer.
    scan_complete: bool,
    slots: Vec<Slot>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// What one engine run discovered.
pub(crate) struct AnytimeRun {
    /// Discovered `(weight, picked-nodes)` answers, unranked and
    /// possibly more than `k` (the caller ranks and truncates).
    pub answers: Vec<(u64, Vec<VId>)>,
    /// Marker describing how much of the space the run covered.
    pub completeness: Completeness,
}

/// Result of one greedy scan over a space.
struct GreedyScan {
    best: Option<(u64, Vec<Local>)>,
    complete: bool,
}

/// One nearest-list entry: a content node of another keyword within
/// `r` and its distance (a row's width). Its keyword is `kw[node]`.
#[derive(Debug, Clone, Copy)]
struct Near {
    node: Local,
    dist: u16,
}

/// One query's dense engine state, reused by the thread's next query.
/// Arrays indexed by [`Local`] are sized to the query's content;
/// `local_of` grows to the largest graph seen and is reset entry by
/// entry when the query ends.
#[derive(Debug, Default)]
struct Scratch {
    /// `local_of[v]`: `v`'s content-local id, [`NONE`] off the content.
    local_of: Vec<Local>,
    /// Keyword `i`'s content nodes are `offset[i]..offset[i + 1]`.
    offset: Vec<Local>,
    /// Per content node: its vertex and its keyword.
    vid: Vec<VId>,
    kw: Vec<u32>,
    /// Per content node: where its nearest list sits in `near`, once
    /// built.
    span: Vec<Option<(usize, usize)>>,
    /// Every nearest list built so far, back to back.
    near: Vec<Near>,
    /// Per content node: in the candidate set of the space being
    /// evaluated.
    in_set: Vec<bool>,
    /// Per content node: excluded from the open slot being filtered.
    excluded: Vec<bool>,
    /// `fixed_dist[i * C + w]`, `C` content nodes: the distance from
    /// slot `i`'s fixed node to `w`, [`NONE`] beyond `r`. Spread from
    /// the node's list the first time the space asks it (`spread[i]`)
    /// and wiped when the space is done.
    fixed_dist: Vec<u32>,
    spread: Vec<bool>,
}

thread_local! {
    /// The calling thread's idle engine scratch.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Numbers `content`'s nodes and sizes every per-node array to
    /// them; `n` bounds the vertex ids the rows hold.
    fn begin(&mut self, content: &[&[VId]], n: usize) {
        self.offset.clear();
        self.vid.clear();
        self.kw.clear();
        for (i, list) in content.iter().enumerate() {
            self.offset.push(self.vid.len() as Local);
            self.vid.extend_from_slice(list);
            self.kw.resize(self.vid.len(), i as u32);
        }
        self.offset.push(self.vid.len() as Local);
        let top = self.vid.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        if self.local_of.len() < n.max(top) {
            self.local_of.resize(n.max(top), NONE);
        }
        for (c, v) in self.vid.iter().enumerate() {
            self.local_of[v.index()] = c as Local;
        }
        let c = self.vid.len();
        self.span.clear();
        self.span.resize(c, None);
        self.near.clear();
        self.in_set.clear();
        self.in_set.resize(c, false);
        self.excluded.clear();
        self.excluded.resize(c, false);
        self.fixed_dist.clear();
        self.fixed_dist.resize(content.len() * c, NONE);
        self.spread.clear();
        self.spread.resize(content.len(), false);
    }

    /// Leaves `local_of` all [`NONE`] for the next query.
    fn end(&mut self) {
        for v in &self.vid {
            self.local_of[v.index()] = NONE;
        }
    }

    fn content(&self, i: usize) -> Range<Local> {
        self.offset[i]..self.offset[i + 1]
    }
}

/// The anytime r-clique search engine over one query's content lists.
pub(crate) struct AnytimeSearch<'a> {
    /// Per-keyword content-node lists (the root space `SP`).
    pub content: Vec<&'a [VId]>,
    /// Bounded undirected distances.
    pub neighbor: &'a NeighborIndex,
    /// Effective distance bound `r` for this query.
    pub r: u32,
}

impl AnytimeSearch<'_> {
    fn dist(&self, u: VId, v: VId) -> Option<u32> {
        self.neighbor.distance(u, v).filter(|&d| d <= self.r)
    }

    /// Content node `c`'s nearest list, built from its row on first
    /// use. The row is read through whichever input is shorter: scanned
    /// against `local_of`, or probed once per content node of the other
    /// keywords.
    fn list(&self, s: &mut Scratch, c: Local) -> Range<usize> {
        if let Some((start, end)) = s.span[c as usize] {
            return start..end;
        }
        let u = s.vid[c as usize];
        let k = s.kw[c as usize];
        let row = self.neighbor.neighbors(u);
        let start = s.near.len();
        let others = s.vid.len() - s.content(k as usize).len();
        if row.len() <= others {
            for &(w, d) in row {
                let node = s.local_of[w.index()];
                if node != NONE && u32::from(d) <= self.r && s.kw[node as usize] != k {
                    s.near.push(Near { node, dist: d });
                }
            }
        } else {
            for kw in (0..self.content.len() as u32).filter(|&j| j != k) {
                for node in s.content(kw as usize) {
                    let w = s.vid[node as usize];
                    if let Ok(at) = row.binary_search_by_key(&w, |&(x, _)| x) {
                        let dist = row[at].1;
                        if u32::from(dist) <= self.r {
                            s.near.push(Near { node, dist });
                        }
                    }
                }
            }
        }
        s.near[start..].sort_unstable_by_key(|e| (e.dist, e.node));
        s.span[c as usize] = Some((start, s.near.len()));
        start..s.near.len()
    }

    /// Distance from slot `i`'s fixed node `u` to content node `w`
    /// ([`NONE`] beyond `r`), spreading `u`'s list over `fixed_dist` on
    /// the first ask.
    fn fixed_dist(&self, s: &mut Scratch, i: usize, u: Local, w: Local) -> u32 {
        let c = s.vid.len();
        if !s.spread[i] {
            s.spread[i] = true;
            for at in self.list(s, u) {
                let e = s.near[at];
                s.fixed_dist[i * c + e.node as usize] = u32::from(e.dist);
            }
        }
        s.fixed_dist[i * c + w as usize]
    }

    /// Per-slot candidate lists with infeasibility folded in: open
    /// slots drop excluded nodes and anything beyond `r` from a fixed
    /// slot; fixed slots must be pairwise within `r`. `None` means the
    /// space provably contains no answer. Stops at the first proof, so
    /// a fixed node's row is read only where a test needs it.
    fn filtered_candidates(&self, s: &mut Scratch, slots: &[Slot]) -> Option<Vec<Vec<Local>>> {
        let fixed: Vec<(usize, Local)> = (slots.iter().enumerate())
            .filter_map(|(i, slot)| match slot {
                Slot::Fixed(v) => Some((i, *v)),
                Slot::Open { .. } => None,
            })
            .collect();
        let mut lists = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let list: Vec<Local> = match slot {
                Slot::Fixed(v) => {
                    let far =
                        |&(j, u): &(usize, Local)| u != *v && self.fixed_dist(s, j, u, *v) == NONE;
                    if fixed.iter().any(far) {
                        return None;
                    }
                    vec![*v]
                }
                Slot::Open { excluded } => {
                    for &x in excluded {
                        s.excluded[x as usize] = true;
                    }
                    let list = (s.content(i))
                        .filter(|&w| {
                            !s.excluded[w as usize]
                                && (fixed.iter()).all(|&(j, u)| self.fixed_dist(s, j, u, w) != NONE)
                        })
                        .collect();
                    for &x in excluded {
                        s.excluded[x as usize] = false;
                    }
                    list
                }
            };
            if list.is_empty() {
                return None;
            }
            lists.push(list);
        }
        Some(lists)
    }

    /// Filters `slots`' candidates and, unless the space is provably
    /// empty, hands them to `f` with the space's `in_set` marks up;
    /// every mark the space set is cleared before returning.
    fn with_space<T>(
        &self,
        s: &mut Scratch,
        slots: &[Slot],
        f: impl FnOnce(&mut Scratch, &[Vec<Local>]) -> T,
    ) -> Option<T> {
        let out = self.filtered_candidates(s, slots).map(|cands| {
            for &w in cands.iter().flatten() {
                s.in_set[w as usize] = true;
            }
            let out = f(s, &cands);
            for &w in cands.iter().flatten() {
                s.in_set[w as usize] = false;
            }
            out
        });
        let c = s.vid.len();
        for (i, slot) in slots.iter().enumerate() {
            if let (Slot::Fixed(u), true) = (slot, s.spread[i]) {
                s.spread[i] = false;
                for at in self.list(s, *u) {
                    let node = s.near[at].node as usize;
                    s.fixed_dist[i * c + node] = NONE;
                }
            }
        }
        out
    }

    /// Admissible lower bound on the weight of any answer the space can
    /// contain: fixed–fixed pairs contribute their exact distance,
    /// fixed–open pairs the minimum distance to any surviving
    /// candidate — the first in-set entry of the open keyword in the
    /// fixed node's list — and open–open pairs 0 (distances are
    /// non-negative). Reads only rows the filter already read.
    fn lower_bound(&self, s: &mut Scratch, slots: &[Slot]) -> u64 {
        let open_slots = (slots.iter())
            .filter(|slot| matches!(slot, Slot::Open { .. }))
            .count();
        let mut seen = vec![false; slots.len()];
        let mut lb = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            let Slot::Fixed(u) = *slot else {
                continue;
            };
            for other in &slots[i + 1..] {
                if let Slot::Fixed(v) = *other {
                    let d = self.fixed_dist(s, i, u, v);
                    lb += if d == NONE { 0 } else { u64::from(d) };
                }
            }
            if open_slots == 0 {
                continue;
            }
            let mut open = open_slots;
            seen.fill(false);
            for at in self.list(s, u) {
                let e = s.near[at];
                let kw = s.kw[e.node as usize] as usize;
                if !seen[kw] && matches!(slots[kw], Slot::Open { .. }) && s.in_set[e.node as usize]
                {
                    seen[kw] = true;
                    lb += u64::from(e.dist);
                    open -= 1;
                    if open == 0 {
                        break;
                    }
                }
            }
        }
        lb
    }

    /// Kargar & An's greedy best answer over filtered candidate lists:
    /// for each pivot candidate `u` (pivot = most selective list), take
    /// the nearest candidate of every other keyword — the first entry of
    /// `u`'s nearest list per keyword that is in the space's candidate
    /// set — keep the assignment only if all pairwise distances are
    /// within `r`, and track the minimum-weight valid assignment.
    /// Interruptible per pivot candidate; an interrupted scan returns
    /// its best-so-far (still a fully validated answer) with
    /// `complete = false`.
    fn greedy(&self, s: &mut Scratch, cands: &[Vec<Local>], budget: &Budget) -> GreedyScan {
        let n = cands.len();
        let Some(pivot) = (0..n).min_by_key(|&i| cands[i].len()) else {
            return GreedyScan {
                best: None,
                complete: true,
            };
        };
        let mut best: Option<(u64, Vec<Local>)> = None;
        let mut picked = vec![NONE; n];
        for &u in &cands[pivot] {
            if budget.is_exhausted() {
                return GreedyScan {
                    best,
                    complete: false,
                };
            }
            picked.fill(NONE);
            picked[pivot] = u;
            let mut missing = n - 1;
            if missing > 0 {
                for at in self.list(s, u) {
                    let e = s.near[at];
                    let kw = s.kw[e.node as usize] as usize;
                    if picked[kw] == NONE && s.in_set[e.node as usize] {
                        picked[kw] = e.node;
                        missing -= 1;
                        if missing == 0 {
                            break;
                        }
                    }
                }
            }
            if missing > 0 {
                continue;
            }
            let mut weight = 0u64;
            let mut valid = true;
            'pairs: for a in 0..n {
                for b in a + 1..n {
                    let (x, y) = (s.vid[picked[a] as usize], s.vid[picked[b] as usize]);
                    match self.dist(x, y) {
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
                best = Some((weight, picked.clone()));
            }
        }
        GreedyScan {
            best,
            complete: true,
        }
    }

    /// Evaluates a space (feasibility, bound, greedy answer) and pushes
    /// it onto the frontier; provably infeasible spaces are dropped.
    fn push(
        &self,
        s: &mut Scratch,
        frontier: &mut BinaryHeap<Reverse<Node>>,
        seq: &mut u64,
        slots: Vec<Slot>,
        budget: &Budget,
    ) {
        let Some((lb, scan)) = self.with_space(s, &slots, |s, cands| {
            (self.lower_bound(s, &slots), self.greedy(s, cands, budget))
        }) else {
            return;
        };
        let key = match &scan.best {
            Some((w, _)) => *w,
            None => lb,
        };
        frontier.push(Reverse(Node {
            key,
            seq: *seq,
            lb,
            greedy: scan.best,
            scan_complete: scan.complete,
            slots,
        }));
        *seq += 1;
    }

    /// Runs the anytime search: seed, then branch-and-bound until the
    /// space is exhausted, `k` answers were emitted, or the budget runs
    /// out — in which case every answer already discovered (emitted or
    /// sitting in the frontier) is returned with a sound optimality
    /// bound.
    pub fn run(&self, k: usize, budget: &Budget) -> AnytimeRun {
        let mut s = SCRATCH.with_borrow_mut(std::mem::take);
        s.begin(&self.content, self.neighbor.num_rows());
        let (found, completeness) = self.explore(&mut s, k, budget);
        let answers = (found.into_iter())
            .map(|(w, picked)| (w, picked.iter().map(|&c| s.vid[c as usize]).collect()))
            .collect();
        s.end();
        SCRATCH.with_borrow_mut(|idle| *idle = s);
        AnytimeRun {
            answers,
            completeness,
        }
    }

    /// [`AnytimeSearch::run`] on content-local ids.
    fn explore(
        &self,
        s: &mut Scratch,
        k: usize,
        budget: &Budget,
    ) -> (Vec<(u64, Vec<Local>)>, Completeness) {
        let n = self.content.len();
        let mut frontier: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
        let mut seq = 0u64;
        let root: Vec<Slot> = (0..n)
            .map(|_| Slot::Open {
                excluded: Vec::new(),
            })
            .collect();
        // The greedy seed's deterministic op slice, without the
        // deadline.
        self.push(
            s,
            &mut frontier,
            &mut seq,
            root,
            &budget.grace(GREEDY_SEED_CHECKS),
        );

        let mut results: Vec<(u64, Vec<Local>)> = Vec::new();
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
                // The seed slice (or an earlier interrupted scan) cut
                // this space's greedy short but the budget is live
                // again here: rescan in full, keep the better answer,
                // and requeue — the next pop processes it.
                let rescan =
                    self.with_space(s, &node.slots, |s, cands| self.greedy(s, cands, budget));
                if let Some(scan) = rescan {
                    node.greedy = match (scan.best, node.greedy) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    node.scan_complete = scan.complete;
                    node.key = match &node.greedy {
                        Some((w, _)) => *w,
                        None => node.lb,
                    };
                    frontier.push(Reverse(node));
                }
                continue;
            }
            match node.greedy {
                Some((weight, picked)) => {
                    // Emit, then Lawler-split into disjoint subspaces
                    // that together cover every other answer.
                    results.push((weight, picked.clone()));
                    for i in 0..n {
                        if matches!(node.slots[i], Slot::Fixed(_)) {
                            continue;
                        }
                        let mut child: Vec<Slot> = Vec::with_capacity(n);
                        for (j, slot) in node.slots.iter().enumerate() {
                            if j < i {
                                child.push(match slot {
                                    Slot::Fixed(v) => Slot::Fixed(*v),
                                    Slot::Open { .. } => Slot::Fixed(picked[j]),
                                });
                            } else if j == i {
                                let mut excluded = match slot {
                                    Slot::Open { excluded } => excluded.clone(),
                                    Slot::Fixed(_) => Vec::new(),
                                };
                                excluded.push(picked[i]);
                                child.push(Slot::Open { excluded });
                            } else {
                                child.push(slot.clone());
                            }
                        }
                        self.push(s, &mut frontier, &mut seq, child, budget);
                    }
                }
                None => {
                    // Greedy found nothing but the space is not provably
                    // empty: binary-branch on one candidate of the most
                    // selective open slot (fix it vs. exclude it). Both
                    // children strictly shrink, so branching terminates,
                    // and together they cover the whole space — no
                    // feasible answer is dropped.
                    let branch = self.with_space(s, &node.slots, |_, cands| {
                        (0..n)
                            .filter(|&i| matches!(node.slots[i], Slot::Open { .. }))
                            .min_by_key(|&i| cands[i].len())
                            .map(|j| (j, cands[j][0]))
                    });
                    // `Some(None)`: a fully fixed feasible space always
                    // has a greedy answer; unreachable, but dropping it
                    // is harmless.
                    let Some(Some((j, w))) = branch else {
                        continue;
                    };
                    let mut fixed = node.slots.clone();
                    fixed[j] = Slot::Fixed(w);
                    self.push(s, &mut frontier, &mut seq, fixed, budget);
                    let mut excluded_slots = node.slots;
                    if let Slot::Open { excluded } = &mut excluded_slots[j] {
                        excluded.push(w);
                    }
                    self.push(s, &mut frontier, &mut seq, excluded_slots, budget);
                }
            }
        };

        if !interrupted {
            return (results, Completeness::Exact);
        }
        // Interrupted: sweep the frontier's already-computed greedy
        // answers (each fully validated, each from a space disjoint
        // from every emitted answer) and derive the optimality gap
        // from the open frontier's minimum admissible bound.
        let mut min_lb = u64::MAX;
        // Reads precomputed node state only; no new search work.
        // budget-exempt: bounded frontier sweep after exhaustion
        for Reverse(node) in frontier.drain() {
            min_lb = min_lb.min(node.lb);
            if let Some(found) = node.greedy {
                results.push(found);
            }
        }
        let best = results.iter().map(|&(w, _)| w).min();
        let completeness = match best {
            // An empty interrupted run carries no bound; the caller
            // maps it to `Interrupted`.
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
