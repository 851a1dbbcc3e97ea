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
//! Exploration is deterministic for a given budget-check sequence:
//! with [`Budget::with_check_limit`] budgets, a larger limit explores
//! a strict superset of a smaller one (the discovered-answer stream
//! has the prefix property), which is what makes anytime quality
//! monotone in budget — the property test pins this down.

use super::neighbor_index::NeighborIndex;
use crate::cancel::Budget;
use crate::outcome::Completeness;
use bgi_graph::VId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic op slice the greedy seed always receives, even when
/// the real budget is already exhausted (one check per pivot
/// candidate scanned). Keeps "seed first" a guarantee rather than a
/// race against the deadline.
pub(crate) const GREEDY_SEED_CHECKS: u64 = 1024;

/// One slot of a search (sub)space.
#[derive(Debug, Clone)]
enum Slot {
    /// Fixed to a single content node (by decomposition or branching).
    Fixed(VId),
    /// The keyword's full content-node list minus exclusions.
    Open { excluded: Vec<VId> },
}

/// One frontier entry: a space, its admissible lower bound, and its
/// (possibly partial) greedy answer. Min-ordered by `key` — the greedy
/// answer's weight when one exists, the lower bound otherwise — with a
/// FIFO sequence tiebreak so exploration order is deterministic.
struct Node {
    key: u64,
    seq: u64,
    lb: u64,
    greedy: Option<(u64, Vec<VId>)>,
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
    best: Option<(u64, Vec<VId>)>,
    complete: bool,
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

    /// Per-slot candidate lists with infeasibility folded in: open
    /// slots drop excluded nodes and anything beyond `r` from a fixed
    /// slot; fixed slots must be pairwise within `r`. `None` means the
    /// space provably contains no answer.
    fn filtered_candidates(&self, slots: &[Slot]) -> Option<Vec<Vec<VId>>> {
        let fixed: Vec<VId> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Fixed(v) => Some(*v),
                Slot::Open { .. } => None,
            })
            .collect();
        let mut lists = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let list: Vec<VId> = match slot {
                Slot::Fixed(v) => {
                    if fixed.iter().any(|&u| u != *v && self.dist(u, *v).is_none()) {
                        return None;
                    }
                    vec![*v]
                }
                Slot::Open { excluded } => self.content[i]
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

    /// Admissible lower bound on the weight of any answer the space can
    /// contain: fixed–fixed pairs contribute their exact distance,
    /// fixed–open pairs the minimum distance to any surviving
    /// candidate, open–open pairs 0 (distances are non-negative).
    fn lower_bound(&self, slots: &[Slot], cands: &[Vec<VId>]) -> u64 {
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
                    (Slot::Fixed(u), Slot::Fixed(v)) => {
                        lb += self.dist(*u, *v).unwrap_or(0) as u64;
                    }
                    (Slot::Fixed(u), Slot::Open { .. }) => lb += open_min(*u, &cands[j]),
                    (Slot::Open { .. }, Slot::Fixed(v)) => lb += open_min(*v, &cands[i]),
                    (Slot::Open { .. }, Slot::Open { .. }) => {}
                }
            }
        }
        lb
    }

    /// Kargar & An's greedy best answer over filtered candidate lists:
    /// for each pivot candidate (pivot = most selective list), take the
    /// nearest candidate of every other keyword, keep the assignment
    /// only if all pairwise distances are within `r`, and track the
    /// minimum-weight valid assignment. Interruptible per pivot
    /// candidate; an interrupted scan returns its best-so-far (still a
    /// fully validated answer) with `complete = false`.
    fn greedy(&self, cands: &[Vec<VId>], budget: &Budget) -> GreedyScan {
        let n = cands.len();
        let Some(pivot) = (0..n).min_by_key(|&i| cands[i].len()) else {
            return GreedyScan {
                best: None,
                complete: true,
            };
        };
        let mut best: Option<(u64, Vec<VId>)> = None;
        for &u in &cands[pivot] {
            if budget.is_exhausted() {
                return GreedyScan {
                    best,
                    complete: false,
                };
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
        GreedyScan {
            best,
            complete: true,
        }
    }

    /// Evaluates a space (feasibility, bound, greedy answer) and pushes
    /// it onto the frontier; provably infeasible spaces are dropped.
    fn push(
        &self,
        frontier: &mut BinaryHeap<Reverse<Node>>,
        seq: &mut u64,
        slots: Vec<Slot>,
        budget: &Budget,
    ) {
        let Some(cands) = self.filtered_candidates(&slots) else {
            return;
        };
        let lb = self.lower_bound(&slots, &cands);
        let scan = self.greedy(&cands, budget);
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
            &mut frontier,
            &mut seq,
            root,
            &budget.grace(GREEDY_SEED_CHECKS),
        );

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
                // The seed slice (or an earlier interrupted scan) cut
                // this space's greedy short but the budget is live
                // again here: rescan in full, keep the better answer,
                // and requeue — the next pop processes it.
                if let Some(cands) = self.filtered_candidates(&node.slots) {
                    let scan = self.greedy(&cands, budget);
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
                        self.push(&mut frontier, &mut seq, child, budget);
                    }
                }
                None => {
                    // Greedy found nothing but the space is not provably
                    // empty: binary-branch on one candidate of the most
                    // selective open slot (fix it vs. exclude it). Both
                    // children strictly shrink, so branching terminates,
                    // and together they cover the whole space — no
                    // feasible answer is dropped.
                    let Some(cands) = self.filtered_candidates(&node.slots) else {
                        continue;
                    };
                    let Some(j) = (0..n)
                        .filter(|&i| matches!(node.slots[i], Slot::Open { .. }))
                        .min_by_key(|&i| cands[i].len())
                    else {
                        // A fully fixed feasible space always has a
                        // greedy answer; unreachable, but dropping it
                        // is harmless.
                        continue;
                    };
                    let w = cands[j][0];
                    let mut fixed = node.slots.clone();
                    fixed[j] = Slot::Fixed(w);
                    self.push(&mut frontier, &mut seq, fixed, budget);
                    let mut excluded_slots = node.slots;
                    if let Slot::Open { excluded } = &mut excluded_slots[j] {
                        excluded.push(w);
                    }
                    self.push(&mut frontier, &mut seq, excluded_slots, budget);
                }
            }
        };

        if !interrupted {
            return AnytimeRun {
                answers: results,
                completeness: Completeness::Exact,
            };
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
        AnytimeRun {
            answers: results,
            completeness,
        }
    }
}
