//! The r-clique neighbor index.
//!
//! For each vertex `v`, every vertex within `R` *undirected* hops
//! together with its distance, sorted by vertex id for `O(log)` lookup.
//! Kargar & An materialize exactly this `O(n·|ball_R|)` structure up
//! front; the BiG-index paper reports it reaching an estimated 16 TB on
//! IMDB. Here a row is a *cache entry*: it is a pure function of
//! `(graph, radius, v)`, computed by one bounded BFS the first time it
//! is read and kept for as long as no update can move one of its
//! distances. Nothing about it is ever persisted.
//!
//! Row fills, and the two traversals that need no row —
//! [`undirected_distances`], a ball at a caller's bound, and
//! [`clique_answer`], the witness paths of an r-clique answer — run on
//! the thread's traversal slots ([`bgi_graph::traversal`]).

use crate::answer::AnswerGraph;
use crate::patch::GraphDiff;
use bgi_graph::traversal::{with_slot, Direction};
use bgi_graph::{DiGraph, VId};
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// One vertex's ball, filled on first read.
type BallRow = OnceLock<Arc<[(VId, u16)]>>;

/// The largest radius an index can be built with: a row keeps each
/// distance in a `u16`.
pub const MAX_RADIUS: u32 = u16::MAX as u32;

/// Per-vertex bounded undirected neighborhoods with distances.
///
/// `clone()` shares the slot table, so a row filled through any clone —
/// the served snapshot's, say — is filled in all of them, including the
/// write path's copy that the next [`NeighborIndex::patched`] starts
/// from. Equality is `radius` plus graph equality: rows are a pure
/// function of both, and comparing never forces one.
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    radius: u32,
    graph: Arc<DiGraph>,
    rows: Arc<[BallRow]>,
}

impl PartialEq for NeighborIndex {
    fn eq(&self, other: &Self) -> bool {
        self.radius == other.radius
            && (Arc::ptr_eq(&self.graph, &other.graph) || self.graph == other.graph)
    }
}

impl Eq for NeighborIndex {}

impl NeighborIndex {
    /// An index over `g` with every row still unfilled: `O(n + m)` for
    /// the graph copy the rows are later computed against, no BFS.
    ///
    /// # Panics
    ///
    /// If `radius` exceeds [`MAX_RADIUS`]: a row could not hold its
    /// distances. A stored radius is checked when it is decoded.
    pub fn build(g: &DiGraph, radius: u32) -> Self {
        assert!(
            radius <= MAX_RADIUS,
            "r-clique radius {radius} exceeds {MAX_RADIUS}"
        );
        NeighborIndex {
            radius,
            graph: Arc::new(g.clone()),
            rows: (0..g.num_vertices()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Incrementally patched copy of this index for `new_g`, the graph
    /// `diff` leads to from the one this index describes (see
    /// [`crate::patch`]). The result gets a fresh slot table over
    /// `new_g` that carries over every row resident when the patch
    /// starts unless an edit can move one of its distances; dropped and
    /// appended rows start unfilled and are computed against `new_g` on
    /// first read.
    ///
    /// **The rule.** Rows hold undirected distances, so only edges of
    /// the undirected view count as changed: deleting one direction of
    /// a reciprocal pair, or inserting the reverse of an edge, changes
    /// nothing. Let `r` be the radius and `d(·)` a resident row `x`'s
    /// distances in the old graph, capped at `r + 1` (an appended vertex
    /// is at `r + 1`). The row is dropped exactly when
    /// - a deleted edge `{near, far}` is *tight* and *unsupported*:
    ///   `d(near) = ℓ < r`, `d(far) = ℓ + 1`, and no undirected
    ///   neighbour `c` of `far` in `new_g` (which leaves out `near`) has
    ///   `d(c) = ℓ`; or
    /// - an inserted edge `{a, b}` *shortens*: `|d(a) − d(b)| ≥ 2` and
    ///   `min(d(a), d(b)) < r`.
    ///
    /// **Soundness.** Let `d'` be `x`'s distances in the new graph and
    /// suppose no deleted edge is tight and unsupported for `x` and no
    /// inserted edge shortens.
    /// (1) `d'(v) ≤ d(v)` whenever `d(v) ≤ r`, by induction on `d(v)`,
    /// `x` itself being the base. Take `v` with `d(v) = j ≥ 1` and `p`
    /// its parent on an old shortest path, `d(p) = j − 1`. If the edge
    /// `{p, v}` is in the new graph, `d'(v) ≤ d'(p) + 1 ≤ j`. Otherwise
    /// it is a deleted edge, tight with `near = p`, `far = v`,
    /// `ℓ = j − 1 < r`, so `v` has a support `c`, a new-graph neighbour
    /// with `d(c) = j − 1`; by induction `d'(c) ≤ j − 1`, and again
    /// `d'(v) ≤ j`. A support whose edge to `v` was inserted serves as
    /// well as an old one.
    /// (2) No `v` with `d'(v) ≤ r` has `d'(v) < d(v)`: take such a `v`
    /// with the least `d'(v) = j ≥ 1`, and `w` its predecessor on a new
    /// shortest path. `w` is no such vertex, so `d(w) ≤ j − 1`. If the
    /// edge `{w, v}` were old, `d(v) ≤ j`; so it is inserted, with
    /// `min = d(w) < r` and `d(v) − d(w) ≥ 2` — it shortens.
    /// Together `d'` and `d` agree on every vertex within `r` of `x` in
    /// either graph: the ball and its distances are unchanged. The rule
    /// reads old distances, which the resident row holds, and the
    /// changed edges and `far`'s neighbours in `new_g`.
    ///
    /// **Exact for one edit.** When the diff changes one undirected edge,
    /// the rows dropped are exactly the rows whose ball changes. A
    /// shortening insertion pulls the farther endpoint to `ℓ + 1 ≤ r`,
    /// nearer than it was. After an unsupported tight deletion every
    /// new-graph neighbour `c` of `far` has `d(c) ≥ ℓ + 1`, and a
    /// deletion alone lengthens no distance, so `far`, at `ℓ + 1 ≤ r`
    /// before, is at least `ℓ + 2` after.
    ///
    /// **The traversal.** The changed edges go in passes of up to 32,
    /// two bits each, one per endpoint. Each pass runs one bit-parallel
    /// BFS over the old graph's undirected view from all its endpoints
    /// at once: after level `ℓ`, vertex `x` holds an endpoint's bit iff
    /// that endpoint is within `ℓ` of `x`. An edge with exactly one
    /// endpoint seen at level `ℓ` has `min ≤ ℓ < max`, so a deleted edge
    /// is tight iff that holds at some `ℓ < r` — the endpoint seen is
    /// `near`, and `far`'s new-graph neighbours are looked up in `x`'s
    /// row, stopping at the first at `ℓ` — and an inserted edge
    /// shortens iff it holds at both `ℓ` and `ℓ + 1` for some `ℓ < r`.
    /// A row is judged only at the levels where it gains a bit, and a bit
    /// is carried only where it can still reach a live row in time: once
    /// at most half of the rows are live, the BFS skips every vertex
    /// farther from all of them than the levels it has left. A pass so
    /// costs at most `r − 1` levels of the old graph's edges, a row once
    /// dropped is not looked at again, and an index with no resident row
    /// runs no pass. The outcome depends on nothing but the graphs, the
    /// diff and the resident rows, whatever thread runs it.
    ///
    /// Returns `None` only when `self` cannot describe the graph `diff`
    /// starts from (row count mismatch) — the caller should rebuild.
    pub fn patched(&self, new_g: &DiGraph, diff: &GraphDiff) -> Option<NeighborIndex> {
        let n_new = new_g.num_vertices();
        if self.num_rows() + diff.added_labels.len() != n_new {
            return None;
        }
        // A row a concurrent reader fills after this snapshot is not
        // judged, so it is not carried over either.
        let mut live: Vec<bool> = self.rows.iter().map(|row| row.get().is_some()).collect();
        let changes = undirected_changes(&self.graph, new_g, diff);
        drop_movable_rows(
            &self.graph,
            new_g,
            &self.rows,
            self.radius,
            &changes,
            &mut live,
        );
        let rows = (0..n_new)
            .map(|v| match self.rows.get(v).and_then(OnceLock::get) {
                Some(row) if live[v] => OnceLock::from(Arc::clone(row)),
                _ => OnceLock::new(),
            })
            .collect();
        Some(NeighborIndex {
            radius: self.radius,
            graph: Arc::new(new_g.clone()),
            rows,
        })
    }

    /// Number of per-vertex rows (the vertex count of the graph the
    /// index describes), filled or not.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The distance bound the index was built with.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Undirected bounded distance between `u` and `v`, if `≤ radius`.
    pub fn distance(&self, u: VId, v: VId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let list = self.neighbors(u);
        list.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| list[i].1 as u32)
    }

    /// All `(neighbor, distance)` pairs of `v`, sorted by neighbor id.
    /// The first read of a row runs one bounded undirected BFS from `v`
    /// and caches the result; concurrent first readers block on the one
    /// that got there first and all see the same slice.
    pub fn neighbors(&self, v: VId) -> &[(VId, u16)] {
        self.rows[v.index()]
            .get_or_init(|| sorted_ball(&self.graph, v, self.radius, |u, d| (u, d as u16)))
    }

    /// The rows filled so far, in vertex order — the index's actual
    /// memory footprint beyond the graph copy, and what tests and
    /// experiments read to see what an update invalidated.
    pub fn resident_rows(&self) -> impl Iterator<Item = (VId, &[(VId, u16)])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(v, row)| Some((VId(v as u32), &**row.get()?)))
    }
}

/// The edges `diff` changes in the undirected view of the graphs, each
/// as `(lower endpoint, higher endpoint, inserted?)`, without repeats.
/// A directed edit whose reverse edge is in both graphs changes no
/// undirected edge and is left out.
fn undirected_changes(old: &DiGraph, new: &DiGraph, diff: &GraphDiff) -> Vec<(VId, VId, bool)> {
    let n_old = old.num_vertices();
    let was_edge = |a: VId, b: VId| a.index() < n_old && b.index() < n_old && old.has_edge(a, b);
    let deleted = (diff.deleted.iter())
        .filter(|&&(a, b)| !new.has_edge(b, a))
        .map(|&(a, b)| (a.min(b), a.max(b), false));
    let inserted = (diff.inserted.iter())
        .filter(|&&(a, b)| !was_edge(b, a))
        .map(|&(a, b)| (a.min(b), a.max(b), true));
    let mut changes: Vec<_> = deleted.chain(inserted).collect();
    // Deletions first: a pass of deletions alone never needs level `r`.
    changes.sort_unstable_by_key(|&(a, b, is_insert)| (is_insert, a, b));
    changes.dedup();
    changes
}

/// Changed edges per bit-parallel pass: two bits each in a `u64`.
const EDGES_PER_PASS: usize = 32;

/// The low bit of every endpoint pair.
const PAIR_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// The pairs of which exactly one endpoint's bit is set in `seen`, as
/// their low bits.
fn one_seen(seen: u64) -> u64 {
    (seen ^ (seen >> 1)) & PAIR_LOW_BITS
}

/// Clears `live[x]` — set for the rows of `rows`, over the old graph
/// `g`, that are resident — for every row an edge of `changes` can move
/// at radius `r` on the way to `new_g`, by the rule and traversal of
/// [`NeighborIndex::patched`].
///
/// A pair's exactly-one-seen state can begin only at the level where a
/// vertex gains the nearer endpoint's bit, so rows are judged only
/// there: a deleted edge then is tight, and drops the row unless its
/// far endpoint has a support; an inserted one shortens if the far
/// endpoint's bit does not follow one level later. Level `r` matters
/// only to the rows judged so at level `r − 1`: each reads it off its
/// own neighbors, and the BFS stops at `r − 1`.
fn drop_movable_rows(
    g: &DiGraph,
    new_g: &DiGraph,
    rows: &[BallRow],
    r: u32,
    changes: &[(VId, VId, bool)],
    live: &mut [bool],
) {
    let n = g.num_vertices();
    // `seen[v]`: the endpoints within the current level of `v`;
    // `gain[v]`: the ones first reaching `v` at the next level.
    let mut seen = vec![0u64; n];
    let mut gain = vec![0u64; n];
    // The vertices the current level reached first, with the bits they
    // gained; `next` collects those of the next level.
    let mut reached: Vec<(VId, u64)> = Vec::new();
    let mut next: Vec<VId> = Vec::new();
    // Live rows that saw one endpoint of an inserted edge, and not the
    // other, first at the previous level; the bits of those edges.
    let mut pending: Vec<(VId, u64)> = Vec::new();
    let neighbors = |x: VId| g.out_neighbors(x).iter().chain(g.in_neighbors(x));
    // `near[w]`: hops from `w` to the nearest live row, `r + 1` past `r`
    // — a bit first reaching `w` at level `ℓ` can matter to a live row
    // only if `ℓ + near[w] ≤ r`. Measured whenever the live rows
    // are at most half of the graph, or have halved since: on a graph
    // most of whose rows are live it would prune little.
    let mut near = vec![0u32; n];
    let mut live_at_near = n;
    for pass in changes.chunks(EDGES_PER_PASS) {
        let live_now = live.iter().filter(|&&l| l).count();
        if live_now == 0 {
            return;
        }
        if 2 * live_now <= live_at_near {
            hops_to_live(g, live, r, &mut near);
            live_at_near = live_now;
        }
        seen.fill(0);
        let (mut deleted, mut inserted) = (0u64, 0u64);
        for (i, &(a, b, is_insert)) in pass.iter().enumerate() {
            let bit = 1u64 << (2 * i);
            if is_insert {
                inserted |= bit;
            } else {
                deleted |= bit;
            }
            // An appended endpoint is in no old row: never seen.
            for (end, bit) in [(a, bit), (b, bit << 1)] {
                if end.index() < n && near[end.index()] <= r {
                    if seen[end.index()] == 0 {
                        next.push(end);
                    }
                    seen[end.index()] |= bit;
                }
            }
        }
        reached.clear();
        reached.extend(next.drain(..).map(|v| (v, seen[v.index()])));
        for level in 0..r {
            for (x, bits) in std::mem::take(&mut pending) {
                if one_seen(seen[x.index()]) & bits != 0 {
                    live[x.index()] = false;
                }
            }
            for &(x, _) in &reached {
                if !live[x.index()] {
                    continue;
                }
                let one = one_seen(seen[x.index()]);
                let row = rows[x.index()].get().map_or(&[][..], |row| &row[..]);
                if unsupported(new_g, row, pass, seen[x.index()], one & deleted, level) {
                    live[x.index()] = false;
                } else if one & inserted != 0 {
                    pending.push((x, one & inserted));
                }
            }
            if level + 1 == r {
                break;
            }
            for &(u, bits) in &reached {
                for &w in neighbors(u) {
                    let fresh = bits & !seen[w.index()];
                    if fresh != 0 && level + 1 + near[w.index()] <= r {
                        if gain[w.index()] == 0 {
                            next.push(w);
                        }
                        gain[w.index()] |= fresh;
                    }
                }
            }
            reached.clear();
            for w in next.drain(..) {
                let bits = std::mem::take(&mut gain[w.index()]);
                seen[w.index()] |= bits;
                reached.push((w, bits));
            }
        }
        for (x, bits) in std::mem::take(&mut pending) {
            let at_r = neighbors(x).fold(seen[x.index()], |s, w| s | seen[w.index()]);
            if one_seen(at_r) & bits != 0 {
                live[x.index()] = false;
            }
        }
    }
}

/// Whether one of the deleted edges of `pass` whose low pair bits
/// `pairs` holds — each with exactly one endpoint, `near`, among the
/// bits `seen` of a vertex `x` at distance `level` — has no *support*:
/// no undirected neighbour of its other endpoint in `new_g` lies at
/// `level` in `x`'s old ball `row`. `near` itself is no neighbour
/// there, the edge being deleted, and neither is a vertex appended by
/// the diff, which no old row holds.
fn unsupported(
    new_g: &DiGraph,
    row: &[(VId, u16)],
    pass: &[(VId, VId, bool)],
    seen: u64,
    mut pairs: u64,
    level: u32,
) -> bool {
    while pairs != 0 {
        let bit = pairs.trailing_zeros();
        pairs &= pairs - 1;
        let (a, b, _) = pass[bit as usize / 2];
        let far = if seen >> bit & 1 == 1 { b } else { a };
        let at_level = |c: &VId| {
            row.binary_search_by_key(c, |&(w, _)| w)
                .is_ok_and(|i| u32::from(row[i].1) == level)
        };
        let mut around = new_g
            .out_neighbors(far)
            .iter()
            .chain(new_g.in_neighbors(far));
        if !around.any(at_level) {
            return true;
        }
    }
    false
}

/// Sets `near[w]` to the undirected hops from `w` to the nearest vertex
/// `live` marks in `g`, or to `r + 1` past `r`.
fn hops_to_live(g: &DiGraph, live: &[bool], r: u32, near: &mut [u32]) {
    near.fill(r + 1);
    let seeds: Vec<VId> = (0..live.len() as u32)
        .map(VId)
        .filter(|v| live[v.index()])
        .collect();
    with_slot(|slot| {
        slot.seed(g, &seeds);
        slot.fill(g, Direction::Undirected, r);
        for &u in slot.discovered() {
            near[u.index()] = slot.dist(u);
        }
    });
}

/// `pair(u, d)` for every `u ≠ v` within `r` undirected hops of `v`, `d`
/// its distance, in vertex order. The result is allocated once, at its
/// final length.
fn sorted_ball<T, C: FromIterator<T>>(
    g: &DiGraph,
    v: VId,
    r: u32,
    pair: impl Fn(VId, u32) -> T,
) -> C {
    with_slot(|slot| {
        slot.seed(g, &[v]);
        slot.fill(g, Direction::Undirected, r);
        slot.sort_discovered();
        let ball = slot.discovered();
        let at = ball.partition_point(|&u| u < v);
        let (below, from_v) = ball.split_at(at);
        // `from_v[0]` is `v` itself: the seed is always reached.
        (below.iter().chain(&from_v[1..]))
            .map(|&u| pair(u, slot.dist(u)))
            .collect()
    })
}

/// Every vertex within `r` undirected hops of `v`, `v` itself excluded,
/// with its distance, sorted by vertex id — the row
/// [`NeighborIndex::neighbors`] caches, for a bound that is not an
/// index's radius. Distances keep their full width: a `(VId, u32)` pair
/// is no larger than a `(VId, u16)` one.
pub fn undirected_distances(g: &DiGraph, v: VId, r: u32) -> Vec<(VId, u32)> {
    sorted_ball(g, v, r, |u, d| (u, d))
}

/// The answer graph of an r-clique: the keyword nodes `picked`, one per
/// keyword, plus an undirected witness path from `picked[0]` to every
/// other one, each edge oriented as the data graph has it.
///
/// The paths come from one BFS from `picked[0]` bounded by `r`, which
/// stops as soon as the last distinct keyword node is discovered: a
/// vertex's parent is fixed when it is discovered, and every vertex on
/// a keyword node's parent chain was discovered before it, so the paths
/// are those the full radius-`r` ball would give. A keyword node the
/// BFS did not reach — impossible when every pair is within `r` — gets
/// no path.
pub fn clique_answer(g: &DiGraph, r: u32, picked: &[VId], weight: u64) -> AnswerGraph {
    let keyword_matches = picked.iter().map(|&v| vec![v]).collect();
    let Some((&hub, targets)) = picked.split_first() else {
        return AnswerGraph::new(Vec::new(), Vec::new(), keyword_matches, None, weight);
    };
    let mut pending: Vec<VId> = targets.iter().copied().filter(|&t| t != hub).collect();
    pending.sort_unstable();
    pending.dedup();
    // Nothing to reach: a zero bound discovers nothing.
    let bound = if pending.is_empty() { 0 } else { r };
    let mut vertices = vec![hub];
    let mut edges = Vec::new();
    let found = |w: VId, _| {
        if let Ok(i) = pending.binary_search(&w) {
            pending.remove(i);
        }
        if pending.is_empty() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    with_slot(|slot| {
        slot.seed(g, &[hub]);
        let _ = slot.run(
            g,
            Direction::Undirected,
            bound,
            |_| ControlFlow::Continue(()),
            found,
        );
        for &t in targets {
            let path = slot.path_to_source(t);
            for w in path.windows(2) {
                let (cur, p) = (w[0], w[1]);
                if g.has_edge(p, cur) {
                    edges.push((p, cur));
                } else {
                    edges.push((cur, p));
                }
            }
            vertices.extend(path);
        }
    });
    AnswerGraph::new(vertices, edges, keyword_matches, None, weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::diff_graphs;
    use bgi_graph::{GraphBuilder, LabelId};
    use proptest::prelude::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> DiGraph {
        let edges = edges
            .iter()
            .map(|&(u, v)| (VId(u % n as u32), VId(v % n as u32)))
            .filter(|(u, v)| u != v)
            .collect();
        GraphBuilder::from_edges(vec![LabelId(0); n], edges)
    }

    /// 0 -> 1 -> 2, 3 -> 2 (undirected dist(0,3) = 3).
    fn sample() -> DiGraph {
        graph(4, &[(0, 1), (1, 2), (3, 2)])
    }

    /// The oracle: all-pairs undirected hop distances by one plain BFS
    /// per source over an adjacency list built here — nothing shared
    /// with the index's traversal or its scratch.
    fn oracle(g: &DiGraph) -> Vec<Vec<u32>> {
        let n = g.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for (u, v) in g.edges() {
            adj[u.index()].push(v.index());
            adj[v.index()].push(u.index());
        }
        (0..n)
            .map(|s| {
                let mut dist = vec![u32::MAX; n];
                dist[s] = 0;
                let mut frontier = vec![s];
                while !frontier.is_empty() {
                    let mut next = Vec::new();
                    for &u in &frontier {
                        for &w in &adj[u] {
                            if dist[w] == u32::MAX {
                                dist[w] = dist[u] + 1;
                                next.push(w);
                            }
                        }
                    }
                    frontier = next;
                }
                dist
            })
            .collect()
    }

    fn assert_matches_oracle(idx: &NeighborIndex, g: &DiGraph) {
        let want = oracle(g);
        assert_eq!(idx.num_rows(), g.num_vertices());
        for u in g.vertices() {
            for v in g.vertices() {
                let d = want[u.index()][v.index()];
                let expect = (d <= idx.radius()).then_some(d);
                assert_eq!(idx.distance(u, v), expect, "dist({u:?}, {v:?})");
            }
            let row = idx.neighbors(u);
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row {u:?} unsorted"
            );
        }
    }

    fn is_resident(idx: &NeighborIndex, v: VId) -> bool {
        idx.resident_rows().any(|(u, _)| u == v)
    }

    #[test]
    fn undirected_distances() {
        let g = sample();
        let idx = NeighborIndex::build(&g, 4);
        assert_eq!(idx.distance(VId(0), VId(1)), Some(1));
        assert_eq!(idx.distance(VId(1), VId(0)), Some(1)); // ignores direction
        assert_eq!(idx.distance(VId(0), VId(3)), Some(3));
        assert_eq!(idx.distance(VId(2), VId(2)), Some(0));
    }

    #[test]
    fn radius_bounds_distances() {
        let g = sample();
        let idx = NeighborIndex::build(&g, 2);
        assert_eq!(idx.distance(VId(0), VId(2)), Some(2));
        assert_eq!(idx.distance(VId(0), VId(3)), None);
    }

    #[test]
    fn build_fills_nothing_and_equality_forces_nothing() {
        let g = bgi_graph::generate::uniform_random(300, 900, 3, 9);
        let (a, b) = (NeighborIndex::build(&g, 3), NeighborIndex::build(&g, 3));
        assert_eq!(a, b);
        assert_ne!(a, NeighborIndex::build(&g, 2));
        assert_ne!(a, NeighborIndex::build(&sample(), 3));
        assert_eq!(a.resident_rows().count() + b.resident_rows().count(), 0);
    }

    #[test]
    fn empty_graph() {
        let idx = NeighborIndex::build(&GraphBuilder::new().build(), 3);
        assert_eq!(idx.num_rows(), 0);
        assert_eq!(idx.resident_rows().count(), 0);
    }

    #[test]
    fn one_thread_scratch_serves_graphs_of_different_sizes() {
        // Small, then large, then small again on this one thread: the
        // scratch must grow, and must come back clean each time.
        let big = bgi_graph::generate::uniform_random(200, 500, 3, 4);
        for g in [sample(), big, sample()] {
            assert_matches_oracle(&NeighborIndex::build(&g, 3), &g);
        }
    }

    #[test]
    fn fills_are_shared_by_clones_and_survive_only_clean_patches() {
        // Two far-apart paths: 0-1-2 and 10-11-12, radius 2.
        let n = 13;
        let base = [(0, 1), (1, 2), (10, 11), (11, 12)];
        let old = graph(n, &base);
        let engine_copy = NeighborIndex::build(&old, 2);
        let served_copy = engine_copy.clone();
        for v in [1, 10, 11] {
            assert_eq!(served_copy.neighbors(VId(v)).len(), 2);
            assert!(
                is_resident(&engine_copy, VId(v)),
                "a clone's fill is everyone's"
            );
        }
        assert_eq!(engine_copy.resident_rows().count(), 3);

        // 12-9 brings 9 within two hops of 11, but not of 10 or 1.
        let new = graph(n, &[&base[..], &[(12, 9)]].concat());
        let diff = diff_graphs(&old, &new, usize::MAX).unwrap();
        let patched = engine_copy.patched(&new, &diff).unwrap();
        assert!(is_resident(&patched, VId(1)) && is_resident(&patched, VId(10)));
        assert!(!is_resident(&patched, VId(11)), "dirtied row dropped");
        assert_matches_oracle(&patched, &new);
        // The pre-patch table still describes the old graph.
        assert!(is_resident(&served_copy, VId(11)));
        assert_matches_oracle(&served_copy, &old);
    }

    #[test]
    fn a_patch_that_dirties_every_row_still_succeeds_and_chains() {
        // A star: every vertex is within one hop of the hub, so
        // dropping a hub edge dirties every ball.
        let spokes: Vec<(u32, u32)> = (1..64).map(|v| (0, v)).collect();
        let mut g = graph(64, &spokes);
        let mut idx = NeighborIndex::build(&g, 2);
        assert_matches_oracle(&idx, &g);
        for keep in [62, 61] {
            let new = graph(64, &spokes[..keep]);
            let diff = diff_graphs(&g, &new, usize::MAX).unwrap();
            idx = idx.patched(&new, &diff).unwrap();
            // The spoke cut loose earlier is out of reach and stays.
            assert_eq!(idx.resident_rows().count(), 62 - keep);
            assert_matches_oracle(&idx, &new);
            g = new;
        }
    }

    #[test]
    fn a_patch_drops_only_the_rows_an_edit_can_move() {
        // A star, hub 0 and leaves 1..=5, at radius 2: every ball is the
        // whole graph.
        let spokes: Vec<(u32, u32)> = (1..6).map(|v| (0, v)).collect();
        let star = graph(6, &spokes);
        let idx = NeighborIndex::build(&star, 2);
        for v in star.vertices() {
            idx.neighbors(v);
        }

        // Leaves 1 and 2, both one hop from the hub, get an edge: the
        // hub's distances cannot move, the two leaves' can, and leaf 3
        // sees both at distance 2 either way.
        let chord = graph(6, &[&spokes[..], &[(1, 2)]].concat());
        let diff = diff_graphs(&star, &chord, usize::MAX).unwrap();
        let patched = idx.patched(&chord, &diff).unwrap();
        assert!(is_resident(&patched, VId(0)), "hub row carried over");
        assert!(!is_resident(&patched, VId(1)) && !is_resident(&patched, VId(2)));
        assert!((3..6).all(|v| is_resident(&patched, VId(v))));
        assert_matches_oracle(&patched, &chord);

        // Deleting the chord again: no shortest path from the hub or
        // from leaf 3 uses it, so both rows stay.
        let diff = diff_graphs(&chord, &star, usize::MAX).unwrap();
        let back = patched.patched(&star, &diff).unwrap();
        assert!(is_resident(&back, VId(0)) && is_resident(&back, VId(3)));
        assert!(!is_resident(&back, VId(1)) && !is_resident(&back, VId(2)));
        assert_matches_oracle(&back, &star);
    }

    #[test]
    fn an_edge_from_one_hop_to_the_radius_spares_the_row() {
        // 1 - 0 - 3 - 4 plus isolated vertices, radius 2, only row 0
        // resident. Edge 1-4 joins vertices at distances 1 and 2 from 0:
        // 4 stays at 2, so the row stays; 4's bit reaches 0 only at
        // level 2, through 3.
        let old = graph(10, &[(0, 1), (0, 3), (3, 4)]);
        let idx = NeighborIndex::build(&old, 2);
        idx.neighbors(VId(0));
        let new = graph(10, &[(0, 1), (0, 3), (3, 4), (1, 4)]);
        let diff = diff_graphs(&old, &new, usize::MAX).unwrap();
        let patched = idx.patched(&new, &diff).unwrap();
        assert!(is_resident(&patched, VId(0)));
        assert_matches_oracle(&patched, &new);
    }

    #[test]
    fn a_reciprocal_edit_moves_no_row() {
        // 0 <-> 1 -> 2: deleting 1 -> 0 or adding 2 -> 1 leaves the
        // undirected view as it was.
        let old = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let idx = NeighborIndex::build(&old, 2);
        for v in old.vertices() {
            idx.neighbors(v);
        }
        let new = graph(3, &[(0, 1), (1, 2), (2, 1)]);
        let diff = diff_graphs(&old, &new, usize::MAX).unwrap();
        assert_eq!(diff.edge_ops(), 2);
        let patched = idx.patched(&new, &diff).unwrap();
        assert_eq!(patched.resident_rows().count(), 3);
        assert_matches_oracle(&patched, &new);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn a_radius_a_row_cannot_hold_is_refused() {
        NeighborIndex::build(&sample(), MAX_RADIUS + 1);
    }

    #[test]
    fn racing_first_readers_see_one_row() {
        let g = bgi_graph::generate::uniform_random(400, 1600, 3, 21);
        let idx = NeighborIndex::build(&g, 4);
        let gate = std::sync::Barrier::new(2);
        for v in g.vertices().take(64) {
            let (a, b) = std::thread::scope(|s| {
                let read = || {
                    gate.wait();
                    idx.neighbors(v)
                };
                let (ha, hb) = (s.spawn(read), s.spawn(read));
                (ha.join().unwrap(), hb.join().unwrap())
            });
            assert!(std::ptr::eq(a, b), "row {v:?} was computed twice");
        }
        assert_eq!(idx.resident_rows().count(), 64);
    }

    #[test]
    fn patch_declines_an_index_of_another_graph() {
        let (old, other) = (graph(6, &[(0, 1)]), graph(5, &[(0, 1)]));
        let new = graph(6, &[(0, 1), (1, 2)]);
        let diff = diff_graphs(&old, &new, usize::MAX).unwrap();
        assert!(NeighborIndex::build(&other, 2)
            .patched(&new, &diff)
            .is_none());
    }

    /// One random edit: the seed edge list to drop from / add to, and
    /// how many vertices to append (each wired to an existing one).
    type Edit = (Vec<u32>, Vec<(u32, u32)>, usize);

    fn apply(g: &DiGraph, (drops, adds, appended): &Edit) -> DiGraph {
        let mut edges: Vec<(VId, VId)> = g.edges().collect();
        for &d in drops {
            if !edges.is_empty() {
                edges.swap_remove(d as usize % edges.len());
            }
        }
        let n_old = g.num_vertices() as u32;
        let n = n_old + *appended as u32;
        for k in 0..*appended as u32 {
            edges.push((VId(n_old + k), VId((k * 7 + drops.len() as u32) % n_old)));
        }
        for &(u, v) in adds {
            if u % n != v % n {
                edges.push((VId(u % n), VId(v % n)));
            }
        }
        GraphBuilder::from_edges(vec![LabelId(0); n as usize], edges)
    }

    /// The undirected edges of `g`, each as `(lower, higher)`.
    fn undirected(g: &DiGraph) -> std::collections::BTreeSet<(VId, VId)> {
        g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect()
    }

    /// The undirected neighbours of `v` in `g`.
    fn around(g: &DiGraph, v: VId) -> impl Iterator<Item = VId> + '_ {
        g.out_neighbors(v).iter().chain(g.in_neighbors(v)).copied()
    }

    /// Whether the rule of [`NeighborIndex::patched`], read straight off
    /// the oracle's old-graph distances, spares row `x` of an index at
    /// radius `r` when `old` becomes `new`.
    fn rule_spares(old: &DiGraph, new: &DiGraph, r: u32, x: VId) -> bool {
        let dist = &oracle(old)[x.index()];
        let d = |v: VId| dist.get(v.index()).map_or(r + 1, |&d| d.min(r + 1));
        let (before, after) = (undirected(old), undirected(new));
        let shortens = |&(a, b): &(VId, VId)| {
            let (da, db) = (d(a), d(b));
            da.min(db) < r && da.abs_diff(db) >= 2
        };
        let unsupported = |&(a, b): &(VId, VId)| {
            let (near, far) = if d(a) < d(b) { (a, b) } else { (b, a) };
            let l = d(near);
            l < r && d(far) == l + 1 && !around(new, far).any(|c| c != near && d(c) == l)
        };
        !before.difference(&after).any(unsupported) && !after.difference(&before).any(shortens)
    }

    /// Whether row `x`'s ball at radius `r` is the same in `old` and
    /// `new`, by the oracle: the same vertices at the same distances.
    fn ball_unchanged(old: &DiGraph, new: &DiGraph, r: u32, x: VId) -> bool {
        let ball = |g: &DiGraph| -> Vec<(usize, u32)> {
            let dist = &oracle(g)[x.index()];
            (dist.iter().enumerate())
                .filter(|&(v, &d)| v != x.index() && d <= r)
                .map(|(v, &d)| (v, d))
                .collect()
        };
        ball(old) == ball(new)
    }

    /// Every row of an index at radius `r` over `old`, resident, patched
    /// to `new`: the rows kept.
    fn kept_rows(old: &DiGraph, new: &DiGraph, r: u32) -> Vec<VId> {
        let idx = NeighborIndex::build(old, r);
        for v in old.vertices() {
            idx.neighbors(v);
        }
        let diff = diff_graphs(old, new, usize::MAX).expect("same vertices");
        let patched = idx.patched(new, &diff).expect("same graph lineage");
        let kept = patched.resident_rows().map(|(v, _)| v).collect();
        // Reading every row fills the dropped ones too: after the count.
        assert_matches_oracle(&patched, new);
        kept
    }

    #[test]
    fn a_deleted_edge_with_another_way_in_keeps_the_row() {
        // A diamond x=0, a=1, c=2, b=3: 0-1-3 and 0-2-3, radius 3.
        let diamond = [(0, 1), (1, 3), (0, 2), (2, 3)];
        let old = graph(4, &diamond);
        // Without {a, b}, b is still two hops from x through c.
        let cut = graph(4, &[(0, 1), (0, 2), (2, 3)]);
        assert!(kept_rows(&old, &cut, 3).contains(&VId(0)));
        // Without {a, b} and {c, b}, b is unreachable.
        let both = graph(4, &[(0, 1), (0, 2)]);
        assert!(!kept_rows(&old, &both, 3).contains(&VId(0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn a_patch_keeps_exactly_the_rows_the_rule_spares(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..80),
            radius in 0u32..5,
            filled in 0u64..u64::MAX,
            drops in proptest::collection::vec(0u32..1000, 0..40),
            adds in proptest::collection::vec((0u32..1000, 0u32..1000), 0..40),
            appended in 0usize..3,
        ) {
            // Any subset of the rows is resident, and an edit may take
            // several passes of the traversal.
            let g = graph(n, &edges);
            let idx = NeighborIndex::build(&g, radius);
            for v in g.vertices().filter(|v| filled >> (v.index() % 64) & 1 == 1) {
                idx.neighbors(v);
            }
            let new = apply(&g, &(drops, adds, appended));
            let diff = diff_graphs(&g, &new, usize::MAX).expect("append-only vertex edits");
            let patched = idx.patched(&new, &diff).expect("same graph lineage");
            let kept: Vec<VId> = patched.resident_rows().map(|(v, _)| v).collect();
            let spared: Vec<VId> = idx
                .resident_rows()
                .map(|(v, _)| v)
                .filter(|&v| rule_spares(&g, &new, radius, v))
                .collect();
            prop_assert_eq!(kept, spared);
            assert_matches_oracle(&patched, &new);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn one_undirected_edit_drops_exactly_the_rows_it_changes(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..80),
            radius in 0u32..5,
            edit in (0u32..1000, 0u32..1000),
        ) {
            // The edit removes the edge `u -> v` if there is one and
            // inserts it otherwise: a deletion, an insertion, or one
            // direction of a reciprocal pair, which moves nothing.
            let g = graph(n, &edges);
            let (u, v) = (VId(edit.0 % n as u32), VId(edit.1 % n as u32));
            prop_assume!(u != v);
            let mut new_edges: Vec<(VId, VId)> = g.edges().filter(|&e| e != (u, v)).collect();
            if !g.has_edge(u, v) {
                new_edges.push((u, v));
            }
            let new = GraphBuilder::from_edges(g.labels().to_vec(), new_edges);
            let unchanged: Vec<VId> = g
                .vertices()
                .filter(|&x| ball_unchanged(&g, &new, radius, x))
                .collect();
            prop_assert_eq!(kept_rows(&g, &new, radius), unchanged);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn distances_match_a_plain_bfs_through_any_patch_chain(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..80),
            radius in 1u32..5,
            chain in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..1000, 0..3),
                    proptest::collection::vec((0u32..1000, 0u32..1000), 0..3),
                    0usize..3,
                ),
                0..5,
            ),
        ) {
            // Every check reads every row, so each patch starts from a
            // fully filled table: a row wrongly carried over as clean
            // would still hold its old ball and fail the next check.
            let mut g = graph(n, &edges);
            let mut idx = NeighborIndex::build(&g, radius);
            assert_matches_oracle(&idx, &g);
            for edit in &chain {
                let new = apply(&g, edit);
                let diff = diff_graphs(&g, &new, usize::MAX).expect("append-only vertex edits");
                idx = idx.patched(&new, &diff).expect("same graph lineage");
                prop_assert!(idx == NeighborIndex::build(&new, radius));
                assert_matches_oracle(&idx, &new);
                g = new;
            }
        }
    }
}
