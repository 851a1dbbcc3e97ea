//! The r-clique neighbor index.
//!
//! For each vertex `v`, every vertex within `R` *undirected* hops
//! together with its distance, sorted by vertex id for `O(log)` lookup.
//! Kargar & An materialize exactly this `O(n·|ball_R|)` structure up
//! front; the BiG-index paper reports it reaching an estimated 16 TB on
//! IMDB. Here a row is a *cache entry*: it is a pure function of
//! `(graph, radius, v)`, computed by one bounded BFS the first time it
//! is read and kept for as long as no update dirties it. Nothing about
//! it is ever persisted.
//!
//! The same thread-local BFS scratch serves the two traversals that
//! need no row: [`undirected_distances`], a ball at a caller's bound,
//! and [`clique_answer`], the witness paths of an r-clique answer.

use crate::answer::AnswerGraph;
use bgi_graph::{DiGraph, VId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// One vertex's ball, filled on first read.
type BallRow = OnceLock<Arc<[(VId, u16)]>>;

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
    pub fn build(g: &DiGraph, radius: u32) -> Self {
        NeighborIndex {
            radius,
            graph: Arc::new(g.clone()),
            rows: (0..g.num_vertices()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Incrementally patched copy of this index for `new_g`, the graph
    /// `diff` leads to from the one this index describes (see
    /// [`crate::patch`]).
    ///
    /// A row `x` changes only if, in the old or the new graph, a
    /// shortest path of length `≤ radius` from `x` crosses a changed
    /// edge. Cut that path at its *first* changed edge: the prefix is
    /// at most `radius − 1` unchanged edges — edges both graphs have —
    /// and ends at one of the edge's endpoints. The dirty set is
    /// therefore the union of the endpoints' `(radius − 1)`-balls in
    /// `new_g` alone: one multi-source BFS, however many edits a
    /// group-commit batch coalesced. The result gets a fresh slot table
    /// over `new_g` that carries over every filled row outside the
    /// dirty set; dirty and appended rows start unfilled and are
    /// computed against `new_g` on first read. An edge touching a hub
    /// can dirty half the graph's balls, so recomputing them here would
    /// cost as much as the rebuild this patch exists to avoid.
    ///
    /// Returns `None` only when `self` cannot describe the graph `diff`
    /// starts from (row count mismatch) — the caller should rebuild.
    pub fn patched(
        &self,
        new_g: &DiGraph,
        diff: &crate::patch::GraphDiff,
    ) -> Option<NeighborIndex> {
        let n_new = new_g.num_vertices();
        if self.num_rows() + diff.added_labels.len() != n_new {
            return None;
        }
        let mut endpoints: Vec<VId> = diff
            .inserted
            .iter()
            .chain(&diff.deleted)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let mut dirty = vec![false; n_new];
        for &e in &endpoints {
            dirty[e.index()] = true;
        }
        let reach = self.radius.saturating_sub(1);
        undirected_ball(new_g, &endpoints, reach, |u, _| dirty[u.index()] = true);
        let rows = (0..n_new)
            .map(|v| match self.rows.get(v).and_then(OnceLock::get) {
                Some(row) if !dirty[v] => OnceLock::from(Arc::clone(row)),
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
        self.rows[v.index()].get_or_init(|| {
            let mut row = Vec::new();
            undirected_ball(&self.graph, &[v], self.radius, |u, d| {
                row.push((u, d as u16));
            });
            row.sort_unstable_by_key(|&(u, _)| u);
            row.into()
        })
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

/// BFS scratch over the undirected view of a graph; `touched` lists
/// the `dist` slots the previous traversal left set. `parent[v]` is
/// meaningful only while `dist[v]` is set: it is written once, when `v`
/// is discovered.
struct Scratch {
    dist: Vec<u32>,
    parent: Vec<VId>,
    touched: Vec<VId>,
    queue: VecDeque<VId>,
}

thread_local! {
    /// One scratch per thread, grown to the largest graph seen: a row
    /// fill must cost `O(ball)`, not an `O(n)` allocation and memset.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            dist: Vec::new(),
            parent: Vec::new(),
            touched: Vec::new(),
            queue: VecDeque::new(),
        })
    };
}

/// Runs a BFS over the undirected view of `g` from every seed at once,
/// expanding vertices at distance `< r` only, and calls `visit(u, d)`
/// as each non-seed `u` is discovered at distance `d` from its nearest
/// seed — the union of the seeds' radius-`r` balls in one traversal.
/// The traversal stops early once `visit` breaks. `finish` then reads
/// the scratch the traversal left: `dist` and `parent` of every
/// discovered vertex.
fn undirected_bfs<T>(
    g: &DiGraph,
    seeds: &[VId],
    r: u32,
    mut visit: impl FnMut(VId, u32) -> ControlFlow<()>,
    finish: impl FnOnce(&Scratch) -> T,
) -> T {
    SCRATCH.with_borrow_mut(|s| {
        for t in s.touched.drain(..) {
            s.dist[t.index()] = u32::MAX;
        }
        s.queue.clear();
        if s.dist.len() < g.num_vertices() {
            s.dist.resize(g.num_vertices(), u32::MAX);
            s.parent.resize(g.num_vertices(), VId(u32::MAX));
        }
        for &seed in seeds {
            if s.dist[seed.index()] == u32::MAX {
                s.dist[seed.index()] = 0;
                s.touched.push(seed);
                s.queue.push_back(seed);
            }
        }
        'bfs: while let Some(u) = s.queue.pop_front() {
            let d = s.dist[u.index()];
            if d >= r {
                continue;
            }
            for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if s.dist[w.index()] == u32::MAX {
                    s.dist[w.index()] = d + 1;
                    s.parent[w.index()] = u;
                    s.touched.push(w);
                    s.queue.push_back(w);
                    if visit(w, d + 1).is_break() {
                        break 'bfs;
                    }
                }
            }
        }
        finish(s)
    })
}

/// Calls `visit(u, d)` for every `u` not in `seeds` within `r`
/// undirected hops of *any* seed, `d` its distance to the nearest one.
fn undirected_ball(g: &DiGraph, seeds: &[VId], r: u32, mut visit: impl FnMut(VId, u32)) {
    undirected_bfs(
        g,
        seeds,
        r,
        |u, d| {
            visit(u, d);
            ControlFlow::Continue(())
        },
        |_| (),
    );
}

/// Every vertex within `r` undirected hops of `v`, `v` itself excluded,
/// with its distance, sorted by vertex id — the row
/// [`NeighborIndex::neighbors`] caches, for a bound that is not an
/// index's radius. Distances keep their full width: a `(VId, u32)` pair
/// is no larger than a `(VId, u16)` one.
pub fn undirected_distances(g: &DiGraph, v: VId, r: u32) -> Vec<(VId, u32)> {
    let mut row = Vec::new();
    undirected_ball(g, &[v], r, |u, d| row.push((u, d)));
    row.sort_unstable_by_key(|&(u, _)| u);
    row
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
    undirected_bfs(g, &[hub], bound, found, |s| {
        for &t in targets {
            let mut cur = t;
            vertices.push(cur);
            while cur != hub && s.dist[cur.index()] != u32::MAX {
                let p = s.parent[cur.index()];
                if g.has_edge(p, cur) {
                    edges.push((p, cur));
                } else {
                    edges.push((cur, p));
                }
                vertices.push(p);
                cur = p;
            }
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
