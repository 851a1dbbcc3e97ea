//! The bounded-BFS kernel every expansion in the workspace runs on.
//!
//! All distances are hop counts (the paper's semantics use unweighted
//! shortest distances), so single-source shortest paths are plain BFS.
//! One BFS state is a [`Slot`]: a dense `u32` distance and a dense
//! [`VId`] parent per vertex, and one discovery-order list that is both
//! the FIFO queue and the list of entries the next [`Slot::seed`]
//! resets. A slot is seeded with one or many sources and expanded one
//! level at a time ([`Slot::expand_level`]) or up to a depth
//! ([`Slot::run`]), forward, backward or over the undirected view. Two
//! hooks see the expansion: one per dequeued vertex (where callers poll
//! a budget) and one per discovered vertex; either may `Break`.
//!
//! Slots come from one thread-local pool ([`with_slots`]) that grows to
//! the largest graph and the most slots a thread has held at once, so a
//! traversal costs `O(region)`: no `O(n)` allocation or fill per call
//! and no hash table. BANKS' and BLINKS' per-keyword expansions,
//! r-clique's row fills and witness paths, the shard planner's halos,
//! and the helpers below ([`bfs_distances`], [`shortest_distance`],
//! [`r_hop_ball`], [`undirected_r_hop_ball`]) all take their slots here.
//! Every output lists vertices in discovery order.

use crate::graph::DiGraph;
use crate::ids::VId;
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Which edges a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (`u -> v` visits `v` from `u`).
    Forward,
    /// Follow in-edges (`u -> v` visits `u` from `v`) — the direction of
    /// backward keyword search.
    Backward,
    /// Follow both: a vertex's out-neighbors, then its in-neighbors.
    Undirected,
}

/// Sentinel distance for "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// One BFS state over a graph's vertex ids (see the module docs).
///
/// Every method but [`Slot::seed`] reads or extends the traversal the
/// last `seed` started; a slot fresh from the pool may still hold a
/// previous traversal until it is seeded.
#[derive(Debug, Default)]
pub struct Slot {
    dist: Vec<u32>,
    /// `parent[v]` is meaningful only while `dist[v]` is set and
    /// nonzero: it is written once, when `v` is discovered.
    parent: Vec<VId>,
    /// Every vertex reached, in discovery order: `order[head..level_end]`
    /// is the part of the current level not yet dequeued, and
    /// `order[level_end..]` the next level discovered so far.
    order: Vec<VId>,
    head: usize,
    level_end: usize,
    /// Distance of the level being dequeued.
    depth: u32,
    /// Vertex count of the graph the slot was last seeded on.
    n: usize,
}

impl Slot {
    /// Starts a traversal of `g` from `sources` (duplicates ignored) at
    /// distance 0, clearing only the entries the previous traversal set
    /// and growing the dense arrays if `g` is the largest graph yet.
    pub fn seed(&mut self, g: &DiGraph, sources: &[VId]) {
        for &v in &self.order {
            self.dist[v.index()] = UNREACHED;
        }
        self.order.clear();
        self.n = g.num_vertices();
        if self.dist.len() < self.n {
            self.dist.resize(self.n, UNREACHED);
            self.parent.resize(self.n, VId(u32::MAX));
        }
        for &s in sources {
            if self.dist[s.index()] == UNREACHED {
                self.dist[s.index()] = 0;
                self.order.push(s);
            }
        }
        self.head = 0;
        self.level_end = self.order.len();
        self.depth = 0;
    }

    /// Dequeues the rest of the current level, calling `on_dequeue(u)`
    /// before expanding each `u` and `on_discover(w, d)` as each new `w`
    /// is discovered at distance `d`, the level's plus one. Either hook
    /// stops the expansion by breaking, and its value is returned. A
    /// level that completes makes its discoveries the current level.
    ///
    /// After a break every discovered vertex keeps its distance and
    /// parent, and expanding again resumes where the break left off: at
    /// the vertex whose dequeue hook broke, or at the vertex being
    /// expanded when the discovery hook broke, whose dequeue hook then
    /// runs again and whose neighbors are scanned again.
    pub fn expand_level<B>(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        mut on_dequeue: impl FnMut(VId) -> ControlFlow<B>,
        mut on_discover: impl FnMut(VId, u32) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let next = self.depth + 1;
        while self.head < self.level_end {
            let u = self.order[self.head];
            on_dequeue(u)?;
            let (first, then): (&[VId], &[VId]) = match dir {
                Direction::Forward => (g.out_neighbors(u), &[]),
                Direction::Backward => (g.in_neighbors(u), &[]),
                Direction::Undirected => (g.out_neighbors(u), g.in_neighbors(u)),
            };
            self.discover(u, first, next, &mut on_discover)?;
            self.discover(u, then, next, &mut on_discover)?;
            self.head += 1;
        }
        self.depth = next;
        self.level_end = self.order.len();
        ControlFlow::Continue(())
    }

    #[inline]
    fn discover<B>(
        &mut self,
        u: VId,
        neighbors: &[VId],
        d: u32,
        on_discover: &mut impl FnMut(VId, u32) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for &w in neighbors {
            if self.dist[w.index()] == UNREACHED {
                self.dist[w.index()] = d;
                self.parent[w.index()] = u;
                self.order.push(w);
                on_discover(w, d)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Expands level by level until nothing is left to dequeue or the
    /// current level sits at `max_depth`; the vertices at `max_depth`
    /// are still dequeued (`on_dequeue` sees every reached vertex, the
    /// way a FIFO BFS pops them) but not expanded. The hooks are
    /// [`Slot::expand_level`]'s.
    pub fn run<B>(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        max_depth: u32,
        mut on_dequeue: impl FnMut(VId) -> ControlFlow<B>,
        mut on_discover: impl FnMut(VId, u32) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        while self.head < self.level_end {
            if self.depth >= max_depth {
                while self.head < self.level_end {
                    on_dequeue(self.order[self.head])?;
                    self.head += 1;
                }
                break;
            }
            self.expand_level(g, dir, &mut on_dequeue, &mut on_discover)?;
        }
        ControlFlow::Continue(())
    }

    /// [`Slot::run`] with no hooks: every vertex within `max_depth`.
    pub fn fill(&mut self, g: &DiGraph, dir: Direction, max_depth: u32) {
        let go = |_| ControlFlow::<()>::Continue(());
        let _ = self.run(g, dir, max_depth, go, |_, _| ControlFlow::Continue(()));
    }

    /// Distance of `v` from the nearest source, or [`UNREACHED`].
    #[inline]
    pub fn dist(&self, v: VId) -> u32 {
        self.dist[v.index()]
    }

    /// True if the traversal has discovered `v` (or seeded it).
    #[inline]
    pub fn reached(&self, v: VId) -> bool {
        self.dist[v.index()] != UNREACHED
    }

    /// The vertex that discovered `v`; `None` for a source or an
    /// unreached vertex.
    #[inline]
    pub fn parent(&self, v: VId) -> Option<VId> {
        match self.dist[v.index()] {
            0 | UNREACHED => None,
            _ => Some(self.parent[v.index()]),
        }
    }

    /// `v` and its parent chain down to a source: a shortest path from
    /// that source to `v`, read backwards. Just `[v]` if `v` is a source
    /// or unreached.
    pub fn path_to_source(&self, v: VId) -> Vec<VId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Every vertex reached, sources first, in discovery order (unless
    /// [`Slot::sort_discovered`] reordered them).
    #[inline]
    pub fn discovered(&self) -> &[VId] {
        &self.order
    }

    /// The vertices of the current level not yet dequeued: after a
    /// completed [`Slot::expand_level`], the whole level at
    /// [`Slot::depth`].
    #[inline]
    pub fn frontier(&self) -> &[VId] {
        &self.order[self.head..self.level_end]
    }

    /// Distance of the current level.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Puts [`Slot::discovered`] in vertex-id order and ends the
    /// traversal: it cannot be expanded further. A set of at least
    /// `1 / SWEEP_SHARE` of the graph is rebuilt by one sweep over the
    /// distance array, a smaller one sorted.
    pub fn sort_discovered(&mut self) {
        if self.order.len() * SWEEP_SHARE >= self.n {
            let dist = &self.dist;
            self.order.clear();
            (self.order).extend(
                (0..self.n as u32)
                    .map(VId)
                    .filter(|u| dist[u.index()] != UNREACHED),
            );
        } else {
            self.order.sort_unstable();
        }
        self.head = self.order.len();
        self.level_end = self.order.len();
    }
}

/// Filling every radius-4 r-clique row on one CPU, sort against sweep:
/// dbpedia_like(2000), 1 786-vertex balls, 109 against 82 µs a row;
/// yago_like(3000), 2 444, 117 against 73 µs; imdb_like(3000), 2 929,
/// 180 against 93 µs; road_like(4000), 93, 5.3 against 7.7 µs. The
/// crossover sits near `n / 13` on both shapes.
const SWEEP_SHARE: usize = 16;

thread_local! {
    /// The calling thread's idle slots.
    static POOL: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// Lends `k` slots from this thread's pool to `f` and takes them back
/// afterwards; slots the pool lacks are made empty and kept after. One
/// caller asks for all the slots it holds at once (BLINKS advances one
/// expansion per keyword round-robin).
///
/// Re-entrant: a request made inside `f` is served from the slots still
/// idle, or from new ones, and the pool then keeps both sets. If `f`
/// panics, the slots it held are dropped.
pub fn with_slots<T>(k: usize, f: impl FnOnce(&mut [Slot]) -> T) -> T {
    let mut slots = POOL.with_borrow_mut(|pool| pool.split_off(pool.len().saturating_sub(k)));
    slots.resize_with(k, Slot::default);
    let out = f(&mut slots);
    POOL.with_borrow_mut(|pool| pool.append(&mut slots));
    out
}

/// [`with_slots`] for one slot.
pub fn with_slot<T>(f: impl FnOnce(&mut Slot) -> T) -> T {
    with_slots(1, |slots| f(&mut slots[0]))
}

/// Single-source hop distances from `s` in `dir`, bounded by `max_depth`.
/// Returns `(vertex, distance)` pairs for every vertex within the bound,
/// in discovery order.
pub fn bfs_distances(g: &DiGraph, s: VId, dir: Direction, max_depth: u32) -> Vec<(VId, u32)> {
    with_slot(|slot| {
        slot.seed(g, &[s]);
        slot.fill(g, dir, max_depth);
        slot.discovered()
            .iter()
            .map(|&v| (v, slot.dist(v)))
            .collect()
    })
}

/// Shortest hop distance from `u` to `v` following out-edges, or `None`
/// if `v` is not reachable within `max_depth`.
pub fn shortest_distance(g: &DiGraph, u: VId, v: VId, max_depth: u32) -> Option<u32> {
    if u == v {
        return Some(0);
    }
    with_slot(|slot| {
        slot.seed(g, &[u]);
        let found = |x, d| {
            if x == v {
                ControlFlow::Break(d)
            } else {
                ControlFlow::Continue(())
            }
        };
        slot.run(
            g,
            Direction::Forward,
            max_depth,
            |_| ControlFlow::Continue(()),
            found,
        )
        .break_value()
    })
}

/// True if `v` is reachable from `u` (following out-edges) within
/// `max_depth` hops. `reach(u, v, G)` in the paper's Prop. 5.1.
pub fn reachable(g: &DiGraph, u: VId, v: VId, max_depth: u32) -> bool {
    shortest_distance(g, u, v, max_depth).is_some()
}

/// The vertices reachable from `v` within `r` hops (forward), `v`
/// first, in discovery order. Used for r-hop node-induced subgraph
/// sampling (Sec. 3.2).
pub fn r_hop_ball(g: &DiGraph, v: VId, r: u32) -> Vec<VId> {
    ball(g, v, Direction::Forward, r)
}

/// The vertices within `r` hops of `v` ignoring edge direction, `v`
/// first, in discovery order. Compression-ratio sampling uses undirected
/// balls: the collapsible "sibling" vertices of a hub live in its
/// *in*-neighborhood, which a forward ball from an entity never contains.
pub fn undirected_r_hop_ball(g: &DiGraph, v: VId, r: u32) -> Vec<VId> {
    ball(g, v, Direction::Undirected, r)
}

fn ball(g: &DiGraph, v: VId, dir: Direction, r: u32) -> Vec<VId> {
    with_slot(|slot| {
        slot.seed(g, &[v]);
        slot.fill(g, dir, r);
        slot.discovered().to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::LabelId;
    use std::collections::VecDeque;

    /// Path 0 -> 1 -> 2 -> 3 plus shortcut 0 -> 2.
    fn path_graph() -> DiGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(LabelId(0));
        }
        b.add_edge(VId(0), VId(1));
        b.add_edge(VId(1), VId(2));
        b.add_edge(VId(2), VId(3));
        b.add_edge(VId(0), VId(2));
        b.build()
    }

    /// A pseudo-random graph on `n` vertices with `3n` edges.
    fn random_graph(n: u32, seed: u64) -> DiGraph {
        crate::generate::uniform_random(n as usize, 3 * n as usize, 2, seed)
    }

    /// The oracle: a plain FIFO BFS over adjacency lists built here from
    /// `g.edges()` — nothing shared with the kernel. Out-edges are listed
    /// before in-edges, each in the graph's edge order, so parents (the
    /// first discoverer) are comparable too. Returns `(dist, parent,
    /// discovery order)`.
    fn oracle(
        g: &DiGraph,
        sources: &[VId],
        dir: Direction,
        max_depth: u32,
    ) -> (Vec<u32>, Vec<Option<VId>>, Vec<VId>) {
        let n = g.num_vertices();
        let (mut out, mut inn) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for (u, v) in g.edges() {
            out[u.index()].push(v);
            inn[v.index()].push(u);
        }
        let adj: Vec<Vec<VId>> = (0..n)
            .map(|u| match dir {
                Direction::Forward => out[u].clone(),
                Direction::Backward => inn[u].clone(),
                Direction::Undirected => out[u].iter().chain(&inn[u]).copied().collect(),
            })
            .collect();
        let mut dist = vec![UNREACHED; n];
        let mut parent = vec![None; n];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        for &s in sources {
            if dist[s.index()] == UNREACHED {
                dist[s.index()] = 0;
                order.push(s);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            if dist[u.index()] >= max_depth {
                continue;
            }
            for &w in &adj[u.index()] {
                if dist[w.index()] == UNREACHED {
                    dist[w.index()] = dist[u.index()] + 1;
                    parent[w.index()] = Some(u);
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
        (dist, parent, order)
    }

    fn assert_slot_matches(slot: &Slot, g: &DiGraph, sources: &[VId], dir: Direction, r: u32) {
        let (dist, parent, order) = oracle(g, sources, dir, r);
        assert_eq!(
            slot.discovered(),
            &order[..],
            "{dir:?} from {sources:?} to {r}"
        );
        for v in g.vertices() {
            assert_eq!(slot.dist(v), dist[v.index()], "dist {v:?}");
            assert_eq!(slot.parent(v), parent[v.index()], "parent {v:?}");
        }
    }

    #[test]
    fn forward_distances() {
        let g = path_graph();
        let d = bfs_distances(&g, VId(0), Direction::Forward, 10);
        let get = |v: u32| d.iter().find(|(x, _)| *x == VId(v)).map(|&(_, d)| d);
        assert_eq!(get(0), Some(0));
        assert_eq!(get(1), Some(1));
        assert_eq!(get(2), Some(1)); // via shortcut
        assert_eq!(get(3), Some(2));
    }

    #[test]
    fn backward_distances() {
        let g = path_graph();
        let d = bfs_distances(&g, VId(3), Direction::Backward, 10);
        let get = |v: u32| d.iter().find(|(x, _)| *x == VId(v)).map(|&(_, d)| d);
        assert_eq!(get(3), Some(0));
        assert_eq!(get(2), Some(1));
        assert_eq!(get(0), Some(2)); // 0 -> 2 -> 3 backwards
    }

    #[test]
    fn depth_bound_respected() {
        let g = path_graph();
        let d = bfs_distances(&g, VId(0), Direction::Forward, 1);
        assert!(d.iter().all(|&(_, dist)| dist <= 1));
        assert_eq!(d.len(), 3); // 0, 1, 2
    }

    #[test]
    fn shortest_distance_and_reachability() {
        let g = path_graph();
        assert_eq!(shortest_distance(&g, VId(0), VId(3), 10), Some(2));
        assert_eq!(shortest_distance(&g, VId(3), VId(0), 10), None);
        assert_eq!(shortest_distance(&g, VId(1), VId(1), 0), Some(0));
        assert!(reachable(&g, VId(0), VId(3), 2));
        assert!(!reachable(&g, VId(0), VId(3), 1));
    }

    #[test]
    fn r_hop_ball_contents() {
        let g = path_graph();
        assert_eq!(r_hop_ball(&g, VId(0), 1), vec![VId(0), VId(1), VId(2)]);
        assert_eq!(undirected_r_hop_ball(&g, VId(3), 1), vec![VId(3), VId(2)]);
        assert_eq!(
            undirected_r_hop_ball(&g, VId(2), 1),
            vec![VId(2), VId(3), VId(0), VId(1)]
        );
    }

    #[test]
    fn every_direction_matches_a_plain_bfs() {
        for seed in 0..6 {
            let g = random_graph(60, seed);
            for dir in [
                Direction::Forward,
                Direction::Backward,
                Direction::Undirected,
            ] {
                for r in [0, 1, 2, 5, UNREACHED - 1] {
                    let s = VId(seed as u32 * 7 % 60);
                    with_slot(|slot| {
                        slot.seed(&g, &[s]);
                        slot.fill(&g, dir, r);
                        assert_slot_matches(slot, &g, &[s], dir, r);
                    });
                }
            }
        }
    }

    #[test]
    fn undirected_lists_out_neighbors_before_in_neighbors() {
        // 1 -> 0 and 0 -> 2: from 0, 2 (out) is discovered before 1 (in).
        let g = GraphBuilder::from_edges(
            vec![LabelId(0); 3],
            vec![(VId(1), VId(0)), (VId(0), VId(2))],
        );
        with_slot(|slot| {
            slot.seed(&g, &[VId(0)]);
            slot.fill(&g, Direction::Undirected, 1);
            assert_eq!(slot.discovered(), &[VId(0), VId(2), VId(1)]);
            assert_eq!(slot.parent(VId(1)), Some(VId(0)));
            assert_eq!(slot.path_to_source(VId(1)), vec![VId(1), VId(0)]);
        });
    }

    #[test]
    fn multi_source_seeding() {
        let g = random_graph(80, 11);
        let sources = [VId(3), VId(40), VId(3), VId(77)];
        with_slot(|slot| {
            slot.seed(&g, &sources);
            assert_eq!(slot.frontier(), &[VId(3), VId(40), VId(77)]);
            slot.fill(&g, Direction::Undirected, 3);
            assert_slot_matches(slot, &g, &sources, Direction::Undirected, 3);
            for s in [VId(3), VId(40), VId(77)] {
                assert_eq!((slot.dist(s), slot.parent(s)), (0, None));
            }
        });
    }

    #[test]
    fn levels_advance_one_at_a_time_and_stop_after_level_l() {
        let g = random_graph(100, 5);
        with_slot(|slot| {
            slot.seed(&g, &[VId(0)]);
            for level in 0..3u32 {
                let frontier = slot.frontier().to_vec();
                assert!(frontier.iter().all(|&v| slot.dist(v) == level));
                let mut dequeued = Vec::new();
                let flow = slot.expand_level(
                    &g,
                    Direction::Backward,
                    |u| {
                        dequeued.push(u);
                        ControlFlow::<()>::Continue(())
                    },
                    |_, d| {
                        assert_eq!(d, level + 1);
                        ControlFlow::Continue(())
                    },
                );
                assert!(flow.is_continue());
                assert_eq!(dequeued, frontier);
                assert_eq!(slot.depth(), level + 1);
                // Stopping after level `ℓ` leaves exactly the plain BFS
                // bounded by `ℓ`: the next level is discovered, not expanded.
                assert_slot_matches(slot, &g, &[VId(0)], Direction::Backward, level + 1);
            }
        });
    }

    #[test]
    fn run_dequeues_every_reached_vertex_once() {
        let g = random_graph(100, 9);
        with_slot(|slot| {
            slot.seed(&g, &[VId(1), VId(2)]);
            let mut dequeued = Vec::new();
            let flow = slot.run(
                &g,
                Direction::Forward,
                2,
                |u| {
                    dequeued.push(u);
                    ControlFlow::<()>::Continue(())
                },
                |_, _| ControlFlow::Continue(()),
            );
            assert!(flow.is_continue());
            assert_eq!(dequeued, slot.discovered());
            assert!(slot.frontier().is_empty());
        });
    }

    #[test]
    fn a_break_mid_level_keeps_what_was_discovered_and_resumes() {
        let g = random_graph(200, 21);
        let (dist, _, order) = oracle(&g, &[VId(0)], Direction::Undirected, UNREACHED);
        // Break on the first vertex at distance 2, inside level 1's expansion.
        let target = *order.iter().find(|v| dist[v.index()] == 2).unwrap();
        with_slot(|slot| {
            slot.seed(&g, &[VId(0)]);
            let flow = slot.run(
                &g,
                Direction::Undirected,
                UNREACHED,
                |_| ControlFlow::Continue(()),
                |w, d| {
                    if w == target {
                        ControlFlow::Break(d)
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(flow, ControlFlow::Break(2));
            let at = order.iter().position(|&v| v == target).unwrap();
            assert_eq!(slot.discovered(), &order[..=at]);
            assert_eq!(slot.depth(), 1, "level 1 was interrupted");
            for &v in slot.discovered() {
                assert_eq!(slot.dist(v), dist[v.index()]);
            }
            // Expanding again finishes the interrupted level and the rest.
            slot.fill(&g, Direction::Undirected, UNREACHED);
            assert_slot_matches(slot, &g, &[VId(0)], Direction::Undirected, UNREACHED);
        });
    }

    #[test]
    fn a_break_from_the_dequeue_hook_stops_before_expanding() {
        let g = path_graph();
        with_slot(|slot| {
            slot.seed(&g, &[VId(0)]);
            let flow = slot.run(
                &g,
                Direction::Forward,
                10,
                |u| {
                    if u == VId(1) {
                        ControlFlow::Break(u)
                    } else {
                        ControlFlow::Continue(())
                    }
                },
                |_, _| ControlFlow::Continue(()),
            );
            assert_eq!(flow, ControlFlow::Break(VId(1)));
            // 1 was not expanded, so 3 (only via 2 at depth 2) is unreached.
            assert_eq!(slot.discovered(), &[VId(0), VId(1), VId(2)]);
            assert!(!slot.reached(VId(3)));
        });
    }

    #[test]
    fn a_slot_reused_across_graph_sizes_keeps_no_stale_distance() {
        let big = random_graph(1_000, 3);
        let small = random_graph(10, 4);
        for (first, second) in [(&big, &small), (&small, &big)] {
            with_slot(|slot| {
                slot.seed(first, &[VId(0)]);
                slot.fill(first, Direction::Undirected, UNREACHED);
                slot.seed(second, &[VId(5)]);
                slot.fill(second, Direction::Undirected, 2);
                assert_slot_matches(slot, second, &[VId(5)], Direction::Undirected, 2);
            });
        }
        // The thread's pooled slot, too: the last fill above was of the
        // big graph, and a helper on the small one must not see it.
        let got = bfs_distances(&small, VId(9), Direction::Forward, UNREACHED);
        let (dist, _, order) = oracle(&small, &[VId(9)], Direction::Forward, UNREACHED);
        let want: Vec<_> = order.iter().map(|&v| (v, dist[v.index()])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sorted_discovery_is_the_ball_in_id_order() {
        for (n, r) in [(500u32, 1), (500, 4)] {
            // Radius 1 sorts a small ball; radius 4 sweeps a large one.
            let g = random_graph(n, 8);
            with_slot(|slot| {
                slot.seed(&g, &[VId(17)]);
                slot.fill(&g, Direction::Undirected, r);
                let mut want = slot.discovered().to_vec();
                want.sort_unstable();
                slot.sort_discovered();
                assert_eq!(slot.discovered(), &want[..]);
                assert!(slot.frontier().is_empty());
                // The next seed still clears every entry.
                slot.seed(&g, &[VId(3)]);
                slot.fill(&g, Direction::Undirected, 1);
                assert_slot_matches(slot, &g, &[VId(3)], Direction::Undirected, 1);
            });
        }
    }

    #[test]
    fn a_reentrant_request_gets_its_own_slots() {
        let g = random_graph(50, 2);
        let pooled = || POOL.with_borrow(Vec::len);
        let before = pooled();
        with_slots(2, |outer| {
            outer[0].seed(&g, &[VId(0)]);
            outer[0].fill(&g, Direction::Forward, 3);
            // A nested request is served from idle or new slots and
            // never aliases the outer ones.
            let inner = bfs_distances(&g, VId(1), Direction::Backward, 2);
            let (dist, _, order) = oracle(&g, &[VId(1)], Direction::Backward, 2);
            assert_eq!(
                inner,
                order
                    .iter()
                    .map(|&v| (v, dist[v.index()]))
                    .collect::<Vec<_>>()
            );
            assert_slot_matches(&outer[0], &g, &[VId(0)], Direction::Forward, 3);
        });
        // The pool keeps every slot held at once: two outer, one inner.
        assert!(pooled() >= before.max(3));
    }
}
