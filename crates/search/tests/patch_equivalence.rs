//! Patched indexes must be indistinguishable from rebuilt ones.
//!
//! Each index type's `patched` entry point claims exact equivalence to
//! a full rebuild. These tests drive randomized edit scripts — edge
//! deletions, edge insertions, vertex appends — over random graphs and
//! compare the patched structure against the reference constructor.
//! BANKS' label table is the graph's own, so its patch is the splice
//! that appends vertices to a graph, compared label by label.
//! The r-clique neighbor rows are a cache that `==` deliberately never
//! forces, so they are compared row by row here; the oracle-backed
//! property test of `NeighborIndex::patched` lives beside the type.

use bgi_graph::generate::{preferential_attachment, uniform_random};
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::patch::diff_graphs;
use bgi_search::{KeywordSearch, RClique};

/// Tiny deterministic generator (xorshift64*) so the edit scripts are
/// reproducible without an external rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies a random edit script to `old`: `dels` edge deletions,
/// `ins` edge insertions, `adds` appended vertices (each wired to one
/// random existing vertex so it is not isolated).
fn mutate(old: &DiGraph, seed: u64, dels: usize, ins: usize, adds: usize) -> DiGraph {
    let mut rng = Rng(seed | 1);
    let mut labels = old.labels().to_vec();
    let mut edges: Vec<(VId, VId)> = old.edges().collect();
    let alphabet = old.alphabet_size().max(1);
    for _ in 0..dels {
        if edges.is_empty() {
            break;
        }
        let i = rng.below(edges.len());
        edges.swap_remove(i);
    }
    let n_old = old.num_vertices();
    for _ in 0..ins {
        let u = VId(rng.below(n_old) as u32);
        let v = VId(rng.below(n_old) as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    for _ in 0..adds {
        let id = VId(labels.len() as u32);
        labels.push(LabelId(rng.below(alphabet) as u32));
        let anchor = VId(rng.below(n_old) as u32);
        if rng.next().is_multiple_of(2) {
            edges.push((anchor, id));
        } else {
            edges.push((id, anchor));
        }
    }
    GraphBuilder::from_edges(labels, edges)
}

/// Edit-script shapes exercised by every test below: pure deletions,
/// pure insertions, pure vertex appends, and mixed batches.
const SCRIPTS: &[(usize, usize, usize)] = &[(2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 3, 2), (1, 1, 1)];

#[test]
fn banks_patch_equals_rebuild() {
    for seed in 0..8u64 {
        let old = uniform_random(150, 450, 6, seed);
        for &(dels, ins, adds) in SCRIPTS {
            let new = mutate(&old, seed * 31 + 7, dels, ins, adds);
            let diff = diff_graphs(&old, &new, usize::MAX).expect("compatible by construction");
            let patched = old.with_rows(&diff.added_labels, &[], &[]);
            for l in 0..=new.alphabet_size() as u32 {
                let l = LabelId(l);
                assert_eq!(
                    patched.vertices_with(l),
                    new.vertices_with(l),
                    "seed {seed}"
                );
            }
        }
    }
}

/// `old` plus the reverse of its first edge that has none: a directed
/// insertion the undirected rows cannot see.
fn reverse_one(old: &DiGraph) -> Option<DiGraph> {
    let (u, v) = old.edges().find(|&(u, v)| !old.has_edge(v, u))?;
    let edges = old.edges().chain([(v, u)]).collect();
    Some(GraphBuilder::from_edges(old.labels().to_vec(), edges))
}

/// `old` less one direction of its first reciprocal pair: a directed
/// deletion the undirected rows cannot see either.
fn unpair_one(old: &DiGraph) -> Option<DiGraph> {
    let (u, v) = old.edges().find(|&(u, v)| old.has_edge(v, u))?;
    let edges = old.edges().filter(|&e| e != (u, v)).collect();
    Some(GraphBuilder::from_edges(old.labels().to_vec(), edges))
}

/// A preferential-attachment graph — the hub-heavy shape whose radius-4
/// balls are most of the graph — with every eighth edge made reciprocal.
fn hub_graph(seed: u64) -> DiGraph {
    let g = preferential_attachment(400, 2, 5, seed);
    let reversed: Vec<(VId, VId)> = g.edges().step_by(8).map(|(u, v)| (v, u)).collect();
    GraphBuilder::from_edges(g.labels().to_vec(), g.edges().chain(reversed).collect())
}

#[test]
fn rclique_patch_equals_rebuild() {
    // Sparse uniform graphs at radius 2, also under 40 edge edits (two
    // passes of the row-invalidation BFS), and hub graphs at radius 4.
    // A hub graph's radius-4 ball is most of the graph, so the 20
    // inserts of the 40-edit script shorten a path to every row and
    // would leave none to carry over. A deleted edge's far endpoint
    // there often has another neighbour at the near endpoint's
    // distance, so the deletion scripts still carry rows over.
    let cases = (0..4u64)
        .map(|seed| (seed, uniform_random(500, 750, 5, seed), 2, true))
        .chain((0..2u64).map(|seed| (seed, hub_graph(seed), 4, false)));
    for (seed, old, radius, large) in cases {
        let algo = RClique { radius };
        let base = algo.build_index(&old);
        // Fill every row, so the patch has something to carry over.
        for v in old.vertices() {
            base.neighbors(v);
        }
        let scripted = SCRIPTS
            .iter()
            .map(|&(dels, ins, adds)| mutate(&old, seed * 613 + 11, dels, ins, adds));
        let large = large.then(|| mutate(&old, seed * 613 + 13, 20, 20, 0));
        let directed = [reverse_one(&old), unpair_one(&old)].into_iter().flatten();
        for new in scripted.chain(large).chain(directed) {
            let diff = diff_graphs(&old, &new, usize::MAX).expect("compatible by construction");
            let patched = base.patched(&new, &diff).expect("base describes old");
            let rebuilt = algo.build_index(&new);
            assert_eq!(patched, rebuilt, "seed {seed}");
            assert!(patched.resident_rows().count() > 0);
            for v in new.vertices() {
                assert_eq!(
                    patched.neighbors(v),
                    rebuilt.neighbors(v),
                    "seed {seed} row {v:?}"
                );
            }
        }
    }
}
