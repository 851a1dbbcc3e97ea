//! Patched indexes must be indistinguishable from rebuilt ones.
//!
//! Each index type's `patched` entry point claims exact equivalence to
//! a full rebuild (for BLINKS: a rebuild over the same extended
//! partition). These tests drive randomized edit scripts — edge
//! deletions, edge insertions, vertex appends — over random graphs and
//! compare the patched structure against the reference constructor with
//! `==` (BANKS and BLINKS derive `PartialEq` over their full contents).
//! The r-clique neighbor rows are a cache that `==` deliberately never
//! forces, so they are compared row by row here; the oracle-backed
//! property test of `NeighborIndex::patched` lives beside the type.

use bgi_graph::generate::uniform_random;
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::blinks::{BlinksIndex, BlinksParams};
use bgi_search::patch::diff_graphs;
use bgi_search::{Banks, KeywordSearch, RClique};

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
            let patched = Banks.build_index(&old).patched(&new, &diff);
            assert_eq!(patched, Banks.build_index(&new), "seed {seed}");
        }
    }
}

#[test]
fn blinks_patch_equals_rebuild_over_same_partition() {
    let params = BlinksParams {
        block_size: 40,
        prune_dist: 3,
    };
    for seed in 0..6u64 {
        let old = uniform_random(400, 700, 6, seed);
        let base = BlinksIndex::build(&old, &params);
        for &(dels, ins, adds) in SCRIPTS {
            let new = mutate(&old, seed * 977 + 3, dels, ins, adds);
            let diff = diff_graphs(&old, &new, usize::MAX).expect("compatible by construction");
            let Some(patched) = base.patched(&old, &new, &diff) else {
                // Affected set crossed the size threshold — a legal
                // fallback, but the sparse setup should keep it rare.
                continue;
            };
            let rebuilt = BlinksIndex::build_with_partition(
                &new,
                patched.partition().clone(),
                params.prune_dist,
            );
            assert_eq!(patched, rebuilt, "seed {seed} script {dels}/{ins}/{adds}");
        }
    }
}

#[test]
fn blinks_patch_extends_partition_with_singletons() {
    let params = BlinksParams {
        block_size: 25,
        prune_dist: 3,
    };
    let old = uniform_random(120, 240, 4, 9);
    let base = BlinksIndex::build(&old, &params);
    let new = mutate(&old, 77, 0, 0, 3);
    let diff = diff_graphs(&old, &new, usize::MAX).unwrap();
    let patched = base
        .patched(&old, &new, &diff)
        .expect("3 appends are local");
    let p = patched.partition();
    assert_eq!(p.num_blocks(), base.partition().num_blocks() + 3);
    for k in 0..3u32 {
        let v = VId(120 + k);
        assert_eq!(
            p.block_of(v) as usize,
            base.partition().num_blocks() + k as usize
        );
    }
    // Existing assignments are untouched.
    for v in 0..120u32 {
        assert_eq!(p.block_of(VId(v)), base.partition().block_of(VId(v)));
    }
}

#[test]
fn rclique_patch_equals_rebuild() {
    let algo = RClique { radius: 2 };
    for seed in 0..4u64 {
        let old = uniform_random(500, 750, 5, seed);
        let base = algo.build_index(&old);
        // Fill every row, so the patch has something to carry over.
        for v in old.vertices() {
            base.neighbor.neighbors(v);
        }
        for &(dels, ins, adds) in SCRIPTS {
            let new = mutate(&old, seed * 613 + 11, dels, ins, adds);
            let diff = diff_graphs(&old, &new, usize::MAX).expect("compatible by construction");
            let patched = base.patched(&new, &diff).expect("base describes old");
            let rebuilt = algo.build_index(&new);
            assert_eq!(patched, rebuilt, "seed {seed}");
            assert!(patched.neighbor.resident_rows().count() > 0);
            for v in new.vertices() {
                assert_eq!(
                    patched.neighbor.neighbors(v),
                    rebuilt.neighbor.neighbors(v),
                    "seed {seed} row {v:?}"
                );
            }
        }
    }
}
