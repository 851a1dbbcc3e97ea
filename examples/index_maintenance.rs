//! Index maintenance under graph updates (Sec. 3.2, "Maintenance of
//! BiG-index"): incremental bisimulation keeps a *valid* (stable)
//! partition after edge insertions and deletions — so queries stay
//! correct — while a periodic rebuild restores maximal compression.
//! The partition does not own the graph: the caller updates its graph
//! and hands each new version over with the batch that produced it.
//!
//! ```sh
//! cargo run --release --example index_maintenance
//! ```

use big_index_repro::bisim::incremental::{IncrementalBisim, Update};
use big_index_repro::bisim::properties::is_stable;
use big_index_repro::bisim::BisimDirection;
use big_index_repro::graph::{DiGraph, GraphBuilder, LabelId, VId};

/// `g` with the edge updates of `batch` applied.
fn updated(g: &DiGraph, batch: &[Update]) -> DiGraph {
    let mut edges: Vec<(VId, VId)> = g.edges().collect();
    for u in batch {
        match *u {
            Update::InsertEdge(a, b) => edges.push((a, b)),
            Update::DeleteEdge(a, b) => edges.retain(|&e| e != (a, b)),
            Update::AddVertex => {}
        }
    }
    GraphBuilder::from_edges(g.labels().to_vec(), edges)
}

fn main() {
    // A fan of 200 persons pointing at one hub: 2 blocks when maximal.
    let mut b = GraphBuilder::new();
    let hub = b.add_vertex(LabelId(1));
    for _ in 0..200 {
        let p = b.add_vertex(LabelId(0));
        b.add_edge(p, hub);
    }
    let mut g = b.build();

    let mut inc = IncrementalBisim::new(&g, BisimDirection::Forward);
    println!(
        "initial: {} blocks over {} vertices",
        inc.partition().num_blocks(),
        g.num_vertices()
    );
    assert_eq!(inc.partition().num_blocks(), 2);

    // Apply a batch of updates: some persons gain extra edges (splits),
    // some lose theirs.
    let mut batch: Vec<Update> = (1..=20u32)
        .map(|i| Update::InsertEdge(VId(i), VId(i + 20)))
        .collect();
    batch.extend((41..=50u32).map(|i| Update::DeleteEdge(VId(i), hub)));
    g = updated(&g, &batch);
    inc.apply_batch(&g, &batch);
    let stable = is_stable(&g, inc.partition(), BisimDirection::Forward);
    println!(
        "after 30 updates: {} blocks (stable: {stable})",
        inc.partition().num_blocks(),
    );
    assert!(stable);

    // Undo everything: the graph is back to the fan, but the incremental
    // partition is finer than maximal (splits are never merged back).
    let undo: Vec<Update> = batch
        .iter()
        .map(|u| match *u {
            Update::InsertEdge(a, b) => Update::DeleteEdge(a, b),
            Update::DeleteEdge(a, b) => Update::InsertEdge(a, b),
            Update::AddVertex => Update::AddVertex,
        })
        .collect();
    g = updated(&g, &undo);
    inc.apply_batch(&g, &undo);
    let before_rebuild = inc.partition().num_blocks();
    let rebuilt = IncrementalBisim::new(&g, BisimDirection::Forward);
    println!(
        "graph restored: {} blocks incrementally, {} after rebuild",
        before_rebuild,
        rebuilt.partition().num_blocks()
    );
    assert!(before_rebuild >= rebuilt.partition().num_blocks());
    assert_eq!(rebuilt.partition().num_blocks(), 2);
}
