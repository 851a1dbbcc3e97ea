//! How many r-clique neighbor rows a single-op commit drops, on the data
//! graphs of the five benchmark workloads, with every radius-4 row
//! resident before the commit:
//!
//! - *r − 1 hops*: every row within `r − 1` undirected hops of a changed
//!   edge's endpoints in the new graph (the rule `NeighborIndex::patched`
//!   applied before it judged rows one by one);
//! - *dropped*: the rows `NeighborIndex::patched` drops;
//! - *changed*: the rows whose ball really differs in the new graph.
//!
//! Each op of the product's update stream (6 inserts : 3 deletes : 1
//! vertex addition) is applied on its own to the generated graph, so
//! every commit starts from the same fully resident index. Prints one
//! Markdown table row per graph: the number of commits that changed an
//! edge (a vertex addition changes none and drops nothing), the mean
//! share of rows each of them drops under each rule, the share whose
//! ball changes, and the dropped and changed shares over the insertions
//! and the deletions alone.
//!
//! A commit of one op changes at most one undirected edge, and for such
//! a commit `patched` drops exactly the rows whose ball changes. The
//! example checks that row by row and exits with status 1, naming the
//! first commit that differs, if one drops a row whose ball is unchanged
//! or keeps one that changed.
//!
//! ```text
//! cargo run --release -p bgi-bench --example row_survival [ops]
//! ```
//!
//! `ops` (default 40) is the number of commits per graph. Filling every
//! row holds `n · |ball|` pairs: about 70 MB on imdb_like(3000).

use bgi_datasets::updates::{update_stream, UpdateMix, UpdateOp};
use bgi_datasets::DatasetSpec;
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::patch::diff_graphs;
use bgi_search::rclique::{undirected_distances, NeighborIndex};
use std::collections::BTreeSet;

const RADIUS: u32 = 4;

/// `g` with the one op applied.
fn apply(g: &DiGraph, op: UpdateOp) -> DiGraph {
    let mut labels = g.labels().to_vec();
    let mut edges: Vec<(VId, VId)> = g.edges().collect();
    match op {
        UpdateOp::InsertEdge { src, dst } => edges.push((VId(src), VId(dst))),
        UpdateOp::DeleteEdge { src, dst } => edges.retain(|&e| e != (VId(src), VId(dst))),
        UpdateOp::AddVertex { label } => labels.push(LabelId(label)),
    }
    GraphBuilder::from_edges(labels, edges)
}

fn main() {
    let ops: usize = std::env::args()
        .nth(1)
        .map_or(40, |a| a.parse().expect("ops is a count"));
    println!(
        "| workload | graph | commits | r − 1 hops | dropped | changed | inserts: dropped | inserts: changed | deletes: dropped | deletes: changed |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    let mut inexact = Vec::new();
    for (workload, spec) in [
        ("query_cold", DatasetSpec::yago_like(3000)),
        ("query_hot", DatasetSpec::imdb_like(3000)),
        ("query_sharded", DatasetSpec::road_like(4000)),
        ("mixed_rw", DatasetSpec::dbpedia_like(2000)),
        ("build_load", DatasetSpec::yago_like(2000)),
    ] {
        let name = spec.name();
        let g = spec.generate().graph;
        let n = g.num_vertices();
        let index = NeighborIndex::build(&g, RADIUS);
        for v in g.vertices() {
            index.neighbors(v);
        }
        let mut hop_rule = 0;
        // `(commits, rows dropped, rows changed)` per kind: insert, delete.
        let mut by_kind = [(0, 0, 0); 2];
        for op in update_stream(&g, 0xC0FFEE, ops, UpdateMix::default()) {
            let new = apply(&g, op);
            let diff = diff_graphs(&g, &new, usize::MAX).expect("one op appends at most");
            if diff.edge_ops() == 0 {
                continue;
            }
            let mut dirty: BTreeSet<VId> = BTreeSet::new();
            for &(a, b) in diff.inserted.iter().chain(&diff.deleted) {
                for e in [a, b] {
                    dirty.insert(e);
                    let ball = undirected_distances(&new, e, RADIUS - 1);
                    dirty.extend(ball.into_iter().map(|(u, _)| u));
                }
            }
            hop_rule += dirty.iter().filter(|v| v.index() < n).count();
            let patched = index.patched(&new, &diff).expect("index describes g");
            let kept: BTreeSet<VId> = patched.resident_rows().map(|(v, _)| v).collect();
            let changed: BTreeSet<VId> = g
                .vertices()
                .filter(|&v| {
                    let was = index.neighbors(v).iter().map(|&(u, d)| (u, u32::from(d)));
                    was.ne(undirected_distances(&new, v, RADIUS))
                })
                .collect();
            let kind = &mut by_kind[usize::from(diff.inserted.is_empty())];
            kind.0 += 1;
            kind.1 += n - kept.len();
            kind.2 += changed.len();
            // Exact: the rows kept are the rows whose ball is unchanged.
            if let Some(v) = g
                .vertices()
                .find(|v| kept.contains(v) == changed.contains(v))
            {
                inexact.push(format!("{name}({n}) {op:?}: row {v:?}"));
            }
        }
        let pct = |rows: usize, commits: usize| 100.0 * rows as f64 / (commits * n).max(1) as f64;
        let [ins, del] = by_kind;
        let (commits, dropped, changed) = (ins.0 + del.0, ins.1 + del.1, ins.2 + del.2);
        println!(
            "| {workload} | {name}({n}) | {commits} | {:.1} % | {:.1} % | {:.1} % | {:.1} % ({}) | {:.1} % | {:.1} % ({}) | {:.1} % |",
            pct(hop_rule, commits),
            pct(dropped, commits),
            pct(changed, commits),
            pct(ins.1, ins.0),
            ins.0,
            pct(ins.2, ins.0),
            pct(del.1, del.0),
            del.0,
            pct(del.2, del.0),
        );
    }
    if !inexact.is_empty() {
        eprintln!(
            "{} single-op commits dropped other rows than the ones whose ball changed:",
            inexact.len()
        );
        for line in &inexact {
            eprintln!("  {line}");
        }
        std::process::exit(1);
    }
}
