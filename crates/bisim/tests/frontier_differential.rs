//! The frontier kernel against the round-by-round engine it replaced.
//!
//! The reference below is the refinement the crate ran before the
//! frontier: every round re-signs *every* vertex (`refine_round`), the
//! fixpoint is reached when the block count stops growing, and an
//! incremental repair renumbers the fixpoint onto the partition it
//! started from (`remap_onto_parent`). The coarsest stable refinement
//! is unique and both numberings are canonical, so the frontier must
//! reproduce the reference assignment for assignment — in a full build
//! and after every batch of a random update stream, in all three
//! directions. The full build must also relate exactly the pairs the
//! definition-level greatest fixpoint of Sec. 2 relates.

use bgi_bisim::{
    maximal_bisimulation, quotient_size, summarize, BisimDirection, IncrementalBisim, Partition,
    Update,
};
use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

const DIRECTIONS: [BisimDirection; 3] = [
    BisimDirection::Forward,
    BisimDirection::Backward,
    BisimDirection::Both,
];

/// One reference round: re-bucket *every* vertex by `(block, sorted
/// distinct neighbor blocks)`, ids in first-occurrence vertex order.
fn refine_round(g: &DiGraph, part: &Partition, dir: BisimDirection) -> Partition {
    let forward = matches!(dir, BisimDirection::Forward | BisimDirection::Both);
    let backward = matches!(dir, BisimDirection::Backward | BisimDirection::Both);
    let blocks = |ns: &[VId]| {
        let mut s: Vec<u32> = ns.iter().map(|&w| part.block_of(w)).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let sigs: Vec<(u32, Vec<u32>, Vec<u32>)> = g
        .vertices()
        .map(|v| {
            let out = if forward {
                blocks(g.out_neighbors(v))
            } else {
                Vec::new()
            };
            let inn = if backward {
                blocks(g.in_neighbors(v))
            } else {
                Vec::new()
            };
            (part.block_of(v), out, inn)
        })
        .collect();
    let mut ids: FxHashMap<&(u32, Vec<u32>, Vec<u32>), u32> = FxHashMap::default();
    let block_of: Vec<u32> = sigs
        .iter()
        .map(|sig| {
            let next = ids.len() as u32;
            *ids.entry(sig).or_insert(next)
        })
        .collect();
    let num_blocks = ids.len();
    Partition::new(block_of, num_blocks)
}

/// The reference fixpoint: rounds until the block count stops growing.
fn fixpoint(g: &DiGraph, mut part: Partition, dir: BisimDirection) -> Partition {
    loop {
        let next = refine_round(g, &part, dir);
        if next.num_blocks() == part.num_blocks() {
            return next;
        }
        part = next;
    }
}

/// The reference renumbering of a refinement onto its parent: within
/// each parent block the fragment holding the block's lowest vertex
/// keeps the parent's id, every other fragment gets a fresh id past the
/// parent's count, in order of its lowest vertex.
fn remap_onto_parent(parent: &Partition, refined: &Partition) -> Partition {
    let n = refined.num_vertices();
    let mut parent_first = vec![u32::MAX; parent.num_blocks()];
    for v in (0..n as u32).rev() {
        parent_first[parent.block_of(VId(v)) as usize] = v;
    }
    let mut map = vec![u32::MAX; refined.num_blocks()];
    let mut next = parent.num_blocks() as u32;
    for v in 0..n as u32 {
        let rb = refined.block_of(VId(v)) as usize;
        if map[rb] != u32::MAX {
            continue;
        }
        let pb = parent.block_of(VId(v));
        map[rb] = if parent_first[pb as usize] == v {
            pb
        } else {
            next += 1;
            next - 1
        };
    }
    let assignment = (0..n as u32)
        .map(|v| map[refined.block_of(VId(v)) as usize])
        .collect();
    Partition::new(assignment, next as usize)
}

/// The greatest bisimulation straight from Sec. 2's definition, with
/// no partition refinement: start from every same-label pair and drop
/// `(u, v)` while some neighbor of one (successor, predecessor, or
/// both, per `dir`) has no related neighbor at the other.
fn bisimilarity_reference(g: &DiGraph, dir: BisimDirection) -> Vec<Vec<bool>> {
    let n = g.num_vertices();
    let mut rel: Vec<Vec<bool>> = (0..n)
        .map(|u| (0..n).map(|v| g.labels()[u] == g.labels()[v]).collect())
        .collect();
    let matched = |rel: &[Vec<bool>], from: &[VId], to: &[VId]| {
        from.iter()
            .all(|a| to.iter().any(|b| rel[a.index()][b.index()]))
    };
    let forward = matches!(dir, BisimDirection::Forward | BisimDirection::Both);
    let backward = matches!(dir, BisimDirection::Backward | BisimDirection::Both);
    loop {
        let mut changed = false;
        for (u, v) in g.vertices().flat_map(|u| g.vertices().map(move |v| (u, v))) {
            if !rel[u.index()][v.index()] {
                continue;
            }
            let both_ways = |adj: fn(&DiGraph, VId) -> &[VId]| {
                matched(&rel, adj(g, u), adj(g, v)) && matched(&rel, adj(g, v), adj(g, u))
            };
            let keep = (!forward || both_ways(DiGraph::out_neighbors))
                && (!backward || both_ways(DiGraph::in_neighbors));
            if !keep {
                rel[u.index()][v.index()] = false;
                rel[v.index()][u.index()] = false;
                changed = true;
            }
        }
        if !changed {
            return rel;
        }
    }
}

fn graph(n: usize, labels: &[u32], num_labels: u32, edges: &[(u32, u32)]) -> DiGraph {
    // Self-loops and parallel edges stay in: both are legal input and
    // both reach the signature.
    GraphBuilder::from_edges(
        labels[..n]
            .iter()
            .map(|l| LabelId(l % num_labels))
            .collect(),
        edges
            .iter()
            .map(|&(u, v)| (VId(u % n as u32), VId(v % n as u32)))
            .collect(),
    )
}

/// `g` after `updates`, the way the ingest engine's graph evolves.
fn applied(g: &DiGraph, updates: &[Update]) -> DiGraph {
    let mut labels = g.labels().to_vec();
    let mut edges: Vec<(VId, VId)> = g.edges().collect();
    for u in updates {
        match *u {
            Update::InsertEdge(a, b) => edges.push((a, b)),
            Update::DeleteEdge(a, b) => edges.retain(|&e| e != (a, b)),
            Update::AddVertex => labels.push(LabelId(0)),
        }
    }
    GraphBuilder::from_edges(labels, edges)
}

/// A random batch against `g`: inserts (self-loops and duplicates
/// included), deletes of present and of absent edges, and vertex
/// additions, with edge ops free to name the batch's additions.
fn batch(g: &DiGraph, raw: &[(u8, u32, u32)]) -> Vec<Update> {
    let mut n = g.num_vertices() as u32;
    let edges: Vec<(VId, VId)> = g.edges().collect();
    raw.iter()
        .map(|&(kind, a, b)| match kind % 5 {
            0 | 1 => Update::InsertEdge(VId(a % n), VId(b % n)),
            2 if !edges.is_empty() => {
                let (u, v) = edges[a as usize % edges.len()];
                Update::DeleteEdge(u, v)
            }
            2 | 3 => Update::DeleteEdge(VId(a % n), VId(b % n)),
            _ => {
                n += 1;
                Update::AddVertex
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A full build equals the reference fixpoint id for id, relates
    /// exactly the definition's pairs, and counts the summary's size.
    #[test]
    fn full_build_matches_the_round_engine(
        n in 1usize..64,
        num_labels in 1u32..5,
        labels in proptest::collection::vec(0u32..1000, 64),
        edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..200),
    ) {
        let g = graph(n, &labels, num_labels, &edges);
        for dir in DIRECTIONS {
            let part = maximal_bisimulation(&g, dir);
            let expect = fixpoint(&g, Partition::from_labels(g.labels()), dir);
            prop_assert_eq!(part.assignment(), expect.assignment());
            prop_assert_eq!(part.num_blocks(), expect.num_blocks());
            let rel = bisimilarity_reference(&g, dir);
            for (u, v) in g.vertices().flat_map(|u| g.vertices().map(move |v| (u, v))) {
                prop_assert_eq!(rel[u.index()][v.index()], part.equivalent(u, v));
            }
            prop_assert_eq!(quotient_size(&g, &part), summarize(&g, &part).graph.size());
        }
    }

    /// After every batch of a random stream, the maintained partition is
    /// the reference repair of the previous one, id for id.
    #[test]
    fn commits_match_the_reference_repair(
        n in 1usize..48,
        num_labels in 1u32..4,
        labels in proptest::collection::vec(0u32..1000, 64),
        edges in proptest::collection::vec((0u32..1000, 0u32..1000), 0..120),
        stream in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u32..1000, 0u32..1000), 1..6),
            1..8,
        ),
    ) {
        let start = graph(n, &labels, num_labels, &edges);
        for dir in DIRECTIONS {
            let mut g = start.clone();
            let mut inc = IncrementalBisim::new(&g, dir);
            let mut reference = maximal_bisimulation(&g, dir);
            prop_assert_eq!(inc.partition(), &reference);
            for raw in &stream {
                let updates = batch(&g, raw);
                g = applied(&g, &updates);
                inc.apply_batch(&g, &updates);
                // Reference: new vertices as fresh singletons, then the
                // fixpoint renumbered onto that parent.
                let mut parent = reference.assignment().to_vec();
                let mut next = reference.num_blocks() as u32;
                while parent.len() < g.num_vertices() {
                    parent.push(next);
                    next += 1;
                }
                let parent = Partition::new(parent, next as usize);
                reference = remap_onto_parent(&parent, &fixpoint(&g, parent.clone(), dir));
                prop_assert_eq!(inc.partition().assignment(), reference.assignment());
                prop_assert_eq!(inc.partition().num_blocks(), reference.num_blocks());
                for b in 0..reference.num_blocks() as u32 {
                    let expect: Vec<VId> =
                        g.vertices().filter(|&v| reference.block_of(v) == b).collect();
                    prop_assert_eq!(inc.members(b), &expect[..]);
                }
            }
        }
    }
}
