//! BLINKS over the graph's label table answers exactly as BLINKS over
//! its own bi-level index did.
//!
//! The reference below is a test-only copy of the bi-level index the
//! search used to read — keyword-node lists (KNL), a node-keyword map
//! (NKM) and keyword-block lists (KBL) over a BFS partition — and of the
//! search that read it: seeds from the KNL's distance-0 prefix, roots
//! filtered by the KBL, answer paths descended over the NKM. The
//! shipped [`Blinks`] seeds from [`DiGraph::vertices_with`], has no
//! block filter and descends over its own expansion distances.
//!
//! Random graphs go through chains of edits. The shipped side reads the
//! label table each edited graph derives, the reference rebuilds its
//! index from scratch, and every query must return equal answer lists,
//! field for field, with equal completeness, under an unlimited budget.

use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::answer::{rank_and_truncate, AnswerGraph};
use bgi_search::blinks::{bfs_partition, BlinksParams, GraphPartition};
use bgi_search::{
    Blinks, Budget, Completeness, Interrupted, KeywordQuery, KeywordSearch, SearchOutcome,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// The reference's bi-level index.
struct RefIndex {
    partition: GraphPartition,
    prune_dist: u32,
    /// `KNL[ℓ]`: entries sorted by (dist, block, vertex).
    knl: FxHashMap<LabelId, Vec<(u16, VId)>>,
    /// `NKM[(v, ℓ)]`: exact bounded distance from `v` to nearest ℓ-node.
    nkm: FxHashMap<(VId, LabelId), u16>,
    /// `KBL[ℓ]`: sorted blocks containing a vertex within the bound.
    kbl: FxHashMap<LabelId, Vec<u32>>,
}

/// Bounded backward BFS: each reached vertex's distance to the nearest
/// source.
fn backward_reach(g: &DiGraph, sources: &[VId], dmax: u32) -> FxHashMap<VId, u32> {
    let mut reach: FxHashMap<VId, u32> = FxHashMap::default();
    let mut queue = VecDeque::new();
    for &s in sources {
        if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(s) {
            e.insert(0);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = reach[&v];
        if d >= dmax {
            continue;
        }
        for &u in g.in_neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(u) {
                e.insert(d + 1);
                queue.push_back(u);
            }
        }
    }
    reach
}

impl RefIndex {
    fn build(g: &DiGraph, block_size: usize, prune_dist: u32) -> Self {
        let partition = bfs_partition(g, block_size.max(1));
        let mut knl: FxHashMap<LabelId, Vec<(u16, VId)>> = FxHashMap::default();
        let mut nkm: FxHashMap<(VId, LabelId), u16> = FxHashMap::default();
        let mut kbl: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();

        // Group vertices by label once.
        let mut by_label: FxHashMap<LabelId, Vec<VId>> = FxHashMap::default();
        for v in g.vertices() {
            by_label.entry(g.label(v)).or_default().push(v);
        }

        for (&label, sources) in &by_label {
            let reach = backward_reach(g, sources, prune_dist);
            let mut entries: Vec<(u16, VId)> = reach.iter().map(|(&v, &d)| (d as u16, v)).collect();
            // Sort by distance, then block, then vertex: within a
            // distance band the entries of one block are adjacent.
            entries.sort_unstable_by_key(|&(d, v)| (d, partition.block_of(v), v));
            let mut blocks: Vec<u32> = entries
                .iter()
                .map(|&(_, v)| partition.block_of(v))
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &(d, v) in &entries {
                nkm.insert((v, label), d);
            }
            knl.insert(label, entries);
            kbl.insert(label, blocks);
        }

        RefIndex {
            partition,
            prune_dist,
            knl,
            nkm,
            kbl,
        }
    }

    fn keyword_node_list(&self, l: LabelId) -> Option<&[(u16, VId)]> {
        self.knl.get(&l).map(Vec::as_slice)
    }

    fn node_keyword_distance(&self, v: VId, l: LabelId) -> Option<u32> {
        self.nkm.get(&(v, l)).map(|&d| d as u32)
    }

    fn keyword_blocks(&self, l: LabelId) -> &[u32] {
        self.kbl.get(&l).map_or(&[], Vec::as_slice)
    }
}

/// Greedy descent from `root` to the nearest `keyword`-node over the
/// node-keyword map.
fn ref_descend_path(g: &DiGraph, index: &RefIndex, root: VId, keyword: LabelId) -> Vec<VId> {
    let mut path = vec![root];
    let mut cur = root;
    let mut d = index
        .node_keyword_distance(root, keyword)
        .expect("root must reach keyword");
    while d > 0 {
        let next = g
            .out_neighbors(cur)
            .iter()
            .copied()
            .find(|&w| index.node_keyword_distance(w, keyword) == Some(d - 1))
            .expect("node-keyword map must admit a descent step");
        path.push(next);
        cur = next;
        d -= 1;
    }
    path
}

/// The search as it read the bi-level index.
fn ref_search_anytime(
    g: &DiGraph,
    index: &RefIndex,
    query: &KeywordQuery,
    k: usize,
    budget: &Budget,
) -> Result<SearchOutcome, Interrupted> {
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    let dmax = query.dmax.min(index.prune_dist);
    let n = query.len();

    let mut frontiers: Vec<VecDeque<VId>> = Vec::with_capacity(n);
    let mut dists: Vec<FxHashMap<VId, u32>> = vec![FxHashMap::default(); n];
    for (i, &q) in query.keywords.iter().enumerate() {
        let Some(list) = index.keyword_node_list(q) else {
            return Ok(SearchOutcome::exact(Vec::new()));
        };
        let mut queue = VecDeque::new();
        for &(d, v) in list.iter().take_while(|&&(d, _)| d == 0) {
            debug_assert_eq!(d, 0);
            dists[i].insert(v, 0);
            queue.push_back(v);
        }
        if queue.is_empty() {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        frontiers.push(queue);
    }

    let root_blocks: Vec<&[u32]> = query
        .keywords
        .iter()
        .map(|&q| index.keyword_blocks(q))
        .collect();
    let block_ok = |v: VId| {
        let b = index.partition.block_of(v);
        root_blocks.iter().all(|bl| bl.binary_search(&b).is_ok())
    };

    // A `u8` counter, as it was: the reference only ever sees up to four
    // keywords.
    let mut hit_count: FxHashMap<VId, (u8, u64)> = FxHashMap::default();
    for f in frontiers.iter().enumerate().flat_map(|(i, q)| {
        let _ = i;
        q.iter().copied().collect::<Vec<_>>()
    }) {
        let e = hit_count.entry(f).or_insert((0, 0));
        e.0 += 1;
    }
    let mut depth = vec![0u32; n];
    let mut roots: Vec<(u64, VId)> = Vec::new();
    let mut best_k: std::collections::BinaryHeap<u64> = std::collections::BinaryHeap::new();
    let complete = |entry: (u8, u64),
                    v: VId,
                    roots: &mut Vec<(u64, VId)>,
                    best_k: &mut std::collections::BinaryHeap<u64>| {
        if entry.0 as usize == n && block_ok(v) {
            roots.push((entry.1, v));
            best_k.push(entry.1);
            if best_k.len() > k {
                best_k.pop();
            }
        }
    };
    if n == 1 {
        for (&v, &e) in &hit_count {
            complete(e, v, &mut roots, &mut best_k);
        }
    }

    let mut frontier_lb: Option<u64> = None;
    'expand: loop {
        let active: Vec<usize> = (0..n)
            .filter(|&i| !frontiers[i].is_empty() && depth[i] < dmax)
            .collect();
        if active.is_empty() {
            break;
        }
        let bound: u64 = active
            .iter()
            .map(|&i| depth[i] as u64 + 1)
            .min()
            .unwrap_or(u64::MAX);
        if best_k.len() >= k && *best_k.peek().unwrap() <= bound {
            break;
        }
        let i = *active
            .iter()
            .min_by_key(|&&i| (depth[i], frontiers[i].len()))
            .unwrap();
        let level = frontiers[i].len();
        let next_depth = depth[i] + 1;
        for _ in 0..level {
            if budget.is_exhausted() {
                frontier_lb = Some(bound);
                break 'expand;
            }
            let u = frontiers[i].pop_front().unwrap();
            for &w in g.in_neighbors(u) {
                if dists[i].contains_key(&w) {
                    continue;
                }
                dists[i].insert(w, next_depth);
                frontiers[i].push_back(w);
                let e = hit_count.entry(w).or_insert((0, 0));
                e.0 += 1;
                e.1 += next_depth as u64;
                if e.0 as usize == n {
                    complete(*e, w, &mut roots, &mut best_k);
                }
            }
        }
        depth[i] = next_depth;
    }

    if frontier_lb.is_some() && roots.is_empty() {
        return Err(Interrupted);
    }
    roots.sort_unstable();
    roots.truncate(k);
    let completeness = match (frontier_lb, roots.first()) {
        (Some(lb), Some(&(best, _))) => Completeness::Anytime {
            bound: best.saturating_sub(lb),
        },
        _ => Completeness::Exact,
    };
    let mut answers = Vec::with_capacity(roots.len());
    for (score, root) in roots {
        let mut vertices = Vec::new();
        let mut edges = Vec::new();
        let mut keyword_matches = vec![Vec::new(); n];
        for (i, &q) in query.keywords.iter().enumerate() {
            let path = ref_descend_path(g, index, root, q);
            for w in path.windows(2) {
                edges.push((w[0], w[1]));
            }
            keyword_matches[i].push(*path.last().unwrap());
            vertices.extend(path);
        }
        answers.push(AnswerGraph::new(
            vertices,
            edges,
            keyword_matches,
            Some(root),
            score,
        ));
    }
    Ok(SearchOutcome {
        answers: rank_and_truncate(answers, k),
        completeness,
    })
}

/// One edit of a chain as `(kind, a, b, label)`, operands reduced
/// modulo the current graph: kind 0 inserts edge `a → b`, kind 1 deletes
/// edge number `a`, kind 2 appends a vertex labeled `label`, wired to
/// vertex `a` in the direction `b` picks.
type Edit = (u8, usize, usize, u32);

/// Applies `e` to the graph given by `labels` and `edges`.
fn apply(labels: &mut Vec<LabelId>, edges: &mut Vec<(VId, VId)>, (kind, a, b, label): Edit) {
    let n = labels.len();
    let at = |x: usize| VId((x % n) as u32);
    match kind {
        0 => edges.push((at(a), at(b))),
        1 if !edges.is_empty() => {
            edges.swap_remove(a % edges.len());
        }
        1 => {}
        _ => {
            let id = VId(n as u32);
            labels.push(LabelId(label));
            edges.push(if b % 2 == 0 { (id, at(a)) } else { (at(a), id) });
        }
    }
}

/// One generated case: a graph, the reference's block size, `τ_prune`,
/// a chain of edits and the queries run after each of them.
struct Scenario {
    labels: Vec<LabelId>,
    edges: Vec<(VId, VId)>,
    block_size: usize,
    prune_dist: u32,
    edits: Vec<Edit>,
    /// `(keywords, d_max, k)`; keywords range over labels `0..7`, past
    /// most graphs' alphabets, so absent keywords occur too.
    queries: Vec<(Vec<u32>, u32, usize)>,
}

fn draw<S: Strategy>(s: S, rng: &mut TestRng) -> S::Value {
    s.generate(rng)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    FnStrategy::new(|rng: &mut TestRng| {
        let n = draw(2usize..80, rng);
        let alphabet = draw(1u32..=6, rng);
        let prune_dist = draw(1u32..=4, rng);
        Scenario {
            labels: draw(vec(0..alphabet, n), rng)
                .into_iter()
                .map(LabelId)
                .collect(),
            edges: draw(vec((0..n as u32, 0..n as u32), 0..3 * n), rng)
                .into_iter()
                .map(|(u, v)| (VId(u), VId(v)))
                .collect(),
            block_size: draw(1usize..=16, rng),
            prune_dist,
            edits: draw(
                vec((0u8..3, 0usize..1 << 16, 0usize..2, 0u32..7), 0..6),
                rng,
            ),
            queries: draw(
                vec((vec(0u32..7, 1..5), 0..=prune_dist + 1, 1usize..30), 1..8),
                rng,
            ),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn label_table_search_equals_bi_level_search(case in scenario()) {
        let Scenario { mut labels, mut edges, block_size, prune_dist, edits, queries } = case;
        let blinks = Blinks::new(BlinksParams { prune_dist });
        let mut g = GraphBuilder::from_edges(labels.clone(), edges.clone());
        for step in 0..=edits.len() {
            if step > 0 {
                apply(&mut labels, &mut edges, edits[step - 1]);
                g = GraphBuilder::from_edges(labels.clone(), edges.clone());
            }
            let reference = RefIndex::build(&g, block_size, prune_dist);
            for (keywords, dmax, k) in &queries {
                let q = KeywordQuery::new(keywords.iter().map(|&l| LabelId(l)).collect::<Vec<_>>(), *dmax);
                let got = blinks.search_anytime(&g, &(), &q, *k, &Budget::unlimited());
                let want = ref_search_anytime(&g, &reference, &q, *k, &Budget::unlimited());
                let (got, want) = (got.expect("unlimited"), want.expect("unlimited"));
                prop_assert_eq!(&got.answers, &want.answers, "step {} query {:?}", step, q);
                prop_assert_eq!(got.completeness, want.completeness);
            }
        }
    }
}
