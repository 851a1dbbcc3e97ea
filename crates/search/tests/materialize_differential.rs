//! Answer materialisation that costs the answers returned gives the
//! answers the full-cost materialisation gave.
//!
//! Two test-only references are kept here:
//!
//! - the r-clique witness builder as it was: one full radius-`r`
//!   undirected BFS from the first keyword node, with hash-map `dist`
//!   and `parent` tables, before any path is walked. The shipped
//!   [`clique_answer`] stops its BFS at the last keyword node and runs
//!   on a dense thread-local scratch.
//! - BANKS' root loop as it was: an answer tree built for *every*
//!   candidate root, then ranked and truncated to `k`. The shipped
//!   [`Banks`] scores every root first and builds trees for the `k`
//!   best only. Both score candidates in the discovery order of the
//!   smallest keyword set's backward expansion, so a check-limited run
//!   truncates to the same roots.
//!
//! A third reference is BLINKS' search as it was, on hash tables: one
//! `FxHashMap` of distances per keyword and a per-vertex hit count. The
//! shipped [`Blinks`] keeps its expansions on the traversal kernel's
//! dense slots.
//!
//! Random graphs, random picked sets and random queries must give equal
//! answers, field for field, and for BANKS and BLINKS equal
//! completeness, also under a check-limited budget. The bounded balls
//! the distance realizer memoizes are checked against the same
//! reference BFS.

use bgi_graph::{DiGraph, GraphBuilder, LabelId, VId};
use bgi_search::answer::{rank_and_truncate, AnswerGraph};
use bgi_search::rclique::{clique_answer, undirected_distances};
use bgi_search::{
    Banks, Blinks, Budget, Completeness, Interrupted, KeywordQuery, KeywordSearch, SearchOutcome,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// The reference witness builder: the full radius-`r` ball first, then
/// the parent chain of every non-hub keyword node.
fn ref_materialize(g: &DiGraph, r: u32, picked: &[VId], weight: u64) -> AnswerGraph {
    let hub = picked[0];
    let mut parent: FxHashMap<VId, VId> = FxHashMap::default();
    let mut queue = VecDeque::new();
    let mut dist: FxHashMap<VId, u32> = FxHashMap::default();
    dist.insert(hub, 0);
    queue.push_back(hub);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d >= r {
            continue;
        }
        for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                parent.insert(w, u);
                queue.push_back(w);
            }
        }
    }
    let mut vertices = vec![hub];
    let mut edges = Vec::new();
    for &t in &picked[1..] {
        let mut cur = t;
        vertices.push(cur);
        while cur != hub {
            let p = parent[&cur];
            if g.has_edge(p, cur) {
                edges.push((p, cur));
            } else {
                edges.push((cur, p));
            }
            vertices.push(p);
            cur = p;
        }
    }
    let keyword_matches = picked.iter().map(|&v| vec![v]).collect();
    AnswerGraph::new(vertices, edges, keyword_matches, None, weight)
}

/// The vertices within `r` undirected hops of `hub`, `hub` included,
/// with their distances, in discovery order.
fn ball(g: &DiGraph, hub: VId, r: u32) -> Vec<(VId, u32)> {
    let mut dist: FxHashMap<VId, u32> = FxHashMap::default();
    let mut order = vec![(hub, 0)];
    dist.insert(hub, 0);
    let mut i = 0;
    while i < order.len() {
        let (u, d) = order[i];
        i += 1;
        if d >= r {
            continue;
        }
        for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                order.push((w, d + 1));
            }
        }
    }
    order
}

/// Per-keyword backward BFS table: distance to the nearest keyword node
/// and the next hop toward it.
type ReachTable = FxHashMap<VId, (u32, Option<VId>)>;

/// Bounded backward BFS, polling `budget` once per dequeued vertex.
/// Also returns the reached vertices in discovery order.
fn ref_backward_reach(
    g: &DiGraph,
    sources: &[VId],
    dmax: u32,
    budget: &Budget,
) -> Result<(ReachTable, Vec<VId>), Interrupted> {
    let mut reach: ReachTable = FxHashMap::default();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(s) {
            e.insert((0, None));
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        budget.check()?;
        let d = reach[&v].0;
        if d >= dmax {
            continue;
        }
        for &u in g.in_neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = reach.entry(u) {
                e.insert((d + 1, Some(v)));
                order.push(u);
                queue.push_back(u);
            }
        }
    }
    Ok((reach, order))
}

fn ref_path_to_keyword(reach: &ReachTable, root: VId) -> Vec<VId> {
    let mut path = vec![root];
    let mut cur = root;
    while let Some(&(_, Some(next))) = reach.get(&cur) {
        path.push(next);
        cur = next;
    }
    path
}

/// The reference BANKS: an answer tree for every candidate root, then
/// `rank_and_truncate`.
fn ref_banks(
    g: &DiGraph,
    index: &DiGraph,
    query: &KeywordQuery,
    k: usize,
    budget: &Budget,
) -> Result<SearchOutcome, Interrupted> {
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    let mut keyword_sets: Vec<(usize, &[VId])> = query
        .keywords
        .iter()
        .enumerate()
        .map(|(i, &q)| (i, index.vertices_with(q)))
        .collect();
    if keyword_sets.iter().any(|(_, s)| s.is_empty()) {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    keyword_sets.sort_by_key(|(_, s)| s.len());
    let mut reaches: Vec<Option<ReachTable>> = vec![None; query.len()];
    let mut candidates: Option<Vec<VId>> = None;
    for &(i, sources) in &keyword_sets {
        let (reach, order) = ref_backward_reach(g, sources, query.dmax, budget)?;
        candidates = Some(match candidates {
            None => order,
            Some(prev) => prev.into_iter().filter(|v| reach.contains_key(v)).collect(),
        });
        reaches[i] = Some(reach);
        if candidates.as_ref().is_some_and(Vec::is_empty) {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
    }
    let mut answers = Vec::new();
    let mut truncated = false;
    for root in candidates.unwrap_or_default() {
        if budget.is_exhausted() {
            truncated = true;
            break;
        }
        let mut vertices = Vec::new();
        let mut edges = Vec::new();
        let mut keyword_matches = vec![Vec::new(); query.len()];
        let mut score = 0u64;
        for (i, reach) in reaches.iter().enumerate() {
            let reach = reach.as_ref().unwrap();
            let (d, _) = reach[&root];
            score += d as u64;
            let path = ref_path_to_keyword(reach, root);
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
    if truncated && answers.is_empty() {
        return Err(Interrupted);
    }
    Ok(SearchOutcome {
        answers: rank_and_truncate(answers, k),
        completeness: if truncated {
            Completeness::Truncated
        } else {
            Completeness::Exact
        },
    })
}

/// The reference BLINKS: round-robin backward expansion with one
/// distance map per keyword and a per-vertex `(hits, score)` map, answer
/// paths descended over the maps.
fn ref_blinks(
    g: &DiGraph,
    query: &KeywordQuery,
    k: usize,
    budget: &Budget,
) -> Result<SearchOutcome, Interrupted> {
    if query.is_empty() || k == 0 {
        return Ok(SearchOutcome::exact(Vec::new()));
    }
    let dmax = query.dmax.min(Blinks::default().params.prune_dist);
    let n = query.len();
    let mut frontiers: Vec<VecDeque<VId>> = Vec::with_capacity(n);
    let mut dists: Vec<FxHashMap<VId, u32>> = vec![FxHashMap::default(); n];
    for (i, &q) in query.keywords.iter().enumerate() {
        let seeds = g.vertices_with(q);
        if seeds.is_empty() {
            return Ok(SearchOutcome::exact(Vec::new()));
        }
        dists[i].extend(seeds.iter().map(|&v| (v, 0)));
        frontiers.push(seeds.iter().copied().collect());
    }
    let mut hit_count: FxHashMap<VId, (u32, u64)> = FxHashMap::default();
    for &v in frontiers.iter().flatten() {
        hit_count.entry(v).or_insert((0, 0)).0 += 1;
    }
    let mut depth = vec![0u32; n];
    let mut roots: Vec<(u64, VId)> = Vec::new();
    let mut best_k: std::collections::BinaryHeap<u64> = std::collections::BinaryHeap::new();
    let complete = |entry: (u32, u64),
                    v: VId,
                    roots: &mut Vec<(u64, VId)>,
                    best_k: &mut std::collections::BinaryHeap<u64>| {
        if entry.0 as usize == n {
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
    let descend_path = |dist: &FxHashMap<VId, u32>, root: VId| {
        let mut path = vec![root];
        let mut cur = root;
        while let Some(d) = dist.get(&cur).and_then(|d| d.checked_sub(1)) {
            let Some(&next) = g
                .out_neighbors(cur)
                .iter()
                .find(|w| dist.get(w) == Some(&d))
            else {
                break;
            };
            path.push(next);
            cur = next;
        }
        path
    };
    let mut answers = Vec::with_capacity(roots.len());
    for (score, root) in roots {
        let mut vertices = Vec::new();
        let mut edges = Vec::new();
        let mut keyword_matches = vec![Vec::new(); n];
        for (i, dist) in dists.iter().enumerate() {
            let path = descend_path(dist, root);
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

fn draw<S: Strategy>(s: S, rng: &mut TestRng) -> S::Value {
    s.generate(rng)
}

/// A random labelled graph with fewer than 80 vertices.
fn graph(rng: &mut TestRng) -> DiGraph {
    let n = draw(1usize..80, rng);
    let alphabet = draw(1u32..=5, rng);
    let labels = draw(vec(0..alphabet, n), rng)
        .into_iter()
        .map(LabelId)
        .collect();
    let edges = draw(vec((0..n as u32, 0..n as u32), 0..3 * n), rng)
        .into_iter()
        .map(|(u, v)| (VId(u), VId(v)))
        .collect();
    GraphBuilder::from_edges(labels, edges)
}

struct CliqueCase {
    g: DiGraph,
    r: u32,
    /// `(hub, picks)`: each pick indexes the hub's ball, modulo its size.
    sets: Vec<(u32, Vec<usize>)>,
}

fn clique_case() -> impl Strategy<Value = CliqueCase> {
    FnStrategy::new(|rng: &mut TestRng| CliqueCase {
        g: graph(rng),
        r: draw(1u32..=5, rng),
        sets: draw(vec((0u32..80, vec(0usize..1 << 16, 0..6)), 1..12), rng),
    })
}

struct BanksCase {
    g: DiGraph,
    /// `(keywords, d_max, k, check limit)`.
    queries: Vec<(Vec<u32>, u32, usize, u64)>,
}

fn banks_case() -> impl Strategy<Value = BanksCase> {
    FnStrategy::new(|rng: &mut TestRng| BanksCase {
        g: graph(rng),
        queries: draw(
            vec((vec(0u32..6, 1..5), 0u32..=4, 1usize..=30, 0u64..300), 1..8),
            rng,
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clique_witnesses_equal_the_full_ball_ones(case in clique_case()) {
        let CliqueCase { g, r, sets } = case;
        for (hub, picks) in sets {
            let hub = VId(hub % g.num_vertices() as u32);
            let mut near = ball(&g, hub, r);
            let picked: Vec<VId> = std::iter::once(hub)
                .chain(picks.iter().map(|&i| near[i % near.len()].0))
                .collect();
            // The distance realizer's rows come from the same scratch.
            near.remove(0);
            near.sort_unstable();
            prop_assert_eq!(undirected_distances(&g, hub, r), near);
            let weight = picks.len() as u64;
            prop_assert_eq!(
                clique_answer(&g, r, &picked, weight),
                ref_materialize(&g, r, &picked, weight),
                "r {} picked {:?}", r, picked
            );
        }
    }

    #[test]
    fn top_k_banks_equals_all_roots_banks(case in banks_case()) {
        let BanksCase { g, queries } = case;
        for (keywords, dmax, k, checks) in queries {
            let q = KeywordQuery::new(keywords.into_iter().map(LabelId).collect::<Vec<_>>(), dmax);
            prop_assert_eq!(
                Banks.search_anytime(&g, &(), &q, k, &Budget::unlimited()),
                ref_banks(&g, &g, &q, k, &Budget::unlimited()),
                "unlimited, k {} query {:?}", k, q
            );
            prop_assert_eq!(
                Banks.search_anytime(&g, &(), &q, k, &Budget::with_check_limit(checks)),
                ref_banks(&g, &g, &q, k, &Budget::with_check_limit(checks)),
                "{} checks, k {} query {:?}", checks, k, q
            );
        }
    }

    #[test]
    fn dense_blinks_equals_hash_table_blinks(case in banks_case()) {
        let BanksCase { g, queries } = case;
        for (keywords, dmax, k, checks) in queries {
            let q = KeywordQuery::new(keywords.into_iter().map(LabelId).collect::<Vec<_>>(), dmax);
            prop_assert_eq!(
                Blinks::default().search_anytime(&g, &(), &q, k, &Budget::unlimited()),
                ref_blinks(&g, &q, k, &Budget::unlimited()),
                "unlimited, k {} query {:?}", k, q
            );
            prop_assert_eq!(
                Blinks::default().search_anytime(&g, &(), &q, k, &Budget::with_check_limit(checks)),
                ref_blinks(&g, &q, k, &Budget::with_check_limit(checks)),
                "{} checks, k {} query {:?}", checks, k, q
            );
        }
    }
}
