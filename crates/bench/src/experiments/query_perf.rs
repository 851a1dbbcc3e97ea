//! Figs. 10–14: per-query times of Blinks and r-clique with and without
//! BiG-index, including the step breakdown (summary-graph search /
//! specialization+pruning / answer generation).

use crate::harness::{fmt_duration, median_time, reduction_pct, TableWriter};
use crate::setup::Workbench;
use bgi_datasets::DatasetSpec;
use bgi_graph::{DiGraph, VId};
use bgi_search::blinks::{Blinks, BlinksParams};
use bgi_search::rclique::{NeighborIndex, RCliqueIndex};
use bgi_search::{AnswerGraph, Budget, KeywordQuery, KeywordSearch, RClique};
use big_index::eval::{eval_query, EvalResult, RealizerKind};
use big_index::{Boosted, EvalOptions};
use std::time::Duration;

/// Result of one query, both sides.
#[derive(Debug, Clone)]
pub struct QueryPerfRow {
    /// Query id.
    pub id: String,
    /// Baseline (no BiG-index) time.
    pub baseline: Duration,
    /// Boosted (with BiG-index) total time.
    pub boosted: Duration,
    /// Chosen layer.
    pub layer: usize,
    /// Breakdown: search on summary.
    pub search: Duration,
    /// Breakdown: specialize + prune.
    pub spec_prune: Duration,
    /// Breakdown: answer generation.
    pub answer_gen: Duration,
}

const TOP_K: usize = 10;
const RUNS: usize = 3;

/// Measures Blinks ± BiG-index on one dataset.
pub fn blinks_rows(wb: &Workbench) -> Vec<QueryPerfRow> {
    let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
    let boosted = Boosted::new(&wb.index, blinks, EvalOptions::default());
    measure(
        wb,
        |q| boosted.baseline(q, TOP_K).0,
        |q| boosted.query(q, TOP_K),
    )
}

/// Measures r-clique ± BiG-index on one dataset. Also returns the bytes
/// of neighbor rows the measured queries left resident, all layers
/// together — what the index cost in memory, as opposed to what
/// materializing every ball would have.
///
/// The per-layer indexes are built here rather than inside a
/// [`Boosted`] so their rows can be counted afterwards; the query path
/// is `boost_dkws`'s (same realizer, same layer-0 fallback).
pub fn rclique_rows(wb: &Workbench) -> (Vec<QueryPerfRow>, usize) {
    let rc = RClique { radius: 4 };
    let opts = EvalOptions {
        realizer: RealizerKind::StructuralThenDistance,
        ..EvalOptions::default()
    };
    let layer_indexes: Vec<RCliqueIndex> = (0..=wb.index.num_layers())
        .map(|m| rc.build_index(wb.index.graph_at(m)))
        .collect();
    let rows = measure(
        wb,
        |q| rc.search(wb.index.base(), &layer_indexes[0], q, TOP_K),
        |q| {
            eval_query(
                &wb.index,
                &rc,
                &layer_indexes,
                q,
                TOP_K,
                None,
                &opts,
                &Budget::unlimited(),
            )
            .expect("an unlimited budget never interrupts")
        },
    );
    let resident = layer_indexes
        .iter()
        .flat_map(|ix| ix.neighbor.resident_rows())
        .map(|(_, row)| std::mem::size_of_val(row))
        .sum();
    (rows, resident)
}

/// Size in bytes the Kargar–An neighbor list of `g` would have if every
/// ball were materialized, extrapolated from the first `min(n, 64)`
/// vertices' balls — how the original evaluation put 16 TB on IMDB
/// without building it.
pub fn estimate_neighbor_list_bytes(g: &DiGraph, radius: u32) -> usize {
    let n = g.num_vertices();
    let sample = n.min(64);
    if sample == 0 {
        return 0;
    }
    let index = NeighborIndex::build(g, radius);
    let total: usize = (0..sample as u32)
        .map(|v| std::mem::size_of_val(index.neighbors(VId(v))))
        .sum();
    (total as f64 / sample as f64 * n as f64) as usize
}

fn measure(
    wb: &Workbench,
    baseline: impl Fn(&KeywordQuery) -> Vec<AnswerGraph>,
    boosted: impl Fn(&KeywordQuery) -> EvalResult,
) -> Vec<QueryPerfRow> {
    let mut rows = Vec::new();
    for q in &wb.queries {
        let query = q.to_query();
        let baseline_time = median_time(RUNS, || baseline(&query));
        let result = boosted(&query);
        let boosted_time = median_time(RUNS, || boosted(&query).answers);
        rows.push(QueryPerfRow {
            id: q.id.clone(),
            baseline: baseline_time,
            boosted: boosted_time,
            layer: result.layer,
            search: result.timings.search,
            spec_prune: result.timings.spec_prune,
            answer_gen: result.timings.answer_gen,
        });
    }
    rows
}

/// Renders one figure's table.
pub fn render_rows(title: &str, rows: &[QueryPerfRow]) -> String {
    let mut t = TableWriter::new(&[
        "Query",
        "baseline",
        "BiG-index",
        "reduction",
        "layer",
        "search",
        "spec+prune",
        "ans-gen",
    ]);
    for r in rows {
        t.row(&[
            r.id.clone(),
            fmt_duration(r.baseline),
            fmt_duration(r.boosted),
            format!("{:.1}%", reduction_pct(r.baseline, r.boosted)),
            r.layer.to_string(),
            fmt_duration(r.search),
            fmt_duration(r.spec_prune),
            fmt_duration(r.answer_gen),
        ]);
    }
    format!("## {title}\n\n{}", t.render())
}

/// Mean percentage reduction across rows.
pub fn mean_reduction(rows: &[QueryPerfRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(|r| reduction_pct(r.baseline, r.boosted))
        .sum::<f64>()
        / rows.len() as f64
}

/// Figs. 10–12: Blinks on yago-like, dbpedia-like, imdb-like.
pub fn run_blinks(scale: usize) -> (String, Vec<f64>) {
    let mut out = String::new();
    let mut reductions = Vec::new();
    for (fig, spec) in [
        (
            "Fig. 10 — Blinks on yago-like",
            DatasetSpec::yago_like(scale),
        ),
        (
            "Fig. 11 — Blinks on dbpedia-like",
            DatasetSpec::dbpedia_like(scale),
        ),
        (
            "Fig. 12 — Blinks on imdb-like",
            DatasetSpec::imdb_like(scale),
        ),
    ] {
        let wb = Workbench::prepare(&spec, 7, 5);
        let rows = blinks_rows(&wb);
        out.push_str(&render_rows(fig, &rows));
        out.push_str(&format!(
            "mean reduction: {:.1}% (paper: 61.8% / 57.3% / 32.5%)\n\n",
            mean_reduction(&rows)
        ));
        reductions.push(mean_reduction(&rows));
    }
    (out, reductions)
}

/// Figs. 13–14: r-clique on yago-like and dbpedia-like, plus the IMDB
/// neighbor-list blow-up reproduction.
pub fn run_rclique(scale: usize) -> (String, Vec<f64>) {
    let scale = scale.min(8_000);
    let mut out = String::new();
    let mut reductions = Vec::new();
    for (fig, spec) in [
        (
            "Fig. 13 — r-clique on yago-like",
            DatasetSpec::yago_like(scale),
        ),
        (
            "Fig. 14 — r-clique on dbpedia-like",
            DatasetSpec::dbpedia_like(scale),
        ),
    ] {
        let wb = Workbench::prepare(&spec, 7, 4);
        let (rows, _) = rclique_rows(&wb);
        out.push_str(&render_rows(fig, &rows));
        out.push_str(&format!(
            "mean reduction: {:.1}% (paper: 39.4% / 19.6%)\n\n",
            mean_reduction(&rows)
        ));
        reductions.push(mean_reduction(&rows));
    }

    // The paper: "r-clique can not handle the IMDB dataset since it
    // keeps an O(mn) neighbor list … estimated 16TB". Reproduce the
    // estimate at the paper's full IMDB scale by extrapolation.
    let imdb = DatasetSpec::imdb_like(scale * 2).generate();
    let bytes_scaled = estimate_neighbor_list_bytes(&imdb.graph, 4);
    let per_vertex = bytes_scaled as f64 / imdb.num_vertices().max(1) as f64;
    let full_estimate = per_vertex * 1_673_076.0; // paper's IMDB |V|
    out.push_str(&format!(
        "## r-clique on imdb-like — neighbor-list size check\n\n\
         estimated neighbor list at scale {}: {:.1} MB; extrapolated to the \
         paper's IMDB (1.67M vertices): {:.1} GB (paper estimated 16 TB on \
         the real IMDB, whose neighborhoods are far denser).\n\n",
        imdb.num_vertices(),
        bytes_scaled as f64 / 1e6,
        full_estimate / 1e9,
    ));
    (out, reductions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blinks_rows_small_scale() {
        let wb = Workbench::prepare(&DatasetSpec::yago_like(2000), 3, 4);
        let rows = blinks_rows(&wb);
        assert!(!rows.is_empty());
        let rendered = render_rows("test", &rows);
        assert!(rendered.contains("Q1"));
    }

    #[test]
    fn rclique_rows_small_scale() {
        let wb = Workbench::prepare(&DatasetSpec::yago_like(1500), 3, 4);
        let (rows, _) = rclique_rows(&wb);
        assert!(!rows.is_empty());
        let _ = mean_reduction(&rows);
    }

    #[test]
    fn estimate_close_to_actual_on_uniform_graph() {
        let g = bgi_graph::generate::uniform_random(300, 900, 3, 9);
        let est = estimate_neighbor_list_bytes(&g, 2);
        let index = NeighborIndex::build(&g, 2);
        let actual: usize = g
            .vertices()
            .map(|v| std::mem::size_of_val(index.neighbors(v)))
            .sum();
        // Sampling the first 64 vertices of a uniform graph should land
        // within 3x of the truth.
        assert!(
            est > actual / 3 && est < actual * 3,
            "est {est}, actual {actual}"
        );
    }
}
