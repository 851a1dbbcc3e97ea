//! Figs. 17–18 and the isKey ablation (Exp-5): effectiveness of the
//! query-processing optimizations on the yago-like workload.

use crate::harness::{fmt_duration, median_time, reduction_pct, TableWriter};
use crate::setup::Workbench;
use bgi_datasets::DatasetSpec;
use bgi_search::blinks::{Blinks, BlinksParams};
use big_index::{Boosted, EvalOptions, RealizerKind};

fn blinks() -> Blinks {
    Blinks::new(BlinksParams { prune_dist: 5 })
}

/// Generic A/B over two option sets. The optimizations under test act
/// on *answer generation*, so the improvement column isolates the
/// specialization + generation time at a summary layer with a top-k
/// large enough to exercise generation (the paper's totals are
/// generation-dominated at million-vertex scale); full query totals are
/// reported alongside.
fn ab_table(
    wb: &Workbench,
    title: &str,
    on_label: &str,
    off_label: &str,
    on: EvalOptions,
    off: EvalOptions,
) -> (String, f64) {
    const GEN_K: usize = 100;
    let boosted_on = Boosted::new(&wb.index, blinks(), on);
    let boosted_off = Boosted::new(&wb.index, blinks(), off);
    let mut t = TableWriter::new(&[
        "Query",
        &format!("{off_label} (gen)"),
        &format!("{on_label} (gen)"),
        "improvement",
        "total off",
        "total on",
    ]);
    let mut total_impr = 0.0;
    let mut counted = 0usize;
    for q in &wb.queries {
        let query = q.to_query();
        // Force the first summary layer where keywords stay distinct so
        // generation actually runs.
        let m = (1..=wb.index.num_layers())
            .find(|&m| {
                big_index::query_gen::generalize_query(&wb.index, &query, m).len() == query.len()
            })
            .unwrap_or(0);
        let gen_time = |b: &Boosted<'_, Blinks>| {
            let mut samples: Vec<std::time::Duration> = (0..3)
                .map(|_| {
                    let r = b.query_at_layer(&query, GEN_K, m);
                    r.timings.spec_prune + r.timings.answer_gen
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let g_on = gen_time(&boosted_on);
        let g_off = gen_time(&boosted_off);
        let t_on = median_time(3, || boosted_on.query_at_layer(&query, GEN_K, m).answers);
        let t_off = median_time(3, || boosted_off.query_at_layer(&query, GEN_K, m).answers);
        let impr = reduction_pct(g_off.max(std::time::Duration::from_nanos(1)), g_on);
        total_impr += impr;
        counted += 1;
        t.row(&[
            q.id.clone(),
            fmt_duration(g_off),
            fmt_duration(g_on),
            format!("{impr:.1}%"),
            fmt_duration(t_off),
            fmt_duration(t_on),
        ]);
    }
    let mean = total_impr / counted.max(1) as f64;
    (
        format!(
            "## {title}\n\n{}\nmean generation improvement: {mean:.1}%\n",
            t.render()
        ),
        mean,
    )
}

/// Fig. 17: specialization-order optimization on/off.
pub fn spec_order(wb: &Workbench) -> (String, f64) {
    // The ordering optimization applies to Algo. 3.
    let on = EvalOptions {
        realizer: RealizerKind::VertexAtATime,
        use_spec_order: true,
        ..EvalOptions::default()
    };
    let mut off = on;
    off.use_spec_order = false;
    ab_table(
        wb,
        "Fig. 17 — specialization order optimization (paper: 14.8%)",
        "ordered",
        "unordered",
        on,
        off,
    )
}

/// Fig. 18: path-based answer generation vs vertex-at-a-time.
pub fn path_based(wb: &Workbench) -> (String, f64) {
    let on = EvalOptions {
        realizer: RealizerKind::PathBased,
        ..EvalOptions::default()
    };
    let mut off = on;
    off.realizer = RealizerKind::VertexAtATime;
    ab_table(
        wb,
        "Fig. 18 — path-based answer generation (paper: 21.7%)",
        "p_ans_graph_gen",
        "ans_graph_gen",
        on,
        off,
    )
}

/// Ablation: early keyword specialization (isKey, Sec. 4.3.1) on/off.
pub fn early_keyword_spec(wb: &Workbench) -> (String, f64) {
    let on = EvalOptions::default();
    let mut off = on;
    off.early_keyword_spec = false;
    ab_table(
        wb,
        "Ablation — early specialization of keyword nodes (isKey)",
        "early",
        "late",
        on,
        off,
    )
}

/// Runs all optimization experiments.
pub fn run(scale: usize) -> String {
    let wb = Workbench::prepare(&DatasetSpec::yago_like(scale), 7, 5);
    let mut out = String::new();
    let (s, _) = spec_order(&wb);
    out.push_str(&s);
    out.push('\n');
    let (s, _) = path_based(&wb);
    out.push_str(&s);
    out.push('\n');
    let (s, _) = early_keyword_spec(&wb);
    out.push_str(&s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_tables_render() {
        let wb = Workbench::prepare(&DatasetSpec::yago_like(2000), 3, 4);
        let (s, _) = spec_order(&wb);
        assert!(s.contains("Fig. 17"));
        let (s, _) = path_based(&wb);
        assert!(s.contains("Fig. 18"));
    }
}
