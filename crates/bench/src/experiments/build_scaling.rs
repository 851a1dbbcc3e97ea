//! Parallel-construction scaling: wall-clock of the full index build
//! (Algo. 1 greedy hierarchy + per-layer BANKS/r-clique
//! indexes) at 1/2/4/8 build threads, on synt and yago.
//!
//! Every thread count must produce the *same* index — the sweep
//! asserts each parallel bundle equals the serial one (down to the
//! encoded `index.bin` bytes) before reporting its time, so a scaling
//! win can never come from silently diverging work. The 1-thread
//! times are the metrics CI's `bench_gate` regresses on: they are
//! core-count independent, unlike the speedups (reported for the CI
//! log, where the runner has cores to show them).

use crate::harness::{fmt_duration, TableWriter};
use bgi_datasets::{Dataset, DatasetSpec};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_store::bundle::encode_index;
use bgi_store::IndexBundle;
use big_index::{BiGIndex, BuildParams, EvalOptions};
use std::time::{Duration, Instant};

/// The thread counts the sweep measures.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One full build at `threads`: greedy hierarchy (sampled estimator +
/// Algo. 1, both parallel) then every per-layer search index. Returns
/// the bundle plus (hierarchy, per-layer index) phase times.
fn timed_build(ds: &Dataset, threads: usize) -> (IndexBundle, Duration, Duration) {
    let params = BuildParams {
        max_layers: 4,
        threads,
        ..BuildParams::default()
    };
    let t = Instant::now();
    let index = BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params);
    let hierarchy = t.elapsed();
    let t = Instant::now();
    let bundle = IndexBundle::build_with_threads(
        index,
        BlinksParams::default(),
        RClique::default(),
        EvalOptions::default(),
        threads,
    );
    (bundle, hierarchy, t.elapsed())
}

/// Runs the sweep. Returns the rendered report and the JSON metrics
/// for `BENCH_build.json` (`build_<dataset>_1t_ms` are the gated
/// keys; `speedup_<dataset>_4t` are informational).
pub fn run(scale: usize) -> (String, Vec<(String, f64)>) {
    let mut out = String::from("parallel construction scaling (hierarchy + per-layer indexes)\n");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for spec in [DatasetSpec::synt(scale), DatasetSpec::yago_like(scale)] {
        let ds = spec.generate();
        let short = short_name(&ds.name);
        out.push_str(&format!(
            "\n{} ({} vertices, {} edges):\n",
            ds.name,
            ds.num_vertices(),
            ds.graph.num_edges()
        ));
        let mut table = TableWriter::new(&[
            "threads",
            "build",
            "hierarchy",
            "indexes",
            "speedup",
            "identical",
        ]);
        let mut serial: Option<(IndexBundle, Vec<u8>, Duration)> = None;
        for threads in THREADS {
            let (bundle, hierarchy, indexes) = timed_build(&ds, threads);
            let elapsed = hierarchy + indexes;
            let bytes = encode_index(&bundle.index);
            let (identical, speedup) = match &serial {
                None => {
                    metrics.push((format!("build_{short}_1t_ms"), elapsed.as_millis() as f64));
                    serial = Some((bundle, bytes, elapsed));
                    (true, 1.0)
                }
                Some((base_bundle, base_bytes, base_time)) => {
                    // The determinism contract (DESIGN.md §8): any
                    // thread count, same bundle, same bytes.
                    assert!(
                        *base_bundle == bundle && *base_bytes == bytes,
                        "{threads}-thread build diverged from serial on {}",
                        ds.name
                    );
                    let speedup = base_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                    if threads == 4 {
                        metrics.push((format!("speedup_{short}_4t"), speedup));
                    }
                    (true, speedup)
                }
            };
            table.row(&[
                format!("{threads}"),
                fmt_duration(elapsed),
                fmt_duration(hierarchy),
                fmt_duration(indexes),
                format!("{speedup:.2}x"),
                if identical { "yes".into() } else { "NO".into() },
            ]);
        }
        out.push_str(&table.render());
    }
    (out, metrics)
}

/// Stable short key for JSON metric names ("synt-5000" → "synt").
fn short_name(name: &str) -> &str {
    name.split(['-', '_']).next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_reports_gated_metrics() {
        // Tiny scale: the point here is that the sweep's determinism
        // assertions hold and both gated keys come out, not timing.
        let (report, metrics) = run(120);
        assert!(report.contains("synt"));
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"build_synt_1t_ms"));
        assert!(keys.contains(&"build_yago_1t_ms"));
        assert!(metrics.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
    }
}
