//! Fig. 15: query times of Blinks and r-clique (± BiG-index) on the
//! synt-N family, |Q| = 4.

use crate::experiments::query_perf::{blinks_rows, mean_reduction, rclique_rows};
use crate::harness::{fmt_duration, TableWriter};
use crate::setup::Workbench;
use bgi_datasets::DatasetSpec;
use std::time::Duration;

/// Renders Fig. 15 for synt graphs at 1×, 2×, 4×, 8× the base scale.
pub fn run(scale: usize) -> String {
    let base = scale / 4;
    let mut out = String::new();
    out.push_str("## Fig. 15 — query times on synthetic graphs (|Q| = 4)\n\n");
    let mut t = TableWriter::new(&[
        "Dataset",
        "Blinks base",
        "Blinks BiG",
        "Blinks red.",
        "r-clique base",
        "r-clique BiG",
        "r-clique red.",
        "resident rows",
    ]);
    for mult in [1usize, 2, 4, 8] {
        let spec = DatasetSpec::synt(base * mult);
        let wb = Workbench::prepare(&spec, 5, 4);
        // |Q| = 4: keep only 4-keyword queries (Q6 in the workload), or
        // the closest available.
        let four: Vec<_> = wb
            .queries
            .iter()
            .filter(|q| q.keywords.len() == 4)
            .cloned()
            .collect();
        let wb4 = Workbench {
            queries: if four.is_empty() {
                wb.queries.clone()
            } else {
                four
            },
            ..wb
        };
        let b = blinks_rows(&wb4);
        let (r, resident_bytes) = rclique_rows(&wb4);
        let avg = |rows: &[super::query_perf::QueryPerfRow],
                   f: fn(&super::query_perf::QueryPerfRow) -> Duration| {
            if rows.is_empty() {
                Duration::ZERO
            } else {
                rows.iter().map(f).sum::<Duration>() / rows.len() as u32
            }
        };
        t.row(&[
            spec.name().to_string(),
            fmt_duration(avg(&b, |r| r.baseline)),
            fmt_duration(avg(&b, |r| r.boosted)),
            format!("{:.1}%", mean_reduction(&b)),
            fmt_duration(avg(&r, |x| x.baseline)),
            fmt_duration(avg(&r, |x| x.boosted)),
            format!("{:.1}%", mean_reduction(&r)),
            format!("{:.1} MB", resident_bytes as f64 / 1e6),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\npaper: BiG-index reduced query times on synthetic datasets by at least 20%.\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn scaling_report_renders() {
        let report = super::run(1600);
        assert!(report.contains("Fig. 15"));
        assert!(report.contains("synt-"));
    }
}
