//! `benchmark compare A B`: one row per (workload, metric) over two
//! result files (one JSON object per line, as `--out` appends them) —
//! both medians and quartiles, the ratio with its base, the bound
//! applied and a verdict. A pair whose own run-to-run spread exceeds the
//! bound is `unresolved`, never `unchanged`.

use crate::json::Json;
use crate::report::{unit_of, END_TO_END};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;

/// `(workload, metric) → values`, one per run.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Parses a result file. Lines that are not result objects (or are
/// marked `"quick": true`) are rejected: a comparison over smoke runs
/// would look like a measurement.
pub fn parse_results(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if doc.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "line {}: a --quick run is not a measurement",
                no + 1
            ));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no \"workload\"", no + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("line {}: no \"metrics\"", no + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", no + 1))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// What the comparison concluded for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's or B's own spread exceeds the bound: no conclusion.
    Unresolved,
    /// B's median is better than A's by more than A's interquartile
    /// range (a candidate gain — claiming one takes paired runs).
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// A per-layer metric: reported, not judged.
    NoBound,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::NoBound => "-",
        }
    }
}

/// One output row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(q1, median, q3, n)` of A.
    pub a: (f64, f64, f64, usize),
    /// `(q1, median, q3, n)` of B.
    pub b: (f64, f64, f64, usize),
    /// median(B) ÷ median(A) — A is the base.
    pub ratio: f64,
    /// The bound applied, if the metric has one.
    pub bound: Option<f64>,
    /// The conclusion.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64, usize) {
    match quartiles(values) {
        Some((q1, med, q3)) => (q1, med, q3, values.len()),
        None => {
            let v = values.first().copied().unwrap_or(f64::NAN);
            (v, v, v, values.len())
        }
    }
}

/// Judges one pair of samples of an end-to-end metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (a_q1, a_med, a_q3, _) = summary(a);
    let (_, b_med, _, _) = summary(b);
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better {
        (b_med - a_med) / a_med.abs()
    } else {
        (a_med - b_med) / a_med.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by * a_med.abs() < -(a_q3 - a_q1) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Compares every (workload, metric) present in both sample sets.
pub fn compare(a: &Samples, b: &Samples) -> Vec<Row> {
    a.iter()
        .filter_map(|(key, av)| {
            let bv = b.get(key)?;
            let (sa, sb) = (summary(av), summary(bv));
            let e2e = END_TO_END.iter().find(|m| m.name == key.1);
            let verdict = match e2e {
                Some(m) => judge(av, bv, m.better == "lower", m.bound),
                None => Verdict::NoBound,
            };
            Some(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a: sa,
                b: sb,
                ratio: sb.1 / sa.1,
                bound: e2e.map(|m| m.bound),
                verdict,
            })
        })
        .collect()
}

/// `benchmark spread FILE`: per (workload, end-to-end metric), the
/// median, quartiles and interquartile spread of one result file,
/// against a third of the metric's bound — the steadiness the benchmark
/// is held to.
pub fn render_spread(samples: &Samples) -> String {
    let mut out = format!(
        "{:<14} {:<22} {:>14} {:>14} {:>14} {:>4} {:>8} {:>8}\n",
        "workload", "metric", "median", "q1", "q3", "n", "spread", "bound/3"
    );
    for ((workload, metric), values) in samples {
        let Some(m) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let (q1, med, q3, n) = summary(values);
        let s = spread(values).unwrap_or(f64::NAN);
        let flag = if s > m.bound {
            "  OVER BOUND"
        } else if s > m.bound / 3.0 {
            "  over a third"
        } else {
            ""
        };
        out.push_str(&format!(
            "{workload:<14} {metric:<22} {med:>14.4} {q1:>14.4} {q3:>14.4} {n:>4} {s:>8.4} {:>8.4}{flag}\n",
            m.bound / 3.0
        ));
    }
    out
}

/// Renders the rows as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<32} {:<6} {:>38} {:>38} {:>9} {:>6}  {}\n",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "B/A",
        "bound",
        "verdict"
    );
    let cell = |s: (f64, f64, f64, usize)| format!("{:.4} [{:.4}, {:.4}] {}", s.1, s.0, s.2, s.3);
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<32} {:<6} {:>38} {:>38} {:>9.4} {:>6}  {}\n",
            r.workload,
            r.metric,
            unit_of(&r.metric).unwrap_or(""),
            cell(r.a),
            cell(r.b),
            r.ratio,
            r.bound.map_or("-".to_string(), |b| format!("{b}")),
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn a_tight_pair_within_the_bound_is_within_bound() {
        let a = around(100.0, 0.2);
        let b = around(103.0, 0.2);
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::WithinBound);
        assert_eq!(judge(&a, &b, false, 0.1), Verdict::Better);
    }

    #[test]
    fn worse_beyond_the_bound_regresses_in_the_metrics_own_direction() {
        let a = around(100.0, 0.2);
        let slow = around(115.0, 0.2);
        assert_eq!(judge(&a, &slow, true, 0.1), Verdict::Regressed);
        // Higher-is-better: 115 is an improvement, 85 a regression.
        assert_eq!(judge(&a, &slow, false, 0.1), Verdict::Better);
        assert_eq!(
            judge(&a, &around(85.0, 0.2), false, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = around(100.0, 5.0); // IQR ≈ 27 % of the median
        let same = around(100.0, 5.0);
        assert_eq!(judge(&noisy, &same, true, 0.1), Verdict::Unresolved);
        assert_eq!(
            judge(&around(100.0, 0.2), &noisy, true, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn files_round_trip_into_rows() {
        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "metrics": {{"query_qps": {{"value": {v}, "unit": "1/s"}}, "core.layers": {{"value": 4, "unit": "count"}}}}}}"#
            )
        };
        let file = |base: f64| {
            (0..10)
                .map(|i| line("query_cold", base + f64::from(i)))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = parse_results(&file(1000.0)).unwrap();
        let b = parse_results(&file(700.0)).unwrap();
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2);
        let layers = rows.iter().find(|r| r.metric == "core.layers").unwrap();
        assert_eq!(layers.verdict, Verdict::NoBound);
        let qps = rows.iter().find(|r| r.metric == "query_qps").unwrap();
        assert_eq!(qps.verdict, Verdict::Regressed);
        assert_eq!(qps.a.3, 10);
        assert!((qps.ratio - 704.5 / 1004.5).abs() < 1e-12);
        assert!(render(&rows).contains("REGRESSED"));
    }

    #[test]
    fn quick_runs_are_refused() {
        let text = r#"{"workload": "w", "quick": true, "metrics": {}}"#;
        assert!(parse_results(text).unwrap_err().contains("quick"));
        assert!(parse_results("not json").is_err());
    }
}
