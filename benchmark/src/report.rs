//! The metric catalogue and the result line.
//!
//! The tables here are the single source of truth for metric names,
//! units, directions and bounds: `benchmark manifest` prints
//! `BENCHMARK.json` from them, and a unit test fails when the committed
//! file drifts.

use crate::json::Json;
use crate::spec::NAMES;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (1 for a single timing, 0 for "not on this
    /// workload's path").
    pub n: usize,
}

impl Metric {
    /// A measured value with its sample count.
    pub fn new(name: &'static str, value: f64, n: usize) -> Metric {
        Metric { name, value, n }
    }
}

/// Catalogue entry of an end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract): all five go through the same life
/// cycle — build, save, boot from the store, serve reads, commit
/// writes — and differ in what the timed window stresses.
///
/// What did not repeat in the A/A runs is a per-layer metric below,
/// not kept here with a loose bound: the tails and the rate derived
/// from them (`query_p99_us`, `update_tail_us`, `update_per_s`);
/// `build_s`, which is a fifth of a second on four workloads and part of
/// `setup_s` on all five; `load_s`, whose fresh allocations the sandbox
/// serves at its own pace (spread 24–25 % on two workloads) and which is
/// half of `setup_s` on four workloads; and `query_p50_us`, which with
/// one closed-loop client is `query_qps` over again (spread 17 % where
/// that had 18 %) — a second chance to be refused for the same noise.
/// README.md has the measurements.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "store_bytes_per_elem",
        unit: "bytes",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// Catalogue entry of a per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Single-layer metrics, `<crate>.<metric>`, measured from outside by
/// timing calls into each crate's public functions and reading what
/// they return. Reported by the traced run; 0 with `n = 0` where the
/// layer is not on a workload's path.
pub const PER_LAYER: [PerLayer; 69] = [
    ("failed_frac", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("query_tail_pct", "%", "higher"),
    ("update_per_s", "1/s", "higher"),
    ("update_tail_us", "us", "lower"),
    ("update_tail_pct", "%", "higher"),
    ("build_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("search.bkws_base_us", "us", "lower"),
    ("search.rkws_base_us", "us", "lower"),
    ("search.dkws_base_us", "us", "lower"),
    ("search.banks_index_build_ms", "ms", "lower"),
    ("search.blinks_index_build_ms", "ms", "lower"),
    ("search.rclique_index_build_ms", "ms", "lower"),
    ("core.search_us", "us", "lower"),
    ("core.spec_prune_us", "us", "lower"),
    ("core.answer_gen_us", "us", "lower"),
    ("core.step_cover_pct", "%", "higher"),
    ("core.boost_reduction_pct.bkws", "%", "higher"),
    ("core.boost_reduction_pct.rkws", "%", "higher"),
    ("core.boost_reduction_pct.dkws", "%", "higher"),
    ("core.summary_layer_frac", "ratio", "higher"),
    ("core.fallback_frac", "ratio", "lower"),
    ("core.generalized_per_final", "ratio", "lower"),
    ("core.vertices_pruned_per_query", "count", "higher"),
    ("core.partials_per_query", "count", "lower"),
    ("core.algo1_build_s", "s", "lower"),
    ("core.full_step_build_ms", "ms", "lower"),
    ("core.layers", "count", "higher"),
    ("core.layer1_size_ratio", "ratio", "lower"),
    ("bisim.refine_ms", "ms", "lower"),
    ("bisim.blocks_per_vertex", "ratio", "lower"),
    ("verify.check_index_ms", "ms", "lower"),
    ("service.execute_us", "us", "lower"),
    ("service.dispatch_overhead_us", "us", "lower"),
    ("service.cache_hit_rate", "ratio", "higher"),
    ("service.cache_evictions", "count", "lower"),
    ("service.cache_invalidated", "count", "lower"),
    ("service.cache_hit_us", "us", "lower"),
    ("service.coalesced_frac", "ratio", "higher"),
    ("service.snapshot_from_bundle_ms", "ms", "lower"),
    ("service.swap_us", "us", "lower"),
    ("service.index_swaps", "count", "lower"),
    ("ingest.engine_start_ms", "ms", "lower"),
    ("ingest.apply_batch_1_us", "us", "lower"),
    ("ingest.apply_batch_256_ms", "ms", "lower"),
    ("ingest.reused_layers_frac", "ratio", "higher"),
    ("ingest.patched_layers_frac", "ratio", "higher"),
    ("ingest.rebuilt_layers_frac", "ratio", "lower"),
    ("ingest.rebuilds", "count", "lower"),
    ("store.wal_append_us", "us", "lower"),
    ("store.wal_fsyncs_per_commit", "ratio", "lower"),
    ("store.wal_bytes_per_update", "bytes", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.load_latest_ms", "ms", "lower"),
    ("store.bytes_total", "bytes", "lower"),
    ("store.layer_indexes_build_ms", "ms", "lower"),
    ("shard.plan_ms", "ms", "lower"),
    ("shard.build_bundles_s", "s", "lower"),
    ("shard.dup_factor", "ratio", "lower"),
    ("shard.leg_p95_us_max", "us", "lower"),
    ("shard.leg_p95_us_min", "us", "lower"),
    ("shard.leg_sheds", "count", "lower"),
    ("shard.one_shard_overhead_pct", "%", "lower"),
    ("shard.merge_us", "us", "lower"),
    ("harness.spans_recorded", "count", "higher"),
    ("harness.replayed_ops", "count", "higher"),
];

/// Why each workload exists, in `NAMES` order (one line each, for
/// `BENCHMARK.json`; README.md has the long form).
pub const WHY: [&str; 5] = [
    "256 distinct mixed queries cycled past a 64-entry cache: every request runs Algo. 2, so search and core do the work and service almost none; the working set exceeds the cache",
    "64 requests drawn Zipf(1.0) into a 1024-entry cache: >99% hits, so search/core do nothing and the cost is service itself (queue, cache probe, clone, reply)",
    "road-like graph cut into 4 shards: every request scatters to four legs and merges, so shard and service::sharded are on the blocking path",
    "one client alternating one durable single-op commit with 64 cold reads: every commit patches, re-verifies and swaps the snapshot, so every read runs on a just-swapped snapshot with an empty cache",
    "Algo. 1 hierarchy build, save, restart-to-serving in a loop, and the cold read loop over the hierarchy Algo. 1 chose: bisim, core::compress/heuristic and index construction dominate",
];

/// Seconds one run measures (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let workloads = NAMES
        .iter()
        .zip(WHY)
        .map(|(n, w)| format!("    {{\"name\": \"{n}\", \"why\": \"{w}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let layers = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted (requests, commits, restarts, comparisons).
    pub attempted: u64,
    /// Errors + refusals + timeouts + wrong answers.
    pub failed: u64,
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — plus `"quick": true` in smoke mode, which
    /// makes the line unacceptable as a measurement on purpose.
    pub fn result_line(&self, quick: bool) -> Json {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit_of(m.name).unwrap_or("").into())),
                ]),
            )
        }));
        let mut pairs = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), metrics),
        ];
        if quick {
            pairs.push(("quick".to_string(), Json::Bool(true)));
        }
        Json::Obj(pairs)
    }

    /// The human-readable table: every metric by name with its unit and
    /// sample count.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "  {:width$}  {:>16.4} {:<6} n={}\n",
                    m.name,
                    m.value,
                    unit_of(m.name).unwrap_or(""),
                    m.n
                )
            })
            .collect()
    }
}

/// Orders `have` by the catalogue `names`, filling gaps with 0 (`n = 0`)
/// and failing on a metric the catalogue does not know.
pub fn in_catalogue_order(
    names: impl Iterator<Item = &'static str>,
    have: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let names: Vec<&'static str> = names.collect();
    if let Some(stray) = have.iter().find(|m| !names.contains(&m.name)) {
        return Err(format!("metric {} is not in the catalogue", stray.name));
    }
    Ok(names
        .into_iter()
        .map(|name| {
            have.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    n: 0,
                })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json drifted; regenerate with `benchmark manifest`"
        );
        let doc = Json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(NAMES);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        assert!(WHY
            .iter()
            .all(|w| w.len() <= 200 && !w.contains('\n') && !w.contains('"')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 1.25,
                n: 3,
            }],
        };
        let line = outcome.result_line(false);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert_eq!(
            outcome.result_line(true).get("quick"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn catalogue_order_fills_gaps_and_rejects_strays() {
        let have = vec![Metric {
            name: "b",
            value: 2.0,
            n: 1,
        }];
        let got = in_catalogue_order(["a", "b"].into_iter(), have.clone()).unwrap();
        assert_eq!(
            got[0],
            Metric {
                name: "a",
                value: 0.0,
                n: 0
            }
        );
        assert_eq!(got[1], have[0]);
        assert!(in_catalogue_order(["a"].into_iter(), have).is_err());
    }
}
