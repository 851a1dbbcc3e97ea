//! Per-layer probes of the traced run: each times one crate's public
//! entry points from outside, on the workload's own graph and request
//! pool, and reads the counters those functions return. None of this
//! runs in an untraced (end-to-end) run.

use crate::deploy::{engine_config, msg, Res};
use crate::direct::Direct;
use crate::report::Metric;
use crate::spec::{Hierarchy, Spec};
use crate::stats::median;
use bgi_bisim::{maximal_bisimulation, BisimDirection};
use bgi_datasets::Dataset;
use bgi_ingest::{Engine, IngestUpdate};
use bgi_search::blinks::BlinksParams;
use bgi_search::{Banks, Blinks, Budget, KeywordSearch, RClique};
use bgi_service::{IndexSnapshot, QueryRequest, Semantics, Service, ShardedSnapshot};
use bgi_store::{Failpoints, GraphUpdate, IndexBundle, Wal};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = std::hint::black_box(f());
    (value, t.elapsed().as_secs_f64())
}

fn median_of(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The request each scatter leg runs for `req` — `ShardedSnapshot`
/// oversamples `k` per leg (its private `LEG_OVERSAMPLE`), mirrored here
/// so direct per-shard calls do the work a leg does.
pub fn leg_request(req: &QueryRequest) -> QueryRequest {
    QueryRequest {
        k: req.k * 2 + 8,
        ..req.clone()
    }
}

/// `search.*` and `core.*` over the pool: the unboosted baseline per
/// semantics, Algo. 2's step timings and counters, and the paper's
/// headline — the reduction of boosted over baseline time.
pub fn search_and_core(direct: &Direct<'_>, pool: &[QueryRequest]) -> Vec<Metric> {
    let mut base_us: [Vec<f64>; 3] = Default::default();
    let mut boost_sum = [0f64; 3];
    let (mut search, mut spec_prune, mut answer_gen, mut wall) = (0f64, 0f64, 0f64, 0f64);
    let (mut summary, mut fell_back) = (0usize, 0usize);
    let (mut generalized, mut finals, mut pruned, mut partials) = (0usize, 0usize, 0usize, 0usize);
    for req in pool {
        let s = req.semantics.index();
        let (_, took) = direct.baseline(req);
        base_us[s].push(took.as_secs_f64() * 1e6);
        let (r, call_s) = timed(|| direct.query(req));
        boost_sum[s] += r.timings.total().as_secs_f64() * 1e6;
        search += r.timings.search.as_secs_f64();
        spec_prune += r.timings.spec_prune.as_secs_f64();
        answer_gen += r.timings.answer_gen.as_secs_f64();
        wall += call_s;
        summary += usize::from(r.layer > 0);
        fell_back += usize::from(r.fell_back);
        generalized += r.stats.generalized_answers;
        finals += r.answers.len();
        pruned += r.stats.vertices_pruned;
        partials += r.stats.partials_created;
    }
    let n = pool.len().max(1) as f64;
    let mut out = Vec::new();
    let base_names = [
        "search.bkws_base_us",
        "search.rkws_base_us",
        "search.dkws_base_us",
    ];
    let boost_names = [
        "core.boost_reduction_pct.bkws",
        "core.boost_reduction_pct.rkws",
        "core.boost_reduction_pct.dkws",
    ];
    for s in Semantics::ALL.map(Semantics::index) {
        out.push(Metric::new(
            base_names[s],
            median_of(&base_us[s]),
            base_us[s].len(),
        ));
        let base_sum: f64 = base_us[s].iter().sum();
        if base_sum > 0.0 {
            out.push(Metric::new(
                boost_names[s],
                100.0 * (1.0 - boost_sum[s] / base_sum),
                base_us[s].len(),
            ));
        }
    }
    out.extend([
        Metric::new("core.search_us", search / n * 1e6, pool.len()),
        Metric::new("core.spec_prune_us", spec_prune / n * 1e6, pool.len()),
        Metric::new("core.answer_gen_us", answer_gen / n * 1e6, pool.len()),
        // Σ step timings ÷ Σ wall of the enclosing `Boosted::query`
        // calls: how much of the span its child spans account for.
        Metric::new(
            "core.step_cover_pct",
            100.0 * (search + spec_prune + answer_gen) / wall.max(f64::MIN_POSITIVE),
            pool.len(),
        ),
        Metric::new("core.summary_layer_frac", summary as f64 / n, pool.len()),
        Metric::new("core.fallback_frac", fell_back as f64 / n, pool.len()),
        Metric::new(
            "core.generalized_per_final",
            generalized as f64 / finals.max(1) as f64,
            pool.len(),
        ),
        Metric::new(
            "core.vertices_pruned_per_query",
            pruned as f64 / n,
            pool.len(),
        ),
        Metric::new("core.partials_per_query", partials as f64 / n, pool.len()),
    ]);
    out
}

/// Layer-0 `build_index` per semantics, the full-step ladder, the
/// layer-1 bisimulation, and `verify()` — the construction side.
pub fn construction(spec: &Spec, ds: &Dataset, bundle: &IndexBundle) -> Vec<Metric> {
    let index = &bundle.index;
    let base = index.base();
    let mut out = vec![
        Metric::new(
            "search.banks_index_build_ms",
            timed(|| Banks.build_index(base)).1 * 1e3,
            1,
        ),
        Metric::new(
            "search.blinks_index_build_ms",
            timed(|| Blinks::new(BlinksParams::default()).build_index(base)).1 * 1e3,
            1,
        ),
        Metric::new(
            "search.rclique_index_build_ms",
            timed(|| RClique::default().build_index(base)).1 * 1e3,
            1,
        ),
        Metric::new("verify.check_index_ms", timed(|| index.verify()).1 * 1e3, 1),
        Metric::new("core.layers", index.num_layers() as f64, 1),
    ];
    let ladder = Spec {
        hierarchy: Hierarchy::FullStep,
        ..spec.clone()
    };
    out.push(Metric::new(
        "core.full_step_build_ms",
        timed(|| crate::deploy::build_hierarchy(&ladder, &ds.graph, ds)).1 * 1e3,
        1,
    ));
    if let Some(layer1) = index.layers().first() {
        out.push(Metric::new(
            "core.layer1_size_ratio",
            index.size_ratio(1),
            1,
        ));
        let generalized = base.relabel(&layer1.label_map);
        let (partition, took) =
            timed(|| maximal_bisimulation(&generalized, BisimDirection::Forward));
        out.push(Metric::new("bisim.refine_ms", took * 1e3, 1));
        out.push(Metric::new(
            "bisim.blocks_per_vertex",
            partition.num_blocks() as f64 / base.num_vertices().max(1) as f64,
            1,
        ));
    }
    out
}

/// `service.execute_us` (no queue, no cache) and `service.swap_us`.
pub fn service_direct(
    service: &Service,
    snapshot: &Arc<IndexSnapshot>,
    pool: &[QueryRequest],
) -> Vec<Metric> {
    let budget = Budget::unlimited();
    let execute_us: Vec<f64> = pool
        .iter()
        .map(|req| timed(|| snapshot.execute(req, &budget)).1 * 1e6)
        .collect();
    let swap_us: Vec<f64> = (0..5)
        .map(|_| {
            let next = Arc::clone(snapshot);
            timed(|| service.swap_snapshot(next)).1 * 1e6
        })
        .collect();
    vec![
        Metric::new(
            "service.execute_us",
            median_of(&execute_us),
            execute_us.len(),
        ),
        Metric::new("service.swap_us", median_of(&swap_us), swap_us.len()),
    ]
}

/// `ingest.apply_batch_*` on an engine without a log, and
/// `store.wal_append_us` on a log without an engine.
pub fn write_path(bundle: &IndexBundle, ops: &[IngestUpdate], wal_dir: &Path) -> Res<Vec<Metric>> {
    let mut engine = Engine::new(bundle.clone(), engine_config()).map_err(msg)?;
    let (warm, rest) = ops.split_at(1.min(ops.len()));
    // The first apply pays a one-time flat-partition stabilization.
    engine.apply_batch(warm).map_err(msg)?;
    let (singles, batch) = rest.split_at(32.min(rest.len()));
    let mut single_us = Vec::with_capacity(singles.len());
    for op in singles {
        let (r, took) = timed(|| engine.apply_batch(std::slice::from_ref(op)));
        r.map_err(msg)?;
        single_us.push(took * 1e6);
    }
    let batch = &batch[..256.min(batch.len())];
    let (r, batch_s) = timed(|| engine.apply_batch(batch));
    r.map_err(msg)?;

    std::fs::create_dir_all(wal_dir).map_err(msg)?;
    let (mut wal, _) = Wal::open(wal_dir, Failpoints::disabled()).map_err(msg)?;
    let mut append_us = Vec::with_capacity(32);
    for i in 0..32u32 {
        let record = [GraphUpdate::InsertEdge { src: i, dst: i + 1 }];
        let (r, took) = timed(|| wal.append(&record));
        r.map_err(msg)?;
        append_us.push(took * 1e6);
    }
    Ok(vec![
        Metric::new(
            "ingest.apply_batch_1_us",
            median_of(&single_us),
            single_us.len(),
        ),
        Metric::new("ingest.apply_batch_256_ms", batch_s * 1e3, batch.len()),
        Metric::new(
            "store.wal_append_us",
            median_of(&append_us),
            append_us.len(),
        ),
    ])
}

/// `shard.merge_us` (scatter − slowest leg, per request) and
/// `shard.one_shard_overhead_pct` (a 1-shard scatter against the plain
/// monolithic snapshot, over the layer-0 requests both answer alike).
pub fn sharded(
    sharded: &ShardedSnapshot,
    one_shard: &ShardedSnapshot,
    mono: &IndexSnapshot,
    pool: &[QueryRequest],
) -> Vec<Metric> {
    let budget = Budget::unlimited();
    let merge_us: Vec<f64> = pool
        .iter()
        .map(|req| {
            let scatter = timed(|| sharded.execute(req, &budget)).1;
            let leg = leg_request(req);
            let slowest = (0..sharded.num_shards())
                .map(|s| timed(|| sharded.shard(s).execute(&leg, &budget)).1)
                .fold(0f64, f64::max);
            (scatter - slowest) * 1e6
        })
        .collect();
    let (mut through_one_shard, mut through_mono) = (0f64, 0f64);
    for req in pool {
        through_one_shard += timed(|| one_shard.execute(req, &budget)).1;
        through_mono += timed(|| mono.execute(req, &budget)).1;
    }
    vec![
        Metric::new("shard.merge_us", median_of(&merge_us), merge_us.len()),
        Metric::new(
            "shard.one_shard_overhead_pct",
            100.0 * (through_one_shard - through_mono) / through_mono.max(f64::MIN_POSITIVE),
            pool.len(),
        ),
    ]
}
