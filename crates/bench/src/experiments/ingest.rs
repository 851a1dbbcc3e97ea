//! Ingest throughput: live update batches applied through the
//! incremental maintenance engine (`bgi-ingest`), with the drift
//! tracker consulted after every batch exactly as the serving write
//! path does.
//!
//! The paper's hierarchy is built offline (Sec. 5); this experiment
//! measures the cost of keeping it live. Per-batch cost is dominated by
//! rebuilding the per-layer search indexes of *changed* summaries — a
//! cost nearly independent of batch size — so sustained throughput is a
//! batching story: the sweep shows updates/s rising with batch size,
//! and the single-update number is that same fixed refresh cost paid
//! for one update.

use crate::harness::{fmt_duration, TableWriter};
use crate::setup::default_index;
use bgi_datasets::{update_stream, DatasetSpec, UpdateMix, UpdateOp};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_service::{IndexSnapshot, Service, ServiceConfig, WriteHub};
use bgi_store::{IndexBundle, Store};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Converts a dataset update stream into engine updates.
pub fn as_ingest_updates(ops: &[UpdateOp]) -> Vec<IngestUpdate> {
    ops.iter()
        .map(|op| match *op {
            UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
            UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
            UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
        })
        .collect()
}

/// Scratch directory for the WAL-backed throughput points; removed on
/// drop so repeated runs don't accumulate stores under `$TMPDIR`.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bgi-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create bench temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Order-independent single-edge inserts over existing vertices: the
/// concurrent point scrambles commit order, so every op must be valid
/// and commutative regardless of interleaving.
fn commutative_ops(n: u32, count: usize) -> Vec<IngestUpdate> {
    (0..count as u32)
        .map(|i| {
            let src = (i * 7) % n;
            let mut dst = (i * 13 + 1) % n;
            if dst == src {
                dst = (dst + 1) % n;
            }
            IngestUpdate::InsertEdge { src, dst }
        })
        .collect()
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        cache_shards: 2,
        cache_capacity: 32,
        default_deadline: None,
        degradation: None,
    }
}

/// Best-of-`TRIALS` throughput measurement: peak sustainable rate is
/// the capability being measured, and a single trial is at the mercy
/// of transient page-cache writeback inflating fsync latency.
const COMMIT_TRIALS: usize = 2;

/// WAL-backed write-path throughput, one op per call: a single caller
/// committing serially vs `writers` concurrent callers whose commits
/// coalesce in the [`WriteHub`] group-commit queue. Both sides run the
/// same routine — WAL append + fsync, summary/index refresh and a
/// snapshot swap per commit cycle; the serial caller's groups are all
/// of size one. Returns `(serial_per_s, group_per_s, group_fsyncs)`.
fn group_commit_throughput(
    bundle: &IndexBundle,
    writers: usize,
    per_writer: usize,
) -> (f64, f64, u64) {
    let n = bundle.index.base().num_vertices() as u32;
    // One extra op past the measured range warms each engine past the
    // one-time first-apply cost (initial flat-partition stabilization),
    // so both sides time the steady-state commit path.
    let mut ops = commutative_ops(n, writers * per_writer + 1);
    let warmup = ops.pop().expect("nonempty op stream");
    let (serial_per_s, _) = commit_rate(bundle, warmup, &ops, 1);
    let (group_per_s, fsyncs) = commit_rate(bundle, warmup, &ops, writers);
    (serial_per_s, group_per_s, fsyncs)
}

/// Commits `ops` one per call from `writers` concurrent callers through
/// one hub on a fresh store. Returns the best trial's updates/s and the
/// fsyncs that trial spent.
fn commit_rate(
    bundle: &IndexBundle,
    warmup: IngestUpdate,
    ops: &[IngestUpdate],
    writers: usize,
) -> (f64, u64) {
    let (mut best_per_s, mut fsyncs) = (0f64, 0u64);
    for _ in 0..COMMIT_TRIALS {
        let dir = TempDir::new("commit");
        let store = Store::open(&dir.0).expect("open store");
        let (engine, _) =
            Engine::with_wal(bundle.clone(), EngineConfig::default(), &store).expect("seed engine");
        let hub = WriteHub::new(engine);
        let service = Service::start(
            Arc::new(IndexSnapshot::from_bundle(bundle.clone()).expect("bundle verifies")),
            service_config(),
        );
        service
            .apply_updates_grouped(&hub, vec![warmup])
            .expect("warmup update applies");
        let t = Instant::now();
        std::thread::scope(|s| {
            for share in ops.chunks(ops.len().div_ceil(writers)) {
                let (service, hub) = (&service, &hub);
                s.spawn(move || {
                    for &op in share {
                        service
                            .apply_updates_grouped(hub, vec![op])
                            .expect("update applies");
                    }
                });
            }
        });
        let trial = ops.len() as f64 / t.elapsed().as_secs_f64();
        if trial > best_per_s {
            best_per_s = trial;
            // The fsync count of the trial whose rate we report (minus
            // the warmup commit's own fsync).
            fsyncs = hub.with_engine(|e| e.wal_fsyncs()).saturating_sub(1);
        }
    }
    (best_per_s, fsyncs)
}

/// One sweep point: apply `stream` in `batch`-sized chunks on a fresh
/// engine, consulting drift after every batch. Returns (wall, rebuilds).
fn apply_all(bundle: &IndexBundle, stream: &[IngestUpdate], batch: usize) -> (Duration, usize) {
    let mut engine =
        Engine::new(bundle.clone(), EngineConfig::default()).expect("bundle seeds the engine");
    let mut rebuilds = 0usize;
    let t = Instant::now();
    for chunk in stream.chunks(batch) {
        engine
            .apply_batch(chunk)
            .expect("generated updates are valid");
        if engine.drift().rebuild_recommended {
            engine.rebuild().expect("rebuild from flat state");
            rebuilds += 1;
        }
    }
    (t.elapsed(), rebuilds)
}

/// Runs the sweep and renders the report.
pub fn run(scale: usize) -> String {
    run_with_metrics(scale).0
}

/// [`run`], also returning the JSON metrics for `BENCH_ingest.json`.
/// Gated key: `batch_8192_ms` (wall time of the largest-batch point,
/// the configuration the sustained-throughput claim rests on).
pub fn run_with_metrics(scale: usize) -> (String, Vec<(String, f64)>) {
    let ds = DatasetSpec::synt(scale).generate();
    let (index, build_time) = default_index(&ds, 3);
    let layers = index.num_layers();
    let bundle = IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1);
    // Stream length scales with the dataset so small smoke runs stay
    // fast; the CI point (scale 2000) applies 8k updates.
    let n_updates = (scale * 4).clamp(512, 16_384);
    let stream = as_ingest_updates(&update_stream(
        &ds.graph,
        crate::setup::DEFAULT_WORKLOAD_SEED,
        n_updates,
        UpdateMix::default(),
    ));

    let mut out = format!(
        "ingest throughput, {} ({} vertices, {} layers, index built in {})\n\
         {} updates per point (6:3:1 insert/delete/add-vertex), drift checked per batch\n\n",
        ds.name,
        ds.num_vertices(),
        layers,
        fmt_duration(build_time),
        stream.len(),
    );

    let mut table = TableWriter::new(&["batch", "wall", "updates/s", "ms/batch", "rebuilds"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for batch in [256usize, 1024, 4096, 8192] {
        let (wall, rebuilds) = apply_all(&bundle, &stream, batch);
        let per_s = stream.len() as f64 / wall.as_secs_f64();
        let batches = stream.len().div_ceil(batch);
        table.row(&[
            format!("{batch}"),
            fmt_duration(wall),
            format!("{per_s:.0}"),
            format!("{:.1}", wall.as_secs_f64() * 1e3 / batches as f64),
            format!("{rebuilds}"),
        ]);
        if batch == 8192 {
            metrics.push(("batch_8192_ms".into(), wall.as_secs_f64() * 1e3));
            metrics.push(("updates_per_s".into(), per_s));
        }
    }
    out.push_str(&table.render());

    // Single-update latency: what one interactive write pays.
    let mut engine =
        Engine::new(bundle.clone(), EngineConfig::default()).expect("bundle seeds the engine");
    let single = &stream[..64.min(stream.len())];
    let t = Instant::now();
    for u in single {
        engine
            .apply_batch(std::slice::from_ref(u))
            .expect("generated updates are valid");
    }
    let per_update = t.elapsed() / single.len() as u32;
    out.push_str(&format!(
        "\nsingle-update latency: {} per update ({} sampled)\n",
        fmt_duration(per_update),
        single.len()
    ));
    metrics.push(("single_update_us".into(), per_update.as_secs_f64() * 1e6));

    // Group commit: 16 concurrent single-op writers through the
    // service's WriteHub vs the same updates from one serial caller,
    // both on the full durable path (WAL fsync + snapshot swap).
    let writers = 16usize;
    let per_writer = 24usize;
    let (serial_per_s, group_per_s, fsyncs) = group_commit_throughput(&bundle, writers, per_writer);
    out.push_str(&format!(
        "group commit: {group_per_s:.0} updates/s with {writers} writers \
         vs {serial_per_s:.0} updates/s serial ({:.1}x, {fsyncs} fsyncs \
         for {} commits)\n",
        group_per_s / serial_per_s,
        writers * per_writer,
    ));
    metrics.push(("group_commit_updates_per_s".into(), group_per_s));
    metrics.push(("serial_commit_updates_per_s".into(), serial_per_s));
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_on_a_tiny_dataset() {
        let (report, metrics) = run_with_metrics(300);
        assert!(report.contains("updates/s"));
        let get = |k: &str| {
            let (_, v) = metrics
                .iter()
                .find(|(name, _)| name == k)
                .unwrap_or_else(|| panic!("metric {k} missing"));
            *v
        };
        assert!(get("batch_8192_ms") > 0.0);
        assert!(get("updates_per_s") > 0.0);
        assert!(get("single_update_us") > 0.0);
        assert!(get("group_commit_updates_per_s") > 0.0);
        assert!(get("serial_commit_updates_per_s") > 0.0);
    }
}
