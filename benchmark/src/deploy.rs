//! Set-up: dataset → hierarchy → per-layer indexes → store → boot from
//! the store → warm. Every workload goes through the same life cycle a
//! deployment does (`bgi save-index`, then `bgi serve --store`), so
//! build, save, restart-to-serving and the durable write path are
//! exercised — and timed, phase by phase — on every workload.

use crate::spec::{Hierarchy, Spec, Topology, BUILD_THREADS, SCATTER_THREADS, SERVICE_WORKERS};
use bgi_bisim::BisimDirection;
use bgi_datasets::Dataset;
use bgi_graph::DiGraph;
use bgi_ingest::{ApplyOutcome, Engine, EngineConfig, IngestUpdate, RebuildPolicy};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_service::{
    boot_sharded, IndexSnapshot, QueryRequest, QueryResponse, Service, ServiceConfig,
    ShardedWriteHub, WriteHub,
};
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec, ShardedStore};
use bgi_store::{IndexBundle, Store};
use big_index::{BiGIndex, BuildParams, EvalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Errors are reported, never matched on.
pub type Res<T> = Result<T, String>;

/// `e.to_string()` for `map_err`.
pub fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A directory under the benchmark's output dir, removed on drop — the
/// benchmark may write only inside its checkout, so no `$TMPDIR`.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates (emptying any leftover) `<out_dir>/scratch-<tag>-<pid>`.
    pub fn new(out_dir: &Path, tag: &str) -> Res<ScratchDir> {
        let dir = out_dir.join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a build produced, ready to be saved.
pub enum Built {
    /// One whole-graph bundle.
    Mono(Box<IndexBundle>),
    /// A partition plan and one bundle per shard.
    Sharded(ShardPlan, Vec<IndexBundle>),
}

/// Wall time of each build phase, seconds (0 where a phase does not
/// exist for the topology).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Hierarchy construction (Algo. 1 or the full-step ladder).
    pub hierarchy_s: f64,
    /// Per-layer BANKS/BLINKS/r-clique index construction.
    pub layer_indexes_s: f64,
    /// `ShardPlan::build`.
    pub plan_s: f64,
    /// `build_shard_bundles` (hierarchies and indexes of every shard).
    pub shard_bundles_s: f64,
}

impl BuildTimes {
    /// The end-to-end `build_s`.
    pub fn total_s(&self) -> f64 {
        self.hierarchy_s + self.layer_indexes_s + self.plan_s + self.shard_bundles_s
    }
}

/// The engine configuration of every deployment: drift rebuilds off, so
/// no background rebuild fires inside a timed window (asserted via
/// `ServiceStats.ingest_rebuilds`).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        policy: RebuildPolicy {
            max_cost_increase: f64::INFINITY,
            max_updates: usize::MAX,
            ..RebuildPolicy::default()
        },
        threads: 1,
    }
}

/// The service configuration: fixed workers, no deadlines, degradation
/// ladder off — every reply must be `Exact`.
pub fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        workers: SERVICE_WORKERS,
        queue_capacity: 256,
        cache_shards: spec.cache_shards,
        cache_capacity: spec.cache_capacity,
        default_deadline: None,
        degradation: None,
    }
}

/// Builds the hierarchy the way `spec` says.
pub fn build_hierarchy(spec: &Spec, g: &DiGraph, ds: &Dataset) -> BiGIndex {
    match spec.hierarchy {
        Hierarchy::FullStep => {
            let configs = big_index::greedy_full_step_configs(
                g,
                &ds.ontology,
                spec.layers,
                BisimDirection::Forward,
            );
            BiGIndex::build_with_configs(
                g.clone(),
                ds.ontology.clone(),
                configs,
                BisimDirection::Forward,
            )
        }
        Hierarchy::Algo1 => BiGIndex::build(
            g.clone(),
            ds.ontology.clone(),
            &BuildParams {
                max_layers: spec.layers,
                threads: BUILD_THREADS,
                ..BuildParams::default()
            },
        ),
    }
}

/// All per-layer indexes over `index`, with the product defaults.
pub fn build_bundle(index: BiGIndex) -> IndexBundle {
    IndexBundle::build_with_threads(
        index,
        BlinksParams::default(),
        RClique::default(),
        EvalOptions::default(),
        BUILD_THREADS,
    )
}

/// Hierarchy plus indexes (plus, when sharded, the partition).
pub fn build(spec: &Spec, ds: &Dataset) -> Res<(Built, BuildTimes)> {
    let mut times = BuildTimes::default();
    match spec.topology {
        Topology::Mono => {
            let t = Instant::now();
            let index = build_hierarchy(spec, &ds.graph, ds);
            times.hierarchy_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let bundle = build_bundle(index);
            times.layer_indexes_s = t.elapsed().as_secs_f64();
            Ok((Built::Mono(Box::new(bundle)), times))
        }
        Topology::Sharded {
            shards,
            dmax_ceiling,
        } => {
            let t = Instant::now();
            let plan = ShardPlan::build(
                &ds.graph,
                &ShardSpec {
                    shards,
                    dmax_ceiling,
                    partition_block: 0,
                },
            )
            .map_err(msg)?;
            times.plan_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let bundles = build_shard_bundles(
                &ds.graph,
                &ds.ontology,
                &plan,
                &ShardBuildParams {
                    max_layers: spec.layers,
                    threads: BUILD_THREADS,
                    ..ShardBuildParams::default()
                },
            );
            times.shard_bundles_s = t.elapsed().as_secs_f64();
            Ok((Built::Sharded(plan, bundles), times))
        }
    }
}

/// Saves `built` as the first generation under `dir`.
pub fn save(built: &Built, dir: &Path) -> Res<()> {
    match built {
        Built::Mono(bundle) => {
            let store = Store::open(dir).map_err(msg)?;
            store
                .save_with_threads(bundle, BUILD_THREADS)
                .map_err(msg)?;
        }
        Built::Sharded(plan, bundles) => {
            let store = ShardedStore::create(dir, plan.clone()).map_err(msg)?;
            store.save_all(bundles, BUILD_THREADS).map_err(msg)?;
        }
    }
    Ok(())
}

/// Copies the directory tree `from` to `to` (not fsynced: a scratch
/// copy for boots to read, never the durable one).
pub fn copy_tree(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(msg)?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(msg)?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir` whose name `keep`
/// accepts.
fn tree_bytes(dir: &Path, keep: &dyn Fn(&std::ffi::OsStr) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path(), keep),
            Ok(m) if keep(&e.file_name()) => m.len(),
            _ => 0,
        })
        .sum()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    tree_bytes(dir, &|_| true)
}

/// Sizes of every `wal.log` under `dir`.
pub fn wal_bytes(dir: &Path) -> u64 {
    tree_bytes(dir, &|name| name == "wal.log")
}

/// The write side of a deployment.
pub enum Writer {
    /// `Service::apply_updates_grouped` through one hub.
    Mono(Box<WriteHub>),
    /// `Service::apply_updates_sharded` through per-shard hubs.
    Sharded(Box<ShardedWriteHub>),
}

/// One acknowledged commit, as seen by the caller.
#[derive(Debug, Clone, Default)]
pub struct Ack {
    /// `(shard, wal seq)` of every shard that committed a share.
    pub seqs: Vec<(usize, u64)>,
    /// Per-layer index fates, summed over shards.
    pub reused_layers: usize,
    /// See [`ApplyOutcome::patched_layers`].
    pub patched_layers: usize,
    /// See [`ApplyOutcome::rebuilt_layers`].
    pub rebuilt_layers: usize,
}

impl Ack {
    fn add(&mut self, shard: usize, o: &ApplyOutcome) -> Res<()> {
        let seq = o
            .seq
            .ok_or("durable commit acknowledged without a WAL sequence")?;
        self.seqs.push((shard, seq));
        self.reused_layers += o.reused_layers;
        self.patched_layers += o.patched_layers;
        self.rebuilt_layers += o.rebuilt_layers;
        Ok(())
    }
}

/// A booted deployment: the service plus its write side.
pub struct Deployment {
    /// The running service.
    pub service: Service,
    /// The engines behind it.
    pub writer: Writer,
}

/// Time split of one boot, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootTimes {
    /// `Store::load_latest` (mono) — 0 when sharded, where
    /// `boot_sharded` does not expose the split.
    pub load_latest_s: f64,
    /// `Engine::with_wal` (mono): seed the flat partitions, replay the
    /// WAL.
    pub engine_s: f64,
    /// `IndexSnapshot::from_bundle` (mono), clone excluded.
    pub from_bundle_s: f64,
    /// Restart-to-serving: open the store through the first reply.
    pub total_s: f64,
}

impl Deployment {
    /// Restart-to-serving from the store at `dir`: recover the newest
    /// generation, replay the WAL, admit the snapshot, start workers and
    /// answer `first`.
    pub fn boot(spec: &Spec, dir: &Path, first: &QueryRequest) -> Res<(Deployment, BootTimes)> {
        let mut times = BootTimes::default();
        let t0 = Instant::now();
        let (service, writer) = match spec.topology {
            Topology::Mono => {
                let store = Store::open(dir).map_err(msg)?;
                let t = Instant::now();
                let (_generation, bundle) = store.load_latest().map_err(msg)?;
                times.load_latest_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let (engine, _replayed) =
                    Engine::with_wal(bundle, engine_config(), &store).map_err(msg)?;
                times.engine_s = t.elapsed().as_secs_f64();
                let served = engine.bundle().clone();
                let t = Instant::now();
                let snapshot = IndexSnapshot::from_bundle(served).map_err(msg)?;
                times.from_bundle_s = t.elapsed().as_secs_f64();
                let service = Service::start(Arc::new(snapshot), service_config(spec));
                (service, Writer::Mono(Box::new(WriteHub::new(engine))))
            }
            Topology::Sharded { .. } => {
                let store = ShardedStore::open(dir).map_err(msg)?;
                let (snapshot, hub, _replayed) =
                    boot_sharded(&store, engine_config(), SCATTER_THREADS).map_err(msg)?;
                let service = Service::start_sharded(snapshot, service_config(spec));
                (service, Writer::Sharded(Box::new(hub)))
            }
        };
        service.query(first.clone()).map_err(msg)?;
        times.total_s = t0.elapsed().as_secs_f64();
        Ok((Deployment { service, writer }, times))
    }

    /// Replaces the service with a fresh one (new worker threads, empty
    /// cache, zeroed counters) over the snapshot currently served.
    pub fn restart_service(&mut self, spec: &Spec) -> Res<()> {
        let config = service_config(spec);
        let fresh = match (self.service.snapshot(), self.service.sharded()) {
            (Some(snapshot), _) => Service::start(snapshot, config),
            (None, Some(sharded)) => Service::start_sharded(sharded, config),
            (None, None) => return Err("the service serves no snapshot".into()),
        };
        self.service = fresh;
        Ok(())
    }

    /// One blocking query.
    pub fn query(&self, request: QueryRequest) -> Res<QueryResponse> {
        self.service.query(request).map_err(msg)
    }

    /// One durable single-op commit: returns once the WAL fsync, the
    /// index patch, re-verification and the snapshot swap are done.
    pub fn apply(&self, op: IngestUpdate) -> Res<Ack> {
        let mut ack = Ack::default();
        match &self.writer {
            Writer::Mono(hub) => {
                let report = self
                    .service
                    .apply_updates_grouped(hub, vec![op])
                    .map_err(msg)?;
                ack.add(0, &report.outcome)?;
            }
            Writer::Sharded(hub) => {
                let report = self
                    .service
                    .apply_updates_sharded(hub, &[op])
                    .map_err(msg)?;
                for (s, share) in report.per_shard.into_iter().enumerate() {
                    if let Some(result) = share {
                        ack.add(s, &result.map_err(msg)?.outcome)?;
                    }
                }
            }
        }
        Ok(ack)
    }

    /// Highest folded WAL sequence and current base graph of every
    /// engine (one per shard; one in all when monolithic).
    pub fn engine_states(&self) -> Vec<(u64, DiGraph)> {
        let state = |e: &mut Engine| (e.last_seq(), e.index().base().clone());
        match &self.writer {
            Writer::Mono(hub) => vec![hub.with_engine(state)],
            Writer::Sharded(hub) => (0..hub.num_shards())
                .map(|s| hub.with_engine(s, state))
                .collect(),
        }
    }

    /// Σ WAL fsyncs over every engine.
    pub fn wal_fsyncs(&self) -> u64 {
        match &self.writer {
            Writer::Mono(hub) => hub.with_engine(|e| e.wal_fsyncs()),
            Writer::Sharded(hub) => (0..hub.num_shards())
                .map(|s| hub.with_engine(s, |e| e.wal_fsyncs()))
                .sum(),
        }
    }

    /// The served bundle of a monolithic deployment.
    pub fn mono_bundle(&self) -> Option<IndexBundle> {
        match &self.writer {
            Writer::Mono(hub) => Some(hub.with_engine(|e| e.bundle().clone())),
            Writer::Sharded(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use crate::spec::spec;

    /// The whole life cycle on the smoke scale, both topologies: build,
    /// save, boot, query, durable write, reboot recovers the write.
    #[test]
    fn life_cycle_round_trips_on_both_topologies() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for name in ["query_cold", "query_sharded"] {
            let spec = spec(name, true).unwrap();
            let ds = spec.graph.dataset().generate();
            let requests = pool::request_pool(&spec, &ds, 1);
            assert!(!requests.is_empty());
            let (built, times) = build(&spec, &ds).unwrap();
            assert!(times.total_s() > 0.0);
            let scratch = ScratchDir::new(&out, name).unwrap();
            save(&built, scratch.path()).unwrap();
            assert!(dir_bytes(scratch.path()) > 0);
            let (dep, boot) = Deployment::boot(&spec, scratch.path(), &requests[0]).unwrap();
            assert!(boot.total_s > 0.0);
            dep.query(requests[0].clone()).unwrap();
            let ops = pool::updates(&ds.graph, 1, 4);
            let mut acked = std::collections::BTreeMap::new();
            for op in ops {
                for (s, seq) in dep.apply(op).unwrap().seqs {
                    acked.insert(s, seq);
                }
            }
            assert!(wal_bytes(scratch.path()) > 0);
            let before = dep.engine_states();
            drop(dep);
            let (dep, _) = Deployment::boot(&spec, scratch.path(), &requests[0]).unwrap();
            let after = dep.engine_states();
            for (&s, &seq) in &acked {
                assert_eq!(after[s].0, seq, "shard {s} lost acknowledged commits");
            }
            for (b, a) in before.iter().zip(&after) {
                assert_eq!(b.1, a.1, "recovered graph differs from the live one");
            }
        }
    }
}
