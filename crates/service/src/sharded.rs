//! Scatter–gather serving over shard-local BiG-index hierarchies.
//!
//! A [`ShardedSnapshot`] holds one verified [`IndexSnapshot`] per
//! shard (each built over that shard's universe subgraph — owned set
//! plus halo, see `bgi_shard`) and runs Algorithm 2 as scatter–gather:
//! the request is validated once, every shard's summary hierarchy is
//! searched in parallel under a budget seeded from the caller's
//! cooperative [`Budget`], and the per-shard answers are translated to
//! global ids, anchor-filtered, and re-ranked with the same
//! deterministic `(score, identity)` tie-breaking the monolithic path
//! uses. This module is the read side plus [`boot_sharded`]; the write
//! side it boots (router, per-shard hubs, recovery) is `crate::write`.
//!
//! ## Why the merge is exact
//!
//! The partition contract (see `bgi_shard`) guarantees that any answer
//! with `d_max ≤ dmax_ceiling` is fully contained — with exact
//! internal distances — in the universe of the shard that owns its
//! *anchor* (the root for rooted semantics, the minimum keyword match
//! otherwise). Every answer a shard reports is therefore a genuine
//! global answer with its true score; keeping only the copies whose
//! anchor the reporting shard owns deduplicates across overlapping
//! halos without losing anything. A request whose `d_max` exceeds the
//! ceiling is refused with [`QueryError::DmaxExceedsPartition`]
//! instead of silently returning partial answers.
//!
//! ## Degradation
//!
//! Legs run under budgets seeded from the caller's budget, so one
//! deadline governs the whole scatter. A leg that times out without
//! producing anything is *shed* (counted per shard in the stats
//! lanes) and the merged completeness degrades to `Truncated`; legs
//! that return best-effort answers merge their `Anytime` bounds with
//! [`Completeness::merge`]. Only when every leg sheds does the query
//! time out as a whole.

use crate::request::{QueryError, QueryRequest};
use crate::snapshot::{ExecOutcome, IndexSnapshot, SnapshotError};
use crate::stats::StatsRegistry;
use crate::write::{ShardedWriteHub, WriteHub};
use bgi_check::sync::Mutex;
use bgi_graph::par::par_map;
use bgi_graph::VId;
use bgi_ingest::{Engine, EngineConfig, IngestError};
use bgi_search::answer::rank_and_truncate;
use bgi_search::{AnswerGraph, Budget, Completeness};
use bgi_shard::{ShardPlan, ShardRouter, ShardedStore};
use bgi_store::{Failpoints, IndexBundle};
use std::sync::Arc;
use std::time::Instant;

/// Extra answers each scatter leg is asked for beyond the caller's
/// `k`, absorbing ties and halo duplicates that the anchor filter
/// removes at merge time.
const LEG_OVERSAMPLE: usize = 8;

/// One immutable serving unit for a sharded deployment: the partition
/// plan, one verified snapshot per shard, and each shard's
/// local-to-global id map.
pub struct ShardedSnapshot {
    plan: Arc<ShardPlan>,
    shards: Vec<Arc<IndexSnapshot>>,
    /// `maps[s][local]` = global id (strictly increasing per shard:
    /// the sorted base universe followed by the ascending grown tail),
    /// so translation preserves `(score, identity)` ordering.
    maps: Vec<Arc<Vec<VId>>>,
    /// Fan-out width for the scatter (legs beyond it queue).
    scatter_threads: usize,
}

impl ShardedSnapshot {
    /// Assembles a sharded snapshot from per-shard bundles (each is
    /// verified by [`IndexSnapshot::from_bundle`]). `maps[s]` must be
    /// shard `s`'s local-to-global table — the plan universe for a
    /// fresh build, or `ShardRouter::map` once vertices have grown.
    pub fn from_bundles(
        plan: Arc<ShardPlan>,
        bundles: Vec<IndexBundle>,
        maps: Vec<Vec<VId>>,
        scatter_threads: usize,
    ) -> Result<ShardedSnapshot, SnapshotError> {
        let shards = bundles
            .into_iter()
            .map(|b| IndexSnapshot::from_bundle(b).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedSnapshot {
            plan,
            shards,
            maps: maps.into_iter().map(Arc::new).collect(),
            scatter_threads,
        })
    }

    /// A copy of this snapshot with shard `s` replaced — the
    /// shard-local swap unit ([`crate::Service::swap_shard`] installs
    /// it atomically).
    pub fn with_shard(
        &self,
        s: usize,
        snapshot: Arc<IndexSnapshot>,
        map: Arc<Vec<VId>>,
    ) -> ShardedSnapshot {
        let mut shards = self.shards.clone();
        let mut maps = self.maps.clone();
        shards[s] = snapshot;
        maps[s] = map;
        ShardedSnapshot {
            plan: Arc::clone(&self.plan),
            shards,
            maps,
            scatter_threads: self.scatter_threads,
        }
    }

    /// The partition plan.
    pub fn plan(&self) -> &Arc<ShardPlan> {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s snapshot.
    pub fn shard(&self, s: usize) -> &Arc<IndexSnapshot> {
        &self.shards[s]
    }

    /// Shard `s`'s local-to-global id map.
    pub fn map(&self, s: usize) -> &Arc<Vec<VId>> {
        &self.maps[s]
    }

    /// The owner of global vertex `v`: the plan for base vertices,
    /// round-robin (the router's growth rule) beyond them.
    fn owner_of(&self, v: VId) -> Option<u32> {
        if v.index() < self.plan.num_vertices() {
            self.plan.owner_of(v)
        } else {
            Some(v.0 % self.num_shards() as u32)
        }
    }

    /// Executes one request as scatter–gather. See the module docs for
    /// the merge and degradation contract.
    pub fn execute(&self, req: &QueryRequest, budget: &Budget) -> Result<ExecOutcome, QueryError> {
        self.execute_observed(req, budget, None)
    }

    /// [`ShardedSnapshot::execute`] with per-shard leg accounting
    /// recorded into `stats` (the service wires its registry in; bare
    /// snapshot users pass `None`).
    pub fn execute_observed(
        &self,
        req: &QueryRequest,
        budget: &Budget,
        stats: Option<&StatsRegistry>,
    ) -> Result<ExecOutcome, QueryError> {
        if req.keywords.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let ceiling = self.plan.dmax_ceiling();
        if req.dmax > ceiling {
            return Err(QueryError::DmaxExceedsPartition {
                requested: req.dmax,
                ceiling,
            });
        }
        // Each leg is an independent search of one shard's hierarchy:
        // oversampled top-k, no client floor (the merged set applies
        // it), and the shared budget seeded per thread.
        let leg_req = QueryRequest {
            k: req.k.saturating_mul(2).saturating_add(LEG_OVERSAMPLE),
            deadline: None,
            soft_deadline: None,
            min_results: 0,
            ..req.clone()
        };
        let seed = budget.seed();
        let legs = par_map(self.scatter_threads, self.shards.len(), |s| {
            let leg_budget = seed.budget();
            let started = Instant::now();
            let result = self.shards[s].execute(&leg_req, &leg_budget);
            (result, started.elapsed())
        });
        if let Some(stats) = stats {
            for (s, (result, latency)) in legs.iter().enumerate() {
                let shed = matches!(result, Err(QueryError::Timeout));
                stats.record_shard_leg(s, *latency, shed);
            }
        }
        // A non-timeout failure is a property of the request (empty,
        // bad layer, merged keywords), not of load: report the first
        // one deterministically.
        for (result, _) in &legs {
            if let Err(err) = result {
                if *err != QueryError::Timeout {
                    return Err(err.clone());
                }
            }
        }
        let mut merged: Vec<AnswerGraph> = Vec::new();
        let mut completeness = Completeness::Exact;
        let mut layer = usize::MAX;
        let mut fell_back = false;
        let mut sheds = 0usize;
        for (s, (result, _)) in legs.iter().enumerate() {
            let Ok(outcome) = result else {
                sheds += 1;
                continue;
            };
            completeness = completeness.merge(outcome.completeness);
            layer = layer.min(outcome.layer);
            fell_back |= outcome.fell_back;
            let map = &self.maps[s];
            for a in &outcome.answers {
                let global = translate(a, map);
                if anchor(&global).and_then(|v| self.owner_of(v)) == Some(s as u32) {
                    merged.push(global);
                }
            }
        }
        if sheds == self.shards.len() {
            return Err(QueryError::Timeout);
        }
        if sheds > 0 {
            // A dropped leg may have held arbitrarily good answers: the
            // merged set is correct but unboundedly incomplete.
            completeness = completeness.merge(Completeness::Truncated);
        }
        let answers = rank_and_truncate(merged, req.k);
        if !completeness.is_exact() && answers.len() < req.min_results {
            return Err(QueryError::Timeout);
        }
        Ok(ExecOutcome {
            answers,
            layer: if layer == usize::MAX { 0 } else { layer },
            fell_back,
            completeness,
        })
    }
}

/// Translates a shard-local answer to global ids. The per-shard map is
/// strictly increasing, so sorted vertex lists stay sorted and the
/// `(score, identity)` order is preserved.
fn translate(a: &AnswerGraph, map: &[VId]) -> AnswerGraph {
    let t = |v: VId| map[v.index()];
    AnswerGraph::new(
        a.vertices.iter().map(|&v| t(v)).collect(),
        a.edges.iter().map(|&(u, v)| (t(u), t(v))).collect(),
        a.keyword_matches
            .iter()
            .map(|m| m.iter().map(|&v| t(v)).collect())
            .collect(),
        a.root.map(t),
        a.score,
    )
}

/// The answer's anchor: the root for rooted semantics, the minimum
/// keyword match otherwise (both lie within `d_max` of every keyword
/// node, which is what the halo-containment argument needs).
fn anchor(a: &AnswerGraph) -> Option<VId> {
    a.root
        .or_else(|| a.keyword_matches.iter().flatten().copied().min())
}

/// Why a sharded deployment failed to boot.
#[derive(Debug)]
pub enum ShardedBootError {
    /// The sharded store failed (plan, generations, or meta WAL).
    Store(bgi_shard::ShardStoreError),
    /// A shard's WAL replay failed.
    Ingest(IngestError),
    /// A shard's recovered bundle failed snapshot admission.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ShardedBootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedBootError::Store(e) => write!(f, "sharded store: {e}"),
            ShardedBootError::Ingest(e) => write!(f, "shard WAL replay: {e}"),
            ShardedBootError::Snapshot(e) => write!(f, "shard snapshot refused: {e}"),
        }
    }
}

impl std::error::Error for ShardedBootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedBootError::Store(e) => Some(e),
            ShardedBootError::Ingest(e) => Some(e),
            ShardedBootError::Snapshot(e) => Some(e),
        }
    }
}

/// Boots a sharded deployment from disk: loads every shard's latest
/// generation, replays each shard's WAL on top, replays the meta WAL
/// into a fresh router (recovering global numbering and live cuts),
/// reconciles the router against what the engines actually recovered,
/// and assembles the serving snapshot from the *engines'* bundles
/// (post-replay state, not the on-disk generation).
///
/// Returns the snapshot, the write hub, and the per-shard replayed
/// update counts.
pub fn boot_sharded(
    store: &ShardedStore,
    engine_config: EngineConfig,
    scatter_threads: usize,
) -> Result<(Arc<ShardedSnapshot>, ShardedWriteHub, Vec<usize>), ShardedBootError> {
    let plan = Arc::new(store.plan().clone());
    let loaded = store.load_all().map_err(ShardedBootError::Store)?;
    let mut engines = Vec::with_capacity(loaded.len());
    let mut replayed = Vec::with_capacity(loaded.len());
    for (s, (_generation, bundle)) in loaded.into_iter().enumerate() {
        let (engine, n) = Engine::with_wal(bundle, engine_config, store.store(s))
            .map_err(ShardedBootError::Ingest)?;
        engines.push(engine);
        replayed.push(n);
    }
    let alphabet = engines
        .first()
        .map_or(0, |e| e.bundle().index.ontology().num_labels());
    let mut router = ShardRouter::new(Arc::clone(&plan), alphabet);
    let (meta, meta_batches) = store
        .meta_wal(Failpoints::disabled())
        .map_err(ShardedBootError::Store)?;
    router.replay_meta(&meta_batches);
    let engine_lens: Vec<usize> = engines
        .iter()
        .map(|e| e.bundle().index.graph_at(0).num_vertices())
        .collect();
    router.reconcile(&engine_lens);
    let bundles: Vec<IndexBundle> = engines.iter().map(|e| e.bundle().clone()).collect();
    let maps: Vec<Vec<VId>> = (0..engines.len()).map(|s| router.map(s)).collect();
    let snapshot = Arc::new(
        ShardedSnapshot::from_bundles(plan, bundles, maps, scatter_threads)
            .map_err(ShardedBootError::Snapshot)?,
    );
    let hub = ShardedWriteHub {
        router: Mutex::new(router),
        hubs: engines.into_iter().map(WriteHub::new).collect(),
        meta: Mutex::new(meta),
    };
    Ok((snapshot, hub, replayed))
}

/// Builds the serving snapshot for a freshly built (not yet updated)
/// sharded deployment: plan universes are the id maps.
pub fn snapshot_from_build(
    plan: Arc<ShardPlan>,
    bundles: Vec<IndexBundle>,
    scatter_threads: usize,
) -> Result<Arc<ShardedSnapshot>, SnapshotError> {
    let maps: Vec<Vec<VId>> = (0..plan.num_shards())
        .map(|s| plan.universe(s).to_vec())
        .collect();
    Ok(Arc::new(ShardedSnapshot::from_bundles(
        plan,
        bundles,
        maps,
        scatter_threads,
    )?))
}
