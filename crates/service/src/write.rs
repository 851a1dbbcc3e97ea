//! The write path: one commit routine from [`Service`] through
//! `bgi_ingest::Engine` to `bgi_store::Wal`.
//!
//! Every durable commit — monolithic or per-shard, one caller or
//! sixteen — enqueues in its [`WriteHub`]'s [`CommitQueue`], and the
//! caller that leads the cycle runs `Service::commit_group` over
//! everything queued so far (a lone writer leads a group of one). The
//! routine's only parameter is *where the snapshot is installed*: the
//! whole serving slot ([`Service::apply_updates_grouped`]), or shard `s`
//! of the served sharded snapshot with its id map read from the router
//! ([`Service::apply_updates_sharded`], once per touched shard).

use crate::service::Service;
use crate::sharded::ShardedBootError;
use crate::snapshot::{IndexSnapshot, SnapshotError};
use bgi_check::sync::thread::{self, JoinHandle};
use bgi_check::sync::{Mutex, PoisonError};
use bgi_ingest::{ApplyOutcome, Engine, EngineConfig, IngestError, IngestUpdate};
use bgi_shard::{RouteError, ShardRouter, ShardStoreError, ShardedStore};
use bgi_store::{CommitQueue, IndexBundle, StoreError, Wal};
use std::sync::Arc;

/// The one owner of write-side state for an engine: the engine and its
/// background-rebuild slot behind a mutex, plus the [`CommitQueue`] that
/// coalesces concurrent callers into single commit cycles. Create one
/// per engine and hand `&WriteHub` to every writer thread. Dropping the
/// hub joins a rebuild still running (its result is discarded; the WAL
/// preserves everything it would have folded).
pub struct WriteHub {
    state: Mutex<WriteState>,
    queue: CommitQueue<Vec<IngestUpdate>, Result<ApplyReport, Arc<ApplyError>>>,
}

/// What a hub's mutex guards. The rebuild slot is only ever touched by
/// a thread that also needs the engine, so one lock covers both.
struct WriteState {
    engine: Engine,
    rebuild: RebuildSlot,
}

/// The in-flight background rebuild, if any. One slot per hub: a second
/// rebuild is never started while one is outstanding.
struct RebuildSlot(Option<JoinHandle<IndexBundle>>);

impl Drop for RebuildSlot {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.join();
        }
    }
}

/// Where a committed group's snapshot is installed — the one thing the
/// monolithic and the per-shard commit differ in.
#[derive(Clone, Copy)]
enum InstallTarget<'a> {
    /// The whole serving slot ([`Service::swap_snapshot`]).
    Whole,
    /// Shard `s` of the served sharded snapshot, with its id map read
    /// from the router ([`Service::swap_shard`]).
    Shard(usize, &'a Mutex<ShardRouter>),
}

impl std::fmt::Display for InstallTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallTarget::Whole => write!(f, "index"),
            InstallTarget::Shard(s, _) => write!(f, "shard {s}"),
        }
    }
}

impl WriteHub {
    /// Wraps `engine` for its writers.
    pub fn new(engine: Engine) -> Self {
        WriteHub {
            state: Mutex::new(WriteState {
                engine,
                rebuild: RebuildSlot(None),
            }),
            queue: CommitQueue::new(),
        }
    }

    /// Runs `f` with exclusive access to the engine — for maintenance
    /// paths (checkpoint, drift inspection, replacing the engine with a
    /// recovered one) that need the engine outside a commit cycle.
    /// Writers are blocked for the duration, so keep it short.
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut Engine) -> T) -> T {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut state.engine)
    }

    /// Unwraps the hub back into its engine (e.g. at shutdown).
    pub fn into_engine(self) -> Engine {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .engine
    }
}

/// The shared write-side state for a sharded deployment: the update
/// router, one [`WriteHub`] (engine, rebuild slot and group-commit
/// queue) per shard, and the meta WAL.
///
/// Lock ordering: the router (with the meta WAL inside its critical
/// section) is never held while an engine lock is acquired, and a
/// commit holding an engine lock may briefly take the router to read
/// a map — so `router → meta` and `engine → router` are the only
/// nestings, and they cannot deadlock.
pub struct ShardedWriteHub {
    pub(crate) router: Mutex<ShardRouter>,
    pub(crate) hubs: Vec<WriteHub>,
    pub(crate) meta: Mutex<Wal>,
}

impl ShardedWriteHub {
    /// Runs `f` with exclusive access to shard `s`'s engine (the
    /// sharded analogue of [`WriteHub::with_engine`]).
    pub fn with_engine<T>(&self, s: usize, f: impl FnOnce(&mut Engine) -> T) -> T {
        self.hubs[s].with_engine(f)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.hubs.len()
    }

    /// A point-in-time copy of the router (owner table, grown tails,
    /// live cut lists) for inspection and verification.
    pub fn router_snapshot(&self) -> ShardRouter {
        self.router
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Service {
    /// The write path: commits `updates` through the hub's engine
    /// (WAL-logged when the engine has one), then builds a snapshot
    /// from the engine's new bundle and swaps it in.
    ///
    /// Concurrent callers coalesce into one commit cycle through the
    /// hub's [`CommitQueue`]: exactly one caller (the leader) locks the
    /// engine and commits every concurrent batch with **one** WAL
    /// append + fsync ([`Engine::apply_group`]), one materialization,
    /// and one snapshot swap; the others wait for their own
    /// [`ApplyReport`] without ever touching the engine. Under 16
    /// single-op writers this turns 16 fsyncs into a handful; a lone
    /// writer is a group of one and never waits in the queue.
    ///
    /// When the staleness tracker recommends a full rebuild, the
    /// from-scratch construction runs on a **background thread** owned
    /// by the hub (`Engine::start_rebuild` captures the inputs; updates
    /// keep applying and are buffered as a delta), so the write path
    /// never blocks on it. The next commit that finds it finished — or
    /// an explicit [`Service::poll_rebuild`] — adopts it: delta
    /// replayed, snapshot swapped. At most one rebuild per hub is in
    /// flight, and a result whose engine has since been replaced (by
    /// one recovered from the store) is discarded, not adopted.
    ///
    /// Queries keep serving the old snapshot throughout and only ever
    /// see the new state atomically via [`Service::swap_snapshot`]. A
    /// whole-group failure (validation, WAL I/O, snapshot admission)
    /// reaches every caller of the group as [`ApplyError::Group`]
    /// sharing the cause. After a refused snapshot the engine state
    /// *has* advanced (and is WAL-recoverable), so the caller decides
    /// between retrying and restarting from the store. A leader that
    /// *panics* mid-cycle yields [`ApplyError::LeaderDied`] for the
    /// batches it had drained — outcome unknown, like a client losing
    /// its connection mid-commit.
    pub fn apply_updates_grouped(
        &self,
        hub: &WriteHub,
        updates: Vec<IngestUpdate>,
    ) -> Result<ApplyReport, ApplyError> {
        self.commit(hub, InstallTarget::Whole, updates)
    }

    /// The *sharded* write path: routes `updates` by vertex ownership
    /// (see `bgi_shard::ShardRouter`), journals global numbering and
    /// cut changes to the meta WAL, then commits each shard's share
    /// through that shard's own [`WriteHub`] with the routine
    /// [`Service::apply_updates_grouped`] runs — so writers hitting
    /// different shards never serialize on one engine lock, each shard
    /// tracks drift and rebuilds independently, and a committed shard
    /// swaps only *its* slice of the serving snapshot
    /// ([`Service::swap_shard`]).
    ///
    /// Atomicity: routing runs on a **staged clone** of the router and
    /// the clone is committed back only after the meta WAL append
    /// succeeds, so a routing or journaling failure mutates nothing
    /// (`Err` here means no shard saw the batch). After that point
    /// shards commit independently: every assigned shard is attempted,
    /// and per-shard outcomes are reported side by side in the
    /// [`ShardedApplyReport`] — one shard's WAL failure neither blocks
    /// nor poisons its siblings, and recovery
    /// ([`Service::recover_shard`]) reconciles the router with whatever
    /// each engine actually made durable.
    pub fn apply_updates_sharded(
        &self,
        hub: &ShardedWriteHub,
        updates: &[IngestUpdate],
    ) -> Result<ShardedApplyReport, ApplyError> {
        let routed = {
            let mut guard = hub.router.lock().unwrap_or_else(PoisonError::into_inner);
            let mut staged = guard.clone();
            let routed = staged.route(updates).map_err(ApplyError::Route)?;
            if !routed.meta.is_empty() {
                let mut meta = hub.meta.lock().unwrap_or_else(PoisonError::into_inner);
                meta.append(&routed.meta).map_err(ApplyError::Meta)?;
            }
            *guard = staged;
            routed
        };
        let per_shard = (routed.per_shard.into_iter().enumerate())
            .map(|(s, share)| {
                let target = InstallTarget::Shard(s, &hub.router);
                (!share.is_empty()).then(|| self.commit(&hub.hubs[s], target, share))
            })
            .collect();
        Ok(ShardedApplyReport {
            per_shard,
            assigned: routed.assigned,
        })
    }

    /// One caller's trip through `hub`'s commit queue. Whichever caller
    /// leads the group this batch lands in takes the hub's lock, commits
    /// the group, and hands every batch its report — or all of them the
    /// one shared error.
    fn commit(
        &self,
        hub: &WriteHub,
        target: InstallTarget<'_>,
        updates: Vec<IngestUpdate>,
    ) -> Result<ApplyReport, ApplyError> {
        let lead = |batches: Vec<Vec<IngestUpdate>>| {
            let mut state = hub.state.lock().unwrap_or_else(PoisonError::into_inner);
            match self.commit_group(&mut state, target, &batches) {
                Ok(reports) => reports.into_iter().map(Ok).collect(),
                Err(err) => {
                    let shared = Arc::new(err);
                    batches.iter().map(|_| Err(Arc::clone(&shared))).collect()
                }
            }
        };
        match hub.queue.commit(updates, lead) {
            Some(Ok(report)) => Ok(report),
            Some(Err(shared)) => Err(ApplyError::Group(shared)),
            None => Err(ApplyError::LeaderDied),
        }
    }

    /// The commit routine — the only code that turns a drained group
    /// into a served snapshot: one group apply, one rebuild check, one
    /// snapshot install at `target`, one report per batch.
    fn commit_group(
        &self,
        state: &mut WriteState,
        target: InstallTarget<'_>,
        batches: &[Vec<IngestUpdate>],
    ) -> Result<Vec<ApplyReport>, ApplyError> {
        let outcomes = state
            .engine
            .apply_group(batches)
            .map_err(ApplyError::Ingest)?;
        // A group of empty batches changed nothing: skip the rebuild
        // bookkeeping and the snapshot swap. A group that committed but
        // changed no layer (an insert of an edge that exists, a delete
        // of one that does not) is durable all the same, but serves
        // exactly what is served: keep the snapshot and its cache.
        let (rebuilt, rebuild_started) = if batches.iter().all(Vec::is_empty) {
            (false, false)
        } else {
            let rebuilt = self.adopt_finished_rebuild(state, target)?;
            let rebuild_started = self.maybe_start_rebuild(state, target);
            if rebuilt || outcomes.iter().any(ApplyOutcome::changed_index) {
                self.serve_engine_state(&state.engine, target)?;
            }
            self.shared.stats.record_ingest_batch();
            (rebuilt, rebuild_started)
        };
        Ok(outcomes
            .into_iter()
            .map(|outcome| ApplyReport {
                outcome,
                rebuilt,
                rebuild_started,
            })
            .collect())
    }

    /// Builds a snapshot of the engine's current bundle — shared, not
    /// copied, and fully verified — and installs it at `target`. A
    /// bundle that fails snapshot admission is counted as a rollback
    /// and the previous snapshot keeps serving.
    fn serve_engine_state(
        &self,
        engine: &Engine,
        target: InstallTarget<'_>,
    ) -> Result<(), ApplyError> {
        let snapshot = IndexSnapshot::from_shared(engine.shared_bundle()).map_err(|err| {
            self.shared.stats.record_ingest_rollback();
            self.shared.log.line(&format!(
                "{target}: engine state refused at snapshot admission ({err}); \
                 previous snapshot keeps serving"
            ));
            ApplyError::Snapshot(err)
        })?;
        let snapshot = Arc::new(snapshot);
        match target {
            InstallTarget::Whole => self.swap_snapshot(snapshot),
            InstallTarget::Shard(s, router) => {
                // Engine → router is the one permitted nesting of those
                // two locks (see `ShardedWriteHub`); this read is brief.
                let map = {
                    let router = router.lock().unwrap_or_else(PoisonError::into_inner);
                    Arc::new(router.map(s))
                };
                if !self.swap_shard(s, snapshot, map) {
                    self.shared.log.line(&format!(
                        "{target} committed while the service is not serving sharded; \
                         engine state advanced, snapshot unchanged"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Recovers **one shard** from its own store — load the newest
    /// complete generation, replay that shard's WAL on top, replace the
    /// shard's engine, reconcile the router against what every engine
    /// actually holds, and swap the recovered shard into the serving
    /// snapshot — all without ever freezing the other shards' serving
    /// or write paths.
    ///
    /// Returns the number of WAL updates replayed on top of the loaded
    /// generation. On error nothing is replaced and the old shard state
    /// (possibly stale, still verified) keeps serving.
    pub fn recover_shard(
        &self,
        hub: &ShardedWriteHub,
        store: &ShardedStore,
        s: usize,
        config: EngineConfig,
    ) -> Result<usize, ShardedBootError> {
        let (_generation, bundle) = store
            .store(s)
            .load_latest()
            .map_err(|e| ShardedBootError::Store(ShardStoreError::from(e)))?;
        let (engine, replayed) =
            Engine::with_wal(bundle, config, store.store(s)).map_err(ShardedBootError::Ingest)?;
        let snapshot = IndexSnapshot::from_shared(engine.shared_bundle())
            .map_err(ShardedBootError::Snapshot)?;
        // A rebuild still in the shard's slot was captured from the
        // dead epoch; the adoption guard (`rebuild_in_flight`) discards
        // it at the next commit.
        hub.with_engine(s, |e| *e = engine);
        // Reconcile global numbering with what the engines actually
        // recovered. Engine locks are taken one at a time and never
        // while holding the router.
        let lens: Vec<usize> = (0..hub.hubs.len())
            .map(|i| hub.with_engine(i, |e| e.bundle().index.graph_at(0).num_vertices()))
            .collect();
        let map = {
            let mut router = hub.router.lock().unwrap_or_else(PoisonError::into_inner);
            router.reconcile(&lens);
            Arc::new(router.map(s))
        };
        self.swap_shard(s, Arc::new(snapshot), map);
        self.shared.log.line(&format!(
            "shard {s} recovered from its store ({replayed} WAL updates replayed)"
        ));
        Ok(replayed)
    }

    /// Adopts `hub`'s finished background rebuild, if one is waiting:
    /// replays the buffered delta onto the rebuilt hierarchy and swaps
    /// the resulting snapshot in. Returns `Ok(true)` when a rebuild was
    /// adopted and the snapshot swapped. Every commit does this
    /// automatically; call it from an idle tick (or before a
    /// checkpoint) to adopt without waiting for the next write.
    pub fn poll_rebuild(&self, hub: &WriteHub) -> Result<bool, ApplyError> {
        let mut state = hub.state.lock().unwrap_or_else(PoisonError::into_inner);
        let adopted = self.adopt_finished_rebuild(&mut state, InstallTarget::Whole)?;
        if adopted {
            self.serve_engine_state(&state.engine, InstallTarget::Whole)?;
        }
        Ok(adopted)
    }

    /// If the rebuild slot holds a finished job, join it and fold the
    /// result into the engine. Returns whether an adoption happened. A
    /// panicked build or a stale result (the engine is not the one the
    /// job was captured from) is discarded; the incrementally
    /// maintained state stays authoritative either way.
    fn adopt_finished_rebuild(
        &self,
        state: &mut WriteState,
        target: InstallTarget<'_>,
    ) -> Result<bool, ApplyError> {
        if !state
            .rebuild
            .0
            .as_ref()
            .is_some_and(JoinHandle::is_finished)
        {
            return Ok(false);
        }
        let Some(Ok(bundle)) = state.rebuild.0.take().map(JoinHandle::join) else {
            state.engine.abort_rebuild();
            self.shared.stats.record_ingest_rollback();
            self.shared.log.line(&format!(
                "{target}: background rebuild panicked; keeping incremental state"
            ));
            return Ok(false);
        };
        if !state.engine.rebuild_in_flight() {
            // The engine was replaced (crash-recovery path) after the
            // job was captured: its result describes a dead epoch.
            self.shared.log.line(&format!(
                "{target}: stale background rebuild discarded (engine was replaced)"
            ));
            return Ok(false);
        }
        state
            .engine
            .finish_rebuild(bundle)
            .map_err(ApplyError::Ingest)?;
        self.shared.stats.record_ingest_rebuild();
        self.shared.log.line(&format!(
            "{target}: background rebuild adopted; delta replayed"
        ));
        Ok(true)
    }

    /// Starts a background rebuild when the staleness tracker
    /// recommends one and none is already in flight. Returns whether a
    /// build was launched.
    fn maybe_start_rebuild(&self, state: &mut WriteState, target: InstallTarget<'_>) -> bool {
        let engine = &mut state.engine;
        if state.rebuild.0.is_some()
            || engine.rebuild_in_flight()
            || !engine.drift().rebuild_recommended
        {
            return false;
        }
        let job = engine.start_rebuild();
        state.rebuild.0 = Some(thread::spawn(move || job.run()));
        self.shared.log.line(&format!(
            "{target}: drift-triggered background rebuild started after {} updates",
            engine.updates_since_rebuild()
        ));
        true
    }
}

/// What one commit through a [`WriteHub`] did for one caller's batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReport {
    /// The engine-level outcome (WAL sequence, layer reuse counts).
    pub outcome: ApplyOutcome,
    /// Whether a *finished* background rebuild was adopted (delta
    /// replayed, snapshot rebuilt) by this call.
    pub rebuilt: bool,
    /// Whether the staleness tracker launched a new background rebuild
    /// on this call. Adoption happens on a later call (or via
    /// [`Service::poll_rebuild`]) once the build finishes.
    pub rebuild_started: bool,
}

/// What one [`Service::apply_updates_sharded`] call did, shard by
/// shard.
#[derive(Debug)]
pub struct ShardedApplyReport {
    /// `per_shard[s]` is `None` when shard `s` had no share of the
    /// batch, otherwise that shard's independent commit outcome. One
    /// shard failing does not imply anything about the others.
    pub per_shard: Vec<Option<Result<ApplyReport, ApplyError>>>,
    /// `assigned[i]` = the shard that owns `updates[i]`'s primary
    /// effect (the owner of an added vertex, or of an edge's source).
    pub assigned: Vec<u32>,
}

impl ShardedApplyReport {
    /// True when every shard that had a share committed it.
    pub fn all_committed(&self) -> bool {
        self.per_shard.iter().flatten().all(Result::is_ok)
    }
}

/// Why a commit did not swap a new snapshot in.
#[derive(Debug)]
pub enum ApplyError {
    /// The batch was rejected or failed before the swap (invalid
    /// update, WAL I/O, replay gap). Invalid batches leave the engine
    /// unchanged; see [`bgi_ingest::IngestError`] for the cases.
    Ingest(IngestError),
    /// The updated bundle failed snapshot admission; the previous
    /// snapshot keeps serving.
    Snapshot(SnapshotError),
    /// The group this batch was committed in (a lone writer's is a group
    /// of one) failed as a whole; the shared cause is delivered to every
    /// caller in the group. The batch was **not** committed.
    Group(Arc<ApplyError>),
    /// The group leader handling this batch died (panicked) mid-cycle;
    /// the commit outcome is unknown — the batch may or may not have
    /// reached the WAL. Callers should re-check state before retrying.
    LeaderDied,
    /// Sharded writes only: an update referenced a vertex or label the
    /// router does not know. Nothing was journaled or committed
    /// anywhere.
    Route(RouteError),
    /// Sharded writes only: appending the batch's global-numbering and
    /// cut records to the meta WAL failed. The routing table was not
    /// advanced and no shard saw the batch.
    Meta(StoreError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Ingest(e) => write!(f, "update batch failed: {e}"),
            ApplyError::Snapshot(e) => write!(f, "updated index refused: {e}"),
            ApplyError::Group(e) => write!(f, "update group failed: {e}"),
            ApplyError::LeaderDied => {
                write!(f, "group leader died mid-commit; batch outcome unknown")
            }
            ApplyError::Route(e) => write!(f, "update batch failed shard routing: {e}"),
            ApplyError::Meta(e) => write!(f, "meta WAL append failed: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Ingest(e) => Some(e),
            ApplyError::Snapshot(e) => Some(e),
            ApplyError::Group(e) => Some(e.as_ref()),
            ApplyError::LeaderDied => None,
            ApplyError::Route(e) => Some(e),
            ApplyError::Meta(e) => Some(e),
        }
    }
}
