//! The serving engine: a worker pool over a shared index snapshot.
//!
//! [`Service`] owns everything the pipeline needs — the admission
//! queue, the answer cache, the stats registry, and an `Arc`-swappable
//! [`IndexSnapshot`] — plus a fixed pool of `std::thread` workers.
//! Submission is non-blocking ([`Service::submit`] returns a reply
//! channel or a typed rejection); [`Service::query`] is the blocking
//! convenience wrapper.
//!
//! ## Deadlines
//!
//! A request's deadline is measured from *submission*: the
//! `bgi_search::Budget` handed to the executing worker is anchored at
//! the enqueue instant, so time spent waiting in the admission queue
//! burns deadline too. A request whose deadline expires before a
//! worker picks it up — including the degenerate 0 ms deadline — gets
//! a [`QueryError::Timeout`] response without ever touching the index.
//!
//! ## Snapshot swaps
//!
//! [`Service::swap_snapshot`] installs a new verified snapshot for all
//! subsequent queries, then invalidates the answer cache. In-flight
//! queries finish against the snapshot they started with (their `Arc`
//! keeps it alive); their results are *not* cached, because the cache
//! generation they captured at start no longer matches (see
//! [`crate::cache`]).

use crate::admission::{BoundedQueue, PushError};
use crate::cache::{AnswerCache, CacheKey};
use crate::flight::{Flight, SingleFlight};
use crate::log::Logger;
use crate::request::{QueryError, QueryRequest, QueryResponse};
use crate::sharded::{ShardedBootError, ShardedSnapshot, ShardedWriteHub};
use crate::snapshot::IndexSnapshot;
use crate::snapshot::SnapshotError;
use crate::stats::{ServiceStats, StatsRegistry};
use bgi_check::sync::atomic::{AtomicU64, Ordering};
use bgi_check::sync::thread::{self, JoinHandle};
use bgi_check::sync::{Mutex, PoisonError, RwLock};
use bgi_graph::VId;
use bgi_ingest::{ApplyOutcome, Engine, EngineConfig, IngestError, IngestUpdate};
use bgi_search::Budget;
use bgi_shard::{RouteError, RoutedBatch, ShardRouter, ShardStoreError, ShardedStore};
use bgi_store::{CommitQueue, IndexBundle, Store, StoreError};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing and policy knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission queue depth; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Answer-cache shard count.
    pub cache_shards: usize,
    /// Answer-cache total capacity (entries).
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// The overload degradation ladder; `None` disables it (budgets
    /// are never shrunk).
    pub degradation: Option<DegradationPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
            queue_capacity: 256,
            cache_shards: 8,
            cache_capacity: 1024,
            default_deadline: None,
            degradation: Some(DegradationPolicy::default()),
        }
    }
}

/// When and how far the service trades answer quality for queue drain
/// under sustained overload.
///
/// The ladder watches admission-queue occupancy at every submission.
/// Once the queue has been at least `pressure_threshold` full for
/// `sustain` consecutive submissions, workers shrink each deadline-
/// carrying request's execution budget by `budget_shrink` (never below
/// `floor`) until the pressure streak breaks. Shrunk budgets make the
/// anytime search return earlier best-effort answers, which drains the
/// queue instead of letting every queued request time out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Queue occupancy (`len / capacity`, in `[0, 1]`) that counts as
    /// pressure.
    pub pressure_threshold: f64,
    /// Consecutive pressured submissions before budgets shrink.
    pub sustain: u64,
    /// Multiplier applied to the effective deadline while degraded.
    pub budget_shrink: f64,
    /// Shrunk deadlines never drop below this.
    pub floor: Duration,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            pressure_threshold: 0.75,
            sustain: 32,
            budget_shrink: 0.5,
            floor: Duration::from_millis(2),
        }
    }
}

/// One queued unit of work: the request, its submission instant (the
/// deadline anchor), and where to send the outcome.
struct Job {
    request: QueryRequest,
    submitted: Instant,
    reply: mpsc::Sender<Result<QueryResponse, QueryError>>,
}

/// What the workers execute queries against: one monolithic snapshot,
/// or a sharded deployment's scatter–gather snapshot.
#[derive(Clone)]
enum Serving {
    /// A single whole-graph [`IndexSnapshot`].
    Mono(Arc<IndexSnapshot>),
    /// One snapshot per shard behind [`ShardedSnapshot`]'s merge.
    Sharded(Arc<ShardedSnapshot>),
}

/// State shared between the service handle and its workers.
struct Shared {
    snapshot: RwLock<Serving>,
    queue: BoundedQueue<Job>,
    cache: AnswerCache,
    flight: SingleFlight<CacheKey>,
    stats: StatsRegistry,
    log: Logger,
    default_deadline: Option<Duration>,
    degradation: Option<DegradationPolicy>,
    queue_capacity: usize,
    workers: usize,
    /// Consecutive submissions that found the queue above the pressure
    /// threshold (reset on any relaxed submission). Workers read it to
    /// decide whether the degradation ladder is engaged.
    pressure_streak: AtomicU64,
    /// Jobs currently being executed by a worker (not queued ones);
    /// [`Service::drain`] waits for this to hit zero.
    active: AtomicU64,
}

impl Shared {
    fn current_serving(&self) -> Serving {
        self.snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Updates the sustained-pressure streak from the current queue
    /// occupancy. Called on every submission (admitted or shed).
    fn track_pressure(&self) {
        let Some(policy) = self.degradation.as_ref() else {
            return;
        };
        let occupancy = self.queue.len() as f64 / self.queue_capacity as f64;
        if occupancy >= policy.pressure_threshold {
            // relaxed: advisory streak counter; a racing submission
            // moves ladder engagement by at most one submission.
            self.pressure_streak.fetch_add(1, Ordering::Relaxed);
        } else {
            // relaxed: same advisory counter, reset on calm occupancy.
            self.pressure_streak.store(0, Ordering::Relaxed);
        }
    }

    /// Server-estimated queue drain time: the served-latency median
    /// times the queued-requests-per-worker depth, capped so a client
    /// backoff never stalls long after the spike clears.
    fn retry_after_hint(&self) -> Duration {
        const MIN_HINT: Duration = Duration::from_micros(50);
        const MAX_HINT: Duration = Duration::from_millis(100);
        let p50 = self.stats.snapshot().p50.max(MIN_HINT);
        let waves = self.queue.len().div_ceil(self.workers).max(1) as u32;
        p50.saturating_mul(waves).min(MAX_HINT)
    }

    /// The worker loop body for one job.
    fn serve(&self, job: Job) {
        let hard_deadline = job
            .request
            .deadline
            .or(self.default_deadline)
            .map(|d| job.submitted + d);
        // Deadline may have burned away in the queue (or be 0 to begin
        // with): answer Timeout without touching the index. The *soft*
        // deadline is anchored at execution start below, so queue wait
        // never pre-expires it.
        if let Some(dl) = hard_deadline {
            if Budget::with_deadline(dl).is_exhausted_now() {
                self.stats.record_timeout();
                let _ = job.reply.send(Err(QueryError::Timeout));
                return;
            }
        }
        // Degradation ladder: under sustained queue pressure, shrink
        // the remaining execution budget so the anytime search returns
        // earlier best-effort answers and the queue drains.
        let degraded = self.degradation.as_ref().filter(|p| {
            // relaxed: advisory pressure signal; off-by-a-few is fine.
            self.pressure_streak.load(Ordering::Relaxed) >= p.sustain
        });
        let shrink = |d: Duration| -> Duration {
            match degraded {
                Some(p) => d
                    .mul_f64(p.budget_shrink.clamp(0.0, 1.0))
                    .max(p.floor)
                    .min(d),
                None => d,
            }
        };
        let now = Instant::now();
        let hard_exec = hard_deadline.map(|dl| now + shrink(dl.saturating_duration_since(now)));
        // The soft deadline anchors here, at execution start.
        let soft_exec = job.request.soft_deadline.map(|d| now + shrink(d));
        let exec_deadline = match (hard_exec, soft_exec) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        };
        if degraded.is_some() && exec_deadline.is_some() {
            self.stats.record_degraded_budget();
        }
        let budget = match exec_deadline {
            Some(dl) => Budget::with_deadline(dl),
            None => Budget::unlimited(),
        };
        let deadline = hard_deadline;
        let key = CacheKey::of(&job.request);
        // Cache-check / leader-election loop: a miss elects a single
        // leader per key (crate::flight); coalesced waiters re-check
        // the cache once the leader is done instead of recomputing.
        let mut waited = false;
        let generation = loop {
            // Generation *before* snapshot: see crate::cache for why
            // this order makes a concurrent swap unable to strand a
            // stale entry.
            let generation = self.cache.generation();
            if let Some(hit) = self.cache.get(&key) {
                if waited {
                    self.stats.record_coalesced();
                }
                let latency = job.submitted.elapsed();
                self.stats.record_served(
                    job.request.semantics,
                    latency,
                    hit.fell_back,
                    hit.completeness,
                );
                let _ = job.reply.send(Ok(QueryResponse {
                    answers: hit.answers.clone(),
                    layer: hit.layer,
                    fell_back: hit.fell_back,
                    cache_hit: true,
                    latency,
                    completeness: hit.completeness,
                }));
                return;
            }
            match self.flight.join(&key, deadline) {
                Flight::Leader => break generation,
                // A leader just finished this key: re-read the cache.
                // If the leader failed (or its insert went stale under
                // a swap), the re-read misses and we join again.
                Flight::Coalesced => waited = true,
                Flight::TimedOut => {
                    self.stats.record_timeout();
                    let _ = job.reply.send(Err(QueryError::Timeout));
                    return;
                }
            }
        };
        let result = match self.current_serving() {
            Serving::Mono(snapshot) => snapshot.execute(&job.request, &budget),
            Serving::Sharded(snapshot) => {
                snapshot.execute_observed(&job.request, &budget, Some(&self.stats))
            }
        };
        match result {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                // Insert *before* leaving the flight, so a woken
                // follower's cache re-read finds the entry instead of
                // electing itself leader and recomputing. Only *exact*
                // outcomes are cacheable: a best-effort set is an
                // artifact of one request's budget, and serving it to a
                // later, unhurried query would silently degrade it.
                if outcome.completeness.is_exact() {
                    self.cache
                        .insert_at(generation, key.clone(), Arc::clone(&outcome));
                }
                self.flight.leave(&key);
                let latency = job.submitted.elapsed();
                self.stats.record_served(
                    job.request.semantics,
                    latency,
                    outcome.fell_back,
                    outcome.completeness,
                );
                let _ = job.reply.send(Ok(QueryResponse {
                    answers: outcome.answers.clone(),
                    layer: outcome.layer,
                    fell_back: outcome.fell_back,
                    cache_hit: false,
                    latency,
                    completeness: outcome.completeness,
                }));
            }
            Err(err) => {
                // Nothing to insert, but the key must still be
                // released so waiters can retry (and likely become the
                // next leader) instead of stalling.
                self.flight.leave(&key);
                match err {
                    QueryError::Timeout => self.stats.record_timeout(),
                    _ => self.stats.record_invalid(),
                }
                self.log
                    .line(&format!("query refused ({}): {err}", job.request.semantics));
                let _ = job.reply.send(Err(err));
            }
        }
    }
}

/// A running query-serving engine. Dropping it shuts the pool down
/// (pending requests get [`QueryError::Shutdown`]).
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts `config.workers` threads serving `snapshot`. Taking an
    /// `Arc` lets callers keep (or share) a handle to the same
    /// immutable snapshot — e.g. several services over one index.
    pub fn start(snapshot: Arc<IndexSnapshot>, config: ServiceConfig) -> Service {
        Self::start_with_logger(snapshot, config, Logger::disabled())
    }

    /// [`Service::start`] with diagnostics routed to `log`.
    pub fn start_with_logger(
        snapshot: Arc<IndexSnapshot>,
        config: ServiceConfig,
        log: Logger,
    ) -> Service {
        Self::start_serving(Serving::Mono(snapshot), StatsRegistry::new(), config, log)
    }

    /// Starts the pool serving a sharded deployment: each query is
    /// scatter–gathered across `snapshot`'s shards (see
    /// [`ShardedSnapshot`]) and the stats registry carries one
    /// per-shard lane.
    pub fn start_sharded(snapshot: Arc<ShardedSnapshot>, config: ServiceConfig) -> Service {
        Self::start_sharded_with_logger(snapshot, config, Logger::disabled())
    }

    /// [`Service::start_sharded`] with diagnostics routed to `log`.
    pub fn start_sharded_with_logger(
        snapshot: Arc<ShardedSnapshot>,
        config: ServiceConfig,
        log: Logger,
    ) -> Service {
        let lanes = snapshot.num_shards();
        Self::start_serving(
            Serving::Sharded(snapshot),
            StatsRegistry::with_shards(lanes),
            config,
            log,
        )
    }

    fn start_serving(
        serving: Serving,
        stats: StatsRegistry,
        config: ServiceConfig,
        log: Logger,
    ) -> Service {
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(serving),
            queue: BoundedQueue::new(config.queue_capacity),
            cache: AnswerCache::new(config.cache_shards, config.cache_capacity),
            flight: SingleFlight::new(),
            stats,
            log,
            default_deadline: config.default_deadline,
            degradation: config.degradation,
            queue_capacity: config.queue_capacity.max(1),
            workers: config.workers.max(1),
            pressure_streak: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        shared.active.fetch_add(1, Ordering::AcqRel);
                        shared.serve(job);
                        shared.active.fetch_sub(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        Service { shared, workers }
    }

    /// Submits `request` without blocking. On admission the reply
    /// channel eventually yields exactly one result; a full queue sheds
    /// the request with [`QueryError::Overloaded`] instead.
    pub fn submit(
        &self,
        request: QueryRequest,
    ) -> Result<mpsc::Receiver<Result<QueryResponse, QueryError>>, QueryError> {
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            submitted: Instant::now(),
            reply,
        };
        match self.shared.queue.push(job) {
            Ok(()) => {
                self.shared.track_pressure();
                Ok(rx)
            }
            Err(PushError::Full) => {
                self.shared.track_pressure();
                self.shared.stats.record_overloaded();
                Err(QueryError::Overloaded {
                    retry_after_hint: self.shared.retry_after_hint(),
                })
            }
            Err(PushError::Closed) => Err(QueryError::Shutdown),
        }
    }

    /// Submits and waits for the response.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, QueryError> {
        let rx = self.submit(request)?;
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(QueryError::Shutdown),
        }
    }

    /// Installs a new snapshot for all subsequent queries and
    /// invalidates the answer cache. In-flight queries complete
    /// against the snapshot they started with. Switches a sharded
    /// service back to monolithic serving.
    pub fn swap_snapshot(&self, snapshot: Arc<IndexSnapshot>) {
        self.install("index snapshot", |_| Some(Serving::Mono(snapshot)));
    }

    /// Installs a whole sharded snapshot (all shards at once) and
    /// invalidates the answer cache, with the same in-flight semantics
    /// as [`Service::swap_snapshot`].
    pub fn swap_sharded(&self, snapshot: Arc<ShardedSnapshot>) {
        self.install("sharded snapshot", |_| Some(Serving::Sharded(snapshot)));
    }

    /// Replaces one shard of the currently served sharded snapshot —
    /// the shard-local swap unit behind per-shard ingest and recovery.
    /// Returns `false` (and changes nothing) when the service is not in
    /// sharded mode.
    pub fn swap_shard(&self, s: usize, snapshot: Arc<IndexSnapshot>, map: Arc<Vec<VId>>) -> bool {
        self.install(&format!("shard {s} snapshot"), |serving| match serving {
            Serving::Sharded(current) => Some(Serving::Sharded(Arc::new(
                current.with_shard(s, snapshot, map),
            ))),
            Serving::Mono(_) => None,
        })
    }

    /// The one snapshot install behind every swap. `replace` computes
    /// the next serving state from the current one *inside* the write
    /// lock (so two concurrent single-shard swaps can never lose each
    /// other's shard); `None` leaves everything untouched and returns
    /// `false`.
    fn install(&self, what: &str, replace: impl FnOnce(&Serving) -> Option<Serving>) -> bool {
        {
            let mut guard = self
                .shared
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(next) = replace(&guard) else {
                return false;
            };
            *guard = next;
        }
        // Snapshot first, then invalidate: a worker that cached its
        // generation before this bump can no longer insert.
        self.shared.cache.invalidate_all();
        self.shared.stats.record_swap();
        self.shared
            .log
            .line(&format!("{what} swapped; cache invalidated"));
        true
    }

    /// Hot-reloads the index from `store`, gated on recovery and
    /// verification: the newest complete generation is loaded, verified
    /// (twice — the store's own gate plus the snapshot's), and only then
    /// swapped in. On *any* failure — no loadable generation, I/O,
    /// corruption, verification — the running snapshot keeps serving
    /// untouched and the rollback is counted in
    /// [`ServiceStats::reload_rollbacks`]: degraded-but-serving, never
    /// down.
    ///
    /// Returns the generation number now being served.
    pub fn reload_from_disk(&self, store: &Store) -> Result<u64, ReloadError> {
        let attempt =
            store
                .load_latest()
                .map_err(ReloadError::Store)
                .and_then(|(generation, bundle)| {
                    IndexSnapshot::from_bundle(bundle)
                        .map(|snapshot| (generation, snapshot))
                        .map_err(ReloadError::Snapshot)
                });
        match attempt {
            Ok((generation, snapshot)) => {
                self.swap_snapshot(Arc::new(snapshot));
                self.shared.stats.record_reload();
                self.shared
                    .log
                    .line(&format!("reloaded index generation {generation} from disk"));
                Ok(generation)
            }
            Err(err) => {
                self.shared.stats.record_reload_rollback();
                self.shared.log.line(&format!(
                    "reload failed ({err}); rolled back to the running snapshot"
                ));
                Err(err)
            }
        }
    }

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
    /// single-op writers this turns 16 fsyncs into a handful. A lone
    /// writer is a group of one and never waits in the queue.
    ///
    /// When the staleness tracker recommends a full rebuild, the
    /// from-scratch construction runs on a **background thread** owned
    /// by the hub (`Engine::start_rebuild` captures the inputs; updates
    /// keep applying and are buffered as a delta) — the write path
    /// never blocks on it. The finished rebuild is adopted — delta
    /// replayed, snapshot swapped — by the next commit that finds it
    /// done, or by an explicit [`Service::poll_rebuild`]. At most one
    /// rebuild per hub is in flight at a time, and a result whose
    /// engine epoch has gone away (e.g. the engine was replaced by one
    /// recovered from the store) is discarded, not adopted.
    ///
    /// Queries keep serving the old snapshot for the whole duration —
    /// including during a rebuild — and only ever see the new state
    /// atomically via [`Service::swap_snapshot`] (which also
    /// invalidates the answer cache, so no stale answers survive the
    /// swap).
    ///
    /// Failure semantics: a whole-group failure (validation, WAL I/O,
    /// snapshot admission) is delivered to every caller in the group as
    /// [`ApplyError::Group`] sharing the underlying cause. After a
    /// refused snapshot the old one keeps serving; the engine state
    /// *has* advanced (and is WAL-recoverable), so the caller decides
    /// between retrying the materialization and restarting from the
    /// store. A leader that *panics* mid-cycle yields
    /// [`ApplyError::LeaderDied`] for the batches it had drained —
    /// their commit outcome is unknown, exactly like a client losing
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
        let RoutedBatch {
            per_shard: shares,
            assigned,
            ..
        } = routed;
        let per_shard = shares
            .into_iter()
            .enumerate()
            .map(|(s, share)| {
                let target = InstallTarget::Shard(s, &hub.router);
                (!share.is_empty()).then(|| self.commit(&hub.hubs[s], target, share))
            })
            .collect();
        Ok(ShardedApplyReport {
            per_shard,
            assigned,
        })
    }

    /// One caller's trip through `hub`'s commit queue: its batch is
    /// committed by whichever caller leads the group it lands in.
    fn commit(
        &self,
        hub: &WriteHub,
        target: InstallTarget<'_>,
        updates: Vec<IngestUpdate>,
    ) -> Result<ApplyReport, ApplyError> {
        match hub
            .queue
            .commit(updates, |batches| self.lead_group(hub, target, &batches))
        {
            Some(Ok(report)) => Ok(report),
            Some(Err(shared)) => Err(ApplyError::Group(shared)),
            None => Err(ApplyError::LeaderDied),
        }
    }

    /// Leads one commit cycle: takes the hub's lock, commits the drained
    /// group, and hands every batch its report — or all of them the one
    /// shared error.
    fn lead_group(
        &self,
        hub: &WriteHub,
        target: InstallTarget<'_>,
        batches: &[Vec<IngestUpdate>],
    ) -> Vec<Result<ApplyReport, Arc<ApplyError>>> {
        let mut state = hub.state.lock().unwrap_or_else(PoisonError::into_inner);
        match self.commit_group(&mut state, target, batches) {
            Ok(reports) => reports.into_iter().map(Ok).collect(),
            Err(err) => {
                let shared = Arc::new(err);
                batches.iter().map(|_| Err(Arc::clone(&shared))).collect()
            }
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
        // bookkeeping and the snapshot clone + swap.
        let (rebuilt, rebuild_started) = if batches.iter().all(Vec::is_empty) {
            (false, false)
        } else {
            let rebuilt = self.adopt_finished_rebuild(state, target)?;
            let rebuild_started = self.maybe_start_rebuild(state, target);
            self.serve_engine_state(&state.engine, target)?;
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

    /// Builds a snapshot of the engine's current bundle and installs it
    /// at `target`. A bundle that fails snapshot admission is counted
    /// as a rollback and the previous snapshot keeps serving.
    fn serve_engine_state(
        &self,
        engine: &Engine,
        target: InstallTarget<'_>,
    ) -> Result<(), ApplyError> {
        let snapshot = match IndexSnapshot::from_bundle(engine.bundle().clone()) {
            Ok(snapshot) => Arc::new(snapshot),
            Err(err) => {
                self.shared.stats.record_ingest_rollback();
                self.shared.log.line(&format!(
                    "{target}: engine state refused at snapshot admission ({err}); \
                     previous snapshot keeps serving"
                ));
                return Err(ApplyError::Snapshot(err));
            }
        };
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
        let snapshot = IndexSnapshot::from_bundle(engine.bundle().clone())
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
        let handle = match state.rebuild.0.take() {
            Some(handle) if handle.is_finished() => handle,
            unfinished => {
                state.rebuild.0 = unfinished;
                return Ok(false);
            }
        };
        let Ok(bundle) = handle.join() else {
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

    /// The monolithic snapshot queries currently run against, or
    /// `None` when the service is serving a sharded deployment.
    pub fn snapshot(&self) -> Option<Arc<IndexSnapshot>> {
        match self.shared.current_serving() {
            Serving::Mono(s) => Some(s),
            Serving::Sharded(_) => None,
        }
    }

    /// The sharded snapshot queries currently run against, or `None`
    /// when the service is serving a single monolithic snapshot.
    pub fn sharded(&self) -> Option<Arc<ShardedSnapshot>> {
        match self.shared.current_serving() {
            Serving::Mono(_) => None,
            Serving::Sharded(s) => Some(s),
        }
    }

    /// Jobs currently executing on a worker (queued jobs not included).
    pub fn active_jobs(&self) -> u64 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Point-in-time service statistics (counters, latency
    /// percentiles, cache health).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.stats.snapshot();
        stats.cache = self.shared.cache.stats();
        stats
    }

    /// Current admission-queue depth (for monitoring and tests).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stops admitting new work, then waits up to
    /// `grace` for the queue to empty and every in-flight query to
    /// finish (each bounded by its own deadline). Whatever is still
    /// queued when the grace period expires is failed with
    /// [`QueryError::Shutdown`]; workers are then joined.
    ///
    /// Returns `true` when everything drained inside the grace period.
    pub fn drain(&mut self, grace: Duration) -> bool {
        self.shared.queue.close();
        let deadline = Instant::now() + grace;
        let drained = loop {
            if self.shared.queue.is_empty() && self.active_jobs() == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            thread::sleep(Duration::from_millis(1));
        };
        self.shutdown();
        drained
    }

    /// Stops accepting work, fails whatever is still queued with
    /// [`QueryError::Shutdown`], and joins the workers. Idempotent. (A
    /// background rebuild belongs to its [`WriteHub`], which joins it
    /// when dropped.)
    pub fn shutdown(&mut self) {
        for job in self.shared.queue.close_and_drain() {
            let _ = job.reply.send(Err(QueryError::Shutdown));
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

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

/// Why a [`Service::reload_from_disk`] left the old snapshot serving.
#[derive(Debug)]
pub enum ReloadError {
    /// The store produced no loadable generation (empty, all corrupt,
    /// or persistent I/O failure after retries).
    Store(StoreError),
    /// The loaded bundle failed snapshot admission (dirty hierarchy or
    /// layer-coverage mismatch).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Store(e) => write!(f, "store recovery failed: {e}"),
            ReloadError::Snapshot(e) => write!(f, "loaded bundle refused: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Store(e) => Some(e),
            ReloadError::Snapshot(e) => Some(e),
        }
    }
}
