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
//! [`crate::cache`]). [`Service::swap_sharded`] and
//! [`Service::swap_shard`] are the same install with another target.

use crate::admission::{BoundedQueue, PushError};
use crate::cache::{AnswerCache, CacheKey};
use crate::flight::{Flight, SingleFlight};
use crate::log::Logger;
use crate::request::{QueryError, QueryRequest, QueryResponse};
use crate::sharded::ShardedSnapshot;
use crate::snapshot::{IndexSnapshot, SnapshotError};
use crate::stats::{ServiceStats, StatsRegistry};
use bgi_check::sync::atomic::{AtomicU64, Ordering};
use bgi_check::sync::thread::{self, JoinHandle};
use bgi_check::sync::{PoisonError, RwLock};
use bgi_graph::VId;
use bgi_search::Budget;
use bgi_store::{Store, StoreError};
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

/// State shared between the service handle and its workers (and, for
/// its stats and log, the write path in `crate::write`).
pub(crate) struct Shared {
    snapshot: RwLock<Serving>,
    queue: BoundedQueue<Job>,
    cache: AnswerCache,
    flight: SingleFlight<CacheKey>,
    pub(crate) stats: StatsRegistry,
    pub(crate) log: Logger,
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
    pub(crate) shared: Arc<Shared>,
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
    /// other's shard); `None` changes nothing and returns `false`.
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
    /// background rebuild belongs to its [`crate::WriteHub`], which joins it
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
