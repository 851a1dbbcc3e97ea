//! One workload, start to finish, in this process: set up, then six
//! rounds — a share of the timed window, of the commits, and one more
//! set-up — with the correctness checks after the first, then the
//! recovery check, and — when traced — the per-layer probes and the
//! trace file.

use crate::deploy::{self, msg, BootTimes, BuildTimes, Built, Deployment, Res, ScratchDir};
use crate::direct::{scores, Direct};
use crate::drive::{self, Captured, ReadLog, ReadPlan, Walk, WriteLog, WriteShadow};
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::report::{in_catalogue_order, Metric, Outcome, END_TO_END, PER_LAYER};
use crate::spec::{
    self, Hierarchy, Spec, Topology, Window, BUILD_THREADS, LOAD_THREADS, READS_PER_COMMIT, ROUNDS,
    SCATTER_THREADS, SERVICE_WORKERS,
};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, sorted};
use crate::trace::{self, Tracer};
use crate::{layers, pool};
use bgi_bisim::BisimDirection;
use bgi_datasets::Dataset;
use bgi_ingest::IngestUpdate;
use bgi_search::Budget;
use bgi_service::{
    snapshot_from_build, IndexSnapshot, QueryRequest, ServiceStats, ShardedSnapshot,
};
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec};
use big_index::BiGIndex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updates generated for the mixed window: more than one client can
/// commit in the longest window the driver allows.
const WINDOW_UPDATES: usize = 60_000;
/// Updates the write-path probe consumes (1 warm + 32 single + 256).
const PROBE_UPDATES: usize = 289;
/// Pool requests whose served answers are compared with direct
/// evaluation.
const CHECKED_REQUESTS: usize = 32;
/// Layer-0 requests compared across restart and against a rebuild.
const RECOVERY_REQUESTS: usize = 16;
/// Spans written to a trace file at most (all are aggregated).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-window length.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans, trace file.
    pub trace: bool,
    /// Smoke mode: scaled-down inputs, output marked `"quick": true`.
    pub quick: bool,
    /// Where scratch stores and trace files go.
    pub out_dir: PathBuf,
}

/// Everything a run reports.
pub struct Report {
    /// Result line and table.
    pub outcome: Outcome,
    /// Workload fingerprint for (workload, seed).
    pub fingerprint: String,
    /// Free-form lines for the human reader (sample counts, failures).
    pub notes: Vec<String>,
}

/// What a workload feeds the program.
struct Inputs {
    ds: Dataset,
    pool: Vec<QueryRequest>,
    updates: Vec<IngestUpdate>,
}

/// Timings and sizes of one set-up.
#[derive(Clone, Copy, Default)]
struct SetUpFacts {
    build: BuildTimes,
    boot: BootTimes,
    /// `Some` on the set-up that saved the generation.
    save_s: Option<f64>,
    dup_factor: f64,
    /// Wall time of the set-up, the save excluded.
    total_s: f64,
}

/// One complete set-up: generate, build, (save,) boot from `store`,
/// generate the inputs, warm up. The generation is saved by the first
/// set-up of a run only — builds are deterministic, so the later ones
/// boot from a copy of identical bytes — and the save is timed on its own
/// (`store.save_ms`), outside `setup_s`: an fsynced 64 MB write to the
/// sandbox's virtual disk took anything from 0.11 s to 2.1 s (589 to
/// 31 MB/s), which would drown every other phase.
fn set_up(
    spec: &Spec,
    args: &Args,
    store: &Path,
    save: bool,
) -> Res<(Inputs, Deployment, SetUpFacts)> {
    let t0 = Instant::now();
    let ds = spec.graph.dataset().generate();
    let (built, build) = deploy::build(spec, &ds)?;
    let dup_factor = match &built {
        Built::Mono(_) => 0.0,
        Built::Sharded(plan, _) => {
            (0..plan.num_shards())
                .map(|s| plan.universe(s).len())
                .sum::<usize>() as f64
                / plan.num_vertices().max(1) as f64
        }
    };
    let save_s = if save {
        let t = Instant::now();
        deploy::save(&built, store)?;
        Some(t.elapsed().as_secs_f64())
    } else {
        None
    };
    drop(built);
    let pool = pool::request_pool(spec, &ds, args.seed);
    if pool.len() < spec.pool.div_ceil(2) {
        return Err(format!(
            "{}: generated only {} of {} requests",
            spec.name,
            pool.len(),
            spec.pool
        ));
    }
    let n_updates = match spec.window {
        Window::Mixed => WINDOW_UPDATES,
        _ => spec.write_burst,
    };
    let updates = pool::updates(&ds.graph, args.seed, n_updates);
    let (dep, boot) = Deployment::boot(spec, store, &pool[0])?;
    // Warm-up: one pass over the whole pool, so lazy r-clique ball rows
    // and the allocator's arenas exist before anything is timed.
    for request in &pool {
        dep.query(request.clone())?;
    }
    let facts = SetUpFacts {
        build,
        boot,
        save_s,
        dup_factor,
        total_s: t0.elapsed().as_secs_f64() - save_s.unwrap_or(0.0),
    };
    Ok((Inputs { ds, pool, updates }, dep, facts))
}

/// Service counters accumulated over the timed parts of a run (a fresh
/// service restarts them, so they are summed part by part).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidated: u64,
    coalesced: u64,
    served: u64,
    index_swaps: u64,
    ingest_rebuilds: u64,
    leg_sheds: u64,
}

impl Counters {
    fn add(&mut self, before: &ServiceStats, after: &ServiceStats) {
        let sheds = |s: &ServiceStats| s.per_shard.iter().map(|l| l.sheds).sum::<u64>();
        self.hits += after.cache.hits - before.cache.hits;
        self.misses += after.cache.misses - before.cache.misses;
        self.evictions += after.cache.evictions - before.cache.evictions;
        self.invalidated += after.cache.invalidated - before.cache.invalidated;
        self.coalesced += after.coalesced - before.coalesced;
        self.served += after.served - before.served;
        self.index_swaps += after.index_swaps - before.index_swaps;
        self.ingest_rebuilds += after.ingest_rebuilds - before.ingest_rebuilds;
        self.leg_sheds += sheds(after) - sheds(before);
    }
}

/// Rate and median latency of one timed slice.
#[derive(Debug, Clone, Copy)]
struct Slice {
    qps: f64,
    p50_us: f64,
}

/// What the timed parts of a run saw — all of them, or the traced ones.
#[derive(Default)]
struct Stretch {
    reads: ReadLog,
    writes: WriteLog,
    /// One entry per timed slice of reads.
    slices: Vec<Slice>,
    /// Seconds spent inside commit calls.
    write_s: f64,
    /// Restart-to-serving samples.
    restarts: Vec<BootTimes>,
    counters: Counters,
}

/// What the parts of one run share.
struct Ctx<'a> {
    spec: &'a Spec,
    seed: u64,
    inputs: &'a Inputs,
    /// A copy of the saved generation no commit is ever written to.
    pristine: &'a Path,
    walk: Walk<'a>,
}

/// One part of a window: where its operation ids start, who records it.
struct Part<'a> {
    seconds: f64,
    first_slice: usize,
    read_lane: Option<&'a mut Tracer>,
    write_lane: Option<&'a mut Tracer>,
    shadow: Option<&'a mut WriteShadow>,
}

fn slice_of(log: &ReadLog, seconds: f64) -> Slice {
    let us = to_us(&log.latencies_ns);
    Slice {
        qps: us.len() as f64 / seconds.max(f64::MIN_POSITIVE),
        p50_us: percentile_sorted(&us, 50.0).unwrap_or(0.0),
    }
}

/// Timed slices in `seconds`: about a second each.
fn slices_in(seconds: f64) -> usize {
    seconds.ceil().max(1.0) as usize
}

/// The closed-loop reader for `part.seconds`, in slices of about a
/// second; the run reports the median slice. Each slice gets a fresh
/// `Service` over the same snapshot (new worker threads, zeroed
/// counters) and an untimed pass over the pool to refill the cache and
/// the lazy r-clique rows a commit reset.
fn read_slices(
    ctx: &Ctx<'_>,
    plan: &ReadPlan<'_>,
    dep: &mut Deployment,
    mut part: Part<'_>,
    out: &mut Stretch,
) -> Res<()> {
    let slices = slices_in(part.seconds);
    for slice_no in 0..slices {
        dep.restart_service(ctx.spec)?;
        for request in &ctx.inputs.pool {
            dep.query(request.clone())?;
        }
        let before = dep.service.stats();
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(part.seconds / slices as f64);
        let log = drive::reader(
            dep,
            plan,
            &ctx.walk,
            drive::read_op_base(0, part.first_slice + slice_no),
            until,
            u64::MAX,
            part.read_lane.as_deref_mut(),
        );
        let took = started.elapsed().as_secs_f64();
        out.counters.add(&before, &dep.service.stats());
        out.slices.push(slice_of(&log, took));
        out.reads.absorb(log);
    }
    Ok(())
}

/// The mixed client for `part.seconds`, sliced like a read window: one
/// durable commit, then [`READS_PER_COMMIT`] reads, over and over.
/// `done` counts the updates consumed so far.
fn mixed_slices(
    ctx: &Ctx<'_>,
    plan: &ReadPlan<'_>,
    dep: &Deployment,
    mut part: Part<'_>,
    done: &mut usize,
    out: &mut Stretch,
) {
    let slices = slices_in(part.seconds);
    let updates = &ctx.inputs.updates;
    for slice_no in 0..slices {
        let first_op = drive::read_op_base(0, part.first_slice + slice_no);
        let before = dep.service.stats();
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(part.seconds / slices as f64);
        let mut reads = ReadLog::default();
        while Instant::now() < until && *done < updates.len() {
            let t = Instant::now();
            out.writes.absorb(drive::writer(
                dep,
                &updates[*done..*done + 1],
                *done as u64,
                ctx.seed,
                part.write_lane.as_deref_mut(),
                part.shadow.as_deref_mut(),
            ));
            out.write_s += t.elapsed().as_secs_f64();
            *done += 1;
            let after = drive::reader(
                dep,
                plan,
                &ctx.walk,
                first_op + reads.attempted,
                until,
                READS_PER_COMMIT,
                part.read_lane.as_deref_mut(),
            );
            reads.absorb(after);
        }
        out.slices
            .push(slice_of(&reads, started.elapsed().as_secs_f64()));
        out.counters.add(&before, &dep.service.stats());
        out.reads.absorb(reads);
    }
}

/// One client booting the saved generation over and over for `seconds`;
/// each boot ends with its first reply and is a `load_s` sample. The
/// boots read the pristine copy, beside the deployment that serves the
/// window, so what that one has committed since is not replayed.
fn restarts(
    ctx: &Ctx<'_>,
    seconds: f64,
    mut lane: Option<&mut Tracer>,
    out: &mut Stretch,
) -> Res<()> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < until {
        let boot = || Deployment::boot(ctx.spec, ctx.pristine, &ctx.inputs.pool[0]);
        let (fresh, times) = match lane.as_deref_mut() {
            Some(t) => {
                let op = 0xFFFE << 48 | out.restarts.len() as u64;
                t.span(op, None, "op.restart", boot).0?
            }
            None => boot()?,
        };
        drop(fresh);
        out.restarts.push(times);
    }
    Ok(())
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn to_us(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&n| n as f64 / 1e3).collect())
}

/// Tallies comparisons for the checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 12 {
                self.notes.push(format!("CHECK FAILED: {}", what()));
            }
        }
    }
}

/// Served replies against direct evaluation over the same index: exact
/// equality (same hierarchy, deterministic algorithms), and equality
/// with the unboosted baseline wherever layer 0 answered.
fn check_served_mono(
    tally: &mut Tally,
    direct: &Direct<'_>,
    pool: &[QueryRequest],
    captured: &BTreeMap<usize, Captured>,
) {
    for (&i, cap) in captured {
        let want = direct.query(&pool[i]);
        tally.expect(
            cap.answers == want.answers && cap.layer == want.layer,
            || format!("request {i}: served answers differ from Boosted::query"),
        );
        if cap.layer == 0 {
            tally.expect(cap.answers == direct.baseline(&pool[i]).0, || {
                format!("request {i}: layer-0 answers differ from the data-graph baseline")
            });
        }
    }
}

/// Sharded replies against the scatter–gather called directly (exact),
/// and — for requests pinned to layer 0, the one layer both deployments
/// evaluate on the same structure — against the monolithic index. Across
/// the two structures the top-k *scores* must agree and every answer
/// must be valid on the data graph; which of several equal-score
/// witnesses fills the last ranks legitimately differs (r-clique returns
/// the first k it proves optimal, not the k smallest identities).
fn check_served_sharded(
    tally: &mut Tally,
    sharded: &ShardedSnapshot,
    mono: &IndexSnapshot,
    pool: &[QueryRequest],
    captured: &BTreeMap<usize, Captured>,
) {
    let budget = Budget::unlimited();
    for (&i, cap) in captured {
        let direct = sharded.execute(&pool[i], &budget);
        tally.expect(
            direct.as_ref().is_ok_and(|d| d.answers == cap.answers),
            || format!("request {i}: served answers differ from ShardedSnapshot::execute"),
        );
        if pool[i].layer == Some(0) {
            let whole = mono.execute(&pool[i], &budget);
            tally.expect(
                whole
                    .as_ref()
                    .is_ok_and(|w| scores(&w.answers) == scores(&cap.answers)),
                || format!("request {i}: sharded layer-0 scores differ from the monolithic index"),
            );
            let g = mono.index().base();
            tally.expect(
                cap.answers.iter().all(|a| a.validate(g, &pool[i].keywords)),
                || format!("request {i}: a sharded answer is not valid on the data graph"),
            );
        }
    }
}

/// The monolithic index over a sharded workload's graph.
fn mono_reference(spec: &Spec, ds: &Dataset) -> Res<IndexSnapshot> {
    let ladder = Spec {
        hierarchy: Hierarchy::FullStep,
        ..spec.clone()
    };
    let index = deploy::build_hierarchy(&ladder, &ds.graph, ds);
    IndexSnapshot::from_bundle(deploy::build_bundle(index)).map_err(msg)
}

/// A 1-shard deployment of the same graph (empty halo).
fn one_shard_snapshot(spec: &Spec, ds: &Dataset, dmax_ceiling: u32) -> Res<Arc<ShardedSnapshot>> {
    let plan = ShardPlan::build(
        &ds.graph,
        &ShardSpec {
            shards: 1,
            dmax_ceiling,
            partition_block: 0,
        },
    )
    .map_err(msg)?;
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
    snapshot_from_build(Arc::new(plan), bundles, SCATTER_THREADS).map_err(msg)
}

/// Up to `want` distinct pool indices, seeded.
fn sample_indices(seed: u64, pool_len: usize, want: usize) -> Vec<usize> {
    use rand::SeedableRng;
    let mut all: Vec<usize> = (0..pool_len).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(pool::derive_seed(seed, pool::tag::SAMPLE));
    pool::shuffle(&mut all, &mut rng);
    all.truncate(want);
    all.sort_unstable();
    all
}

/// Layer-0 scores of the recovery sample, as the service serves them.
fn layer0_scores(dep: &Deployment, sample: &[QueryRequest]) -> Vec<Option<Vec<u64>>> {
    sample
        .iter()
        .map(|r| {
            dep.query(r.clone())
                .ok()
                .map(|reply| scores(&reply.answers))
        })
        .collect()
}

/// Runs `args.workload`.
pub fn run(args: &Args) -> Res<Report> {
    let spec = spec::spec(&args.workload, args.quick).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {:?})",
            args.workload,
            spec::NAMES
        )
    })?;
    std::fs::create_dir_all(&args.out_dir).map_err(msg)?;
    let mut notes: Vec<String> = Vec::new();
    let mut tally = Tally::default();

    // ---- set-up: the first one saves and serves the window ------------
    // The others, which only feed the medians of `setup_s` and `load_s`,
    // boot from a pristine copy of the saved bytes, one per round.
    let scratch = ScratchDir::new(&args.out_dir, spec.name)?;
    let store = scratch.path().join("store");
    let pristine = scratch.path().join("pristine");
    let write_store = scratch.path().join("write-store");
    let (inputs, mut dep, first) = set_up(&spec, args, &store, true)?;
    deploy::copy_tree(&store, &pristine)?;
    let mut facts = vec![first];
    // Before any commit: the saved generation plus empty logs.
    let store_bytes = deploy::dir_bytes(&store);
    let mono = spec.topology == Topology::Mono;
    let read_only = spec.window != Window::Mixed;

    // ---- what the program is about to be fed, hashed ------------------
    let sequence = pool::access_sequence(&spec, inputs.pool.len(), args.seed, 0);
    let fingerprint = {
        let mut f = Fingerprint::default();
        f.graph(&inputs.ds.graph);
        f.requests(&inputs.pool);
        f.updates(&inputs.updates);
        sequence.iter().for_each(|s| f.indices(s));
        f.hex()
    };
    if inputs.pool.len() < spec.pool {
        notes.push(format!(
            "pool holds {} of {} requested distinct requests",
            inputs.pool.len(),
            spec.pool
        ));
    }

    // ---- the run, round by round ---------------------------------------
    // Every round holds a share of the window, then of the commits, then
    // one more set-up. Replies are captured for the checks in the first
    // round only, before any commit changes the index they are checked
    // against.
    let mut capture = vec![false; inputs.pool.len()];
    if read_only {
        for i in sample_indices(args.seed, inputs.pool.len(), CHECKED_REQUESTS) {
            capture[i] = true;
        }
    }
    let no_capture = vec![false; inputs.pool.len()];
    let cursor = AtomicU64::new(0);
    let ctx = Ctx {
        spec: &spec,
        seed: args.seed,
        inputs: &inputs,
        pristine: &pristine,
        walk: match &sequence {
            Some(seq) => Walk::Sequence(seq),
            None => Walk::Cyclic(&cursor),
        },
    };
    let epoch = Instant::now();
    let (mut read_tracer, mut write_tracer) = (Tracer::new(epoch), Tracer::new(epoch));
    let mut shadow: Option<WriteShadow> = None;
    let (mut plain, mut traced) = (Stretch::default(), Stretch::default());
    let mut layer_metrics: Vec<Metric> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut updates_done = 0usize;
    // A read-only window's commits go to a deployment of their own,
    // booted from a second copy once peak memory has been read: the
    // reads must stay what they were. Committed to the serving
    // deployment, 240 single-op patches halved `query_cold`'s rate from
    // the first round to the last (8 550 → 3 970 replies/s).
    let mut write_dep: Option<Deployment> = None;
    let chunk = spec.write_burst / ROUNDS;
    let part_s = args.seconds / ROUNDS as f64;
    let read_s = match spec.window {
        Window::ReadsAndRestarts => part_s / 2.0,
        Window::Reads | Window::Mixed => part_s,
    };
    for round in 0..ROUNDS {
        // A traced run traces its second half.
        let tracing = args.trace && round >= ROUNDS / 2;
        if args.trace && round == ROUNDS / 2 {
            // From the state the untraced rounds' commits left.
            let written = write_dep.as_ref().unwrap_or(&dep);
            shadow = WriteShadow::new(written, &scratch.path().join("shadow-wal"))?;
        }
        // Direct evaluation over the index this round's reads are served
        // from, for the replays (the round's commits come after them).
        let served = (tracing && mono && read_only)
            .then(|| dep.service.snapshot())
            .flatten();
        let direct = served.as_ref().map(|s| Direct::new(s.index()));
        let plan = ReadPlan {
            pool: &inputs.pool,
            capture: if round == 0 { &capture } else { &no_capture },
            seed: args.seed,
            direct: direct.as_ref(),
        };
        let out = if tracing { &mut traced } else { &mut plain };
        let part = Part {
            seconds: read_s,
            first_slice: round * slices_in(read_s),
            read_lane: tracing.then_some(&mut read_tracer),
            write_lane: tracing.then_some(&mut write_tracer),
            shadow: shadow.as_mut().filter(|_| tracing),
        };
        match spec.window {
            Window::Reads | Window::ReadsAndRestarts => {
                read_slices(&ctx, &plan, &mut dep, part, out)?
            }
            Window::Mixed => mixed_slices(&ctx, &plan, &dep, part, &mut updates_done, out),
        }
        drop(direct);
        drop(served);

        if round == 0 {
            // One build, save, boot, warm-up and the first part of the
            // window: what a serving process goes through, and nothing
            // of the harness's resident yet.
            peak_rss_mb = vm_hwm_mib();
            let served = dep.service.snapshot();
            let sharded = dep.service.sharded();
            // ---- check: served answers == direct evaluation -----------
            let mono_ref = match (&sharded, read_only) {
                (Some(_), true) => Some(mono_reference(&spec, &inputs.ds)?),
                _ => None,
            };
            let direct = match (&served, read_only) {
                (Some(s), true) => Some(Direct::new(s.index())),
                _ => None,
            };
            let captured = &plain.reads.captured;
            if let Some(direct) = &direct {
                check_served_mono(&mut tally, direct, &inputs.pool, captured);
            }
            if let (Some(sharded), Some(mono_ref)) = (&sharded, &mono_ref) {
                check_served_sharded(&mut tally, sharded, mono_ref, &inputs.pool, captured);
            }
            if read_only {
                tally.expect(!captured.is_empty(), || {
                    "no reply was captured for checking".into()
                });
            }
            // ---- per-layer probes over the pre-write state ------------
            if args.trace {
                if let Some(direct) = &direct {
                    layer_metrics.extend(layers::search_and_core(direct, &inputs.pool));
                }
                if let Some(snapshot) = &served {
                    layer_metrics.extend(layers::service_direct(
                        &dep.service,
                        snapshot,
                        &inputs.pool,
                    ));
                }
                if let (Some(sharded), Some(mono_ref), Topology::Sharded { dmax_ceiling, .. }) =
                    (&sharded, &mono_ref, spec.topology)
                {
                    let one = one_shard_snapshot(&spec, &inputs.ds, dmax_ceiling)?;
                    let pinned: Vec<QueryRequest> = inputs
                        .pool
                        .iter()
                        .cloned()
                        .map(|mut r| {
                            r.layer = Some(0);
                            r
                        })
                        .collect();
                    layer_metrics.extend(layers::sharded(sharded, &one, mono_ref, &pinned));
                }
            }
        }

        if round == 0 && chunk > 0 {
            deploy::copy_tree(&pristine, &write_store)?;
            write_dep = Some(Deployment::boot(&spec, &write_store, &inputs.pool[0])?.0);
        }
        let out = if tracing { &mut traced } else { &mut plain };
        if spec.window == Window::ReadsAndRestarts {
            let lane = tracing.then_some(&mut read_tracer);
            restarts(&ctx, part_s - read_s, lane, out)?;
        }
        // ---- commits: the durable write path on every topology --------
        if let Some(written) = &write_dep {
            let before = written.service.stats();
            let t = Instant::now();
            let log = drive::writer(
                written,
                &inputs.updates[updates_done..updates_done + chunk],
                updates_done as u64,
                args.seed,
                tracing.then_some(&mut write_tracer),
                shadow.as_mut().filter(|_| tracing),
            );
            out.write_s += t.elapsed().as_secs_f64();
            out.counters.add(&before, &written.service.stats());
            out.writes.absorb(log);
            updates_done += chunk;
        }
        if facts.len() < spec.setup_reps {
            facts.push(set_up(&spec, args, &pristine, false)?.2);
        }
    }
    drop(shadow);
    let stats = dep.service.stats();

    // ---- did the workload do what its rationale says? -----------------
    // Cache counters cover a traced run's traced rounds.
    let counters = if args.trace {
        traced.counters
    } else {
        plain.counters
    };
    let (hits, misses) = (counters.hits, counters.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    tally.expect(
        hit_rate < spec.max_hit_rate && hit_rate > spec.min_hit_rate,
        || {
            format!(
                "cache hit rate {hit_rate:.4} outside ({}, {})",
                spec.min_hit_rate, spec.max_hit_rate
            )
        },
    );
    let ingest_rebuilds = plain.counters.ingest_rebuilds + traced.counters.ingest_rebuilds;
    tally.expect(ingest_rebuilds == 0, || {
        format!("{ingest_rebuilds} drift rebuild(s) fired")
    });
    let leg_sheds = plain.counters.leg_sheds + traced.counters.leg_sheds;
    tally.expect(leg_sheds == 0, || format!("{leg_sheds} shard leg(s) shed"));

    let Stretch {
        mut reads,
        mut writes,
        slices,
        write_s,
        mut restarts,
        ..
    } = plain;
    let median_slice = |slices: &[Slice], f: &dyn Fn(&Slice) -> f64| -> f64 {
        median(&slices.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let plain_qps = median_slice(&slices, &|s| s.qps);
    notes.push(format!(
        "slices, replies/s / median us: {}",
        slices
            .iter()
            .map(|s| format!("{:.0}/{:.1}", s.qps, s.p50_us))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut trace_overhead_pct = 0.0;
    if args.trace {
        let traced_qps = median_slice(&traced.slices, &|s| s.qps);
        trace_overhead_pct = 100.0 * (plain_qps - traced_qps) / plain_qps.max(f64::MIN_POSITIVE);
        // Latency and rate metrics of a traced run come from its
        // untraced rounds; counts from all of them.
        reads.attempted += traced.reads.attempted;
        reads.failed += traced.reads.failed;
        reads.failures.extend(traced.reads.failures);
        reads.replayed_ops = traced.reads.replayed_ops;
        let untraced = std::mem::take(&mut writes.latencies_ns);
        writes.absorb(traced.writes);
        writes.latencies_ns = untraced;
        restarts.extend(traced.restarts);
    }
    // The deployment the commits went to, and its store.
    let (live, store) = match write_dep {
        Some(written) => {
            drop(dep);
            (written, write_store)
        }
        None => (dep, store),
    };
    let wal_fsyncs = live.wal_fsyncs();
    let wal_bytes = deploy::wal_bytes(&store);
    let probe_bundle = args.trace.then(|| live.mono_bundle()).flatten();

    // ---- check: restart recovers every acknowledged commit ------------
    let sample: Vec<QueryRequest> = sample_indices(args.seed, inputs.pool.len(), RECOVERY_REQUESTS)
        .into_iter()
        .map(|i| {
            let mut r = inputs.pool[i].clone();
            r.layer = Some(0);
            r
        })
        .collect();
    let before_scores = layer0_scores(&live, &sample);
    let before_state = live.engine_states();
    drop(live);
    let (recovered, _) = Deployment::boot(&spec, &store, &inputs.pool[0])?;
    let after_state = recovered.engine_states();
    for (&s, &seq) in &writes.acked {
        tally.expect(after_state.get(s).is_some_and(|st| st.0 == seq), || {
            format!(
                "shard {s}: recovered WAL sequence {:?}, acknowledged {seq}",
                after_state.get(s).map(|st| st.0)
            )
        });
    }
    tally.expect(
        before_state.len() == after_state.len()
            && before_state
                .iter()
                .zip(&after_state)
                .all(|(b, a)| b.1 == a.1),
        || "recovered graph differs from the live one".into(),
    );
    let after_scores = layer0_scores(&recovered, &sample);
    for (i, (b, a)) in before_scores.iter().zip(&after_scores).enumerate() {
        tally.expect(b.is_some() && b == a, || {
            format!("recovery sample {i}: scores differ across restart")
        });
    }
    if let Some(bundle) = recovered.mono_bundle() {
        tally.expect(bundle.index.verify().is_clean(), || {
            "recovered index fails verify()".into()
        });
        // A from-scratch build over the final graph must score the
        // sample exactly as the incrementally maintained deployment.
        let scratch_index = BiGIndex::build_with_configs(
            bundle.index.base().clone(),
            inputs.ds.ontology.clone(),
            Vec::new(),
            BisimDirection::Forward,
        );
        let rebuilt = Direct::new(&scratch_index);
        for (i, (request, got)) in sample.iter().zip(&after_scores).enumerate() {
            let want = scores(&rebuilt.query(request).answers);
            tally.expect(got.as_ref() == Some(&want), || {
                format!("recovery sample {i}: scores differ from a from-scratch build")
            });
        }
    }

    // ---- write-path and construction probes (traced runs) -------------
    if args.trace {
        if let Some(bundle) = &probe_bundle {
            layer_metrics.extend(layers::construction(&spec, &inputs.ds, bundle));
            // Generated against the graph the probe engine starts from
            // (after a read-write window that is no longer the initial
            // one), so every op is valid in order.
            let ops = pool::updates(
                bundle.index.base(),
                pool::derive_seed(args.seed, 0x9B0B),
                PROBE_UPDATES,
            );
            layer_metrics.extend(layers::write_path(
                bundle,
                &ops,
                &scratch.path().join("probe-wal"),
            )?);
        }
    }
    drop(probe_bundle);
    drop(recovered);

    // ---- the numbers ----------------------------------------------------
    let read_us = to_us(&reads.latencies_ns);
    let write_us = to_us(&writes.latencies_ns);
    let attempted = reads.attempted + writes.attempted + restarts.len() as u64 + tally.attempted;
    let failed = reads.failed + writes.failed + tally.failed;
    notes.extend(reads.failures.iter().cloned());
    notes.extend(writes.failures.iter().cloned());
    notes.append(&mut tally.notes);
    notes.push(format!(
        "clients {LOAD_THREADS}, service workers {SERVICE_WORKERS}, scatter threads \
         {SCATTER_THREADS}, rounds {ROUNDS}"
    ));
    notes.push(format!(
        "queries {} (cache hit rate {hit_rate:.4}), commits {}, restarts {}, checks {}",
        read_us.len(),
        write_us.len(),
        restarts.len(),
        tally.attempted
    ));

    let med = |f: &dyn Fn(&SetUpFacts) -> f64| -> f64 {
        median(&facts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let save_s = facts.iter().find_map(|f| f.save_s).unwrap_or(0.0);
    notes.push(format!(
        "set-up phases, median s over {} set-up(s): build {:.3}, save {:.3} (once, not in \
         setup_s), boot {:.3}, dataset + pool + update stream + warm-up {:.3}",
        facts.len(),
        med(&|f| f.build.total_s()),
        save_s,
        med(&|f| f.boot.total_s),
        med(&|f| f.total_s - f.build.total_s() - f.boot.total_s),
    ));
    let elements = (inputs.ds.num_vertices() + inputs.ds.num_edges()).max(1) as f64;

    let metrics = if args.trace {
        let tail = highest_supported_percentile(read_us.len()).unwrap_or(50.0);
        let wtail = highest_supported_percentile(write_us.len()).unwrap_or(50.0);
        let layer_total =
            (writes.reused_layers + writes.patched_layers + writes.rebuilt_layers).max(1) as f64;
        let served_n = counters.served.max(1) as f64;
        let hit_us = to_us(&reads.hit_latencies_ns);
        let commits = (writes.attempted - writes.failed).max(1) as f64;
        let boots: Vec<BootTimes> = facts.iter().map(|f| f.boot).chain(restarts).collect();
        let boot_med = |f: &dyn Fn(&BootTimes) -> f64| -> f64 {
            median(&boots.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let n = facts.len();
        // Split timings `boot_sharded` does not expose count as absent.
        let mono_boots = if mono { boots.len() } else { 0 };
        layer_metrics.extend([
            Metric::new(
                "failed_frac",
                failed as f64 / attempted.max(1) as f64,
                attempted as usize,
            ),
            Metric::new("trace_overhead_pct", trace_overhead_pct, read_us.len()),
            // Median over the untraced slices' medians, like `query_qps`.
            Metric::new(
                "query_p50_us",
                median_slice(&slices, &|s| s.p50_us),
                slices.len(),
            ),
            Metric::new(
                "query_p99_us",
                percentile_sorted(&read_us, 99.0).unwrap_or(0.0),
                read_us.len(),
            ),
            Metric::new("query_tail_pct", tail, read_us.len()),
            Metric::new(
                "update_per_s",
                write_us.len() as f64 / write_s.max(f64::MIN_POSITIVE),
                write_us.len(),
            ),
            Metric::new(
                "update_tail_us",
                percentile_sorted(&write_us, wtail).unwrap_or(0.0),
                write_us.len(),
            ),
            Metric::new("update_tail_pct", wtail, write_us.len()),
            Metric::new("build_s", med(&|f| f.build.total_s()), n),
            Metric::new("load_s", boot_med(&|b| b.total_s), boots.len()),
            Metric::new("service.cache_hit_rate", hit_rate, (hits + misses) as usize),
            Metric::new("service.cache_evictions", counters.evictions as f64, 1),
            Metric::new("service.cache_invalidated", counters.invalidated as f64, 1),
            Metric::new(
                "service.cache_hit_us",
                median(&hit_us).unwrap_or(0.0),
                hit_us.len(),
            ),
            Metric::new(
                "service.coalesced_frac",
                counters.coalesced as f64 / served_n,
                served_n as usize,
            ),
            Metric::new("service.index_swaps", counters.index_swaps as f64, 1),
            Metric::new(
                "service.snapshot_from_bundle_ms",
                boot_med(&|b| b.from_bundle_s) * 1e3,
                mono_boots,
            ),
            Metric::new(
                "ingest.engine_start_ms",
                boot_med(&|b| b.engine_s) * 1e3,
                mono_boots,
            ),
            Metric::new(
                "ingest.reused_layers_frac",
                writes.reused_layers as f64 / layer_total,
                write_us.len(),
            ),
            Metric::new(
                "ingest.patched_layers_frac",
                writes.patched_layers as f64 / layer_total,
                write_us.len(),
            ),
            Metric::new(
                "ingest.rebuilt_layers_frac",
                writes.rebuilt_layers as f64 / layer_total,
                write_us.len(),
            ),
            Metric::new("ingest.rebuilds", ingest_rebuilds as f64, 1),
            Metric::new(
                "store.wal_fsyncs_per_commit",
                wal_fsyncs as f64 / commits,
                write_us.len(),
            ),
            Metric::new(
                "store.wal_bytes_per_update",
                wal_bytes as f64 / commits,
                write_us.len(),
            ),
            Metric::new("store.save_ms", save_s * 1e3, 1),
            Metric::new(
                "store.load_latest_ms",
                boot_med(&|b| b.load_latest_s) * 1e3,
                mono_boots,
            ),
            Metric::new("store.bytes_total", store_bytes as f64, 1),
            Metric::new(
                "store.layer_indexes_build_ms",
                med(&|f| f.build.layer_indexes_s) * 1e3,
                if mono { n } else { 0 },
            ),
            Metric::new(
                "harness.replayed_ops",
                (reads.replayed_ops.len() + writes.replayed_ops.len()) as f64,
                1,
            ),
        ]);
        if spec.hierarchy == Hierarchy::Algo1 {
            layer_metrics.push(Metric::new(
                "core.algo1_build_s",
                med(&|f| f.build.hierarchy_s),
                n,
            ));
        }
        if !mono {
            let p95: Vec<f64> = stats
                .per_shard
                .iter()
                .map(|l| l.p95.as_secs_f64() * 1e6)
                .collect();
            layer_metrics.extend([
                Metric::new("shard.plan_ms", med(&|f| f.build.plan_s) * 1e3, n),
                Metric::new(
                    "shard.build_bundles_s",
                    med(&|f| f.build.shard_bundles_s),
                    n,
                ),
                Metric::new("shard.dup_factor", first.dup_factor, 1),
                Metric::new(
                    "shard.leg_p95_us_max",
                    p95.iter().copied().fold(0.0, f64::max),
                    p95.len(),
                ),
                Metric::new(
                    "shard.leg_p95_us_min",
                    p95.iter().copied().fold(f64::INFINITY, f64::min),
                    p95.len(),
                ),
                Metric::new("shard.leg_sheds", leg_sheds as f64, p95.len()),
            ]);
        }
        // Where the median reply is a miss, what the service adds to a
        // bare execution; where it is a hit, the hit latency says that.
        if let Some(execute) = layer_metrics
            .iter()
            .find(|m| m.name == "service.execute_us" && hit_rate < 0.5)
            .map(|m| m.value)
        {
            layer_metrics.push(Metric::new(
                "service.dispatch_overhead_us",
                median_slice(&slices, &|s| s.p50_us) - execute,
                read_us.len(),
            ));
        }

        // ---- spans out ------------------------------------------------
        let spans = trace::merge(vec![read_tracer, write_tracer]);
        layer_metrics.push(Metric::new("harness.spans_recorded", spans.len() as f64, 1));
        let mut replayed = reads.replayed_ops.clone();
        replayed.extend(&writes.replayed_ops);
        let doc = Json::obj([
            ("workload", Json::Str(spec.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("quick", Json::Bool(args.quick)),
            (
                "per_layer",
                Json::obj(layer_metrics.iter().map(|m| (m.name, Json::Num(m.value)))),
            ),
            (
                "trace",
                trace::to_json(&spans, &replayed, MAX_SPANS_WRITTEN),
            ),
        ]);
        let path = args.out_dir.join(format!("trace_{}.json", spec.name));
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
        in_catalogue_order(PER_LAYER.iter().map(|m| m.0), layer_metrics)?
    } else {
        let e2e = vec![
            Metric::new("setup_s", med(&|f| f.total_s), facts.len()),
            // Medians over the window's slices (see `read_slices`).
            Metric::new("query_qps", plain_qps, slices.len()),
            Metric::new(
                "update_p50_us",
                percentile_sorted(&write_us, 50.0).unwrap_or(0.0),
                write_us.len(),
            ),
            Metric::new("store_bytes_per_elem", store_bytes as f64 / elements, 1),
            Metric::new("peak_rss_mb", peak_rss_mb, 1),
        ];
        in_catalogue_order(END_TO_END.iter().map(|m| m.name), e2e)?
    };

    Ok(Report {
        outcome: Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        fingerprint,
        notes,
    })
}
