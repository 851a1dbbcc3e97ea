//! `bgi` — command-line front end for the BiG-index reproduction.
//!
//! ```text
//! bgi gen <yago|dbpedia|imdb|synt> <scale> <dir> [--seed S] [--updates N]   generate + save a dataset
//! bgi stats <dir>                                  dataset statistics
//! bgi build <dir> [layers] [--build-threads N]     build the index, print layer sizes
//!           [--hierarchy full-step|algo1]          ... with full-step configurations (default) or Algo. 1
//! bgi workload <dir>                               print the Q1-Q8 workload
//! bgi query <dir> <kw1,kw2,...> [dmax] [k]         run a boosted BLINKS query
//! bgi verify <dir> [layers]                        build, then check every index invariant
//! bgi batch <dir> [--threads N] [--repeat R]       replay the workload through bgi-service
//! bgi serve <dir> [--threads N] [--tcp ADDR]       serve queries line-by-line (stdio or TCP)
//! bgi ingest <dir> --updates <file> [--batch N]    stream updates through the live-update engine
//! bgi save-index <dir> <store> [--layers L]        build the index once, persist it crash-safely
//!                               [--shards N]       ... as N shard hierarchies under one root
//! bgi load-index <store>                           recover + verify, skipping construction
//! bgi reload <store>                               dry-run recovery check (what would serve?)
//! ```
//!
//! Construction commands (`build`, `save-index`, `serve`, `batch`) take
//! `--build-threads N` to fan the parallelizable build stages — the
//! per-layer BANKS/r-clique index builds and, on `save-index`,
//! the store's section encodes — over N scoped workers. Every thread
//! count produces a byte-identical result (DESIGN.md §8); `--threads`
//! on `serve`/`batch` stays the *query worker* count, a different pool.
//!
//! `bgi serve <dir> --store <store>` boots from the persisted index
//! instead of rebuilding, replaying any WAL tail left by a crash. Its
//! line protocol is the same for every topology: a query line,
//! `update <op>` (buffers `insert <u> <v>` / `delete <u> <v>` /
//! `addv <label>`), `flush` (commits the buffer through the service's
//! write path — WAL-logged with `--store` — and swaps the refreshed
//! snapshot in), `checkpoint` (persists a new generation and truncates
//! the WAL), `reload` (hot-swaps to the newest on-disk generation,
//! rolling back to the running snapshot if recovery or verification
//! fails; monolithic stores only), `stats`, `quit`.
//!
//! **Sharded mode** (DESIGN.md §14): `save-index --shards N` cuts the
//! graph with the BFS-grown partitioner and persists one independent
//! hierarchy per shard; `serve` auto-detects a sharded root (or takes
//! `--shards N` to build one in memory) and answers every query by
//! scatter–gather over the shard snapshots; `batch --shards N` replays
//! the workload against an in-memory sharded deployment. Sharded
//! requests must keep `dmax` at or below the partition's halo ceiling
//! (`--dmax-ceiling`, default 4).

use bgi_datasets::{benchmark_queries, persist, update_stream, Dataset, DatasetSpec, UpdateMix};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate};
use bgi_search::blinks::{Blinks, BlinksParams};
use bgi_search::{KeywordQuery, RClique};
use bgi_service::{
    boot_sharded, run_batch, snapshot_from_build, IndexSnapshot, QueryError, QueryRequest,
    Semantics, Service, ServiceConfig, ShardedWriteHub, WriteHub,
};
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec, ShardedStore};
use bgi_store::{IndexBundle, Store};
use big_index::heuristic::Algo1Work;
use big_index::{BiGIndex, Boosted, BuildParams, EvalOptions};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("save-index") => cmd_save_index(&args[1..]),
        Some("load-index") => cmd_load_index(&args[1..]),
        Some("reload") => cmd_reload(&args[1..]),
        _ => {
            eprintln!(
                "usage: bgi <gen|stats|build|workload|query|verify|batch|serve|ingest|save-index|load-index|reload> ...\n\
                 \n\
                 bgi gen <yago|dbpedia|imdb|synt> <scale> <dir> [--seed S] [--updates N] [--update-seed S]\n\
                 bgi stats <dir>\n\
                 bgi build <dir> [layers] [--build-threads N]\n\
                 bgi workload <dir>\n\
                 bgi query <dir> <kw1,kw2,...> [dmax] [k]\n\
                 bgi verify <dir> [layers]\n\
                 bgi batch <dir> [--threads N] [--repeat R] [--seed S] [--k K] [--dmax D] [--layers L] [--build-threads N] [--shards N] [--dmax-ceiling D]\n\
                 bgi serve <dir> [--threads N] [--layers L] [--tcp ADDR] [--store S] [--build-threads N] [--shards N] [--dmax-ceiling D]\n\
                 bgi ingest <dir> --updates <file> [--batch N] [--layers L] [--store S] [--build-threads N]\n\
                 bgi save-index <dir> <store> [--layers L] [--build-threads N] [--shards N] [--dmax-ceiling D]\n\
                 bgi load-index <store>\n\
                 bgi reload <store>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_gen(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let [kind, scale, dir] = positional.as_slice() else {
        return Err(
            "usage: bgi gen <yago|dbpedia|imdb|synt> <scale> <dir> [--seed S] [--updates N] \
             [--update-seed S]"
                .into(),
        );
    };
    let scale: usize = scale.parse()?;
    let mut spec = match *kind {
        "yago" => DatasetSpec::yago_like(scale),
        "dbpedia" => DatasetSpec::dbpedia_like(scale),
        "imdb" => DatasetSpec::imdb_like(scale),
        "synt" => DatasetSpec::synt(scale),
        other => return Err(format!("unknown dataset kind '{other}'").into()),
    };
    // Each preset has a fixed default seed; `--seed` overrides it so
    // two invocations can agree on — or deliberately vary — the graph.
    if let Some(seed) = flags.get("seed") {
        spec = spec.with_seed(seed.parse().map_err(|_| format!("bad --seed '{seed}'"))?);
    }
    let ds = spec.generate();
    persist::save(&ds, Path::new(dir))?;
    println!(
        "wrote {} (|V| = {}, |E| = {}, {} ontology labels) to {dir}",
        ds.name,
        ds.num_vertices(),
        ds.num_edges(),
        ds.ontology.num_labels()
    );
    // `--updates N` additionally emits a seeded, in-order-applicable
    // update stream for `bgi ingest` / the ingest benchmarks.
    let updates: usize = flag(&flags, "updates", 0)?;
    if updates > 0 {
        let update_seed: u64 = flag(&flags, "update-seed", 1)?;
        let stream = update_stream(&ds.graph, update_seed, updates, UpdateMix::default());
        let mut out = String::with_capacity(stream.len() * 12);
        for op in &stream {
            out.push_str(&op.to_line());
            out.push('\n');
        }
        let path = Path::new(dir).join("updates.txt");
        std::fs::write(&path, out)?;
        println!(
            "wrote {} update(s) (seed {update_seed}) to {}",
            stream.len(),
            path.display()
        );
    }
    Ok(())
}

fn load(dir: &str) -> Result<Dataset, Box<dyn std::error::Error>> {
    Ok(persist::load(Path::new(dir))?)
}

fn cmd_stats(args: &[String]) -> CliResult {
    let [dir] = args else {
        return Err("usage: bgi stats <dir>".into());
    };
    let ds = load(dir)?;
    let deg = bgi_graph::stats::degree_stats(&ds.graph);
    println!("dataset:    {}", ds.name);
    println!("|V|:        {}", ds.num_vertices());
    println!("|E|:        {}", ds.num_edges());
    println!("labels:     {}", ds.labels.len());
    println!(
        "ontology:   {} labels, {} edges, height {}",
        ds.ontology.num_labels(),
        ds.ontology.num_edges(),
        ds.ontology.height()
    );
    println!("mean deg:   {:.2}", deg.mean_out);
    println!("max out/in: {} / {}", deg.max_out, deg.max_in);
    Ok(())
}

fn cmd_build(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let (dir, layers) =
        match positional.as_slice() {
            [dir] => (*dir, 7usize),
            [dir, layers] => (*dir, layers.parse()?),
            _ => return Err(
                "usage: bgi build <dir> [layers] [--build-threads N] [--hierarchy full-step|algo1]"
                    .into(),
            ),
        };
    let build_threads: usize = flag(&flags, "build-threads", 1)?;
    let ds = load(dir)?;
    let index = match flags.get("hierarchy").copied().unwrap_or("full-step") {
        "full-step" => {
            let (index, took) = bgi_bench::setup::default_index(&ds, layers);
            println!("built {} layers in {:?}", index.num_layers(), took);
            index
        }
        "algo1" => {
            let t = Instant::now();
            let (index, work) = BiGIndex::build_counted(
                ds.graph.clone(),
                ds.ontology.clone(),
                &BuildParams {
                    max_layers: layers,
                    threads: build_threads,
                    ..BuildParams::default()
                },
            );
            let took = t.elapsed();
            let work = Algo1Work::total(&work);
            println!(
                "built {} layers in {took:?} (Algo. 1: {} candidates, {} sample bisimulations run, {} skipped)",
                index.num_layers(),
                work.candidates,
                work.sample_evals,
                work.sample_evals_skipped,
            );
            index
        }
        other => return Err(format!("bad --hierarchy value '{other}'").into()),
    };
    for (m, size) in index.layer_sizes().iter().enumerate() {
        println!("  L{m}: |G| = {size} (ratio {:.4})", index.size_ratio(m));
    }
    // The per-layer search indexes are what serving/persistence would
    // build next; they are the parallel stage `--build-threads` fans out.
    let t = Instant::now();
    let rclique = bgi_store::build_layer_indexes(&index, RClique::default(), build_threads);
    println!(
        "per-layer r-clique indexes ({} layers) built in {:?} on {build_threads} thread(s)",
        rclique.len(),
        t.elapsed()
    );
    Ok(())
}

fn cmd_workload(args: &[String]) -> CliResult {
    let [dir] = args else {
        return Err("usage: bgi workload <dir>".into());
    };
    let ds = load(dir)?;
    let min_count = (ds.num_vertices() / 100).max(3) as u32;
    for q in benchmark_queries(&ds, 5, min_count, 0xC0FFEE) {
        let names: Vec<&str> = q.keywords.iter().map(|&l| ds.labels.name(l)).collect();
        println!("{}: {} (counts {:?})", q.id, names.join(","), q.counts);
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> CliResult {
    let (dir, layers) = match args {
        [dir] => (dir, 7usize),
        [dir, layers] => (dir, layers.parse()?),
        _ => return Err("usage: bgi verify <dir> [layers]".into()),
    };
    let ds = load(dir)?;
    let (index, took) = bgi_bench::setup::default_index(&ds, layers);
    println!(
        "built {} layer(s) in {took:?}; checking invariants…",
        index.num_layers()
    );
    let report = index.verify();
    print!("{report}");
    if report.is_clean() {
        println!("index is clean");
        Ok(())
    } else {
        Err(format!(
            "{} invariant(s) violated ({} total violation(s))",
            report.failed().len(),
            report.total_violations()
        )
        .into())
    }
}

/// Splits `args` into positional arguments and `--key value` flags.
fn parse_flags(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key, value.as_str());
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((positional, flags))
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value '{v}'")),
    }
}

/// Builds the default index over `ds` (per-layer search indexes fanned
/// over `build_threads`) and wraps it in a verified serving snapshot.
fn mono_snapshot(
    ds: &Dataset,
    layers: usize,
    build_threads: usize,
) -> Result<Arc<IndexSnapshot>, Box<dyn std::error::Error>> {
    let (index, took) = bgi_bench::setup::default_index(ds, layers);
    eprintln!(
        "index: {} layer(s) over {} vertices, built in {took:?}",
        index.num_layers(),
        ds.num_vertices()
    );
    let config = bgi_service::SnapshotConfig {
        threads: build_threads,
        ..bgi_service::SnapshotConfig::default()
    };
    Ok(Arc::new(IndexSnapshot::build(index, config)?))
}

/// Cuts `ds` into `spec.shards` partitions and builds one independent
/// hierarchy per shard — the in-memory half of `save-index --shards`,
/// shared by `serve --shards` and `batch --shards`.
fn build_sharded(
    ds: &Dataset,
    spec: &ShardSpec,
    layers: usize,
    build_threads: usize,
) -> Result<(ShardPlan, Vec<IndexBundle>), Box<dyn std::error::Error>> {
    let t = Instant::now();
    let plan = ShardPlan::build(&ds.graph, spec)?;
    let bundles = build_shard_bundles(
        &ds.graph,
        &ds.ontology,
        &plan,
        &ShardBuildParams {
            max_layers: layers,
            threads: build_threads,
            ..ShardBuildParams::default()
        },
    );
    eprintln!(
        "cut {} vertices into {} shard hierarchies (dmax ceiling {}) in {:?}",
        plan.num_vertices(),
        plan.num_shards(),
        plan.dmax_ceiling(),
        t.elapsed()
    );
    Ok((plan, bundles))
}

fn cmd_batch(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let [dir] = positional.as_slice() else {
        return Err(
            "usage: bgi batch <dir> [--threads N] [--repeat R] [--seed S] [--queries Q] [--k K] [--dmax D] [--layers L] [--build-threads N] [--shards N] [--dmax-ceiling D]"
                .into(),
        );
    };
    let threads: usize = flag(&flags, "threads", 4)?;
    let repeat: usize = flag(&flags, "repeat", 3)?;
    let seed: u64 = flag(&flags, "seed", bgi_bench::setup::DEFAULT_WORKLOAD_SEED)?;
    let queries: usize = flag(&flags, "queries", 32)?;
    let k: usize = flag(&flags, "k", 5)?;
    let dmax: u32 = flag(&flags, "dmax", 4)?;
    let layers: usize = flag(&flags, "layers", 4)?;
    let build_threads: usize = flag(&flags, "build-threads", 1)?;
    let shards: usize = flag(&flags, "shards", 0)?;

    let ds = load(dir)?;
    let requests = bgi_bench::experiments::throughput::seeded_requests(&ds, dmax, k, seed, queries);
    if requests.is_empty() {
        return Err("workload generator produced no queries for this dataset".into());
    }
    let config = ServiceConfig {
        workers: threads,
        ..ServiceConfig::default()
    };
    let service = if shards > 0 {
        let dmax_ceiling: u32 = flag(&flags, "dmax-ceiling", dmax)?;
        if dmax_ceiling < dmax {
            return Err(format!("--dmax-ceiling {dmax_ceiling} must be >= --dmax {dmax}").into());
        }
        let spec = ShardSpec {
            shards,
            dmax_ceiling,
            partition_block: 0,
        };
        let (plan, bundles) = build_sharded(&ds, &spec, layers, build_threads)?;
        let snapshot = snapshot_from_build(Arc::new(plan), bundles, threads)?;
        Service::start_sharded(snapshot, config)
    } else {
        Service::start(mono_snapshot(&ds, layers, build_threads)?, config)
    };
    let report = run_batch(&service, &requests, repeat, threads);
    println!(
        "batch: {} queries ({} unique x {repeat}) on {threads} thread(s) in {:?}",
        report.total,
        requests.len(),
        report.wall()
    );
    println!(
        "  served {} ({:.0} q/s), cache hits {}, timeouts {}, failed {}",
        report.served,
        report.throughput(),
        report.cache_hits,
        report.timeouts,
        report.failed
    );
    println!("{}", service.stats());
    if report.failed > 0 {
        return Err(format!("{} queries failed", report.failed).into());
    }
    Ok(())
}

/// Parses one protocol line into a request:
/// `<bkws|rkws|dkws> <kw1,kw2,...> [dmax=D] [k=K] [layer=M] [deadline_ms=T]
/// [soft_deadline_ms=T] [min_results=N]`.
fn parse_request(ds: &Dataset, line: &str) -> Result<QueryRequest, String> {
    let mut parts = line.split_whitespace();
    let semantics = parts
        .next()
        .and_then(Semantics::parse)
        .ok_or("expected semantics: bkws | rkws | dkws")?;
    let kws = parts.next().ok_or("expected comma-separated keywords")?;
    let keywords: Result<Vec<_>, String> = kws
        .split(',')
        .map(|name| {
            ds.labels
                .get(name.trim())
                .ok_or_else(|| format!("unknown keyword '{}'", name.trim()))
        })
        .collect();
    let mut req = QueryRequest::new(semantics, keywords?, 4, 5);
    for opt in parts {
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| format!("bad option '{opt}' (want key=value)"))?;
        match key {
            "dmax" => req.dmax = parse_value(opt, value)?,
            "k" => req.k = parse_value(opt, value)?,
            "layer" => req.layer = Some(parse_value(opt, value)?),
            "deadline_ms" => req.deadline = Some(Duration::from_millis(parse_value(opt, value)?)),
            "soft_deadline_ms" => {
                req.soft_deadline = Some(Duration::from_millis(parse_value(opt, value)?));
            }
            "min_results" => req.min_results = parse_value(opt, value)?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(req)
}

/// Parses an option's value straight into the field's own integer
/// type, so a value the field cannot hold is an error, never a wrap.
fn parse_value<T: std::str::FromStr>(opt: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value in '{opt}'"))
}

/// Formats a service outcome as one protocol line.
fn format_response(result: Result<bgi_service::QueryResponse, QueryError>) -> String {
    match result {
        Ok(resp) => {
            let roots: Vec<String> = resp
                .answers
                .iter()
                .map(|a| match a.root {
                    Some(r) => format!("{}:{}", r.0, a.score),
                    None => format!("-:{}", a.score),
                })
                .collect();
            format!(
                "ok answers={} layer={} complete={} fell_back={} cache={} us={} roots={}",
                resp.answers.len(),
                resp.layer,
                resp.completeness,
                resp.fell_back,
                resp.cache_hit,
                resp.latency.as_micros(),
                roots.join(";")
            )
        }
        Err(e) => format!("err {e}"),
    }
}

/// Where `bgi serve` sends its write verbs — the one thing the two
/// serving topologies differ in on the protocol.
enum Writer {
    /// One engine behind one hub; with a store, commits are WAL-logged
    /// and `checkpoint` / `reload` are available.
    Mono {
        hub: Box<WriteHub>,
        store: Option<Store>,
    },
    /// Per-shard hubs booted from a sharded store.
    Sharded {
        hub: Box<ShardedWriteHub>,
        store: ShardedStore,
    },
    /// Sharded serving built in memory: there is no WAL to make a
    /// scattered commit crash-safe against.
    ReadOnly,
}

/// Write state of a serving process: the writer plus the `update` verbs
/// buffered for the next `flush`. Only the buffer is locked here — the
/// hubs serialize (and group) the commits themselves, while queries
/// keep flowing lock-free against the current snapshot.
struct Ingest {
    writer: Writer,
    buffer: Mutex<Vec<IngestUpdate>>,
}

/// `update` verbs buffered before an automatic `flush` kicks in. Each
/// flush costs one re-materialization of the hierarchy, so batching
/// amortizes it; an explicit `flush` line forces the buffer out early.
const UPDATE_AUTOFLUSH: usize = 1024;

const READ_ONLY: &str =
    "err sharded serving without --store is read-only; persist with `bgi save-index --shards`";

impl Writer {
    /// Commits one batch through the service's write path. A rejected
    /// batch (invalid update, refused snapshot) is reported and dropped,
    /// matching the engine's batch-atomic semantics.
    fn flush(&self, service: &Service, batch: Vec<IngestUpdate>) -> String {
        match self {
            Writer::ReadOnly => READ_ONLY.to_string(),
            // Nothing buffered: `flush` still doubles as the idle poll
            // that adopts a finished background rebuild.
            Writer::Mono { hub, .. } if batch.is_empty() => match service.poll_rebuild(hub) {
                Ok(adopted) => format!("ok applied=0 rebuilt={adopted}"),
                Err(e) => format!("err {e}"),
            },
            Writer::Mono { hub, .. } => match service.apply_updates_grouped(hub, batch) {
                Ok(report) => format!(
                    "ok applied={} seq={} rebuilt={} rebuild_started={} layers_reused={} \
                     layers_rebuilt={} rows_kept={} rows_dropped={}",
                    report.outcome.applied,
                    report
                        .outcome
                        .seq
                        .map_or_else(|| "-".to_string(), |s| s.to_string()),
                    report.rebuilt,
                    report.rebuild_started,
                    report.outcome.reused_layers,
                    report.outcome.rebuilt_layers,
                    report.outcome.rows_kept,
                    report.outcome.rows_dropped
                ),
                Err(e) => format!("err {e}"),
            },
            Writer::Sharded { hub, .. } => match service.apply_updates_sharded(hub, &batch) {
                Err(e) => format!("err {e}"),
                Ok(report) => {
                    let mut applied = 0usize;
                    let mut committed = 0usize;
                    let mut failed = Vec::new();
                    for (s, slot) in report.per_shard.iter().enumerate() {
                        match slot {
                            None => {}
                            Some(Ok(r)) => {
                                applied += r.outcome.applied;
                                committed += 1;
                            }
                            Some(Err(e)) => failed.push(format!("{s}: {e}")),
                        }
                    }
                    let touched = committed + failed.len();
                    if failed.is_empty() {
                        format!("ok applied={applied} shards={committed}/{touched}")
                    } else {
                        // Shard-local failure is not batch failure: the
                        // healthy shards' shares are already committed
                        // and serving.
                        format!(
                            "err partial commit: applied={applied} shards={committed}/{touched} \
                             failed=[{}]",
                            failed.join("; ")
                        )
                    }
                }
            },
        }
    }

    /// Persists the current hierarchy (every shard's, when sharded) as
    /// the next generation and truncates the WAL behind it.
    fn checkpoint(&self, service: &Service) -> String {
        match self {
            Writer::ReadOnly => READ_ONLY.to_string(),
            Writer::Mono { store: None, .. } => {
                "err no --store configured; checkpoint unavailable".to_string()
            }
            Writer::Mono {
                hub,
                store: Some(store),
            } => {
                // Fold a finished background rebuild in first so the
                // checkpoint persists the freshest hierarchy.
                if let Err(e) = service.poll_rebuild(hub) {
                    return format!("err checkpoint blocked: {e}");
                }
                match hub.with_engine(|e| (e.last_seq(), e.checkpoint(store))) {
                    (through, Ok(generation)) => format!(
                        "ok checkpoint generation={generation} wal_truncated_through={through}"
                    ),
                    (_, Err(e)) => format!("err checkpoint failed: {e}"),
                }
            }
            Writer::Sharded { hub, store } => {
                let mut generations = Vec::new();
                for s in 0..hub.num_shards() {
                    match hub.with_engine(s, |e| e.checkpoint(store.store(s))) {
                        Ok(generation) => generations.push(generation.to_string()),
                        Err(e) => return format!("err checkpoint failed on shard {s}: {e}"),
                    }
                }
                format!("ok checkpoint generations=[{}]", generations.join(","))
            }
        }
    }

    /// Hot-swaps to the newest on-disk generation.
    fn reload(&self, service: &Service) -> String {
        match self {
            Writer::Mono { store: None, .. } => {
                "err no --store configured; reload unavailable".to_string()
            }
            Writer::Mono {
                store: Some(store), ..
            } => match service.reload_from_disk(store) {
                Ok(generation) => format!("ok reloaded generation={generation}"),
                // The old snapshot keeps serving; the rollback is
                // already counted in the stats.
                Err(e) => format!("err reload rolled back: {e}"),
            },
            Writer::Sharded { .. } | Writer::ReadOnly => {
                "err reload is unsupported in sharded serving; restart to re-boot \
                 (per-shard WAL replay is automatic)"
                    .to_string()
            }
        }
    }
}

/// Handles one protocol line; `None` means the peer asked to quit.
fn handle_line(ds: &Dataset, service: &Service, ingest: &Ingest, line: &str) -> Option<String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Some(String::new());
    }
    if let Some(op) = line.strip_prefix("update ") {
        if matches!(ingest.writer, Writer::ReadOnly) {
            return Some(READ_ONLY.to_string());
        }
        let Some(update) = IngestUpdate::parse_line(op) else {
            return Some(format!(
                "err bad update '{op}' (want insert <u> <v> | delete <u> <v> | addv <l>)"
            ));
        };
        let batch = {
            let mut buffer = ingest.buffer.lock().unwrap_or_else(PoisonError::into_inner);
            buffer.push(update);
            if buffer.len() < UPDATE_AUTOFLUSH {
                return Some(format!("ok queued={}", buffer.len()));
            }
            std::mem::take(&mut *buffer)
        };
        return Some(ingest.writer.flush(service, batch));
    }
    match line {
        "quit" | "exit" => None,
        "stats" => Some(
            service
                .stats()
                .to_string()
                .lines()
                .map(|l| format!("# {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
        ),
        "flush" => {
            let batch =
                std::mem::take(&mut *ingest.buffer.lock().unwrap_or_else(PoisonError::into_inner));
            Some(ingest.writer.flush(service, batch))
        }
        "checkpoint" => Some(ingest.writer.checkpoint(service)),
        "reload" => Some(ingest.writer.reload(service)),
        _ => Some(match parse_request(ds, line) {
            Ok(req) => format_response(service.query(req)),
            Err(e) => format!("err {e}"),
        }),
    }
}

/// Stops admitting, drains in-flight work against its deadlines, and
/// flushes a final stats line to stderr — the graceful-shutdown tail of
/// every `bgi serve` exit path (stdin EOF, `quit`, listener close).
fn graceful_shutdown(service: Arc<Service>) {
    eprintln!("shutting down: draining in-flight requests…");
    match Arc::try_unwrap(service) {
        Ok(mut service) => {
            let drained = service.drain(Duration::from_secs(10));
            if !drained {
                eprintln!("grace period expired with requests still pending");
            }
            eprintln!("final stats:\n{}", service.stats());
        }
        // Connection handler threads still hold the service (TCP); the
        // drop path will shut it down — report final stats regardless.
        Err(service) => eprintln!("final stats:\n{}", service.stats()),
    }
}

/// Boots monolithic serving. With a store, boot from the newest
/// persisted generation — no hierarchy construction — replaying any WAL
/// tail a crash left behind. Without one, build from the dataset.
/// Either way the live-update engine starts from the same bundle the
/// snapshot serves, so `update`/`flush` stay consistent with queries.
fn boot_mono(
    ds: &Dataset,
    store: Option<Store>,
    layers: usize,
    engine_config: EngineConfig,
    service_config: ServiceConfig,
) -> Result<(Service, Writer), Box<dyn std::error::Error>> {
    let engine = match &store {
        Some(store) => {
            let t = Instant::now();
            let (generation, bundle) = store.load_latest()?;
            let (engine, replayed) = Engine::with_wal(bundle, engine_config, store)?;
            eprintln!(
                "recovered index generation {generation} ({} layer(s), {replayed} WAL \
                 update(s) replayed) in {:?}; hierarchy construction skipped",
                engine.bundle().num_layers(),
                t.elapsed()
            );
            engine
        }
        None => {
            let (index, took) = bgi_bench::setup::default_index(ds, layers);
            eprintln!(
                "index: {} layer(s) over {} vertices, built in {took:?}",
                index.num_layers(),
                ds.num_vertices()
            );
            Engine::new(default_bundle(index, engine_config.threads), engine_config)?
        }
    };
    let snapshot = Arc::new(IndexSnapshot::from_shared(engine.shared_bundle())?);
    let service = Service::start_with_logger(snapshot, service_config, stderr_logger());
    let hub = Box::new(WriteHub::new(engine));
    Ok((service, Writer::Mono { hub, store }))
}

/// Boots sharded serving (DESIGN.md §14): every query is scattered over
/// per-shard snapshots and the legs merged deterministically. A
/// `--store` root created by `save-index --shards` boots durable, with
/// write verbs enabled; `--shards N` builds in memory, read-only.
fn boot_sharded_serving(
    ds: &Dataset,
    flags: &HashMap<&str, &str>,
    layers: usize,
    engine_config: EngineConfig,
    service_config: ServiceConfig,
) -> Result<(Service, Writer), Box<dyn std::error::Error>> {
    let threads = service_config.workers;
    let (snapshot, writer) = match flags.get("store") {
        Some(store_dir) => {
            let t = Instant::now();
            let store = ShardedStore::open(Path::new(*store_dir))?;
            let (snapshot, hub, replayed) = boot_sharded(&store, engine_config, threads)?;
            eprintln!(
                "booted {} shard(s) (dmax ceiling {}, {} WAL update(s) replayed) in {:?}; \
                 hierarchy construction skipped",
                snapshot.num_shards(),
                snapshot.plan().dmax_ceiling(),
                replayed.iter().sum::<usize>(),
                t.elapsed()
            );
            let hub = Box::new(hub);
            (snapshot, Writer::Sharded { hub, store })
        }
        None => {
            let spec = ShardSpec {
                shards: flag(flags, "shards", 1)?,
                dmax_ceiling: flag(flags, "dmax-ceiling", 4)?,
                partition_block: 0,
            };
            let (plan, bundles) = build_sharded(ds, &spec, layers, engine_config.threads)?;
            let snapshot = snapshot_from_build(Arc::new(plan), bundles, threads)?;
            (snapshot, Writer::ReadOnly)
        }
    };
    let service = Service::start_sharded_with_logger(snapshot, service_config, stderr_logger());
    Ok((service, writer))
}

fn stderr_logger() -> bgi_service::Logger {
    bgi_service::Logger::to(Box::new(std::io::stderr()))
}

/// Reads protocol lines from `input` and writes one reply per line to
/// `output`, until `quit`/`exit`, end of input or a dead peer.
fn serve_lines(
    ds: &Dataset,
    service: &Service,
    ingest: &Ingest,
    input: impl BufRead,
    mut output: impl Write,
) {
    for line in input.lines() {
        let Ok(line) = line else { break };
        let Some(reply) = handle_line(ds, service, ingest, &line) else {
            break;
        };
        if writeln!(output, "{reply}")
            .and_then(|()| output.flush())
            .is_err()
        {
            break;
        }
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let [dir] = positional.as_slice() else {
        return Err(
            "usage: bgi serve <dir> [--threads N] [--layers L] [--tcp ADDR] [--store S] \
             [--build-threads N] [--shards N] [--dmax-ceiling D]"
                .into(),
        );
    };
    let threads: usize = flag(&flags, "threads", 4)?;
    let layers: usize = flag(&flags, "layers", 4)?;
    let engine_config = EngineConfig {
        threads: flag(&flags, "build-threads", 1)?,
        ..EngineConfig::default()
    };
    let service_config = ServiceConfig {
        workers: threads,
        ..ServiceConfig::default()
    };
    let tcp = flags.get("tcp").copied();
    // Sharded serving: explicit `--shards` builds in memory; a `--store`
    // whose root carries a shard plan is detected and booted as such.
    let shards: usize = flag(&flags, "shards", 0)?;
    let store_dir = flags.get("store").map(|s| Path::new(*s));
    let sharded = shards > 0 || store_dir.is_some_and(bgi_shard::is_sharded);
    if sharded && tcp.is_some() {
        return Err("--tcp is not supported with --shards yet; serve over stdio".into());
    }
    let ds = Arc::new(load(dir)?);
    let (service, writer) = if sharded {
        boot_sharded_serving(&ds, &flags, layers, engine_config, service_config)?
    } else {
        let store = store_dir.map(Store::open).transpose()?;
        boot_mono(&ds, store, layers, engine_config, service_config)?
    };
    let service = Arc::new(service);
    let ingest = Arc::new(Ingest {
        writer,
        buffer: Mutex::new(Vec::new()),
    });

    match tcp {
        None => {
            eprintln!(
                "serving{} on stdin/stdout with {threads} worker(s); one request per line, \
                 'stats' for counters, 'update <op>'/'flush' for live writes, 'checkpoint' to \
                 persist, 'reload' to hot-swap, 'quit' to stop",
                if sharded { " sharded" } else { "" }
            );
            // Ends on `quit`/`exit` or stdin EOF — both funnel into the
            // graceful drain below.
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            serve_lines(&ds, &service, &ingest, stdin.lock(), stdout.lock());
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)?;
            eprintln!(
                "serving on tcp://{} with {threads} worker(s)",
                listener.local_addr()?
            );
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        // The listener is gone (socket closed, fd limit,
                        // interrupt): stop admitting and drain.
                        eprintln!("listener closed: {e}");
                        break;
                    }
                };
                let (ds, service, ingest) =
                    (Arc::clone(&ds), Arc::clone(&service), Arc::clone(&ingest));
                std::thread::spawn(move || {
                    if let Ok(reader) = stream.try_clone() {
                        let reader = std::io::BufReader::new(reader);
                        serve_lines(&ds, &service, &ingest, reader, stream);
                    }
                });
            }
        }
    }
    graceful_shutdown(service);
    Ok(())
}

fn cmd_ingest(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let [dir] = positional.as_slice() else {
        return Err(
            "usage: bgi ingest <dir> --updates <file> [--batch N] [--layers L] [--store S] \
             [--build-threads N]"
                .into(),
        );
    };
    let updates_file = flags
        .get("updates")
        .ok_or("bgi ingest needs --updates <file> (see `bgi gen --updates`)")?;
    let batch: usize = flag(&flags, "batch", 1024)?;
    let batch = batch.max(1);
    let layers: usize = flag(&flags, "layers", 4)?;
    let build_threads: usize = flag(&flags, "build-threads", 1)?;
    let store = match flags.get("store") {
        Some(store_dir) => Some(Store::open(Path::new(store_dir))?),
        None => None,
    };

    // Parse the whole stream up front so a malformed line fails before
    // any update is applied (or logged).
    let text = std::fs::read_to_string(updates_file)?;
    let mut stream = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match IngestUpdate::parse_line(line) {
            Some(u) => stream.push(u),
            None => return Err(format!("{updates_file}:{}: bad update '{line}'", i + 1).into()),
        }
    }
    if stream.is_empty() {
        return Err(format!("{updates_file} contains no updates").into());
    }

    let engine_config = EngineConfig {
        threads: build_threads,
        ..EngineConfig::default()
    };
    let build_fresh = || -> Result<IndexBundle, Box<dyn std::error::Error>> {
        let ds = load(dir)?;
        let (index, took) = bgi_bench::setup::default_index(&ds, layers);
        eprintln!("built {} layer(s) in {took:?}", index.num_layers());
        Ok(default_bundle(index, build_threads))
    };
    // With a store: boot from the persisted generation (replaying any
    // WAL tail) and log every batch; an empty store is seeded with a
    // fresh build first. Without: build from the dataset and apply in
    // memory.
    let mut engine = match &store {
        Some(store) => {
            let bundle = match store.load_latest() {
                Ok((generation, bundle)) => {
                    eprintln!("recovered generation {generation}");
                    bundle
                }
                Err(bgi_store::StoreError::NoGeneration) => {
                    let bundle = build_fresh()?;
                    let generation = store.save_with_threads(&bundle, build_threads)?;
                    eprintln!("store was empty; seeded generation {generation}");
                    bundle
                }
                Err(e) => return Err(e.into()),
            };
            let (engine, replayed) = Engine::with_wal(bundle, engine_config, store)?;
            if replayed > 0 {
                eprintln!("replayed {replayed} WAL update(s)");
            }
            engine
        }
        None => Engine::new(build_fresh()?, engine_config)?,
    };

    let t = Instant::now();
    let mut applied = 0usize;
    let mut rebuilds = 0usize;
    for chunk in stream.chunks(batch) {
        let outcome = engine.apply_batch(chunk)?;
        applied += outcome.applied;
        if engine.drift().rebuild_recommended {
            engine.rebuild()?;
            rebuilds += 1;
        }
    }
    let took = t.elapsed();
    let rate = applied as f64 / took.as_secs_f64().max(1e-9);
    println!(
        "ingested {applied} update(s) in {took:?} ({rate:.0} updates/s), \
         batch size {batch}, {rebuilds} full rebuild(s)"
    );
    for (m, size) in engine.index().layer_sizes().iter().enumerate() {
        println!("  L{m}: |G| = {size}");
    }
    let report = engine.index().verify();
    if !report.is_clean() {
        return Err(format!("updated index fails verification:\n{report}").into());
    }
    println!("updated index verifies clean");
    if let Some(store) = &store {
        let generation = engine.checkpoint(store)?;
        println!("checkpointed as generation {generation}; WAL truncated");
    }
    Ok(())
}

/// Default serving parameters for a persisted bundle — kept in lockstep
/// with [`IndexSnapshot::build_default`] so `serve --store` behaves like
/// `serve` with a freshly built index. Identical output for every
/// `threads` (DESIGN.md §8).
fn default_bundle(index: big_index::BiGIndex, threads: usize) -> IndexBundle {
    IndexBundle::build(index, BlinksParams::default(), RClique::default(), threads)
}

fn cmd_save_index(args: &[String]) -> CliResult {
    let (positional, flags) = parse_flags(args)?;
    let [dataset_dir, store_dir] = positional.as_slice() else {
        return Err(
            "usage: bgi save-index <dataset-dir> <store-dir> [--layers L] [--build-threads N] \
             [--shards N] [--dmax-ceiling D]"
                .into(),
        );
    };
    let layers: usize = flag(&flags, "layers", 4)?;
    let build_threads: usize = flag(&flags, "build-threads", 1)?;
    let shards: usize = flag(&flags, "shards", 0)?;
    let ds = load(dataset_dir)?;
    if shards > 0 {
        let dmax_ceiling: u32 = flag(&flags, "dmax-ceiling", 4)?;
        let spec = ShardSpec {
            shards,
            dmax_ceiling,
            partition_block: 0,
        };
        let (plan, bundles) = build_sharded(&ds, &spec, layers, build_threads)?;
        let t = Instant::now();
        let store = ShardedStore::create(Path::new(*store_dir), plan)?;
        let generations = store.save_all(&bundles, build_threads)?;
        println!(
            "saved {shards} shard generation(s) [{}] (dmax ceiling {dmax_ceiling}) \
             to {store_dir} in {:?}",
            generations
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            t.elapsed()
        );
        return Ok(());
    }
    let (index, took) = bgi_bench::setup::default_index(&ds, layers);
    eprintln!("built {} layer(s) in {took:?}", index.num_layers());
    let t = Instant::now();
    let bundle = default_bundle(index, build_threads);
    let store = Store::open(Path::new(store_dir))?;
    let generation = store.save_with_threads(&bundle, build_threads)?;
    println!(
        "saved generation {generation} ({} layer(s)) to {store_dir} in {:?}",
        bundle.num_layers(),
        t.elapsed()
    );
    Ok(())
}

fn cmd_load_index(args: &[String]) -> CliResult {
    let (positional, _flags) = parse_flags(args)?;
    let [store_dir] = positional.as_slice() else {
        return Err("usage: bgi load-index <store-dir>".into());
    };
    let store = Store::open(Path::new(store_dir))?;
    let t = Instant::now();
    let (generation, bundle) = store.load_latest()?;
    // The same admission gate serving uses: verify + layer coverage.
    let snapshot = IndexSnapshot::from_bundle(bundle)?;
    println!(
        "recovered generation {generation} in {:?}; hierarchy construction skipped",
        t.elapsed()
    );
    for (m, size) in snapshot.index().layer_sizes().iter().enumerate() {
        println!("  L{m}: |G| = {size}");
    }
    let quarantined = store.quarantined();
    if !quarantined.is_empty() {
        println!(
            "{} quarantined generation(s) held for post-mortem",
            quarantined.len()
        );
    }
    Ok(())
}

fn cmd_reload(args: &[String]) -> CliResult {
    let (positional, _flags) = parse_flags(args)?;
    let [store_dir] = positional.as_slice() else {
        return Err("usage: bgi reload <store-dir>".into());
    };
    let store = Store::open(Path::new(store_dir))?;
    // Dry-run recovery: what would a serving process swap to right now?
    match store.load_latest() {
        Ok((generation, bundle)) => {
            let report = bundle.index.verify();
            println!(
                "would serve generation {generation}: {} layer(s), verify {}",
                bundle.num_layers(),
                if report.is_clean() { "clean" } else { "DIRTY" }
            );
            let quarantined = store.quarantined();
            if !quarantined.is_empty() {
                println!(
                    "{} quarantined generation(s) held for post-mortem",
                    quarantined.len()
                );
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err("recovered bundle fails verification; a reload would roll back".into())
            }
        }
        Err(e) => Err(format!("store is not recoverable: {e}").into()),
    }
}

fn cmd_query(args: &[String]) -> CliResult {
    let (dir, kws, dmax, k) = match args {
        [dir, kws] => (dir, kws, 5u32, 10usize),
        [dir, kws, dmax] => (dir, kws, dmax.parse()?, 10usize),
        [dir, kws, dmax, k] => (dir, kws, dmax.parse()?, k.parse()?),
        _ => return Err("usage: bgi query <dir> <kw1,kw2,...> [dmax] [k]".into()),
    };
    let ds = load(dir)?;
    let keywords: Result<Vec<_>, _> = kws
        .split(',')
        .map(|name| {
            ds.labels
                .get(name.trim())
                .ok_or_else(|| format!("unknown keyword '{name}'"))
        })
        .collect();
    let query = KeywordQuery::new(keywords?, dmax);

    let (index, _) = bgi_bench::setup::default_index(&ds, 7);
    let blinks = Blinks::new(BlinksParams {
        prune_dist: dmax.max(5),
    });
    let boosted = Boosted::new(&index, blinks, EvalOptions::default());

    let t = std::time::Instant::now();
    let result = boosted.query(&query, k);
    let took = t.elapsed();
    println!(
        "layer {} ({}), {} answer(s) in {:?}:",
        result.layer,
        if result.fell_back {
            "fell back"
        } else {
            "chosen"
        },
        result.answers.len(),
        took
    );
    for (i, a) in result.answers.iter().enumerate() {
        let verts: Vec<String> = a
            .vertices
            .iter()
            .map(|&v| format!("{}({})", v.0, ds.labels.name(ds.graph.label(v))))
            .collect();
        println!(
            "  #{i} score={} root={:?}: {}",
            a.score,
            a.root,
            verts.join(" ")
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_rejects_values_the_field_cannot_hold() {
        let ds = DatasetSpec::yago_like(60).generate();
        let kw = ds
            .labels
            .name(ds.graph.label(bgi_graph::VId(0)))
            .to_string();
        let parse = |opts: &str| parse_request(&ds, &format!("bkws {kw} {opts}"));

        // One past u32::MAX used to be served as dmax=1.
        assert_eq!(
            parse("dmax=4294967297").unwrap_err(),
            "bad value in 'dmax=4294967297'"
        );
        assert_eq!(parse("dmax=4294967295").unwrap().dmax, u32::MAX);
        assert_eq!(parse("dmax=-1").unwrap_err(), "bad value in 'dmax=-1'");

        // The usize fields hold u64::MAX on 64-bit and refuse it
        // elsewhere; either way the value never wraps.
        let max = u64::MAX.to_string();
        for key in ["k", "layer", "min_results"] {
            let opt = format!("{key}={max}");
            match parse(&opt) {
                Ok(req) => {
                    let got = match key {
                        "k" => req.k,
                        "layer" => req.layer.unwrap(),
                        _ => req.min_results,
                    };
                    assert_eq!(got as u64, u64::MAX, "{opt}");
                }
                Err(e) => assert_eq!(e, format!("bad value in '{opt}'")),
            }
            let over = format!("{key}=18446744073709551616");
            assert_eq!(parse(&over).unwrap_err(), format!("bad value in '{over}'"));
        }
        assert_eq!(parse("foo=bar").unwrap_err(), "unknown option 'foo'");
    }
}
