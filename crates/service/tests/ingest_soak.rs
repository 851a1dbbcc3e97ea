//! Ingest soak: a concurrent query + update storm with injected WAL
//! kills. The acceptance invariants:
//!
//! 1. queries keep being served (from the last good snapshot) while
//!    updates and failures happen — never a panic, never torn state;
//! 2. after each kill, reopening the store replays the WAL to exactly
//!    the last *committed* batch (byte-equal base graph against a
//!    shadow copy that applied only committed batches);
//! 3. a fresh from-scratch rebuild of the recovered graph answers every
//!    workload query identically to the incrementally maintained
//!    hierarchy (rendered answers byte-compared, at every layer);
//! 4. a checkpoint folds the WAL into a new generation, after which a
//!    cold open replays nothing and serves the same bundle.

use bgi_datasets::{benchmark_queries, update_stream, DatasetSpec, UpdateMix, UpdateOp};
use bgi_graph::{DiGraph, GraphBuilder, LabelId, Ontology, VId};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate, RebuildPolicy};
use bgi_search::blinks::BlinksParams;
use bgi_search::{Banks, Budget, KeywordQuery, KeywordSearch, RClique};
use bgi_service::{
    boot_sharded, ApplyError, IndexSnapshot, QueryRequest, Semantics, Service, ServiceConfig,
    ShardedSnapshot, ShardedWriteHub, WriteHub,
};
use bgi_store::{FailAction, Failpoints, IndexBundle, RetryPolicy, Store};
use big_index::{eval_at_layer, BiGIndex, EvalOptions, GenConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{save_sharded_store, TempDir};

/// Greedy full-step configs, the same probing the benchmark CLI uses.
fn step_configs(g: &DiGraph, ontology: &Ontology, layers: usize) -> Vec<GenConfig> {
    let mut configs = Vec::new();
    let mut current = g.clone();
    for _ in 0..layers {
        let counts = current.label_counts();
        let mappings: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .filter_map(|(i, _)| {
                let l = LabelId(i as u32);
                if l.index() >= ontology.num_labels() {
                    return None;
                }
                ontology.direct_supertypes(l).first().map(|&sup| (l, sup))
            })
            .collect();
        let config = match GenConfig::new(mappings, ontology) {
            Ok(c) if !c.is_empty() => c,
            _ => break,
        };
        let probe = BiGIndex::build_with_configs(
            current.clone(),
            ontology.clone(),
            vec![config.clone()],
            bgi_bisim::BisimDirection::Forward,
        );
        let next = probe.graph_at(1).clone();
        configs.push(config);
        if next.size() == current.size() {
            break;
        }
        current = next;
    }
    configs
}

fn build_bundle(g: DiGraph, o: Ontology, configs: &[GenConfig]) -> IndexBundle {
    let index =
        BiGIndex::build_with_configs(g, o, configs.to_vec(), bgi_bisim::BisimDirection::Forward);
    IndexBundle::build(
        index,
        BlinksParams::default(),
        RClique::default(),
        EvalOptions::default(),
    )
}

/// Shadow of the base graph, fed only *committed* batches.
struct Shadow {
    labels: Vec<LabelId>,
    edges: BTreeSet<(VId, VId)>,
}

impl Shadow {
    fn of(g: &DiGraph) -> Self {
        Shadow {
            labels: g.labels().to_vec(),
            edges: g.edges().collect(),
        }
    }

    fn apply(&mut self, updates: &[IngestUpdate]) {
        for u in updates {
            match *u {
                IngestUpdate::InsertEdge { src, dst } => {
                    self.edges.insert((VId(src), VId(dst)));
                }
                IngestUpdate::DeleteEdge { src, dst } => {
                    self.edges.remove(&(VId(src), VId(dst)));
                }
                IngestUpdate::AddVertex { label } => self.labels.push(LabelId(label)),
            }
        }
    }

    fn graph(&self) -> DiGraph {
        GraphBuilder::from_edges(self.labels.clone(), self.edges.iter().copied().collect())
    }
}

/// A seeded mixed update stream over `g`, as engine input.
fn ingest_stream(g: &DiGraph, seed: u64, len: usize) -> Vec<IngestUpdate> {
    update_stream(g, seed, len, UpdateMix::default())
        .iter()
        .map(|op| match *op {
            UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
            UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
            UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
        })
        .collect()
}

/// All answers of `query` at layer `m`, rendered, sorted, deduped.
fn answer_set(index: &BiGIndex, m: usize, query: &KeywordQuery) -> Vec<String> {
    let banks = Banks.build_index(index.graph_at(m));
    let result = eval_at_layer(
        index,
        &Banks,
        &banks,
        query,
        50,
        m,
        &EvalOptions::default(),
        &Budget::unlimited(),
    )
    .expect("an unlimited budget never interrupts");
    let mut rendered: Vec<String> = result.answers.iter().map(|a| format!("{a:?}")).collect();
    rendered.sort();
    rendered.dedup();
    rendered
}

/// Invariant 3: the incrementally maintained hierarchy answers exactly
/// like a from-scratch rebuild of the same graph.
fn assert_answers_match_scratch(index: &BiGIndex, configs: &[GenConfig], queries: &[KeywordQuery]) {
    let scratch = BiGIndex::build_with_configs(
        index.base().clone(),
        index.ontology().clone(),
        configs.to_vec(),
        bgi_bisim::BisimDirection::Forward,
    );
    assert_eq!(scratch.num_layers(), index.num_layers());
    for m in 0..=scratch.num_layers() {
        for q in queries {
            assert_eq!(
                answer_set(index, m, q),
                answer_set(&scratch, m, q),
                "layer {m} answers diverged from scratch rebuild for {q:?}"
            );
        }
    }
}

/// The background rebuild lifecycle through the service write path: a
/// tight policy starts a rebuild off-thread, further batches keep
/// applying while it runs, and a later call (or an explicit poll)
/// adopts the result — delta replayed, snapshot swapped, counted in
/// the stats.
#[test]
fn background_rebuild_adopts_without_blocking_writes() {
    let ds = DatasetSpec::synt(300).generate();
    let configs = step_configs(&ds.graph, &ds.ontology, 2);
    assert!(!configs.is_empty(), "dataset produced no Gen steps");
    let bundle = build_bundle(ds.graph.clone(), ds.ontology.clone(), &configs);
    let snapshot = Arc::new(IndexSnapshot::from_bundle(bundle.clone()).unwrap());
    let service = Service::start(snapshot, small_service_config());
    let hub = WriteHub::new(Engine::new(bundle, trigger_happy()).unwrap());

    let stream = ingest_stream(&ds.graph, 7, 60);
    let (mut started, mut adopted) = (false, false);
    for chunk in stream.chunks(3) {
        let report = service
            .apply_updates_grouped(&hub, chunk.to_vec())
            .unwrap_or_else(|e| panic!("batch failed: {e}"));
        assert_eq!(report.outcome.applied, chunk.len());
        started |= report.rebuild_started;
        adopted |= report.rebuilt;
    }
    assert!(started, "tight policy never started a background rebuild");
    // Drain the last in-flight build via the explicit poll — writes
    // have stopped, so nothing else will adopt it.
    if hub.with_engine(|e| e.rebuild_in_flight()) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            if service.poll_rebuild(&hub).unwrap() {
                adopted = true;
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background rebuild never finished"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(adopted, "no background rebuild was ever adopted");
    let engine = hub.into_engine();
    assert!(engine.index().verify().is_clean());
    // The served snapshot reflects the adopted engine state, and the
    // incrementally maintained hierarchy answers like a scratch build.
    assert_eq!(
        service.snapshot().expect("mono").index().base(),
        engine.index().base()
    );
    let bench = benchmark_queries(&ds, 3, 4, 7);
    let eq_queries: Vec<KeywordQuery> = bench
        .iter()
        .take(2)
        .map(|q| KeywordQuery::new(q.keywords.clone(), q.dmax))
        .collect();
    assert_answers_match_scratch(engine.index(), &configs, &eq_queries);
    let stats = service.stats();
    assert!(stats.ingest_rebuilds >= 1, "adoption not counted");
    assert!(stats.ingest_batches > 0);
}

/// `max_updates` of the trigger-happy policy the rebuild tests run
/// under: drift recommends a rebuild after this many updates.
const TRIGGER_AFTER: usize = 4;

fn trigger_happy() -> EngineConfig {
    EngineConfig {
        policy: RebuildPolicy {
            alpha: 0.5,
            max_cost_increase: 1e9, // never trip on cost
            max_updates: TRIGGER_AFTER,
        },
        threads: 1,
    }
}

fn small_service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        cache_shards: 2,
        cache_capacity: 32,
        default_deadline: None,
        degradation: None,
    }
}

/// Builds `ds`'s two-layer hierarchy, saves it as generation 1 of a
/// fresh store under `root`, and boots a WAL-backed hub over it.
fn boot_mono(ds: &bgi_datasets::Dataset, root: &std::path::Path) -> (Store, Service, WriteHub) {
    let configs = step_configs(&ds.graph, &ds.ontology, 2);
    assert!(!configs.is_empty(), "dataset produced no Gen steps");
    let bundle = build_bundle(ds.graph.clone(), ds.ontology.clone(), &configs);
    let store = Store::open(root).unwrap();
    store.save(&bundle).unwrap();
    let (engine, replayed) = Engine::with_wal(bundle, EngineConfig::default(), &store).unwrap();
    assert_eq!(replayed, 0, "fresh store must have nothing to replay");
    let snapshot = IndexSnapshot::from_bundle(engine.bundle().clone()).unwrap();
    let service = Service::start(Arc::new(snapshot), small_service_config());
    (store, service, WriteHub::new(engine))
}

/// A commit that changes no layer — an insert of an edge that exists, a
/// delete of one that does not — is logged and acknowledged like any
/// other, but it serves exactly what was served: the snapshot is not
/// swapped and its answer cache survives. A commit that does change the
/// index still swaps and invalidates.
#[test]
fn a_commit_that_changes_nothing_keeps_the_snapshot_and_its_cache() {
    let ds = DatasetSpec::synt(300).generate();
    let dir = TempDir::new("noop-commit");
    let (_store, service, hub) = boot_mono(&ds, dir.path());
    let q = benchmark_queries(&ds, 3, 4, 7)
        .into_iter()
        .next()
        .expect("a benchmark query");
    let req = QueryRequest::new(Semantics::Bkws, q.keywords, q.dmax, 5);
    assert!(!service.query(req.clone()).unwrap().cache_hit);
    assert!(service.query(req.clone()).unwrap().cache_hit);

    let g = &ds.graph;
    let (src, dst) = g.edges().next().expect("an edge");
    let n = g.num_vertices() as u32;
    let absent = (0..n)
        .flat_map(|u| (0..n).map(move |v| (VId(u), VId(v))))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("a non-edge");
    let mut last_seq = None;
    for update in [
        IngestUpdate::InsertEdge {
            src: src.0,
            dst: dst.0,
        },
        IngestUpdate::DeleteEdge {
            src: absent.0 .0,
            dst: absent.1 .0,
        },
    ] {
        let report = service.apply_updates_grouped(&hub, vec![update]).unwrap();
        assert!(report.outcome.seq > last_seq, "{update:?} was not logged");
        last_seq = report.outcome.seq;
        assert!(!report.outcome.changed_index(), "{update:?}");
        assert!(
            service.query(req.clone()).unwrap().cache_hit,
            "{update:?} flushed the answer cache"
        );
    }
    assert_eq!(service.stats().index_swaps, 0);

    let insert = IngestUpdate::InsertEdge {
        src: absent.0 .0,
        dst: absent.1 .0,
    };
    let report = service.apply_updates_grouped(&hub, vec![insert]).unwrap();
    assert!(report.outcome.changed_index());
    assert!(!service.query(req).unwrap().cache_hit);
    assert_eq!(service.stats().index_swaps, 1);
}

/// Cuts `ds` into two shard hierarchies under a fresh sharded root and
/// boots it.
fn boot_two_shards(
    ds: &bgi_datasets::Dataset,
    root: &std::path::Path,
    config: EngineConfig,
) -> (Service, ShardedWriteHub) {
    let store = save_sharded_store(ds, root, 2, 2);
    let (snapshot, hub, _replayed) = boot_sharded(&store, config, 1).expect("boots");
    (
        Service::start_sharded(snapshot, small_service_config()),
        hub,
    )
}

/// The same lifecycle on one shard of a sharded hub: the shard's drift
/// starts its rebuild, a write lands on it mid-build, a later commit
/// adopts — and the sibling shard is never touched.
#[test]
fn one_shards_background_rebuild_adopts_without_touching_its_sibling() {
    const TARGET: usize = 0;
    const SIBLING: usize = 1;
    let ds = DatasetSpec::synt(300).generate();
    let dir = TempDir::new("shard-rebuild");
    let (service, hub) = boot_two_shards(&ds, dir.path(), trigger_happy());

    // Grow four vertices: two per shard (round-robin ownership), which
    // keeps both shards under the policy's trigger. A grown vertex
    // exists only on its owner, so an edge between the target's two is
    // a write to the target shard alone.
    let grow = vec![IngestUpdate::AddVertex { label: 0 }; 4];
    let report = service.apply_updates_sharded(&hub, &grow).unwrap();
    assert!(report.all_committed(), "growth must commit: {report:?}");
    let mine: Vec<u32> = (report.assigned.iter().copied())
        .filter(|gid| *gid as usize % 2 == TARGET)
        .collect();
    let &[a, b] = mine.as_slice() else {
        panic!("round-robin ownership gave the target {mine:?}");
    };
    let sibling_before = Arc::clone(service.sharded().expect("sharded").shard(SIBLING));

    // One single-op commit on the target shard.
    let commit = |update: IngestUpdate| {
        let mut report = service.apply_updates_sharded(&hub, &[update]).unwrap();
        assert!(
            report.per_shard[SIBLING].is_none(),
            "write leaked to sibling"
        );
        report.per_shard[TARGET]
            .take()
            .expect("target had a share")
            .unwrap_or_else(|e| panic!("target commit failed: {e}"))
    };
    let toggle = |k: usize| match k % 2 {
        0 => IngestUpdate::InsertEdge { src: a, dst: b },
        _ => IngestUpdate::DeleteEdge { src: a, dst: b },
    };
    let started = (0..2 * TRIGGER_AFTER).any(|k| commit(toggle(k)).rebuild_started);
    assert!(started, "tight policy never started the shard's rebuild");

    // The write the adoption must not lose, then filler commits until
    // one finds the build finished and adopts it.
    let mut adopted = commit(IngestUpdate::InsertEdge { src: b, dst: a }).rebuilt;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut k = 0;
    while !adopted {
        let now = std::time::Instant::now();
        assert!(now < deadline, "shard rebuild never finished");
        std::thread::sleep(Duration::from_millis(5));
        adopted = commit(toggle(k)).rebuilt;
        k += 1;
    }

    let map = hub.router_snapshot().map(TARGET);
    let local = |gid: u32| VId(map.iter().position(|v| v.0 == gid).expect("on target") as u32);
    hub.with_engine(TARGET, |e| {
        assert!(e.index().verify().is_clean());
        assert!(
            e.index().base().has_edge(local(b), local(a)),
            "the write applied mid-rebuild was lost"
        );
    });
    let served = service.sharded().expect("sharded");
    assert!(
        hub.with_engine(TARGET, |e| e.index().base()
            == served.shard(TARGET).index().base()),
        "served shard is not the adopted engine state"
    );
    assert!(
        Arc::ptr_eq(&sibling_before, served.shard(SIBLING)),
        "the sibling shard's snapshot was replaced"
    );
    assert_eq!(service.stats().ingest_rebuilds, 1);
}

/// A refused batch is one behaviour on every topology: one invalid op
/// among valid ones fails the whole batch with a typed error, nothing
/// is logged or served, and the next valid commit goes through.
#[test]
fn a_batch_with_one_invalid_op_is_refused_whole() {
    enum Hub<'a> {
        Mono(&'a WriteHub),
        Sharded(&'a ShardedWriteHub),
    }
    impl Hub<'_> {
        fn commit(&self, service: &Service, batch: &[IngestUpdate]) -> Result<(), ApplyError> {
            match self {
                Hub::Mono(hub) => service.apply_updates_grouped(hub, batch.to_vec()).map(drop),
                Hub::Sharded(hub) => {
                    let report = service.apply_updates_sharded(hub, batch)?;
                    assert!(report.all_committed(), "a shard failed: {report:?}");
                    Ok(())
                }
            }
        }
        fn fsyncs(&self) -> Vec<u64> {
            match self {
                Hub::Mono(hub) => vec![hub.with_engine(|e| e.wal_fsyncs())],
                Hub::Sharded(hub) => (0..hub.num_shards())
                    .map(|s| hub.with_engine(s, |e| e.wal_fsyncs()))
                    .collect(),
            }
        }
    }
    // Addresses of what the service serves (one of the two is `None`).
    // A caller compares them across a commit while holding the snapshots
    // themselves (`hold`), so a successor cannot reuse a freed address.
    fn hold(service: &Service) -> (Option<Arc<IndexSnapshot>>, Option<Arc<ShardedSnapshot>>) {
        (service.snapshot(), service.sharded())
    }
    fn served(service: &Service) -> (Option<*const IndexSnapshot>, Option<*const ()>) {
        (
            service.snapshot().map(|s| Arc::as_ptr(&s)),
            service.sharded().map(|s| Arc::as_ptr(&s).cast()),
        )
    }

    let ds = DatasetSpec::synt(300).generate();
    let n = ds.graph.num_vertices() as u32;
    let alphabet = ds.ontology.num_labels() as u32;
    let mono_dir = TempDir::new("refuse-mono");
    let shard_dir = TempDir::new("refuse-shards");

    let (_store, mono_service, mono_hub) = boot_mono(&ds, mono_dir.path());
    let (shard_service, shard_hub) =
        boot_two_shards(&ds, shard_dir.path(), EngineConfig::default());
    let topologies = [
        ("monolithic hub", mono_service, Hub::Mono(&mono_hub)),
        ("2-shard hub", shard_service, Hub::Sharded(&shard_hub)),
    ];

    let valid = [
        IngestUpdate::InsertEdge { src: 0, dst: 1 },
        IngestUpdate::AddVertex { label: 0 },
    ];
    let invalid = [
        IngestUpdate::InsertEdge { src: 0, dst: n + 7 },
        IngestUpdate::AddVertex { label: alphabet },
    ];
    for (name, service, hub) in topologies {
        for bad in invalid {
            let (fsyncs, _held) = (hub.fsyncs(), hold(&service));
            let before = served(&service);
            let err = hub
                .commit(&service, &[valid[0], bad, valid[1]])
                .expect_err("an invalid op must refuse the batch");
            // Whichever layer refuses — the router, or the engine
            // through the group — the cause is typed.
            let typed = match &err {
                ApplyError::Route(_) => true,
                ApplyError::Group(cause) => matches!(
                    **cause,
                    ApplyError::Ingest(bgi_ingest::IngestError::InvalidUpdate { index: 1, .. })
                ),
                _ => false,
            };
            assert!(typed, "{name}: {bad:?} refused with {err:?}");
            assert_eq!(hub.fsyncs(), fsyncs, "{name}: refused batch reached a WAL");
            assert_eq!(served(&service), before, "{name}: refused batch was served");
        }
        let (fsyncs, _held, before) = (hub.fsyncs(), hold(&service), served(&service));
        hub.commit(&service, &valid)
            .unwrap_or_else(|e| panic!("{name}: valid batch after a refusal failed: {e}"));
        assert_ne!(hub.fsyncs(), fsyncs, "{name}: commit not logged");
        assert_ne!(served(&service), before, "{name}: commit not served");
    }
}

#[test]
fn storm_with_wal_kills_recovers_to_last_committed_batch() {
    let ds = DatasetSpec::synt(600).generate();
    let configs = step_configs(&ds.graph, &ds.ontology, 2);
    assert!(!configs.is_empty(), "dataset produced no Gen steps");
    let bundle = build_bundle(ds.graph.clone(), ds.ontology.clone(), &configs);

    let dir = TempDir::new("storm");
    let fp = Failpoints::enabled();
    let store = Store::open_with(dir.path(), fp.clone(), RetryPolicy::none()).unwrap();
    store.save(&bundle).unwrap();

    // Service serves throughout; snapshots are swapped by each commit.
    let snapshot = Arc::new(IndexSnapshot::from_bundle(bundle.clone()).unwrap());
    let service = Arc::new(Service::start(
        Arc::clone(&snapshot),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_shards: 4,
            cache_capacity: 128,
            default_deadline: None,
            degradation: None,
        },
    ));

    // Query storm on the side: every response is Ok or a typed
    // admission error; a panic anywhere fails the test via the join.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let bench = benchmark_queries(&ds, 3, 4, 7);
    assert!(!bench.is_empty());
    let requests: Vec<QueryRequest> = bench
        .iter()
        .enumerate()
        .map(|(i, q)| {
            QueryRequest::new(
                Semantics::ALL[i % Semantics::ALL.len()],
                q.keywords.clone(),
                q.dmax,
                5,
            )
        })
        .collect();
    let mut query_threads = Vec::new();
    for t in 0..2usize {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        let requests = requests.clone();
        query_threads.push(std::thread::spawn(move || {
            let mut i = t;
            while !stop.load(Ordering::Relaxed) {
                let req = requests[i % requests.len()].clone();
                match service.query(req) {
                    Ok(_) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("query failed during storm: {e}"),
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }

    // Equivalence workload for the recovered-index checks.
    let eq_queries: Vec<KeywordQuery> = bench
        .iter()
        .take(3)
        .map(|q| KeywordQuery::new(q.keywords.clone(), q.dmax))
        .collect();

    let stream = ingest_stream(&ds.graph, 11, 400);
    let mut shadow = Shadow::of(&ds.graph);
    let mut last_committed_seq = 0u64;

    // Two kill-recover rounds: Crash loses the in-flight batch before
    // any byte lands; Torn leaves a half-written record that replay
    // must discard. Either way recovery lands on the last commit.
    let mut chunks = stream.chunks(40);
    // The batch in flight when a kill hits; the client retries it after
    // recovery (update streams are stateful — later updates may refer
    // to vertices the lost batch added).
    let mut retry: Option<Vec<IngestUpdate>> = None;
    for (round, kill) in [FailAction::Crash, FailAction::Torn]
        .into_iter()
        .enumerate()
    {
        let engine_config = EngineConfig::default();
        let (gen_now, seed) = store.load_latest().unwrap();
        assert!(gen_now >= 1);
        let (engine, _) = Engine::with_wal(seed, engine_config, &store).unwrap();
        // Recovery must have replayed to the last committed batch.
        assert_eq!(
            engine.last_seq(),
            last_committed_seq,
            "round {round}: replay did not land on the last committed batch"
        );
        assert_eq!(
            engine.index().base(),
            &shadow.graph(),
            "round {round}: recovered base graph != shadow of committed batches"
        );
        assert_answers_match_scratch(engine.index(), &configs, &eq_queries);
        service.swap_snapshot(Arc::new(
            IndexSnapshot::from_bundle(engine.bundle().clone()).unwrap(),
        ));
        let hub = WriteHub::new(engine);

        // Apply a few batches cleanly, then die mid-append.
        for i in 0..3 {
            let batch: Vec<IngestUpdate> = match retry.take() {
                Some(b) => b,
                None => match chunks.next() {
                    Some(c) => c.to_vec(),
                    None => break,
                },
            };
            if i == 2 {
                fp.reset(); // hit counters are absolute; target the next append
                fp.arm("wal.append", 1, kill);
                let err = service.apply_updates_grouped(&hub, batch.clone());
                assert!(err.is_err(), "armed append must fail the batch");
                fp.reset();
                retry = Some(batch); // the client will resubmit
                break; // the process "dies" here
            }
            let report = service
                .apply_updates_grouped(&hub, batch.clone())
                .unwrap_or_else(|e| panic!("clean batch failed: {e}"));
            let seq = report.outcome.seq.expect("store-backed engine logs");
            assert_eq!(report.outcome.applied, batch.len());
            shadow.apply(&batch);
            last_committed_seq = seq;
        }
        drop(hub); // process death: the WAL handle goes away
    }

    // Final recovery + checkpoint: the WAL folds into a generation and
    // a cold open replays nothing.
    let (_, seed) = store.load_latest().unwrap();
    let (mut engine, replayed) = Engine::with_wal(seed, EngineConfig::default(), &store).unwrap();
    assert!(replayed > 0, "committed batches should replay");
    assert_eq!(engine.last_seq(), last_committed_seq);
    assert_eq!(engine.index().base(), &shadow.graph());
    assert!(engine.index().verify().is_clean());
    assert_answers_match_scratch(engine.index(), &configs, &eq_queries);

    let generation = engine.checkpoint(&store).unwrap();
    assert!(generation >= 2);
    let (gen2, cold) = store.load_latest().unwrap();
    assert_eq!(gen2, generation);
    let (engine2, replayed2) = Engine::with_wal(cold, EngineConfig::default(), &store).unwrap();
    assert_eq!(replayed2, 0, "checkpoint must truncate the replayed WAL");
    assert!(engine2.index() == engine.index());

    stop.store(true, Ordering::Relaxed);
    for t in query_threads {
        t.join().expect("query thread panicked");
    }
    assert!(
        served.load(Ordering::Relaxed) > 0,
        "storm served no queries"
    );
    let stats = service.stats();
    assert!(stats.ingest_batches > 0);
}

#[test]
fn sixteen_concurrent_single_op_writers_amortize_fsyncs() {
    const WRITERS: usize = 16;
    const CALLS_PER_WRITER: usize = 4;
    const TOTAL_CALLS: usize = WRITERS * CALLS_PER_WRITER;

    let ds = DatasetSpec::synt(300).generate();
    let n = ds.graph.num_vertices() as u32;
    let dir = TempDir::new("group");
    let (store, service, hub) = boot_mono(&ds, dir.path());

    // Every (writer, call) pair inserts a distinct edge, so the final
    // graph is independent of commit order and grouping.
    let edge_for = |t: usize, k: usize| {
        let src = (t * CALLS_PER_WRITER + k) as u32 % n;
        let dst = (src + 1 + t as u32) % n;
        (src, dst)
    };

    let fsyncs_before = hub.with_engine(|e| e.wal_fsyncs());
    let barrier = std::sync::Barrier::new(WRITERS);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..WRITERS {
            let (service, hub, barrier) = (&service, &hub, &barrier);
            handles.push(s.spawn(move || {
                barrier.wait();
                for k in 0..CALLS_PER_WRITER {
                    let (src, dst) = edge_for(t, k);
                    let report = service
                        .apply_updates_grouped(hub, vec![IngestUpdate::InsertEdge { src, dst }])
                        .unwrap_or_else(|e| panic!("writer {t} call {k} failed: {e}"));
                    assert_eq!(report.outcome.applied, 1);
                    assert!(report.outcome.seq.is_some(), "store-backed engine logs");
                }
            }));
        }
        for h in handles {
            h.join().expect("writer panicked");
        }
    });

    // The whole point of group commit: callers share fsyncs. Each
    // commit cycle re-materializes the hierarchy while up to 15 other
    // callers pile into the queue, so the fsync count must sit well
    // below one-per-caller. (A serial write path would spend exactly
    // TOTAL_CALLS fsyncs here.)
    let fsyncs = hub.with_engine(|e| e.wal_fsyncs()) - fsyncs_before;
    assert!(fsyncs >= 1, "WAL-backed writes must fsync at least once");
    assert!(
        fsyncs * 2 <= TOTAL_CALLS as u64,
        "group commit amortized poorly: {fsyncs} fsyncs for {TOTAL_CALLS} callers"
    );
    assert!(service.stats().ingest_batches >= 1);

    // Grouping never merges durability records: every caller's batch is
    // its own WAL record, and the final state reflects every insert.
    let last_seq = hub.with_engine(|e| e.last_seq());
    let engine = hub.into_engine();
    assert!(engine.index().verify().is_clean());
    for t in 0..WRITERS {
        for k in 0..CALLS_PER_WRITER {
            let (src, dst) = edge_for(t, k);
            assert!(
                engine
                    .index()
                    .base()
                    .out_neighbors(VId(src))
                    .contains(&VId(dst)),
                "edge {src}->{dst} from writer {t} call {k} missing from final graph"
            );
        }
    }
    let final_base = engine.index().base().clone();
    drop(engine); // process death: the WAL handle goes away

    let (_, seed) = store.load_latest().unwrap();
    let (recovered, replayed) = Engine::with_wal(seed, EngineConfig::default(), &store).unwrap();
    assert_eq!(
        replayed, TOTAL_CALLS,
        "every caller's batch must replay as a distinct record"
    );
    assert_eq!(recovered.last_seq(), last_seq);
    assert_eq!(recovered.index().base(), &final_base);
    assert!(recovered.index().verify().is_clean());
}
