//! Snapshot-swap consistency under load.
//!
//! The invariant: while `swap_snapshot` storms in the background, every
//! response a client sees is *exactly* the answer one of the installed
//! snapshots produces — never a mix of old and new index state — and
//! once a swap lands, the cache never serves an answer computed against
//! a previous snapshot.

use bgi_datasets::{benchmark_queries, Dataset, DatasetSpec};
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Budget, RClique};
use bgi_service::{IndexSnapshot, QueryRequest, Semantics, Service, ServiceConfig, SnapshotConfig};
use bgi_store::{IndexBundle, Store};
use big_index::{BiGIndex, BuildParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

mod common;
use common::TempDir;

/// What a client can observe of an execution, minus timing.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    answers: Vec<AnswerGraph>,
    layer: usize,
    fell_back: bool,
}

fn snapshot_of(ds: &Dataset) -> Arc<IndexSnapshot> {
    let params = BuildParams {
        max_layers: 2,
        ..BuildParams::default()
    };
    let index = BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params);
    Arc::new(IndexSnapshot::build_default(index).expect("verified index"))
}

/// Two distinct snapshots (different graphs) plus a workload whose
/// expected outcome differs between them for at least one request.
struct Fixture {
    a: Arc<IndexSnapshot>,
    b: Arc<IndexSnapshot>,
    requests: Vec<QueryRequest>,
    expect_a: Vec<Observed>,
    expect_b: Vec<Observed>,
}

fn expected(snapshot: &IndexSnapshot, requests: &[QueryRequest]) -> Vec<Observed> {
    requests
        .iter()
        .map(|req| {
            let out = snapshot
                .execute(req, &Budget::unlimited())
                .expect("workload queries are valid");
            Observed {
                answers: out.answers,
                layer: out.layer,
                fell_back: out.fell_back,
            }
        })
        .collect()
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds_a = DatasetSpec::yago_like(400).generate();
        let ds_b = DatasetSpec::yago_like(550).generate();
        let a = snapshot_of(&ds_a);
        let b = snapshot_of(&ds_b);
        // Queries drawn from dataset A's label space; both snapshots can
        // evaluate them (the label universe is shared by construction).
        let mut requests = Vec::new();
        for (i, q) in benchmark_queries(&ds_a, 3, 4, 7).iter().enumerate() {
            let semantics = Semantics::ALL[i % Semantics::ALL.len()];
            requests.push(QueryRequest::new(semantics, q.keywords.clone(), q.dmax, 5));
        }
        assert!(!requests.is_empty(), "workload generator came up empty");
        let expect_a = expected(&a, &requests);
        let expect_b = expected(&b, &requests);
        assert_ne!(
            expect_a, expect_b,
            "snapshots must be distinguishable for the stress to mean anything"
        );
        Fixture {
            a,
            b,
            requests,
            expect_a,
            expect_b,
        }
    })
}

#[test]
fn responses_under_swap_storm_match_exactly_one_snapshot() {
    let fx = fixture();
    let service = Arc::new(Service::start(
        Arc::clone(&fx.a),
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            cache_shards: 4,
            cache_capacity: 256,
            default_deadline: None,
            degradation: None,
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));

    // Swap storm: alternate B, A, B, A... while clients hammer.
    let swapper = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let (a, b) = (Arc::clone(&fx.a), Arc::clone(&fx.b));
        std::thread::spawn(move || {
            let mut swaps = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let next = if swaps.is_multiple_of(2) { &b } else { &a };
                service.swap_snapshot(Arc::clone(next));
                swaps += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            swaps
        })
    };

    let clients = 4;
    let per_client = 60;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    for i in 0..per_client {
                        let idx = (c + i) % fx.requests.len();
                        let resp = service
                            .query(fx.requests[idx].clone())
                            .expect("no deadline, no overload at this rate");
                        let got = Observed {
                            answers: resp.answers,
                            layer: resp.layer,
                            fell_back: resp.fell_back,
                        };
                        assert!(
                            got == fx.expect_a[idx] || got == fx.expect_b[idx],
                            "request {idx} observed an answer neither snapshot produces \
                             (cache_hit={}): torn swap",
                            resp.cache_hit
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().is_ok(), "client thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let swaps = swapper.join().expect("swapper thread panicked");
    assert!(swaps > 0, "the storm never swapped");
    assert_eq!(service.stats().index_swaps, u64::from(swaps));
}

#[test]
fn cache_never_serves_stale_generation_after_swap() {
    let fx = fixture();
    let service = Service::start(
        Arc::clone(&fx.a),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_shards: 2,
            cache_capacity: 128,
            default_deadline: None,
            degradation: None,
        },
    );
    // Warm the cache against A.
    for (idx, req) in fx.requests.iter().enumerate() {
        let resp = service.query(req.clone()).expect("served");
        let got = Observed {
            answers: resp.answers,
            layer: resp.layer,
            fell_back: resp.fell_back,
        };
        assert_eq!(got, fx.expect_a[idx], "pre-swap answers come from A");
    }
    service.swap_snapshot(Arc::clone(&fx.b));
    // Every post-swap response — the recompute *and* the subsequent
    // cache hit — must be B's answer. A stale A-entry surviving the
    // swap would fail the first round; a stale insert racing the swap
    // would fail the second.
    for round in 0..2 {
        for (idx, req) in fx.requests.iter().enumerate() {
            let resp = service.query(req.clone()).expect("served");
            let got = Observed {
                answers: resp.answers,
                layer: resp.layer,
                fell_back: resp.fell_back,
            };
            assert_eq!(
                got, fx.expect_b[idx],
                "post-swap round {round} request {idx} served a stale answer \
                 (cache_hit={})",
                resp.cache_hit
            );
        }
    }
    let stats = service.stats();
    assert!(stats.cache.invalidated > 0, "warm entries were invalidated");
}

/// The race the parallel build must not introduce: one thread keeps
/// *building* fresh snapshots with `--build-threads 8`-style parallel
/// per-layer index construction and swapping them in, another keeps
/// hot-reloading a generation persisted with an 8-thread save, while
/// clients hammer queries. Every response must match exactly one of
/// the two known snapshots — a partially built snapshot (some layer
/// indexes missing or half-initialized) would produce answers neither
/// produces, or panic a worker.
#[test]
fn parallel_builds_and_disk_reloads_never_expose_partial_snapshots() {
    let fx = fixture();
    // Persist B's bundle with a parallel encode; the reload thread
    // serves it back. Defaults match `build_default`, so the recovered
    // snapshot answers exactly like `fx.b`.
    let dir = TempDir::new("reload");
    let store = Store::open(dir.path()).expect("store opens");
    let bundle = IndexBundle::build(
        fx.b.index().clone(),
        BlinksParams::default(),
        RClique::default(),
        8,
    );
    store.save_with_threads(&bundle, 8).expect("parallel save");

    let index_a = fx.a.index().clone();
    let service = Arc::new(Service::start(
        Arc::clone(&fx.a),
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            cache_shards: 4,
            cache_capacity: 256,
            default_deadline: None,
            degradation: None,
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Builder storm: full parallel snapshot construction, then swap.
        let builder = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let index_a = index_a.clone();
            s.spawn(move || {
                let mut built = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let config = SnapshotConfig {
                        threads: 8,
                        ..SnapshotConfig::default()
                    };
                    let snapshot = IndexSnapshot::build(index_a.clone(), config)
                        .expect("parallel build verifies");
                    service.swap_snapshot(Arc::new(snapshot));
                    built += 1;
                }
                built
            })
        };
        // Reload storm: recovery-gated swaps from the parallel-saved
        // generation.
        let reloader = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let store = &store;
            s.spawn(move || {
                let mut reloads = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let generation = service.reload_from_disk(store).expect("reload succeeds");
                    assert_eq!(generation, 1);
                    reloads += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                reloads
            })
        };

        let clients = 4;
        let per_client = 40;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    for i in 0..per_client {
                        let idx = (c + i) % fx.requests.len();
                        let resp = service
                            .query(fx.requests[idx].clone())
                            .expect("no deadline, no overload at this rate");
                        let got = Observed {
                            answers: resp.answers,
                            layer: resp.layer,
                            fell_back: resp.fell_back,
                        };
                        assert!(
                            got == fx.expect_a[idx] || got == fx.expect_b[idx],
                            "request {idx} observed an answer neither snapshot produces \
                             (cache_hit={}): partially built snapshot exposed",
                            resp.cache_hit
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().is_ok(), "client thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let built = builder.join().expect("builder thread panicked");
        let reloads = reloader.join().expect("reloader thread panicked");
        assert!(built > 0, "the builder never completed a snapshot");
        assert!(reloads > 0, "the reloader never swapped");
    });
}

#[test]
fn drain_finishes_inflight_and_rejects_new_work() {
    let fx = fixture();
    let mut service = Service::start(
        Arc::clone(&fx.a),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_shards: 2,
            cache_capacity: 64,
            default_deadline: None,
            degradation: None,
        },
    );
    let mut receivers = Vec::new();
    for req in &fx.requests {
        receivers.push(service.submit(req.clone()).expect("admitted"));
    }
    assert!(
        service.drain(Duration::from_secs(30)),
        "a generous grace period must drain a small queue"
    );
    // Everything admitted before the drain completed normally.
    for rx in receivers {
        assert!(rx.recv().expect("reply delivered").is_ok());
    }
    assert_eq!(service.active_jobs(), 0);
    assert_eq!(service.queue_depth(), 0);
    // The service is closed: new work is refused, stats still readable.
    assert!(service.query(fx.requests[0].clone()).is_err());
    let stats = service.stats();
    assert!(stats.served >= fx.requests.len() as u64);
}
