//! Recovery-gated hot reload: `Service::reload_from_disk` swaps in the
//! newest complete on-disk generation, and on *any* failure rolls back
//! to the running snapshot — degraded but serving, with the rollback
//! visible in the stats.

use bgi_datasets::{benchmark_queries, Dataset, DatasetSpec};
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Budget, RClique};
use bgi_service::{IndexSnapshot, QueryRequest, Semantics, Service, ServiceConfig};
use bgi_store::{IndexBundle, Store};
use big_index::{BiGIndex, BuildParams};
use std::sync::Arc;

mod common;
use common::TempDir;

fn bundle_of(ds: &Dataset) -> IndexBundle {
    let params = BuildParams {
        max_layers: 2,
        ..BuildParams::default()
    };
    let index = BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params);
    IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1)
}

fn workload(ds: &Dataset) -> Vec<QueryRequest> {
    let queries = benchmark_queries(ds, 3, 4, 11);
    assert!(!queries.is_empty());
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let semantics = Semantics::ALL[i % Semantics::ALL.len()];
            QueryRequest::new(semantics, q.keywords.clone(), q.dmax, 5)
        })
        .collect()
}

/// Answers the snapshot itself produces for `requests` (minus timing).
fn expected(snapshot: &IndexSnapshot, requests: &[QueryRequest]) -> Vec<Vec<AnswerGraph>> {
    requests
        .iter()
        .map(|req| {
            snapshot
                .execute(req, &Budget::unlimited())
                .expect("valid workload")
                .answers
        })
        .collect()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_shards: 2,
        cache_capacity: 128,
        default_deadline: None,
        degradation: None,
    }
}

#[test]
fn reload_swaps_to_the_new_generation() {
    let ds_a = DatasetSpec::yago_like(300).generate();
    let ds_b = DatasetSpec::yago_like(420).generate();
    let dir = TempDir::new("swap");
    let store = Store::open(dir.path()).expect("store opens");
    store.save(&bundle_of(&ds_a)).expect("save A");

    // Boot the service straight from disk — no hierarchy construction.
    let (generation, loaded) = store.load_latest().expect("recovery");
    assert_eq!(generation, 1);
    let snapshot = IndexSnapshot::from_bundle(loaded).expect("verified bundle");
    let service = Service::start(Arc::new(snapshot), config());

    let requests = workload(&ds_a);
    let before = expected(&service.snapshot().expect("mono"), &requests);

    // A new generation lands on disk; reload picks it up.
    store.save(&bundle_of(&ds_b)).expect("save B");
    assert_eq!(service.reload_from_disk(&store).expect("reload"), 2);
    let after = expected(&service.snapshot().expect("mono"), &requests);
    assert_ne!(before, after, "generations must be distinguishable");
    for (idx, req) in requests.iter().enumerate() {
        let resp = service.query(req.clone()).expect("served");
        assert_eq!(
            resp.answers, after[idx],
            "request {idx} served pre-reload answers"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reload_rollbacks, 0);
    assert_eq!(stats.index_swaps, 1);
}

#[test]
fn corrupt_generation_rolls_back_and_keeps_serving() {
    let ds = DatasetSpec::yago_like(300).generate();
    let dir = TempDir::new("rollback");
    let store = Store::open(dir.path()).expect("store opens");
    store.save(&bundle_of(&ds)).expect("save");
    let (_, loaded) = store.load_latest().expect("recovery");
    let snapshot = IndexSnapshot::from_bundle(loaded).expect("verified bundle");
    let service = Service::start(Arc::new(snapshot), config());

    let requests = workload(&ds);
    let before = expected(&service.snapshot().expect("mono"), &requests);

    // Corrupt the only generation on disk, then ask for a reload.
    let victim = dir.path().join("gen-00000001").join("index.bin");
    let mut bytes = std::fs::read(&victim).expect("read index.bin");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("corrupt index.bin");

    let err = service
        .reload_from_disk(&store)
        .expect_err("corrupt store must not reload");
    let msg = err.to_string();
    assert!(!msg.is_empty());

    // Degraded but serving: the old snapshot still answers, identically.
    for (idx, req) in requests.iter().enumerate() {
        let resp = service.query(req.clone()).expect("still serving");
        assert_eq!(
            resp.answers, before[idx],
            "request {idx} changed after rollback"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.reloads, 0);
    assert_eq!(stats.reload_rollbacks, 1);
    assert_eq!(stats.index_swaps, 0, "nothing was swapped in");
    let line = stats.to_string();
    assert!(
        line.contains("rollbacks 1"),
        "stats line surfaces the rollback: {line}"
    );
}

#[test]
fn empty_store_reload_is_a_typed_rollback() {
    let ds = DatasetSpec::yago_like(300).generate();
    let snapshot = IndexSnapshot::from_bundle(bundle_of(&ds)).expect("verified bundle");
    let service = Service::start(Arc::new(snapshot), config());
    let dir = TempDir::new("empty");
    let store = Store::open(dir.path()).expect("store opens");
    assert!(service.reload_from_disk(&store).is_err());
    assert_eq!(service.stats().reload_rollbacks, 1);
}
