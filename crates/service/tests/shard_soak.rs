//! Shard-local fault isolation: killing one shard's WAL mid-soak
//! neither blocks nor corrupts the other shards, the wounded shard
//! keeps serving its last good snapshot, and `Service::recover_shard`
//! brings it back — after which a reboot from disk reproduces the
//! served state exactly.

use bgi_datasets::{benchmark_queries, Dataset, DatasetSpec};
use bgi_ingest::{EngineConfig, IngestUpdate};
use bgi_search::Budget;
use bgi_service::{boot_sharded, QueryRequest, Semantics, Service, ServiceConfig};
use bgi_shard::ShardedStore;
use bgi_store::{FailAction, Failpoints, RetryPolicy};
use std::sync::Arc;

const SHARDS: usize = 4;
const DMAX: u32 = 2;
const VICTIM: usize = 1;

mod common;
use common::{save_sharded_store, TempDir};

fn workload(ds: &Dataset) -> Vec<QueryRequest> {
    benchmark_queries(ds, DMAX, 3, 17)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut req = QueryRequest::new(
                Semantics::ALL[i % Semantics::ALL.len()],
                q.keywords.clone(),
                q.dmax,
                10,
            );
            req.layer = Some(0);
            req
        })
        .collect()
}

fn answers_of(service: &Service, requests: &[QueryRequest]) -> Vec<Vec<String>> {
    requests
        .iter()
        .map(|req| {
            let resp = service.query(req.clone()).expect("query serves");
            assert!(resp.completeness.is_exact());
            resp.answers.iter().map(|a| format!("{a:?}")).collect()
        })
        .collect()
}

/// One round-robin batch of vertex adds: global numbering assigns one
/// to every shard, so each round gives every shard a share.
fn grow_round(alphabet: u32, round: u32) -> Vec<IngestUpdate> {
    (0..SHARDS as u32)
        .map(|i| IngestUpdate::AddVertex {
            label: (round + i) % alphabet,
        })
        .collect()
}

#[test]
fn one_shards_wal_death_never_blocks_or_corrupts_the_rest() {
    let ds = DatasetSpec::yago_like(420).generate();
    let alphabet = ds.ontology.num_labels() as u32;
    let dir = TempDir::new("shard-wal-death");
    drop(save_sharded_store(&ds, dir.path(), SHARDS, DMAX));

    // Reopen with fault injection armed on the victim shard only.
    let victim_fp = Failpoints::enabled();
    let store = {
        let victim_fp = victim_fp.clone();
        ShardedStore::open_with(dir.path().to_path_buf(), move |s| {
            if s == VICTIM {
                (victim_fp.clone(), RetryPolicy::default())
            } else {
                (Failpoints::disabled(), RetryPolicy::default())
            }
        })
        .expect("sharded store reopens")
    };
    let (snapshot, hub, _replayed) =
        boot_sharded(&store, EngineConfig::default(), 2).expect("boots");
    let hub = Arc::new(hub);
    let service = Service::start_sharded(
        snapshot,
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_shards: 2,
            cache_capacity: 64,
            default_deadline: None,
            degradation: None,
        },
    );
    let requests = workload(&ds);

    // Healthy soak: several rounds of growth + edges, all shards
    // committing, queries interleaved.
    let n = ds.graph.num_vertices() as u32;
    for round in 0..4u32 {
        let mut batch = grow_round(alphabet, round);
        batch.push(IngestUpdate::InsertEdge {
            src: (round * 37) % n,
            dst: (round * 101 + 13) % n,
        });
        let report = service
            .apply_updates_sharded(&hub, &batch)
            .expect("healthy round routes");
        assert!(
            report.all_committed(),
            "healthy round must commit: {report:?}"
        );
        let _ = answers_of(&service, &requests);
    }

    // Kill the victim's WAL: one torn write, then hard crashes on
    // every subsequent append attempt.
    let label = "wal.append";
    let base = victim_fp.hits(label);
    victim_fp.arm(label, base + 1, FailAction::Torn);
    for k in 2..=30 {
        victim_fp.arm(label, base + k, FailAction::Crash);
    }

    // A batch touching every shard: the victim's share fails, the
    // other three commit independently.
    let report = service
        .apply_updates_sharded(&hub, &grow_round(alphabet, 90))
        .expect("routing still succeeds");
    for (s, result) in report.per_shard.iter().enumerate() {
        let result = result.as_ref().expect("every shard had a share");
        if s == VICTIM {
            assert!(result.is_err(), "victim WAL is dead; commit must fail");
        } else {
            assert!(
                result.is_ok(),
                "shard {s} must not be blocked by the victim: {result:?}"
            );
        }
    }

    // The wounded shard keeps serving its last good snapshot: every
    // query still answers, exactly.
    let during_outage = answers_of(&service, &requests);

    // Another wave while the victim is still down — siblings keep
    // absorbing their shares.
    let report = service
        .apply_updates_sharded(&hub, &grow_round(alphabet, 91))
        .expect("routing still succeeds");
    for (s, result) in report.per_shard.iter().enumerate() {
        let result = result.as_ref().expect("every shard had a share");
        assert_eq!(result.is_ok(), s != VICTIM);
    }

    // Heal the medium and recover just the victim; nobody else is
    // touched, reloaded, or frozen.
    victim_fp.reset();
    let replayed = service
        .recover_shard(&hub, &store, VICTIM, EngineConfig::default())
        .expect("victim recovers");
    // Replay covers the healthy soak's appends (the torn tail and the
    // crashed attempts never became durable).
    assert!(replayed > 0, "victim WAL replay found nothing");

    // Full-width writes work again.
    let report = service
        .apply_updates_sharded(&hub, &grow_round(alphabet, 92))
        .expect("post-recovery round routes");
    assert!(
        report.all_committed(),
        "post-recovery commit failed: {report:?}"
    );

    // No shard was corrupted anywhere along the way.
    for s in 0..SHARDS {
        assert!(
            hub.with_engine(s, |e| e.bundle().index.verify().is_clean()),
            "shard {s} hierarchy dirty after the soak"
        );
    }
    let outage_now = answers_of(&service, &requests);
    assert_eq!(during_outage, outage_now, "answers drifted across recovery");

    // Per-shard stats lanes saw the scatter.
    let stats = service.stats();
    assert_eq!(stats.per_shard.len(), SHARDS);
    assert!(stats.per_shard.iter().all(|lane| lane.queries > 0));

    // Durability: a cold reboot from the same root reproduces the
    // served state exactly.
    let served = answers_of(&service, &requests);
    drop(service);
    drop(hub);
    drop(store);
    let store = ShardedStore::open(dir.path().to_path_buf()).expect("reopen clean");
    let (snapshot, _hub, _replayed) =
        boot_sharded(&store, EngineConfig::default(), 2).expect("reboots");
    let rebooted: Vec<Vec<String>> = requests
        .iter()
        .map(|req| {
            snapshot
                .execute(req, &Budget::unlimited())
                .expect("rebooted snapshot serves")
                .answers
                .iter()
                .map(|a| format!("{a:?}"))
                .collect()
        })
        .collect();
    assert_eq!(served, rebooted, "reboot lost or invented answers");
}
