//! Deterministic model checking of the service's concurrency protocols.
//!
//! These tests run the *real* service code — single-flight leader
//! election, the cache generation protocol, the background-rebuild
//! handoff — under `bgi-check`'s controlled scheduler, which explores
//! thread interleavings deterministically instead of hoping a stress
//! test stumbles onto the bad one. Exhaustive tests enumerate every
//! schedule within a preemption bound; random tests sample seeded
//! schedules and name the seed on failure so any run is replayable
//! with `BGI_CHECK_SEED=<seed>`.
//!
//! Test-design rules for this file (the scheduler has no clock and
//! controls only facade sync points):
//! - build all shared state inside the `model` closure and join every
//!   spawned thread before it returns;
//! - never block on a bare `std` primitive (mpsc `recv`, std locks) —
//!   the scheduler cannot see it and the run would wedge;
//! - deadlines must be `None` or already in the past: an armed future
//!   timeout can fire at *any* schedule point.

use bgi_check::sync::thread;
use bgi_check::sync::{Mutex, PoisonError};
use bgi_check::{model, Config};
use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder, VId};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate, RebuildPolicy};
use bgi_search::blinks::BlinksParams;
use bgi_search::RClique;
use bgi_service::admission::BoundedQueue;
use bgi_service::cache::{AnswerCache, CacheKey};
use bgi_service::flight::{Flight, SingleFlight};
use bgi_service::snapshot::ExecOutcome;
use bgi_service::{
    IndexSnapshot, Logger, QueryRequest, Semantics, Service, ServiceConfig, WriteHub,
};
use bgi_store::IndexBundle;
use big_index::{BiGIndex, BuildParams};
use std::io::Write;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------

/// The leader errors (leaves without caching anything) and the
/// follower must recover by re-electing itself — in *every*
/// interleaving up to two preemptions.
#[test]
fn single_flight_recovers_from_a_dying_leader() {
    let report = model(Config::exhaustive(2), || {
        let flight: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert_eq!(flight.join(&7, None), Flight::Leader);
        let follower = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || {
                // The self-healing loop from Shared::serve: a coalesced
                // wake means "re-check the cache"; the leader died, so
                // the re-check misses and we join again.
                loop {
                    match flight.join(&7, None) {
                        Flight::Leader => {
                            flight.leave(&7);
                            return true;
                        }
                        Flight::Coalesced => {}
                        Flight::TimedOut => return false,
                    }
                }
            })
        };
        // The leader "dies": releases the key with nothing cached.
        flight.leave(&7);
        let recovered = follower.join().unwrap();
        assert!(recovered, "follower never took over leadership");
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

/// The acceptance self-test: reintroduce the pre-PR-4 bug (a leader
/// whose error path forgets `leave`) and show the checker catches it
/// as a deadlock, names a seed, and reproduces it under replay.
#[test]
fn reintroduced_leaderless_bug_is_caught_and_replayable() {
    fn buggy_schedule() {
        let flight: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert_eq!(flight.join(&7, None), Flight::Leader);
        let follower = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || flight.join(&7, None))
        };
        // BUG (intentional): the leader errors out and returns without
        // `flight.leave(&7)` — the follower waits forever.
        let _ = follower.join();
    }

    let failure = std::panic::catch_unwind(|| {
        model(Config::random(10, 0xB16_B00), buggy_schedule);
    })
    .expect_err("the checker missed a leader that never leaves");
    let msg = failure
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("under seed 0x"),
        "failure does not name its seed: {msg}"
    );
    assert!(
        msg.contains("deadlock") || msg.contains("never notified"),
        "failure is not reported as a deadlock: {msg}"
    );

    // The named seed reproduces the exact failing interleaving.
    let seed_hex = msg
        .split("under seed 0x")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("seed parseable from failure message");
    let seed = u64::from_str_radix(seed_hex, 16).expect("seed is hex");
    let replay = std::panic::catch_unwind(|| {
        model(Config::replay(seed), buggy_schedule);
    });
    assert!(replay.is_err(), "replay of seed {seed:#x} did not fail");
}

/// A follower holding an already-expired deadline must time out (the
/// leader still holds the key), and its retry after the leader departs
/// must win leadership — the regression shape behind coalesced-side
/// deadline handling.
#[test]
fn single_flight_follower_times_out_then_retries() {
    let report = model(Config::exhaustive(2), || {
        let flight: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert_eq!(flight.join(&3, None), Flight::Leader);
        let past = Instant::now() - Duration::from_millis(10);
        let follower = {
            let flight = Arc::clone(&flight);
            thread::spawn(move || flight.join(&3, Some(past)))
        };
        // The key stays held until the follower has its answer, so the
        // expired deadline must surface as TimedOut in every schedule.
        assert_eq!(follower.join().unwrap(), Flight::TimedOut);
        flight.leave(&3);
        // The timed-out requester's retry finds the key free.
        assert_eq!(flight.join(&3, Some(past)), Flight::Leader);
        flight.leave(&3);
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

// ---------------------------------------------------------------------
// Cache generation protocol
// ---------------------------------------------------------------------

fn exec_outcome() -> Arc<ExecOutcome> {
    Arc::new(ExecOutcome {
        answers: Vec::new(),
        layer: 0,
        fell_back: false,
        completeness: bgi_search::Completeness::Exact,
    })
}

fn cache_key() -> CacheKey {
    CacheKey::of(&QueryRequest::new(Semantics::Bkws, vec![LabelId(1)], 3, 5))
}

/// A writer that captured its generation before an invalidation raced
/// in can never leave a stale entry behind: either the insert lands
/// first and is cleared, or the generation check refuses it.
#[test]
fn stale_insert_cannot_survive_invalidation() {
    let report = model(Config::exhaustive(2), || {
        let cache = Arc::new(AnswerCache::new(1, 8));
        let generation = cache.generation();
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.insert_at(generation, cache_key(), exec_outcome()))
        };
        let invalidator = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.invalidate_all())
        };
        writer.join().unwrap();
        invalidator.join().unwrap();
        assert!(
            cache.is_empty(),
            "an entry computed against generation {generation} outlived the swap"
        );
        // A writer at the *current* generation still works.
        cache.insert_at(cache.generation(), cache_key(), exec_outcome());
        assert_eq!(cache.len(), 1);
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

// ---------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------

/// Close racing a blocked consumer: queued work always drains, then
/// the consumer sees end-of-work — never a lost item, never a hang.
#[test]
fn admission_close_drains_blocked_consumer() {
    let report = model(Config::exhaustive(2), || {
        let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = queue.pop() {
                    got.push(v);
                }
                got
            })
        };
        queue.push(1).unwrap();
        queue.close();
        assert_eq!(consumer.join().unwrap(), vec![1]);
    });
    assert!(report.schedules > 1, "exhaustive run explored one schedule");
}

// ---------------------------------------------------------------------
// Background-rebuild handoff (service level)
// ---------------------------------------------------------------------

/// A tiny bundle so each explored schedule rebuilds in microseconds.
fn tiny_bundle() -> IndexBundle {
    static BUNDLE: OnceLock<IndexBundle> = OnceLock::new();
    BUNDLE
        .get_or_init(|| {
            let mut ob = OntologyBuilder::new(4);
            ob.add_subtype(LabelId(0), LabelId(1));
            ob.add_subtype(LabelId(0), LabelId(2));
            let ontology = ob.build().unwrap();
            let mut b = GraphBuilder::new();
            for i in 0..10u32 {
                b.add_vertex(LabelId(1 + (i % 2)));
            }
            for i in 0..9u32 {
                b.add_edge(VId(i), VId(i + 1));
            }
            let g = b.build();
            let index = BiGIndex::build(
                g,
                ontology,
                &BuildParams {
                    max_layers: 1,
                    ..BuildParams::default()
                },
            );
            IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1)
        })
        .clone()
}

fn trigger_happy_engine() -> Engine {
    Engine::new(
        tiny_bundle(),
        EngineConfig {
            policy: RebuildPolicy {
                alpha: 0.5,
                max_cost_increase: 1e9, // never trip on cost
                max_updates: 2,         // trip on update count quickly
            },
            threads: 1,
        },
    )
    .unwrap()
}

fn one_worker_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        cache_shards: 1,
        cache_capacity: 8,
        default_deadline: None,
        degradation: None,
    }
}

/// A log sink the test can read back through the facade (a bare std
/// lock here would be invisible to the scheduler).
#[derive(Clone, Default)]
struct LogCapture(Arc<Mutex<String>>);

impl LogCapture {
    fn contains(&self, needle: &str) -> bool {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(needle)
    }
}

impl Write for LogCapture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_str(&String::from_utf8_lossy(buf));
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A one-worker service over `hub`'s current bundle, with single-edge
/// commits driven through the hub until drift launches the background
/// build.
fn serve_until_rebuild_starts(hub: &WriteHub, log: Logger) -> Service {
    let snapshot = hub.with_engine(|e| IndexSnapshot::from_bundle(e.bundle().clone()));
    let service = Service::start_with_logger(Arc::new(snapshot.unwrap()), one_worker_config(), log);
    let started = (0..8u32).any(|i| {
        service
            .apply_updates_grouped(hub, vec![IngestUpdate::InsertEdge { src: i, dst: 9 }])
            .unwrap()
            .rebuild_started
    });
    assert!(started, "drift policy never recommended a rebuild");
    service
}

/// The write path keeps applying batches while a drift-triggered
/// rebuild runs on its background thread; whenever adoption lands
/// relative to those writes, the engine ends verified with every
/// update present and at least one rebuild counted. One writer thread:
/// the commit queue's own interleavings are `model_wal`'s job.
#[test]
fn rebuild_adoption_races_ongoing_writes() {
    model(Config::random_or_env(8, 0xAD097), || {
        let hub = WriteHub::new(trigger_happy_engine());
        let mut service = serve_until_rebuild_starts(&hub, Logger::disabled());

        // More writes land while the rebuild runs — they become the
        // delta the adoption must replay.
        let mut adopted = false;
        for i in 0..4u32 {
            let update = IngestUpdate::InsertEdge { src: 9 - i, dst: i };
            let report = service.apply_updates_grouped(&hub, vec![update]).unwrap();
            adopted |= report.rebuilt;
        }
        while !adopted {
            adopted = service.poll_rebuild(&hub).unwrap();
        }

        hub.with_engine(|engine| {
            assert!(
                engine.index().verify().is_clean(),
                "adoption broke the index"
            );
            assert!(
                engine.index().base().has_edge(VId(9), VId(0)),
                "a delta write applied mid-rebuild was lost"
            );
        });
        // The delta writes can push drift past the policy threshold
        // again, so a second rebuild may legitimately start and adopt
        // (dropping the hub joins one still running).
        assert!(service.stats().ingest_rebuilds >= 1);
        service.shutdown();
    });
}

/// A rebuild captured from one engine must be discarded — not adopted —
/// once the hub's engine has been replaced (the crash-recovery shape,
/// as `Service::recover_shard` does it, while the build ran).
#[test]
fn stale_rebuild_is_discarded_when_engine_is_replaced() {
    model(Config::random_or_env(8, 0x57A1E), || {
        let hub = WriteHub::new(trigger_happy_engine());
        let capture = LogCapture::default();
        let log = Logger::to(Box::new(capture.clone()));
        let mut service = serve_until_rebuild_starts(&hub, log);

        // Replace the engine mid-rebuild: the job in the slot now
        // describes a dead epoch.
        let seq_before = hub.with_engine(|e| {
            *e = trigger_happy_engine();
            e.last_seq()
        });
        while !capture.contains("stale background rebuild discarded") {
            let adopted = service.poll_rebuild(&hub).unwrap();
            assert!(!adopted, "a stale rebuild was adopted into a fresh engine");
        }
        hub.with_engine(|replacement| {
            assert_eq!(replacement.last_seq(), seq_before);
            assert!(!replacement.rebuild_in_flight());
        });
        assert_eq!(service.stats().ingest_rebuilds, 0);
        service.shutdown();
    });
}
