//! The closed-loop load generators. `Service::query` and the grouped
//! write path are blocking calls, so the caller waits for each reply
//! and a slow system receives less load; there is one client
//! ([`crate::spec::LOAD_THREADS`]).
//!
//! With a [`Tracer`] the loops also record a span around every call
//! into a product crate, and for a seeded 1-in-N sample of operations
//! replay the same input layer by layer from outside.

use crate::deploy::{Ack, Deployment, Res};
use crate::direct::Direct;
use crate::pool;
use crate::trace::Tracer;
use bgi_ingest::{Engine, IngestUpdate};
use bgi_search::{AnswerGraph, Budget};
use bgi_service::{IndexSnapshot, QueryRequest, Service};
use bgi_store::{GraphUpdate, Wal};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reads are replayed 1-in-this-many when traced.
pub const READ_REPLAY_EVERY: u64 = 64;
/// Writes are replayed 1-in-this-many when traced.
pub const WRITE_REPLAY_EVERY: u64 = 8;

/// First operation id of reader `reader_no` in slice `slice` of a
/// window: reader in the top 16 bits, slice in the next 16, so no two
/// operations of a run share an id.
pub fn read_op_base(reader_no: usize, slice: usize) -> u64 {
    (reader_no as u64) << 48 | (slice as u64 & 0xFFFF) << 32
}

/// How a reader picks its next request.
pub enum Walk<'a> {
    /// Round-robin over the pool through one cursor shared by all
    /// readers.
    Cyclic(&'a AtomicU64),
    /// This reader's pre-drawn indices, wrapping.
    Sequence(&'a [u32]),
}

/// A reply kept for the correctness checks.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The answers as served.
    pub answers: Vec<AnswerGraph>,
    /// The layer the service reports it evaluated at.
    pub layer: usize,
}

/// What one reader saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Call-to-reply time of every successful query, ns.
    pub latencies_ns: Vec<u64>,
    /// The subset of `latencies_ns` whose reply was a cache hit.
    pub hit_latencies_ns: Vec<u64>,
    /// Queries issued.
    pub attempted: u64,
    /// Errors, refusals, timeouts and non-exact replies, with the first
    /// few messages.
    pub failed: u64,
    /// First failure messages, for the report.
    pub failures: Vec<String>,
    /// First reply per sampled pool index.
    pub captured: BTreeMap<usize, Captured>,
    /// Operation ids that were replayed layer by layer.
    pub replayed_ops: Vec<u64>,
}

impl ReadLog {
    /// Folds another reader's log in.
    pub fn absorb(&mut self, other: ReadLog) {
        self.latencies_ns.extend(other.latencies_ns);
        self.hit_latencies_ns.extend(other.hit_latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        for (i, c) in other.captured {
            self.captured.entry(i).or_insert(c);
        }
        self.replayed_ops.extend(other.replayed_ops);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Everything a reader needs besides the deployment.
pub struct ReadPlan<'a> {
    /// The request pool.
    pub pool: &'a [QueryRequest],
    /// `capture[i]`: keep the first reply to pool request `i` for the
    /// checks.
    pub capture: &'a [bool],
    /// The run seed (drives replay sampling).
    pub seed: u64,
    /// Direct evaluators over the served index, for `core.*` replays
    /// (only where the index is fixed for the window).
    pub direct: Option<&'a Direct<'a>>,
}

/// One closed-loop reader: issues requests until `deadline`, `max_ops`
/// of them at most. Operation `n` of this call gets the id
/// `first_op + n`; the caller keeps the ids of different readers and
/// slices apart (see [`read_op_base`]).
pub fn reader(
    dep: &Deployment,
    plan: &ReadPlan<'_>,
    walk: &Walk<'_>,
    first_op: u64,
    deadline: Instant,
    max_ops: u64,
    mut tracer: Option<&mut Tracer>,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut n = 0u64;
    while n < max_ops && Instant::now() < deadline {
        let i = match walk {
            Walk::Cyclic(cursor) => {
                // relaxed: the cursor publishes nothing but itself.
                cursor.fetch_add(1, Ordering::Relaxed) as usize % plan.pool.len()
            }
            Walk::Sequence(seq) => seq[n as usize % seq.len()] as usize,
        };
        let op_id = first_op + n;
        n += 1;
        let request = plan.pool[i].clone();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open(op_id, None, "op.read"));
        let started = Instant::now();
        let start_ns = tracer.as_deref().map(Tracer::now_ns);
        let reply = dep.service.query(request);
        let took = started.elapsed();
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start_ns) {
            t.push(
                op_id,
                root,
                "service.query",
                start,
                start + took.as_nanos() as u64,
            );
        }
        log.attempted += 1;
        match reply {
            Ok(r) if r.completeness.is_exact() => {
                let ns = took.as_nanos() as u64;
                log.latencies_ns.push(ns);
                if r.cache_hit {
                    log.hit_latencies_ns.push(ns);
                }
                if plan.capture[i] && !log.captured.contains_key(&i) {
                    log.captured.insert(
                        i,
                        Captured {
                            answers: r.answers,
                            layer: r.layer,
                        },
                    );
                }
            }
            Ok(r) => log.fail(format!(
                "request {i}: reply not exact: {:?}",
                r.completeness
            )),
            Err(e) => log.fail(format!("request {i}: {e}")),
        }
        if let Some(t) = tracer.as_deref_mut() {
            if pool::sampled(plan.seed, op_id, READ_REPLAY_EVERY) {
                replay_read(&dep.service, plan, i, op_id, root, t);
                log.replayed_ops.push(op_id);
            }
            if let Some(root) = root {
                t.close(root);
            }
        }
    }
    log
}

/// Replays request `i` from outside, one layer at a time: the snapshot
/// without queue or cache, each shard leg on its own, Algo. 2 with its
/// step timings, and the unboosted baseline.
fn replay_read(
    service: &Service,
    plan: &ReadPlan<'_>,
    i: usize,
    op_id: u64,
    root: Option<u32>,
    t: &mut Tracer,
) {
    let req = &plan.pool[i];
    let budget = Budget::unlimited();
    if let Some(snapshot) = service.snapshot() {
        let _ = t.span(op_id, root, "service.execute", || {
            snapshot.execute(req, &budget)
        });
    }
    if let Some(sharded) = service.sharded() {
        let (_, scatter) = t.span(op_id, root, "service.sharded_execute", || {
            sharded.execute(req, &budget)
        });
        // The legs again, serially; laid under the scatter span from
        // its start, so its self time is `sharded − Σ legs`, and
        // `sharded − max leg` (shard.merge_us) is read off the spans.
        let leg = crate::layers::leg_request(req);
        let mut parts = Vec::with_capacity(sharded.num_shards());
        for s in 0..sharded.num_shards() {
            let started = Instant::now();
            let _ = sharded.shard(s).execute(&leg, &budget);
            parts.push(("service.shard_leg", started.elapsed().as_nanos() as u64));
        }
        t.children_from_durations(scatter, &parts);
    }
    if let Some(direct) = plan.direct {
        let (result, eval) = t.span(op_id, root, "core.eval", || direct.query(req));
        t.children_from_durations(
            eval,
            &[
                ("core.search", result.timings.search.as_nanos() as u64),
                (
                    "core.spec_prune",
                    result.timings.spec_prune.as_nanos() as u64,
                ),
                (
                    "core.answer_gen",
                    result.timings.answer_gen.as_nanos() as u64,
                ),
            ],
        );
        let _ = t.span(op_id, root, "search.baseline", || direct.baseline(req));
    }
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Call-to-ack time of every acknowledged commit, ns.
    pub latencies_ns: Vec<u64>,
    /// Commits attempted.
    pub attempted: u64,
    /// Commits that failed.
    pub failed: u64,
    /// First failure messages.
    pub failures: Vec<String>,
    /// Highest acknowledged WAL sequence per shard.
    pub acked: BTreeMap<usize, u64>,
    /// Σ over acks of per-layer index fates.
    pub reused_layers: u64,
    /// See [`Ack::patched_layers`].
    pub patched_layers: u64,
    /// See [`Ack::rebuilt_layers`].
    pub rebuilt_layers: u64,
    /// Operation ids replayed layer by layer.
    pub replayed_ops: Vec<u64>,
}

impl WriteLog {
    /// Folds a later log of the same deployment in.
    pub fn absorb(&mut self, other: WriteLog) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (s, seq) in other.acked {
            self.acked.insert(s, seq);
        }
        self.reused_layers += other.reused_layers;
        self.patched_layers += other.patched_layers;
        self.rebuilt_layers += other.rebuilt_layers;
        self.replayed_ops.extend(other.replayed_ops);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn record(&mut self, ns: u64, ack: Ack) {
        self.latencies_ns.push(ns);
        for (s, seq) in ack.seqs {
            self.acked.insert(s, seq);
        }
        self.reused_layers += ack.reused_layers as u64;
        self.patched_layers += ack.patched_layers as u64;
        self.rebuilt_layers += ack.rebuilt_layers as u64;
    }
}

/// The write path's layers, driven from outside on shadow state: a WAL
/// of its own, an engine without a log, and an idle service to swap
/// into. The shadow starts from the bundle the deployment serves when
/// the traced writer starts, and catches up on unsampled operations in
/// one batch before each replay, so a replayed op meets the state the
/// real engine had; an op the shadow cannot apply is a failed check.
pub struct WriteShadow {
    wal: Wal,
    engine: Engine,
    service: Service,
    /// Ops applied to the real deployment but not yet to the shadow.
    backlog: Vec<IngestUpdate>,
}

impl WriteShadow {
    /// Shadows the monolithic deployment `dep` as it is now — call it
    /// after the last commit the shadow is not going to see; the WAL
    /// lives in `wal_dir`. `None` for sharded deployments, whose write
    /// path is traced as one span.
    pub fn new(dep: &Deployment, wal_dir: &std::path::Path) -> Res<Option<WriteShadow>> {
        let Some(bundle) = dep.mono_bundle() else {
            return Ok(None);
        };
        std::fs::create_dir_all(wal_dir).map_err(crate::deploy::msg)?;
        let (wal, _) =
            Wal::open(wal_dir, bgi_store::Failpoints::disabled()).map_err(crate::deploy::msg)?;
        let snapshot = IndexSnapshot::from_bundle(bundle.clone()).map_err(crate::deploy::msg)?;
        let service = Service::start(
            Arc::new(snapshot),
            bgi_service::ServiceConfig {
                workers: 1,
                degradation: None,
                ..bgi_service::ServiceConfig::default()
            },
        );
        let engine =
            Engine::new(bundle, crate::deploy::engine_config()).map_err(crate::deploy::msg)?;
        Ok(Some(WriteShadow {
            wal,
            engine,
            service,
            backlog: Vec::new(),
        }))
    }

    fn replay(
        &mut self,
        op: IngestUpdate,
        op_id: u64,
        root: Option<u32>,
        t: &mut Tracer,
    ) -> Res<()> {
        use crate::deploy::msg;
        if !self.backlog.is_empty() {
            let backlog = std::mem::take(&mut self.backlog);
            self.engine.apply_batch(&backlog).map_err(msg)?;
        }
        let n = self.engine.index().base().num_vertices() as u32;
        let logged = match op {
            IngestUpdate::InsertEdge { src, dst } => GraphUpdate::InsertEdge { src, dst },
            IngestUpdate::DeleteEdge { src, dst } => GraphUpdate::DeleteEdge { src, dst },
            IngestUpdate::AddVertex { label } => GraphUpdate::AddVertex { label, expected: n },
        };
        let WriteShadow {
            wal,
            engine,
            service,
            ..
        } = self;
        t.span(op_id, root, "store.wal_append", || wal.append(&[logged]))
            .0
            .map_err(msg)?;
        t.span(op_id, root, "ingest.apply_batch", || {
            engine.apply_batch(&[op])
        })
        .0
        .map_err(msg)?;
        let bundle = engine.bundle().clone();
        let snapshot = t
            .span(op_id, root, "service.from_bundle", || {
                IndexSnapshot::from_bundle(bundle)
            })
            .0
            .map_err(msg)?;
        let snapshot = Arc::new(snapshot);
        t.span(op_id, root, "service.swap_snapshot", || {
            service.swap_snapshot(snapshot);
        });
        Ok(())
    }
}

/// One closed-loop writer: applies `ops` one per call, in order and
/// back to back. `first_op` numbers the operations (for sampling and
/// span ids).
pub fn writer(
    dep: &Deployment,
    ops: &[IngestUpdate],
    first_op: u64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    mut shadow: Option<&mut WriteShadow>,
) -> WriteLog {
    const WRITER_LANE: u64 = 0xFFFF << 48;
    let mut log = WriteLog::default();
    for (n, &op) in ops.iter().enumerate() {
        let op_id = WRITER_LANE | (first_op + n as u64);
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open(op_id, None, "op.write"));
        let started = Instant::now();
        let start_ns = tracer.as_deref().map(Tracer::now_ns);
        let result = dep.apply(op);
        let took = started.elapsed().as_nanos() as u64;
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start_ns) {
            t.push(op_id, root, "service.apply_updates", start, start + took);
        }
        log.attempted += 1;
        match result {
            Ok(ack) => log.record(took, ack),
            Err(e) => log.fail(format!("update {n}: {e}")),
        }
        if let Some(t) = tracer.as_deref_mut() {
            if let Some(shadow) = shadow.as_deref_mut() {
                if pool::sampled(seed, op_id, WRITE_REPLAY_EVERY) {
                    if let Err(e) = shadow.replay(op, op_id, root, t) {
                        log.fail(format!("update {n}: shadow replay: {e}"));
                    }
                    log.replayed_ops.push(op_id);
                } else {
                    shadow.backlog.push(op);
                }
            }
            if let Some(root) = root {
                t.close(root);
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{build, save, ScratchDir};
    use crate::spec::spec;
    use std::path::Path;

    #[test]
    fn operation_ids_differ_across_readers_and_slices() {
        let ids = [
            read_op_base(0, 0),
            read_op_base(0, 1),
            read_op_base(1, 0),
            read_op_base(1, 1),
        ];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| a.abs_diff(*b) >= 1 << 32));
        }
    }

    /// Commits the shadow never saw — among them added vertices that
    /// later ops attach edges to — must not break the replay: the shadow
    /// starts from what the deployment serves when it is created.
    #[test]
    fn a_shadow_made_after_earlier_commits_replays_every_later_op() {
        let spec = spec("mixed_rw", true).unwrap();
        let ds = spec.graph.dataset().generate();
        let pool = pool::request_pool(&spec, &ds, 3);
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = ScratchDir::new(&out, "shadow-test").unwrap();
        let store = scratch.path().join("store");
        save(&build(&spec, &ds).unwrap().0, &store).unwrap();
        let (dep, _) = Deployment::boot(&spec, &store, &pool[0]).unwrap();
        let ops = pool::updates(&ds.graph, 3, 96);
        let (early, late) = ops.split_at(48);
        let log = writer(&dep, early, 0, 3, None, None);
        assert_eq!(log.failed, 0, "{:?}", log.failures);

        let mut shadow = WriteShadow::new(&dep, &scratch.path().join("shadow-wal"))
            .unwrap()
            .expect("a monolithic deployment has a shadow");
        let mut tracer = Tracer::new(Instant::now());
        let log = writer(&dep, late, 48, 3, Some(&mut tracer), Some(&mut shadow));
        assert_eq!(log.failed, 0, "{:?}", log.failures);
        assert!(!log.replayed_ops.is_empty());
        let backlog = std::mem::take(&mut shadow.backlog);
        shadow.engine.apply_batch(&backlog).unwrap();
        assert_eq!(shadow.engine.index().base(), &dep.engine_states()[0].1);
    }
}
