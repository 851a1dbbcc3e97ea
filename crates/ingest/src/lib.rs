//! # bgi-ingest
//!
//! Live updates for a served BiG-index (Sec. 3.2, "Maintenance of
//! BiG-index"): a write path that accepts a stream of graph mutations
//! while the read path keeps answering queries from an immutable
//! snapshot.
//!
//! The paper's maintenance recipe is *eager splits, deferred merges*:
//! an edge update re-refines the existing bisimulation partition until
//! stable again (splits only — cheap, local), leaving a valid but
//! possibly finer-than-maximal summary; the maximal one is recovered by
//! an occasional full recomputation. [`Engine`] industrializes that
//! recipe end to end:
//!
//! 1. **Durability first.** Every accepted batch is appended to a
//!    checksummed, fsynced write-ahead log ([`bgi_store::wal`]) before
//!    it touches any in-memory state. Recovery replays the log's
//!    committed prefix on top of the newest complete store generation;
//!    replay is idempotent, so the crash window between "generation
//!    saved" and "log truncated" is harmless.
//! 2. **Flat-partition apply pipeline.** Rather than re-running the
//!    layer-by-layer construction, the engine keeps one base graph and,
//!    for each layer `m`, a partition of its vertices that is a
//!    bisimulation under the composed generalization map
//!    `C^m ∘ … ∘ C¹`. Stable partitions compose: the flat layer-`m`
//!    partition is stable iff the corresponding iterated hierarchy is,
//!    and split-only refinement preserves the coarseness chain
//!    `P^1 ⊑ P^2 ⊑ …` — so a batch splices the base graph's touched
//!    rows, runs one [`bgi_bisim::IncrementalBisim::apply_batch`] per
//!    layer (a refinement seeded with the endpoints' blocks), and
//!    patches each layer's `χ`, `Bisim⁻¹` and summary rows from the
//!    layer below. The per-layer r-clique indexes are patched with each
//!    layer's exact edge diff (BANKS and BLINKS read the graphs' own
//!    label tables), and everything a batch leaves unchanged
//!    is shared, not copied, with the bundle being served.
//! 3. **Drift-triggered background rebuild.** Deferred merges cost
//!    compression. The engine re-evaluates the construction cost model
//!    (Formula 3, `α·compress + (1−α)·distort`) against the baseline
//!    captured at the last full build and recommends a rebuild once any
//!    layer's cost has drifted past the policy threshold (or a hard
//!    update cap). [`Engine::start_rebuild`] captures the inputs into a
//!    `Send` [`engine::RebuildJob`] that runs the from-scratch
//!    construction off-thread while batches keep applying (buffered as
//!    a delta); [`Engine::finish_rebuild`] adopts the result and
//!    replays the delta. [`Engine::rebuild`] is the inline
//!    (blocking) composition of the two.
//!
//! The serving integration (snapshot swap, cache invalidation,
//! rollback on verification failure) lives in `bgi-service`'s commit
//! routine (`write.rs`); this crate deliberately depends only on
//! graph/bisim/core/store so the pipeline is testable without a
//! server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod policy;
pub mod update;

pub use engine::{ApplyOutcome, Engine, EngineConfig, RebuildJob};
pub use error::IngestError;
pub use policy::{DriftReport, LayerDrift, RebuildPolicy};
pub use update::IngestUpdate;
