//! # bgi-service
//!
//! A concurrent query-serving layer over a BiG-index. The index
//! hierarchy `𝔾` is immutable once built (Algo. 2's pipeline is
//! read-only), which makes it ideal for shared-snapshot execution: the
//! service owns an `Arc`-shared [`snapshot::IndexSnapshot`] — the
//! BiG-index plus every plugged-in algorithm's per-layer index — and a
//! fixed pool of worker threads evaluates [`request::QueryRequest`]s
//! against it.
//!
//! The serving pipeline, request to response:
//!
//! 1. **admission** ([`admission`]) — a bounded submission queue sheds
//!    load with a typed [`request::QueryError::Overloaded`] instead of
//!    blocking the caller;
//! 2. **cache** ([`cache`]) — a sharded LRU keyed by the normalized
//!    query (keyword set, semantics, `k`, layer, `d_max`), invalidated
//!    wholesale when the index snapshot is swapped;
//! 3. **coalescing** ([`flight`]) — concurrent misses on the same key
//!    elect one leader to compute while the rest wait and re-read the
//!    cache, so a burst of identical queries costs one execution;
//! 4. **execution** ([`snapshot`]) — Algo. 2 at the requested (or
//!    cost-optimal) layer under a cooperative `bgi_search::Budget`, so a
//!    per-request deadline interrupts the search/specialize/generate
//!    loops mid-flight;
//! 5. **accounting** ([`stats`]) — lock-free counters and a fixed-bucket
//!    latency histogram behind [`stats::ServiceStats`].
//!
//! A snapshot that fails `bgi_verify::check_index` is refused at
//! construction ([`snapshot::SnapshotError`]): a serving process never
//! runs on an index whose invariants don't hold.
//!
//! The service never prints; diagnostics go through [`log::Logger`],
//! which is silent unless given a writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod cache;
pub mod flight;
pub mod log;
pub mod request;
pub mod service;
pub mod sharded;
pub mod snapshot;
pub mod stats;
pub mod write;

pub use batch::{run_batch, BatchReport};
pub use cache::{AnswerCache, CacheStats};
pub use flight::{Flight, SingleFlight};
pub use log::Logger;
pub use request::{QueryError, QueryRequest, QueryResponse, Semantics};
pub use service::{DegradationPolicy, ReloadError, Service, ServiceConfig};
pub use sharded::{boot_sharded, snapshot_from_build, ShardedBootError, ShardedSnapshot};
pub use snapshot::{IndexSnapshot, SnapshotConfig, SnapshotError};
pub use stats::{ServiceStats, ShardLaneStats};
pub use write::{ApplyError, ApplyReport, ShardedApplyReport, ShardedWriteHub, WriteHub};
