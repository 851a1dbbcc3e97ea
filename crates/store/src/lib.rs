//! Crash-safe on-disk persistence for the BiG-index.
//!
//! Building the hierarchy (Gen/Bisim layers, configurations `𝒞`,
//! `Bisim⁻¹` tables) is the dominant cost at massive-graph scale, so a
//! serving process must be able to restart without recomputing any of
//! it. No search index is stored beside it: BANKS and BLINKS search
//! each layer graph's own label table, and the r-clique indexes are
//! `O(n + m)` to rebuild. This crate
//! stores the full [`IndexBundle`] in *generation* directories with a
//! write protocol under which a crash at any instant leaves either the
//! previous generation or the new one on disk — never a torn index:
//!
//! 1. every data file is written to `<name>.tmp`, fsynced, and
//!    atomically renamed into place;
//! 2. the `MANIFEST` — the generation's root of trust, listing every
//!    data file with its length and checksum — is written the same way,
//!    **last**; a generation without a committed manifest does not
//!    exist as far as recovery is concerned;
//! 3. the generation directory is fsynced so the renames are durable.
//!
//! Recovery ([`Store::load_latest`]) scans generations newest-first,
//! quarantines partial or corrupt ones with typed errors (never a
//! panic), re-derives the index from the first complete generation, and
//! gates it behind `bgi_verify::check_index` before returning it.
//!
//! All I/O is threaded through a deterministic fault-injection registry
//! ([`Failpoints`]) so tests can fire a transient error, a torn write,
//! or a simulated crash at every labeled point and assert the
//! old-or-new invariant exhaustively (see `tests/crash_matrix.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod codec;
pub mod error;
pub mod failpoint;
pub mod fsio;
pub mod group;
pub mod store;
pub mod wal;

pub use bundle::{build_layer_indexes, IndexBundle};
pub use error::{RetryPolicy, StoreError};
pub use failpoint::{FailAction, Failpoints};
pub use group::CommitQueue;
pub use store::Store;
pub use wal::{GraphUpdate, UpdateBatch, Wal};
