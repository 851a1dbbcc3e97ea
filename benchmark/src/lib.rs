//! The repo's benchmark: five workloads over the whole system —
//! hierarchy build, the three search semantics, Algo. 2, the serving
//! layer, the durable write path, sharded scatter–gather — measured end
//! to end and layer by layer, from outside the product crates.
//!
//! See `README.md` for the metric glossary and the workloads'
//! rationale, and `BENCHMARK.json` at the repo root for the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod deploy;
pub mod direct;
pub mod drive;
pub mod fingerprint;
pub mod json;
pub mod layers;
pub mod pool;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
