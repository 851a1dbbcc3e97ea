//! # bgi-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! BiG-index paper's evaluation (Sec. 6). Each experiment lives in
//! [`experiments`] and has a thin binary wrapper
//! (`cargo run -p bgi-bench --release --bin exp_<name>`); `exp_all`
//! runs the full suite and prints the headline comparison.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Tab. 2 (datasets), Tab. 4 (queries) | [`experiments::datasets`] | `exp_datasets` |
//! | Tab. 3, Fig. 9, construction time | [`experiments::index_sizes`] | `exp_index_sizes` |
//! | Figs. 10–12 (Blinks ± BiG-index) | [`experiments::query_perf`] | `exp_query_blinks` |
//! | Figs. 13–14 (r-clique ± BiG-index) | [`experiments::query_perf`] | `exp_query_rclique` |
//! | Fig. 15 (synthetic scaling) | [`experiments::scaling`] | `exp_synthetic_scaling` |
//! | Fig. 16, Exp-4 (cost model) | [`experiments::cost_model`] | `exp_cost_model` |
//! | Fig. 17, isKey ablation (Fig. 18 retired) | [`experiments::optimizations`] | `exp_optimizations` |
//! | Fig. 19, Exp-6 (layer sweep) | [`experiments::layer_sweep`] | `exp_layer_sweep` |
//! | Serving throughput (beyond the paper) | [`experiments::throughput`] | `exp_throughput` |
//! | Parallel build scaling (beyond the paper) | [`experiments::build_scaling`] | `exp_build_scaling` |
//!
//! `exp_build_scaling` and `exp_throughput` also write their gated
//! metrics as flat JSON ([`json`]) — `BENCH_build.json` and
//! `BENCH_throughput.json` — which CI's `bench_gate` binary compares
//! against `ci/bench_baseline.json`.
//!
//! Scale defaults keep the full suite in laptop range; set `BGI_SCALE`
//! to raise the vertex counts toward the paper's (2.6M–8M).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod setup;

pub use harness::{median_time, TableWriter};
pub use setup::{default_index, scale_from_env, Workbench};
