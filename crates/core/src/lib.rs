//! # big-index
//!
//! **BiG-index** — *Bisimulation of Generalized Graph Index* — the
//! primary contribution of Jiang, Choi, Xu & Bhowmick, "A Generic
//! Ontology Framework for Indexing Keyword Search on Massive Graphs"
//! (TKDE 2019 / ICDE 2021).
//!
//! The index generalizes a data graph's labels along an ontology DAG
//! ([`config`], [`index`]), summarizes the generalized graph by maximal
//! bisimulation, and repeats the two steps to form a hierarchy
//! `𝔾 = {G⁰ … Gʰ}`. Configurations are chosen greedily under a cost
//! model balancing compression against semantic distortion
//! ([`cost`], [`distort`], [`compress`], [`heuristic`]).
//!
//! Queries are generalized to the cost-optimal layer ([`query_gen`]),
//! evaluated there by any plugged-in keyword search algorithm
//! (`bgi_search::KeywordSearch`), specialized back down with candidate
//! filtering ([`spec`]), and materialized into final answers by
//! vertex-at-a-time generation ([`ans_gen`], Algo. 3). [`eval`]
//! orchestrates the whole pipeline (Algo. 2) and [`boost`] packages the
//! three boosted algorithms of Sec. 5 (boost-bkws, boost-rkws,
//! boost-dkws).
//!
//! ```
//! use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder};
//! use bgi_search::{Banks, KeywordQuery};
//! use big_index::{BiGIndex, BuildParams, Boosted, EvalOptions};
//!
//! // Person-subtype vertices pointing at a hub.
//! let mut gb = GraphBuilder::new();
//! let hub = gb.add_vertex(LabelId(3));
//! for i in 0..10 {
//!     let v = gb.add_vertex(LabelId(1 + (i % 2) as u32));
//!     gb.add_edge(v, hub);
//! }
//! let g = gb.build();
//! let mut ob = OntologyBuilder::new(4);
//! ob.add_subtype(LabelId(0), LabelId(1));
//! ob.add_subtype(LabelId(0), LabelId(2));
//! let ont = ob.build().unwrap();
//!
//! let index = BiGIndex::build(g, ont, &BuildParams::default());
//! let boosted = Boosted::new(&index, Banks, EvalOptions::default());
//! let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
//! let result = boosted.query(&q, 10);
//! assert!(!result.answers.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod algo1_reference;
pub mod ans_gen;
pub mod boost;
pub mod compress;
pub mod config;
pub mod cost;
pub mod distort;
pub mod eval;
pub mod heuristic;
pub mod index;
pub mod layer;
pub mod maintenance;
pub mod query_gen;
pub mod spec;

pub use boost::{boost_dkws, Boosted};
pub use config::{full_step_config, greedy_full_step_configs, GenConfig};
pub use eval::{eval_at_layer, eval_query, EvalOptions, EvalResult, RealizerKind};
pub use index::{BiGIndex, BuildParams};
// The invariant checker the index validates itself with at build time
// (debug builds and the `validate` feature); re-exported so callers can
// inspect [`bgi_verify::Report`]s from [`BiGIndex::verify`].
pub use bgi_verify as verify;
