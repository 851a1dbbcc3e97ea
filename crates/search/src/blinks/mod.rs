//! `rkws`: ranked keyword search after BLINKS (He et al. [12]).
//!
//! BLINKS answers the *distinct-root* semantics: for each root `r` that
//! reaches at least one node per query keyword within the pruning bound,
//! the best answer rooted at `r` is scored by
//! `scr(a) = Σ_i dist(r, p_i)`; the query returns the top-k roots.
//!
//! Search expands backward from every keyword's vertex set in
//! round-robin BFS levels, completes a root once every keyword has
//! reached it, and terminates early once the k-th best score is no
//! worse than the bound on any root still open (see [`search`]). It
//! keeps no index and seeds from the layer graph's label table
//! ([`bgi_graph::DiGraph::vertices_with`]): He et al.'s bi-level index
//! (keyword-node lists, a node-keyword map and block lists over a
//! partition) would add nothing here. Its distance-0 entries are the
//! label table, every completed root lies within
//! `d_max ≤ τ_prune` of every keyword so its block filter could never
//! reject, and answer paths descend the distances the expansion
//! already holds. `τ_prune` survives as [`BlinksParams::prune_dist`],
//! the cap on every query's `d_max`.
//!
//! [`partition`] holds the BFS-grown graph partitioner (a stand-in for
//! METIS, see DESIGN.md), which now serves `bgi-shard`'s planner.

pub mod partition;
pub mod search;

pub use partition::{bfs_partition, GraphPartition};
pub use search::{Blinks, BlinksParams};
