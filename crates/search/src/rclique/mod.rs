//! `dkws`: distance-based keyword search after r-clique
//! (Kargar & An, VLDB'11).
//!
//! An *r-clique* is a set of keyword nodes — one per query keyword —
//! whose pairwise (undirected) shortest distances are all at most `r`,
//! weighted by the sum of pairwise distances. Computing the optimum is
//! NP-hard; Kargar & An give a greedy 2-approximation for the best
//! answer and enumerate top-k answers by search-space decomposition.
//!
//! Structures:
//! - [`neighbor_index::NeighborIndex`] — for each vertex, the vertices
//!   within `R` undirected hops with their distances (the paper's
//!   "neighbor list"). Materialized up front its `O(mn)` size is what
//!   blows up on IMDB in the original evaluation, so here it has one
//!   representation: a table of per-vertex rows, each filled by a
//!   bounded BFS on first read, shared by every clone of the index and
//!   never written to disk. Building it is `O(n + m)`; an update
//!   carries over every filled row none of its edits can move, and for
//!   an update of one undirected edge that is exactly the rows whose
//!   ball stays the same. The same
//!   traversal kernel ([`bgi_graph::traversal`]) that fills a row also
//!   builds every r-clique answer's witness paths
//!   ([`neighbor_index::clique_answer`]), for this search and for
//!   BiG-index's distance realizer alike.
//! - `search_space` (crate-private) — the interruptible anytime search
//!   space: greedy seed answer, branch-and-bound improvement under a
//!   cooperative budget, and a sound optimality bound on interruption.
//!   It reads distances from per-query keyword-grouped nearest lists
//!   (each content node's content nodes of the other keywords within
//!   `r`, by distance), built once per query from the resident rows on
//!   per-thread dense scratch.
//! - [`search::RClique`] — greedy best answer + Lawler-style top-k
//!   decomposition on top of the engine.

pub mod neighbor_index;
pub mod search;
pub(crate) mod search_space;

pub use neighbor_index::{clique_answer, undirected_distances, NeighborIndex};
pub use search::RClique;
