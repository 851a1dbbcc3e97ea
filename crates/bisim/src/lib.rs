//! # bgi-bisim
//!
//! Maximal-bisimulation graph summarization — the `Bisim` / `Bisim⁻¹`
//! functions of the BiG-index paper (Sec. 2).
//!
//! A bisimulation partitions vertices into equivalence classes such that
//! equivalent vertices carry the same label and their edges can be matched
//! class-to-class. Quotienting a graph by its *maximal* bisimulation yields
//! the smallest summary graph that is **path-preserving** (every path in
//! `G` maps to a path in `Bisim(G)`), which is exactly the property keyword
//! search algorithms need to run unchanged on the summary.
//!
//! The partition refinement here is signature-based: starting from the
//! label partition, each round re-buckets the vertices of every *dirty*
//! block by `(current block, blocks of its neighbors)` until no block
//! splits — the coarsest stable refinement, i.e. the maximal
//! bisimulation. A block is dirty at the start (every block in a build,
//! the endpoints' blocks in a commit) or when a neighbor moved in the
//! previous round. That one loop (`refine.rs`) is the only partition the
//! crate computes: index builds ([`coarsest_stable_refinement`]),
//! incremental maintenance ([`IncrementalBisim`]) and Algo. 1's
//! compression estimates all run it.
//!
//! ```
//! use bgi_graph::{GraphBuilder, LabelId};
//! use bgi_bisim::{maximal_bisimulation, summarize, BisimDirection};
//!
//! // Two structurally identical Person -> Univ branches.
//! let mut b = GraphBuilder::new();
//! let p1 = b.add_vertex(LabelId(0));
//! let p2 = b.add_vertex(LabelId(0));
//! let u = b.add_vertex(LabelId(1));
//! b.add_edge(p1, u);
//! b.add_edge(p2, u);
//! let g = b.build();
//!
//! let part = maximal_bisimulation(&g, BisimDirection::Forward);
//! assert_eq!(part.block_of(p1), part.block_of(p2)); // collapsed
//!
//! let s = summarize(&g, &part);
//! assert_eq!(s.graph.num_vertices(), 2); // {p1,p2} and {u}
//! assert_eq!(s.members(s.supernode_of(p1)), &[p1, p2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incremental;
pub mod partition;
pub mod properties;
pub mod refine;
pub mod summary;

pub use incremental::{Drift, IncrementalBisim, Update};
pub use partition::Partition;
pub use refine::{coarsest_stable_refinement, maximal_bisimulation, BisimDirection};
pub use summary::{quotient_graph, quotient_size, summarize, Summary};
