//! # bgi-search
//!
//! Keyword search algorithms on directed labeled graphs — the plug-in
//! semantics `f` of the BiG-index paper (Secs. 2 and 5):
//!
//! - [`banks`]: **bkws**, backward keyword search in the style of BANKS
//!   (Bhalotia et al., ICDE'02): find roots that reach one node per query
//!   keyword within `d_max` hops, ranked by total root-to-keyword distance.
//! - [`blinks`]: **rkws**, ranked keyword search in the style of BLINKS
//!   (He et al., SIGMOD'07): round-robin backward expansion with top-k
//!   early termination under the distinct-root semantics, over BANKS'
//!   label table.
//! - [`rclique`]: **dkws**, distance-based keyword search in the style of
//!   r-clique (Kargar & An, VLDB'11): a bounded neighbor index, a greedy
//!   approximate best answer, and top-k enumeration by search-space
//!   decomposition.
//!
//! All three implement the [`semantics::KeywordSearch`] trait, which is
//! the exact surface BiG-index needs: they are label-based (match
//! `L(v) = q`) and traversal-based (path-preserving summaries keep their
//! answers), so they run unchanged on summary graphs.
//!
//! For deadline-bound serving, every algorithm's one search method,
//! [`semantics::KeywordSearch::search_anytime`], takes a
//! [`cancel::Budget`] for *cooperative* interruption and returns
//! best-effort results with an explicit [`outcome::Completeness`]
//! marker (the r-clique implementation is a true anytime
//! branch-and-bound with a sound optimality bound); the strict
//! all-or-nothing view is `completeness.is_exact()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod banks;
pub mod bidirectional;
pub mod blinks;
pub mod cancel;
pub mod outcome;
pub mod patch;
pub mod query;
pub mod rclique;
pub mod semantics;

pub use answer::AnswerGraph;
pub use banks::Banks;
pub use bidirectional::Bidirectional;
pub use blinks::Blinks;
pub use cancel::{Budget, BudgetSeed, Interrupted};
pub use outcome::{Completeness, SearchOutcome};
pub use patch::{diff_graphs, GraphDiff};
pub use query::KeywordQuery;
pub use rclique::RClique;
pub use semantics::KeywordSearch;
