//! The plug-in surface for keyword search semantics — the `f` of the
//! paper's problem statement (Def. 2.3).
//!
//! BiG-index only assumes `f` is *label-based* (vertices match keywords
//! by label) and *traversal-based* (its answers survive path-preserving
//! summarization). Any [`KeywordSearch`] implementation can therefore be
//! evaluated on the data graph or on any summary layer unchanged; the
//! index for the layer is rebuilt by [`KeywordSearch::build_index`].
//! Because `f` is label-based, a keyword's content set `V_q` is a
//! function of the layer graph's labels: every implementation reads it
//! from [`DiGraph::vertices_with`], and an algorithm that needs nothing
//! else (BANKS, BLINKS) has `type Index = ()`.

use crate::answer::AnswerGraph;
use crate::cancel::{Budget, Interrupted};
use crate::outcome::SearchOutcome;
use crate::query::KeywordQuery;
use bgi_graph::DiGraph;

/// A keyword search algorithm with a per-graph index.
pub trait KeywordSearch {
    /// The algorithm's precomputed per-graph index.
    type Index;

    /// Human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// The bound on every keyword pair's distance when an answer is
    /// constrained only by those distances (the r-clique semantics):
    /// its witness paths are one choice among many, so Algo. 2 may
    /// accept a specialized answer whose paths do not realize on `G⁰`
    /// once the keyword nodes' distances check out there, within this
    /// bound. Tree semantics, whose answer *is* its paths, keep the
    /// default `None`.
    fn distance_bound(&self, _query: &KeywordQuery) -> Option<u32> {
        None
    }

    /// Builds the algorithm's index over `g`.
    fn build_index(&self, g: &DiGraph) -> Self::Index;

    /// Evaluates `query` on `g` using `index` under a cooperative
    /// [`Budget`], returning up to `k` answers ranked best (lowest
    /// score) first together with a [`crate::Completeness`] marker —
    /// the one search method a plug-in implements.
    ///
    /// The algorithm checks the budget inside its expansion/enumeration
    /// loops. A run that reaches its own termination condition is
    /// [`crate::Completeness::Exact`]. On budget exhaustion the
    /// algorithm returns whatever answers it already discovered, marked
    /// with how much of the search space backs them, instead of
    /// discarding them; [`Interrupted`] is reserved for the case where
    /// *nothing* usable was found before the budget ran out — a caller
    /// never receives an empty best-effort success. An algorithm with
    /// no meaningful partial result may always answer an exhausted
    /// budget with [`Interrupted`]. The strict all-or-nothing view is
    /// `outcome.completeness.is_exact()`.
    fn search_anytime(
        &self,
        g: &DiGraph,
        index: &Self::Index,
        query: &KeywordQuery,
        k: usize,
        budget: &Budget,
    ) -> Result<SearchOutcome, Interrupted>;

    /// [`KeywordSearch::search_anytime`] with no budget: the
    /// algorithm's true top-`k`.
    fn search(
        &self,
        g: &DiGraph,
        index: &Self::Index,
        query: &KeywordQuery,
        k: usize,
    ) -> Vec<AnswerGraph> {
        // The Err arm is unreachable: an unlimited budget never interrupts.
        self.search_anytime(g, index, query, k, &Budget::unlimited())
            .map(|o| o.answers)
            .unwrap_or_default()
    }

    /// Convenience: build the index and search in one call.
    fn search_fresh(&self, g: &DiGraph, query: &KeywordQuery, k: usize) -> Vec<AnswerGraph> {
        let index = self.build_index(g);
        self.search(g, &index, query, k)
    }
}
