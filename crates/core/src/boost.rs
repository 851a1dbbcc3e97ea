//! The boosted algorithms of Sec. 5: any [`KeywordSearch`] plugged into
//! BiG-index, with the plug-in's own index prebuilt on *every* layer so
//! query time never includes index construction.
//!
//! `Boosted<Banks>` is **boost-bkws**, `Boosted<Blinks>` is
//! **boost-rkws**, `Boosted<RClique>` is **boost-dkws** (structural
//! realization, per Sec. 5.2's "identical to Sec. 5.1" answer
//! generation; see [`boost_dkws`]).

use crate::eval::{eval_query, EvalOptions, EvalResult, EvalStats, RealizerKind, StepTimings};
use crate::index::BiGIndex;
use crate::query_gen::optimal_layer;
use bgi_search::{
    AnswerGraph, Budget, Completeness, Interrupted, KeywordQuery, KeywordSearch, RClique,
};
use std::time::{Duration, Instant};

/// A keyword search algorithm boosted by a BiG-index.
pub struct Boosted<'a, F: KeywordSearch> {
    index: &'a BiGIndex,
    algo: F,
    layer_indexes: Vec<F::Index>,
    opts: EvalOptions,
}

impl<'a, F: KeywordSearch> Boosted<'a, F> {
    /// Builds `algo`'s per-layer indexes over all layers `0..=h`.
    pub fn new(index: &'a BiGIndex, algo: F, opts: EvalOptions) -> Self {
        let layer_indexes = (0..=index.num_layers())
            .map(|m| algo.build_index(index.graph_at(m)))
            .collect();
        Boosted {
            index,
            algo,
            layer_indexes,
            opts,
        }
    }

    /// The underlying BiG-index.
    pub fn index(&self) -> &BiGIndex {
        self.index
    }

    /// The evaluation options in effect.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The layer the cost model would choose for `query`.
    pub fn chosen_layer(&self, query: &KeywordQuery) -> usize {
        optimal_layer(self.index, query, self.opts.beta)
    }

    /// Evaluates `query` at the cost-optimal layer with the layer-0
    /// fallback — the full Algo. 2, [`eval_query`] with no budget.
    pub fn query(&self, query: &KeywordQuery, k: usize) -> EvalResult {
        self.run(query, k, None)
    }

    /// Evaluates `query` at an explicit layer `m` (Fig. 19's sweep);
    /// never falls back.
    pub fn query_at_layer(&self, query: &KeywordQuery, k: usize, m: usize) -> EvalResult {
        self.run(query, k, Some(m))
    }

    fn run(&self, query: &KeywordQuery, k: usize, layer: Option<usize>) -> EvalResult {
        match eval_query(
            self.index,
            &self.algo,
            &self.layer_indexes,
            query,
            k,
            layer,
            &self.opts,
            &Budget::unlimited(),
        ) {
            Ok(r) => r,
            // Unreachable: an unlimited budget never interrupts.
            Err(Interrupted) => EvalResult {
                answers: Vec::new(),
                layer: layer.unwrap_or(0),
                timings: StepTimings::default(),
                stats: EvalStats::default(),
                fell_back: false,
                completeness: Completeness::Exact,
            },
        }
    }

    /// Runs the *unboosted* baseline: `f` directly on the data graph with
    /// its prebuilt layer-0 index. Returns the answers and the search
    /// wall-clock.
    pub fn baseline(&self, query: &KeywordQuery, k: usize) -> (Vec<AnswerGraph>, Duration) {
        let t = Instant::now();
        let answers = self
            .algo
            .search(self.index.base(), &self.layer_indexes[0], query, k);
        (answers, t.elapsed())
    }
}

/// boost-dkws: r-clique on top of BiG-index. Per Sec. 5.2, the neighbor
/// list is built on each layer and answer generation follows Sec. 5.1's
/// structural realization; because the clique semantics constrains only
/// the keyword nodes' pairwise distances, a generalized answer whose
/// summary witness paths happen not to be edge-realizable falls back to
/// memoized distance verification on `G⁰` instead of being refetched.
pub fn boost_dkws<'a>(
    index: &'a BiGIndex,
    algo: RClique,
    mut opts: EvalOptions,
) -> Boosted<'a, RClique> {
    opts.realizer = RealizerKind::StructuralThenDistance;
    Boosted::new(index, algo, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use bgi_bisim::BisimDirection;
    use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder};
    use bgi_search::blinks::{Blinks, BlinksParams};
    use bgi_search::Banks;

    fn indexed() -> BiGIndex {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(3));
        for i in 0..16 {
            let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        let o = ob.build().unwrap();
        let c = GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        BiGIndex::build_with_configs(g, o, vec![c], BisimDirection::Forward)
    }

    #[test]
    fn boost_bkws_equals_baseline() {
        let idx = indexed();
        let boosted = Boosted::new(&idx, Banks, EvalOptions::default());
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        let (baseline, _) = boosted.baseline(&q, 1000);
        let result = boosted.query(&q, 1000);
        let key = |a: &AnswerGraph| (a.root, a.score);
        let mut b: Vec<_> = baseline.iter().map(key).collect();
        let mut o: Vec<_> = result.answers.iter().map(key).collect();
        b.sort_unstable();
        o.sort_unstable();
        assert_eq!(b, o);
    }

    #[test]
    fn boost_rkws_equals_baseline() {
        let idx = indexed();
        let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
        let boosted = Boosted::new(&idx, blinks, EvalOptions::default());
        let q = KeywordQuery::new(vec![LabelId(2), LabelId(3)], 2);
        let (baseline, _) = boosted.baseline(&q, 1000);
        let result = boosted.query(&q, 1000);
        let key = |a: &AnswerGraph| (a.root, a.score);
        let mut b: Vec<_> = baseline.iter().map(key).collect();
        let mut o: Vec<_> = result.answers.iter().map(key).collect();
        b.sort_unstable();
        o.sort_unstable();
        assert_eq!(b, o);
    }

    #[test]
    fn boost_dkws_hybrid_realizer_validates() {
        let idx = indexed();
        let boosted = boost_dkws(&idx, RClique::default(), EvalOptions::default());
        assert_eq!(
            boosted.options().realizer,
            RealizerKind::StructuralThenDistance
        );
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 4);
        let result = boosted.query(&q, 10);
        assert!(!result.answers.is_empty());
        for a in &result.answers {
            assert!(a.validate(idx.base(), &q.keywords));
        }
    }

    #[test]
    fn merged_keywords_fall_back_to_layer_0() {
        let idx = indexed();
        let boosted = Boosted::new(&idx, Banks, EvalOptions::default());
        // 1 and 2 merge at layer 1: the cost model must choose layer 0.
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(2)], 2);
        assert_eq!(boosted.chosen_layer(&q), 0);
        let result = boosted.query(&q, 10);
        assert_eq!(result.layer, 0);
    }

    #[test]
    fn query_at_each_layer_is_sound() {
        let idx = indexed();
        let boosted = Boosted::new(&idx, Banks, EvalOptions::default());
        let q = KeywordQuery::new(vec![LabelId(1), LabelId(3)], 2);
        for m in 0..=idx.num_layers() {
            let r = boosted.query_at_layer(&q, 100, m);
            for a in &r.answers {
                assert!(a.validate(idx.base(), &q.keywords), "layer {m}");
            }
        }
    }
}
