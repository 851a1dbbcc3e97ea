//! Direct evaluation, bypassing the service: the three boosted
//! algorithms over one hierarchy, each with per-layer search indexes
//! built here, independently of the ones the service adopted from its
//! store. The reference for correctness checks, and the inner layers of
//! traced replays and per-layer probes.

use bgi_search::answer::rank_and_truncate;
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Banks, Blinks, KeywordQuery, RClique};
use bgi_service::{QueryRequest, Semantics};
use big_index::{boost_dkws, BiGIndex, Boosted, EvalOptions, EvalResult};
use std::time::Duration;

/// `Boosted<Banks>`, `Boosted<Blinks>` and boost-dkws over one index.
pub struct Direct<'a> {
    bkws: Boosted<'a, Banks>,
    rkws: Boosted<'a, Blinks>,
    dkws: Boosted<'a, RClique>,
}

impl<'a> Direct<'a> {
    /// Builds every algorithm's index on every layer of `index`, with
    /// the parameters the deployments use (the product defaults).
    pub fn new(index: &'a BiGIndex) -> Direct<'a> {
        let opts = EvalOptions::default();
        Direct {
            bkws: Boosted::new(index, Banks, opts),
            rkws: Boosted::new(index, Blinks::new(BlinksParams::default()), opts),
            dkws: boost_dkws(index, RClique::default(), opts),
        }
    }

    /// Algo. 2 for `req`: at the pinned layer if it has one, otherwise
    /// `Boosted::query` (cost-optimal layer, layer-0 fallback) — the
    /// same contract as `IndexSnapshot::execute`.
    pub fn query(&self, req: &QueryRequest) -> EvalResult {
        let q = KeywordQuery::new(req.keywords.clone(), req.dmax);
        macro_rules! run {
            ($boosted:expr) => {
                match req.layer {
                    Some(m) => $boosted.query_at_layer(&q, req.k, m),
                    None => $boosted.query(&q, req.k),
                }
            };
        }
        match req.semantics {
            Semantics::Bkws => run!(self.bkws),
            Semantics::Rkws => run!(self.rkws),
            Semantics::Dkws => run!(self.dkws),
        }
    }

    /// The unboosted baseline: the plugged-in algorithm on the data
    /// graph, ranked and truncated like every served answer list.
    pub fn baseline(&self, req: &QueryRequest) -> (Vec<AnswerGraph>, Duration) {
        let q = KeywordQuery::new(req.keywords.clone(), req.dmax);
        let (answers, took) = match req.semantics {
            Semantics::Bkws => self.bkws.baseline(&q, req.k),
            Semantics::Rkws => self.rkws.baseline(&q, req.k),
            Semantics::Dkws => self.dkws.baseline(&q, req.k),
        };
        (rank_and_truncate(answers, req.k), took)
    }
}

/// The scores of an answer list, in rank order — what two *different*
/// structures over one graph (sharded vs monolithic, patched vs rebuilt)
/// must agree on even where ties let them pick different witnesses.
pub fn scores(answers: &[AnswerGraph]) -> Vec<u64> {
    answers.iter().map(|a| a.score).collect()
}
