//! Property tests for the anytime r-clique search.
//!
//! Exploration is deterministic for a given check-limit budget and a
//! larger limit performs a strict superset of a smaller limit's work,
//! so two properties must hold:
//!
//! 1. **Quality is monotone in budget** — the best reported answer's
//!    weight never gets worse as the check limit grows, and once any
//!    budget produces answers, every larger budget does too.
//! 2. **The optimality bound is sound** — for instances small enough to
//!    solve exhaustively, the best reported answer exceeds the true
//!    optimum by at most the reported `Anytime` bound, and an `Exact`
//!    run with unbounded `k` finds the true optimum itself.

use bgi_graph::generate::uniform_random;
use bgi_graph::LabelId;
use bgi_search::{Budget, Completeness, KeywordQuery, KeywordSearch, RClique};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn anytime_quality_is_monotone_in_budget(
        n in 30usize..90,
        extra in 0usize..120,
        seed in 0u64..1_000,
    ) {
        let g = uniform_random(n, n + extra, 4, seed);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
        let mut prev_best: Option<u64> = None;
        for limit in [0u64, 1, 2, 4, 8, 16, 32, 64, 256, 1024, 1 << 20] {
            let best = rc
                .search_anytime(&g, &idx, &q, 5, &Budget::with_check_limit(limit))
                .ok()
                .and_then(|o| o.answers.first().map(|a| a.score));
            match (prev_best, best) {
                (Some(p), Some(b)) => {
                    prop_assert!(
                        b <= p,
                        "limit {limit}: best {b} worse than {p} at a smaller budget"
                    );
                }
                (Some(_), None) => prop_assert!(
                    false,
                    "limit {limit}: answers vanished as the budget grew"
                ),
                _ => {}
            }
            prev_best = best.or(prev_best);
        }
    }

    #[test]
    fn reported_bound_is_sound_vs_exhaustive_optimum(
        n in 20usize..60,
        seed in 0u64..1_000,
        limit in 0u64..200,
    ) {
        let g = uniform_random(n, 2 * n, 3, seed);
        let rc = RClique::default();
        let idx = rc.build_index(&g);
        let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);
        // Exhaustive ground truth: the instance is small enough to try
        // every content pair.
        let mut opt: Option<u64> = None;
        for &u in g.vertices_with(LabelId(0)) {
            for &v in g.vertices_with(LabelId(1)) {
                if let Some(d) = idx.distance(u, v) {
                    if d <= 4 {
                        let w = d as u64;
                        opt = Some(opt.map_or(w, |o: u64| o.min(w)));
                    }
                }
            }
        }
        match rc.search_anytime(&g, &idx, &q, 1_000, &Budget::with_check_limit(limit)) {
            Ok(outcome) => match outcome.completeness {
                Completeness::Exact => {
                    // With k larger than the answer count, an exact run
                    // enumerates everything: the top answer is the true
                    // optimum (both empty when no answer exists).
                    prop_assert_eq!(
                        outcome.answers.first().map(|a| a.score),
                        opt
                    );
                }
                Completeness::Anytime { bound } => {
                    let opt = opt.expect("an answer was found, so one exists");
                    let best = outcome.answers[0].score;
                    prop_assert!(
                        best <= opt + bound,
                        "best {best} exceeds optimum {opt} by more than the bound {bound}"
                    );
                }
                Completeness::Truncated => prop_assert!(
                    false,
                    "rclique never returns a truncated success"
                ),
            },
            // Nothing usable found before the limit: allowed only while
            // the budget is genuinely tiny; with answers present the
            // greedy seed's own op slice guarantees one.
            Err(_) => prop_assert!(
                opt.is_none(),
                "non-empty instance returned Interrupted despite the seed slice"
            ),
        }
    }
}
