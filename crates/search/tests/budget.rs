//! Cooperative-budget behavior of the three plugged-in semantics' one
//! search method: an exhausted budget never yields a result marked
//! exact, an unlimited budget (or a generous deadline) reproduces the
//! plain `search` results exactly and says so.

use bgi_graph::generate::uniform_random;
use bgi_graph::LabelId;
use bgi_search::{
    AnswerGraph, Banks, Blinks, Budget, Interrupted, KeywordQuery, KeywordSearch, RClique,
    SearchOutcome,
};
use std::time::Duration;

/// The strict all-or-nothing view of an outcome: only a run that
/// reached its own termination condition counts (a truncated top-k is
/// not a correct top-k).
fn strict(outcome: Result<SearchOutcome, Interrupted>) -> Result<Vec<AnswerGraph>, Interrupted> {
    match outcome {
        Ok(o) if o.completeness.is_exact() => Ok(o.answers),
        _ => Err(Interrupted),
    }
}

fn check_semantics<F: KeywordSearch>(algo: &F) {
    let g = uniform_random(200, 600, 5, 42);
    let index = algo.build_index(&g);
    let q = KeywordQuery::new(vec![LabelId(0), LabelId(1)], 4);

    // Zero deadline: interrupted or best-effort, never exact, never hangs.
    let expired = Budget::with_timeout(Duration::ZERO);
    assert_eq!(
        strict(algo.search_anytime(&g, &index, &q, 10, &expired)),
        Err(Interrupted),
        "{}: zero budget must interrupt",
        algo.name()
    );

    // Unlimited and generous budgets agree with plain search and are
    // exact.
    let plain = algo.search(&g, &index, &q, 10);
    assert!(!plain.is_empty(), "{}: fixture has answers", algo.name());
    let unlimited = strict(algo.search_anytime(&g, &index, &q, 10, &Budget::unlimited()))
        .expect("unlimited budget never interrupts");
    let generous = strict(algo.search_anytime(
        &g,
        &index,
        &q,
        10,
        &Budget::with_timeout(Duration::from_secs(600)),
    ))
    .expect("generous budget should not interrupt this tiny search");
    let key = |answers: &[AnswerGraph]| {
        answers
            .iter()
            .map(|a| (a.root, a.score))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&plain), key(&unlimited), "{}", algo.name());
    assert_eq!(key(&plain), key(&generous), "{}", algo.name());
}

#[test]
fn banks_respects_budget() {
    check_semantics(&Banks);
}

#[test]
fn blinks_respects_budget() {
    check_semantics(&Blinks::default());
}

#[test]
fn rclique_respects_budget() {
    check_semantics(&RClique::default());
}
