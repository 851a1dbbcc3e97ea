//! Property test: scatter–gather over a sharded snapshot answers
//! exactly like the monolithic snapshot on the same graph — for every
//! semantics, at 1/2/4/8 shards — and degrades safely when the budget
//! expires mid-scatter.
//!
//! Small graphs and a generous `k` make the plugged-in search
//! exhaustive, so the merged answer lists are compared exactly: the
//! `(score, identity)` order is total, which makes the top-`k` unique.

use bgi_datasets::{benchmark_queries, Dataset, DatasetSpec};
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Budget, RClique};
use bgi_service::{
    snapshot_from_build, IndexSnapshot, QueryError, QueryRequest, Semantics, ShardedSnapshot,
};
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec};
use bgi_store::IndexBundle;
use big_index::{BiGIndex, BuildParams};
use proptest::prelude::*;
use std::sync::Arc;

const DMAX: u32 = 3;
const K: usize = 25;

fn mono_snapshot(ds: &Dataset) -> IndexSnapshot {
    let params = BuildParams {
        max_layers: 2,
        ..BuildParams::default()
    };
    let index = BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params);
    let bundle = IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1);
    IndexSnapshot::from_bundle(bundle).expect("mono snapshot admits")
}

fn sharded_snapshot(ds: &Dataset, shards: usize) -> Arc<ShardedSnapshot> {
    let plan = ShardPlan::build(
        &ds.graph,
        &ShardSpec {
            shards,
            dmax_ceiling: DMAX,
            partition_block: 0,
        },
    )
    .expect("plan builds");
    let bundles = build_shard_bundles(
        &ds.graph,
        &ds.ontology,
        &plan,
        &ShardBuildParams {
            max_layers: 2,
            ..ShardBuildParams::default()
        },
    );
    snapshot_from_build(Arc::new(plan), bundles, 2).expect("sharded snapshot admits")
}

/// The equality workload runs at layer 0: that is the one layer both
/// deployments evaluate on the *same* structure (the data graph), so
/// the top-`k` is a unique, comparable object. Summary layers are
/// approximate by design (hence the fallback ladder), and the mono and
/// per-shard hierarchies are legitimately different generalization
/// ladders — their summary-layer best-effort sets need not coincide.
fn workload(ds: &Dataset, seed: u64) -> Vec<QueryRequest> {
    let queries = benchmark_queries(ds, DMAX, 3, seed);
    assert!(!queries.is_empty());
    queries
        .iter()
        .enumerate()
        .flat_map(|(i, q)| {
            let semantics = Semantics::ALL[i % Semantics::ALL.len()];
            let mut req = QueryRequest::new(semantics, q.keywords.clone(), q.dmax, K);
            req.layer = Some(0);
            // Every semantics also runs on the first keyword set.
            let extra = Semantics::ALL
                .into_iter()
                .filter(move |&s| i == 0 && s != semantics)
                .map({
                    let keywords = q.keywords.clone();
                    let dmax = q.dmax;
                    move |s| {
                        let mut r = QueryRequest::new(s, keywords.clone(), dmax, K);
                        r.layer = Some(0);
                        r
                    }
                });
            std::iter::once(req).chain(extra)
        })
        .collect()
}

fn rendered(answers: &[AnswerGraph]) -> Vec<String> {
    answers.iter().map(|a| format!("{a:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sharded_answers_match_monolithic(
        n in 150usize..320,
        seed in 0u64..1_000,
    ) {
        let ds = DatasetSpec::yago_like(n).generate();
        let mono = mono_snapshot(&ds);
        let requests = workload(&ds, seed);
        let budget = Budget::unlimited();
        for shards in [1usize, 2, 4, 8] {
            let sharded = sharded_snapshot(&ds, shards);
            for req in &requests {
                let want = mono.execute(req, &budget).expect("mono serves");
                let got = sharded.execute(req, &budget).expect("sharded serves");
                prop_assert!(
                    got.completeness.is_exact(),
                    "{shards} shards: unlimited budget must stay exact"
                );
                prop_assert_eq!(
                    rendered(&got.answers),
                    rendered(&want.answers),
                    "{} shards diverged on {:?} (layer {:?})",
                    shards,
                    req.semantics,
                    req.layer
                );
                // The cost-optimal-layer path (each shard picks its
                // own layer) must still serve and stay exact-marked,
                // even though its best-effort set lives on a different
                // generalization ladder than the monolithic one.
                let mut optimal = req.clone();
                optimal.layer = None;
                let out = sharded.execute(&optimal, &budget).expect("optimal layer serves");
                prop_assert!(out.completeness.is_exact());
            }
        }
    }
}

#[test]
fn expired_budget_times_out_instead_of_lying() {
    let ds = DatasetSpec::yago_like(260).generate();
    let sharded = sharded_snapshot(&ds, 4);
    let req = &workload(&ds, 7)[0];
    // Already-exhausted budget: every leg sheds, and an all-shed
    // scatter is a timeout, not an empty exact answer.
    let expired = Budget::with_timeout(std::time::Duration::ZERO);
    assert!(matches!(
        sharded.execute(req, &expired),
        Err(QueryError::Timeout)
    ));
}

#[test]
fn partial_merges_are_subsets_and_marked_non_exact() {
    let ds = DatasetSpec::yago_like(260).generate();
    let mono = mono_snapshot(&ds);
    let sharded = sharded_snapshot(&ds, 4);
    let mut partial_seen = false;
    for req in workload(&ds, 11) {
        let full: Vec<String> = {
            let out = mono.execute(&req, &Budget::unlimited()).expect("mono");
            rendered(&out.answers)
        };
        // Sweep check-limited budgets from starved to generous: legs
        // drop out at the small limits, finishing the sweep exact.
        for limit in [1u64, 8, 64, 512, 4096, 1 << 20] {
            let budget = Budget::with_check_limit(limit);
            match sharded.execute(&req, &budget) {
                Err(QueryError::Timeout) => {} // every leg shed
                Err(err) => panic!("unexpected failure under pressure: {err}"),
                Ok(out) => {
                    if !out.completeness.is_exact() {
                        partial_seen = true;
                        // A degraded merge reports only genuine answers.
                        for a in rendered(&out.answers) {
                            assert!(full.contains(&a), "degraded merge invented an answer: {a}");
                        }
                    } else {
                        assert_eq!(rendered(&out.answers), full, "exact merge diverged");
                    }
                }
            }
        }
    }
    assert!(
        partial_seen,
        "no budget in the sweep produced a partial merge; widen the sweep"
    );
}

#[test]
fn dmax_above_the_partition_ceiling_is_refused() {
    let ds = DatasetSpec::yago_like(200).generate();
    let sharded = sharded_snapshot(&ds, 2);
    let mut req = workload(&ds, 3)[0].clone();
    req.dmax = DMAX + 1;
    assert!(matches!(
        sharded.execute(&req, &Budget::unlimited()),
        Err(QueryError::DmaxExceedsPartition {
            requested,
            ceiling: DMAX,
        }) if requested == DMAX + 1
    ));
}

#[test]
fn hostile_k_saturates_instead_of_wrapping() {
    // `k` comes off the wire: the per-leg oversampling `2k + 8` must
    // saturate, not overflow (debug panic) or wrap to a tiny per-leg
    // `k` (release: a short list labelled exact).
    let ds = DatasetSpec::yago_like(200).generate();
    let sharded = sharded_snapshot(&ds, 2);
    let budget = Budget::unlimited();
    for mut req in workload(&ds, 5) {
        req.k = 1_000_000;
        let all = sharded.execute(&req, &budget).expect("large k serves");
        req.k = all.answers.len() + 1;
        let want = sharded.execute(&req, &budget).expect("k = answers + 1");
        req.k = usize::MAX;
        let got = sharded.execute(&req, &budget).expect("k = usize::MAX");
        assert!(got.completeness.is_exact());
        assert_eq!(rendered(&got.answers), rendered(&want.answers));
        assert_eq!(got.answers.len(), all.answers.len());
    }
}
