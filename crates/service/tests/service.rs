//! End-to-end service tests: a real dataset, a real BiG-index, and the
//! full admission → cache → execution pipeline.

use bgi_datasets::{benchmark_queries, Dataset, DatasetSpec};
use bgi_service::{
    run_batch, IndexSnapshot, QueryError, QueryRequest, Semantics, Service, ServiceConfig,
};
use big_index::{BiGIndex, BuildParams};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn index_of(ds: &Dataset) -> BiGIndex {
    let params = BuildParams {
        max_layers: 2,
        ..BuildParams::default()
    };
    BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params)
}

/// Dataset and snapshot are expensive to build; every test shares one.
fn shared() -> &'static (Dataset, Arc<IndexSnapshot>) {
    static SHARED: OnceLock<(Dataset, Arc<IndexSnapshot>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let ds = DatasetSpec::yago_like(1200).generate();
        let snapshot =
            Arc::new(IndexSnapshot::build_default(index_of(&ds)).expect("verified index"));
        (ds, snapshot)
    })
}

/// A small mixed-semantics workload from the benchmark generator.
fn workload(ds: &Dataset) -> Vec<QueryRequest> {
    let queries = benchmark_queries(ds, 3, 5, 42);
    assert!(!queries.is_empty(), "workload generator came up empty");
    let mut out = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let semantics = Semantics::ALL[i % Semantics::ALL.len()];
        out.push(QueryRequest::new(semantics, q.keywords.clone(), q.dmax, 5));
    }
    out
}

fn small_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 64,
        cache_shards: 4,
        cache_capacity: 256,
        default_deadline: None,
        degradation: None,
    }
}

#[test]
fn batch_serves_everything_with_cache_hits() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(4));
    let requests = workload(ds);
    let report = run_batch(&service, &requests, 3, 4);
    assert_eq!(report.failed, 0, "no query may fail: {report:?}");
    assert_eq!(report.timeouts, 0, "no deadline set, so no timeouts");
    assert_eq!(report.served, report.total);
    assert!(
        report.cache_hits > 0,
        "repeated workload must hit the cache: {report:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.served, report.served);
    assert_eq!(stats.per_semantics.iter().sum::<u64>(), report.served);
    assert!(stats.cache.hits >= report.cache_hits);
    assert!(stats.p50 > Duration::ZERO);
    assert!(stats.p99 >= stats.p50);
}

#[test]
fn zero_deadline_returns_timeout_not_hang() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(2));
    let mut req = workload(ds).remove(0);
    req.deadline = Some(Duration::ZERO);
    assert_eq!(service.query(req), Err(QueryError::Timeout));
    assert_eq!(service.stats().timeouts, 1);
}

#[test]
fn generous_deadline_still_serves() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(2));
    let mut req = workload(ds).remove(0);
    req.deadline = Some(Duration::from_secs(60));
    let resp = service.query(req).expect("fits the deadline");
    assert!(!resp.cache_hit);
}

#[test]
fn overload_sheds_with_typed_rejection() {
    let (ds, snapshot) = shared();
    let service = Service::start(
        Arc::clone(snapshot),
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..small_config(1)
        },
    );
    let requests = workload(ds);
    let mut receivers = Vec::new();
    let mut shed = 0u32;
    // Far more submissions than a 1-deep queue with 1 worker can hold.
    for i in 0..200 {
        match service.submit(requests[i % requests.len()].clone()) {
            Ok(rx) => receivers.push(rx),
            Err(QueryError::Overloaded { retry_after_hint }) => {
                assert!(retry_after_hint > Duration::ZERO, "hint must be usable");
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert!(shed > 0, "a 1-deep queue must shed under a 200-burst");
    assert_eq!(service.stats().rejected_overload, u64::from(shed));
    // Everything admitted still completes.
    for rx in receivers {
        assert!(rx.recv().expect("worker replies").is_ok());
    }
}

#[test]
fn malformed_requests_get_typed_errors() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(1));
    let empty = QueryRequest::new(Semantics::Bkws, Vec::new(), 3, 5);
    assert_eq!(service.query(empty), Err(QueryError::EmptyQuery));
    let mut bad_layer = workload(ds).remove(0);
    bad_layer.layer = Some(99);
    match service.query(bad_layer) {
        Err(QueryError::InvalidLayer { requested: 99, .. }) => {}
        other => panic!("expected InvalidLayer, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_invalid, 2);
}

#[test]
fn explicit_layer_is_respected() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(1));
    let mut req = workload(ds).remove(0);
    req.layer = Some(0);
    let resp = service.query(req).expect("layer 0 always valid");
    assert_eq!(resp.layer, 0);
    assert!(!resp.fell_back, "explicit layer never falls back");
}

#[test]
fn swap_invalidates_cache_and_counts() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(2));
    let req = workload(ds).remove(0);
    let first = service.query(req.clone()).expect("served");
    assert!(!first.cache_hit);
    let second = service.query(req.clone()).expect("served");
    assert!(second.cache_hit, "identical query must hit the cache");
    let rebuilt = IndexSnapshot::build_default(snapshot.index().clone()).expect("same index");
    service.swap_snapshot(Arc::new(rebuilt));
    let third = service.query(req).expect("served");
    assert!(!third.cache_hit, "swap must invalidate the cache");
    let stats = service.stats();
    assert_eq!(stats.index_swaps, 1);
    assert!(stats.cache.invalidated >= 1);
}

#[test]
fn equivalent_keyword_orderings_share_a_cache_entry() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(1));
    let mut req = workload(ds)
        .into_iter()
        .find(|r| r.keywords.len() >= 2)
        .expect("a multi-keyword query");
    let resp = service.query(req.clone()).expect("served");
    assert!(!resp.cache_hit);
    req.keywords.reverse();
    let resp = service.query(req).expect("served");
    assert!(resp.cache_hit, "keyword order must not affect the key");
}

#[test]
fn shutdown_fails_pending_and_is_idempotent() {
    let (ds, snapshot) = shared();
    let mut service = Service::start(Arc::clone(snapshot), small_config(2));
    let req = workload(ds).remove(0);
    let _ = service.query(req.clone());
    service.shutdown();
    service.shutdown();
    assert_eq!(service.query(req), Err(QueryError::Shutdown));
}

#[test]
fn deadline_storm_yields_anytime_answers_never_empty_timeouts() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(4));
    // dkws requests pinned to layer 0 — the r-clique anytime engine's
    // greedy seed slice runs even on an expired clock, so any query
    // with answers must produce them. First find which ones do.
    let mut storm: Vec<QueryRequest> = Vec::new();
    for mut req in workload(ds) {
        req.semantics = Semantics::Dkws;
        req.layer = Some(0);
        if let Ok(resp) = service.query(req.clone()) {
            if !resp.answers.is_empty() {
                storm.push(req);
            }
        }
    }
    assert!(!storm.is_empty(), "no dkws query has answers");
    // The storm: a soft deadline that is already ash by the time any
    // worker looks at the clock. Soft deadlines anchor at execution
    // start, so nothing times out while queued.
    let mut served = 0u64;
    let mut degraded = 0u64;
    for round in 0..4 {
        for req in &storm {
            let mut req = req.clone();
            req.soft_deadline = Some(Duration::from_nanos(1));
            // Vary k per round so responses can't ride the exact-result
            // cache entries warmed up by the probe above.
            req.k = 50 + round;
            let resp = service
                .query(req)
                .expect("a query with answers must never time out empty");
            assert!(
                !resp.answers.is_empty(),
                "anytime response carries best-effort answers"
            );
            served += 1;
            if !resp.completeness.is_exact() {
                degraded += 1;
            }
        }
    }
    assert!(
        degraded as f64 >= served as f64 * 0.95,
        "a 1ns soft deadline must degrade nearly every response \
         ({degraded}/{served} degraded)"
    );
    let stats = service.stats();
    assert!(stats.anytime_responses >= degraded);
    assert!(
        stats.bound_gap.iter().sum::<u64>() > 0,
        "dkws anytime responses must record their optimality gaps"
    );
}

#[test]
fn min_results_turns_thin_degraded_responses_into_timeouts() {
    let (ds, snapshot) = shared();
    let service = Service::start(Arc::clone(snapshot), small_config(2));
    let mut req = workload(ds)
        .into_iter()
        .find(|r| {
            let mut probe = r.clone();
            probe.semantics = Semantics::Dkws;
            probe.layer = Some(0);
            service
                .query(probe)
                .is_ok_and(|resp| !resp.answers.is_empty())
        })
        .expect("a dkws query with answers");
    req.semantics = Semantics::Dkws;
    req.layer = Some(0);
    req.k = 64; // avoid the probe's cache entry
    req.soft_deadline = Some(Duration::from_nanos(1));
    // Accepting any best-effort result: served.
    req.min_results = 0;
    let resp = service.query(req.clone()).expect("best-effort accepted");
    assert!(!resp.completeness.is_exact());
    // Demanding more answers than a degraded run can deliver: Timeout.
    req.min_results = 10_000;
    req.k = 65;
    assert_eq!(service.query(req), Err(QueryError::Timeout));
}

#[test]
fn degradation_ladder_shrinks_budgets_under_sustained_pressure() {
    let (ds, snapshot) = shared();
    let mut config = small_config(2);
    // A ladder that treats any queue occupancy as pressure and engages
    // after two pressured submissions.
    config.degradation = Some(bgi_service::DegradationPolicy {
        pressure_threshold: 0.0,
        sustain: 2,
        budget_shrink: 0.5,
        floor: Duration::from_millis(1),
    });
    let service = Service::start(Arc::clone(snapshot), config);
    let mut requests = workload(ds);
    for req in &mut requests {
        req.deadline = Some(Duration::from_secs(30));
    }
    for req in requests.iter().cycle().take(16) {
        let _ = service.query(req.clone());
    }
    let stats = service.stats();
    assert!(
        stats.degraded_budget_requests > 0,
        "sustained pressure must engage the ladder: {stats}"
    );
    // A 15 s shrunk budget is still generous: everything serves.
    assert!(stats.served > 0);
}

// ---------------------------------------------------------------------
// The one fallback rule (`big_index::eval_query`), seen through both of
// its callers.
// ---------------------------------------------------------------------

mod fallback_rule {
    use bgi_bisim::BisimDirection;
    use bgi_graph::{GraphBuilder, LabelId, OntologyBuilder};
    use bgi_search::blinks::BlinksParams;
    use bgi_search::{Banks, Blinks, Budget, KeywordQuery, KeywordSearch, RClique};
    use bgi_service::{IndexSnapshot, QueryError, QueryRequest, Semantics};
    use big_index::{boost_dkws, BiGIndex, Boosted, EvalOptions, EvalResult, GenConfig};

    const PERSON: LabelId = LabelId(0);
    const PROF: LabelId = LabelId(1);
    const STUDENT: LabelId = LabelId(2);
    const UNIV: LabelId = LabelId(3);

    /// A hierarchy whose one summary layer loses every answer of
    /// `{Prof, Univ}` to distortion. Ontology: Person ⊐ {Prof, Student},
    /// 8 ⊐ {6, 7}; layer 1 generalizes all four.
    ///
    /// `dept → student`, `dept → univ`, `dept → lab → prof`: on the data
    /// graph `dept` reaches a Prof at distance 2, but on layer 1 its
    /// nearest Person is the student, whose specialization Prop. 4.1
    /// prunes. Forty 6/7-labelled leaves on a second hub collapse to one
    /// supernode, so the cost model still prefers layer 1.
    fn distorted_index() -> BiGIndex {
        let mut gb = GraphBuilder::new();
        let dept = gb.add_vertex(LabelId(9));
        let student = gb.add_vertex(STUDENT);
        let lab = gb.add_vertex(LabelId(4));
        let prof = gb.add_vertex(PROF);
        let univ = gb.add_vertex(UNIV);
        gb.add_edge(dept, student);
        gb.add_edge(dept, univ);
        gb.add_edge(dept, lab);
        gb.add_edge(lab, prof);
        let hub = gb.add_vertex(LabelId(5));
        for i in 0..40 {
            let v = gb.add_vertex(LabelId(6 + i % 2));
            gb.add_edge(v, hub);
        }
        let mut ob = OntologyBuilder::new(10);
        ob.add_subtype(PERSON, PROF);
        ob.add_subtype(PERSON, STUDENT);
        ob.add_subtype(LabelId(8), LabelId(6));
        ob.add_subtype(LabelId(8), LabelId(7));
        let o = ob.build().unwrap();
        let c = GenConfig::new(
            [
                (PROF, PERSON),
                (STUDENT, PERSON),
                (LabelId(6), LabelId(8)),
                (LabelId(7), LabelId(8)),
            ],
            &o,
        )
        .unwrap();
        BiGIndex::build_with_configs(gb.build(), o, vec![c], BisimDirection::Forward)
    }

    /// What the rule decides, and the answers it ends up with.
    #[derive(Debug, PartialEq)]
    struct Verdict {
        layer: usize,
        fell_back: bool,
        exact: bool,
        scores: Vec<u64>,
    }

    fn of_eval(r: &EvalResult) -> Verdict {
        Verdict {
            layer: r.layer,
            fell_back: r.fell_back,
            exact: r.completeness.is_exact(),
            scores: r.answers.iter().map(|a| a.score).collect(),
        }
    }

    fn served(snapshot: &IndexSnapshot, req: &QueryRequest, budget: &Budget) -> Option<Verdict> {
        match snapshot.execute(req, budget) {
            Ok(o) => Some(Verdict {
                layer: o.layer,
                fell_back: o.fell_back,
                exact: o.completeness.is_exact(),
                scores: o.answers.iter().map(|a| a.score).collect(),
            }),
            Err(QueryError::Timeout) => None,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }

    /// One row of the table: `Boosted` (no budget) against
    /// `IndexSnapshot::execute` for one semantics.
    fn check_row<F: KeywordSearch>(
        snapshot: &IndexSnapshot,
        semantics: Semantics,
        boosted: &Boosted<F>,
    ) {
        const K: usize = 5;
        let lost = KeywordQuery::new(vec![PROF, UNIV], 2);
        let mut req = QueryRequest::new(semantics, lost.keywords.clone(), lost.dmax, K);
        let unlimited = Budget::unlimited();
        assert_eq!(boosted.chosen_layer(&lost), 1, "{semantics:?}");
        let baseline: Vec<u64> = boosted
            .baseline(&lost, K)
            .0
            .iter()
            .map(|a| a.score)
            .collect();

        // The chosen layer realizes nothing, exactly: both callers
        // retry on the data graph and agree with the baseline.
        let direct = boosted.query(&lost, K);
        let want = Verdict {
            layer: 0,
            fell_back: true,
            exact: true,
            scores: baseline,
        };
        assert_eq!(of_eval(&direct), want, "{semantics:?}");
        assert_eq!(
            served(snapshot, &req, &unlimited),
            Some(want),
            "{semantics:?}"
        );
        // Layer 0 never specializes, so a non-zero specialization time
        // can only be the failed attempt's, absorbed.
        assert!(!direct.timings.spec_prune.is_zero(), "{semantics:?}");

        // An explicit layer gets the layer it asked for, empty or not.
        let pinned = Verdict {
            layer: 1,
            fell_back: false,
            exact: true,
            scores: Vec::new(),
        };
        assert_eq!(of_eval(&boosted.query_at_layer(&lost, K, 1)), pinned);
        req.layer = Some(1);
        assert_eq!(served(snapshot, &req, &unlimited), Some(pinned));
        req.layer = None;

        // An attempt the budget cut short is a timeout, never an empty
        // success and never a retry: every served outcome of the sweep
        // is the full fallback.
        let mut timeouts = 0;
        for limit in [0u64, 1, 2, 4, 8, 16, 64, 1024] {
            match served(snapshot, &req, &Budget::with_check_limit(limit)) {
                None => timeouts += 1,
                Some(v) => assert!(v.fell_back && v.layer == 0, "{semantics:?} {limit}: {v:?}"),
            }
        }
        assert!(timeouts > 0, "{semantics:?}: widen the sweep");
    }

    #[test]
    fn boosted_and_snapshot_apply_one_fallback_rule() {
        let snapshot = IndexSnapshot::build_default(distorted_index()).expect("verified index");
        let idx = snapshot.index();
        let opts = EvalOptions::default();
        let blinks = Blinks::new(BlinksParams::default());
        check_row(&snapshot, Semantics::Bkws, &Boosted::new(idx, Banks, opts));
        check_row(&snapshot, Semantics::Rkws, &Boosted::new(idx, blinks, opts));
        let dkws = boost_dkws(idx, RClique::default(), opts);
        check_row(&snapshot, Semantics::Dkws, &dkws);
        // r-clique declares its own realization, so the plain
        // construction every other semantics uses is boost-dkws too.
        let plain = Boosted::new(idx, RClique::default(), opts);
        check_row(&snapshot, Semantics::Dkws, &plain);
        for kws in [vec![PROF, UNIV], vec![STUDENT, UNIV]] {
            let q = KeywordQuery::new(kws, 2);
            let req = QueryRequest::new(Semantics::Dkws, q.keywords.clone(), q.dmax, 5);
            let want = of_eval(&dkws.query(&q, 5));
            assert_eq!(of_eval(&plain.query(&q, 5)), want, "{q:?}");
            assert_eq!(
                served(&snapshot, &req, &Budget::unlimited()),
                Some(want),
                "{q:?}"
            );
        }

        // A best-effort attempt that did realize something is returned
        // as it is: r-clique's greedy seed survives a spent budget on
        // the summary layer, and nothing falls back.
        let kept = QueryRequest::new(Semantics::Dkws, vec![STUDENT, UNIV], 2, 5);
        let v = served(&snapshot, &kept, &Budget::with_check_limit(0)).expect("seed answer");
        assert!(
            !v.exact && !v.fell_back && v.layer == 1 && !v.scores.is_empty(),
            "{v:?}"
        );
    }
}
