//! Criterion: r-clique query times with and without BiG-index
//! (the microbenchmark behind Figs. 13–14), the baseline in the shape
//! of a sharded dkws leg, plus the cost of filling every neighbor-index
//! row — what Kargar & An pay up front.

use bgi_bench::setup::Workbench;
use bgi_datasets::DatasetSpec;
use bgi_graph::LabelId;
use bgi_search::rclique::NeighborIndex;
use bgi_search::{KeywordQuery, KeywordSearch, RClique};
use big_index::{boost_dkws, EvalOptions};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_rclique_queries(c: &mut Criterion) {
    let wb = Workbench::prepare(&DatasetSpec::yago_like(4_000), 5, 4);
    let rc = RClique { radius: 4 };
    let boosted = boost_dkws(&wb.index, rc, EvalOptions::default());

    let mut group = c.benchmark_group("rclique_yago_like");
    group.sample_size(20);
    for q in wb.queries.iter().take(4) {
        let query = q.to_query();
        group.bench_function(format!("{}_baseline", q.id), |b| {
            b.iter(|| boosted.baseline(&query, 10));
        });
        group.bench_function(format!("{}_boosted", q.id), |b| {
            b.iter(|| boosted.query(&query, 10));
        });
    }
    group.finish();
}

/// The baseline at a sharded dkws leg's shape: one road-like shard with
/// its halo holds 1.7k–2.6k vertices, and a leg asks for `2k + 8 = 18`
/// answers at `d_max` 2. Pairs of the most frequent labels; one untimed
/// run first fills the rows the query reads, as on a served snapshot.
fn bench_rclique_road_like(c: &mut Criterion) {
    let ds = DatasetSpec::road_like(2_000).generate();
    let rc = RClique { radius: 4 };
    let index = rc.build_index(&ds.graph);
    let mut labels: Vec<(u32, LabelId)> = (ds.graph.label_counts().into_iter().enumerate())
        .map(|(l, count)| (count, LabelId(l as u32)))
        .collect();
    labels.sort_unstable_by(|a, b| b.cmp(a));
    let mut group = c.benchmark_group("rclique_road_like");
    group.sample_size(20);
    for pair in labels.windows(2).take(4) {
        let query = KeywordQuery::new(vec![pair[0].1, pair[1].1], 2);
        let name = format!("l{}_l{}_baseline", pair[0].1 .0, pair[1].1 .0);
        black_box(rc.search(&ds.graph, &index, &query, 18));
        group.bench_function(name, |b| {
            b.iter(|| rc.search(&ds.graph, &index, &query, 18));
        });
    }
    group.finish();
}

fn bench_neighbor_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_index_fill_all_rows");
    group.sample_size(10);
    for scale in [1_000usize, 3_000] {
        let ds = DatasetSpec::yago_like(scale).generate();
        group.bench_function(format!("yago-like/{scale}/r4"), |b| {
            b.iter(|| {
                let index = NeighborIndex::build(&ds.graph, 4);
                for v in ds.graph.vertices() {
                    black_box(index.neighbors(v));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rclique_queries,
    bench_rclique_road_like,
    bench_neighbor_index
);
criterion_main!(benches);
