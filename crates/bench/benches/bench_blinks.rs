//! Criterion: BLINKS query times with and without BiG-index
//! (the microbenchmark behind Figs. 10–12). BLINKS searches BANKS'
//! label table, so it has no index build of its own to time.

use bgi_bench::setup::Workbench;
use bgi_datasets::DatasetSpec;
use bgi_search::blinks::{Blinks, BlinksParams};
use big_index::{Boosted, EvalOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_blinks_queries(c: &mut Criterion) {
    let wb = Workbench::prepare(&DatasetSpec::yago_like(8_000), 5, 5);
    let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
    let boosted = Boosted::new(&wb.index, blinks, EvalOptions::default());

    let mut group = c.benchmark_group("blinks_yago_like");
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

criterion_group!(benches, bench_blinks_queries);
criterion_main!(benches);
