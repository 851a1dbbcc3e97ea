//! Criterion: BiG-index construction — the default index (one
//! generalization step per layer, Exp-3's setting) and the Algo. 1
//! greedy configuration search.

use bgi_bisim::BisimDirection;
use bgi_datasets::DatasetSpec;
use bgi_graph::sampling::SamplingParams;
use big_index::cost::CostParams;
use big_index::{BiGIndex, BuildParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_default_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("default_index_build");
    group.sample_size(10);
    for scale in [1_000usize, 4_000] {
        let ds = DatasetSpec::yago_like(scale).generate();
        group.bench_with_input(BenchmarkId::new("yago-like", scale), &ds, |b, ds| {
            b.iter(|| bgi_bench::setup::default_index(ds, 7));
        });
    }
    group.finish();
}

fn bench_greedy_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_index_build");
    group.sample_size(10);
    let ds = DatasetSpec::yago_like(2_000).generate();
    let params = BuildParams {
        cost: CostParams::default(),
        sampling: SamplingParams {
            radius: 2,
            num_samples: 100,
            max_ball: 256,
            seed: 1,
        },
        direction: BisimDirection::Forward,
        max_layers: 3,
        min_gain_ratio: 0.98,
        threads: 1,
    };
    group.bench_function("yago-like/2000", |b| {
        b.iter(|| BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params));
    });
    group.finish();
}

criterion_group!(benches, bench_default_index, bench_greedy_build);
criterion_main!(benches);
