//! Criterion: answer-graph generation microbenchmarks — Algo. 3
//! (vertex-at-a-time) with and without the specialization-order
//! optimization (Fig. 17's mechanism), and its top-k early termination.

use bgi_graph::{GraphBuilder, LabelId, VId};
use bgi_search::{AnswerGraph, Budget};
use big_index::ans_gen::vertex_answer_generation;
use big_index::spec::SpecializedAnswer;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A star-shaped generalized answer whose center specializes to `width`
/// universities, each connected to one of `width` states, plus a shared
/// organization — Example 4.2's shape, scaled.
fn scenario(width: usize) -> (bgi_graph::DiGraph, AnswerGraph, SpecializedAnswer) {
    let mut b = GraphBuilder::new();
    let academics = b.add_vertex(LabelId(0));
    let org = b.add_vertex(LabelId(3));
    let mut univs = Vec::new();
    let mut states = Vec::new();
    for i in 0..width {
        let u = b.add_vertex(LabelId(1));
        let s = b.add_vertex(LabelId(2));
        b.add_edge(u, s);
        b.add_edge(u, org);
        if i == 0 {
            b.add_edge(academics, u);
        }
        univs.push(u);
        states.push(s);
    }
    let base = b.build();
    let answer = AnswerGraph::new(
        vec![VId(1000), VId(1001), VId(1002), VId(1003)],
        vec![
            (VId(1000), VId(1001)),
            (VId(1001), VId(1002)),
            (VId(1001), VId(1003)),
        ],
        vec![vec![VId(1002)], vec![VId(1003)]],
        Some(VId(1000)),
        3,
    );
    let spec = SpecializedAnswer {
        candidates: vec![vec![academics], univs, states, vec![org]],
        key_of: vec![None, None, Some(0), Some(1)],
        pruned: 0,
    };
    (base, answer, spec)
}

fn bench_realizers(c: &mut Criterion) {
    let budget = Budget::unlimited();
    let mut group = c.benchmark_group("answer_generation");
    for width in [10usize, 100, 1000] {
        let (base, answer, spec) = scenario(width);
        group.bench_with_input(BenchmarkId::new("algo3_ordered", width), &width, |b, _| {
            b.iter(|| vertex_answer_generation(&base, &answer, &spec, true, usize::MAX, &budget));
        });
        group.bench_with_input(
            BenchmarkId::new("algo3_unordered", width),
            &width,
            |b, _| {
                b.iter(|| {
                    vertex_answer_generation(&base, &answer, &spec, false, usize::MAX, &budget)
                });
            },
        );
    }
    group.finish();
}

fn bench_early_termination(c: &mut Criterion) {
    let (base, answer, spec) = scenario(1000);
    let budget = Budget::unlimited();
    let mut group = c.benchmark_group("answer_generation_topk");
    group.bench_function("algo3_all", |b| {
        b.iter(|| vertex_answer_generation(&base, &answer, &spec, true, usize::MAX, &budget));
    });
    group.bench_function("algo3_top1", |b| {
        b.iter(|| vertex_answer_generation(&base, &answer, &spec, true, 1, &budget));
    });
    group.finish();
}

criterion_group!(benches, bench_realizers, bench_early_termination);
criterion_main!(benches);
