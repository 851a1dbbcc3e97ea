use bgi_datasets::DatasetSpec;
use bgi_search::blinks::{Blinks, BlinksParams};
use bgi_search::KeywordSearch;
use big_index::query_gen::generalize_query;
use std::time::Instant;

fn main() {
    let spec = DatasetSpec::dbpedia_like(10_000);
    let ds = spec.generate();
    let (index, _) = bgi_bench::setup::default_index(&ds, 7);
    let min_count = (ds.num_vertices() / 100).max(3) as u32;
    let queries = bgi_datasets::benchmark_queries(&ds, 5, min_count, 0xC0FFEE);
    let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
    let q = queries[4].to_query(); // Q5
    println!(
        "layers: {}, sizes: {:?}",
        index.num_layers(),
        index.layer_sizes()
    );
    for m in 0..=2.min(index.num_layers()) {
        let g = index.graph_at(m);
        let gq = generalize_query(&index, &q, m);
        // keyword seed counts
        for &kw in &gq.keywords {
            print!(" kw{kw:?}: seeds={} |", g.vertices_with(kw).len());
        }
        println!();
        let t = Instant::now();
        let ans = blinks.search(g, &(), &gq, 10);
        println!(
            "layer {m}: |G|={} search={:?} answers={} best_scores={:?}",
            g.size(),
            t.elapsed(),
            ans.len(),
            ans.iter().take(5).map(|a| a.score).collect::<Vec<_>>()
        );
    }
}
