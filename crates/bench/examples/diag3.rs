use bgi_datasets::DatasetSpec;
use bgi_search::blinks::{Blinks, BlinksParams};
use big_index::{Boosted, EvalOptions};
use std::time::Instant;

fn main() {
    for spec in [
        DatasetSpec::yago_like(20_000),
        DatasetSpec::imdb_like(20_000),
    ] {
        let ds = spec.generate();
        let (index, _) = bgi_bench::setup::default_index(&ds, 7);
        let min_count = (ds.num_vertices() / 100).max(3) as u32;
        let queries = bgi_datasets::benchmark_queries(&ds, 5, min_count, 0xC0FFEE);
        let blinks = Blinks::new(BlinksParams { prune_dist: 5 });
        let boosted = Boosted::new(&index, blinks, EvalOptions::default());
        println!("== {} sizes={:?}", ds.name, index.layer_sizes());
        for q in &queries {
            let query = q.to_query();
            print!("{} (|Q|={}):", q.id, query.len());
            for m in 0..=index.num_layers() {
                if big_index::query_gen::generalize_query(&index, &query, m).len() != query.len() {
                    print!("  m{m}=merge");
                    continue;
                }
                let t = Instant::now();
                let r = boosted.query_at_layer(&query, 10, m);
                let el = t.elapsed();
                print!("  m{m}={:?}({})", el, r.answers.len());
            }
            println!("  chosen={}", boosted.chosen_layer(&query));
        }
    }
}
