//! Regenerates Fig. 17 and the isKey ablation (Exp-5).
fn main() {
    let scale = bgi_bench::scale_from_env(20_000);
    println!("{}", bgi_bench::experiments::optimizations::run(scale));
}
