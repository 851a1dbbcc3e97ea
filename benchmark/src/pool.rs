//! Seeded input generation: request pools, access sequences, update
//! streams. Everything here is a pure function of the data graph and
//! the run's `--seed`; the program under test only ever sees the
//! results.

use crate::spec::{Access, Spec, Topology};
use bgi_datasets::queries::related_query_with;
use bgi_datasets::zipf::Zipf;
use bgi_datasets::{update_stream, Dataset, UpdateMix, UpdateOp};
use bgi_graph::{DiGraph, LabelId};
use bgi_ingest::IngestUpdate;
use bgi_service::{QueryRequest, Semantics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent stream seed from the run seed and a purpose
/// tag (splitmix64 finalizer), so pools, sequences and update streams
/// never share an rng stream.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream tags for [`derive_seed`].
pub mod tag {
    /// Request pool membership and order.
    pub const POOL: u64 = 1;
    /// Update stream.
    pub const UPDATES: u64 = 2;
    /// Access sequence of reader `t` is `ACCESS + t`.
    pub const ACCESS: u64 = 0x100;
    /// Which operations are sampled for checks and replays.
    pub const SAMPLE: u64 = 3;
}

/// Up to `want` distinct mixed-semantics requests whose keywords
/// co-occur within `dmax` hops (so answers exist). Semantics rotate
/// bkws/rkws/dkws; a request is distinct by (semantics, keyword set),
/// which is what the answer cache keys on.
///
/// Passes go from strict to lax keyword filters: a strict pass yields
/// the paper-like "frequent, dominant keyword" queries, later passes
/// only top the pool up on small graphs.
pub fn mixed_requests(
    ds: &Dataset,
    dmax: u32,
    k: usize,
    seed: u64,
    want: usize,
) -> Vec<QueryRequest> {
    let min_count = (ds.num_vertices() / 100).max(3) as u32;
    let sizes = [2usize, 3, 2, 3, 4, 2, 3, 5];
    let passes = [
        (min_count, true),
        ((min_count / 4).max(1), true),
        (1, true),
        (min_count, false),
        (1, false),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<QueryRequest> = Vec::with_capacity(want);
    let mut seen: std::collections::HashSet<(usize, Vec<LabelId>)> =
        std::collections::HashSet::new();
    for (threshold, dominant) in passes {
        // Bounded draws per pass: a degenerate graph must not loop.
        for draw in 0..want * 4 {
            if out.len() == want {
                return out;
            }
            let size = sizes[draw % sizes.len()];
            let Some(keywords) = related_query_with(ds, size, dmax, threshold, dominant, &mut rng)
            else {
                continue;
            };
            let semantics = Semantics::ALL[out.len() % Semantics::ALL.len()];
            let mut key = keywords.clone();
            key.sort_unstable();
            if seen.insert((semantics.index(), key)) {
                out.push(QueryRequest::new(semantics, keywords, dmax, k));
            }
        }
    }
    out
}

/// The sharded pool: pairwise-distance queries (rkws/dkws alternating)
/// over pairs of the graph's most frequent labels — the regime where
/// each shard enumerates pairs inside its own universe only — topped up
/// to `want` with seeded bkws queries. Every fourth request pins
/// `layer = 0`, the one layer where sharded and monolithic deployments
/// evaluate the same structure and their answers are comparable.
pub fn sharded_requests(
    ds: &Dataset,
    dmax: u32,
    k: usize,
    seed: u64,
    want: usize,
) -> Vec<QueryRequest> {
    let mut by_freq: Vec<(u32, u32)> = ds
        .graph
        .label_counts()
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(l, c)| (l as u32, c))
        .collect();
    by_freq.sort_unstable_by_key(|&(l, c)| (std::cmp::Reverse(c), l));
    let top: Vec<LabelId> = by_freq.iter().take(12).map(|&(l, _)| LabelId(l)).collect();
    let mut pairs: Vec<(LabelId, LabelId)> = Vec::new();
    for i in 0..top.len() {
        for j in i + 1..top.len() {
            pairs.push((top[i], top[j]));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    shuffle(&mut pairs, &mut rng);
    pairs.truncate(want * 5 / 8);
    let mut out: Vec<QueryRequest> = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| {
            let semantics = if i % 2 == 0 {
                Semantics::Rkws
            } else {
                Semantics::Dkws
            };
            QueryRequest::new(semantics, vec![a, b], dmax, k)
        })
        .collect();
    let bkws_seed = derive_seed(seed, 0xB);
    for mut r in mixed_requests(ds, dmax, k, bkws_seed, want) {
        if out.len() == want {
            break;
        }
        r.semantics = Semantics::Bkws;
        let dup = out
            .iter()
            .any(|o| o.semantics == r.semantics && same_keywords(&o.keywords, &r.keywords));
        if !dup {
            out.push(r);
        }
    }
    shuffle(&mut out, &mut rng);
    for r in out.iter_mut().step_by(4) {
        r.layer = Some(0);
    }
    out
}

fn same_keywords(a: &[LabelId], b: &[LabelId]) -> bool {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The workload's request pool, drawn from the run seed: which
/// requests are in it, and their order — the order of the cyclic walk,
/// and the popularity rank under Zipf access.
pub fn request_pool(spec: &Spec, ds: &Dataset, seed: u64) -> Vec<QueryRequest> {
    let seed = derive_seed(seed, tag::POOL);
    match spec.topology {
        Topology::Mono => mixed_requests(ds, spec.dmax, spec.k, seed, spec.pool),
        Topology::Sharded { .. } => sharded_requests(ds, spec.dmax, spec.k, seed, spec.pool),
    }
}

/// Pre-drawn pool indices for reader `reader` — `None` for the cyclic
/// walk, whose order is a shared cursor. Pre-drawing keeps rng and
/// binary-search cost out of the timed loop; readers wrap around.
pub fn access_sequence(spec: &Spec, pool_len: usize, seed: u64, reader: usize) -> Option<Vec<u32>> {
    let Access::Zipf(s) = spec.access else {
        return None;
    };
    let zipf = Zipf::new(pool_len.max(1), s);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, tag::ACCESS + reader as u64));
    Some((0..1 << 16).map(|_| zipf.sample(&mut rng) as u32).collect())
}

/// `n` updates valid to apply in order starting from `g`, 6:3:1
/// insert/delete/add-vertex.
pub fn updates(g: &DiGraph, seed: u64, n: usize) -> Vec<IngestUpdate> {
    update_stream(g, derive_seed(seed, tag::UPDATES), n, UpdateMix::default())
        .into_iter()
        .map(|op| match op {
            UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
            UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
            UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
        })
        .collect()
}

/// A seeded 1-in-`every` choice over operation numbers: `true` for the
/// operations to sample. Stateless, so every thread agrees.
pub fn sampled(seed: u64, op: u64, every: u64) -> bool {
    derive_seed(derive_seed(seed, tag::SAMPLE), op).is_multiple_of(every.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;
    use bgi_datasets::DatasetSpec;

    #[test]
    fn zipf_sequence_is_skewed_seeded_and_in_range() {
        let hot = spec("query_hot", true).unwrap();
        let a = access_sequence(&hot, 64, 7, 0).unwrap();
        assert_eq!(a, access_sequence(&hot, 64, 7, 0).unwrap());
        assert_ne!(a, access_sequence(&hot, 64, 7, 1).unwrap());
        assert_ne!(a, access_sequence(&hot, 64, 8, 0).unwrap());
        assert!(a.iter().all(|&i| i < 64));
        // Zipf(1.0) over 64 items: P(rank 0) = 1/H_64 ≈ 0.211,
        // P(rank 63) ≈ 0.0033.
        let share = |rank: u32| a.iter().filter(|&&i| i == rank).count() as f64 / a.len() as f64;
        assert!((share(0) - 0.211).abs() < 0.02, "head share {}", share(0));
        assert!(share(63) < 0.01, "tail share {}", share(63));
        assert!(share(0) > share(1) && share(1) > share(7));
        // The cyclic walk has no pre-drawn sequence.
        assert!(access_sequence(&spec("query_cold", true).unwrap(), 64, 7, 0).is_none());
    }

    /// What the answer cache tells two requests apart by.
    fn key(r: &QueryRequest) -> (usize, Vec<LabelId>) {
        let mut k = r.keywords.clone();
        k.sort_unstable();
        (r.semantics.index(), k)
    }

    #[test]
    fn the_run_seed_draws_which_requests_are_in_the_pool() {
        for name in ["query_cold", "query_sharded"] {
            let spec = spec(name, true).unwrap();
            let ds = spec.graph.dataset().generate();
            let members = |seed: u64| -> std::collections::BTreeSet<_> {
                request_pool(&spec, &ds, seed).iter().map(key).collect()
            };
            assert_eq!(members(1), members(1));
            assert_ne!(members(1), members(2), "{name}: two seeds, one pool");
        }
    }

    #[test]
    fn pools_are_distinct_and_repeat_for_one_seed() {
        let ds = DatasetSpec::yago_like(800).generate();
        let a = mixed_requests(&ds, 4, 5, 11, 48);
        let b = mixed_requests(&ds, 4, 5, 11, 48);
        assert!(a.len() >= 24, "only {} requests", a.len());
        let keys: std::collections::HashSet<_> = a.iter().map(key).collect();
        assert_eq!(keys.len(), a.len(), "pool holds duplicates");
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        let c = mixed_requests(&ds, 4, 5, 12, 48);
        assert_ne!(
            a.iter().map(key).collect::<Vec<_>>(),
            c.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_pool_mixes_semantics_and_pins_some_layer_zero() {
        let ds = DatasetSpec::road_like(1500).generate();
        let pool = sharded_requests(&ds, 2, 5, 3, 32);
        assert_eq!(pool.len(), 32);
        for s in Semantics::ALL {
            assert!(pool.iter().any(|r| r.semantics == s), "no {s} request");
        }
        assert_eq!(pool.iter().filter(|r| r.layer == Some(0)).count(), 8);
        assert!(pool.iter().all(|r| r.dmax == 2));
    }

    #[test]
    fn sampling_is_stateless_and_about_one_in_n() {
        let hits = (0..10_000u64).filter(|&op| sampled(5, op, 10)).count();
        assert!((800..1200).contains(&hits), "{hits} of 10000");
        assert_eq!(sampled(5, 42, 10), sampled(5, 42, 10));
        assert!((0..100).all(|op| sampled(5, op, 1)));
    }
}
