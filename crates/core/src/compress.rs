//! Compression-ratio computation and estimation (Sec. 3.2, part (i)).
//!
//! `compress(G, C) = |χ(G, C)| / |G| = |Bisim(Gen(G, C))| / |G|` — the
//! smaller, the better the layer compresses. Computing it exactly means
//! generalizing and bisimulating the whole graph, so the greedy
//! configuration search estimates it instead on `n` sampled r-hop
//! node-induced subgraphs, averaging per-sample ratios.

use crate::config::GenConfig;
use bgi_bisim::{
    coarsest_stable_refinement, maximal_bisimulation, quotient_size, summarize, BisimDirection,
    Partition,
};
use bgi_graph::sampling::{sample_subgraphs_threaded, SamplingParams};
use bgi_graph::subgraph::InducedSubgraph;
use bgi_graph::{DiGraph, LabelId, VId};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;

/// `|Bisim(g)|` with every vertex label `ℓ` read as `label_of(ℓ)`:
/// blocks plus block pairs of the maximal bisimulation under that
/// labelling. Neither the relabelled graph nor the summary is built.
fn generalized_size(
    g: &DiGraph,
    dir: BisimDirection,
    label_of: impl Fn(LabelId) -> LabelId,
) -> usize {
    let labels: Vec<LabelId> = g.labels().iter().map(|&l| label_of(l)).collect();
    let part = coarsest_stable_refinement(g, Partition::from_labels(&labels), dir);
    quotient_size(g, &part)
}

/// Exact compression ratio of applying `χ(·, C)` to `g`.
pub fn exact_compress(g: &DiGraph, config: &GenConfig, dir: BisimDirection) -> f64 {
    if g.size() == 0 {
        return 1.0;
    }
    let map = config.label_map(g.alphabet_size());
    generalized_size(g, dir, |l| map[l.index()]) as f64 / g.size() as f64
}

/// Pre-drawn samples for repeated estimation against many candidate
/// configurations (Algo. 1 evaluates hundreds of candidates against the
/// same sample set).
#[derive(Debug)]
pub struct CompressEstimator {
    samples: Vec<InducedSubgraph>,
    alphabet_size: usize,
    dir: BisimDirection,
}

impl CompressEstimator {
    /// Draws the sample set from `g`.
    pub fn new(g: &DiGraph, params: &SamplingParams, dir: BisimDirection) -> Self {
        Self::new_threaded(g, params, dir, 1)
    }

    /// [`CompressEstimator::new`] drawing the r-hop balls on up to
    /// `threads` scoped workers. Per-sample seeding makes the sample
    /// set bit-identical to the serial draw (see
    /// [`bgi_graph::sampling::sample_subgraphs_threaded`]), so the
    /// estimates — and everything downstream, up to the stored index
    /// bytes — do not depend on the thread count.
    pub fn new_threaded(
        g: &DiGraph,
        params: &SamplingParams,
        dir: BisimDirection,
        threads: usize,
    ) -> Self {
        CompressEstimator {
            samples: sample_subgraphs_threaded(g, params, threads),
            alphabet_size: g.alphabet_size(),
            dir,
        }
    }

    /// Number of samples drawn.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// What the test-only reference estimator reads.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[InducedSubgraph], usize, BisimDirection) {
        (&self.samples, self.alphabet_size, self.dir)
    }

    /// Estimated `compress(G, C)` as the pooled ratio
    /// `Σ|χ(s, C)| / Σ|s|` over the samples. Pooling weights each sample
    /// by its size, so the many tiny (often singleton) balls drawn from
    /// sparse regions do not drown out the compressible ones — the
    /// variant that tracks the exact ratio's *ordering* across candidate
    /// configurations, which is all Algo. 1 needs (Exp-4 validates the
    /// ordering with Spearman correlation). Returns 1.0 with no samples.
    pub fn estimate(&self, config: &GenConfig) -> f64 {
        let map = config.label_map(self.alphabet_size);
        let mut summarized = 0usize;
        let mut original = 0usize;
        for s in self.samples.iter().filter(|s| s.graph.size() > 0) {
            summarized += generalized_size(&s.graph, self.dir, |l| map[l.index()]);
            original += s.graph.size();
        }
        pooled_ratio(summarized, original)
    }

    /// The form Algo. 1 reads the first `max_samples` samples in: see
    /// [`IncrementalEstimate`]. Its ratios are the ones
    /// [`CompressEstimator::estimate`] would return on those samples,
    /// bit for bit.
    pub fn incremental(&self, max_samples: usize) -> IncrementalEstimate {
        let mut bases: Vec<Base> = Vec::new();
        let mut base_of: FxHashMap<Vec<VId>, usize> = FxHashMap::default();
        let mut original = 0usize;
        for s in self.samples.iter().take(max_samples) {
            if s.graph.size() == 0 {
                continue;
            }
            original += s.graph.size();
            let mut vertices = s.original.clone();
            vertices.sort_unstable();
            match base_of.entry(vertices) {
                Entry::Occupied(known) => bases[*known.get()].weight += 1,
                Entry::Vacant(new) => {
                    new.insert(bases.len());
                    let part = maximal_bisimulation(&s.graph, self.dir);
                    let graph = summarize(&s.graph, &part).graph;
                    let mut alphabet = graph.labels().to_vec();
                    alphabet.sort_unstable();
                    alphabet.dedup();
                    bases.push(Base {
                        size: graph.size(),
                        graph,
                        alphabet,
                        weight: 1,
                    });
                }
            }
        }
        let mut holders: Vec<Vec<u32>> = vec![Vec::new(); self.alphabet_size];
        for (i, base) in bases.iter().enumerate() {
            for l in &base.alphabet {
                holders[l.index()].push(i as u32);
            }
        }
        IncrementalEstimate {
            summarized: bases.iter().map(|b| b.weight * b.size).sum(),
            original,
            holders,
            bases,
            map: (0..self.alphabet_size as u32).map(LabelId).collect(),
            dir: self.dir,
        }
    }
}

/// `Σ|χ(s, C)| / Σ|s|`, 1.0 when nothing was sampled.
fn pooled_ratio(summarized: usize, original: usize) -> f64 {
    if original == 0 {
        1.0
    } else {
        summarized as f64 / original as f64
    }
}

/// One distinct sample, as [`IncrementalEstimate`] keeps it.
#[derive(Debug)]
struct Base {
    /// The sample's quotient by its maximal bisimulation under the
    /// original labels.
    graph: DiGraph,
    /// Its distinct labels, ascending.
    alphabet: Vec<LabelId>,
    /// How many of the samples read are this one: balls over the same
    /// vertex set induce isomorphic subgraphs, whose `|χ(s, C)|` agree
    /// for every `C`.
    weight: usize,
    /// `|χ(s, C)|` under the accepted configuration.
    size: usize,
}

/// Compression estimates for a configuration that grows one mapping at
/// a time — what Algo. 1 asks for, about twice per candidate.
///
/// It holds, per distinct sample, the quotient of the sample by its
/// maximal bisimulation under the *original* labels, and `|χ(s, C)|`
/// for the configuration `C` accepted so far. A trial `C ∪ {ℓ → ℓ′}`
/// then
///
/// - re-evaluates only the samples it can change — those that contain
///   `ℓ` next to a label `C` sends to `ℓ′` or to `ℓ`. In every other
///   sample the trial labels the vertices alike up to renaming one
///   class, so the cached integer is the answer, and a sum of the same
///   integers is the same ratio, bit for bit;
/// - runs on the quotient, not on the sample. A configuration only
///   merges original labels, so the original-label bisimulation stays a
///   bisimulation of `Gen(s, C)` for every `C`; the projection onto its
///   quotient relates each vertex to a bisimilar one, hence the maximal
///   bisimulation of the relabelled quotient has the blocks and the
///   block pairs of the relabelled sample's.
///
/// The quotient is *not* re-based on accepted configurations:
/// `Gen` applies a configuration simultaneously, so after accepting
/// `ℓ₀ → ℓ` a later trial `ℓ → ℓ′` must still tell `ℓ₀`-origin vertices
/// (which stay `ℓ`) from native `ℓ` ones (which become `ℓ′`), and a
/// base computed under `C` may already have merged them (DESIGN.md
/// §4b, item 10).
#[derive(Debug)]
pub struct IncrementalEstimate {
    bases: Vec<Base>,
    /// Label → ascending indices of the bases it occurs in.
    holders: Vec<Vec<u32>>,
    /// `Σ weight · |χ(s, C)|` under the accepted configuration.
    summarized: usize,
    /// `Σ weight · |s|`.
    original: usize,
    /// The accepted configuration's dense label map.
    map: Vec<LabelId>,
    dir: BisimDirection,
}

/// The outcome of [`IncrementalEstimate::trial`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Estimated `compress(G, C ∪ {ℓ → ℓ′})`.
    pub ratio: f64,
    /// Its numerator, `Σ weight · |χ(s, C ∪ {ℓ → ℓ′})|`.
    summarized: usize,
    /// `(base, |χ(s, C ∪ {ℓ → ℓ′})|)` for each base re-evaluated.
    resized: Vec<(u32, usize)>,
}

impl Trial {
    /// Sample bisimulations computed for this trial.
    pub fn evaluated(&self) -> usize {
        self.resized.len()
    }
}

impl IncrementalEstimate {
    /// Samples read (the non-empty ones among those asked for).
    pub fn num_samples(&self) -> usize {
        self.bases.iter().map(|b| b.weight).sum()
    }

    /// Distinct samples among them: the bisimulations computed up
    /// front.
    pub fn num_distinct(&self) -> usize {
        self.bases.len()
    }

    /// The estimate for the accepted configuration plus `from → to`.
    pub fn trial(&self, from: LabelId, to: LabelId) -> Trial {
        let held = self
            .holders
            .get(from.index())
            .map_or(&[][..], Vec::as_slice);
        let mut summarized = self.summarized;
        let mut resized = Vec::new();
        for &i in held {
            let base = &self.bases[i as usize];
            // `from` joins the vertices already labelled `to`, and
            // leaves those an accepted mapping labelled `from`; with
            // neither kind present the trial only renames a label
            // class, and the partition — so the size — stays.
            let regroups = base
                .alphabet
                .iter()
                .any(|&x| x != from && (self.map[x.index()] == to || self.map[x.index()] == from));
            if !regroups {
                continue;
            }
            let size = generalized_size(&base.graph, self.dir, |l| {
                if l == from {
                    to
                } else {
                    self.map[l.index()]
                }
            });
            summarized = summarized - base.weight * base.size + base.weight * size;
            resized.push((i, size));
        }
        Trial {
            ratio: pooled_ratio(summarized, self.original),
            summarized,
            resized,
        }
    }

    /// Makes `from → to` part of the accepted configuration; `trial`
    /// is what [`IncrementalEstimate::trial`] returned for it.
    pub fn accept(&mut self, from: LabelId, to: LabelId, trial: Trial) {
        if let Some(slot) = self.map.get_mut(from.index()) {
            *slot = to;
        }
        self.summarized = trial.summarized;
        for (i, size) in trial.resized {
            self.bases[i as usize].size = size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId, Ontology, OntologyBuilder};

    /// 50 vertices of label 1 and 50 of label 2, all pointing at a hub
    /// (label 3). Generalizing 1,2 -> 0 lets all 100 collapse.
    fn fan_two_types() -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(3));
        for i in 0..100 {
            let l = if i < 50 { LabelId(1) } else { LabelId(2) };
            let v = b.add_vertex(l);
            b.add_edge(v, hub);
        }
        b.build()
    }

    fn ontology() -> Ontology {
        let mut b = OntologyBuilder::new(4);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.build().unwrap()
    }

    #[test]
    fn generalization_enables_compression() {
        let g = fan_two_types();
        let o = ontology();
        let empty = GenConfig::empty();
        let full =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        let c_empty = exact_compress(&g, &empty, BisimDirection::Forward);
        let c_full = exact_compress(&g, &full, BisimDirection::Forward);
        // Without generalization: 2 person-blocks + hub = |3 + 2| / 201.
        // With: 1 block + hub = |2 + 1| / 201.
        assert!(c_full < c_empty);
        assert!((c_full - 3.0 / 201.0).abs() < 1e-9, "c_full = {c_full}");
    }

    /// Like `fan_two_types` but edges point hub -> persons, so forward
    /// r-hop balls from the hub capture the compressible structure.
    fn outward_fan() -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(3));
        for i in 0..100 {
            let l = if i < 50 { LabelId(1) } else { LabelId(2) };
            let v = b.add_vertex(l);
            b.add_edge(hub, v);
        }
        b.build()
    }

    #[test]
    fn estimator_tracks_exact_ordering() {
        let g = outward_fan();
        let o = ontology();
        let empty = GenConfig::empty();
        let full =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 2,
                num_samples: 60,
                max_ball: 256,
                seed: 3,
            },
            BisimDirection::Forward,
        );
        // The estimate must preserve the relative ordering of configs
        // (that is what Exp-4 validates with Spearman correlation).
        assert!(est.estimate(&full) < est.estimate(&empty));
    }

    #[test]
    fn estimates_are_ratios() {
        let g = bgi_graph::generate::uniform_random(200, 600, 4, 5);
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 2,
                num_samples: 30,
                max_ball: 256,
                seed: 7,
            },
            BisimDirection::Forward,
        );
        let r = est.estimate(&GenConfig::empty());
        assert!(r > 0.0 && r <= 1.0 + 1e-9, "r = {r}");
    }

    #[test]
    fn threaded_estimator_is_bit_identical_to_serial() {
        let g = bgi_graph::generate::uniform_random(300, 900, 5, 9);
        let params = SamplingParams {
            radius: 2,
            num_samples: 48,
            max_ball: 64,
            seed: 11,
        };
        let serial = CompressEstimator::new(&g, &params, BisimDirection::Forward);
        let o = ontology();
        let config =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel =
                CompressEstimator::new_threaded(&g, &params, BisimDirection::Forward, threads);
            assert_eq!(serial.num_samples(), parallel.num_samples());
            // f64 bit equality, not approximate: the sample sets match.
            assert_eq!(
                serial.estimate(&config).to_bits(),
                parallel.estimate(&config).to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                serial.estimate(&GenConfig::empty()).to_bits(),
                parallel.estimate(&GenConfig::empty()).to_bits()
            );
        }
    }

    #[test]
    fn empty_graph_degenerates_gracefully() {
        let g = GraphBuilder::new().build();
        assert_eq!(
            exact_compress(&g, &GenConfig::empty(), BisimDirection::Forward),
            1.0
        );
        let est = CompressEstimator::new(&g, &SamplingParams::default(), BisimDirection::Forward);
        assert_eq!(est.estimate(&GenConfig::empty()), 1.0);
    }
}
