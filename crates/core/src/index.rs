//! The BiG-index (Def. 3.1): a hierarchy of generalized summary graphs.
//!
//! `𝔾 = {G⁰, …, Gʰ}` with `Gⁱ = χ(Gⁱ⁻¹, Cⁱ) = Bisim(Gen(Gⁱ⁻¹, Cⁱ))`.
//! Construction iterates Algo. 1 (greedy configuration), graph
//! generalization, and bisimulation summarization until a termination
//! condition fires (empty configuration, layer budget, or vanishing
//! compression gain).

use crate::compress::CompressEstimator;
use crate::config::GenConfig;
use crate::cost::CostParams;
use crate::heuristic::{greedy_configuration_threaded, Algo1Work, ALGO1_SAMPLES};
use crate::layer::{Layer, MemberTable};
use bgi_bisim::{maximal_bisimulation, quotient_graph, BisimDirection};
use bgi_graph::sampling::SamplingParams;
use bgi_graph::stats::LabelSupport;
use bgi_graph::{DiGraph, LabelId, Ontology, VId};
use std::sync::Arc;

/// Parameters governing BiG-index construction.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Cost-model weights and Algo. 1 thresholds.
    pub cost: CostParams,
    /// Subgraph sampling for compression estimation. Algo. 1 reads the
    /// first [`ALGO1_SAMPLES`] samples, so a build draws
    /// `min(num_samples, ALGO1_SAMPLES)` — the same balls either way.
    pub sampling: SamplingParams,
    /// Direction of each layer's maximal bisimulation.
    pub direction: BisimDirection,
    /// Maximum number of layers `h` (the paper's experiments use 7).
    pub max_layers: usize,
    /// Stop adding layers when a new layer's compression ratio (relative
    /// to the previous layer) exceeds this — the paper's observation
    /// that "compression potentials diminish".
    pub min_gain_ratio: f64,
    /// Worker threads for the parallelizable construction stages
    /// (subgraph sampling and Algo. 1 candidate ranking). `1` is the
    /// plain serial build; any value produces a bit-identical index
    /// (DESIGN.md §8's determinism contract).
    pub threads: usize,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            cost: CostParams::default(),
            sampling: SamplingParams::default(),
            direction: BisimDirection::Forward,
            max_layers: 7,
            min_gain_ratio: 0.98,
            threads: 1,
        }
    }
}

/// The BiG-index of a data graph and its ontology: the binary tuple
/// `(𝔾, 𝒞)` of Def. 3.1 plus the correspondence tables that implement
/// `χ` and `χ⁻¹`.
///
/// The data graph, the ontology and every layer are held by `Arc`, so
/// a clone shares them, and an index assembled after an update
/// ([`BiGIndex::from_shared_parts`]) shares every part the update left
/// alone with the index it replaces.
#[derive(Debug, Clone)]
pub struct BiGIndex {
    base: Arc<DiGraph>,
    ontology: Arc<Ontology>,
    layers: Vec<Arc<Layer>>,
    direction: BisimDirection,
    // gen_mass[m][ℓ'] = number of *data-graph* vertices whose label
    // generalizes to ℓ' at layer m — the candidate mass a keyword
    // matching ℓ' must specialize through (the cost model's support
    // term, measured where the work happens).
    gen_mass: Vec<Vec<u64>>,
}

impl BiGIndex {
    /// Builds the index with Algo. 1 choosing each layer's configuration.
    pub fn build(g: DiGraph, ontology: Ontology, params: &BuildParams) -> Self {
        Self::build_counted(g, ontology, params).0
    }

    /// [`BiGIndex::build`], also returning what Algo. 1 did for each
    /// layer it was run for (one entry more than the layers kept when
    /// the last run's layer was dropped).
    pub fn build_counted(
        g: DiGraph,
        ontology: Ontology,
        params: &BuildParams,
    ) -> (Self, Vec<Algo1Work>) {
        let direction = params.direction;
        // Algo. 1 reads the first `ALGO1_SAMPLES` samples; per-sample
        // seeding makes those the same balls whatever the count drawn.
        let sampling = SamplingParams {
            num_samples: params.sampling.num_samples.min(ALGO1_SAMPLES),
            ..params.sampling
        };
        let mut layers: Vec<Layer> = Vec::new();
        let mut work: Vec<Algo1Work> = Vec::new();
        let mut current = g.clone();
        for layer_no in 0..params.max_layers {
            let estimator =
                CompressEstimator::new_threaded(&current, &sampling, direction, params.threads);
            let support = LabelSupport::new(&current);
            let (config, counted) = greedy_configuration_threaded(
                &current,
                &ontology,
                &estimator,
                &support,
                &params.cost,
                params.threads,
            );
            work.push(counted);
            if config.is_empty() && layer_no > 0 {
                // Nothing left to generalize; a first layer with an empty
                // config is still useful (pure bisimulation).
                break;
            }
            let layer = Self::make_layer(&current, &config, direction, g.alphabet_size());
            let gain = layer.graph.size() as f64 / current.size().max(1) as f64;
            let next = layer.graph.clone();
            if layer_no > 0 && gain > params.min_gain_ratio {
                break;
            }
            layers.push(layer);
            current = next;
            if current.size() == 0 {
                break;
            }
        }
        let index = Self::assemble(g, ontology, layers, direction);
        (index, work)
    }

    /// Builds the index from explicit per-layer configurations
    /// (the paper's "default indexes": generalize every label once per
    /// layer), skipping Algo. 1.
    pub fn build_with_configs(
        g: DiGraph,
        ontology: Ontology,
        configs: Vec<GenConfig>,
        direction: BisimDirection,
    ) -> Self {
        let alphabet = g.alphabet_size();
        let mut layers = Vec::with_capacity(configs.len());
        let mut current = g.clone();
        for config in configs {
            let layer = Self::make_layer(&current, &config, direction, alphabet);
            let next = layer.graph.clone();
            layers.push(layer);
            current = next;
        }
        Self::assemble(g, ontology, layers, direction)
    }

    /// Reassembles an index from previously built parts — the
    /// persistence path (`bgi-store`) round-trips the hierarchy through
    /// this. The derived table (generalization masses) is recomputed,
    /// and each graph derives its own label table, so only the expensive
    /// artifacts — summary graphs, configurations, and the `χ`/`Bisim⁻¹`
    /// correspondence — need to be stored.
    ///
    /// Unlike the build paths this does *not* assert the invariant suite
    /// (a corrupted on-disk index must surface as a typed error, not a
    /// panic): callers are expected to run [`BiGIndex::verify`] and
    /// refuse a dirty report themselves.
    pub fn from_parts(
        base: DiGraph,
        ontology: Ontology,
        layers: Vec<Layer>,
        direction: BisimDirection,
    ) -> Self {
        Self::from_shared_parts(
            Arc::new(base),
            Arc::new(ontology),
            layers.into_iter().map(Arc::new).collect(),
            direction,
        )
    }

    /// [`BiGIndex::from_parts`] over shared parts: the incremental write
    /// path hands over the parts an update left unchanged by `Arc`
    /// instead of copying them. Only the derived table is computed.
    pub fn from_shared_parts(
        base: Arc<DiGraph>,
        ontology: Arc<Ontology>,
        layers: Vec<Arc<Layer>>,
        direction: BisimDirection,
    ) -> Self {
        // Masses: push each base label's count through the per-layer
        // label maps.
        let alphabet = base.alphabet_size().max(ontology.num_labels());
        let base_counts = base.label_counts();
        let mut gen_mass: Vec<Vec<u64>> = Vec::with_capacity(layers.len() + 1);
        let mut chain: Vec<u32> = (0..alphabet as u32).collect();
        let mut level0 = vec![0u64; alphabet];
        for (l, &c) in base_counts.iter().enumerate() {
            level0[l] += c as u64;
        }
        gen_mass.push(level0);
        for layer in &layers {
            let mut mass = vec![0u64; alphabet];
            for (l, &c) in base_counts.iter().enumerate() {
                let cur = chain[l] as usize;
                let next = layer.label_map.get(cur).map_or(cur as u32, |x| x.0);
                chain[l] = next;
                mass[next as usize] += c as u64;
            }
            gen_mass.push(mass);
        }
        BiGIndex {
            base,
            ontology,
            layers,
            direction,
            gen_mass,
        }
    }

    fn assemble(
        base: DiGraph,
        ontology: Ontology,
        layers: Vec<Layer>,
        direction: BisimDirection,
    ) -> Self {
        let idx = Self::from_parts(base, ontology, layers, direction);
        // Both build paths funnel through here, so this is the single
        // place the whole hierarchy exists before anyone queries it.
        #[cfg(any(debug_assertions, feature = "validate"))]
        {
            let report = idx.verify();
            assert!(
                report.is_clean(),
                "BiG-index invariant violation:\n{report}"
            );
        }
        idx
    }

    /// One `χ` application: generalize then summarize.
    fn make_layer(
        lower: &DiGraph,
        config: &GenConfig,
        direction: BisimDirection,
        alphabet: usize,
    ) -> Layer {
        let label_map = config.label_map(alphabet.max(lower.alphabet_size()));
        let generalized = lower.relabel(&label_map);
        let partition = maximal_bisimulation(&generalized, direction);
        let graph = quotient_graph(&generalized, &partition);
        let supernode_of: Vec<VId> = partition.assignment().iter().map(|&b| VId(b)).collect();
        let members = MemberTable::from_chi(&supernode_of, graph.num_vertices());
        Layer::from_table(config.clone(), label_map, graph, supernode_of, members)
    }

    /// The data graph `G⁰`.
    pub fn base(&self) -> &DiGraph {
        &self.base
    }

    /// The data graph as shared with every clone of this index.
    pub fn shared_base(&self) -> &Arc<DiGraph> {
        &self.base
    }

    /// The ontology `G_Ont`.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The ontology as shared with every clone of this index.
    pub fn shared_ontology(&self) -> &Arc<Ontology> {
        &self.ontology
    }

    /// Number of summary layers `h` (excluding the data graph).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The bisimulation direction the index was built with.
    pub fn direction(&self) -> BisimDirection {
        self.direction
    }

    /// All layers `1..=h` in order, as shared with every clone of this
    /// index (persistence export; [`BiGIndex::layer`] is the 1-indexed
    /// lookup).
    pub fn layers(&self) -> &[Arc<Layer>] {
        &self.layers
    }

    /// Layer `i` for `1 ≤ i ≤ h`.
    pub fn layer(&self, i: usize) -> &Layer {
        assert!(i >= 1 && i <= self.layers.len(), "layer {i} out of range");
        &self.layers[i - 1]
    }

    /// The graph at layer `m` (`m = 0` is the data graph).
    pub fn graph_at(&self, m: usize) -> &DiGraph {
        if m == 0 {
            &self.base
        } else {
            &self.layer(m).graph
        }
    }

    /// `χᵐ(v)`: maps a data-graph vertex up to its supernode at layer `m`.
    pub fn chi(&self, v: VId, m: usize) -> VId {
        let mut cur = v;
        for i in 1..=m {
            cur = self.layer(i).up(cur);
        }
        cur
    }

    /// One-step specialization: members of supernode `s` of layer `m` at
    /// layer `m − 1`.
    pub fn spec_step(&self, s: VId, m: usize) -> &[VId] {
        self.layer(m).down(s)
    }

    /// Full specialization to the data graph: all `G⁰` vertices whose
    /// `χᵐ` image is `s`.
    pub fn spec_to_base(&self, s: VId, m: usize) -> Vec<VId> {
        let mut frontier = vec![s];
        for i in (1..=m).rev() {
            let mut next = Vec::new();
            for &x in &frontier {
                next.extend_from_slice(self.layer(i).down(x));
            }
            frontier = next;
        }
        frontier
    }

    /// Generalizes a label to layer `m`: `Genᵐ(q) = Cᵐ(…C¹(q)…)`.
    pub fn generalize_label(&self, l: LabelId, m: usize) -> LabelId {
        let mut cur = l;
        for i in 1..=m {
            let map = &self.layer(i).label_map;
            cur = map.get(cur.index()).copied().unwrap_or(cur);
        }
        cur
    }

    /// Label supports of the graph at layer `m`, read off its label
    /// table.
    pub fn support_at(&self, m: usize) -> LabelSupport<'_> {
        LabelSupport::new(self.graph_at(m))
    }

    /// Number of data-graph vertices whose label generalizes to `l` at
    /// layer `m` (the specialization mass behind a layer-`m` keyword
    /// match). At `m = 0` this is the plain label count.
    pub fn generalized_mass(&self, l: LabelId, m: usize) -> u64 {
        self.gen_mass[m].get(l.index()).copied().unwrap_or(0)
    }

    /// Sizes `|Gⁱ|` for `i = 0..=h` (Fig. 9 / Tab. 3 raw data).
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut out = vec![self.base.size()];
        out.extend(self.layers.iter().map(|l| l.size()));
        out
    }

    /// Size ratio of layer `m` to the data graph (`|Gᵐ|/|G⁰|`).
    pub fn size_ratio(&self, m: usize) -> f64 {
        if self.base.size() == 0 {
            return 1.0;
        }
        self.graph_at(m).size() as f64 / self.base.size() as f64
    }

    /// Total index size: the sum of summary-graph sizes (Exp-3: "the
    /// BiG-index size is simply the sum of the summary graphs").
    pub fn total_index_size(&self) -> usize {
        self.layers.iter().map(|l| l.size()).sum()
    }

    /// Runs the full `bgi-verify` invariant suite against this index
    /// and returns the structured diagnostic report.
    ///
    /// Debug builds (and release builds with the `validate` feature)
    /// run this automatically at the end of every build and panic on a
    /// dirty report; call it directly to get the diagnostics without
    /// the panic (e.g. the `bgi verify` CLI subcommand).
    pub fn verify(&self) -> bgi_verify::Report {
        bgi_verify::check_index(self)
    }
}

/// Equality over the stored parts only — the derived table
/// (`gen_mass`) is a function of these, so comparing it
/// would be redundant. This is what the persistence round-trip tests
/// assert.
impl PartialEq for BiGIndex {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
            && self.ontology == other.ontology
            && self.layers == other.layers
            && self.direction == other.direction
    }
}

impl Eq for BiGIndex {}

impl bgi_verify::IndexView for BiGIndex {
    fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn graph_at(&self, m: usize) -> &DiGraph {
        BiGIndex::graph_at(self, m)
    }

    fn config_mappings(&self, m: usize) -> &[(LabelId, LabelId)] {
        self.layer(m).config.mappings()
    }

    fn label_map(&self, m: usize) -> &[LabelId] {
        &self.layer(m).label_map
    }

    fn up(&self, m: usize, v: VId) -> VId {
        self.layer(m).up(v)
    }

    fn down(&self, m: usize, s: VId) -> &[VId] {
        self.layer(m).down(s)
    }

    fn direction(&self) -> BisimDirection {
        self.direction
    }

    fn support_count(&self, m: usize, l: LabelId) -> u32 {
        self.graph_at(m).label_count(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, OntologyBuilder};

    /// Fig. 1-like: two person subtypes pointing at two univ subtypes,
    /// univs pointing at states.
    fn setup() -> (DiGraph, Ontology) {
        let mut gb = GraphBuilder::new();
        // Labels: 0=Person, 1=Prof, 2=Student, 3=Univ, 4=PubUniv,
        // 5=PrivUniv, 6=State.
        let pub_u = gb.add_vertex(LabelId(4));
        let priv_u = gb.add_vertex(LabelId(5));
        let state = gb.add_vertex(LabelId(6));
        gb.add_edge(pub_u, state);
        gb.add_edge(priv_u, state);
        for i in 0..30 {
            let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, if i % 3 == 0 { pub_u } else { priv_u });
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(7);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        ob.add_subtype(LabelId(3), LabelId(4));
        ob.add_subtype(LabelId(3), LabelId(5));
        let o = ob.build().unwrap();
        (g, o)
    }

    #[test]
    fn builds_layers_that_shrink() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g.clone(), o, &BuildParams::default());
        assert!(idx.num_layers() >= 1);
        let sizes = idx.layer_sizes();
        assert_eq!(sizes[0], g.size());
        for w in sizes.windows(2) {
            assert!(
                w[1] <= w[0],
                "layer sizes must be non-increasing: {sizes:?}"
            );
        }
        assert!(sizes[idx.num_layers()] < sizes[0]);
    }

    #[test]
    fn chi_and_spec_are_inverse() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g.clone(), o, &BuildParams::default());
        let m = idx.num_layers();
        for v in g.vertices() {
            let s = idx.chi(v, m);
            assert!(idx.spec_to_base(s, m).contains(&v));
        }
        // spec_to_base covers each base vertex exactly once.
        let mut all: Vec<VId> = idx
            .graph_at(m)
            .vertices()
            .flat_map(|s| idx.spec_to_base(s, m))
            .collect();
        all.sort_unstable();
        assert_eq!(all, g.vertices().collect::<Vec<_>>());
    }

    #[test]
    fn generalize_label_follows_configs() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g, o, &BuildParams::default());
        if idx.num_layers() >= 1 {
            let g1 = idx.generalize_label(LabelId(1), 1);
            // Either generalized to Person (0) or untouched, depending on
            // the greedy config; at some layer it should reach 0.
            let top = idx.generalize_label(LabelId(1), idx.num_layers());
            assert!(g1 == LabelId(0) || g1 == LabelId(1));
            assert_eq!(top, LabelId(0));
        }
    }

    #[test]
    fn labels_at_layer_match_generalization() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g.clone(), o, &BuildParams::default());
        for m in 1..=idx.num_layers() {
            let gm = idx.graph_at(m);
            for v in g.vertices() {
                let s = idx.chi(v, m);
                assert_eq!(
                    gm.label(s),
                    idx.generalize_label(g.label(v), m),
                    "layer {m}"
                );
            }
        }
    }

    #[test]
    fn path_preservation_through_all_layers() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g.clone(), o, &BuildParams::default());
        for m in 1..=idx.num_layers() {
            let gm = idx.graph_at(m);
            for (u, v) in g.edges() {
                assert!(
                    gm.has_edge(idx.chi(u, m), idx.chi(v, m)),
                    "edge lost at layer {m}"
                );
            }
        }
    }

    #[test]
    fn explicit_configs_build() {
        let (g, o) = setup();
        let c1 = GenConfig::new(
            [
                (LabelId(1), LabelId(0)),
                (LabelId(2), LabelId(0)),
                (LabelId(4), LabelId(3)),
                (LabelId(5), LabelId(3)),
            ],
            &o,
        )
        .unwrap();
        let idx = BiGIndex::build_with_configs(g.clone(), o, vec![c1], BisimDirection::Forward);
        assert_eq!(idx.num_layers(), 1);
        // All persons collapse per univ-target pattern; graph shrinks a lot.
        assert!(idx.graph_at(1).num_vertices() <= 8);
        assert_eq!(idx.generalize_label(LabelId(2), 1), LabelId(0));
    }

    #[test]
    fn parallel_build_equals_serial_build() {
        let (g, o) = setup();
        let serial = BiGIndex::build(g.clone(), o.clone(), &BuildParams::default());
        for threads in [2usize, 4, 8] {
            let params = BuildParams {
                threads,
                ..BuildParams::default()
            };
            let parallel = BiGIndex::build(g.clone(), o.clone(), &params);
            // PartialEq covers every stored part: base graph, ontology,
            // layer configs, label maps, summary graphs, χ/Bisim⁻¹.
            assert!(serial == parallel, "{threads}-thread build diverged");
        }
    }

    #[test]
    fn max_layers_respected() {
        let (g, o) = setup();
        let params = BuildParams {
            max_layers: 1,
            ..BuildParams::default()
        };
        let idx = BiGIndex::build(g, o, &params);
        assert!(idx.num_layers() <= 1);
    }

    #[test]
    fn total_index_size_sums_layers() {
        let (g, o) = setup();
        let idx = BiGIndex::build(g, o, &BuildParams::default());
        let total: usize = (1..=idx.num_layers()).map(|m| idx.graph_at(m).size()).sum();
        assert_eq!(idx.total_index_size(), total);
    }
}
