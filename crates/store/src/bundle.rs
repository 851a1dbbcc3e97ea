//! The serialized unit: a [`BiGIndex`] plus every algorithm's prebuilt
//! per-layer index and the parameters they were built with.
//!
//! Encoding is exact: graphs round-trip through their raw CSR arrays
//! ([`DiGraph::from_csr`]), layers carry the `χ`/`Bisim⁻¹` tables
//! verbatim, and BLINKS stores only its partition and keyword-node
//! lists (`NKM`/`KBL` are derived on load). The r-clique indexes have
//! no encoding at all: beyond `radius` (in the params frame) they hold
//! an `O(n)` label table and a cache of balls, both functions of the
//! layer graph, so a load rebuilds them. Decoding validates every
//! structural invariant (offset monotonicity, id ranges, table widths)
//! *before* constructing a type — a corrupt file surfaces as a
//! [`CodecError`], never a panic — and the store additionally gates the
//! decoded index behind `bgi_verify::check_index`.

use crate::codec::{CodecError, Dec, Enc, Section};
use bgi_bisim::BisimDirection;
use bgi_graph::{DiGraph, LabelId, Ontology, OntologyBuilder, VId};
use bgi_search::banks::BanksIndex;
use bgi_search::blinks::{BlinksIndex, BlinksParams, GraphPartition};
use bgi_search::rclique::RCliqueIndex;
use bgi_search::{Banks, Blinks, KeywordSearch, RClique};
use big_index::layer::Layer;
use big_index::{BiGIndex, EvalOptions, GenConfig, RealizerKind};
use rustc_hash::FxHashMap;

/// Everything a serving process needs to answer queries without
/// rebuilding anything: the hierarchy plus per-layer search indexes
/// for all three semantics (index `m` of each vector serves layer `m`,
/// `0..=h`) and the parameters they were built with.
#[derive(Debug, Clone)]
pub struct IndexBundle {
    /// The BiG-index hierarchy.
    pub index: BiGIndex,
    /// Per-layer BANKS inverted tables.
    pub banks: Vec<BanksIndex>,
    /// Per-layer BLINKS bi-level indexes.
    pub blinks: Vec<BlinksIndex>,
    /// Per-layer r-clique neighbor indexes.
    pub rclique: Vec<RCliqueIndex>,
    /// Parameters the BLINKS indexes were built with.
    pub blinks_params: BlinksParams,
    /// Parameters the r-clique indexes were built with.
    pub rclique_params: RClique,
    /// Evaluation options to serve with.
    pub eval: EvalOptions,
}

impl PartialEq for IndexBundle {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.banks == other.banks
            && self.blinks == other.blinks
            && self.rclique == other.rclique
            && self.blinks_params == other.blinks_params
            && self.rclique_params == other.rclique_params
            && self.eval == other.eval
    }
}

/// One per-layer search index of any of the three families, tagged so
/// a mixed parallel build can be split back apart in layer order.
enum BuiltIndex {
    Banks(BanksIndex),
    Blinks(BlinksIndex),
    RClique(RCliqueIndex),
}

/// Builds all `3 · (h + 1)` per-layer search indexes of `index` on up
/// to `threads` workers, returning each family in layer order.
///
/// Every task is independent (each reads one immutable layer graph),
/// and task `t` always denotes the same `(layer, family)` pair —
/// `m = t / 3`, family `= t % 3` — so the three heaviest tasks (layer
/// 0's) are claimed first and the result is identical to the serial
/// loop for any thread count.
pub fn build_layer_indexes(
    index: &BiGIndex,
    blinks_params: BlinksParams,
    rclique_params: RClique,
    threads: usize,
) -> (Vec<BanksIndex>, Vec<BlinksIndex>, Vec<RCliqueIndex>) {
    let blinks_algo = Blinks::new(blinks_params);
    let layers = index.num_layers() + 1;
    let built = bgi_graph::par::par_map(threads, layers * 3, |t| {
        let g = index.graph_at(t / 3);
        match t % 3 {
            0 => BuiltIndex::Banks(Banks.build_index(g)),
            1 => BuiltIndex::Blinks(blinks_algo.build_index(g)),
            _ => BuiltIndex::RClique(rclique_params.build_index(g)),
        }
    });
    let mut banks = Vec::with_capacity(layers);
    let mut blinks = Vec::with_capacity(layers);
    let mut rclique = Vec::with_capacity(layers);
    for b in built {
        match b {
            BuiltIndex::Banks(x) => banks.push(x),
            BuiltIndex::Blinks(x) => blinks.push(x),
            BuiltIndex::RClique(x) => rclique.push(x),
        }
    }
    (banks, blinks, rclique)
}

impl IndexBundle {
    /// Builds every algorithm's index on every layer of `index` —
    /// the expensive step persistence exists to amortize.
    pub fn build(
        index: BiGIndex,
        blinks_params: BlinksParams,
        rclique_params: RClique,
        eval: EvalOptions,
    ) -> Self {
        Self::build_with_threads(index, blinks_params, rclique_params, eval, 1)
    }

    /// [`IndexBundle::build`] with the per-layer index builds fanned
    /// out over up to `threads` scoped workers. The resulting bundle —
    /// down to its encoded bytes — is identical for every thread count.
    pub fn build_with_threads(
        index: BiGIndex,
        blinks_params: BlinksParams,
        rclique_params: RClique,
        eval: EvalOptions,
        threads: usize,
    ) -> Self {
        let (banks, blinks, rclique) =
            build_layer_indexes(&index, blinks_params, rclique_params, threads);
        IndexBundle {
            index,
            banks,
            blinks,
            rclique,
            blinks_params,
            rclique_params,
            eval,
        }
    }

    /// Number of hierarchy layers `h` (each index vector has `h + 1`
    /// entries).
    pub fn num_layers(&self) -> usize {
        self.index.num_layers()
    }
}

fn bad<T>(detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        detail: detail.into(),
    })
}

// ---------------------------------------------------------------------
// Graph / ontology
// ---------------------------------------------------------------------

fn enc_graph(e: &mut Enc, g: &DiGraph) {
    let (labels, out_offsets, out_targets, in_offsets, in_sources) = g.csr_parts();
    e.u64(g.alphabet_size() as u64);
    e.u32_slice(&labels.iter().map(|l| l.0).collect::<Vec<_>>());
    e.u32_slice(out_offsets);
    e.u32_slice(&out_targets.iter().map(|v| v.0).collect::<Vec<_>>());
    e.u32_slice(in_offsets);
    e.u32_slice(&in_sources.iter().map(|v| v.0).collect::<Vec<_>>());
}

fn dec_graph(d: &mut Dec<'_>) -> Result<DiGraph, CodecError> {
    let num_labels = d.u64()? as usize;
    let labels: Vec<LabelId> = d.u32_slice()?.into_iter().map(LabelId).collect();
    let out_offsets = d.u32_slice()?;
    let out_targets: Vec<VId> = d.u32_slice()?.into_iter().map(VId).collect();
    let in_offsets = d.u32_slice()?;
    let in_sources: Vec<VId> = d.u32_slice()?.into_iter().map(VId).collect();
    DiGraph::from_csr(
        labels,
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
        num_labels,
    )
    .map_err(|e| CodecError {
        detail: format!("invalid graph CSR: {e}"),
    })
}

fn enc_ontology(e: &mut Enc, o: &Ontology) {
    e.u64(o.num_labels() as u64);
    let edges: Vec<(LabelId, LabelId)> = o.subtype_edges().collect();
    e.u64(edges.len() as u64);
    for (sup, sub) in edges {
        e.u32(sup.0);
        e.u32(sub.0);
    }
}

fn dec_ontology(d: &mut Dec<'_>) -> Result<Ontology, CodecError> {
    let num_labels = d.u64()? as usize;
    let n = d.seq_len()?;
    let mut b = OntologyBuilder::new(num_labels);
    for _ in 0..n {
        let sup = d.u32()?;
        let sub = d.u32()?;
        if sup as usize >= num_labels || sub as usize >= num_labels {
            return bad(format!(
                "ontology edge ({sup}, {sub}) outside alphabet of {num_labels}"
            ));
        }
        b.add_subtype(LabelId(sup), LabelId(sub));
    }
    b.build().map_err(|e| CodecError {
        detail: format!("invalid ontology: {e}"),
    })
}

// ---------------------------------------------------------------------
// Index (hierarchy)
// ---------------------------------------------------------------------

fn enc_vids(e: &mut Enc, vs: &[VId]) {
    e.u32_slice(&vs.iter().map(|v| v.0).collect::<Vec<_>>());
}

fn dec_vids(d: &mut Dec<'_>, bound: usize, what: &str) -> Result<Vec<VId>, CodecError> {
    let raw = d.u32_slice()?;
    for &v in &raw {
        if v as usize >= bound {
            return bad(format!("{what}: vertex id {v} out of range (n = {bound})"));
        }
    }
    Ok(raw.into_iter().map(VId).collect())
}

/// Serializes the full hierarchy into an [`Section::Index`] frame.
pub fn encode_index(idx: &BiGIndex) -> Vec<u8> {
    let mut e = Enc::new(Section::Index);
    e.u8(match idx.direction() {
        BisimDirection::Forward => 0,
        BisimDirection::Backward => 1,
        BisimDirection::Both => 2,
    });
    // Reserved pair, always 0/0: older builds wrote a summarizer tag
    // here, and keeping the bytes keeps the frame, and so every saved
    // generation and pinned checksum, unchanged.
    e.u8(0);
    e.u32(0);
    enc_graph(&mut e, idx.base());
    enc_ontology(&mut e, idx.ontology());
    e.u64(idx.layers().len() as u64);
    for layer in idx.layers() {
        let mappings = layer.config.mappings();
        e.u64(mappings.len() as u64);
        for &(from, to) in mappings {
            e.u32(from.0);
            e.u32(to.0);
        }
        e.u32_slice(&layer.label_map.iter().map(|l| l.0).collect::<Vec<_>>());
        enc_graph(&mut e, &layer.graph);
        enc_vids(&mut e, layer.supernode_table());
        let members = layer.member_table();
        e.u64(members.len() as u64);
        for list in members.lists() {
            enc_vids(&mut e, list);
        }
    }
    e.finish()
}

/// Decodes a hierarchy frame. Structural defects (bad ids, mismatched
/// table widths, invalid configurations) are typed errors; the caller
/// still must run `bgi_verify::check_index` before serving the result.
pub fn decode_index(bytes: &[u8]) -> Result<BiGIndex, CodecError> {
    let mut d = Dec::open(bytes, Section::Index)?;
    let direction = match d.u8()? {
        0 => BisimDirection::Forward,
        1 => BisimDirection::Backward,
        2 => BisimDirection::Both,
        x => return bad(format!("unknown bisimulation direction tag {x}")),
    };
    match (d.u8()?, d.u32()?) {
        (0, 0) => {}
        (1, k) => return bad(format!("k-bounded summary (k = {k}) is unsupported")),
        (tag, arg) => return bad(format!("reserved bytes {tag}/{arg} are not 0/0")),
    }
    let base = dec_graph(&mut d)?;
    let ontology = dec_ontology(&mut d)?;
    let num_layers = d.seq_len()?;
    let mut layers = Vec::with_capacity(num_layers);
    let mut lower_n = base.num_vertices();
    for i in 0..num_layers {
        let n_mappings = d.seq_len()?;
        let mut mappings = Vec::with_capacity(n_mappings);
        for _ in 0..n_mappings {
            mappings.push((LabelId(d.u32()?), LabelId(d.u32()?)));
        }
        let config = GenConfig::new(mappings, &ontology).map_err(|e| CodecError {
            detail: format!("layer {}: invalid configuration: {e}", i + 1),
        })?;
        let label_map: Vec<LabelId> = d.u32_slice()?.into_iter().map(LabelId).collect();
        let graph = dec_graph(&mut d)?;
        let supernode_of = dec_vids(&mut d, graph.num_vertices(), "χ table")?;
        if supernode_of.len() != lower_n {
            return bad(format!(
                "layer {}: χ table covers {} vertices, lower graph has {lower_n}",
                i + 1,
                supernode_of.len()
            ));
        }
        let n_members = d.seq_len()?;
        if n_members != graph.num_vertices() {
            return bad(format!(
                "layer {}: {} member lists for {} supernodes",
                i + 1,
                n_members,
                graph.num_vertices()
            ));
        }
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(dec_vids(&mut d, lower_n, "Bisim⁻¹ table")?);
        }
        lower_n = graph.num_vertices();
        layers.push(Layer::new(config, label_map, graph, supernode_of, members));
    }
    d.finish()?;
    Ok(BiGIndex::from_parts(base, ontology, layers, direction))
}

// ---------------------------------------------------------------------
// Parameters
// ---------------------------------------------------------------------

/// Serializes the build/serve parameters into a [`Section::Params`]
/// frame.
pub fn encode_params(blinks: &BlinksParams, rclique: &RClique, eval: &EvalOptions) -> Vec<u8> {
    let mut e = Enc::new(Section::Params);
    e.u64(blinks.block_size as u64);
    e.u32(blinks.prune_dist);
    e.u32(rclique.radius);
    e.f64(eval.beta);
    e.u8(match eval.realizer {
        RealizerKind::VertexAtATime => 0,
        RealizerKind::PathBased => 1,
        RealizerKind::DistanceVerify => 2,
        RealizerKind::StructuralThenDistance => 3,
    });
    e.u8(u8::from(eval.use_spec_order));
    e.u8(u8::from(eval.early_keyword_spec));
    e.u64(eval.overfetch as u64);
    e.u64(eval.grace_ops);
    e.finish()
}

/// Decodes a parameters frame.
pub fn decode_params(bytes: &[u8]) -> Result<(BlinksParams, RClique, EvalOptions), CodecError> {
    let mut d = Dec::open(bytes, Section::Params)?;
    let blinks = BlinksParams {
        block_size: d.u64()? as usize,
        prune_dist: d.u32()?,
    };
    let rclique = RClique { radius: d.u32()? };
    let beta = d.f64()?;
    if !beta.is_finite() {
        return bad("non-finite β");
    }
    let realizer = match d.u8()? {
        0 => RealizerKind::VertexAtATime,
        1 => RealizerKind::PathBased,
        2 => RealizerKind::DistanceVerify,
        3 => RealizerKind::StructuralThenDistance,
        x => return bad(format!("unknown realizer tag {x}")),
    };
    let eval = EvalOptions {
        beta,
        realizer,
        use_spec_order: d.u8()? != 0,
        early_keyword_spec: d.u8()? != 0,
        overfetch: d.u64()? as usize,
        grace_ops: d.u64()?,
    };
    d.finish()?;
    Ok((blinks, rclique, eval))
}

// ---------------------------------------------------------------------
// Per-layer search indexes
// ---------------------------------------------------------------------

/// Serializes one layer's BANKS index into a [`Section::Banks`] frame.
pub fn encode_banks(b: &BanksIndex) -> Vec<u8> {
    let mut e = Enc::new(Section::Banks);
    let lists = b.label_lists();
    e.u64(lists.len() as u64);
    for list in lists {
        enc_vids(&mut e, list);
    }
    e.finish()
}

/// Decodes a BANKS frame for a layer graph with `n` vertices.
pub fn decode_banks(bytes: &[u8], n: usize) -> Result<BanksIndex, CodecError> {
    let mut d = Dec::open(bytes, Section::Banks)?;
    let count = d.seq_len()?;
    let mut lists = Vec::with_capacity(count);
    for _ in 0..count {
        lists.push(dec_vids(&mut d, n, "BANKS inverted list")?);
    }
    d.finish()?;
    Ok(BanksIndex::from_parts(lists))
}

/// Serializes one layer's BLINKS index into a [`Section::Blinks`]
/// frame. Only the partition and `KNL` are stored — `NKM` and `KBL`
/// are derived on load. `KNL` entries are written in sorted label
/// order so the encoding is deterministic.
pub fn encode_blinks(b: &BlinksIndex) -> Vec<u8> {
    let mut e = Enc::new(Section::Blinks);
    let partition = b.partition();
    e.u32_slice(partition.block_table());
    e.u64(partition.num_blocks() as u64);
    e.u32(b.prune_dist());
    let mut labels: Vec<LabelId> = b.knl_table().keys().copied().collect();
    labels.sort_unstable();
    e.u64(labels.len() as u64);
    for l in labels {
        e.u32(l.0);
        // Present by construction: `l` was drawn from the table's keys.
        let entries = b.knl_table().get(&l).map_or(&[][..], Vec::as_slice);
        e.u64(entries.len() as u64);
        for &(dist, v) in entries {
            e.u32(u32::from(dist));
            e.u32(v.0);
        }
    }
    e.finish()
}

/// Decodes a BLINKS frame for a layer graph with `n` vertices.
pub fn decode_blinks(bytes: &[u8], n: usize) -> Result<BlinksIndex, CodecError> {
    let mut d = Dec::open(bytes, Section::Blinks)?;
    let block_of = d.u32_slice()?;
    if block_of.len() != n {
        return bad(format!(
            "partition covers {} vertices, graph has {n}",
            block_of.len()
        ));
    }
    let num_blocks = d.u64()? as usize;
    for &b in &block_of {
        if b as usize >= num_blocks {
            return bad(format!("block id {b} out of range ({num_blocks} blocks)"));
        }
    }
    let partition = GraphPartition::from_parts(block_of, num_blocks);
    let prune_dist = d.u32()?;
    let n_labels = d.seq_len()?;
    let mut knl: FxHashMap<LabelId, Vec<(u16, VId)>> = FxHashMap::default();
    for _ in 0..n_labels {
        let label = LabelId(d.u32()?);
        let n_entries = d.seq_len()?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let dist = d.u32()?;
            if dist > u32::from(u16::MAX) || dist > prune_dist {
                return bad(format!("KNL distance {dist} over bound {prune_dist}"));
            }
            let v = d.u32()?;
            if v as usize >= n {
                return bad(format!("KNL vertex {v} out of range (n = {n})"));
            }
            entries.push((dist as u16, VId(v)));
        }
        if knl.insert(label, entries).is_some() {
            return bad(format!("duplicate KNL label {}", label.0));
        }
    }
    d.finish()?;
    Ok(BlinksIndex::from_parts(partition, prune_dist, knl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId};
    use big_index::BuildParams;

    fn tiny_bundle() -> IndexBundle {
        // A small labeled graph with a 2-level ontology so the build
        // produces at least one generalizing layer.
        let mut ob = OntologyBuilder::new(6);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        ob.add_subtype(LabelId(3), LabelId(4));
        ob.add_subtype(LabelId(3), LabelId(5));
        let ontology = ob.build().unwrap();
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            b.add_vertex(LabelId(1 + (i % 2)));
        }
        for i in 0..20u32 {
            b.add_vertex(LabelId(4 + (i % 2)));
        }
        for i in 0..39u32 {
            b.add_edge(VId(i), VId(i + 1));
            b.add_edge(VId(i + 1), VId(i % 7));
        }
        let g = b.build();
        let index = BiGIndex::build(g, ontology, &BuildParams::default());
        IndexBundle::build(
            index,
            BlinksParams {
                block_size: 8,
                prune_dist: 4,
            },
            RClique { radius: 3 },
            EvalOptions::default(),
        )
    }

    #[test]
    fn index_roundtrip_is_equal() {
        let bundle = tiny_bundle();
        let bytes = encode_index(&bundle.index);
        let back = decode_index(&bytes).unwrap();
        assert_eq!(back, bundle.index);
        assert!(back.verify().is_clean());
    }

    #[test]
    fn params_roundtrip() {
        let blinks = BlinksParams {
            block_size: 123,
            prune_dist: 9,
        };
        let rclique = RClique { radius: 2 };
        let eval = EvalOptions {
            beta: 0.7,
            realizer: RealizerKind::StructuralThenDistance,
            use_spec_order: false,
            early_keyword_spec: true,
            overfetch: 2,
            grace_ops: 123_456,
        };
        let bytes = encode_params(&blinks, &rclique, &eval);
        let (b2, r2, e2) = decode_params(&bytes).unwrap();
        assert_eq!(b2, blinks);
        assert_eq!(r2, rclique);
        assert_eq!(e2, eval);
    }

    #[test]
    fn search_index_roundtrips_are_equal() {
        let bundle = tiny_bundle();
        for (m, banks) in bundle.banks.iter().enumerate() {
            let n = bundle.index.graph_at(m).num_vertices();
            let back = decode_banks(&encode_banks(banks), n).unwrap();
            assert_eq!(&back, banks, "banks layer {m}");
        }
        for (m, blinks) in bundle.blinks.iter().enumerate() {
            let n = bundle.index.graph_at(m).num_vertices();
            let back = decode_blinks(&encode_blinks(blinks), n).unwrap();
            assert_eq!(&back, blinks, "blinks layer {m}");
        }
    }

    #[test]
    fn corrupt_index_payload_is_typed_error() {
        let bundle = tiny_bundle();
        let bytes = encode_index(&bundle.index);
        // Re-frame valid-looking garbage so the checksum passes but the
        // structure does not: truncate the payload and re-checksum.
        let body_end = bytes.len() - 8;
        let mut bad = bytes[..body_end - 16].to_vec();
        let sum = crate::codec::fnv1a64(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(decode_index(&bad).is_err());
    }

    #[test]
    fn out_of_range_vertex_is_typed_error() {
        let bundle = tiny_bundle();
        let n = bundle.index.graph_at(0).num_vertices();
        let bytes = encode_banks(&bundle.banks[0]);
        // Decoding against a smaller graph must reject the same ids.
        assert!(decode_banks(&bytes, 1).is_err());
        assert!(decode_banks(&bytes, n).is_ok());
    }
}
