//! The serialized unit: a [`BiGIndex`] plus the per-layer r-clique
//! indexes and the parameters the three semantics run with.
//!
//! Encoding is exact: graphs round-trip through their raw CSR arrays
//! ([`DiGraph::from_csr`]), and layers carry the `χ`/`Bisim⁻¹` tables
//! verbatim. Nothing else is stored. BANKS and BLINKS search each layer
//! graph's own label table, which [`DiGraph::from_csr`] derives on load.
//! The r-clique indexes have no encoding either: beyond `radius` (in
//! the params frame) they hold a cache of balls, a function of the
//! layer graph, so a load rebuilds them. Decoding validates every
//! structural invariant (offset monotonicity, id ranges, table widths)
//! *before* constructing a type — a corrupt file surfaces as a
//! [`CodecError`], never a panic — and the store additionally gates the
//! decoded index behind `bgi_verify::check_index`.

use crate::codec::{CodecError, Dec, Enc, Section};
use bgi_bisim::BisimDirection;
use bgi_graph::{DiGraph, LabelId, Ontology, OntologyBuilder, VId};
use bgi_search::blinks::BlinksParams;
use bgi_search::rclique::{neighbor_index, NeighborIndex};
use bgi_search::{KeywordSearch, RClique};
use big_index::layer::Layer;
use big_index::{BiGIndex, EvalOptions, GenConfig};

/// Everything a serving process needs to answer queries without
/// rebuilding anything: the hierarchy plus the per-layer r-clique
/// indexes (entry `m` serves layer `m`, `0..=h`) and the parameters the
/// three semantics run with. BANKS and BLINKS keep no index: they
/// search each layer graph's label table.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexBundle {
    /// The BiG-index hierarchy.
    pub index: BiGIndex,
    /// Per-layer r-clique neighbor indexes.
    pub rclique: Vec<NeighborIndex>,
    /// Parameters BLINKS searches with.
    pub blinks_params: BlinksParams,
    /// Parameters the r-clique indexes were built with.
    pub rclique_params: RClique,
}

/// Builds the per-layer r-clique indexes of `index`, one task per
/// layer on up to `threads` workers, in layer order.
///
/// Every task is independent (each reads one immutable layer graph) and
/// task `m` always builds layer `m`, so the heaviest task (layer 0's) is
/// claimed first and the result is identical to the serial loop for any
/// thread count.
pub fn build_layer_indexes(
    index: &BiGIndex,
    rclique_params: RClique,
    threads: usize,
) -> Vec<NeighborIndex> {
    bgi_graph::par::par_map(threads, index.num_layers() + 1, |m| {
        rclique_params.build_index(index.graph_at(m))
    })
}

impl IndexBundle {
    /// Builds every algorithm's index on every layer of `index` — the
    /// step persistence exists to amortize — with the per-layer builds
    /// fanned out over up to `threads` scoped workers. The resulting
    /// bundle, down to its encoded bytes, is identical for every thread
    /// count.
    pub fn build(
        index: BiGIndex,
        blinks_params: BlinksParams,
        rclique_params: RClique,
        threads: usize,
    ) -> Self {
        let rclique = build_layer_indexes(&index, rclique_params, threads);
        IndexBundle {
            index,
            rclique,
            blinks_params,
            rclique_params,
        }
    }

    /// [`IndexBundle::build`] under its older signature. The
    /// [`EvalOptions`] argument is ignored: a bundle holds no evaluation
    /// options (serving evaluates with [`EvalOptions::default`]). It
    /// stays only so the standalone benchmark workspace, which builds
    /// against this crate, keeps compiling.
    pub fn build_with_threads(
        index: BiGIndex,
        blinks_params: BlinksParams,
        rclique_params: RClique,
        _eval: EvalOptions,
        threads: usize,
    ) -> Self {
        Self::build(index, blinks_params, rclique_params, threads)
    }

    /// Number of hierarchy layers `h` (the index vector has `h + 1`
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

/// Serializes the build parameters into a [`Section::Params`] frame.
pub fn encode_params(blinks: &BlinksParams, rclique: &RClique) -> Vec<u8> {
    let mut e = Enc::new(Section::Params);
    // Reserved, always 0: older builds wrote BLINKS' partition block
    // size here, and keeping the slot keeps the frame layout unchanged.
    e.u64(0);
    e.u32(blinks.prune_dist);
    e.u32(rclique.radius);
    // Reserved block, 27 bytes: older builds persisted evaluation
    // options here (β, realizer tag, spec-order and isKey flags,
    // overfetch, grace ops). A bundle holds none now; writing their
    // defaults, as those builds did, keeps every generation
    // byte-identical to theirs and servable by them.
    e.f64(0.4);
    e.u8(1);
    e.u8(1);
    e.u8(1);
    e.u64(4);
    e.u64(200_000);
    e.finish()
}

/// Decodes a parameters frame.
pub fn decode_params(bytes: &[u8]) -> Result<(BlinksParams, RClique), CodecError> {
    let mut d = Dec::open(bytes, Section::Params)?;
    // The reserved slot: older builds' block size, ignored.
    d.u64()?;
    let blinks = BlinksParams {
        prune_dist: d.u32()?,
    };
    let rclique = RClique { radius: d.u32()? };
    if rclique.radius > neighbor_index::MAX_RADIUS {
        return bad(format!(
            "r-clique radius {} exceeds {}, the largest a neighbor row can hold",
            rclique.radius,
            neighbor_index::MAX_RADIUS
        ));
    }
    // The reserved block: older builds' evaluation options, ignored
    // whatever they hold.
    d.f64()?;
    d.u8()?;
    d.u8()?;
    d.u8()?;
    d.u64()?;
    d.u64()?;
    d.finish()?;
    Ok((blinks, rclique))
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
            BlinksParams { prune_dist: 4 },
            RClique { radius: 3 },
            1,
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
}
