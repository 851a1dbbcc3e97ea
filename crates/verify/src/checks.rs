//! The invariant checks behind [`check_index`].
//!
//! Every check is defensive: a corrupted index must produce a `Fail`
//! with a witness, never a panic, so all cross-layer lookups are
//! bounds-guarded before use.

use crate::report::{Check, Invariant, Report, Status};
use crate::view::IndexView;
use crate::Witness;
use bgi_bisim::BisimDirection;
use bgi_graph::{DiGraph, LabelId, VId};
use rustc_hash::FxHashSet;

/// Check every structural invariant of a built BiG-index and return a
/// structured [`Report`].
///
/// The checks, in order (see [`Invariant`] for the paper references):
/// ontology acyclicity, configuration ancestry (Def. 2.2), label-map
/// consistency, path preservation (Def. 2.1), label preservation,
/// absence of phantom edges, partition stability, `χ`/`χ⁻¹`
/// round-trips, member-list partitioning, and per-layer label-support
/// recounts. Every check ends `Pass` or `Fail`.
///
/// The whole report costs `O(|V| + |E|)` summed over the layers (plus
/// the ontology): each layer's `χ` table is read once, and path
/// preservation, phantom edges and stability share one stamp-array
/// pass per block.
pub fn check_index<I: IndexView + ?Sized>(idx: &I) -> Report {
    let h = idx.num_layers();
    let chis: Vec<LayerChi> = (1..=h).map(|m| LayerChi::new(idx, m)).collect();
    let (path, phantom, stable) = check_edges_and_stability(idx, &chis);
    let checks = vec![
        check_ontology_acyclic(idx),
        check_config_ancestry(idx, h),
        check_label_map_consistent(idx, h),
        path,
        check_label_preserving(idx, &chis),
        phantom,
        stable,
        check_chi_round_trip(idx, &chis),
        check_members_partition(idx, &chis),
        check_support_counts(idx, h),
    ];
    Report { checks }
}

/// `G_Ont` acyclicity: the stored topological order must enumerate each
/// label exactly once and place every supertype before its subtypes. A
/// violated edge is reported as a `Mapping { layer: 0, sup, sub }`.
fn check_ontology_acyclic<I: IndexView + ?Sized>(idx: &I) -> Check {
    let ont = idx.ontology();
    let n = ont.num_labels();
    let mut c = Check::pass(
        Invariant::OntologyAcyclic,
        format!("{n} labels, {} subtype edges", ont.num_edges()),
    );

    // Position of each label in the topological order; u32::MAX marks
    // "absent", which itself is a violation.
    let mut pos = vec![u32::MAX; n];
    for (i, &l) in ont.topological_order().iter().enumerate() {
        if l.index() >= n || pos[l.index()] != u32::MAX {
            c.record(Witness::Mapping {
                layer: 0,
                from: l,
                to: l,
            });
            continue;
        }
        pos[l.index()] = i as u32;
    }
    for (i, &p) in pos.iter().enumerate() {
        if p == u32::MAX {
            let l = LabelId(i as u32);
            c.record(Witness::Mapping {
                layer: 0,
                from: l,
                to: l,
            });
        }
    }
    for (sup, sub) in ont.subtype_edges() {
        let (ps, pb) = (pos[sup.index()], pos[sub.index()]);
        if ps == u32::MAX || pb == u32::MAX || ps >= pb {
            c.record(Witness::Mapping {
                layer: 0,
                from: sup,
                to: sub,
            });
        }
    }
    c
}

/// Def. 2.2: every configuration entry `ℓ → ℓ′` must map a label to a
/// *strict* ancestor in `G_Ont` (self-maps and non-ancestor targets are
/// both label-destroying).
fn check_config_ancestry<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let ont = idx.ontology();
    let mut total = 0usize;
    let mut c = Check::pass(Invariant::ConfigAncestry, String::new());
    for m in 1..=h {
        for &(from, to) in idx.config_mappings(m) {
            total += 1;
            if from == to || !ont.is_supertype_of(to, from) {
                c.record(Witness::Mapping { layer: m, from, to });
            }
        }
    }
    c.detail = format!("{total} mappings across {h} layer(s)");
    c
}

/// The dense label map stored with each layer must agree with its
/// configuration: `map[ℓ] = Cᵐ(ℓ)` on the domain, identity elsewhere,
/// and it must cover the lower layer's alphabet.
fn check_label_map_consistent<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut c = Check::pass(Invariant::LabelMapConsistent, format!("{h} layer map(s)"));
    for m in 1..=h {
        let map = idx.label_map(m);
        let mut domain = vec![None; map.len()];
        for &(from, to) in idx.config_mappings(m) {
            // A mapping for a label beyond the stored map is fine as
            // long as no lower vertex carries that label — the
            // alphabet-coverage check below catches the case where one
            // does.
            if from.index() < map.len() {
                domain[from.index()] = Some(to);
            }
        }
        for (i, &mapped) in map.iter().enumerate() {
            let l = LabelId(i as u32);
            let expect = domain[i].unwrap_or(l);
            if mapped != expect {
                c.record(Witness::Mapping {
                    layer: m,
                    from: l,
                    to: mapped,
                });
            }
        }
        // The map must be total over the labels the lower layer uses.
        let lower = idx.graph_at(m - 1);
        if lower.alphabet_size() > map.len() {
            if let Some(v) = lower
                .vertices()
                .find(|&v| lower.label(v).index() >= map.len())
            {
                c.record(Witness::Vertex { layer: m - 1, v });
            }
        }
    }
    c
}

/// Applies `Cᵐ` to a label, tolerating a short map (returns `None` so
/// the caller can report instead of panic).
fn gen_label(map: &[LabelId], l: LabelId) -> Option<LabelId> {
    map.get(l.index()).copied()
}

/// `χ` of one layer read once: `chi[v]` is the supernode of lower
/// vertex `v`, and the lower vertices grouped by it — those whose image
/// is `s < nu` ascending in `ids[offsets[s]..offsets[s + 1]]`, and
/// every vertex whose image is out of range after them, in
/// `ids[offsets[nu]..]`.
struct LayerChi {
    chi: Vec<VId>,
    offsets: Vec<u32>,
    ids: Vec<VId>,
}

impl LayerChi {
    fn new<I: IndexView + ?Sized>(idx: &I, m: usize) -> LayerChi {
        let nl = idx.graph_at(m - 1).num_vertices();
        let nu = idx.graph_at(m).num_vertices();
        let chi: Vec<VId> = (0..nl as u32).map(|v| idx.up(m, VId(v))).collect();
        // Counting sort by image; out-of-range images share bucket `nu`.
        let bucket = |s: VId| s.index().min(nu);
        let mut offsets = vec![0u32; nu + 2];
        for &s in &chi {
            offsets[bucket(s) + 1] += 1;
        }
        for i in 0..=nu {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![VId(0); nl];
        for (v, &s) in chi.iter().enumerate() {
            ids[cursor[bucket(s)] as usize] = VId(v as u32);
            cursor[bucket(s)] += 1;
        }
        LayerChi { chi, offsets, ids }
    }

    /// The lower vertices `χ` maps to supernode `s` (or, for `s = nu`,
    /// out of range).
    fn preimage(&self, s: usize) -> &[VId] {
        &self.ids[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    fn in_range(&self, nu: usize) -> bool {
        self.offsets[nu] as usize == self.chi.len()
    }
}

/// Stamp arrays over one layer's supernodes: a slot holds the token of
/// the last visit that set it, so one allocation per layer serves every
/// block and every member without clearing.
struct Stamps {
    next: u32,
    /// A summary row being traced: its targets, then those with a
    /// pre-image.
    row: Vec<u32>,
    hit: Vec<u32>,
    /// A block's first member's neighbor blocks, per direction
    /// (`[out, in]`), and one other member's.
    first: [Vec<u32>; 2],
    seen: Vec<u32>,
}

impl Stamps {
    fn new(nu: usize) -> Stamps {
        Stamps {
            next: 0,
            row: vec![0; nu],
            hit: vec![0; nu],
            first: [vec![0; nu], vec![0; nu]],
            seen: vec![0; nu],
        }
    }

    fn token(&mut self) -> u32 {
        self.next += 1;
        self.next
    }

    /// Stamps the blocks `chi` maps `ns` to as side `side`'s reference
    /// set; returns its token and size.
    fn stamp_first(&mut self, side: usize, ns: &[VId], chi: &[VId]) -> (u32, usize) {
        let token = self.token();
        let mut size = 0;
        for &n in ns {
            let t = chi[n.index()].index();
            if self.first[side][t] != token {
                self.first[side][t] = token;
                size += 1;
            }
        }
        (token, size)
    }

    /// Whether `ns` maps onto exactly the reference set `(token, size)`
    /// of side `side`.
    fn same_set(
        &mut self,
        side: usize,
        (first, size): (u32, usize),
        ns: &[VId],
        chi: &[VId],
    ) -> bool {
        let token = self.token();
        let mut seen = 0;
        for &n in ns {
            let t = chi[n.index()].index();
            if self.first[side][t] != first {
                return false;
            }
            if self.seen[t] != token {
                self.seen[t] = token;
                seen += 1;
            }
        }
        seen == size
    }
}

/// The three checks that relate a layer's edges to the layer below,
/// done together in one stamp-array pass per block:
///
/// - Def. 2.1 (path preservation), checked edge-wise: every `G^{m-1}`
///   edge `(u, v)` must have a `G^m` edge `(χ(u), χ(v))`. Edge-wise
///   preservation implies path preservation by induction.
/// - No phantom edges: every `G^m` edge must be the image of at least
///   one `G^{m-1}` edge — the summary adds no connectivity that
///   Prop. 4.1's refinement step could not specialize away.
/// - Stability of the summary partition on the *generalized* lower
///   graph: all members of a block must have identical generalized
///   labels and see the same set of neighbor blocks in the index's
///   direction. Both the maximal bisimulation a build computes and the
///   finer partitions split-only maintenance leaves are stable.
///
/// Per supernode `S`: stamp `S`'s summary row, walk the lower vertices
/// `χ` maps to `S` and their edges (each image either lands in the
/// stamped row — a pre-image, marked — or is a lost edge), then read
/// the row back for unmarked (phantom) edges; then stamp the first
/// listed member's neighbor blocks and compare every other member
/// against them. `O(|V| + |E|)` per layer, with no copy of the lower
/// graph, no hash set and no per-vertex allocation. Witnesses come out
/// in the order of an edge-by-edge / block-by-block scan.
fn check_edges_and_stability<I: IndexView + ?Sized>(
    idx: &I,
    chis: &[LayerChi],
) -> (Check, Check, Check) {
    let dir = idx.direction();
    let (chk_out, chk_in) = match dir {
        BisimDirection::Forward => (true, false),
        BisimDirection::Backward => (false, true),
        BisimDirection::Both => (true, true),
    };
    let mut path = Check::pass(Invariant::PathPreserving, String::new());
    let mut phantom = Check::pass(Invariant::NoPhantomEdges, String::new());
    let mut stable = Check::pass(Invariant::PartitionStable, String::new());
    let (mut lower_edges, mut upper_edges, mut blocks) = (0usize, 0usize, 0usize);
    for (m, lc) in (1..).zip(chis) {
        let lower = idx.graph_at(m - 1);
        let upper = idx.graph_at(m);
        let map = idx.label_map(m);
        let nu = upper.num_vertices();
        lower_edges += lower.num_edges();
        upper_edges += upper.num_edges();
        blocks += nu;
        let lower_offsets = lower.csr_parts().1;
        // Lost edges, keyed by their CSR position so they are recorded
        // in edge order.
        let mut lost: Vec<(u32, VId, VId)> = Vec::new();
        let mut st = Stamps::new(nu);
        let in_range = lc.in_range(nu);
        let label = |v: VId| gen_label(map, lower.label(v));
        let nl = lower.num_vertices();
        for s in 0..nu {
            let token = st.token();
            for &t in upper.out_neighbors(VId(s as u32)) {
                st.row[t.index()] = token;
            }
            for &u in lc.preimage(s) {
                let at = lower_offsets[u.index()];
                for (i, &v) in lower.out_neighbors(u).iter().enumerate() {
                    let t = lc.chi[v.index()];
                    if t.index() < nu && st.row[t.index()] == token {
                        st.hit[t.index()] = token;
                    } else {
                        lost.push((at + i as u32, u, v));
                    }
                }
            }
            for &t in upper.out_neighbors(VId(s as u32)) {
                if st.hit[t.index()] != token {
                    phantom.record(Witness::Edge {
                        layer: m,
                        u: VId(s as u32),
                        v: t,
                    });
                }
            }
            let members = idx.down(m, VId(s as u32));
            let Some((&first, rest)) = members.split_first() else {
                continue; // empty blocks belong to MembersPartition
            };
            if first.index() >= nl {
                stable.record(Witness::Vertex {
                    layer: m - 1,
                    v: first,
                });
                continue;
            }
            let label0 = label(first);
            if !in_range {
                // A χ image past the layer has no stamp slot: compare
                // this corrupt layer's signatures as sorted lists.
                let sig = |v: VId, out: bool| {
                    let ns = if out {
                        lower.out_neighbors(v)
                    } else {
                        lower.in_neighbors(v)
                    };
                    let mut sig: Vec<VId> = ns.iter().map(|&n| lc.chi[n.index()]).collect();
                    sig.sort_unstable();
                    sig.dedup();
                    sig
                };
                let (out0, in0) = (sig(first, true), sig(first, false));
                for &v in rest {
                    let same = v.index() < nl
                        && label(v) == label0
                        && (!chk_out || sig(v, true) == out0)
                        && (!chk_in || sig(v, false) == in0);
                    if !same {
                        stable.record(Witness::Vertex { layer: m - 1, v });
                    }
                }
                continue;
            }
            let out0 = chk_out.then(|| st.stamp_first(0, lower.out_neighbors(first), &lc.chi));
            let in0 = chk_in.then(|| st.stamp_first(1, lower.in_neighbors(first), &lc.chi));
            for &v in rest {
                let same = v.index() < nl
                    && label(v) == label0
                    && out0.is_none_or(|o| st.same_set(0, o, lower.out_neighbors(v), &lc.chi))
                    && in0.is_none_or(|i| st.same_set(1, i, lower.in_neighbors(v), &lc.chi));
                if !same {
                    stable.record(Witness::Vertex { layer: m - 1, v });
                }
            }
        }
        // Vertices mapped out of range lose every edge.
        for &u in lc.preimage(nu) {
            let at = lower_offsets[u.index()];
            for (i, &v) in lower.out_neighbors(u).iter().enumerate() {
                lost.push((at + i as u32, u, v));
            }
        }
        lost.sort_unstable_by_key(|&(at, _, _)| at);
        for (_, u, v) in lost {
            path.record(Witness::Edge { layer: m - 1, u, v });
        }
    }
    path.detail = format!("{lower_edges} lower edge(s) mapped through chi");
    phantom.detail = format!("{upper_edges} summary edge(s) traced to pre-images");
    stable.detail = format!("{blocks} block(s) checked ({dir:?} direction)");
    (path, phantom, stable)
}
/// Label preservation: each supernode carries exactly the generalized
/// label of its members, `label(χ(v)) = Cᵐ(label(v))`.
fn check_label_preserving<I: IndexView + ?Sized>(idx: &I, chis: &[LayerChi]) -> Check {
    let mut verts = 0usize;
    let mut c = Check::pass(Invariant::LabelPreserving, String::new());
    for (m, lc) in (1..).zip(chis) {
        let lower = idx.graph_at(m - 1);
        let upper = idx.graph_at(m);
        let map = idx.label_map(m);
        let nu = upper.num_vertices();
        for (v, &s) in lc.chi.iter().enumerate() {
            verts += 1;
            let v = VId(v as u32);
            let ok = s.index() < nu && gen_label(map, lower.label(v)) == Some(upper.label(s));
            if !ok {
                c.record(Witness::Vertex { layer: m - 1, v });
            }
        }
    }
    c.detail = format!("{verts} vertex label(s) compared");
    c
}

/// `χ⁻¹` round-trips: for every lower vertex `v`, the member list of
/// its supernode contains `v` (`Bisim⁻¹(Bisim(v)) ∋ v`). This is the
/// hash-table lookup that query specialization descends through. One
/// pass over the member lists marks every vertex listed under its own
/// supernode, so the check is linear however large a block is.
fn check_chi_round_trip<I: IndexView + ?Sized>(idx: &I, chis: &[LayerChi]) -> Check {
    let mut verts = 0usize;
    let mut c = Check::pass(Invariant::ChiRoundTrip, String::new());
    for (m, lc) in (1..).zip(chis) {
        let nl = lc.chi.len();
        let nu = idx.graph_at(m).num_vertices();
        let mut listed = vec![false; nl];
        for s in 0..nu {
            for &w in idx.down(m, VId(s as u32)) {
                if w.index() < nl && lc.chi[w.index()].index() == s {
                    listed[w.index()] = true;
                }
            }
        }
        for (v, &s) in lc.chi.iter().enumerate() {
            verts += 1;
            if s.index() >= nu || !listed[v] {
                c.record(Witness::Vertex {
                    layer: m - 1,
                    v: VId(v as u32),
                });
            }
        }
    }
    c.detail = format!("{verts} round-trip(s) through chi tables");
    c
}

/// The `χ⁻¹` member lists must partition the lower layer exactly: every
/// supernode non-empty, members mapping back up to it, no lower vertex
/// claimed twice, and none left unclaimed.
fn check_members_partition<I: IndexView + ?Sized>(idx: &I, chis: &[LayerChi]) -> Check {
    let mut lists = 0usize;
    let mut c = Check::pass(Invariant::MembersPartition, String::new());
    for (m, lc) in (1..).zip(chis) {
        let nl = lc.chi.len();
        let nu = idx.graph_at(m).num_vertices();
        let mut claimed = vec![false; nl];
        for si in 0..nu {
            lists += 1;
            let s = VId(si as u32);
            let members = idx.down(m, s);
            if members.is_empty() {
                // An empty supernode summarizes nothing.
                c.record(Witness::Vertex { layer: m, v: s });
            }
            for &v in members {
                if v.index() >= nl || lc.chi[v.index()] != s || claimed[v.index()] {
                    c.record(Witness::Vertex { layer: m - 1, v });
                } else {
                    claimed[v.index()] = true;
                }
            }
        }
        for (i, &hit) in claimed.iter().enumerate() {
            if !hit {
                c.record(Witness::Vertex {
                    layer: m - 1,
                    v: VId(i as u32),
                });
            }
        }
    }
    c.detail = format!("{lists} member list(s)");
    c
}

/// The index's per-layer label supports (used for workload statistics
/// and generalized-mass accounting, and read off each graph's label
/// table) must match a fresh recount of each layer's vertex labels.
fn check_support_counts<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut labels = 0usize;
    let mut c = Check::pass(Invariant::SupportCounts, String::new());
    for m in 0..=h {
        let g = idx.graph_at(m);
        let mut counts = vec![0u32; g.alphabet_size()];
        for &l in g.labels() {
            counts[l.index()] += 1;
        }
        for (i, &actual) in counts.iter().enumerate() {
            labels += 1;
            let l = LabelId(i as u32);
            let stored = idx.support_count(m, l);
            if stored != actual {
                c.record(Witness::Support {
                    layer: m,
                    label: l,
                    stored: u64::from(stored),
                    actual: u64::from(actual),
                });
            }
        }
    }
    c.detail = format!("{labels} (layer, label) support(s) recounted");
    c
}

/// Sharded-deployment boundary accounting: every ownership-crossing
/// edge of `g` must appear in exactly one cut list — the list of the
/// shard owning its source — and cut lists must contain nothing else
/// (no internal edges, no edges `g` does not have, no misfiled
/// entries). `owner[v]` is the owning shard of vertex `v`; `cuts[s]`
/// is shard `s`'s claimed cut list.
///
/// Not part of [`Invariant::ALL`]: monolithic indexes have no shards,
/// so the check only runs when the caller has a partition in hand.
pub fn check_shard_cuts(g: &DiGraph, owner: &[u32], cuts: &[Vec<(VId, VId)>]) -> Check {
    let mut c = Check::pass(
        Invariant::ShardCutAccounting,
        String::new(), // detail filled below
    );
    let shards = cuts.len() as u32;
    if owner.len() != g.num_vertices() {
        c.record(Witness::Vertex {
            layer: 0,
            v: VId(owner.len().min(g.num_vertices()) as u32),
        });
        c.detail = format!(
            "owner table covers {} vertices, graph has {}",
            owner.len(),
            g.num_vertices()
        );
        return c;
    }
    for (v, &o) in owner.iter().enumerate() {
        if o >= shards {
            c.record(Witness::Vertex {
                layer: 0,
                v: VId(v as u32),
            });
        }
    }
    if c.status == Status::Fail {
        c.detail = format!("owner id(s) out of range for {shards} shard(s)");
        return c;
    }
    // Claimed cut entries, with the shard that filed each.
    let mut claimed: FxHashSet<(VId, VId)> = FxHashSet::default();
    for (s, list) in cuts.iter().enumerate() {
        for &(u, v) in list {
            let valid = u.index() < owner.len()
                && v.index() < owner.len()
                && owner[u.index()] == s as u32
                && owner[v.index()] != s as u32;
            let fresh = claimed.insert((u, v));
            if !valid || !fresh {
                // Out of range, misfiled (wrong shard's list, or an
                // internal edge), or listed twice.
                c.record(Witness::Edge { layer: 0, u, v });
            }
        }
    }
    // Every claimed entry must be a real edge, and every real crossing
    // edge must be claimed.
    let mut crossing = 0usize;
    let mut edges: FxHashSet<(VId, VId)> = FxHashSet::default();
    for (u, v) in g.edges() {
        edges.insert((u, v));
        if owner[u.index()] != owner[v.index()] {
            crossing += 1;
            if !claimed.contains(&(u, v)) {
                c.record(Witness::Edge { layer: 0, u, v });
            }
        }
    }
    for &(u, v) in &claimed {
        if !edges.contains(&(u, v)) {
            c.record(Witness::Edge { layer: 0, u, v });
        }
    }
    c.detail = format!(
        "{crossing} crossing edge(s) accounted across {} cut list(s)",
        cuts.len()
    );
    c
}
