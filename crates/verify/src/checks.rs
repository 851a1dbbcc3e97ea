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
pub fn check_index<I: IndexView + ?Sized>(idx: &I) -> Report {
    let h = idx.num_layers();
    let checks = vec![
        check_ontology_acyclic(idx),
        check_config_ancestry(idx, h),
        check_label_map_consistent(idx, h),
        check_path_preserving(idx, h),
        check_label_preserving(idx, h),
        check_no_phantom_edges(idx, h),
        check_partition_stable(idx, h),
        check_chi_round_trip(idx, h),
        check_members_partition(idx, h),
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

/// Def. 2.1 (path preservation), checked edge-wise: every `G^{m-1}`
/// edge `(u, v)` must have a `G^m` edge `(χ(u), χ(v))`. Edge-wise
/// preservation implies path preservation by induction.
fn check_path_preserving<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut edges = 0usize;
    let mut c = Check::pass(Invariant::PathPreserving, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let upper = idx.graph_at(m);
        let nu = upper.num_vertices();
        for (u, v) in lower.edges() {
            edges += 1;
            let (su, sv) = (idx.up(m, u), idx.up(m, v));
            if su.index() >= nu || sv.index() >= nu || !upper.has_edge(su, sv) {
                c.record(Witness::Edge { layer: m - 1, u, v });
            }
        }
    }
    c.detail = format!("{edges} lower edge(s) mapped through chi");
    c
}

/// Label preservation: each supernode carries exactly the generalized
/// label of its members, `label(χ(v)) = Cᵐ(label(v))`.
fn check_label_preserving<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut verts = 0usize;
    let mut c = Check::pass(Invariant::LabelPreserving, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let upper = idx.graph_at(m);
        let map = idx.label_map(m);
        let nu = upper.num_vertices();
        for v in lower.vertices() {
            verts += 1;
            let s = idx.up(m, v);
            let ok = s.index() < nu && gen_label(map, lower.label(v)) == Some(upper.label(s));
            if !ok {
                c.record(Witness::Vertex { layer: m - 1, v });
            }
        }
    }
    c.detail = format!("{verts} vertex label(s) compared");
    c
}

/// No phantom edges: every `G^m` edge must be the image of at least one
/// `G^{m-1}` edge — the summary adds no connectivity that Prop. 4.1's
/// refinement step could not specialize away.
fn check_no_phantom_edges<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut edges = 0usize;
    let mut c = Check::pass(Invariant::NoPhantomEdges, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let upper = idx.graph_at(m);
        let image: FxHashSet<(VId, VId)> = lower
            .edges()
            .map(|(u, v)| (idx.up(m, u), idx.up(m, v)))
            .collect();
        for (s, t) in upper.edges() {
            edges += 1;
            if !image.contains(&(s, t)) {
                c.record(Witness::Edge {
                    layer: m,
                    u: s,
                    v: t,
                });
            }
        }
    }
    c.detail = format!("{edges} summary edge(s) traced to pre-images");
    c
}

/// The block signature stability compares: the sorted, deduplicated set
/// of neighbor blocks of `v` in the given direction.
fn block_signature<I: IndexView + ?Sized>(
    idx: &I,
    m: usize,
    g: &DiGraph,
    v: VId,
    out: bool,
) -> Vec<VId> {
    let ns = if out {
        g.out_neighbors(v)
    } else {
        g.in_neighbors(v)
    };
    let mut sig: Vec<VId> = ns.iter().map(|&n| idx.up(m, n)).collect();
    sig.sort_unstable();
    sig.dedup();
    sig
}

/// Stability of the summary partition on the *generalized* lower graph:
/// all members of a block must have identical generalized labels and
/// see the same set of neighbor blocks in the index's direction. Both
/// the maximal bisimulation a build computes and the finer partitions
/// split-only maintenance leaves are stable.
fn check_partition_stable<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let dir = idx.direction();
    let (chk_out, chk_in) = match dir {
        BisimDirection::Forward => (true, false),
        BisimDirection::Backward => (false, true),
        BisimDirection::Both => (true, true),
    };
    let mut blocks = 0usize;
    let mut c = Check::pass(Invariant::PartitionStable, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let map = idx.label_map(m);
        let gen = lower.relabel(map);
        let nu = idx.graph_at(m).num_vertices();
        blocks += nu;
        for s in 0..nu {
            let members = idx.down(m, VId(s as u32));
            let Some((&first, rest)) = members.split_first() else {
                continue; // empty blocks belong to MembersPartition
            };
            if first.index() >= gen.num_vertices() {
                c.record(Witness::Vertex {
                    layer: m - 1,
                    v: first,
                });
                continue;
            }
            let label0 = gen.label(first);
            let out0 = chk_out.then(|| block_signature(idx, m, &gen, first, true));
            let in0 = chk_in.then(|| block_signature(idx, m, &gen, first, false));
            for &v in rest {
                if v.index() >= gen.num_vertices() {
                    c.record(Witness::Vertex { layer: m - 1, v });
                    continue;
                }
                let same = gen.label(v) == label0
                    && out0
                        .as_ref()
                        .is_none_or(|s0| *s0 == block_signature(idx, m, &gen, v, true))
                    && in0
                        .as_ref()
                        .is_none_or(|s0| *s0 == block_signature(idx, m, &gen, v, false));
                if !same {
                    c.record(Witness::Vertex { layer: m - 1, v });
                }
            }
        }
    }
    c.detail = format!("{blocks} block(s) checked ({dir:?} direction)");
    c
}

/// `χ⁻¹` round-trips: for every lower vertex `v`, the member list of
/// its supernode contains `v` (`Bisim⁻¹(Bisim(v)) ∋ v`). This is the
/// hash-table lookup that query specialization descends through.
fn check_chi_round_trip<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut verts = 0usize;
    let mut c = Check::pass(Invariant::ChiRoundTrip, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let nu = idx.graph_at(m).num_vertices();
        for v in lower.vertices() {
            verts += 1;
            let s = idx.up(m, v);
            if s.index() >= nu || !idx.down(m, s).contains(&v) {
                c.record(Witness::Vertex { layer: m - 1, v });
            }
        }
    }
    c.detail = format!("{verts} round-trip(s) through chi tables");
    c
}

/// The `χ⁻¹` member lists must partition the lower layer exactly: every
/// supernode non-empty, members mapping back up to it, no lower vertex
/// claimed twice, and none left unclaimed.
fn check_members_partition<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut lists = 0usize;
    let mut c = Check::pass(Invariant::MembersPartition, String::new());
    for m in 1..=h {
        let lower = idx.graph_at(m - 1);
        let nl = lower.num_vertices();
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
                if v.index() >= nl || idx.up(m, v) != s || claimed[v.index()] {
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

/// The index's precomputed per-layer label supports (used for workload
/// statistics and generalized-mass accounting) must match a fresh
/// recount of each layer's graph.
fn check_support_counts<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
    let mut labels = 0usize;
    let mut c = Check::pass(Invariant::SupportCounts, String::new());
    for m in 0..=h {
        let counts = idx.graph_at(m).label_counts();
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
