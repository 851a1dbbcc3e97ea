//! `check_index` against the per-invariant checks it replaced.
//!
//! The `reference` module below is the verifier as it was before path
//! preservation, phantom edges and stability were fused into one
//! linear stamp-array pass per block: ten independent scans, with a
//! relabeled copy of each lower graph, a hash set of edge images and a
//! sorted vector per vertex signature. On healthy indexes and on
//! damaged ones — every injection of `tests/verify.rs`, plus seeded
//! single-entry damage to `χ`, member lists and summary edges of a
//! generated index — the two must agree invariant by invariant: same
//! status, same violation count, same detail line and the same
//! witnesses, as a multiset.

use big_index_repro::bisim::{summarize, BisimDirection, Partition};
use big_index_repro::datasets::DatasetSpec;
use big_index_repro::graph::{DiGraph, GraphBuilder, LabelId, Ontology, OntologyBuilder, VId};
use big_index_repro::index::layer::Layer;
use big_index_repro::index::{greedy_full_step_configs, BiGIndex, GenConfig};
use big_index_repro::verify::{check_index, Check, IndexView, Invariant, Report, Status, Witness};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use super::*;
    use std::collections::HashSet;

    const MAX_WITNESSES: usize = 8;

    fn pass(invariant: Invariant, detail: impl Into<String>) -> Check {
        Check {
            invariant,
            status: Status::Pass,
            violations: 0,
            witnesses: Vec::new(),
            detail: detail.into(),
        }
    }

    fn record(c: &mut Check, w: Witness) {
        c.status = Status::Fail;
        c.violations += 1;
        if c.witnesses.len() < MAX_WITNESSES {
            c.witnesses.push(w);
        }
    }

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
    pub fn check_ontology_acyclic<I: IndexView + ?Sized>(idx: &I) -> Check {
        let ont = idx.ontology();
        let n = ont.num_labels();
        let mut c = pass(
            Invariant::OntologyAcyclic,
            format!("{n} labels, {} subtype edges", ont.num_edges()),
        );

        // Position of each label in the topological order; u32::MAX marks
        // "absent", which itself is a violation.
        let mut pos = vec![u32::MAX; n];
        for (i, &l) in ont.topological_order().iter().enumerate() {
            if l.index() >= n || pos[l.index()] != u32::MAX {
                record(
                    &mut c,
                    Witness::Mapping {
                        layer: 0,
                        from: l,
                        to: l,
                    },
                );
                continue;
            }
            pos[l.index()] = i as u32;
        }
        for (i, &p) in pos.iter().enumerate() {
            if p == u32::MAX {
                let l = LabelId(i as u32);
                record(
                    &mut c,
                    Witness::Mapping {
                        layer: 0,
                        from: l,
                        to: l,
                    },
                );
            }
        }
        for (sup, sub) in ont.subtype_edges() {
            let (ps, pb) = (pos[sup.index()], pos[sub.index()]);
            if ps == u32::MAX || pb == u32::MAX || ps >= pb {
                record(
                    &mut c,
                    Witness::Mapping {
                        layer: 0,
                        from: sup,
                        to: sub,
                    },
                );
            }
        }
        c
    }

    /// Def. 2.2: every configuration entry `ℓ → ℓ′` must map a label to a
    /// *strict* ancestor in `G_Ont` (self-maps and non-ancestor targets are
    /// both label-destroying).
    pub fn check_config_ancestry<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let ont = idx.ontology();
        let mut total = 0usize;
        let mut c = pass(Invariant::ConfigAncestry, String::new());
        for m in 1..=h {
            for &(from, to) in idx.config_mappings(m) {
                total += 1;
                if from == to || !ont.is_supertype_of(to, from) {
                    record(&mut c, Witness::Mapping { layer: m, from, to });
                }
            }
        }
        c.detail = format!("{total} mappings across {h} layer(s)");
        c
    }

    /// The dense label map stored with each layer must agree with its
    /// configuration: `map[ℓ] = Cᵐ(ℓ)` on the domain, identity elsewhere,
    /// and it must cover the lower layer's alphabet.
    pub fn check_label_map_consistent<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut c = pass(Invariant::LabelMapConsistent, format!("{h} layer map(s)"));
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
                    record(
                        &mut c,
                        Witness::Mapping {
                            layer: m,
                            from: l,
                            to: mapped,
                        },
                    );
                }
            }
            // The map must be total over the labels the lower layer uses.
            let lower = idx.graph_at(m - 1);
            if lower.alphabet_size() > map.len() {
                if let Some(v) = lower
                    .vertices()
                    .find(|&v| lower.label(v).index() >= map.len())
                {
                    record(&mut c, Witness::Vertex { layer: m - 1, v });
                }
            }
        }
        c
    }

    /// Applies `Cᵐ` to a label, tolerating a short map (returns `None` so
    /// the caller can report instead of panic).
    pub fn gen_label(map: &[LabelId], l: LabelId) -> Option<LabelId> {
        map.get(l.index()).copied()
    }

    /// Def. 2.1 (path preservation), checked edge-wise: every `G^{m-1}`
    /// edge `(u, v)` must have a `G^m` edge `(χ(u), χ(v))`. Edge-wise
    /// preservation implies path preservation by induction.
    pub fn check_path_preserving<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut edges = 0usize;
        let mut c = pass(Invariant::PathPreserving, String::new());
        for m in 1..=h {
            let lower = idx.graph_at(m - 1);
            let upper = idx.graph_at(m);
            let nu = upper.num_vertices();
            for (u, v) in lower.edges() {
                edges += 1;
                let (su, sv) = (idx.up(m, u), idx.up(m, v));
                if su.index() >= nu || sv.index() >= nu || !upper.has_edge(su, sv) {
                    record(&mut c, Witness::Edge { layer: m - 1, u, v });
                }
            }
        }
        c.detail = format!("{edges} lower edge(s) mapped through chi");
        c
    }

    /// Label preservation: each supernode carries exactly the generalized
    /// label of its members, `label(χ(v)) = Cᵐ(label(v))`.
    pub fn check_label_preserving<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut verts = 0usize;
        let mut c = pass(Invariant::LabelPreserving, String::new());
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
                    record(&mut c, Witness::Vertex { layer: m - 1, v });
                }
            }
        }
        c.detail = format!("{verts} vertex label(s) compared");
        c
    }

    /// No phantom edges: every `G^m` edge must be the image of at least one
    /// `G^{m-1}` edge — the summary adds no connectivity that Prop. 4.1's
    /// refinement step could not specialize away.
    pub fn check_no_phantom_edges<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut edges = 0usize;
        let mut c = pass(Invariant::NoPhantomEdges, String::new());
        for m in 1..=h {
            let lower = idx.graph_at(m - 1);
            let upper = idx.graph_at(m);
            let image: HashSet<(VId, VId)> = lower
                .edges()
                .map(|(u, v)| (idx.up(m, u), idx.up(m, v)))
                .collect();
            for (s, t) in upper.edges() {
                edges += 1;
                if !image.contains(&(s, t)) {
                    record(
                        &mut c,
                        Witness::Edge {
                            layer: m,
                            u: s,
                            v: t,
                        },
                    );
                }
            }
        }
        c.detail = format!("{edges} summary edge(s) traced to pre-images");
        c
    }

    /// The block signature stability compares: the sorted, deduplicated set
    /// of neighbor blocks of `v` in the given direction.
    pub fn block_signature<I: IndexView + ?Sized>(
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
    pub fn check_partition_stable<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let dir = idx.direction();
        let (chk_out, chk_in) = match dir {
            BisimDirection::Forward => (true, false),
            BisimDirection::Backward => (false, true),
            BisimDirection::Both => (true, true),
        };
        let mut blocks = 0usize;
        let mut c = pass(Invariant::PartitionStable, String::new());
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
                    record(
                        &mut c,
                        Witness::Vertex {
                            layer: m - 1,
                            v: first,
                        },
                    );
                    continue;
                }
                let label0 = gen.label(first);
                let out0 = chk_out.then(|| block_signature(idx, m, &gen, first, true));
                let in0 = chk_in.then(|| block_signature(idx, m, &gen, first, false));
                for &v in rest {
                    if v.index() >= gen.num_vertices() {
                        record(&mut c, Witness::Vertex { layer: m - 1, v });
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
                        record(&mut c, Witness::Vertex { layer: m - 1, v });
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
    pub fn check_chi_round_trip<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut verts = 0usize;
        let mut c = pass(Invariant::ChiRoundTrip, String::new());
        for m in 1..=h {
            let lower = idx.graph_at(m - 1);
            let nu = idx.graph_at(m).num_vertices();
            for v in lower.vertices() {
                verts += 1;
                let s = idx.up(m, v);
                if s.index() >= nu || !idx.down(m, s).contains(&v) {
                    record(&mut c, Witness::Vertex { layer: m - 1, v });
                }
            }
        }
        c.detail = format!("{verts} round-trip(s) through chi tables");
        c
    }

    /// The `χ⁻¹` member lists must partition the lower layer exactly: every
    /// supernode non-empty, members mapping back up to it, no lower vertex
    /// claimed twice, and none left unclaimed.
    pub fn check_members_partition<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut lists = 0usize;
        let mut c = pass(Invariant::MembersPartition, String::new());
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
                    record(&mut c, Witness::Vertex { layer: m, v: s });
                }
                for &v in members {
                    if v.index() >= nl || idx.up(m, v) != s || claimed[v.index()] {
                        record(&mut c, Witness::Vertex { layer: m - 1, v });
                    } else {
                        claimed[v.index()] = true;
                    }
                }
            }
            for (i, &hit) in claimed.iter().enumerate() {
                if !hit {
                    record(
                        &mut c,
                        Witness::Vertex {
                            layer: m - 1,
                            v: VId(i as u32),
                        },
                    );
                }
            }
        }
        c.detail = format!("{lists} member list(s)");
        c
    }

    /// The index's precomputed per-layer label supports (used for workload
    /// statistics and generalized-mass accounting) must match a fresh
    /// recount of each layer's graph.
    pub fn check_support_counts<I: IndexView + ?Sized>(idx: &I, h: usize) -> Check {
        let mut labels = 0usize;
        let mut c = pass(Invariant::SupportCounts, String::new());
        for m in 0..=h {
            let counts = idx.graph_at(m).label_counts();
            for (i, &actual) in counts.iter().enumerate() {
                labels += 1;
                let l = LabelId(i as u32);
                let stored = idx.support_count(m, l);
                if stored != actual {
                    record(
                        &mut c,
                        Witness::Support {
                            layer: m,
                            label: l,
                            stored: u64::from(stored),
                            actual: u64::from(actual),
                        },
                    );
                }
            }
        }
        c.detail = format!("{labels} (layer, label) support(s) recounted");
        c
    }
}

// ---------------------------------------------------------------------------
// Damage, through a lens over a pristine index
// ---------------------------------------------------------------------------

/// One injected defect per field; `None` delegates to the index.
#[derive(Default)]
struct Damage {
    /// `(m, s)`: supernode `s`'s `χ⁻¹` list at layer `m` reads empty.
    emptied_down: Option<(usize, VId)>,
    /// `(m, list)`: replacement member list of supernode `s` at layer `m`.
    members: Option<(usize, VId, Vec<VId>)>,
    /// `(m, v, s)`: lower vertex `v` maps up to `s` at layer `m`.
    chi: Option<(usize, VId, VId)>,
    /// `(m, s, t)`: every lower vertex of `s` maps up to `t` at layer `m`.
    chi_block: Option<(usize, VId, VId)>,
    /// Replacement for `Cᵐ`'s mappings.
    mappings: Option<(usize, Vec<(LabelId, LabelId)>)>,
    /// Replacement graph at layer `m`.
    graph: Option<(usize, DiGraph)>,
    /// `(m, ℓ)`: stored support of `ℓ` at layer `m` inflated by 7.
    support_bump: Option<(usize, LabelId)>,
}

struct Lens<'a> {
    inner: &'a BiGIndex,
    damage: Damage,
}

impl IndexView for Lens<'_> {
    fn ontology(&self) -> &Ontology {
        self.inner.ontology()
    }

    fn num_layers(&self) -> usize {
        IndexView::num_layers(self.inner)
    }

    fn graph_at(&self, m: usize) -> &DiGraph {
        match &self.damage.graph {
            Some((at, g)) if *at == m => g,
            _ => IndexView::graph_at(self.inner, m),
        }
    }

    fn config_mappings(&self, m: usize) -> &[(LabelId, LabelId)] {
        match &self.damage.mappings {
            Some((at, ms)) if *at == m => ms,
            _ => self.inner.config_mappings(m),
        }
    }

    fn label_map(&self, m: usize) -> &[LabelId] {
        IndexView::label_map(self.inner, m)
    }

    fn up(&self, m: usize, v: VId) -> VId {
        let real = IndexView::up(self.inner, m, v);
        match (self.damage.chi, self.damage.chi_block) {
            (Some((at, w, s)), _) if at == m && w == v => s,
            (_, Some((at, from, to))) if at == m && real == from => to,
            _ => real,
        }
    }

    fn down(&self, m: usize, s: VId) -> &[VId] {
        match (&self.damage.emptied_down, &self.damage.members) {
            (Some((at, victim)), _) if *at == m && *victim == s => &[],
            (_, Some((at, victim, list))) if *at == m && *victim == s => list,
            _ => IndexView::down(self.inner, m, s),
        }
    }

    fn direction(&self) -> BisimDirection {
        IndexView::direction(self.inner)
    }

    fn support_count(&self, m: usize, l: LabelId) -> u32 {
        let real = self.inner.support_count(m, l);
        match self.damage.support_bump {
            Some((at, label)) if at == m && l == label => real + 7,
            _ => real,
        }
    }
}

fn witnesses(c: &Check) -> Vec<String> {
    let mut ws: Vec<String> = c.witnesses.iter().map(|w| format!("{w:?}")).collect();
    ws.sort();
    ws
}

/// Runs both verifiers on `view` and asserts they agree; returns
/// whether the view is dirty.
fn agree<I: IndexView + ?Sized>(view: &I, what: &str) -> bool {
    let new = check_index(view);
    let old = reference::check_index(view);
    for inv in Invariant::ALL {
        let (a, b) = (new.check(inv).unwrap(), old.check(inv).unwrap());
        assert_eq!(
            a.status, b.status,
            "{what}: {inv:?} status\n{new}\nvs\n{old}"
        );
        assert_eq!(
            a.violations, b.violations,
            "{what}: {inv:?} count\n{new}\nvs\n{old}"
        );
        assert_eq!(a.detail, b.detail, "{what}: {inv:?} detail");
        assert_eq!(witnesses(a), witnesses(b), "{what}: {inv:?} witnesses");
    }
    !new.is_clean()
}

/// `g` with edge `(u, v)` added (`add`) or removed.
fn with_edge(g: &DiGraph, u: VId, v: VId, add: bool) -> DiGraph {
    let mut edges: Vec<(VId, VId)> = g.edges().filter(|&e| e != (u, v)).collect();
    if add {
        edges.push((u, v));
    }
    GraphBuilder::from_edges(g.labels().to_vec(), edges)
}

// ---------------------------------------------------------------------------
// The injections of tests/verify.rs
// ---------------------------------------------------------------------------

const NUM_LABELS: u32 = 6;

fn small_ontology() -> Ontology {
    let mut b = OntologyBuilder::new((NUM_LABELS + NUM_LABELS / 2) as usize);
    for i in 0..NUM_LABELS {
        b.add_subtype(LabelId(NUM_LABELS + i / 2), LabelId(i));
    }
    b.build().unwrap()
}

fn healthy_index() -> BiGIndex {
    let mut gb = GraphBuilder::new();
    let hub = gb.add_vertex(LabelId(4));
    let hub2 = gb.add_vertex(LabelId(5));
    gb.add_edge(hub, hub2);
    for i in 0..20 {
        let v = gb.add_vertex(LabelId(i % 4));
        gb.add_edge(v, if i % 3 == 0 { hub } else { hub2 });
    }
    let ont = small_ontology();
    let config = GenConfig::new(
        (0..NUM_LABELS).map(|i| (LabelId(i), LabelId(NUM_LABELS + i / 2))),
        &ont,
    )
    .unwrap();
    BiGIndex::build_with_configs(gb.build(), ont, vec![config], BisimDirection::Forward)
}

#[test]
fn the_verify_rs_injections_report_alike() {
    let inner = healthy_index();
    assert!(!agree(&inner, "healthy"));
    let lens = |damage| Lens {
        inner: &inner,
        damage,
    };
    assert!(agree(
        &lens(Damage {
            emptied_down: Some((1, VId(0))),
            ..Damage::default()
        }),
        "emptied χ⁻¹ list"
    ));
    let mut mappings = inner.config_mappings(1).to_vec();
    let pos = mappings.iter().position(|&(f, _)| f == LabelId(1)).unwrap();
    mappings[pos] = (LabelId(1), LabelId(NUM_LABELS + 1));
    assert!(agree(
        &lens(Damage {
            mappings: Some((1, mappings)),
            ..Damage::default()
        }),
        "non-ancestor mapping"
    ));
    let top = inner.graph_at(1);
    let n = top.num_vertices() as u32;
    let (u, v) = (0..n)
        .flat_map(|u| (0..n).map(move |v| (VId(u), VId(v))))
        .find(|&(u, v)| !top.has_edge(u, v))
        .unwrap();
    assert!(agree(
        &lens(Damage {
            graph: Some((1, with_edge(top, u, v, true))),
            ..Damage::default()
        }),
        "phantom summary edge"
    ));
    assert!(agree(
        &lens(Damage {
            support_bump: Some((1, LabelId(NUM_LABELS))),
            ..Damage::default()
        }),
        "stale support count"
    ));

    // The unstable quotient: the one-label chain 0 → 1 → 2 → 3 by
    // {0, 1, 2}, {3}.
    let base = GraphBuilder::from_edges(
        vec![LabelId(0); 4],
        (0..3).map(|v| (VId(v), VId(v + 1))).collect(),
    );
    let summary = summarize(&base, &Partition::new(vec![0, 0, 0, 1], 2));
    let layer = Layer::new(
        GenConfig::default(),
        vec![LabelId(0)],
        summary.graph.clone(),
        base.vertices().map(|v| summary.supernode_of(v)).collect(),
        summary
            .graph
            .vertices()
            .map(|s| summary.members(s).to_vec())
            .collect(),
    );
    let ontology = OntologyBuilder::new(1).build().unwrap();
    let unstable = BiGIndex::from_parts(base, ontology, vec![layer], BisimDirection::Forward);
    assert!(agree(&unstable, "unstable quotient"));
}

// ---------------------------------------------------------------------------
// Seeded damage to a generated index
// ---------------------------------------------------------------------------

fn generated(dir: BisimDirection) -> BiGIndex {
    let ds = DatasetSpec::yago_like(300).generate();
    let configs = greedy_full_step_configs(&ds.graph, &ds.ontology, 3, dir);
    BiGIndex::build_with_configs(ds.graph, ds.ontology, configs, dir)
}

/// One seeded single-entry defect of `index`.
fn damage(index: &BiGIndex, rng: &mut StdRng) -> (Damage, String) {
    let h = index.num_layers();
    let m = rng.gen_range(1..=h);
    let nl = index.graph_at(m - 1).num_vertices() as u32;
    let nu = index.graph_at(m).num_vertices() as u32;
    // Mostly in range, sometimes past the layer.
    let supernode = |rng: &mut StdRng| {
        if rng.gen_range(0..10) == 0 {
            VId(nu + rng.gen_range(0..3u32))
        } else {
            VId(rng.gen_range(0..nu))
        }
    };
    match rng.gen_range(0..6) {
        0 => {
            let v = VId(rng.gen_range(0..nl));
            let s = supernode(rng);
            let what = format!("χ{m}({v:?}) := {s:?}");
            (
                Damage {
                    chi: Some((m, v, s)),
                    ..Damage::default()
                },
                what,
            )
        }
        1 => {
            let from = VId(rng.gen_range(0..nu));
            let to = supernode(rng);
            let what = format!("χ{m} of block {from:?} := {to:?}");
            (
                Damage {
                    chi_block: Some((m, from, to)),
                    ..Damage::default()
                },
                what,
            )
        }
        2 => {
            let s = VId(rng.gen_range(0..nu));
            let mut list = IndexView::down(index, m, s).to_vec();
            let stranger = VId(rng.gen_range(0..nl + 2));
            match rng.gen_range(0..3) {
                0 if !list.is_empty() => {
                    list.remove(rng.gen_range(0..list.len()));
                }
                1 if !list.is_empty() => {
                    let at = rng.gen_range(0..list.len());
                    list[at] = stranger;
                }
                _ => list.insert(rng.gen_range(0..=list.len()), stranger),
            }
            let what = format!("χ⁻¹{m}({s:?}) := {list:?}");
            (
                Damage {
                    members: Some((m, s, list)),
                    ..Damage::default()
                },
                what,
            )
        }
        kind => {
            // An edge added to or removed from some layer's graph,
            // the data graph included.
            let m = rng.gen_range(0..=h);
            let g = index.graph_at(m);
            let add = kind != 5 || g.num_edges() == 0;
            let (u, v) = if add {
                let n = g.num_vertices() as u32;
                (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n)))
            } else {
                g.edges().nth(rng.gen_range(0..g.num_edges())).unwrap()
            };
            let what = format!("G{m} {} {u:?} -> {v:?}", if add { "+" } else { "-" });
            (
                Damage {
                    graph: Some((m, with_edge(g, u, v, add))),
                    ..Damage::default()
                },
                what,
            )
        }
    }
}

#[test]
fn seeded_damage_reports_alike() {
    for dir in [
        BisimDirection::Forward,
        BisimDirection::Backward,
        BisimDirection::Both,
    ] {
        let index = generated(dir);
        assert!(
            index.num_layers() >= 2,
            "{dir:?}: {} layers",
            index.num_layers()
        );
        assert!(!agree(&index, &format!("{dir:?} healthy")));
        let mut rng = StdRng::seed_from_u64(0xd1ff);
        let mut dirty = 0;
        for case in 0..80 {
            let (damage, what) = damage(&index, &mut rng);
            let lens = Lens {
                inner: &index,
                damage,
            };
            dirty += usize::from(agree(&lens, &format!("{dir:?} case {case}: {what}")));
        }
        // Most single-entry defects are caught (a few are harmless,
        // e.g. a duplicate edge or χ rewritten to its own value).
        assert!(
            dirty >= 60,
            "{dir:?}: only {dirty} of 80 damaged views fail"
        );
    }
}
