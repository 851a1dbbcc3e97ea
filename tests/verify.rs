//! The verification layer's own tests:
//!
//! - property tests: `check_index` passes all ten invariants on indexes
//!   built from random graph/ontology pairs in all three bisimulation
//!   directions;
//! - corruption negatives: targeted damage to a healthy index — a broken
//!   `χ⁻¹` table, a non-ancestor configuration entry, a phantom summary
//!   edge, a stale support count, an unstable quotient — is *detected*,
//!   attributed to the right invariant, and reported with a concrete
//!   witness.
//!
//! Corruption is injected through wrapper views implementing
//! [`IndexView`] over a pristine `BiGIndex`, overriding exactly one
//! accessor each; the index itself is never mutated. The unstable
//! quotient is assembled from parts instead: no accessor override can
//! make a consistent index unstable.

use big_index_repro::bisim::{summarize, BisimDirection, Partition};
use big_index_repro::graph::{DiGraph, GraphBuilder, LabelId, Ontology, OntologyBuilder, VId};
use big_index_repro::index::layer::Layer;
use big_index_repro::index::{BiGIndex, GenConfig};
use big_index_repro::verify::{check_index, IndexView, Invariant, Report, Status, Witness};
use proptest::prelude::*;

/// Number of base labels; label `i` has supertype `NUM_LABELS + i/2`
/// (pairs of siblings), giving a 2-level ontology.
const NUM_LABELS: u32 = 6;

fn ontology() -> Ontology {
    let mut b = OntologyBuilder::new((NUM_LABELS + NUM_LABELS / 2) as usize);
    for i in 0..NUM_LABELS {
        b.add_subtype(LabelId(NUM_LABELS + i / 2), LabelId(i));
    }
    b.build().unwrap()
}

fn full_config(ont: &Ontology) -> GenConfig {
    GenConfig::new(
        (0..NUM_LABELS).map(|i| (LabelId(i), LabelId(NUM_LABELS + i / 2))),
        ont,
    )
    .unwrap()
}

prop_compose! {
    /// A random directed labeled graph of up to 60 vertices.
    fn arb_graph()(
        n in 2usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..150),
        labels in proptest::collection::vec(0u32..NUM_LABELS, 60),
    ) -> DiGraph {
        let mut b = GraphBuilder::new();
        for &l in labels.iter().take(n) {
            b.add_vertex(LabelId(l));
        }
        for (u, v) in edges {
            if u < n && v < n {
                b.add_edge(VId(u as u32), VId(v as u32));
            }
        }
        b.build()
    }
}

fn assert_clean(report: &Report) {
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.total_violations(), 0, "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn maximal_indexes_verify_clean(g in arb_graph()) {
        let ont = ontology();
        for dir in [BisimDirection::Forward, BisimDirection::Backward, BisimDirection::Both] {
            let index = BiGIndex::build_with_configs(
                g.clone(), ont.clone(), vec![full_config(&ont)], dir);
            let report = check_index(&index);
            assert_clean(&report);
            // Every invariant applies to every index.
            for inv in Invariant::ALL {
                prop_assert_eq!(
                    report.check(inv).expect("invariant present").status,
                    Status::Pass
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption injection
// ---------------------------------------------------------------------------

/// A small healthy index with one summary layer to damage: vertex count
/// chosen so the layer genuinely compresses.
fn healthy_index() -> BiGIndex {
    let mut gb = GraphBuilder::new();
    let hub = gb.add_vertex(LabelId(4));
    let hub2 = gb.add_vertex(LabelId(5));
    gb.add_edge(hub, hub2);
    for i in 0..20 {
        let v = gb.add_vertex(LabelId(i % 4));
        gb.add_edge(v, if i % 3 == 0 { hub } else { hub2 });
    }
    let g = gb.build();
    let ont = ontology();
    let index = BiGIndex::build_with_configs(
        g,
        ont.clone(),
        vec![full_config(&ont)],
        BisimDirection::Forward,
    );
    assert_clean(&check_index(&index));
    index
}

/// A corrupted lens over a healthy index: each `Option` field, when
/// set, overrides exactly one accessor; everything else delegates to
/// the pristine `BiGIndex`. Constructors below name the four corruption
/// classes.
#[derive(Default)]
struct Corrupt {
    /// L1 supernode whose `χ⁻¹` member list is reported empty
    /// (class 1: broken hash table).
    emptied_down: Option<VId>,
    /// Replacement for `C¹`'s mappings (class 2: non-ancestor entry).
    mappings: Option<Vec<(LabelId, LabelId)>>,
    /// Replacement for the top-layer graph (class 3: phantom edge).
    top_graph: Option<DiGraph>,
    /// L1 label whose stored support count is inflated by 7
    /// (class 4: stale support table).
    support_bump: Option<LabelId>,
}

struct CorruptView {
    inner: BiGIndex,
    corrupt: Corrupt,
}

impl IndexView for CorruptView {
    fn ontology(&self) -> &Ontology {
        self.inner.ontology()
    }

    fn num_layers(&self) -> usize {
        IndexView::num_layers(&self.inner)
    }

    fn graph_at(&self, m: usize) -> &DiGraph {
        match &self.corrupt.top_graph {
            Some(g) if m == IndexView::num_layers(&self.inner) => g,
            _ => IndexView::graph_at(&self.inner, m),
        }
    }

    fn config_mappings(&self, m: usize) -> &[(LabelId, LabelId)] {
        match &self.corrupt.mappings {
            Some(ms) if m == 1 => ms,
            _ => self.inner.config_mappings(m),
        }
    }

    fn label_map(&self, m: usize) -> &[LabelId] {
        IndexView::label_map(&self.inner, m)
    }

    fn up(&self, m: usize, v: VId) -> VId {
        IndexView::up(&self.inner, m, v)
    }

    fn down(&self, m: usize, s: VId) -> &[VId] {
        match self.corrupt.emptied_down {
            Some(victim) if m == 1 && s == victim => &[],
            _ => IndexView::down(&self.inner, m, s),
        }
    }

    fn direction(&self) -> BisimDirection {
        IndexView::direction(&self.inner)
    }

    fn support_count(&self, m: usize, l: LabelId) -> u32 {
        let real = self.inner.support_count(m, l);
        match self.corrupt.support_bump {
            Some(label) if m == 1 && l == label => real + 7,
            _ => real,
        }
    }
}

#[test]
fn broken_chi_inverse_table_is_detected_with_witness() {
    let inner = healthy_index();
    let victim = VId(0);
    let lost: Vec<VId> = IndexView::down(&inner, 1, victim).to_vec();
    assert!(!lost.is_empty());
    let report = check_index(&CorruptView {
        inner,
        corrupt: Corrupt {
            emptied_down: Some(victim),
            ..Corrupt::default()
        },
    });

    assert!(!report.is_clean());
    // Round-trip: every lost member fails `Bisim⁻¹(Bisim(v)) ∋ v`.
    let rt = report.check(Invariant::ChiRoundTrip).unwrap();
    assert_eq!(rt.status, Status::Fail);
    assert_eq!(rt.violations, lost.len());
    assert!(rt
        .witnesses
        .iter()
        .any(|w| matches!(w, Witness::Vertex { layer: 0, v } if lost.contains(v))));
    // Partitioning: the empty supernode and the unclaimed lower vertices.
    let mp = report.check(Invariant::MembersPartition).unwrap();
    assert_eq!(mp.status, Status::Fail);
    assert!(mp
        .witnesses
        .iter()
        .any(|w| matches!(w, Witness::Vertex { layer: 1, v } if *v == victim)));
}

#[test]
fn non_ancestor_config_entry_is_detected_with_witness() {
    let inner = healthy_index();
    let mut mappings: Vec<(LabelId, LabelId)> = inner.config_mappings(1).to_vec();
    // Label 1's supertype is NUM_LABELS (= 6); label 3's is 7. Retarget
    // label 1 at label 7 — a valid label, but not one of its ancestors.
    let bad = (LabelId(1), LabelId(NUM_LABELS + 1));
    assert!(!inner.ontology().is_supertype_of(bad.1, bad.0));
    let pos = mappings.iter().position(|&(f, _)| f == bad.0).unwrap();
    mappings[pos] = bad;
    let report = check_index(&CorruptView {
        inner,
        corrupt: Corrupt {
            mappings: Some(mappings),
            ..Corrupt::default()
        },
    });

    assert!(!report.is_clean());
    let ca = report.check(Invariant::ConfigAncestry).unwrap();
    assert_eq!(ca.status, Status::Fail);
    assert!(ca
        .witnesses
        .iter()
        .any(|w| matches!(w, Witness::Mapping { layer: 1, from, to } if (*from, *to) == bad)));
}

/// Rebuilds `g` with one extra edge `(u, v)`.
fn with_extra_edge(g: &DiGraph, u: VId, v: VId) -> DiGraph {
    let mut b = GraphBuilder::new();
    for w in g.vertices() {
        b.add_vertex(g.label(w));
    }
    for (s, t) in g.edges() {
        b.add_edge(s, t);
    }
    b.add_edge(u, v);
    b.build()
}

#[test]
fn phantom_summary_edge_is_detected_with_witness() {
    let inner = healthy_index();
    let h = inner.num_layers();
    let top = inner.graph_at(h);
    // Find a non-edge to forge.
    let n = top.num_vertices();
    let phantom = (0..n)
        .flat_map(|u| (0..n).map(move |v| (VId(u as u32), VId(v as u32))))
        .find(|&(u, v)| !top.has_edge(u, v))
        .expect("summary graph is not complete");
    let corrupted_top = with_extra_edge(top, phantom.0, phantom.1);
    let report = check_index(&CorruptView {
        inner,
        corrupt: Corrupt {
            top_graph: Some(corrupted_top),
            ..Corrupt::default()
        },
    });

    assert!(!report.is_clean());
    let pe = report.check(Invariant::NoPhantomEdges).unwrap();
    assert_eq!(pe.status, Status::Fail);
    assert_eq!(pe.violations, 1);
    assert!(pe
        .witnesses
        .iter()
        .any(|w| matches!(w, Witness::Edge { layer, u, v }
            if *layer == 1 && (*u, *v) == phantom)));
}

#[test]
fn stale_support_count_is_detected_with_witness() {
    let inner = healthy_index();
    let label = LabelId(NUM_LABELS); // a generalized label present at L1
    let report = check_index(&CorruptView {
        inner,
        corrupt: Corrupt {
            support_bump: Some(label),
            ..Corrupt::default()
        },
    });

    assert!(!report.is_clean());
    let sc = report.check(Invariant::SupportCounts).unwrap();
    assert_eq!(sc.status, Status::Fail);
    assert!(sc.witnesses.iter().any(|w| matches!(
        w,
        Witness::Support { layer: 1, label: l, stored, actual }
            if *l == label && *stored == *actual + 7
    )));
}

/// Failures are attributed: each corruption trips its own invariant and
/// leaves unrelated structural checks untouched.
#[test]
fn corruption_reports_are_attributed_not_global() {
    let inner = healthy_index();
    let mut mappings: Vec<(LabelId, LabelId)> = inner.config_mappings(1).to_vec();
    let pos = mappings.iter().position(|&(f, _)| f == LabelId(1)).unwrap();
    mappings[pos] = (LabelId(1), LabelId(NUM_LABELS + 1));
    let report = check_index(&CorruptView {
        inner,
        corrupt: Corrupt {
            mappings: Some(mappings),
            ..Corrupt::default()
        },
    });
    // The graphs and χ tables are untouched, so the structural
    // invariants still pass even though the config lies.
    for inv in [
        Invariant::PathPreserving,
        Invariant::NoPhantomEdges,
        Invariant::ChiRoundTrip,
        Invariant::MembersPartition,
        Invariant::SupportCounts,
    ] {
        assert_eq!(report.check(inv).unwrap().status, Status::Pass, "{report}");
    }
}

/// Stability is the one invariant a consistent index can break: the
/// one-label chain 0 → 1 → 2 → 3 quotiented by {0, 1, 2}, {3} keeps
/// labels, paths, χ tables and supports intact, but vertex 2's
/// successor lies in the other block.
#[test]
fn unstable_quotient_fails_only_partition_stability() {
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
    let index = BiGIndex::from_parts(base, ontology, vec![layer], BisimDirection::Forward);
    let report = check_index(&index);

    assert_eq!(
        report.failed(),
        vec![Invariant::PartitionStable],
        "{report}"
    );
    let ps = report.check(Invariant::PartitionStable).unwrap();
    assert_eq!(ps.violations, 1);
    // The witness is the member of block {0, 1, 2} whose successor
    // block differs from the block's first member's.
    assert_eq!(
        ps.witnesses,
        vec![Witness::Vertex {
            layer: 0,
            v: VId(2)
        }]
    );
    assert_eq!(IndexView::up(&index, 1, VId(2)), VId(0));
    assert_eq!(
        IndexView::down(&index, 1, VId(0)),
        &[VId(0), VId(1), VId(2)]
    );
    for inv in Invariant::ALL {
        if inv != Invariant::PartitionStable {
            assert_eq!(report.check(inv).unwrap().status, Status::Pass, "{report}");
        }
    }
}
