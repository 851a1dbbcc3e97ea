//! The [`IndexView`] abstraction over an assembled BiG-index.
//!
//! `bgi-verify` sits *below* `big-index` in the dependency graph so the
//! index can validate itself during construction. The checker therefore
//! cannot name `BiGIndex`; instead it reads the hierarchy through this
//! trait. `big-index` implements it for `BiGIndex`, and tests implement
//! it on wrapper types to inject targeted corruption.

use bgi_bisim::BisimDirection;
use bgi_graph::{DiGraph, LabelId, Ontology, VId};

/// Read access to every part of a built index that the invariants
/// quantify over.
///
/// Layer indices follow the paper's convention: `m = 0` is the data
/// graph `G⁰`; layers `1..=num_layers()` are summary graphs. Per-layer
/// accessors (`config_mappings`, `label_map`, `up`, `down`) take the
/// *upper* layer's index `m ≥ 1` and describe the step between
/// `G^{m-1}` and `G^m`.
pub trait IndexView {
    /// The ontology `G_Ont` the index was built against.
    fn ontology(&self) -> &Ontology;

    /// Number of summary layers `h` (excluding the data graph).
    fn num_layers(&self) -> usize;

    /// The graph at layer `m` (`0 ≤ m ≤ h`).
    fn graph_at(&self, m: usize) -> &DiGraph;

    /// The configuration `Cᵐ` applied between `G^{m-1}` and `G^m`, as
    /// `ℓ → ℓ′` pairs (`1 ≤ m ≤ h`).
    fn config_mappings(&self, m: usize) -> &[(LabelId, LabelId)];

    /// The dense label map of `Cᵐ` over the full alphabet
    /// (`map[ℓ] = Cᵐ(ℓ)`).
    fn label_map(&self, m: usize) -> &[LabelId];

    /// `χ` one step up: the supernode of `G^{m-1}`-vertex `v` in `G^m`.
    fn up(&self, m: usize, v: VId) -> VId;

    /// `χ⁻¹` one step down: the `G^{m-1}` members of `G^m`-supernode `s`
    /// (the hash-table entry `Bisim⁻¹(s)`).
    fn down(&self, m: usize, s: VId) -> &[VId];

    /// The bisimulation direction the summaries were computed under.
    fn direction(&self) -> BisimDirection;

    /// The index's count of label `l` at layer `m`, as its label table
    /// reports it (cross-checked against a fresh recount).
    fn support_count(&self, m: usize, l: LabelId) -> u32;
}
