//! Structured diagnostics: the [`Report`] returned by
//! [`crate::check_index`], its per-invariant [`Check`]s, and the
//! [`Witness`] values that pin a violation to a concrete vertex, edge,
//! or label mapping.

use bgi_graph::{LabelId, VId};
use std::fmt;

/// The invariants [`crate::check_index`] verifies, each traceable to a
/// statement in the paper (see DESIGN.md, "Verification layer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// `G_Ont` is an acyclic DAG with a coherent topological order.
    OntologyAcyclic,
    /// Every configuration entry `ℓ → ℓ′` maps a label to a *strict
    /// ancestor* in `G_Ont` (Def. 2.2: label-preserving generalization).
    ConfigAncestry,
    /// Each layer's dense label map agrees with its configuration
    /// (`map[ℓ] = Cᵐ(ℓ)`, identity off the domain).
    LabelMapConsistent,
    /// Every `G^{m-1}` edge maps to a `G^m` edge under `χ` — by
    /// induction, every path is preserved (Def. 2.1).
    PathPreserving,
    /// Every vertex keeps its (generalized) label across summarization.
    LabelPreserving,
    /// No summary edge lacks a pre-image: `G^m` has no connectivity
    /// beyond the quotient of `Gen(G^{m-1}, Cᵐ)`.
    NoPhantomEdges,
    /// The summary partition is stable on the generalized graph: it is
    /// a bisimulation (Sec. 2), so every member of a block sees the same
    /// neighbor blocks.
    PartitionStable,
    /// `χ⁻¹` round-trips: `Bisim⁻¹(Bisim(v)) ∋ v` for every vertex.
    ChiRoundTrip,
    /// The `χ⁻¹` member lists partition the lower layer exactly: no
    /// vertex missing, none duplicated, no empty supernode, and every
    /// member maps back up to its list's supernode.
    MembersPartition,
    /// Each layer graph's label table (the per-layer label supports)
    /// matches a fresh recount of the graph's vertex labels.
    SupportCounts,
    /// Sharded deployments only: every ownership-crossing edge of the
    /// base graph appears in exactly one cut list (the list of the
    /// shard owning its source), and no cut list carries an edge that
    /// is absent or internal. Checked by
    /// [`crate::check_shard_cuts`], not part of [`Invariant::ALL`]
    /// (monolithic indexes have no shards).
    ShardCutAccounting,
}

impl Invariant {
    /// All invariants, in report order.
    pub const ALL: [Invariant; 10] = [
        Invariant::OntologyAcyclic,
        Invariant::ConfigAncestry,
        Invariant::LabelMapConsistent,
        Invariant::PathPreserving,
        Invariant::LabelPreserving,
        Invariant::NoPhantomEdges,
        Invariant::PartitionStable,
        Invariant::ChiRoundTrip,
        Invariant::MembersPartition,
        Invariant::SupportCounts,
    ];

    /// Short stable name (used by the CLI and log lines).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::OntologyAcyclic => "ontology-acyclic",
            Invariant::ConfigAncestry => "config-ancestry",
            Invariant::LabelMapConsistent => "label-map-consistent",
            Invariant::PathPreserving => "path-preserving",
            Invariant::LabelPreserving => "label-preserving",
            Invariant::NoPhantomEdges => "no-phantom-edges",
            Invariant::PartitionStable => "partition-stable",
            Invariant::ChiRoundTrip => "chi-round-trip",
            Invariant::MembersPartition => "members-partition",
            Invariant::SupportCounts => "support-counts",
            Invariant::ShardCutAccounting => "shard-cut-accounting",
        }
    }
}

/// Outcome of one invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The invariant holds everywhere.
    Pass,
    /// At least one violation was found (see the witnesses).
    Fail,
}

/// A concrete offender pinning a violation to index coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A vertex of the layer-`layer` graph.
    Vertex {
        /// Layer the vertex lives in.
        layer: usize,
        /// The offending vertex.
        v: VId,
    },
    /// An edge of the layer-`layer` graph.
    Edge {
        /// Layer the edge lives in.
        layer: usize,
        /// Edge source.
        u: VId,
        /// Edge target.
        v: VId,
    },
    /// A label mapping of layer `layer`'s configuration (or an ontology
    /// subtype edge when `layer == 0`).
    Mapping {
        /// Layer whose configuration contains the mapping.
        layer: usize,
        /// Source label `ℓ`.
        from: LabelId,
        /// Target label `ℓ′`.
        to: LabelId,
    },
    /// A precomputed-vs-recounted support mismatch.
    Support {
        /// Layer of the mismatch.
        layer: usize,
        /// The label whose count disagrees.
        label: LabelId,
        /// The index's precomputed count.
        stored: u64,
        /// The fresh recount.
        actual: u64,
    },
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Witness::Vertex { layer, v } => write!(f, "L{layer} vertex {}", v.0),
            Witness::Edge { layer, u, v } => {
                write!(f, "L{layer} edge {} -> {}", u.0, v.0)
            }
            Witness::Mapping { layer, from, to } => {
                write!(f, "L{layer} mapping {} -> {}", from.0, to.0)
            }
            Witness::Support {
                layer,
                label,
                stored,
                actual,
            } => write!(
                f,
                "L{layer} label {}: stored {stored}, recounted {actual}",
                label.0
            ),
        }
    }
}

/// Maximum number of witnesses retained per invariant; further
/// violations are counted but not materialized.
pub(crate) const MAX_WITNESSES: usize = 8;

/// Result of checking one invariant across the whole hierarchy.
#[derive(Debug, Clone)]
pub struct Check {
    /// Which invariant this is.
    pub invariant: Invariant,
    /// Pass or fail.
    pub status: Status,
    /// Total number of violations found (may exceed `witnesses.len()`).
    pub violations: usize,
    /// A capped sample of concrete offenders.
    pub witnesses: Vec<Witness>,
    /// Human-oriented context (what was checked).
    pub detail: String,
}

impl Check {
    pub(crate) fn pass(invariant: Invariant, detail: impl Into<String>) -> Self {
        Check {
            invariant,
            status: Status::Pass,
            violations: 0,
            witnesses: Vec::new(),
            detail: detail.into(),
        }
    }

    pub(crate) fn record(&mut self, w: Witness) {
        self.status = Status::Fail;
        self.violations += 1;
        if self.witnesses.len() < MAX_WITNESSES {
            self.witnesses.push(w);
        }
    }
}

/// The structured diagnostic returned by [`crate::check_index`]: one
/// [`Check`] per [`Invariant`], in [`Invariant::ALL`] order.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-invariant results.
    pub checks: Vec<Check>,
}

impl Report {
    /// True when no invariant failed.
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(|c| c.status != Status::Fail)
    }

    /// The result for one invariant, or `None` if the report lacks it
    /// (never the case for reports produced by [`crate::check_index`],
    /// which always emits every [`Invariant::ALL`] entry).
    pub fn check(&self, invariant: Invariant) -> Option<&Check> {
        self.checks.iter().find(|c| c.invariant == invariant)
    }

    /// The invariants that failed, in report order.
    pub fn failed(&self) -> Vec<Invariant> {
        self.checks
            .iter()
            .filter(|c| c.status == Status::Fail)
            .map(|c| c.invariant)
            .collect()
    }

    /// Total violations across all invariants.
    pub fn total_violations(&self) -> usize {
        self.checks.iter().map(|c| c.violations).sum()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            let tag = match c.status {
                Status::Pass => "PASS",
                Status::Fail => "FAIL",
            };
            write!(f, "{tag} {:<22} {}", c.invariant.name(), c.detail)?;
            if c.status == Status::Fail {
                write!(f, " [{} violation(s)]", c.violations)?;
                for w in &c.witnesses {
                    write!(f, "\n       witness: {w}")?;
                }
                if c.violations > c.witnesses.len() {
                    write!(
                        f,
                        "\n       … and {} more",
                        c.violations - c.witnesses.len()
                    )?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
