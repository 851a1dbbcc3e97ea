//! The immutable unit the service shares across workers: a verified
//! BiG-index plus every plugged-in algorithm's per-layer index.
//!
//! Algo. 2 is read-only over the hierarchy, so one `Arc<IndexSnapshot>`
//! serves any number of concurrent queries without locking. Snapshot
//! construction runs `bgi_verify::check_index` first and *refuses* a
//! hierarchy whose invariants (Defs. 2.1/2.2, Prop. 4.1) don't hold —
//! a serving process never answers from a broken index.

use crate::request::{QueryError, QueryRequest, Semantics};
use bgi_search::blinks::BlinksParams;
use bgi_search::{
    AnswerGraph, Banks, Blinks, Budget, Completeness, Interrupted, KeywordQuery, RClique,
};
use bgi_store::IndexBundle;
use big_index::query_gen::keywords_stay_distinct;
use big_index::{eval_query, BiGIndex, EvalOptions};
use std::sync::Arc;

/// Why a snapshot could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// `bgi_verify::check_index` found invariant violations; the index
    /// must not be served.
    DirtyIndex {
        /// Total violations across all checked invariants.
        violations: usize,
    },
    /// A deserialized bundle's per-layer index vector doesn't cover the
    /// hierarchy (`h + 1` layers).
    LayerMismatch {
        /// Which per-layer vector is wrong (`"rclique"`).
        what: &'static str,
        /// Layers the hierarchy has (`h + 1`).
        expected: usize,
        /// Layers the vector actually covers.
        got: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::DirtyIndex { violations } => write!(
                f,
                "index failed verification with {violations} invariant violation(s); \
                 refusing to serve it"
            ),
            SnapshotError::LayerMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "bundle's {what} indexes cover {got} layer(s) but the hierarchy has \
                 {expected}; refusing to serve it"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Construction-time knobs for a snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// BLINKS search parameters (`τ_prune`).
    pub blinks: BlinksParams,
    /// r-clique algorithm parameters (radius, memory budget).
    pub rclique: RClique,
    /// Worker threads for the per-layer index builds (each layer's
    /// builds are independent of the others'). `1` is the serial build;
    /// every thread count produces an identical snapshot.
    pub threads: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            blinks: BlinksParams::default(),
            rclique: RClique::default(),
            threads: 1,
        }
    }
}

/// The outcome of executing one request against a snapshot.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Final answers, ranked best-first.
    pub answers: Vec<AnswerGraph>,
    /// The layer the query was evaluated at.
    pub layer: usize,
    /// True if the summary-layer attempt realized nothing and the
    /// query was re-run on the data graph.
    pub fell_back: bool,
    /// Whether the run finished exactly or was cut short by its budget
    /// and returned best-effort answers (see [`Completeness`]).
    pub completeness: Completeness,
}

/// A verified, immutable BiG-index with all three semantics' per-layer
/// indexes prebuilt — the paper's "boosted" setting (Sec. 5), where
/// query time never includes index construction. The bundle is held by
/// `Arc`, so a snapshot of a live engine's state shares it with the
/// engine instead of copying it.
pub struct IndexSnapshot {
    bundle: Arc<IndexBundle>,
    blinks_algo: Blinks,
}

impl IndexSnapshot {
    /// Verifies `index` and prebuilds every algorithm's index on every
    /// layer. Fails with [`SnapshotError::DirtyIndex`] when
    /// `bgi_verify::check_index` reports any violation.
    pub fn build(index: BiGIndex, config: SnapshotConfig) -> Result<IndexSnapshot, SnapshotError> {
        let report = index.verify();
        if !report.is_clean() {
            return Err(SnapshotError::DirtyIndex {
                violations: report.total_violations(),
            });
        }
        // The per-layer builds are independent reads of the verified
        // hierarchy; fan them out (bit-identical to serial for any
        // `config.threads`).
        let bundle = IndexBundle::build(index, config.blinks, config.rclique, config.threads);
        Ok(IndexSnapshot {
            blinks_algo: Blinks::new(bundle.blinks_params),
            bundle: Arc::new(bundle),
        })
    }

    /// [`IndexSnapshot::build`] with default parameters.
    pub fn build_default(index: BiGIndex) -> Result<IndexSnapshot, SnapshotError> {
        Self::build(index, SnapshotConfig::default())
    }

    /// Assembles a snapshot from a deserialized [`bgi_store::IndexBundle`]
    /// *without rebuilding anything* — the prebuilt per-layer indexes are
    /// adopted as-is, which is what makes `load-index` skip hierarchy
    /// construction entirely.
    ///
    /// The hierarchy is still re-verified here (the store verifies on
    /// load, but a snapshot never trusts its producer), and the bundle's
    /// per-layer vectors must cover every layer `0..=h`.
    pub fn from_bundle(bundle: IndexBundle) -> Result<IndexSnapshot, SnapshotError> {
        Self::from_shared(Arc::new(bundle))
    }

    /// [`IndexSnapshot::from_bundle`] over a bundle someone else holds
    /// too — a live engine's (`Engine::shared_bundle`): nothing is
    /// copied, and the full verification still runs.
    pub fn from_shared(bundle: Arc<IndexBundle>) -> Result<IndexSnapshot, SnapshotError> {
        let report = bundle.index.verify();
        if !report.is_clean() {
            return Err(SnapshotError::DirtyIndex {
                violations: report.total_violations(),
            });
        }
        let expected = bundle.index.num_layers() + 1;
        if bundle.rclique.len() != expected {
            return Err(SnapshotError::LayerMismatch {
                what: "rclique",
                expected,
                got: bundle.rclique.len(),
            });
        }
        Ok(IndexSnapshot {
            blinks_algo: Blinks::new(bundle.blinks_params),
            bundle,
        })
    }

    /// The underlying BiG-index.
    pub fn index(&self) -> &BiGIndex {
        &self.bundle.index
    }

    /// Number of summary layers (`h`; the hierarchy is `0..=h`).
    pub fn num_layers(&self) -> usize {
        self.bundle.index.num_layers()
    }

    /// Executes one request under `budget`. Validation errors
    /// ([`QueryError::EmptyQuery`], [`QueryError::InvalidLayer`],
    /// [`QueryError::MergedKeywords`]) are typed. Budget exhaustion is
    /// *anytime*: whenever the search found at least one answer, the
    /// outcome carries it with a non-exact [`Completeness`] marker;
    /// only a run interrupted before producing anything maps to
    /// [`QueryError::Timeout`].
    pub fn execute(&self, req: &QueryRequest, budget: &Budget) -> Result<ExecOutcome, QueryError> {
        let query = KeywordQuery::new(req.keywords.clone(), req.dmax);
        if query.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let b = &*self.bundle;
        let opts = EvalOptions::default();
        // A layer override is outside input: validate it. Without one
        // `eval_query` runs the Def. 4.1 chooser (which only considers
        // layers keeping keywords distinct) and the layer-0 fallback.
        if let Some(m) = req.layer {
            if m > b.index.num_layers() {
                return Err(QueryError::InvalidLayer {
                    requested: m,
                    num_layers: b.index.num_layers(),
                });
            }
            if !keywords_stay_distinct(&b.index, &query, m) {
                return Err(QueryError::MergedKeywords { layer: m });
            }
        }
        // BANKS and BLINKS keep no per-layer index (they read each layer
        // graph's label table); a `Vec<()>` does not allocate.
        let no_index = vec![(); b.index.num_layers() + 1];
        let result = match req.semantics {
            Semantics::Bkws => eval_query(
                &b.index, &Banks, &no_index, &query, req.k, req.layer, &opts, budget,
            ),
            Semantics::Rkws => eval_query(
                &b.index,
                &self.blinks_algo,
                &no_index,
                &query,
                req.k,
                req.layer,
                &opts,
                budget,
            ),
            Semantics::Dkws => eval_query(
                &b.index,
                &b.rclique_params,
                &b.rclique,
                &query,
                req.k,
                req.layer,
                &opts,
                budget,
            ),
        }
        .map_err(|Interrupted| QueryError::Timeout)?;
        // The client's floor for degraded results: a best-effort set
        // smaller than `min_results` is worth no more than a timeout to
        // them. Exact results are never filtered — fewer than
        // `min_results` answers may be all that exist.
        if !result.completeness.is_exact() && result.answers.len() < req.min_results {
            return Err(QueryError::Timeout);
        }
        Ok(ExecOutcome {
            answers: result.answers,
            layer: result.layer,
            fell_back: result.fell_back,
            completeness: result.completeness,
        })
    }
}
