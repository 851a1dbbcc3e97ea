//! The live-update engine: WAL-backed apply pipeline over flat
//! per-layer partitions of one shared base graph, with drift-triggered
//! full rebuild.
//!
//! ## The flat-partition representation
//!
//! The hierarchy is defined iteratively (`Gᵐ = Bisim(Gen(Gᵐ⁻¹, Cᵐ))`),
//! but maintaining it that way would mean updating `m` graphs whose
//! vertex sets all shift under splits. Instead the engine keeps **one**
//! graph — the base graph `G⁰` — and, per layer `m`, a partition `Pᵐ`
//! of its vertices. `Pᵐ` is a bisimulation of the base graph under the
//! composed labelling `Cᵐ ∘ … ∘ C¹`, but refinement never reads labels
//! (the blocks already separate them), so every layer refines the same
//! adjacency and a supernode's label is read off on demand:
//! `composed[m-1][label(member)]`. This is faithful:
//!
//! - stability composes — `Pᵐ` is stable on the composed-relabeled base
//!   graph iff the corresponding layer-level partition is stable on the
//!   relabeled `Gᵐ⁻¹` (for summary edges, "some member has an edge" and
//!   "every member has an edge" coincide exactly when `Pᵐ⁻¹` is
//!   stable);
//! - split-only refinement preserves the coarseness chain
//!   `Pᵐ⁻¹ ⊑ Pᵐ`: refinement signatures ignore labels and vertices in
//!   one stable `Pᵐ⁻¹` block have identical block-neighborhoods, so no
//!   round of refining `Pᵐ` ever separates them;
//! - the `Layer` tables fall out of adjacent partitions: layer-`m`
//!   supernodes are `Pᵐ` blocks, `χ` maps a `Pᵐ⁻¹` block to the `Pᵐ`
//!   block containing it, and the summary `Gᵐ` has an edge `(X, Y)`
//!   exactly when some `Gᵐ⁻¹` edge `(s, t)` has `χ(s) = X`, `χ(t) = Y`
//!   (supernode ids are block ids in both views).
//!
//! ## A commit costs the change
//!
//! A batch is: validate → WAL append (fsync = commit) → splice the
//! touched rows of the base graph ([`DiGraph::with_rows`]) → one
//! frontier refinement per layer, seeded with the blocks of the changed
//! edges' endpoints ([`IncrementalBisim::apply_batch`]) → re-materialize
//! layer by layer, bottom up. Block ids are stable (a split keeps the
//! old id for the fragment holding the block's lowest vertex; new
//! fragments are appended), so a layer is patched, not rebuilt: `χ`
//! carries over except for lower vertices that moved into a new block,
//! and only the summary rows that can differ are recomputed from the
//! already-patched layer below — rows of new supernodes, of supernodes
//! that lost a member, of supernodes over a lower vertex whose row
//! changed, and of supernodes with an edge into a moved lower vertex.
//! Comparing each recomputed row with the served one yields the layer's
//! exact edge diff, which is what the layer above reads and what the
//! per-layer search indexes are patched with. Every part the batch left
//! unchanged — the ontology, untouched layers, their search indexes —
//! is shared by `Arc` with the bundle it replaces and with every
//! snapshot still serving it.
//!
//! The result is a *stable but possibly finer than maximal* hierarchy —
//! precisely the paper's eager-split / deferred-merge maintenance —
//! which still passes the full `bgi-verify` invariant suite (it checks
//! stability, not maximality), and which is byte for byte what
//! re-summarizing every layer from its partition would give.

use crate::error::IngestError;
use crate::policy::{DriftReport, LayerDrift, RebuildPolicy};
use crate::update::IngestUpdate;
use bgi_bisim::incremental::Update as BisimUpdate;
use bgi_bisim::{IncrementalBisim, Partition};
use bgi_graph::par::par_map;
use bgi_graph::{DiGraph, LabelId, Ontology, VId};
use bgi_search::rclique::NeighborIndex;
use bgi_search::{GraphDiff, KeywordSearch};
use bgi_store::{GraphUpdate, IndexBundle, Store, Wal};
use big_index::cost::construction_cost_with_compress;
use big_index::layer::{Layer, MemberTable};
use big_index::{BiGIndex, GenConfig};
use std::sync::Arc;

/// Construction-time knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// When to recommend a full rebuild.
    pub policy: RebuildPolicy,
    /// Worker threads for full rebuilds' per-layer index builds (the
    /// `par_map` path; `1` = serial, any count is bit-identical).
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: RebuildPolicy::default(),
            threads: 1,
        }
    }
}

/// What one [`Engine::apply_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// WAL sequence number the batch committed under (`None` when the
    /// engine runs without a log).
    pub seq: Option<u64>,
    /// Updates applied to the in-memory state.
    pub applied: usize,
    /// Layers (incl. layer 0) whose search indexes were reused because
    /// their summary graph did not change.
    pub reused_layers: usize,
    /// Layers whose search indexes were *patched* in place of a rebuild
    /// — the summary changed, but the structural diff was small enough
    /// for the r-clique index's incremental entry point (BANKS and
    /// BLINKS read the layer graph itself and have nothing to patch).
    pub patched_layers: usize,
    /// Layers whose search indexes had to be rebuilt from scratch.
    pub rebuilt_layers: usize,
    /// Resident r-clique rows, over all layers, the commit carried over
    /// into the new bundle: every row of a reused layer, and the rows
    /// of a patched layer no edit could move.
    pub rows_kept: usize,
    /// Resident r-clique rows, over all layers, the commit dropped: the
    /// rows of a patched layer an edit could move, and every row of a
    /// rebuilt layer. Counted around the patch, so a row a concurrent
    /// read fills meanwhile may be in neither count.
    pub rows_dropped: usize,
}

impl ApplyOutcome {
    /// Whether the commit changed what is served: some layer's summary
    /// (or the data graph) differs from the bundle before it.
    pub fn changed_index(&self) -> bool {
        self.patched_layers + self.rebuilt_layers > 0
    }
}

/// The live-update engine. See the module docs for the pipeline.
pub struct Engine {
    direction: bgi_bisim::BisimDirection,
    /// Labels an [`IngestUpdate::AddVertex`] may use (`0..alphabet`).
    alphabet: usize,
    /// Per-layer step configurations `Cᵐ` (fixed under updates).
    configs: Vec<GenConfig>,
    /// Per-layer step label maps (dense form of `Cᵐ`).
    step_maps: Vec<Vec<LabelId>>,
    /// `composed[m-1][ℓ] = Cᵐ(…C¹(ℓ)…)` over the full alphabet.
    composed: Vec<Vec<LabelId>>,
    /// The current base graph `G⁰`: the one graph every flat partition
    /// refines, shared with the bundle materialized from it.
    base: Arc<DiGraph>,
    /// Flat per-layer state: `flats[m-1]` maintains `Pᵐ` over `base`.
    flats: Vec<IncrementalBisim>,
    /// The current materialized serving artifact, shared with every
    /// snapshot built from it.
    bundle: Arc<IndexBundle>,
    wal: Option<Wal>,
    /// Highest WAL sequence folded into the in-memory state.
    last_seq: u64,
    policy: RebuildPolicy,
    threads: usize,
    /// Formula-3 cost per layer at the last full build.
    baseline: Vec<f64>,
    updates_since_rebuild: usize,
    /// `Some` while a [`RebuildJob`] is outstanding: every batch logged
    /// since [`Engine::start_rebuild`] captured its inputs, to be
    /// replayed onto the rebuilt hierarchy at adoption.
    rebuild_delta: Option<Vec<GraphUpdate>>,
}

/// Structural diffs above this many edge operations always fall back
/// to a full per-layer index rebuild: past a few hundred touched edges
/// the incremental entry points stop paying for themselves.
const MAX_PATCH_EDGE_OPS: usize = 512;

/// How one layer's graph changed in a commit: the structural diff the
/// search indexes are patched with, plus the vertices whose out-row
/// changed (ascending) — what the layer above has to re-read. An
/// appended vertex with no out-edge contributes nothing to any row
/// above, so it is not listed.
struct LayerDelta {
    diff: GraphDiff,
    dirty: Vec<VId>,
}

impl Engine {
    /// Starts an engine from a built (or loaded) bundle, without a WAL
    /// — updates are applied in memory only. Fails with
    /// [`IngestError::Inconsistent`] if the bundle's hierarchy cannot
    /// seed the flat partitions (which a verified index always can).
    pub fn new(bundle: IndexBundle, config: EngineConfig) -> Result<Engine, IngestError> {
        let seed = Seed::from_index(&bundle.index, config.policy.alpha)?;
        Ok(Engine {
            direction: seed.direction,
            alphabet: seed.alphabet,
            configs: seed.configs,
            step_maps: seed.step_maps,
            composed: seed.composed,
            base: seed.base,
            flats: seed.flats,
            bundle: Arc::new(bundle),
            wal: None,
            last_seq: 0,
            policy: config.policy,
            threads: config.threads.max(1),
            baseline: seed.baseline,
            updates_since_rebuild: 0,
            rebuild_delta: None,
        })
    }

    /// [`Engine::new`] plus durability: opens the store's WAL, replays
    /// its committed prefix on top of the bundle (which recovery
    /// guarantees is the newest complete generation), and logs every
    /// future batch. Returns the engine and the number of replayed
    /// updates.
    pub fn with_wal(
        bundle: IndexBundle,
        config: EngineConfig,
        store: &Store,
    ) -> Result<(Engine, usize), IngestError> {
        let mut engine = Engine::new(bundle, config)?;
        let (wal, batches) = store.open_wal()?;
        let mut replayed = 0usize;
        let mut all: Vec<GraphUpdate> = Vec::new();
        for batch in &batches {
            replayed += engine.apply_to_state(&batch.updates)?;
            engine.last_seq = batch.seq;
            all.extend_from_slice(&batch.updates);
        }
        if !batches.is_empty() {
            engine.materialize(&all)?;
        }
        engine.wal = Some(wal);
        Ok((engine, replayed))
    }

    /// The current serving artifact: hierarchy plus per-layer search
    /// indexes, consistent with every update applied so far.
    pub fn bundle(&self) -> &IndexBundle {
        &self.bundle
    }

    /// The current serving artifact as shared with the engine — what
    /// `IndexSnapshot::from_shared` serves without copying anything.
    pub fn shared_bundle(&self) -> Arc<IndexBundle> {
        Arc::clone(&self.bundle)
    }

    /// The current hierarchy.
    pub fn index(&self) -> &BiGIndex {
        &self.bundle.index
    }
    /// Highest WAL sequence number folded into the in-memory state
    /// (0 before the first logged batch).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Updates applied since the last full rebuild.
    pub fn updates_since_rebuild(&self) -> usize {
        self.updates_since_rebuild
    }

    /// Validates, logs (fsync = commit), applies, and re-materializes
    /// one batch of updates — [`Engine::apply_group`] of one batch. On
    /// any error the serving bundle is left at its previous value
    /// (validation rejects before logging; a logged batch that fails
    /// mid-apply is recovered from the WAL on restart). An empty batch
    /// is a complete no-op: nothing is logged (no WAL append, no fsync)
    /// and the serving bundle is untouched.
    pub fn apply_batch(&mut self, updates: &[IngestUpdate]) -> Result<ApplyOutcome, IngestError> {
        // One outcome per batch, so exactly one here.
        Ok(self.apply_group(&[updates])?[0])
    }

    /// The one commit routine: commits several callers' batches as
    /// **one group** — one WAL append + fsync for the whole group
    /// ([`bgi_store::Wal::append_group`]), one state application, one
    /// re-materialization. [`bgi_store::CommitQueue`] coalesces
    /// concurrent callers into the `batches` slice and a single leader
    /// calls this; a lone caller is a group of one.
    ///
    /// Every batch is validated up front (in order, with vertex
    /// additions numbered across batch boundaries); the first invalid
    /// update rejects the *whole group* before anything is logged.
    /// Empty batches are no-ops: they get no WAL record and a `None`
    /// seq. The per-layer reuse/patch/rebuild counts describe the one
    /// shared materialization and are repeated on every outcome.
    pub fn apply_group(
        &mut self,
        batches: &[impl AsRef<[IngestUpdate]>],
    ) -> Result<Vec<ApplyOutcome>, IngestError> {
        let mut n = self.base.num_vertices() as u32;
        let mut logged: Vec<Vec<GraphUpdate>> = Vec::with_capacity(batches.len());
        for batch in batches {
            let (out, next_n) = self.validate_from(n, batch.as_ref())?;
            n = next_n;
            logged.push(out);
        }
        let nonempty: Vec<&[GraphUpdate]> = logged
            .iter()
            .filter(|b| !b.is_empty())
            .map(Vec::as_slice)
            .collect();
        if nonempty.is_empty() {
            return Ok(batches.iter().map(|_| self.noop_outcome()).collect());
        }
        let mut seqs = match &mut self.wal {
            Some(wal) => wal.append_group(&nonempty)?,
            None => 0..0,
        };
        if !seqs.is_empty() {
            self.last_seq = seqs.end - 1;
        }
        let flat: Vec<GraphUpdate> = logged.iter().flatten().copied().collect();
        self.apply_to_state(&flat)?;
        if let Some(delta) = &mut self.rebuild_delta {
            delta.extend_from_slice(&flat);
        }
        let shared = self.materialize(&flat)?;
        Ok(logged
            .iter()
            .map(|b| ApplyOutcome {
                seq: if b.is_empty() { None } else { seqs.next() },
                applied: b.len(),
                ..shared
            })
            .collect())
    }

    /// Total WAL fsyncs issued by this engine's log (0 without a WAL) —
    /// the quantity group commit exists to amortize.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::fsyncs)
    }

    fn noop_outcome(&self) -> ApplyOutcome {
        ApplyOutcome {
            seq: None,
            applied: 0,
            reused_layers: self.bundle.index.num_layers() + 1,
            patched_layers: 0,
            rebuilt_layers: 0,
            rows_kept: self.bundle.rclique.iter().map(resident_rows).sum(),
            rows_dropped: 0,
        }
    }

    /// Measures drift since the last full build and evaluates the
    /// rebuild policy — the staleness tracker. Reads the label supports
    /// the served index already holds; nothing is recounted.
    pub fn drift(&self) -> DriftReport {
        let costs = layer_costs(&self.bundle.index, self.policy.alpha);
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &cost)| LayerDrift {
                layer: i + 1,
                bisim: self.flats[i].drift(),
                cost,
                baseline_cost: self.baseline.get(i).copied().unwrap_or(cost),
            })
            .collect();
        DriftReport::evaluate(self.updates_since_rebuild, layers, &self.policy)
    }

    /// Recomputes the full hierarchy from scratch with the original
    /// per-layer configurations — the paper's occasional recomputation
    /// that wins back the compression deferred merges gave up. Per-layer
    /// search indexes are rebuilt in parallel on the engine's thread
    /// budget; the flat partitions and cost baselines are re-seeded
    /// from the fresh index.
    ///
    /// This is the *inline* form: the caller blocks for the whole
    /// build. The serving write path instead runs the same computation
    /// off-thread via [`Engine::start_rebuild`] /
    /// [`Engine::finish_rebuild`] so updates keep flowing; this method
    /// is the two stitched together.
    pub fn rebuild(&mut self) -> Result<(), IngestError> {
        let job = self.start_rebuild();
        let bundle = job.run();
        self.finish_rebuild(bundle)
    }

    /// Whether a [`RebuildJob`] started by [`Engine::start_rebuild`] is
    /// outstanding (neither finished nor aborted).
    pub fn rebuild_in_flight(&self) -> bool {
        self.rebuild_delta.is_some()
    }

    /// Captures everything a full rebuild needs — the current base
    /// graph, ontology, and per-layer configurations — into a
    /// [`RebuildJob`] that can run on another thread while this engine
    /// keeps applying batches. From here until
    /// [`Engine::finish_rebuild`] (or [`Engine::abort_rebuild`]) the
    /// engine buffers every applied batch so adoption can replay them
    /// onto the rebuilt hierarchy. Starting a second job before the
    /// first resolves replaces the capture and restarts the buffer.
    pub fn start_rebuild(&mut self) -> RebuildJob {
        self.rebuild_delta = Some(Vec::new());
        RebuildJob {
            base: DiGraph::clone(&self.base),
            ontology: self.bundle.index.ontology().clone(),
            configs: self.configs.clone(),
            direction: self.direction,
            blinks_params: self.bundle.blinks_params,
            rclique_params: self.bundle.rclique_params,
            threads: self.threads,
        }
    }

    /// Adopts a finished [`RebuildJob`]'s bundle: re-seeds the flat
    /// partitions and cost baselines from the rebuilt hierarchy, then
    /// replays every batch applied since the capture (buffered by
    /// [`Engine::apply_batch`]) so no update is lost. The result is the
    /// full rebuild as of the capture plus eager-split maintenance for
    /// the in-flight window — stable, answer-equivalent, and almost all
    /// of the deferred-merge compression won back.
    ///
    /// Fails with [`IngestError::Inconsistent`] when no rebuild is in
    /// flight (e.g. the job belonged to a different engine instance);
    /// the engine state is untouched in that case. An error while
    /// replaying the buffered delta leaves the engine on the rebuilt
    /// state with the delta partially applied — callers should restart
    /// from the store (the WAL still holds every committed batch).
    pub fn finish_rebuild(&mut self, bundle: IndexBundle) -> Result<(), IngestError> {
        let Some(delta) = self.rebuild_delta.take() else {
            return Err(IngestError::Inconsistent {
                detail: "finish_rebuild without a rebuild in flight".to_string(),
            });
        };
        let seed = Seed::from_index(&bundle.index, self.policy.alpha)?;
        self.alphabet = seed.alphabet;
        self.configs = seed.configs;
        self.step_maps = seed.step_maps;
        self.composed = seed.composed;
        self.base = seed.base;
        self.flats = seed.flats;
        self.baseline = seed.baseline;
        self.bundle = Arc::new(bundle);
        self.updates_since_rebuild = 0;
        if !delta.is_empty() {
            self.apply_to_state(&delta)?;
            self.materialize(&delta)?;
        }
        Ok(())
    }

    /// Drops the in-flight rebuild bookkeeping without adopting
    /// anything — the current incrementally maintained state stays
    /// authoritative. Used when the background build fails or its
    /// result has gone stale.
    pub fn abort_rebuild(&mut self) {
        self.rebuild_delta = None;
    }

    /// Persists the current bundle as a new store generation and
    /// truncates the WAL through the last folded sequence — the
    /// checkpoint that bounds replay work. Crash-safe in both halves:
    /// the save is the store's old-or-new protocol, and a crash between
    /// save and truncation merely replays idempotent batches onto the
    /// new generation.
    pub fn checkpoint(&mut self, store: &Store) -> Result<u64, IngestError> {
        let generation = store.save_with_threads(&self.bundle, self.threads)?;
        if let Some(wal) = &mut self.wal {
            wal.truncate_through(self.last_seq)?;
        }
        Ok(generation)
    }

    /// Validates a client batch against a graph of `start_n` vertices
    /// and stamps vertex additions with the id they will create. Fails
    /// on the first invalid update — the caller then logs and applies
    /// nothing. The vertex count is explicit so a group of batches can
    /// be validated in order with vertex additions numbered across
    /// batch boundaries. Returns the logged form plus the vertex count
    /// after the batch.
    fn validate_from(
        &self,
        start_n: u32,
        updates: &[IngestUpdate],
    ) -> Result<(Vec<GraphUpdate>, u32), IngestError> {
        let mut n = start_n;
        let mut out = Vec::with_capacity(updates.len());
        for (index, u) in updates.iter().enumerate() {
            match *u {
                IngestUpdate::InsertEdge { src, dst } | IngestUpdate::DeleteEdge { src, dst } => {
                    let bad = if src >= n {
                        Some(src)
                    } else if dst >= n {
                        Some(dst)
                    } else {
                        None
                    };
                    if let Some(v) = bad {
                        return Err(IngestError::InvalidUpdate {
                            index,
                            detail: format!("vertex {v} does not exist (graph has {n} vertices)"),
                        });
                    }
                    out.push(match *u {
                        IngestUpdate::InsertEdge { src, dst } => {
                            GraphUpdate::InsertEdge { src, dst }
                        }
                        _ => GraphUpdate::DeleteEdge { src, dst },
                    });
                }
                IngestUpdate::AddVertex { label } => {
                    if label as usize >= self.alphabet {
                        return Err(IngestError::InvalidUpdate {
                            index,
                            detail: format!(
                                "label {label} is outside the indexed alphabet (0..{})",
                                self.alphabet
                            ),
                        });
                    }
                    out.push(GraphUpdate::AddVertex { label, expected: n });
                    n += 1;
                }
            }
        }
        Ok((out, n))
    }

    /// Applies logged updates to the base graph and every flat layer:
    /// the touched rows of the base graph are spliced
    /// ([`DiGraph::with_rows`]) and every layer's partition runs one
    /// frontier refinement seeded with the changed edges' endpoints.
    /// Idempotent over replay: an `AddVertex` whose vertex already
    /// exists is skipped, edge ops are naturally absorbing. Returns the
    /// number of updates actually applied.
    fn apply_to_state(&mut self, updates: &[GraphUpdate]) -> Result<usize, IngestError> {
        let n0 = self.base.num_vertices();
        let mut added: Vec<LabelId> = Vec::new();
        // (row owner, position in the batch, other endpoint, insert?)
        let mut out_ops: Vec<RowOp> = Vec::new();
        let mut in_ops: Vec<RowOp> = Vec::new();
        let mut refine_ops: Vec<BisimUpdate> = Vec::new();
        for (at, u) in updates.iter().enumerate() {
            let n = (n0 + added.len()) as u32;
            match *u {
                GraphUpdate::InsertEdge { src, dst } | GraphUpdate::DeleteEdge { src, dst } => {
                    if src >= n || dst >= n {
                        return Err(IngestError::ReplayGap {
                            expected: src.max(dst),
                            have: n,
                        });
                    }
                    let insert = matches!(u, GraphUpdate::InsertEdge { .. });
                    out_ops.push((src, at, VId(dst), insert));
                    in_ops.push((dst, at, VId(src), insert));
                    refine_ops.push(if insert {
                        BisimUpdate::InsertEdge(VId(src), VId(dst))
                    } else {
                        BisimUpdate::DeleteEdge(VId(src), VId(dst))
                    });
                }
                GraphUpdate::AddVertex { label, expected } => {
                    if expected < n {
                        continue; // already applied; idempotent replay
                    }
                    if expected > n {
                        return Err(IngestError::ReplayGap { expected, have: n });
                    }
                    added.push(LabelId(label));
                    refine_ops.push(BisimUpdate::AddVertex);
                }
            }
        }
        let out_rows = spliced_rows(&self.base, &mut out_ops, DiGraph::out_neighbors);
        let in_rows = spliced_rows(&self.base, &mut in_ops, DiGraph::in_neighbors);
        self.base = Arc::new(self.base.with_rows(&added, &out_rows, &in_rows));
        for flat in &mut self.flats {
            flat.apply_batch(&self.base, &refine_ops);
        }
        self.updates_since_rebuild += refine_ops.len();
        Ok(refine_ops.len())
    }

    /// The base vertex standing for vertex `s` of layer `k`: `s` itself
    /// at the data graph, any member of block `s` above it.
    fn representative(&self, k: usize, s: VId) -> VId {
        if k == 0 {
            s
        } else {
            self.flats[k - 1].members(s.0)[0]
        }
    }

    /// The layer-`(m-1)` vertex holding base vertex `u`.
    fn lower_vertex(&self, m: usize, u: VId) -> VId {
        if m == 1 {
            u
        } else {
            VId(self.flats[m - 2].partition().block_of(u))
        }
    }

    /// Patches served layer `m` (`old`) to the flat partition `Pᵐ`,
    /// given the already-patched graph `lower` below it (which had
    /// `lower_old_n` vertices when `old` was served) and how it changed.
    /// Returns the layer — `old` itself when nothing in it changed —
    /// and its own change. Cost: a copy of the layer's tables plus the
    /// degrees of the rows recomputed (see the module docs for which).
    fn patch_layer(
        &self,
        m: usize,
        old: &Arc<Layer>,
        lower: &DiGraph,
        lower_old_n: usize,
        below: &LayerDelta,
    ) -> (Arc<Layer>, LayerDelta) {
        let flat = &self.flats[m - 1];
        let part = flat.partition();
        let (old_n, n) = (old.graph.num_vertices(), part.num_blocks());
        // χ carries over. An appended lower vertex is placed by one of
        // its base vertices; a lower vertex inside a block this batch
        // created moves there (split-only refinement hands every moved
        // vertex a block id ≥ `old_n`).
        let mut chi = old.supernode_table().to_vec();
        let mut moved: Vec<VId> = (lower_old_n..lower.num_vertices())
            .map(|s| VId(s as u32))
            .collect();
        for &s in &moved {
            chi.push(VId(part.block_of(self.representative(m - 1, s))));
        }
        for x in old_n..n {
            for &u in flat.members(x as u32) {
                let s = self.lower_vertex(m, u);
                if chi[s.index()].index() != x {
                    chi[s.index()] = VId(x as u32);
                    moved.push(s);
                }
            }
        }
        debug_assert!(
            (0..lower.num_vertices() as u32).all(|s| {
                chi[s as usize].0 == part.block_of(self.representative(m - 1, VId(s)))
            }),
            "layer {m}: a lower vertex straddles two blocks — coarseness chain broken"
        );
        if moved.is_empty() && below.dirty.is_empty() {
            return (
                Arc::clone(old),
                LayerDelta {
                    diff: GraphDiff::default(),
                    dirty: Vec::new(),
                },
            );
        }
        let members = if moved.is_empty() {
            old.member_table().clone()
        } else {
            MemberTable::from_chi(&chi, n)
        };
        // The summary rows that can differ: rows of new supernodes, of
        // supernodes that lost a member, of supernodes over a lower
        // vertex whose row changed, and of supernodes with an edge into
        // a moved lower vertex.
        let mut rows: Vec<u32> = (old_n as u32..n as u32).collect();
        for &s in &moved {
            if s.index() < lower_old_n {
                rows.push(old.up(s).0);
            }
            rows.extend(lower.in_neighbors(s).iter().map(|p| chi[p.index()].0));
        }
        rows.extend(below.dirty.iter().map(|s| chi[s.index()].0));
        rows.sort_unstable();
        rows.dedup();
        // Recompute each from its members through χ and diff it against
        // the served row: that is the layer's exact edge diff.
        let base = &self.base;
        let added_labels: Vec<LabelId> = (old_n..n)
            .map(|x| {
                let l = base.label(flat.members(x as u32)[0]);
                self.composed[m - 1].get(l.index()).copied().unwrap_or(l)
            })
            .collect();
        let mut diff = GraphDiff {
            added_labels,
            ..GraphDiff::default()
        };
        let mut out_rows: Vec<(VId, Vec<VId>)> = Vec::new();
        let mut dirty: Vec<VId> = Vec::new();
        let mut row: Vec<VId> = Vec::new();
        for x in rows.into_iter().map(VId) {
            row.clear();
            for &s in members.get(x) {
                row.extend(lower.out_neighbors(s).iter().map(|t| chi[t.index()]));
            }
            row.sort_unstable();
            row.dedup();
            let served: &[VId] = if x.index() < old_n {
                old.graph.out_neighbors(x)
            } else {
                &[]
            };
            if diff_row(x, served, &row, &mut diff) {
                out_rows.push((x, row.clone()));
                dirty.push(x);
            }
        }
        let mut in_ops: Vec<RowOp> = (diff.inserted.iter().map(|&(x, y)| (y.0, 0, x, true)))
            .chain(diff.deleted.iter().map(|&(x, y)| (y.0, 0, x, false)))
            .collect();
        let in_rows = spliced_rows(&old.graph, &mut in_ops, DiGraph::in_neighbors);
        let graph = old.graph.with_rows(&diff.added_labels, &out_rows, &in_rows);
        debug_assert!(
            graph == bgi_bisim::summarize(&self.base.relabel(&self.composed[m - 1]), part).graph,
            "patched summary diverged from summarize at layer {m}"
        );
        let layer = Layer::from_table(
            self.configs[m - 1].clone(),
            self.step_maps[m - 1].clone(),
            graph,
            chi,
            members,
        );
        (Arc::new(layer), LayerDelta { diff, dirty })
    }

    /// Tries the incremental patch path for changed layer `m`: the
    /// layer's structural diff pushed through the r-clique index's
    /// per-vertex-local patch entry point. `None` (diff too large, or
    /// r-clique declines) sends the layer to the full rebuild fan-out.
    fn try_patch_layer(
        old: &IndexBundle,
        m: usize,
        index: &BiGIndex,
        diff: &GraphDiff,
    ) -> Option<NeighborIndex> {
        if old.rclique.len() <= m || diff.edge_ops() > MAX_PATCH_EDGE_OPS {
            return None;
        }
        old.rclique[m].patched(index.graph_at(m), diff)
    }

    /// Re-materializes the serving bundle from the flat state, given the
    /// update ops applied since the last materialization: every layer is
    /// patched bottom up ([`Engine::patch_layer`]), and the r-clique
    /// index of each changed layer is patched with the layer's diff
    /// when it is small ([`Engine::try_patch_layer`]) and rebuilt
    /// otherwise. BANKS and BLINKS read the patched graphs' own label
    /// tables. Unchanged parts are shared with the previous bundle,
    /// and a batch that changed no summary leaves the served bundle
    /// untouched. Returns the outcome's layer and row counts (`seq`
    /// and `applied` are the caller's).
    fn materialize(&mut self, ops: &[GraphUpdate]) -> Result<ApplyOutcome, IngestError> {
        let old = Arc::clone(&self.bundle);
        let h = self.flats.len();
        if old.index.num_layers() != h {
            return Err(IngestError::Inconsistent {
                detail: format!(
                    "the served hierarchy has {} layer(s), the engine maintains {h}",
                    old.index.num_layers()
                ),
            });
        }
        let mut sources: Vec<u32> = ops
            .iter()
            .filter_map(|u| match *u {
                GraphUpdate::InsertEdge { src, .. } | GraphUpdate::DeleteEdge { src, .. } => {
                    Some(src)
                }
                GraphUpdate::AddVertex { .. } => None,
            })
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let mut below = base_delta(old.index.base(), &self.base, &sources);
        let mut diffs: Vec<GraphDiff> = Vec::with_capacity(h + 1);
        let mut layers: Vec<Arc<Layer>> = Vec::with_capacity(h);
        for m in 1..=h {
            let lower: &DiGraph = if m == 1 {
                &self.base
            } else {
                &layers[m - 2].graph
            };
            let lower_old_n = old.index.graph_at(m - 1).num_vertices();
            let (layer, delta) =
                self.patch_layer(m, &old.index.layers()[m - 1], lower, lower_old_n, &below);
            layers.push(layer);
            diffs.push(std::mem::replace(&mut below, delta).diff);
        }
        diffs.push(below.diff);
        if diffs.iter().all(GraphDiff::is_empty) {
            // Every update in the batch was absorbed without changing any
            // summary: keep the served bundle — and its graph — untouched.
            self.base = Arc::clone(old.index.shared_base());
            return Ok(self.noop_outcome());
        }
        let index = BiGIndex::from_shared_parts(
            Arc::clone(&self.base),
            Arc::clone(old.index.shared_ontology()),
            layers,
            self.direction,
        );
        let rclique_params = old.rclique_params;
        // Each layer's r-clique index is shared when the layer did not
        // change, patched with the layer's diff where the diff allows
        // it, and rebuilt otherwise. Layers are independent, so this
        // runs in parallel, one task per layer — the store's full-build
        // shape (and determinism argument). `fate` counts reused,
        // patched and rebuilt layers; `kept` and `dropped` the resident
        // r-clique rows carried over and dropped.
        let mut fate = [0usize; 3];
        let (mut kept, mut dropped) = (0usize, 0usize);
        let rclique = par_map(self.threads, h + 1, |m| {
            let resident = old.rclique.get(m).map_or(0, resident_rows);
            if diffs[m].is_empty() && m < old.rclique.len() {
                return (old.rclique[m].clone(), 0, resident, resident);
            }
            match Self::try_patch_layer(&old, m, &index, &diffs[m]) {
                Some(rc) => {
                    let carried = resident_rows(&rc);
                    (rc, 1, resident, carried)
                }
                None => (
                    rclique_params.build_index(index.graph_at(m)),
                    2,
                    resident,
                    0,
                ),
            }
        })
        .into_iter()
        .map(|(rc, f, resident, carried)| {
            fate[f] += 1;
            kept += carried;
            dropped += resident.saturating_sub(carried);
            rc
        })
        .collect();
        self.bundle = Arc::new(IndexBundle {
            index,
            rclique,
            blinks_params: old.blinks_params,
            rclique_params,
        });
        Ok(ApplyOutcome {
            seq: None,
            applied: 0,
            reused_layers: fate[0],
            patched_layers: fate[1],
            rebuilt_layers: fate[2],
            rows_kept: kept,
            rows_dropped: dropped,
        })
    }
}

/// How many of `rc`'s rows are filled.
fn resident_rows(rc: &NeighborIndex) -> usize {
    rc.resident_rows().count()
}

/// One edit of an adjacency row: `(row owner, position in the batch,
/// other endpoint, insert?)`.
type RowOp = (u32, usize, VId, bool);

/// The new rows of every vertex `ops` touches in direction `row`: the
/// vertex's row in `g` (empty for a vertex `g` lacks) with its edits
/// applied in batch order. Sorted by vertex, as
/// [`DiGraph::with_rows`] wants them.
fn spliced_rows(
    g: &DiGraph,
    ops: &mut [RowOp],
    row: fn(&DiGraph, VId) -> &[VId],
) -> Vec<(VId, Vec<VId>)> {
    ops.sort_unstable_by_key(|&(v, at, _, _)| (v, at));
    ops.chunk_by(|a, b| a.0 == b.0)
        .map(|edits| {
            let v = VId(edits[0].0);
            let mut r = if v.index() < g.num_vertices() {
                row(g, v).to_vec()
            } else {
                Vec::new()
            };
            for &(_, _, w, insert) in edits {
                match (r.binary_search(&w), insert) {
                    (Err(at), true) => r.insert(at, w),
                    (Ok(at), false) => {
                        r.remove(at);
                    }
                    _ => {}
                }
            }
            (v, r)
        })
        .collect()
}

/// Appends the edges by which `x`'s out-row went from `served` to `row`
/// (both sorted) to `diff`; returns whether there were any.
fn diff_row(x: VId, served: &[VId], row: &[VId], diff: &mut GraphDiff) -> bool {
    let before = diff.edge_ops();
    let (mut i, mut j) = (0usize, 0usize);
    while i < served.len() || j < row.len() {
        match (served.get(i), row.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), Some(&b)) if a < b => {
                diff.deleted.push((x, a));
                i += 1;
            }
            (Some(&a), None) => {
                diff.deleted.push((x, a));
                i += 1;
            }
            (_, Some(&b)) => {
                diff.inserted.push((x, b));
                j += 1;
            }
            (None, None) => {}
        }
    }
    diff.edge_ops() > before
}

/// How the data graph went from `old` to `new`, given (ascending) every
/// vertex whose out-row a batch may have edited.
fn base_delta(old: &DiGraph, new: &DiGraph, sources: &[u32]) -> LayerDelta {
    let old_n = old.num_vertices();
    let mut diff = GraphDiff {
        added_labels: new.labels()[old_n..].to_vec(),
        ..GraphDiff::default()
    };
    let mut dirty = Vec::new();
    for &u in sources {
        let u = VId(u);
        let served: &[VId] = if u.index() < old_n {
            old.out_neighbors(u)
        } else {
            &[]
        };
        if diff_row(u, served, new.out_neighbors(u), &mut diff) {
            dirty.push(u);
        }
    }
    LayerDelta { diff, dirty }
}

/// A captured full-rebuild work order: everything
/// [`Engine::start_rebuild`] cloned out of the engine, self-contained
/// and `Send`, so [`RebuildJob::run`] — the expensive part — can
/// execute on a background thread while the engine keeps applying
/// batches. Hand the resulting bundle back to
/// [`Engine::finish_rebuild`].
pub struct RebuildJob {
    base: DiGraph,
    ontology: Ontology,
    configs: Vec<GenConfig>,
    direction: bgi_bisim::BisimDirection,
    blinks_params: bgi_search::blinks::BlinksParams,
    rclique_params: bgi_search::RClique,
    threads: usize,
}

impl RebuildJob {
    /// Runs the from-scratch construction (hierarchy, then per-layer
    /// search indexes in parallel on the captured thread budget). Pure
    /// compute — no engine, no disk.
    pub fn run(self) -> IndexBundle {
        let index =
            BiGIndex::build_with_configs(self.base, self.ontology, self.configs, self.direction);
        IndexBundle::build(index, self.blinks_params, self.rclique_params, self.threads)
    }
}

/// Everything [`Engine`] derives from a hierarchy: the fixed step
/// structure plus the flat per-layer partitions seeded from `χ`.
struct Seed {
    direction: bgi_bisim::BisimDirection,
    alphabet: usize,
    configs: Vec<GenConfig>,
    step_maps: Vec<Vec<LabelId>>,
    composed: Vec<Vec<LabelId>>,
    base: Arc<DiGraph>,
    flats: Vec<IncrementalBisim>,
    baseline: Vec<f64>,
}

impl Seed {
    fn from_index(index: &BiGIndex, alpha: f64) -> Result<Seed, IngestError> {
        let base = Arc::clone(index.shared_base());
        let direction = index.direction();
        let alphabet = base.alphabet_size().max(index.ontology().num_labels());
        let configs: Vec<GenConfig> = index.layers().iter().map(|l| l.config.clone()).collect();
        let step_maps: Vec<Vec<LabelId>> =
            index.layers().iter().map(|l| l.label_map.clone()).collect();

        let mut composed: Vec<Vec<LabelId>> = Vec::with_capacity(step_maps.len());
        let mut current: Vec<LabelId> = (0..alphabet as u32).map(LabelId).collect();
        for step in &step_maps {
            for l in &mut current {
                *l = step.get(l.index()).copied().unwrap_or(*l);
            }
            composed.push(current.clone());
        }

        // `χᵐ` of every base vertex, one layer up at a time.
        let mut chi: Vec<u32> = (0..base.num_vertices() as u32).collect();
        let mut flats = Vec::with_capacity(index.num_layers());
        for m in 1..=index.num_layers() {
            for s in &mut chi {
                *s = index.layer(m).up(VId(*s)).0;
            }
            let partition = Partition::new(chi.clone(), index.graph_at(m).num_vertices());
            let labels: Vec<LabelId> = base
                .labels()
                .iter()
                .map(|&l| composed[m - 1].get(l.index()).copied().unwrap_or(l))
                .collect();
            let inc = Partition::from_labels(&labels)
                .is_refined_by(&partition)
                .then(|| IncrementalBisim::from_partition(&base, partition, direction))
                .flatten();
            let Some(inc) = inc else {
                return Err(IngestError::Inconsistent {
                    detail: format!(
                        "layer {m}: χ table is not a label-uniform stable partition \
                         of the generalized graph"
                    ),
                });
            };
            flats.push(inc);
        }
        let baseline = layer_costs(index, alpha);
        Ok(Seed {
            direction,
            alphabet,
            configs,
            step_maps,
            composed,
            base,
            flats,
            baseline,
        })
    }
}

/// Formula-3 cost of each layer (`1..=h`) measured on the *actual*
/// hierarchy — `compress` is the realized size ratio `|Gᵐ|/|Gᵐ⁻¹|`, no
/// sampling estimator needed, and the supports are read off each layer
/// graph's label table.
fn layer_costs(index: &BiGIndex, alpha: f64) -> Vec<f64> {
    (1..=index.num_layers())
        .map(|m| {
            let lower = index.graph_at(m - 1);
            let upper = index.graph_at(m);
            let compress = if lower.size() == 0 {
                1.0
            } else {
                upper.size() as f64 / lower.size() as f64
            };
            construction_cost_with_compress(
                compress,
                &index.support_at(m - 1),
                &index.layer(m).config,
                alpha,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_bisim::summarize;
    use bgi_graph::{GraphBuilder, OntologyBuilder};
    use bgi_search::blinks::BlinksParams;
    use bgi_search::RClique;

    /// Fig. 1-like: person subtypes → univ subtypes → state.
    fn setup() -> (DiGraph, Ontology) {
        let mut gb = GraphBuilder::new();
        // 0=Person, 1=Prof, 2=Student, 3=Univ, 4=PubUniv, 5=PrivUniv, 6=State.
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

    fn build_bundle(g: DiGraph, o: Ontology) -> IndexBundle {
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
        let index =
            BiGIndex::build_with_configs(g, o, vec![c1], bgi_bisim::BisimDirection::Forward);
        IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1)
    }

    fn engine() -> Engine {
        let (g, o) = setup();
        Engine::new(build_bundle(g, o), EngineConfig::default()).unwrap()
    }

    #[test]
    fn seeding_reproduces_the_served_hierarchy() {
        let (g, o) = setup();
        let bundle = build_bundle(g, o);
        let reference = bundle.index.clone();
        let mut e = Engine::new(bundle, EngineConfig::default()).unwrap();
        // Every flat partition summarizes to the served layer, with the
        // same supernode numbering.
        for m in 1..=reference.num_layers() {
            let flat_graph = e.base.relabel(&e.composed[m - 1]);
            let part = e.flats[m - 1].partition();
            assert!(summarize(&flat_graph, part).graph == *reference.graph_at(m));
            for v in reference.base().vertices() {
                assert_eq!(VId(part.block_of(v)), reference.chi(v, m));
            }
        }
        // Materializing with zero updates changes nothing.
        let out = e.materialize(&[]).unwrap();
        assert_eq!(
            (out.reused_layers, out.patched_layers, out.rebuilt_layers),
            (reference.num_layers() + 1, 0, 0)
        );
        assert!(e.index() == &reference);
        assert!(e.index().verify().is_clean());
    }

    #[test]
    fn seeding_refuses_an_unstable_chi() {
        // The one-label chain 0 → 1 → 2 → 3 quotiented by {0, 1, 2},
        // {3}: label-uniform and path-preserving, but 2's successor sits
        // in the other block. Repairing it would renumber the blocks the
        // served χ names, so seeding must refuse it.
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
        let index = BiGIndex::from_parts(
            base,
            ontology,
            vec![layer],
            bgi_bisim::BisimDirection::Forward,
        );
        let bundle = IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1);
        let err = Engine::new(bundle, EngineConfig::default()).err();
        assert!(
            matches!(err, Some(IngestError::Inconsistent { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn updates_keep_the_index_verifiable() {
        let mut e = engine();
        let out = e
            .apply_batch(&[
                IngestUpdate::InsertEdge { src: 3, dst: 1 },
                IngestUpdate::DeleteEdge { src: 4, dst: 2 },
                IngestUpdate::AddVertex { label: 2 },
                IngestUpdate::InsertEdge { src: 33, dst: 0 },
            ])
            .unwrap();
        assert_eq!(out.applied, 4);
        assert!(e.index().verify().is_clean(), "{}", e.index().verify());
        assert_eq!(e.index().base().num_vertices(), 34);
        assert!(e.index().base().has_edge(VId(33), VId(0)));
    }

    #[test]
    fn unchanged_layers_reuse_search_indexes() {
        let mut e = engine();
        // A no-op-ish delete of a non-existent edge between valid
        // vertices: graphs unchanged, everything reused.
        let out = e
            .apply_batch(&[IngestUpdate::DeleteEdge { src: 0, dst: 1 }])
            .unwrap();
        assert_eq!(out.rebuilt_layers, 0);
        assert_eq!(out.reused_layers, e.index().num_layers() + 1);
        // A real edge change refreshes at least layer 0 — through the
        // incremental patch path when the diff is small, like here.
        let out = e
            .apply_batch(&[IngestUpdate::InsertEdge { src: 5, dst: 2 }])
            .unwrap();
        assert!(out.patched_layers + out.rebuilt_layers >= 1);
        assert!(out.reused_layers < e.index().num_layers() + 1);
    }

    #[test]
    fn vertex_addition_patches_every_layer() {
        let mut e = engine();
        // A fresh isolated vertex extends every partition by one
        // singleton block: the summaries patch in place and the
        // r-clique index takes its per-vertex-local entry point — no
        // layer pays a rebuild.
        let out = e
            .apply_batch(&[IngestUpdate::AddVertex { label: 1 }])
            .unwrap();
        assert_eq!(out.rebuilt_layers, 0, "vertex append must not rebuild");
        assert_eq!(out.patched_layers, e.index().num_layers() + 1);
        assert!(e.index().verify().is_clean(), "{}", e.index().verify());
        // The debug_assert in materialize already cross-checked the
        // patched summaries against summarize(); spot-check the base.
        assert_eq!(e.index().base().num_vertices(), 34);
    }

    #[test]
    fn kept_rows_are_the_same_for_any_thread_count() {
        let batch = [
            IngestUpdate::InsertEdge { src: 3, dst: 1 },
            IngestUpdate::DeleteEdge { src: 4, dst: 2 },
            IngestUpdate::AddVertex { label: 2 },
        ];
        let runs: Vec<_> = [1, 4]
            .into_iter()
            .map(|threads| {
                let (g, o) = setup();
                let config = EngineConfig {
                    threads,
                    ..EngineConfig::default()
                };
                let mut e = Engine::new(build_bundle(g, o), config).unwrap();
                let mut resident = 0;
                for (m, rc) in e.bundle().rclique.iter().enumerate() {
                    for v in e.index().graph_at(m).vertices() {
                        rc.neighbors(v);
                    }
                    resident += rc.num_rows();
                }
                let out = e.apply_batch(&batch).unwrap();
                assert_eq!(out.rows_kept + out.rows_dropped, resident);
                let kept: Vec<Vec<VId>> = (e.bundle().rclique.iter())
                    .map(|rc| rc.resident_rows().map(|(v, _)| v).collect())
                    .collect();
                (out, kept)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].0.rows_kept > 0 && runs[0].0.rows_dropped > 0);
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("bgi-ingest-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn group_commit_shares_one_fsync_across_batches() {
        let (g, o) = setup();
        let dir = tempdir("group");
        let store = bgi_store::Store::open(&dir).unwrap();
        let (mut e, replayed) =
            Engine::with_wal(build_bundle(g, o), EngineConfig::default(), &store).unwrap();
        assert_eq!(replayed, 0);
        let before = e.wal_fsyncs();
        let outcomes = e
            .apply_group(&[
                vec![IngestUpdate::InsertEdge { src: 3, dst: 1 }],
                Vec::new(),
                vec![
                    IngestUpdate::AddVertex { label: 2 },
                    // Cross-batch numbering: vertex 33 was added by
                    // this very group.
                    IngestUpdate::InsertEdge { src: 33, dst: 0 },
                ],
            ])
            .unwrap();
        assert_eq!(e.wal_fsyncs(), before + 1, "a group commits on one fsync");
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].seq.is_some());
        assert_eq!(outcomes[1].seq, None, "empty batch gets no WAL record");
        assert!(outcomes[2].seq > outcomes[0].seq);
        assert_eq!(outcomes[2].applied, 2);
        assert!(e.index().base().has_edge(VId(33), VId(0)));
        assert!(e.index().verify().is_clean(), "{}", e.index().verify());

        // Recovery sees exactly the two non-empty batches.
        drop(e);
        let (_, batches) = store.open_wal().unwrap();
        assert_eq!(batches.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_skip_the_wal_entirely() {
        let (g, o) = setup();
        let dir = tempdir("noop");
        let store = bgi_store::Store::open(&dir).unwrap();
        let (mut e, _) =
            Engine::with_wal(build_bundle(g, o), EngineConfig::default(), &store).unwrap();
        let before = e.wal_fsyncs();
        let bundle_before = e.bundle().index.clone();
        let out = e.apply_batch(&[]).unwrap();
        assert_eq!(out.seq, None);
        assert_eq!(out.applied, 0);
        let outs = e.apply_group(&[Vec::new(), Vec::new()]).unwrap();
        assert!(outs.iter().all(|o| o.seq.is_none() && o.applied == 0));
        assert_eq!(e.wal_fsyncs(), before, "no-op batches must not fsync");
        assert!(e.bundle().index == bundle_before);
        let (_, batches) = store.open_wal().unwrap();
        assert!(batches.is_empty(), "no-op batches must not reach the log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_invalid_update_rejects_its_whole_group_before_logging() {
        let (g, o) = setup();
        let dir = tempdir("reject");
        let store = bgi_store::Store::open(&dir).unwrap();
        let (mut e, _) =
            Engine::with_wal(build_bundle(g, o), EngineConfig::default(), &store).unwrap();
        let before = e.index().clone();
        let valid = IngestUpdate::InsertEdge { src: 0, dst: 1 };
        let no_vertex = IngestUpdate::InsertEdge { src: 0, dst: 999 };
        let no_label = IngestUpdate::AddVertex { label: 99 };
        // (group, index of the bad update within its batch)
        let groups = [
            (vec![vec![valid, no_vertex]], 1),
            (vec![vec![no_label]], 0),
            (vec![vec![valid], vec![no_vertex]], 0),
        ];
        for (group, bad) in groups {
            let err = e.apply_group(&group).unwrap_err();
            assert!(
                matches!(err, IngestError::InvalidUpdate { index, .. } if index == bad),
                "{group:?} refused with {err:?}"
            );
            assert_eq!(e.wal_fsyncs(), 0, "rejected group must not touch the WAL");
            assert!(e.index() == &before, "rejected group must not change state");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_recommends_rebuild_and_rebuild_resets() {
        let (g, o) = setup();
        let config = EngineConfig {
            policy: RebuildPolicy {
                alpha: 0.5,
                max_cost_increase: 2.0, // never trip on cost
                max_updates: 10,
            },
            threads: 1,
        };
        let mut e = Engine::new(build_bundle(g, o), config).unwrap();
        // A long update stream must eventually trigger the rebuild
        // recommendation (the satellite fix: drift is actually consulted).
        let mut recommended = false;
        for i in 0..12u32 {
            e.apply_batch(&[IngestUpdate::InsertEdge { src: 3 + i, dst: 2 }])
                .unwrap();
            if e.drift().rebuild_recommended {
                recommended = true;
                break;
            }
        }
        assert!(recommended, "update stream never triggered rebuild");
        e.rebuild().unwrap();
        assert_eq!(e.updates_since_rebuild(), 0);
        assert!(!e.drift().rebuild_recommended);
        assert!(e.index().verify().is_clean());
        // After rebuild the hierarchy equals a from-scratch build.
        let scratch = BiGIndex::build_with_configs(
            e.index().base().clone(),
            e.index().ontology().clone(),
            e.configs.clone(),
            e.direction,
        );
        assert!(e.index() == &scratch);
    }

    #[test]
    fn background_rebuild_replays_updates_applied_while_building() {
        let mut e = engine();
        e.apply_batch(&[IngestUpdate::InsertEdge { src: 3, dst: 1 }])
            .unwrap();
        let job = e.start_rebuild();
        assert!(e.rebuild_in_flight());
        // Updates keep landing while the job "runs elsewhere" — both an
        // edge change and a vertex addition (whose expected id must
        // line up with the capture-time base on replay).
        e.apply_batch(&[
            IngestUpdate::InsertEdge { src: 7, dst: 2 },
            IngestUpdate::AddVertex { label: 1 },
            IngestUpdate::InsertEdge { src: 33, dst: 0 },
        ])
        .unwrap();
        let handle = std::thread::spawn(move || job.run());
        let bundle = handle.join().unwrap();
        e.finish_rebuild(bundle).unwrap();
        assert!(!e.rebuild_in_flight());
        // The delta survived adoption: the rebuilt state includes the
        // updates applied during the build.
        assert_eq!(e.index().base().num_vertices(), 34);
        assert!(e.index().base().has_edge(VId(7), VId(2)));
        assert!(e.index().base().has_edge(VId(33), VId(0)));
        assert!(e.index().verify().is_clean(), "{}", e.index().verify());
        // The baseline reset to the capture; only the delta counts as
        // post-rebuild drift.
        assert_eq!(e.updates_since_rebuild(), 3);
    }

    #[test]
    fn finish_rebuild_without_start_is_rejected() {
        let mut e = engine();
        let bundle = e.bundle().clone();
        let err = e.finish_rebuild(bundle).unwrap_err();
        assert!(matches!(err, IngestError::Inconsistent { .. }));
        // abort clears an in-flight capture; finishing afterwards is
        // rejected too (the job's result went stale).
        let job = e.start_rebuild();
        e.abort_rebuild();
        assert!(!e.rebuild_in_flight());
        let err = e.finish_rebuild(job.run()).unwrap_err();
        assert!(matches!(err, IngestError::Inconsistent { .. }));
    }

    /// After every commit of a seeded stream, in every direction, each
    /// served layer is exactly what summarizing its flat partition
    /// gives — graph, `χ` and `Bisim⁻¹` — and the index verifies. (A
    /// `Backward` partition's blocks share in-rows, not out-rows, so a
    /// block that loses members is the case only it exercises.)
    #[test]
    fn patched_layers_equal_resummarized_ones_in_every_direction() {
        use bgi_bisim::BisimDirection;
        use bgi_datasets::{update_stream, DatasetSpec, UpdateMix, UpdateOp};
        let ds = DatasetSpec::yago_like(300).generate();
        for dir in [
            BisimDirection::Forward,
            BisimDirection::Backward,
            BisimDirection::Both,
        ] {
            let configs = big_index::greedy_full_step_configs(&ds.graph, &ds.ontology, 3, dir);
            let index =
                BiGIndex::build_with_configs(ds.graph.clone(), ds.ontology.clone(), configs, dir);
            let bundle = IndexBundle::build(index, BlinksParams::default(), RClique::default(), 1);
            let mut e = Engine::new(bundle, EngineConfig::default()).unwrap();
            for op in update_stream(&ds.graph, 11, 120, UpdateMix::default()) {
                let update = match op {
                    UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
                    UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
                    UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
                };
                e.apply_batch(&[update]).unwrap();
                let index = e.index();
                assert!(index.base() == &*e.base);
                for m in 1..=index.num_layers() {
                    let part = e.flats[m - 1].partition();
                    let flat_graph = e.base.relabel(&e.composed[m - 1]);
                    assert!(
                        summarize(&flat_graph, part).graph == *index.graph_at(m),
                        "{dir:?}: layer {m} after {update:?}"
                    );
                    for v in index.base().vertices() {
                        assert_eq!(index.chi(v, m), VId(part.block_of(v)), "{dir:?}");
                    }
                    let layer = index.layer(m);
                    let members =
                        MemberTable::from_chi(layer.supernode_table(), layer.graph.num_vertices());
                    assert!(*layer.member_table() == members, "{dir:?}: layer {m}");
                }
                assert!(index.verify().is_clean(), "{}", index.verify());
            }
        }
    }

    #[test]
    fn cost_drift_triggers_on_compression_loss() {
        let (g, o) = setup();
        let config = EngineConfig {
            policy: RebuildPolicy {
                alpha: 0.5,
                max_cost_increase: 0.01,
                max_updates: usize::MAX,
            },
            threads: 1,
        };
        let mut e = Engine::new(build_bundle(g, o), config).unwrap();
        // Give many persons distinct extra edges: blocks split, the
        // summary grows, compress worsens, Formula-3 cost rises.
        let updates: Vec<IngestUpdate> = (0..12)
            .map(|i| IngestUpdate::InsertEdge {
                src: 3 + i,
                dst: (i % 3),
            })
            .collect();
        e.apply_batch(&updates).unwrap();
        let drift = e.drift();
        assert!(
            drift.layers.iter().any(|l| l.bisim.block_growth() > 0),
            "splits expected"
        );
        assert!(drift.rebuild_recommended, "cost drift should recommend");
    }
}
