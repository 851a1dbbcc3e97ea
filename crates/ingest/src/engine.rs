//! The live-update engine: WAL-backed apply pipeline over flat
//! per-layer partitions, with drift-triggered full rebuild.
//!
//! ## The flat-partition representation
//!
//! The hierarchy is defined iteratively (`Gᵐ = Bisim(Gen(Gᵐ⁻¹, Cᵐ))`),
//! but maintaining it that way would mean updating `m` graphs whose
//! vertex sets all shift under splits. Instead the engine keeps, per
//! layer `m`, a partition `Pᵐ` of the **base** vertices over the base
//! graph relabeled by the composed map `Cᵐ ∘ … ∘ C¹`. This is faithful:
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
//!   block containing it, and `summarize` over the flat graph
//!   reproduces the summary `Gᵐ` exactly (supernode ids are block ids
//!   in both views).
//!
//! A batch is therefore: validate → WAL append (fsync = commit) → one
//! `apply_batch` per layer → re-materialize `Layer`s and the
//! `IndexBundle`, rebuilding per-layer search indexes only where the
//! summary graph changed. The result is a *stable but possibly finer
//! than maximal* hierarchy — precisely the paper's eager-split /
//! deferred-merge maintenance — which still passes the full
//! `bgi-verify` invariant suite (it checks stability, not maximality).

use crate::error::IngestError;
use crate::policy::{DriftReport, LayerDrift, RebuildPolicy};
use crate::update::IngestUpdate;
use bgi_bisim::incremental::Update as BisimUpdate;
use bgi_bisim::{summarize, IncrementalBisim, Partition};
use bgi_graph::par::par_map;
use bgi_graph::stats::LabelSupport;
use bgi_graph::{DiGraph, GraphBuilder, LabelId, Ontology, VId};
use bgi_search::banks::BanksIndex;
use bgi_search::blinks::BlinksIndex;
use bgi_search::rclique::RCliqueIndex;
use bgi_search::{diff_graphs, Banks, Blinks, KeywordSearch};
use bgi_store::{build_layer_indexes, GraphUpdate, IndexBundle, Store, Wal};
use big_index::cost::construction_cost_with_compress;
use big_index::layer::Layer;
use big_index::{BiGIndex, GenConfig};
use std::collections::BTreeSet;

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
    /// for the incremental entry points on all three indexes.
    pub patched_layers: usize,
    /// Layers whose search indexes had to be rebuilt from scratch.
    pub rebuilt_layers: usize,
}

/// The live-update engine. See the module docs for the pipeline.
pub struct Engine {
    ontology: Ontology,
    direction: bgi_bisim::BisimDirection,
    /// Labels an [`IngestUpdate::AddVertex`] may use (`0..alphabet`).
    alphabet: usize,
    /// Per-layer step configurations `Cᵐ` (fixed under updates).
    configs: Vec<GenConfig>,
    /// Per-layer step label maps (dense form of `Cᵐ`).
    step_maps: Vec<Vec<LabelId>>,
    /// `composed[m-1][ℓ] = Cᵐ(…C¹(ℓ)…)` over the full alphabet.
    composed: Vec<Vec<LabelId>>,
    /// The current base graph `G⁰`.
    base: DiGraph,
    /// Flat per-layer state: `flats[m-1]` maintains `Pᵐ` over
    /// `relabel(base, composed[m-1])`.
    flats: Vec<IncrementalBisim>,
    /// The current materialized serving artifact.
    bundle: IndexBundle,
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
    /// Per-layer `(assignment, num_blocks)` snapshot of the flat
    /// partitions as of the served bundle — the baseline against which
    /// [`Engine::materialize`] decides whether a layer's summary can be
    /// patched block-by-block instead of re-summarized from scratch.
    prev_parts: Vec<(Vec<u32>, usize)>,
}

/// Structural diffs above this many edge operations always fall back
/// to a full per-layer index rebuild: past a few hundred touched edges
/// the incremental entry points stop paying for themselves.
const MAX_PATCH_EDGE_OPS: usize = 512;

/// The three per-layer search indexes produced by the incremental
/// patch path (all three must succeed or the layer is rebuilt).
struct PatchedLayer {
    banks: BanksIndex,
    blinks: BlinksIndex,
    rclique: RCliqueIndex,
}

/// Snapshots every flat partition for the patchability baseline.
fn snapshot_parts(flats: &[IncrementalBisim]) -> Vec<(Vec<u32>, usize)> {
    flats
        .iter()
        .map(|f| {
            let p = f.partition();
            (p.assignment().to_vec(), p.num_blocks())
        })
        .collect()
}

/// Whether `part` extends the snapshot `prev` by appended singleton
/// blocks only: every pre-existing vertex keeps its block, and each
/// appended vertex sits in a fresh block numbered consecutively after
/// the old ones. Exactly the shape under which the old summary graph
/// can be patched per update op instead of re-derived.
fn extends_by_singletons(prev: &(Vec<u32>, usize), part: &Partition) -> bool {
    let (prev_bo, prev_nb) = prev;
    let bo = part.assignment();
    let n_old = prev_bo.len();
    bo.len() >= n_old
        && part.num_blocks() == prev_nb + (bo.len() - n_old)
        && bo[..n_old] == prev_bo[..]
        && bo[n_old..]
            .iter()
            .enumerate()
            .all(|(k, &b)| b as usize == prev_nb + k)
}

impl Engine {
    /// Starts an engine from a built (or loaded) bundle, without a WAL
    /// — updates are applied in memory only. Fails with
    /// [`IngestError::Inconsistent`] if the bundle's hierarchy cannot
    /// seed the flat partitions (which a verified index always can).
    pub fn new(bundle: IndexBundle, config: EngineConfig) -> Result<Engine, IngestError> {
        let seed = Seed::from_index(&bundle.index, config.policy.alpha)?;
        let prev_parts = snapshot_parts(&seed.flats);
        Ok(Engine {
            ontology: seed.ontology,
            direction: seed.direction,
            alphabet: seed.alphabet,
            configs: seed.configs,
            step_maps: seed.step_maps,
            composed: seed.composed,
            base: seed.base,
            flats: seed.flats,
            bundle,
            wal: None,
            last_seq: 0,
            policy: config.policy,
            threads: config.threads.max(1),
            baseline: seed.baseline,
            updates_since_rebuild: 0,
            rebuild_delta: None,
            prev_parts,
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
    /// indexes, consistent with every update applied so far. Hand a
    /// clone to `IndexSnapshot::from_bundle` to serve it.
    pub fn bundle(&self) -> &IndexBundle {
        &self.bundle
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
        let (reused_layers, patched_layers, rebuilt_layers) = self.materialize(&flat)?;
        Ok(logged
            .iter()
            .map(|b| ApplyOutcome {
                seq: if b.is_empty() { None } else { seqs.next() },
                applied: b.len(),
                reused_layers,
                patched_layers,
                rebuilt_layers,
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
        }
    }

    /// Measures drift since the last full build and evaluates the
    /// rebuild policy — the staleness tracker.
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
            base: self.base.clone(),
            ontology: self.ontology.clone(),
            configs: self.configs.clone(),
            direction: self.direction,
            blinks_params: self.bundle.blinks_params,
            rclique_params: self.bundle.rclique_params,
            eval: self.bundle.eval,
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
        self.ontology = seed.ontology;
        self.alphabet = seed.alphabet;
        self.configs = seed.configs;
        self.step_maps = seed.step_maps;
        self.composed = seed.composed;
        self.base = seed.base;
        self.prev_parts = snapshot_parts(&seed.flats);
        self.flats = seed.flats;
        self.baseline = seed.baseline;
        self.bundle = bundle;
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

    /// Applies logged updates to the base graph and every flat layer —
    /// one CSR rebuild and one re-stabilization per layer for the whole
    /// batch. Idempotent over replay: an `AddVertex` whose vertex
    /// already exists is skipped, edge ops are naturally absorbing.
    /// Returns the number of updates actually applied.
    fn apply_to_state(&mut self, updates: &[GraphUpdate]) -> Result<usize, IngestError> {
        let mut labels: Vec<LabelId> = self.base.labels().to_vec();
        let mut edges: BTreeSet<(VId, VId)> = self.base.edges().collect();
        let mut per_layer: Vec<Vec<BisimUpdate>> = vec![Vec::new(); self.flats.len()];
        let mut applied = 0usize;
        for u in updates {
            match *u {
                GraphUpdate::InsertEdge { src, dst } | GraphUpdate::DeleteEdge { src, dst } => {
                    let n = labels.len() as u32;
                    if src >= n || dst >= n {
                        return Err(IngestError::ReplayGap {
                            expected: src.max(dst),
                            have: n,
                        });
                    }
                    let (a, b) = (VId(src), VId(dst));
                    let insert = matches!(u, GraphUpdate::InsertEdge { .. });
                    if insert {
                        edges.insert((a, b));
                    } else {
                        edges.remove(&(a, b));
                    }
                    for layer in &mut per_layer {
                        layer.push(if insert {
                            BisimUpdate::InsertEdge(a, b)
                        } else {
                            BisimUpdate::DeleteEdge(a, b)
                        });
                    }
                    applied += 1;
                }
                GraphUpdate::AddVertex { label, expected } => {
                    let n = labels.len() as u32;
                    if expected < n {
                        continue; // already applied; idempotent replay
                    }
                    if expected > n {
                        return Err(IngestError::ReplayGap { expected, have: n });
                    }
                    labels.push(LabelId(label));
                    for (i, layer) in per_layer.iter_mut().enumerate() {
                        let gl = self.composed[i]
                            .get(label as usize)
                            .copied()
                            .unwrap_or(LabelId(label));
                        layer.push(BisimUpdate::AddVertex(gl));
                    }
                    applied += 1;
                }
            }
        }
        self.base = GraphBuilder::from_edges(labels, edges.into_iter().collect());
        for (i, batch) in per_layer.into_iter().enumerate() {
            self.flats[i].apply_batch(&batch);
        }
        self.updates_since_rebuild += applied;
        Ok(applied)
    }

    /// Patches layer `m`'s summary graph from the served one instead of
    /// re-summarizing: valid only when the layer's partition extends
    /// the served snapshot by appended singleton blocks (checked by the
    /// caller via [`extends_by_singletons`]), so every update op maps
    /// to a summary-local edit. Edge inserts add the block-pair edge;
    /// edge deletes drop it only after a **witness scan over the
    /// touched block** finds no surviving member edge into the target
    /// block — the dirty-block scoping that keeps the cost proportional
    /// to the touched blocks' degree, not the base graph.
    fn patch_summary(
        &self,
        m: usize,
        ops: &[GraphUpdate],
        part: &Partition,
        flat: &DiGraph,
        n_old: usize,
    ) -> DiGraph {
        let old = self.bundle.index.graph_at(m);
        let mut labels: Vec<LabelId> = old.labels().to_vec();
        let mut edges: BTreeSet<(VId, VId)> = old.edges().collect();
        let mut members: Option<Vec<Vec<VId>>> = None;
        for u in ops {
            match *u {
                GraphUpdate::InsertEdge { src, dst } => {
                    edges.insert((VId(part.block_of(VId(src))), VId(part.block_of(VId(dst)))));
                }
                GraphUpdate::DeleteEdge { src, dst } => {
                    let (bs, bd) = (part.block_of(VId(src)), part.block_of(VId(dst)));
                    let mem = members.get_or_insert_with(|| part.blocks());
                    // The scan runs against the post-batch flat graph,
                    // so out-of-order ops within the batch (delete then
                    // re-insert, insert then delete) still converge on
                    // the final edge set.
                    let witness = mem[bs as usize].iter().any(|&w| {
                        flat.out_neighbors(w)
                            .iter()
                            .any(|&x| part.block_of(x) == bd)
                    });
                    if !witness {
                        edges.remove(&(VId(bs), VId(bd)));
                    }
                }
                GraphUpdate::AddVertex { label, expected } => {
                    if (expected as usize) < n_old {
                        continue; // replay of an already-absorbed addition
                    }
                    let gl = self.composed[m - 1]
                        .get(label as usize)
                        .copied()
                        .unwrap_or(LabelId(label));
                    labels.push(gl);
                }
            }
        }
        GraphBuilder::from_edges(labels, edges.into_iter().collect())
    }

    /// Tries the incremental patch path for changed layer `m`: a small
    /// structural diff of the summary graphs, pushed through the
    /// per-vertex-local patch entry points of all three search indexes.
    /// `None` (diff too large, or any index declines) sends the layer
    /// to the full rebuild fan-out.
    fn try_patch_layer(&self, m: usize, index: &BiGIndex) -> Option<PatchedLayer> {
        if m > self.bundle.index.num_layers()
            || self.bundle.banks.len() <= m
            || self.bundle.blinks.len() <= m
            || self.bundle.rclique.len() <= m
        {
            return None;
        }
        let old_g = self.bundle.index.graph_at(m);
        let new_g = index.graph_at(m);
        let diff = diff_graphs(old_g, new_g, MAX_PATCH_EDGE_OPS)?;
        // A blinks decline is cost-based (patch would out-cost a
        // rebuild), not a correctness failure: rebuild blinks alone and
        // keep the cheap banks and rclique patches for the layer.
        let blinks = match self.bundle.blinks[m].patched(old_g, new_g, &diff) {
            Some(p) => p,
            None => Blinks::new(self.bundle.blinks_params).build_index(new_g),
        };
        let rclique = self.bundle.rclique[m].patched(new_g, &diff)?;
        let banks = self.bundle.banks[m].patched(new_g, &diff);
        Some(PatchedLayer {
            banks,
            blinks,
            rclique,
        })
    }

    /// Rebuilds the `Layer` tables and the serving bundle from the flat
    /// state, given the update ops applied since the last
    /// materialization. Layers whose partition only grew by appended
    /// singletons get their summary graph *patched* from the served one
    /// ([`Engine::patch_summary`]); search indexes of changed layers
    /// are patched incrementally when the structural diff is small
    /// ([`Engine::try_patch_layer`]) and rebuilt otherwise. Returns
    /// `(reused, patched, rebuilt)` layer counts.
    fn materialize(&mut self, ops: &[GraphUpdate]) -> Result<(usize, usize, usize), IngestError> {
        let n = self.base.num_vertices();
        let h = self.flats.len();
        let served_layers_match = self.bundle.index.num_layers() == h;
        let mut layers: Vec<Layer> = Vec::with_capacity(h);
        for m in 1..=h {
            let flat = &self.flats[m - 1];
            let part = flat.partition();
            let summary_graph = if served_layers_match
                && self
                    .prev_parts
                    .get(m - 1)
                    .is_some_and(|prev| extends_by_singletons(prev, part))
            {
                let n_old = self.prev_parts[m - 1].0.len();
                let patched = self.patch_summary(m, ops, part, flat.graph(), n_old);
                debug_assert!(
                    patched == summarize(flat.graph(), part).graph,
                    "patched summary diverged from summarize at layer {m}"
                );
                patched
            } else {
                summarize(flat.graph(), part).graph
            };
            let supernode_of: Vec<VId> = if m == 1 {
                (0..n).map(|u| VId(part.block_of(VId(u as u32)))).collect()
            } else {
                let prev = self.flats[m - 2].partition();
                let mut table = vec![u32::MAX; prev.num_blocks()];
                for u in 0..n {
                    let v = VId(u as u32);
                    let b = prev.block_of(v) as usize;
                    let s = part.block_of(v);
                    if table[b] == u32::MAX {
                        table[b] = s;
                    } else if table[b] != s {
                        return Err(IngestError::Inconsistent {
                            detail: format!(
                                "layer {m}: layer-{} supernode {b} straddles two layer-{m} \
                                 supernodes ({} and {s}) — coarseness chain broken",
                                m - 1,
                                table[b]
                            ),
                        });
                    }
                }
                if let Some(b) = table.iter().position(|&s| s == u32::MAX) {
                    return Err(IngestError::Inconsistent {
                        detail: format!("layer {m}: layer-{} supernode {b} has no members", m - 1),
                    });
                }
                table.into_iter().map(VId).collect()
            };
            let mut members: Vec<Vec<VId>> = vec![Vec::new(); part.num_blocks()];
            for (b, s) in supernode_of.iter().enumerate() {
                members[s.index()].push(VId(b as u32));
            }
            layers.push(Layer::new(
                self.configs[m - 1].clone(),
                self.step_maps[m - 1].clone(),
                summary_graph,
                supernode_of,
                members,
            ));
        }
        let index = BiGIndex::from_parts(
            self.base.clone(),
            self.ontology.clone(),
            layers,
            self.direction,
        );

        if index == self.bundle.index {
            // Every update in the batch was absorbed without changing any
            // summary: keep the served bundle untouched.
            self.prev_parts = snapshot_parts(&self.flats);
            return Ok((h + 1, 0, 0));
        }
        let blinks_params = self.bundle.blinks_params;
        let rclique_params = self.bundle.rclique_params;
        let eval = self.bundle.eval;
        let blinks_algo = Blinks::new(blinks_params);
        let changed: Vec<usize> = (0..=h)
            .filter(|&m| {
                !(m <= self.bundle.index.num_layers()
                    && self.bundle.banks.len() > m
                    && index.graph_at(m) == self.bundle.index.graph_at(m))
            })
            .collect();
        // Patch changed layers incrementally where the diff allows it —
        // layers are independent, so in parallel; everything else goes
        // to the parallel rebuild fan-out.
        let mut patches: Vec<Option<PatchedLayer>> = par_map(self.threads, changed.len(), |i| {
            self.try_patch_layer(changed[i], &index)
        });
        let rebuild_list: Vec<usize> = changed
            .iter()
            .zip(&patches)
            .filter(|(_, p)| p.is_none())
            .map(|(&m, _)| m)
            .collect();
        // Rebuild the three search indexes of every unpatchable layer
        // in parallel — `(layer, algorithm)` granularity, same task
        // shape (and same determinism argument) as the store's full
        // build.
        let mut built: Vec<Option<BuiltIndex>> =
            par_map(self.threads, rebuild_list.len() * 3, |t| {
                let g = index.graph_at(rebuild_list[t / 3]);
                match t % 3 {
                    0 => BuiltIndex::Banks(Banks.build_index(g)),
                    1 => BuiltIndex::Blinks(blinks_algo.build_index(g)),
                    _ => BuiltIndex::RClique(rclique_params.build_index(g)),
                }
            })
            .into_iter()
            .map(Some)
            .collect();
        // Move the unchanged layers' indexes out of the old bundle instead
        // of cloning them — the old bundle is dead after the swap.
        let old = std::mem::replace(
            &mut self.bundle,
            IndexBundle {
                index,
                banks: Vec::new(),
                blinks: Vec::new(),
                rclique: Vec::new(),
                blinks_params,
                rclique_params,
                eval,
            },
        );
        let mut old_banks: Vec<Option<BanksIndex>> = old.banks.into_iter().map(Some).collect();
        let mut old_blinks: Vec<Option<BlinksIndex>> = old.blinks.into_iter().map(Some).collect();
        let mut old_rclique: Vec<Option<RCliqueIndex>> =
            old.rclique.into_iter().map(Some).collect();
        let mut banks = Vec::with_capacity(h + 1);
        let mut blinks = Vec::with_capacity(h + 1);
        let mut rclique = Vec::with_capacity(h + 1);
        let (mut reused, mut patched, mut rebuilt) = (0usize, 0usize, 0usize);
        for m in 0..=h {
            match changed.iter().position(|&c| c == m) {
                None => {
                    let slots = (
                        old_banks.get_mut(m).and_then(Option::take),
                        old_blinks.get_mut(m).and_then(Option::take),
                        old_rclique.get_mut(m).and_then(Option::take),
                    );
                    let (Some(ba), Some(bl), Some(rc)) = slots else {
                        // Unreachable: `changed` only skips layers the old
                        // bundle covers.
                        return Err(IngestError::Inconsistent {
                            detail: format!("layer {m}: reusable index missing from bundle"),
                        });
                    };
                    banks.push(ba);
                    blinks.push(bl);
                    rclique.push(rc);
                    reused += 1;
                }
                Some(p) => {
                    if let Some(pl) = patches[p].take() {
                        banks.push(pl.banks);
                        blinks.push(pl.blinks);
                        rclique.push(pl.rclique);
                        patched += 1;
                        continue;
                    }
                    let Some(rp) = rebuild_list.iter().position(|&c| c == m) else {
                        // Unreachable: an unpatched changed layer is
                        // always in the rebuild fan-out.
                        return Err(IngestError::Inconsistent {
                            detail: format!("layer {m}: neither patched nor rebuilt"),
                        });
                    };
                    let slots = (
                        built[rp * 3].take(),
                        built[rp * 3 + 1].take(),
                        built[rp * 3 + 2].take(),
                    );
                    let (
                        Some(BuiltIndex::Banks(ba)),
                        Some(BuiltIndex::Blinks(bl)),
                        Some(BuiltIndex::RClique(rc)),
                    ) = slots
                    else {
                        // Unreachable by construction of `built`.
                        return Err(IngestError::Inconsistent {
                            detail: format!("layer {m}: rebuilt index slots out of order"),
                        });
                    };
                    banks.push(ba);
                    blinks.push(bl);
                    rclique.push(rc);
                    rebuilt += 1;
                }
            }
        }
        self.bundle.banks = banks;
        self.bundle.blinks = blinks;
        self.bundle.rclique = rclique;
        self.prev_parts = snapshot_parts(&self.flats);
        Ok((reused, patched, rebuilt))
    }
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
    eval: big_index::EvalOptions,
    threads: usize,
}

impl RebuildJob {
    /// Runs the from-scratch construction (hierarchy, then per-layer
    /// search indexes in parallel on the captured thread budget). Pure
    /// compute — no engine, no disk.
    pub fn run(self) -> IndexBundle {
        let index =
            BiGIndex::build_with_configs(self.base, self.ontology, self.configs, self.direction);
        let (banks, blinks, rclique) = build_layer_indexes(
            &index,
            self.blinks_params,
            self.rclique_params,
            self.threads,
        );
        IndexBundle {
            index,
            banks,
            blinks,
            rclique,
            blinks_params: self.blinks_params,
            rclique_params: self.rclique_params,
            eval: self.eval,
        }
    }
}

/// One rebuilt per-layer search index (tagged for the `par_map` fan-out
/// in [`Engine::materialize`]).
enum BuiltIndex {
    Banks(BanksIndex),
    Blinks(BlinksIndex),
    RClique(RCliqueIndex),
}

/// Everything [`Engine`] derives from a hierarchy: the fixed step
/// structure plus the flat per-layer partitions seeded from `χ`.
struct Seed {
    ontology: Ontology,
    direction: bgi_bisim::BisimDirection,
    alphabet: usize,
    configs: Vec<GenConfig>,
    step_maps: Vec<Vec<LabelId>>,
    composed: Vec<Vec<LabelId>>,
    base: DiGraph,
    flats: Vec<IncrementalBisim>,
    baseline: Vec<f64>,
}

impl Seed {
    fn from_index(index: &BiGIndex, alpha: f64) -> Result<Seed, IngestError> {
        let base = index.base().clone();
        let ontology = index.ontology().clone();
        let direction = index.direction();
        let alphabet = base.alphabet_size().max(ontology.num_labels());
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

        let n = base.num_vertices();
        let mut flats = Vec::with_capacity(index.num_layers());
        for m in 1..=index.num_layers() {
            let assignment: Vec<u32> = (0..n).map(|u| index.chi(VId(u as u32), m).0).collect();
            let partition = Partition::new(assignment, index.graph_at(m).num_vertices());
            let flat_graph = base.relabel(&composed[m - 1]);
            let Some(inc) = IncrementalBisim::from_partition(flat_graph, partition, direction)
            else {
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
            ontology,
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
/// sampling estimator needed.
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
            let support = LabelSupport::new(lower);
            construction_cost_with_compress(compress, &support, &index.layer(m).config, alpha)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, OntologyBuilder};
    use bgi_search::blinks::BlinksParams;
    use bgi_search::RClique;
    use big_index::EvalOptions;

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
        IndexBundle::build(
            index,
            BlinksParams::default(),
            RClique::default(),
            EvalOptions::default(),
        )
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
        // Materializing with zero updates must reproduce the original
        // hierarchy byte for byte (same supernode numbering included).
        e.materialize(&[]).unwrap();
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
        let bundle = IndexBundle::build(
            index,
            BlinksParams::default(),
            RClique::default(),
            EvalOptions::default(),
        );
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
        // singleton block: the summaries patch in place and all three
        // search indexes take the per-vertex-local entry points — no
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
