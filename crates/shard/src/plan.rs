//! Partition plans: who owns which vertex, which halo each shard
//! carries, and which edges cross shards.

use bgi_graph::traversal::{with_slot, Direction};
use bgi_graph::{DiGraph, VId};
use bgi_search::blinks::bfs_partition;
use bgi_store::codec::fnv1a64;

/// How to cut a graph into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards (≥ 1, ≤ number of vertices).
    pub shards: usize,
    /// The largest `d_max` the sharded deployment promises to answer
    /// exactly; halos extend `2 · dmax_ceiling` undirected hops beyond
    /// the owned set. Queries above the ceiling are refused by the
    /// sharded executor.
    pub dmax_ceiling: u32,
    /// Target block size handed to the BLINKS BFS partitioner; `0`
    /// picks `n / (8 · shards)` so the longest-processing-time fold
    /// has ~8 blocks per shard to balance with.
    pub partition_block: usize,
}

impl ShardSpec {
    /// A spec for `shards` shards with the default ceiling (4) and
    /// auto-sized partition blocks.
    pub fn new(shards: usize) -> Self {
        ShardSpec {
            shards,
            dmax_ceiling: 4,
            partition_block: 0,
        }
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::new(1)
    }
}

/// Why a plan could not be built or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The shard count is zero or exceeds the vertex count.
    InvalidShardCount {
        /// Requested shards.
        shards: usize,
        /// Vertices available.
        vertices: usize,
    },
    /// A serialized plan failed validation.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidShardCount { shards, vertices } => {
                write!(f, "cannot cut {vertices} vertices into {shards} shards")
            }
            PlanError::Corrupt { detail } => write!(f, "corrupt shard plan: {detail}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete, immutable sharding of one base graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    num_shards: usize,
    halo_radius: u32,
    dmax_ceiling: u32,
    /// `owner[v]` = shard owning base vertex `v`.
    owner: Vec<u32>,
    /// Per shard: owned ∪ halo vertices, sorted ascending. Sortedness
    /// makes `universe[i]` the global id of shard-local vertex `i`
    /// under `bgi_graph::induced_subgraph`.
    universes: Vec<Vec<VId>>,
    /// Per shard: ownership-crossing edges whose *source* the shard
    /// owns — each cross edge appears in exactly one list.
    cuts: Vec<Vec<(VId, VId)>>,
}

impl ShardPlan {
    /// Partitions `g` per `spec`: BFS-grown blocks, LPT-folded onto
    /// shards, halos of radius `2 · dmax_ceiling`, source-owned cut
    /// lists. Deterministic: same graph + spec ⇒ identical plan.
    pub fn build(g: &DiGraph, spec: &ShardSpec) -> Result<ShardPlan, PlanError> {
        let n = g.num_vertices();
        if spec.shards == 0 || spec.shards > n {
            return Err(PlanError::InvalidShardCount {
                shards: spec.shards,
                vertices: n,
            });
        }
        let shards = spec.shards;
        let target = if spec.partition_block > 0 {
            spec.partition_block
        } else {
            (n / (shards * 8)).max(1)
        };
        let mut partition = bfs_partition(g, target);
        if partition.num_blocks() < shards {
            // Tiny graph or huge blocks: fall back to singleton blocks
            // so every shard can own at least one vertex.
            partition = bfs_partition(g, 1);
        }
        // Longest-processing-time fold: biggest block first onto the
        // least-loaded shard; stable tie-breaks (block id, shard id)
        // keep the fold deterministic.
        let members = partition.members();
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(members[b].len()), b));
        let mut load = vec![0usize; shards];
        let mut owner = vec![0u32; n];
        for &b in &order {
            let mut best = 0usize;
            for s in 1..shards {
                if load[s] < load[best] {
                    best = s;
                }
            }
            load[best] += members[b].len();
            for &v in &members[b] {
                owner[v.index()] = best as u32;
            }
        }
        let halo_radius = spec.dmax_ceiling.saturating_mul(2);
        let universes = halo_universes(g, &owner, shards, halo_radius);
        let mut cuts = vec![Vec::new(); shards];
        for (u, v) in g.edges() {
            let ou = owner[u.index()];
            if ou != owner[v.index()] {
                cuts[ou as usize].push((u, v));
            }
        }
        Ok(ShardPlan {
            num_shards: shards,
            halo_radius,
            dmax_ceiling: spec.dmax_ceiling,
            owner,
            universes,
            cuts,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Undirected halo radius (`2 · dmax_ceiling`).
    pub fn halo_radius(&self) -> u32 {
        self.halo_radius
    }

    /// The largest `d_max` this plan answers exactly.
    pub fn dmax_ceiling(&self) -> u32 {
        self.dmax_ceiling
    }

    /// Base-graph vertex count the plan was built for.
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The owning shard of base vertex `v`, if `v` is in range.
    pub fn owner_of(&self, v: VId) -> Option<u32> {
        self.owner.get(v.index()).copied()
    }

    /// The full ownership table (`owner[v]` = shard of vertex `v`).
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Shard `s`'s universe: owned ∪ halo, sorted ascending.
    pub fn universe(&self, s: usize) -> &[VId] {
        &self.universes[s]
    }

    /// Shard `s`'s cut list: crossing edges whose source `s` owns.
    pub fn cuts(&self, s: usize) -> &[(VId, VId)] {
        &self.cuts[s]
    }

    /// All cut lists, indexed by shard.
    pub fn cut_lists(&self) -> &[Vec<(VId, VId)>] {
        &self.cuts
    }

    /// Translates base-global `v` to shard `s`'s local id, if `v` is
    /// in `s`'s universe.
    pub fn local_of(&self, s: usize, v: VId) -> Option<VId> {
        let univ = self.universes.get(s)?;
        univ.binary_search(&v).ok().map(|i| VId(i as u32))
    }

    /// Translates shard `s`'s local id back to the base-global id.
    pub fn global_of(&self, s: usize, local: VId) -> Option<VId> {
        self.universes.get(s)?.get(local.index()).copied()
    }

    /// Vertices shard `s` owns (not its halo copies).
    pub fn owned_count(&self, s: usize) -> usize {
        self.owner.iter().filter(|&&o| o as usize == s).count()
    }

    /// Serializes the plan (versioned, checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, self.num_shards as u32);
        put_u32(&mut out, self.halo_radius);
        put_u32(&mut out, self.dmax_ceiling);
        put_u64(&mut out, self.owner.len() as u64);
        for &o in &self.owner {
            put_u32(&mut out, o);
        }
        for s in 0..self.num_shards {
            put_u64(&mut out, self.universes[s].len() as u64);
            for &v in &self.universes[s] {
                put_u32(&mut out, v.0);
            }
            put_u64(&mut out, self.cuts[s].len() as u64);
            for &(u, v) in &self.cuts[s] {
                put_u32(&mut out, u.0);
                put_u32(&mut out, v.0);
            }
        }
        let sum = fnv1a64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes and validates a serialized plan: checksum, ranges,
    /// sorted universes, owned ⊆ universe, and cut-list ownership all
    /// verified before a plan is returned.
    pub fn decode(bytes: &[u8]) -> Result<ShardPlan, PlanError> {
        let corrupt = |detail: &str| PlanError::Corrupt {
            detail: detail.to_string(),
        };
        if bytes.len() < MAGIC.len() + 8 {
            return Err(corrupt("file too short"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut want = [0u8; 8];
        want.copy_from_slice(trailer);
        if u64::from_le_bytes(want) != fnv1a64(body) {
            return Err(corrupt("checksum mismatch"));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic (not a shard plan, or wrong version)"));
        }
        let mut r = Reader {
            bytes: body,
            at: MAGIC.len(),
        };
        let num_shards = r.u32()? as usize;
        let halo_radius = r.u32()?;
        let dmax_ceiling = r.u32()?;
        let n = r.u64()? as usize;
        if num_shards == 0 || num_shards > n {
            return Err(corrupt("shard count out of range"));
        }
        let mut owner = Vec::with_capacity(n);
        for _ in 0..n {
            let o = r.u32()?;
            if o as usize >= num_shards {
                return Err(corrupt("owner out of range"));
            }
            owner.push(o);
        }
        let mut universes = Vec::with_capacity(num_shards);
        let mut cuts = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let len = r.u64()? as usize;
            if len > n {
                return Err(corrupt("universe longer than graph"));
            }
            let mut univ = Vec::with_capacity(len);
            for _ in 0..len {
                let v = r.u32()?;
                if v as usize >= n {
                    return Err(corrupt("universe vertex out of range"));
                }
                univ.push(VId(v));
            }
            if !univ.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("universe not sorted"));
            }
            let clen = r.u64()? as usize;
            let mut cut = Vec::with_capacity(clen);
            for _ in 0..clen {
                let u = r.u32()?;
                let v = r.u32()?;
                if u as usize >= n || v as usize >= n {
                    return Err(corrupt("cut endpoint out of range"));
                }
                if owner[u as usize] as usize != s || owner[v as usize] as usize == s {
                    return Err(corrupt("cut edge in the wrong shard's list"));
                }
                cut.push((VId(u), VId(v)));
            }
            universes.push(univ);
            cuts.push(cut);
        }
        if r.at != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        // Owned vertices must appear in their shard's universe.
        for (v, &o) in owner.iter().enumerate() {
            if universes[o as usize].binary_search(&VId(v as u32)).is_err() {
                return Err(corrupt("owned vertex missing from its universe"));
            }
        }
        Ok(ShardPlan {
            num_shards,
            halo_radius,
            dmax_ceiling,
            owner,
            universes,
            cuts,
        })
    }
}

/// Per-shard universes: multi-source undirected BFS of depth `radius`
/// from each shard's owned set.
fn halo_universes(g: &DiGraph, owner: &[u32], shards: usize, radius: u32) -> Vec<Vec<VId>> {
    with_slot(|slot| {
        (0..shards as u32)
            .map(|s| {
                let owned: Vec<VId> = (owner.iter().enumerate())
                    .filter(|&(_, &o)| o == s)
                    .map(|(v, _)| VId(v as u32))
                    .collect();
                slot.seed(g, &owned);
                slot.fill(g, Direction::Undirected, radius);
                slot.sort_discovered();
                slot.discovered().to_vec()
            })
            .collect()
    })
}

const MAGIC: &[u8] = b"BGIPLN01";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], PlanError> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(PlanError::Corrupt {
                detail: "truncated".to_string(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, PlanError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PlanError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_datasets::DatasetSpec;
    use bgi_graph::{GraphBuilder, LabelId};

    fn yago(n: usize) -> DiGraph {
        DatasetSpec::yago_like(n).generate().graph
    }

    fn spec(shards: usize) -> ShardSpec {
        ShardSpec {
            shards,
            dmax_ceiling: 2,
            partition_block: 0,
        }
    }

    #[test]
    fn every_vertex_owned_every_shard_nonempty() {
        let g = yago(1500);
        let plan = ShardPlan::build(&g, &spec(4)).unwrap();
        assert_eq!(plan.num_vertices(), g.num_vertices());
        for s in 0..4 {
            assert!(plan.owned_count(s) > 0, "shard {s} owns nothing");
        }
        let total: usize = (0..4).map(|s| plan.owned_count(s)).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn lpt_fold_balances_ownership() {
        let g = yago(2000);
        let plan = ShardPlan::build(&g, &spec(4)).unwrap();
        let loads: Vec<usize> = (0..4).map(|s| plan.owned_count(s)).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // LPT with ~8 blocks per shard keeps the spread modest.
        assert!(max <= min * 2 + g.num_vertices() / 4, "loads {loads:?}");
    }

    #[test]
    fn build_is_deterministic() {
        let g = yago(1200);
        let a = ShardPlan::build(&g, &spec(3)).unwrap();
        let b = ShardPlan::build(&g, &spec(3)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn universes_contain_halo_closure() {
        let g = yago(800);
        let plan = ShardPlan::build(&g, &spec(3)).unwrap();
        let radius = plan.halo_radius();
        // Every vertex within `radius` undirected hops of an owned
        // vertex must be in the universe; spot-check from every owned
        // vertex's direct neighborhood expanded exactly.
        for s in 0..3 {
            let univ = plan.universe(s);
            assert!(univ.windows(2).all(|w| w[0] < w[1]), "universe sorted");
            // Frontier check: the universe is closed under ≤radius
            // expansion from owned vertices. Verify on a sample.
            for v in g.vertices().take(200) {
                if plan.owner_of(v) != Some(s as u32) {
                    continue;
                }
                let mut frontier = vec![v];
                for _ in 0..radius {
                    let mut next = Vec::new();
                    for &u in &frontier {
                        for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                            next.push(w);
                        }
                    }
                    for &w in &next {
                        assert!(
                            univ.binary_search(&w).is_ok(),
                            "vertex {w:?} within {radius} of owned {v:?} missing from shard {s}"
                        );
                    }
                    frontier = next;
                    if frontier.len() > 512 {
                        frontier.truncate(512);
                    }
                }
            }
        }
    }

    #[test]
    fn cut_lists_partition_crossing_edges() {
        let g = yago(1000);
        let plan = ShardPlan::build(&g, &spec(4)).unwrap();
        let mut listed = 0usize;
        for s in 0..4 {
            for &(u, v) in plan.cuts(s) {
                assert_eq!(plan.owner_of(u), Some(s as u32));
                assert_ne!(plan.owner_of(v), Some(s as u32));
                listed += 1;
            }
        }
        let crossing = g
            .edges()
            .filter(|&(u, v)| plan.owner_of(u) != plan.owner_of(v))
            .count();
        assert_eq!(listed, crossing);
    }

    #[test]
    fn local_global_roundtrip() {
        let g = yago(600);
        let plan = ShardPlan::build(&g, &spec(2)).unwrap();
        for s in 0..2 {
            for (i, &v) in plan.universe(s).iter().enumerate() {
                assert_eq!(plan.local_of(s, v), Some(VId(i as u32)));
                assert_eq!(plan.global_of(s, VId(i as u32)), Some(v));
            }
        }
        // A vertex outside the universe maps to nothing.
        let s0 = plan.universe(0);
        let outside = g.vertices().find(|v| s0.binary_search(v).is_err());
        if let Some(outside) = outside {
            assert_eq!(plan.local_of(0, outside), None);
        }
    }

    #[test]
    fn encode_decode_roundtrip_and_corruption() {
        let g = yago(700);
        let plan = ShardPlan::build(&g, &spec(3)).unwrap();
        let bytes = plan.encode();
        let back = ShardPlan::decode(&bytes).unwrap();
        assert_eq!(back, plan);
        // Any flipped byte is caught by the checksum.
        for at in [0usize, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            assert!(ShardPlan::decode(&bad).is_err(), "flip at {at} accepted");
        }
        assert!(ShardPlan::decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(ShardPlan::decode(b"nope").is_err());
    }

    /// The serialized plan of one generated graph, pinned as (length,
    /// checksum): halos, cut lists and their order are part of the
    /// on-disk format, so a planner change must leave these bytes alone.
    /// Measured on the planner's own `VecDeque` BFS, before the halos
    /// moved onto the traversal kernel.
    #[test]
    fn encoded_plan_bytes_are_pinned() {
        let bytes = ShardPlan::build(&yago(1500), &spec(4)).unwrap().encode();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (43_572, 0x1945_a01f_54d6_9da6)
        );
    }

    #[test]
    fn rejects_bad_shard_counts() {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(LabelId(0));
        }
        let g = b.build();
        assert!(matches!(
            ShardPlan::build(&g, &spec(0)),
            Err(PlanError::InvalidShardCount { .. })
        ));
        assert!(matches!(
            ShardPlan::build(&g, &spec(4)),
            Err(PlanError::InvalidShardCount { .. })
        ));
        // shards == n works via the singleton fallback.
        let plan = ShardPlan::build(&g, &spec(3)).unwrap();
        assert_eq!(plan.num_shards(), 3);
        for s in 0..3 {
            assert_eq!(plan.owned_count(s), 1);
        }
    }

    #[test]
    fn single_shard_universe_is_everything() {
        let g = yago(400);
        let plan = ShardPlan::build(&g, &spec(1)).unwrap();
        assert_eq!(plan.universe(0).len(), g.num_vertices());
        assert!(plan.cuts(0).is_empty());
    }
}
