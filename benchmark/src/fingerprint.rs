//! Workload fingerprints: one FNV-1a-64 hash over everything a
//! workload feeds the program — data graph, request pool, update
//! stream. The generators live in product crates (`bgi-datasets`), so a
//! product-side change could silently alter what the benchmark
//! measures; the default-seed fingerprints are pinned in
//! `fingerprints.json` and a mismatch fails the run.

use bgi_graph::DiGraph;
use bgi_ingest::IngestUpdate;
use bgi_service::QueryRequest;

/// Incremental FNV-1a-64.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a graph: vertex labels in id order, then edges in the
    /// graph's own (sorted) iteration order.
    pub fn graph(&mut self, g: &DiGraph) {
        self.u64(g.num_vertices() as u64);
        for v in g.vertices() {
            self.u64(u64::from(g.label(v).0));
        }
        self.u64(g.num_edges() as u64);
        for (u, v) in g.edges() {
            self.u64(u64::from(u.0) << 32 | u64::from(v.0));
        }
    }

    /// Folds in a request pool, in order.
    pub fn requests(&mut self, pool: &[QueryRequest]) {
        self.u64(pool.len() as u64);
        for r in pool {
            self.u64(r.semantics.index() as u64);
            self.u64(r.keywords.len() as u64);
            for k in &r.keywords {
                self.u64(u64::from(k.0));
            }
            self.u64(u64::from(r.dmax));
            self.u64(r.k as u64);
            self.u64(r.layer.map_or(u64::MAX, |m| m as u64));
        }
    }

    /// Folds in an update stream, in order.
    pub fn updates(&mut self, ops: &[IngestUpdate]) {
        self.u64(ops.len() as u64);
        for op in ops {
            let (tag, a, b) = match *op {
                IngestUpdate::InsertEdge { src, dst } => (1, src, dst),
                IngestUpdate::DeleteEdge { src, dst } => (2, src, dst),
                IngestUpdate::AddVertex { label } => (3, label, 0),
            };
            self.u64(tag);
            self.u64(u64::from(a) << 32 | u64::from(b));
        }
    }

    /// Folds in an index sequence (e.g. pre-drawn Zipf ranks).
    pub fn indices(&mut self, seq: &[u32]) {
        self.u64(seq.len() as u64);
        for &i in seq {
            self.u64(u64::from(i));
        }
    }

    /// The 16-hex-digit digest.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_datasets::DatasetSpec;

    #[test]
    fn fnv_reference_vectors() {
        let mut f = Fingerprint::default();
        f.bytes(b"");
        assert_eq!(f.hex(), "cbf29ce484222325");
        f.bytes(b"a");
        assert_eq!(f.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn order_and_content_sensitive() {
        let a = IngestUpdate::InsertEdge { src: 1, dst: 2 };
        let b = IngestUpdate::DeleteEdge { src: 1, dst: 2 };
        let digest = |ops: &[IngestUpdate]| {
            let mut f = Fingerprint::default();
            f.updates(ops);
            f.hex()
        };
        assert_ne!(digest(&[a, b]), digest(&[b, a]));
        assert_ne!(digest(&[a]), digest(&[b]));
        assert_eq!(digest(&[a, b]), digest(&[a, b]));
    }

    #[test]
    fn two_generations_of_one_dataset_agree() {
        let digest = || {
            let ds = DatasetSpec::yago_like(400).generate();
            let mut f = Fingerprint::default();
            f.graph(&ds.graph);
            f.hex()
        };
        assert_eq!(digest(), digest());
        let other = DatasetSpec::yago_like(400).with_seed(1).generate();
        let mut f = Fingerprint::default();
        f.graph(&other.graph);
        assert_ne!(f.hex(), digest());
    }
}
