//! "Same stored generation" as a test, not a claim: the encoded
//! hierarchy Algo. 1 builds for one fixed dataset is pinned by
//! checksum. A change to the estimator, the refinement kernel or the
//! sampler that is meant to be output-preserving must leave this file
//! untouched; one that is meant to change the hierarchy re-pins it and
//! says so.

use bgi_datasets::DatasetSpec;
use bgi_store::bundle::encode_index;
use bgi_store::codec::fnv1a64;
use big_index::{BiGIndex, BuildParams};

/// `encode_index` of `BiGIndex::build(yago_like(500), max_layers = 4)`,
/// measured on the commit before Algo. 1's estimates became
/// incremental (ca274a9).
const GOLDEN_LEN: usize = 53250;
const GOLDEN_FNV1A64: u64 = 0xc00f_1bb1_81a0_2808;

#[test]
fn algo1_hierarchy_bytes_are_pinned() {
    let ds = DatasetSpec::yago_like(500).generate();
    for threads in [1usize, 4] {
        let index = BiGIndex::build(
            ds.graph.clone(),
            ds.ontology.clone(),
            &BuildParams {
                max_layers: 4,
                threads,
                ..BuildParams::default()
            },
        );
        let bytes = encode_index(&index);
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (GOLDEN_LEN, GOLDEN_FNV1A64),
            "{threads} thread(s): {} layers, got ({}, {:#018x})",
            index.num_layers(),
            bytes.len(),
            fnv1a64(&bytes),
        );
    }
}
