//! Generalization configurations (Sec. 2).
//!
//! A configuration `C = {(ℓ → ℓ'), …}` maps each source label to one of
//! its *direct* supertypes in the ontology (or to itself when it has
//! none). Applying `C` to a graph replaces vertex labels simultaneously
//! — the `Gen` operation; `Spec` is its inverse on label sets.

use bgi_graph::{DiGraph, LabelId, Ontology};
use rustc_hash::FxHashMap;

/// A label-preserving generalization configuration (Def. 2.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenConfig {
    /// Mappings `ℓ → ℓ'`, at most one per source label, sorted by source.
    mappings: Vec<(LabelId, LabelId)>,
}

/// Error building a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The target is not a direct supertype of the source.
    NotASupertype {
        /// Source label.
        from: LabelId,
        /// Proposed target label.
        to: LabelId,
    },
    /// Two mappings share the same source label.
    DuplicateSource(LabelId),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotASupertype { from, to } => {
                write!(f, "{to:?} is not a direct supertype of {from:?}")
            }
            ConfigError::DuplicateSource(l) => {
                write!(f, "label {l:?} mapped more than once")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl GenConfig {
    /// Builds a configuration from mappings, validating each against the
    /// ontology (Def. 2.2: targets must be direct supertypes).
    pub fn new(
        mappings: impl IntoIterator<Item = (LabelId, LabelId)>,
        ontology: &Ontology,
    ) -> Result<Self, ConfigError> {
        let mut seen: FxHashMap<LabelId, LabelId> = FxHashMap::default();
        let mut sorted: Vec<(LabelId, LabelId)> = Vec::new();
        for (from, to) in mappings {
            if from == to {
                continue; // identity mappings are implicit
            }
            if !ontology.direct_supertypes(from).contains(&to) {
                return Err(ConfigError::NotASupertype { from, to });
            }
            if let Some(&prev) = seen.get(&from) {
                if prev != to {
                    return Err(ConfigError::DuplicateSource(from));
                }
                continue;
            }
            seen.insert(from, to);
            sorted.push((from, to));
        }
        sorted.sort_unstable();
        Ok(GenConfig { mappings: sorted })
    }

    /// The empty (identity) configuration.
    pub fn empty() -> Self {
        GenConfig::default()
    }

    /// Number of non-identity mappings `|C|`.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True if the configuration maps nothing.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// The mappings, sorted by source label.
    pub fn mappings(&self) -> &[(LabelId, LabelId)] {
        &self.mappings
    }

    /// The domain `X = {ℓ : (ℓ → ℓ') ∈ C}`.
    pub fn domain(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.mappings.iter().map(|&(from, _)| from)
    }

    /// Where `l` maps (identity if unmapped).
    pub fn apply(&self, l: LabelId) -> LabelId {
        match self.mappings.binary_search_by_key(&l, |&(from, _)| from) {
            Ok(i) => self.mappings[i].1,
            Err(_) => l,
        }
    }

    /// The number of labels generalized to the same target as `l`
    /// (`|X_ℓ|` in the distortion model; 0 if `l` is unmapped).
    pub fn cohort_size(&self, l: LabelId) -> usize {
        match self.mappings.binary_search_by_key(&l, |&(from, _)| from) {
            Ok(i) => {
                let target = self.mappings[i].1;
                self.mappings
                    .iter()
                    .filter(|&&(_, to)| to == target)
                    .count()
            }
            Err(_) => 0,
        }
    }

    /// A dense label map over an alphabet of `num_labels` labels:
    /// `map[ℓ] = C(ℓ)`.
    pub fn label_map(&self, num_labels: usize) -> Vec<LabelId> {
        let mut map: Vec<LabelId> = (0..num_labels as u32).map(LabelId).collect();
        for &(from, to) in &self.mappings {
            if from.index() < num_labels {
                map[from.index()] = to;
            }
        }
        map
    }

    /// Adds `from → to` unless `from` is already mapped; returns whether
    /// it was added. The pair is not checked against an ontology — the
    /// greedy construction (Algo. 1) draws its pairs from one.
    pub fn insert(&mut self, from: LabelId, to: LabelId) -> bool {
        match self.mappings.binary_search_by_key(&from, |&(f, _)| f) {
            Ok(_) => false,
            Err(at) => {
                self.mappings.insert(at, (from, to));
                true
            }
        }
    }

    /// Drops `from`'s mapping, if any — Algo. 1 undoing the trial that
    /// overshot `θ`.
    pub(crate) fn remove(&mut self, from: LabelId) {
        if let Ok(at) = self.mappings.binary_search_by_key(&from, |&(f, _)| f) {
            self.mappings.remove(at);
        }
    }
}

/// The paper's "default index" configuration for one step: every label
/// present in `g` that has a supertype is generalized once (Sec. 6.1.2:
/// large `θ` and `Π` so "the labels of the graphs were generalized once
/// when a layer was constructed").
pub fn full_step_config(g: &DiGraph, ontology: &Ontology) -> GenConfig {
    let counts = g.label_counts();
    let mappings: Vec<_> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .filter_map(|(i, _)| {
            let l = LabelId(i as u32);
            if l.index() >= ontology.num_labels() {
                return None;
            }
            ontology.direct_supertypes(l).first().map(|&sup| (l, sup))
        })
        .collect();
    // Every target is a direct supertype by construction and sources
    // are unique, so validation cannot fail; the identity fallback only
    // guards the type system.
    GenConfig::new(mappings, ontology).unwrap_or_default()
}

/// The greedy per-layer schedule behind the paper's default index: up
/// to `max_layers` full-step configurations, each probed by actually
/// summarizing one layer, stopping early when generalization runs out
/// of supertypes or the summary stops shrinking.
///
/// Shared by the benchmark workbench, the CLI index builders, and the
/// per-shard index construction in `bgi-shard`, so every consumer
/// derives byte-identical layer schedules from the same graph.
pub fn greedy_full_step_configs(
    g: &DiGraph,
    ontology: &Ontology,
    max_layers: usize,
    direction: bgi_bisim::BisimDirection,
) -> Vec<GenConfig> {
    let mut configs = Vec::new();
    let mut current = g.clone();
    for _ in 0..max_layers {
        let config = full_step_config(&current, ontology);
        if config.is_empty() {
            break;
        }
        // Apply one χ step to learn the next layer's labels.
        let probe = crate::index::BiGIndex::build_with_configs(
            current.clone(),
            ontology.clone(),
            vec![config.clone()],
            direction,
        );
        configs.push(config);
        let next = probe.graph_at(1).clone();
        if next.size() == current.size() {
            break;
        }
        current = next;
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::OntologyBuilder;

    fn ontology() -> Ontology {
        // 0 -> {1, 2}; 1 -> {3, 4}
        let mut b = OntologyBuilder::new(5);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.add_subtype(LabelId(1), LabelId(3));
        b.add_subtype(LabelId(1), LabelId(4));
        b.build().unwrap()
    }

    #[test]
    fn valid_config() {
        let o = ontology();
        let c = GenConfig::new([(LabelId(3), LabelId(1)), (LabelId(4), LabelId(1))], &o).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.apply(LabelId(3)), LabelId(1));
        assert_eq!(c.apply(LabelId(2)), LabelId(2)); // identity
    }

    #[test]
    fn rejects_non_supertype() {
        let o = ontology();
        let err = GenConfig::new([(LabelId(3), LabelId(2))], &o).unwrap_err();
        assert!(matches!(err, ConfigError::NotASupertype { .. }));
        // Transitive supertype is also rejected: must be *direct*.
        let err = GenConfig::new([(LabelId(3), LabelId(0))], &o).unwrap_err();
        assert!(matches!(err, ConfigError::NotASupertype { .. }));
    }

    #[test]
    fn rejects_conflicting_duplicate_source() {
        // 3 has two supertypes only if ontology says so; here map 3 to 1
        // twice (allowed, deduped) vs conflicting mapping (rejected).
        let mut b = OntologyBuilder::new(5);
        b.add_subtype(LabelId(1), LabelId(3));
        b.add_subtype(LabelId(2), LabelId(3));
        let o = b.build().unwrap();
        let ok = GenConfig::new([(LabelId(3), LabelId(1)), (LabelId(3), LabelId(1))], &o);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().len(), 1);
        let err = GenConfig::new([(LabelId(3), LabelId(1)), (LabelId(3), LabelId(2))], &o);
        assert!(matches!(err, Err(ConfigError::DuplicateSource(_))));
    }

    #[test]
    fn identity_mappings_dropped() {
        let o = ontology();
        let c = GenConfig::new([(LabelId(2), LabelId(2))], &o).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn cohort_size_counts_shared_targets() {
        let o = ontology();
        let c = GenConfig::new(
            [
                (LabelId(3), LabelId(1)),
                (LabelId(4), LabelId(1)),
                (LabelId(1), LabelId(0)),
            ],
            &o,
        )
        .unwrap();
        assert_eq!(c.cohort_size(LabelId(3)), 2);
        assert_eq!(c.cohort_size(LabelId(4)), 2);
        assert_eq!(c.cohort_size(LabelId(1)), 1);
        assert_eq!(c.cohort_size(LabelId(2)), 0); // unmapped
    }

    #[test]
    fn label_map_is_total() {
        let o = ontology();
        let c = GenConfig::new([(LabelId(3), LabelId(1))], &o).unwrap();
        let map = c.label_map(5);
        assert_eq!(map[3], LabelId(1));
        assert_eq!(map[0], LabelId(0));
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn insert_respects_existing_sources() {
        let o = ontology();
        let mut c = GenConfig::new([(LabelId(3), LabelId(1))], &o).unwrap();
        assert!(!c.insert(LabelId(3), LabelId(1)));
        assert!(c.insert(LabelId(4), LabelId(1)));
        assert_eq!(c.len(), 2);
    }
}
