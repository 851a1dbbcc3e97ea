//! Test-only reference for Algo. 1: the from-scratch estimate and the
//! greedy loop as they were before the estimates became incremental
//! (every trial relabels and re-bisimulates every sample it reads), and
//! the differential tests that hold the production path to it — equal
//! configurations per layer, `to_bits()`-equal costs for every ranked
//! and every tried mapping.

// Declared under `#[cfg(test)]` in lib.rs; the attribute is repeated here
// because `cargo xtask lint` recognises test code by it.
#[cfg(test)]
mod tests {
    use crate::compress::CompressEstimator;
    use crate::config::GenConfig;
    use crate::cost::CostParams;
    use crate::distort::graph_distortion;
    use crate::heuristic::{greedy_observed, Algo1Work, Costed, ALGO1_SAMPLES};
    use crate::index::{BiGIndex, BuildParams};
    use bgi_bisim::{maximal_bisimulation, summarize, BisimDirection};
    use bgi_datasets::DatasetSpec;
    use bgi_graph::sampling::SamplingParams;
    use bgi_graph::stats::LabelSupport;
    use bgi_graph::{DiGraph, GraphBuilder, LabelId, Ontology, OntologyBuilder};

    /// The pooled ratio over the first `max_samples` samples, each
    /// relabelled, bisimulated and summarized from scratch.
    fn estimate_on(estimator: &CompressEstimator, config: &GenConfig, max_samples: usize) -> f64 {
        let (samples, alphabet_size, dir) = estimator.parts();
        if samples.is_empty() || max_samples == 0 {
            return 1.0;
        }
        let map = config.label_map(alphabet_size);
        let mut summarized = 0usize;
        let mut original = 0usize;
        for s in samples.iter().take(max_samples) {
            if s.graph.size() == 0 {
                continue;
            }
            let generalized = s.graph.relabel(&map);
            let part = maximal_bisimulation(&generalized, dir);
            let summary = summarize(&generalized, &part);
            summarized += summary.graph.size();
            original += s.graph.size();
        }
        if original == 0 {
            1.0
        } else {
            summarized as f64 / original as f64
        }
    }

    fn construction_cost_capped(
        estimator: &CompressEstimator,
        support: &LabelSupport,
        config: &GenConfig,
        alpha: f64,
        max_samples: usize,
    ) -> f64 {
        alpha * estimate_on(estimator, config, max_samples)
            + (1.0 - alpha) * graph_distortion(config, support)
    }

    /// The greedy loop over the from-scratch estimate, recording every
    /// cost in the order [`greedy_observed`] reports them.
    fn reference_greedy(
        g: &DiGraph,
        ontology: &Ontology,
        estimator: &CompressEstimator,
        support: &LabelSupport,
        params: &CostParams,
    ) -> (GenConfig, Vec<Costed>) {
        let mut costed = Vec::new();
        let mut candidates: Vec<(f64, LabelId, LabelId)> = Vec::new();
        for (i, &count) in g.label_counts().iter().enumerate() {
            let l = LabelId(i as u32);
            if count == 0 || l.index() >= ontology.num_labels() {
                continue;
            }
            for &sup in ontology.direct_supertypes(l) {
                let single = GenConfig::new([(l, sup)], ontology).unwrap();
                let cost = construction_cost_capped(
                    estimator,
                    support,
                    &single,
                    params.alpha,
                    ALGO1_SAMPLES,
                );
                candidates.push((cost, l, sup));
            }
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        costed.extend(
            candidates
                .iter()
                .map(|&(cost, l, sup)| Costed::Ranked(l, sup, cost)),
        );

        let mut config = GenConfig::empty();
        for (_, l, sup) in candidates {
            if config.len() >= params.pi {
                break;
            }
            if config.apply(l) != l {
                continue;
            }
            let mut trial = config.clone();
            trial.insert(l, sup);
            let cost =
                construction_cost_capped(estimator, support, &trial, params.alpha, ALGO1_SAMPLES);
            costed.push(Costed::Tried(l, sup, cost));
            if cost <= params.theta {
                config = trial;
            } else {
                return (config, costed);
            }
        }
        (config, costed)
    }

    /// `Costed` with the cost as its bit pattern, so `assert_eq!` means
    /// bit-equal and prints what differs.
    fn bits(costed: &[Costed]) -> Vec<(bool, LabelId, LabelId, u64)> {
        costed
            .iter()
            .map(|&c| match c {
                Costed::Ranked(l, sup, cost) => (false, l, sup, cost.to_bits()),
                Costed::Tried(l, sup, cost) => (true, l, sup, cost.to_bits()),
            })
            .collect()
    }

    /// Runs both loops layer by layer on `g`, each layer on the graph the
    /// previous layer's (agreed) configuration produced. The reference
    /// reads the first [`ALGO1_SAMPLES`] of the 400 samples a build used to
    /// draw; production draws only those. Returns how many trials reached
    /// the acceptance loop, so callers can tell the matrix was not vacuous.
    fn assert_layers_agree(
        g: &DiGraph,
        ontology: &Ontology,
        cost: &CostParams,
        what: &str,
    ) -> usize {
        let dir = BisimDirection::Forward;
        let mut current = g.clone();
        let mut tried = 0;
        for layer in 1..=3 {
            let drawn_in_full = CompressEstimator::new(&current, &SamplingParams::default(), dir);
            let drawn_for_algo1 = CompressEstimator::new(
                &current,
                &SamplingParams {
                    num_samples: ALGO1_SAMPLES,
                    ..SamplingParams::default()
                },
                dir,
            );
            let support = LabelSupport::new(&current);
            let (expect, expect_costs) =
                reference_greedy(&current, ontology, &drawn_in_full, &support, cost);
            let mut costs = Vec::new();
            let (config, _) = greedy_observed(
                &current,
                ontology,
                &drawn_for_algo1,
                &support,
                cost,
                1,
                |c| costs.push(c),
            );
            assert_eq!(
                bits(&costs),
                bits(&expect_costs),
                "{what}, layer {layer}: costs"
            );
            assert_eq!(config, expect, "{what}, layer {layer}: configuration");
            tried += costs
                .iter()
                .filter(|c| matches!(c, Costed::Tried(..)))
                .count();
            if config.is_empty() {
                break;
            }
            current = BiGIndex::build_with_configs(current, ontology.clone(), vec![config], dir)
                .graph_at(1)
                .clone();
        }
        tried
    }

    // The reference re-bisimulates 64 samples per trial; unoptimized that
    // is minutes for this matrix, so debug runs skip it and CI runs it with
    // `--release`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes unoptimized; CI runs it with --release"
    )]
    fn incremental_algo1_matches_the_from_scratch_reference() {
        for spec in [
            DatasetSpec::yago_like(500),
            DatasetSpec::imdb_like(500),
            DatasetSpec::dbpedia_like(500),
        ] {
            let ds = spec.generate();
            for theta in [0.6, 1.0] {
                for pi in [3, usize::MAX] {
                    let cost = CostParams {
                        theta,
                        pi,
                        ..CostParams::default()
                    };
                    let what = format!("{}, θ = {theta}, Π = {pi}", ds.name);
                    let tried = assert_layers_agree(&ds.graph, &ds.ontology, &cost, &what);
                    assert!(tried >= 3, "{what}: only {tried} trials were compared");
                }
            }
        }
    }

    /// Ontology `a <: b <: c` with `a` and `b` in the graph and `c` not.
    /// Once `a → b` is accepted, the trial `b → c` must keep the `a`-origin
    /// vertices at `b` while the native `b` ones move to `c` (`Gen` is
    /// simultaneous, not chained) — it *splits* what `a → b` merged. An
    /// estimate that read the trial as a renaming of the merged class, or
    /// ran it on a base that had already merged the two, would report the
    /// merged size.
    #[test]
    fn chained_supertypes_are_generalized_simultaneously() {
        let (a, b, c, hub, other) = (LabelId(0), LabelId(1), LabelId(2), LabelId(3), LabelId(4));
        let mut ob = OntologyBuilder::new(5);
        ob.add_subtype(c, b);
        ob.add_subtype(b, a);
        let ontology = ob.build().unwrap();
        let mut gb = GraphBuilder::new();
        let hubs = [gb.add_vertex(hub), gb.add_vertex(hub), gb.add_vertex(hub)];
        let sink = gb.add_vertex(other);
        gb.add_edge(hubs[1], sink);
        for i in 0..60 {
            // `a`s and `b`s with the same successors: they merge under
            // `a → b` and part again under `b → c`.
            let v = gb.add_vertex([a, b][i % 2]);
            gb.add_edge(v, hubs[(i / 2) % 3]);
        }
        let g = gb.build();
        for theta in [0.6, 1.0] {
            let cost = CostParams {
                theta,
                ..CostParams::default()
            };
            let tried = assert_layers_agree(&g, &ontology, &cost, &format!("chain, θ = {theta}"));
            assert!(tried >= 2, "θ = {theta}: the chain was never tried");
        }
        // The trap itself, not just agreement: with `a → b` accepted the
        // loop did go on to try `b → c`.
        let est = CompressEstimator::new(&g, &SamplingParams::default(), BisimDirection::Forward);
        let mut order = Vec::new();
        greedy_observed(
            &g,
            &ontology,
            &est,
            &LabelSupport::new(&g),
            &CostParams::default(),
            1,
            |costed| {
                if let Costed::Tried(l, sup, _) = costed {
                    order.push((l, sup));
                }
            },
        );
        assert_eq!(order, [(a, b), (b, c)]);
    }

    fn counted(ds: &bgi_datasets::Dataset, threads: usize) -> (BiGIndex, Vec<Algo1Work>) {
        BiGIndex::build_counted(
            ds.graph.clone(),
            ds.ontology.clone(),
            &BuildParams {
                max_layers: 4,
                threads,
                ..BuildParams::default()
            },
        )
    }

    /// Why the CLI and the serving paths build full-step hierarchies
    /// and skip Algo. 1: Formula 3 never exceeds 1, so at the paper's
    /// default `θ = 1`, `Π = ∞` every trial is accepted, and on an
    /// ontology where each label has one direct supertype (all the
    /// generators here) the result *is* the full-step configuration.
    /// The two part as soon as `θ` or `Π` binds.
    #[test]
    fn default_thresholds_reproduce_the_full_step_hierarchy() {
        let ds = DatasetSpec::yago_like(500).generate();
        let (greedy, _) = counted(&ds, 1);
        let configs = crate::config::greedy_full_step_configs(
            &ds.graph,
            &ds.ontology,
            4,
            BisimDirection::Forward,
        );
        let full_step = BiGIndex::build_with_configs(
            ds.graph.clone(),
            ds.ontology.clone(),
            configs,
            BisimDirection::Forward,
        );
        assert!(greedy == full_step);

        let est = CompressEstimator::new(
            &ds.graph,
            &SamplingParams::default(),
            BisimDirection::Forward,
        );
        let bounded = CostParams {
            pi: 3,
            ..CostParams::default()
        };
        let (config, _) = greedy_observed(
            &ds.graph,
            &ds.ontology,
            &est,
            &LabelSupport::new(&ds.graph),
            &bounded,
            1,
            |_| {},
        );
        assert_eq!(config.len(), 3);
        assert!(config.len() < full_step.layer(1).config.len());
    }

    /// The gate on Algo. 1's cost that no clock enters: the counts repeat
    /// exactly, and skipping pays — fewer than 40 % of the
    /// `2 · candidates · 64` sample bisimulations the from-scratch loop ran.
    #[test]
    fn algo1_work_is_exact_and_mostly_skipped() {
        let ds = DatasetSpec::yago_like(500).generate();
        let (index, work) = counted(&ds, 1);
        assert!(index.num_layers() >= 2 && work.len() >= index.num_layers());
        for threads in [1usize, 2, 4, 8] {
            let (again, work_again) = counted(&ds, threads);
            assert_eq!(work_again, work, "{threads} thread(s)");
            assert!(again == index, "{threads} thread(s)");
        }
        let total = Algo1Work::total(&work);
        let (evals, skipped) = (total.sample_evals, total.sample_evals_skipped);
        let from_scratch = 2 * total.candidates * ALGO1_SAMPLES;
        assert!(
            evals * 100 <= from_scratch * 40,
            "{evals} sample bisimulations against {from_scratch} from scratch ({work:?})"
        );
        assert!(skipped > evals, "{work:?}");
    }
}
