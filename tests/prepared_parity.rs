//! Prepared/legacy parity: for every estimator in the registry,
//! binding a preparation once and evaluating many models through it
//! must return **bit-identical** values to the one-shot
//! `estimate(dag, model)` shim evaluated fresh per model. This pins
//! down the refactoring hazards of the two-phase API: stale scratch
//! buffers leaking across models, reseeding not fully resetting a
//! statistical estimator, and shared precomputations (levels, all-pairs
//! tables, dominant paths, frozen views) drifting from their
//! recomputed-per-call counterparts.

use proptest::prelude::*;
use stochdag::prelude::*;

/// Random small DAG via forward edges (acyclic by construction). Small
/// enough for the exhaustive oracle and the Dodin duplication engine.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..=10).prop_flat_map(|n| {
        let weights = proptest::collection::vec(0.01f64..5.0, n);
        let bits = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (weights, bits).prop_map(move |(ws, bits)| {
            let mut g = Dag::new();
            let ids: Vec<NodeId> = ws.iter().map(|&w| g.add_node(w)).collect();
            let mut b = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if bits[b] {
                        g.add_edge(ids[i], ids[j]);
                    }
                    b += 1;
                }
            }
            g
        })
    })
}

/// Concrete spec per registered base name: bounded work for the
/// statistical/path estimators so 64 proptest cases stay fast.
fn spec_of(base: &str) -> stochdag::core::EstimatorSpec {
    let s = match base {
        "mc" => "mc:400".into(),
        "spelde" => "spelde:4".into(),
        "dodin" | "dodin-dup" => format!("{base}:32"),
        other => other.to_string(),
    };
    s.parse().expect("registered estimators parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prepared_equals_one_shot_for_every_registered_estimator(
        g in arb_dag(),
        lambda in 0.001f64..0.15,
        seed in 0u64..(1 << 20),
    ) {
        let registry = EstimatorRegistry::standard();
        // Several models per preparation, evaluated through ONE prepared
        // handle in sequence — including λ = 0 in the middle so buffer
        // reuse across degenerate cases is exercised too.
        let models = [
            FailureModel::new(lambda),
            FailureModel::failure_free(),
            FailureModel::new(lambda * 0.37),
        ];
        let prepared = PreparedDag::new(g.clone());
        for base in registry.names().collect::<Vec<_>>() {
            let spec = spec_of(base);
            let est = registry.build(&spec, seed).unwrap();
            let mut prep = est.prepare(&prepared);
            for (k, model) in models.iter().enumerate() {
                // Per-cell seeds, as the sweep engine derives them.
                let cell_seed = seed ^ ((k as u64) << 21);
                prep.reseed(cell_seed);
                let shared = prep.expected_makespan_for(model);
                let one_shot = registry
                    .build(&spec, cell_seed)
                    .unwrap()
                    .expected_makespan(&g, model);
                prop_assert_eq!(
                    shared.to_bits(),
                    one_shot.to_bits(),
                    "estimator {} model #{}: prepared {} vs one-shot {}",
                    spec, k, shared, one_shot
                );
            }
        }
    }

    #[test]
    fn repeated_evaluation_is_pure(g in arb_dag(), seed in 0u64..(1 << 20)) {
        // Evaluating the same model twice through one preparation, with
        // another model in between, returns the same bits: scratch
        // reuse must not leak state across calls.
        let registry = EstimatorRegistry::standard();
        let prepared = PreparedDag::new(g);
        let probe = FailureModel::new(0.07);
        let other = FailureModel::new(0.21);
        for base in registry.names().collect::<Vec<_>>() {
            let spec = spec_of(base);
            let mut p = registry.build(&spec, seed).unwrap().prepare(&prepared);
            let first = p.expected_makespan_for(&probe);
            let _ = p.expected_makespan_for(&other);
            let again = p.expected_makespan_for(&probe);
            prop_assert_eq!(
                first.to_bits(),
                again.to_bits(),
                "{}: {} then {} after an interleaved model",
                spec, first, again
            );
        }
    }
}
