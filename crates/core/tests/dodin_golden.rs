//! Dodin bit-level goldens: the exact `f64::to_bits` of `dodin:128`
//! (forward propagation) on the Table-1 factorization DAGs and of
//! `dodin-dup:32` (the duplication engine) on small non-SP DAGs.
//!
//! The distribution kernels underneath both strategies (independent
//! max, convolution, support coarsening) promise output bit-identical
//! to the kernels they replaced; these constants were recorded with
//! those earlier kernels, so any change to the order of a
//! floating-point operation anywhere in the Dodin stack shows up here
//! as a changed bit pattern. Each case also hashes the whole makespan
//! distribution, not just its mean: `qr:k=6` at pfail 0.001 feeds the
//! binary operations supports that coarsening left one ulp out of
//! order, and only the full distribution shows how those were merged.

use stochdag_core::{DodinEstimator, Estimator, FailureModel};
use stochdag_dag::{Dag, PreparedDag};
use stochdag_taskgraphs::{cholesky_dag, lu_dag, qr_dag, KernelTimings};

const PFAILS: [f64; 2] = [0.01, 0.001];

/// `(estimate bits, makespan-distribution hash)` at each of [`PFAILS`].
type Golden = [(u64, u64); 2];

/// FNV-1a over the bit patterns of every `(value, probability)` atom.
fn dist_hash(est: &DodinEstimator, dag: &Dag, model: &FailureModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(v, p) in est.makespan_dist(dag, model).atoms() {
        for b in [v.to_bits(), p.to_bits()] {
            h = (h ^ b).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Evaluate `est` on `dag` at every pfail through one prepared
/// estimator (so per-preparation scratch is reused across models, as
/// in a campaign) and check the one-shot path agrees bit for bit.
fn bits(est: &DodinEstimator, dag: &Dag) -> Vec<(u64, u64)> {
    let prepared = PreparedDag::new(dag.clone());
    let mut p = est.prepare(&prepared);
    PFAILS
        .iter()
        .map(|&pf| {
            let model = FailureModel::from_pfail_for_dag(pf, dag);
            let v = p.estimate_for(&model).value;
            assert_eq!(v.to_bits(), est.expected_makespan(dag, &model).to_bits());
            (v.to_bits(), dist_hash(est, dag, &model))
        })
        .collect()
}

/// The classical forbidden "N" (1→3, 1→4, 2→4) with a tail, so the
/// duplication engine must duplicate before it can reduce.
fn n_graph() -> Dag {
    let mut g = Dag::new();
    let n: Vec<_> = [1.0, 4.0, 2.0, 1.5, 3.0]
        .iter()
        .map(|&w| g.add_node(w))
        .collect();
    g.add_edge(n[0], n[2]);
    g.add_edge(n[0], n[3]);
    g.add_edge(n[1], n[3]);
    g.add_edge(n[2], n[4]);
    g.add_edge(n[3], n[4]);
    g
}

#[test]
fn forward_128_on_table1_factorizations_is_bit_stable() {
    let t = KernelTimings::paper_default();
    let fwd = DodinEstimator::scalable().with_max_atoms(128);
    let cases: [(&str, Dag, Golden); 3] = [
        (
            "lu:k=6",
            lu_dag(6, &t),
            [
                (0x3ff5318e02686701, 0x14f1d0150425cf7c),
                (0x3ff3d46b92a54481, 0x6d09725674c1d968),
            ],
        ),
        (
            "qr:k=6",
            qr_dag(6, &t),
            [
                (0x400b147f638c2d80, 0xa2562da28d236a5a),
                (0x40096a1aab47ec12, 0xe8a4ddb0ced2a1c1),
            ],
        ),
        (
            "cholesky:k=6",
            cholesky_dag(6, &t),
            [
                (0x3ff01f579d67e0de, 0x285c4d244149970c),
                (0x3fee4f0d04a9886e, 0xb52715818f5e444a),
            ],
        ),
    ];
    for (name, g, want) in cases {
        assert_eq!(bits(&fwd, &g), want, "{name}");
    }
}

#[test]
fn duplication_32_on_small_non_sp_dags_is_bit_stable() {
    let t = KernelTimings::paper_default();
    let dup = DodinEstimator::new().with_max_atoms(32);
    let cases: [(&str, Dag, Golden); 3] = [
        (
            "n-graph",
            n_graph(),
            [
                (0x40213c844ce89997, 0x0b0782ac285c0e9c),
                (0x402106108cdbdb11, 0xa559e72cc92ef13f),
            ],
        ),
        (
            "qr:k=4",
            qr_dag(4, &t),
            [
                (0x3ffeccc5ed4ba930, 0x53fe73823030f674),
                (0x3ffd7babe5eb9d2a, 0xf014de10cc6a1b3a),
            ],
        ),
        (
            "lu:k=4",
            lu_dag(4, &t),
            [
                (0x3fe938073d4895e6, 0x857850aa4fdb0447),
                (0x3fe80598baf06926, 0xbafc948f4a6103b3),
            ],
        ),
    ];
    for (name, g, want) in cases {
        assert!(
            !stochdag_sp::is_series_parallel(&g),
            "{name} must need duplication"
        );
        assert_eq!(bits(&dup, &g), want, "{name}");
    }
}
