//! Monte-Carlo bit-level goldens: every statistic the MC estimator
//! reports (`mean`, `variance`, `std_error`, `min`, `max`) pinned to
//! its exact `f64::to_bits` across DAG shapes, failure rates, sampling
//! models, failure scenarios, antithetic pairing and trial counts.
//!
//! The trial kernel promises makespans bit-identical to the plain
//! "sample every task, recompute the whole longest path" loop it
//! replaced; these constants were recorded with that loop. Trial
//! counts 1, 7, 8 and 20 003 straddle the kernel's 8-trial blocks
//! (a lone tail lane, a partial block, one full block, thousands of
//! blocks plus a 3-lane tail). Every case runs both parallel and
//! sequential, one-shot and prepared, and asserts they agree before
//! hashing, so the table holds one hash per (DAG, pfail, trial count).

use stochdag_core::{
    CorLcaEstimator, CovarianceNormalEstimator, DodinEstimator, Estimator, ExactEstimator,
    FailureModel, FirstOrderEstimator, MonteCarloEstimator, MonteCarloResult, SamplingModel,
    ScenarioModel, SculliEstimator, SecondOrderEstimator, SpeldeEstimator,
};
use stochdag_dag::{Dag, PreparedDag};
use stochdag_taskgraphs::{cholesky_dag, lu_dag, qr_dag, KernelTimings};

const SEED: u64 = 2016;
const PFAILS: [f64; 4] = [0.1, 0.01, 0.001, 0.0];
const TRIALS: [usize; 4] = [1, 7, 8, 20_003];
const SAMPLINGS: [SamplingModel; 2] = [SamplingModel::Geometric, SamplingModel::TwoState];

/// `(dag, [hash per TRIALS entry] per PFAILS entry)`; pfail `0.0`
/// stands for `FailureModel::failure_free()`.
type Golden = (&'static str, [[u64; 4]; 4]);

/// FNV-1a accumulator over bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: f64) {
        self.0 = (self.0 ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The classic diamond `s → {a, b} → t`.
fn diamond() -> Dag {
    let mut g = Dag::new();
    let s = g.add_node(1.0);
    let a = g.add_node(2.0);
    let b = g.add_node(3.0);
    let t = g.add_node(1.0);
    g.add_edge(s, a);
    g.add_edge(s, b);
    g.add_edge(a, t);
    g.add_edge(b, t);
    g
}

/// Zero-weight tasks (never fail, add nothing) and duplicate weights
/// (tied completions), with node ids deliberately out of topological
/// order.
fn zero_dup() -> Dag {
    let mut g = Dag::new();
    let n: Vec<_> = [2.0, 0.0, 2.0, 1.5, 0.0, 2.0, 1.5]
        .iter()
        .map(|&w| g.add_node(w))
        .collect();
    g.add_edge(n[3], n[0]);
    g.add_edge(n[1], n[0]);
    g.add_edge(n[1], n[2]);
    g.add_edge(n[0], n[4]);
    g.add_edge(n[2], n[4]);
    g.add_edge(n[4], n[5]);
    g.add_edge(n[4], n[6]);
    g.add_edge(n[3], n[6]);
    g
}

fn dags() -> Vec<(&'static str, Dag)> {
    let t = KernelTimings::paper_default();
    vec![
        ("lu:k=6", lu_dag(6, &t)),
        ("lu:k=10", lu_dag(10, &t)),
        ("qr:k=6", qr_dag(6, &t)),
        ("qr:k=10", qr_dag(10, &t)),
        ("cholesky:k=6", cholesky_dag(6, &t)),
        ("cholesky:k=10", cholesky_dag(10, &t)),
        ("diamond", diamond()),
        ("zero-dup", zero_dup()),
    ]
}

/// iid, a per-node hazard, and a 3-group rack mixture.
fn scenarios(n: usize) -> [ScenarioModel; 3] {
    [
        ScenarioModel::Iid,
        ScenarioModel::NodeHazard {
            hazard: (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect(),
        },
        ScenarioModel::GroupHazard {
            group_of: (0..n).map(|i| (i % 3) as u32).collect(),
            n_groups: 3,
            group_prob: 0.3,
            hazard: 4.0,
        },
    ]
}

fn model(pfail: f64, dag: &Dag) -> FailureModel {
    if pfail == 0.0 {
        FailureModel::failure_free()
    } else {
        FailureModel::from_pfail_for_dag(pfail, dag)
    }
}

fn estimator(trials: usize, sampling: SamplingModel, antithetic: bool) -> MonteCarloEstimator {
    let est = MonteCarloEstimator::new(trials)
        .with_seed(SEED)
        .with_sampling(sampling);
    if antithetic {
        est.antithetic()
    } else {
        est
    }
}

fn stats_bits(r: &MonteCarloResult) -> [u64; 5] {
    [r.mean, r.variance, r.std_error, r.min, r.max].map(f64::to_bits)
}

/// Evaluate one configuration on one DAG at every pfail (through one
/// prepared estimator per execution mode, reused across models and
/// scenarios as a campaign does), check parallel/sequential and
/// one-shot/prepared agree bit for bit, and fold the statistics into
/// `hashes[pfail index]`.
fn fold_config(
    dag: &Dag,
    prepared: &PreparedDag,
    est: MonteCarloEstimator,
    cells: &[(usize, usize)],
    hashes: &mut [Fnv],
) {
    let scen = scenarios(dag.node_count());
    let mut par = est.prepare(prepared);
    let mut seq = est.sequential().prepare(prepared);
    for &(pi, si) in cells {
        let m = model(PFAILS[pi], dag);
        let scenario = &scen[si];
        let a = par.estimate_scenario(&m, scenario).unwrap();
        let a_se = a.std_error.unwrap();
        let h = &mut hashes[pi];
        if scenario.is_iid() {
            // The one-shot path reports every statistic; the prepared
            // path must agree with it on the two it reports.
            let r = est.run(dag, &m);
            let rs = est.sequential().run(dag, &m);
            assert_eq!(stats_bits(&r), stats_bits(&rs), "parallel != sequential");
            assert_eq!(r.mean.to_bits(), a.value.to_bits(), "one-shot != prepared");
            assert_eq!(
                r.std_error.to_bits(),
                a_se.to_bits(),
                "one-shot != prepared"
            );
            for v in [r.mean, r.variance, r.std_error, r.min, r.max] {
                h.push(v);
            }
        } else {
            let b = seq.estimate_scenario(&m, scenario).unwrap();
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "parallel != sequential"
            );
            let b_se = b.std_error.unwrap();
            assert_eq!(a_se.to_bits(), b_se.to_bits(), "parallel != sequential");
            h.push(a.value);
            h.push(a_se);
        }
    }
}

/// Hashes for every (DAG, pfail, trial count). Small trial counts run
/// the full cross product of sampling × scenario × antithetic. The
/// 20 003-trial column (kept cheap enough for unoptimized test builds)
/// runs two pfails per DAG, alternating, with one combination each,
/// rotating so all 12 combinations are covered; its other cells hash
/// nothing and hold the FNV offset basis.
fn compute() -> Vec<(&'static str, [[u64; 4]; 4])> {
    let mut combos = Vec::new();
    for sampling in SAMPLINGS {
        for si in 0..3 {
            for anti in [false, true] {
                combos.push((sampling, si, anti));
            }
        }
    }
    dags()
        .into_iter()
        .enumerate()
        .map(|(di, (name, dag))| {
            let prepared = PreparedDag::new(dag.clone());
            let mut row = [[0u64; 4]; 4];
            for (ti, &trials) in TRIALS.iter().enumerate() {
                let mut hashes: Vec<Fnv> = PFAILS.iter().map(|_| Fnv::new()).collect();
                for (ci, &(sampling, si, anti)) in combos.iter().enumerate() {
                    let cells: Vec<(usize, usize)> = (0..PFAILS.len())
                        .filter(|&pi| {
                            trials < 1000
                                || ((di + pi) % 2 == 0
                                    && (di * PFAILS.len() + pi) / 2 % combos.len() == ci)
                        })
                        .map(|pi| (pi, si))
                        .collect();
                    if !cells.is_empty() {
                        let est = estimator(trials, sampling, anti);
                        fold_config(&dag, &prepared, est, &cells, &mut hashes);
                    }
                }
                for (pi, h) in hashes.iter().enumerate() {
                    row[pi][ti] = h.0;
                }
            }
            (name, row)
        })
        .collect()
}

const GOLDEN: &[Golden] = &[
    (
        "lu:k=6",
        [
            [
                0x5c510c5946551a41,
                0x91ebd6b3af01cdb0,
                0xe9e593a3c1d09bc3,
                0x45ec1ea24476dc58,
            ],
            [
                0x4c6103074febae15,
                0xa5f377237f940529,
                0xb63b070625718569,
                0xcbf29ce484222325,
            ],
            [
                0x6a77f4356d03d9f5,
                0x5211e24ddd4e31d9,
                0xfaa29e594911a1d9,
                0xc4bff8e1b2d8e465,
            ],
            [
                0x6a77f4356d03d9f5,
                0x5211e24ddd4e31d9,
                0x5211e24ddd4e31d9,
                0xcbf29ce484222325,
            ],
        ],
    ),
    (
        "lu:k=10",
        [
            [
                0x6f969b5f495d4ddd,
                0x44c3e18a22246381,
                0x4012114bf2438de0,
                0xcbf29ce484222325,
            ],
            [
                0xb6276f64884d97b1,
                0xc837469aa65ef8ed,
                0x1271b50faae77ef9,
                0xbdbabe3c5de9dee3,
            ],
            [
                0x5499cf37e4bbbd65,
                0x8c62aad1bbce3571,
                0xb7c626baa2ffdd2d,
                0xcbf29ce484222325,
            ],
            [
                0x5499cf37e4bbbd65,
                0xe25ea833ceeb3071,
                0x558de92aa3e6fc15,
                0xfdac94dcd91de67e,
            ],
        ],
    ),
    (
        "qr:k=6",
        [
            [
                0x3ed878482e950ac5,
                0x38414194e07dda4c,
                0x607cc7b5fd9e4434,
                0xc2a3baa8e688479c,
            ],
            [
                0xce75ced317787c55,
                0x8a97ad1f04920925,
                0x5d4b9e2ccc5c025d,
                0xcbf29ce484222325,
            ],
            [
                0xa30ff768ad0924d5,
                0xa30ff768ad0924d5,
                0xfc206f5890877219,
                0x7c332d486d437ea4,
            ],
            [
                0xa30ff768ad0924d5,
                0xa30ff768ad0924d5,
                0xa30ff768ad0924d5,
                0xcbf29ce484222325,
            ],
        ],
    ),
    (
        "qr:k=10",
        [
            [
                0x77df19405e7e09b9,
                0x96d36032e56fb268,
                0x8455587f69d4764c,
                0xcbf29ce484222325,
            ],
            [
                0x8fbfd7e13fd604c1,
                0xe3d7167449dd7a81,
                0x8c8c5f1270e6ab39,
                0x2855db59fbba0bca,
            ],
            [
                0x4668bd4ea1e133f5,
                0x85132ec1071e6d99,
                0x4a50f597c14249cd,
                0xcbf29ce484222325,
            ],
            [
                0xbf81934a829a4365,
                0x400ea62202901049,
                0xbf81934a829a4365,
                0xd1e284683cb78523,
            ],
        ],
    ),
    (
        "cholesky:k=6",
        [
            [
                0xf4a4b5a34915d771,
                0xc4dd80c41e7b3371,
                0xe981e6a9b7103b0a,
                0x7b47a30a9a8a662b,
            ],
            [
                0x518e86ee80185cc5,
                0xc72c46037d1dc585,
                0x2b8b8335ef8d3719,
                0xcbf29ce484222325,
            ],
            [
                0x001bd90f0c8e0d55,
                0x001bd90f0c8e0d55,
                0xd0ce24c894799875,
                0x2afaef1e12f3adb5,
            ],
            [
                0x001bd90f0c8e0d55,
                0x001bd90f0c8e0d55,
                0x001bd90f0c8e0d55,
                0xcbf29ce484222325,
            ],
        ],
    ),
    (
        "cholesky:k=10",
        [
            [
                0x5db19507ec0c780b,
                0x9eb336d64a8ed87a,
                0xaa2bcc79b028743f,
                0xcbf29ce484222325,
            ],
            [
                0x44ebc55a70052b41,
                0x3cf48c6ca130b935,
                0x2612ac1ef45109dd,
                0x206a01b764749896,
            ],
            [
                0x32b6b48916c0dd39,
                0x44913a48ce8d7855,
                0xc48aefeec75dfd89,
                0xcbf29ce484222325,
            ],
            [
                0x32b6b48916c0dd39,
                0x514f5ffb24edbb5d,
                0x514f5ffb24edbb5d,
                0x1c6022f0e6830064,
            ],
        ],
    ),
    (
        "diamond",
        [
            [
                0xe324f28841434e75,
                0xe7f99a4ff9507f65,
                0x243b000e592f3209,
                0x7e545919fcefc657,
            ],
            [
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0xcbf29ce484222325,
            ],
            [
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0x60929e151fbddcfb,
            ],
            [
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0xc3ecf28841434e75,
                0xcbf29ce484222325,
            ],
        ],
    ),
    (
        "zero-dup",
        [
            [
                0x82ccf28841434e75,
                0x566b957294992549,
                0x91d6bcceb8b50229,
                0xcbf29ce484222325,
            ],
            [
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0x98764c2c2407509d,
            ],
            [
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0xcbf29ce484222325,
            ],
            [
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0xdd28f28841434e75,
                0x5bf48807b4eb6fed,
            ],
        ],
    ),
];

#[test]
fn monte_carlo_statistics_are_bit_stable() {
    let got = compute();
    let table: String = got
        .iter()
        .map(|(name, row)| {
            let cols: Vec<String> = row
                .iter()
                .map(|hs| {
                    let hs: Vec<String> = hs.iter().map(|h| format!("0x{h:016x}")).collect();
                    format!("            [{}],\n", hs.join(", "))
                })
                .collect();
            format!(
                "    (\n        \"{name}\",\n        [\n{}        ],\n    ),\n",
                cols.concat()
            )
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((name, row), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(row, want, "{name}: statistics changed; table:\n{table}");
    }
}

/// The one-shot `Estimator::estimate` prepares and evaluates once; its
/// `value` and `std_error` must be `run`'s `mean` and `std_error` bit
/// for bit, in every i.i.d. configuration.
#[test]
fn one_shot_estimate_matches_run() {
    for (name, dag) in dags() {
        for pfail in PFAILS {
            let m = model(pfail, &dag);
            for trials in [1, 7, 8, 2_003] {
                for sampling in SAMPLINGS {
                    for anti in [false, true] {
                        let par = estimator(trials, sampling, anti);
                        for est in [par, par.sequential()] {
                            let e = est.estimate(&dag, &m);
                            let r = est.run(&dag, &m);
                            let what = format!("{name} pfail {pfail} trials {trials} {est:?}");
                            assert_eq!(e.value.to_bits(), r.mean.to_bits(), "{what}");
                            assert_eq!(
                                e.std_error.map(f64::to_bits),
                                Some(r.std_error.to_bits()),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Deterministic families report no standard error from the one-shot
/// path.
#[test]
fn analytic_one_shot_estimates_have_no_std_error() {
    let analytic: Vec<Box<dyn Estimator>> = vec![
        Box::new(FirstOrderEstimator::fast()),
        Box::new(FirstOrderEstimator::naive()),
        Box::new(SecondOrderEstimator),
        Box::new(SculliEstimator),
        Box::new(CorLcaEstimator),
        Box::new(CovarianceNormalEstimator),
        Box::new(DodinEstimator::scalable()),
        Box::new(DodinEstimator::new()),
        Box::new(SpeldeEstimator::new(4)),
        Box::new(ExactEstimator),
    ];
    for dag in [diamond(), zero_dup()] {
        let m = model(0.1, &dag);
        for est in &analytic {
            assert_eq!(est.estimate(&dag, &m).std_error, None, "{}", est.name());
        }
    }
}
