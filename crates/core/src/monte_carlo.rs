//! Monte Carlo ground truth (paper Section II-A1 / V-C).
//!
//! Each trial samples, per task, the number of execution attempts until
//! the verification passes, sets the task's duration to
//! `attempts × aᵢ`, and computes one longest path. The estimate is the
//! mean over trials (the paper uses 300 000).
//!
//! Trials are embarrassingly parallel and run under Rayon with one
//! deterministic RNG per trial (`splitmix64(seed, trial)`), so results
//! are bit-reproducible regardless of thread count — the property the
//! hpc-parallel guides call out for parallel iterators with independent
//! work items.
//!
//! # The trial kernel
//!
//! At the paper's failure rates almost every task succeeds at its first
//! attempt: a 385-task LU `k=10` trial at pfail 0.001 samples ~0.4
//! failures. One kernel serves every configuration (i.i.d., node- and
//! group-hazard scenarios, geometric and two-state sampling, antithetic
//! pairing, parallel and sequential runs), and a trial's cost is its
//! sampling plus its *dirty suffix*: the topological positions from its
//! first failed task onwards. Every makespan is bit-identical to the
//! plain "weight every task, recompute the whole longest path" trial,
//! which the unit tests keep verbatim as an oracle:
//!
//! - **Integer sampling test.** The RNG's uniform is `u = m·2⁻⁵³` for a
//!   53-bit integer `m`, and a task succeeds at once iff `u < p`. With
//!   `thr = ⌈p·2⁵³⌉` precomputed per model, `m < thr` is exactly
//!   `u < p`: scaling by 2⁵³ is exact in `f64`, and for an integer `m`,
//!   `m < x ⟺ m < ⌈x⌉`. `p ≥ 1` maps to `u64::MAX` (always succeeds,
//!   like `attempts_for`'s `p >= 1` arm), and a NaN `p` maps to 0, so
//!   every draw takes the slow path, which calls the unchanged
//!   [`attempts_for`] on the same `u`. Only the slow path converts `m`
//!   to `f64`. A task whose attempt count `k` is not 1 is recorded as
//!   `(position, k·a)`; every other task keeps weight `a`, which is
//!   bitwise `1.0·a`. Each task still consumes one `next_u64` in node
//!   order (group-hazard scenarios draw their group Bernoullis first, as
//!   before), and an antithetic mirror `u → 1 − u` is the exact integer
//!   mirror `m → 2⁵³ − m`.
//! - **Failure-free prefix reuse.** Once per prepared graph the DAG is
//!   relabelled in topological order and its failure-free forward pass
//!   is stored: every position's completion time and the running
//!   maximum `prefix_best[k]` the scalar pass holds before position `k`.
//!   A trial without failures returns `prefix_best[n]`. Otherwise the
//!   pass starts at the first failed position `s`, seeded with
//!   `prefix_best[s]`, and reads the stored completions below `s`:
//!   those positions have the same weights and predecessors, so the
//!   same operations give the same bits. The overwritten suffix is
//!   restored afterwards.
//! - **8-trial blocks.** Consecutive trials run in blocks of
//!   [`LANES`], one RNG stream per lane. When more than
//!   [`SCALAR_MAX_DIRTY`] lanes sampled a failure, one struct-of-arrays
//!   pass over `[f64; 8]` runs from the smallest dirty position; each
//!   lane uses the scalar `if v > s { s = v }` select (never
//!   `f64::max`), and a lane whose own suffix starts later recomputes
//!   failure-free positions, which reproduces the stored bits. Otherwise
//!   each dirty lane runs its scalar suffix. Makespans are collected in
//!   trial order and reduced by the unchanged sequential summary.
//!
//! Why two routes and a cut-off of 2 (2-vCPU x86-64 VM, SSE2 baseline,
//! sequential 20 000-trial runs on LU and Cholesky `k=10`, medians of
//! 8–10 rotated runs per build):
//!
//! - Against scalar suffixes for every dirty lane, the 8-lane pass
//!   takes 18–34% less time at pfail 0.01, 0.03 and 0.1. At pfail
//!   0.001 few blocks have three dirty lanes; there the 8-lane build
//!   ranged from 7% faster to 21% slower, inside the runs'
//!   interquartile ranges.
//! - End to end, 10 alternating `table1-cold` pairs (`--seconds 10`)
//!   gave the 8-lane build a median `cells_per_s` of 261 against 240,
//!   ahead in 8 of 10 pairs.
//! - Running the pass for one or two dirty lanes (cut-off 0 or 1) was
//!   21–46% slower at pfail 0.001. Cut-offs 2, 3 and 4 fell within each
//!   other's interquartile ranges at every pfail.

use crate::estimator::{Estimate, Estimator, PreparedEstimator};
use crate::model::FailureModel;
use crate::scenario::{ScenarioModel, UnsupportedScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;
use stochdag_dag::{Dag, FrozenDag, PreparedDag};

/// Trials per block: one lane of the struct-of-arrays pass per trial.
const LANES: usize = 8;

/// A block runs the 8-lane pass only when more than this many of its
/// lanes sampled a failure; otherwise each dirty lane runs alone. See
/// the module docs for the measurements behind the value.
const SCALAR_MAX_DIRTY: usize = 2;

/// `2⁻⁵³`: the RNG's `f64` uniform is `m · 2⁻⁵³` for `m = next_u64 >> 11`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// How task durations are sampled in each trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingModel {
    /// The paper's ground-truth model: re-execute until success
    /// (geometric number of attempts).
    Geometric,
    /// At most one re-execution (`aᵢ` or `2aᵢ`) — the first-order
    /// model's own assumption; used to validate the analytical expansion
    /// separately from the model truncation.
    TwoState,
}

/// Monte Carlo statistics.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloResult {
    /// Mean makespan over all trials — the expected-makespan estimate.
    pub mean: f64,
    /// Sample variance of the makespan.
    pub variance: f64,
    /// Standard error of `mean` (`sd / √trials`).
    pub std_error: f64,
    /// Smallest makespan observed.
    pub min: f64,
    /// Largest makespan observed.
    pub max: f64,
    /// Number of trials.
    pub trials: usize,
}

impl MonteCarloResult {
    /// Half-width of the ~99.7% (3σ) confidence interval on the mean.
    pub fn ci3_half_width(&self) -> f64 {
        3.0 * self.std_error
    }
}

/// The brute-force Monte Carlo estimator.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloEstimator {
    trials: usize,
    seed: u64,
    sampling: SamplingModel,
    parallel: bool,
    antithetic: bool,
}

impl MonteCarloEstimator {
    /// Estimator with the given trial count (paper: 300 000), seed 0,
    /// geometric sampling, parallel execution.
    pub fn new(trials: usize) -> MonteCarloEstimator {
        assert!(trials > 0, "need at least one trial");
        MonteCarloEstimator {
            trials,
            seed: 0,
            sampling: SamplingModel::Geometric,
            parallel: true,
            antithetic: false,
        }
    }

    /// The paper's configuration: 300 000 trials.
    pub fn paper_default() -> MonteCarloEstimator {
        MonteCarloEstimator::new(300_000)
    }

    /// Set the master seed (each trial derives its own stream from it).
    pub fn with_seed(mut self, seed: u64) -> MonteCarloEstimator {
        self.seed = seed;
        self
    }

    /// Choose the sampling model.
    pub fn with_sampling(mut self, sampling: SamplingModel) -> MonteCarloEstimator {
        self.sampling = sampling;
        self
    }

    /// Force sequential execution (profiling/debugging).
    pub fn sequential(mut self) -> MonteCarloEstimator {
        self.parallel = false;
        self
    }

    /// Enable antithetic variates: trials are generated in mirrored
    /// pairs (`u` / `1 − u` per task). The makespan is monotone in every
    /// task duration, so the pair members are negatively correlated and
    /// the estimator's variance drops at equal cost (quantified by the
    /// `mc_convergence` bench and the variance-reduction unit test).
    pub fn antithetic(mut self) -> MonteCarloEstimator {
        self.antithetic = true;
        self
    }

    /// Number of configured trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Run the simulation and return full statistics.
    pub fn run(&self, dag: &Dag, model: &FailureModel) -> MonteCarloResult {
        let plan = TrialPlan::new(&dag.freeze());
        let mut bufs = ModelBuffers::default();
        self.run_scenario_on(&plan, model, &ScenarioModel::Iid, &mut bufs)
    }

    /// Run the simulation under a failure scenario over a prepared
    /// [`TrialPlan`], with caller-owned per-model buffers (a prepared
    /// estimator builds the plan once and reuses the buffers across
    /// every model it evaluates).
    ///
    /// `Iid` samples every task with `psucc_i = e^{−λ a_i}`.
    /// `NodeHazard` is inhomogeneous i.i.d. sampling with per-task
    /// success probability `psucc_i^{h_i}` (a hazard multiplier on λ).
    /// `GroupHazard` draws the per-group hot/cold Bernoullis *first*
    /// from the same per-trial RNG stream, then samples tasks with
    /// `psucc_i^m` when their group is hot — so same-group tasks fail in
    /// a correlated way while trials stay deterministic per (seed,
    /// trial). The antithetic-variates knob is ignored on the
    /// group-correlated path (mirroring the group draw would bias the
    /// mixture weights).
    ///
    /// Panics if the scenario's shape does not match the graph (the
    /// engine validates scenarios at spec-resolution time).
    fn run_scenario_on(
        &self,
        plan: &TrialPlan,
        model: &FailureModel,
        scenario: &ScenarioModel,
        bufs: &mut ModelBuffers,
    ) -> MonteCarloResult {
        if plan.len() == 0 {
            return MonteCarloResult {
                mean: 0.0,
                variance: 0.0,
                std_error: 0.0,
                min: 0.0,
                max: 0.0,
                trials: self.trials,
            };
        }
        let blocks = self.trial_makespans(plan, model, scenario, bufs);
        self.summarize(&blocks.as_flattened()[..self.trials])
    }

    /// Every trial's makespan, in trial order, in blocks of [`LANES`]
    /// (lanes past `trials` in the last block are padding).
    fn trial_makespans(
        &self,
        plan: &TrialPlan,
        model: &FailureModel,
        scenario: &ScenarioModel,
        bufs: &mut ModelBuffers,
    ) -> Vec<[f64; LANES]> {
        let n = plan.len();
        if let Err(msg) = scenario.validate(n) {
            panic!("invalid failure scenario: {msg}");
        }
        // Per-task success probabilities and thresholds, in node order,
        // hoisted out of the trial loop.
        let ModelBuffers {
            psucc,
            thr,
            psucc_hot,
            thr_hot,
        } = bufs;
        psucc.clear();
        psucc.extend((0..n).map(|i| model.psuccess_of_weight(plan.node_weight(i))));
        if let ScenarioModel::NodeHazard { hazard } = scenario {
            for (p, &h) in psucc.iter_mut().zip(hazard) {
                *p = p.powf(h);
            }
        }
        thr.clear();
        thr.extend(psucc.iter().map(|&p| threshold(p)));
        let group = match scenario {
            ScenarioModel::GroupHazard {
                group_of,
                n_groups,
                group_prob,
                hazard,
            } => {
                // Hot-member per-attempt success probability, hoisted so
                // the trial loop never calls powf.
                psucc_hot.clear();
                psucc_hot.extend(psucc.iter().map(|p| p.powf(*hazard)));
                thr_hot.clear();
                thr_hot.extend(psucc_hot.iter().map(|&p| threshold(p)));
                Some(GroupDraw {
                    group_of,
                    n_groups: *n_groups,
                    group_prob: *group_prob,
                    psucc_hot,
                    thr_hot,
                })
            }
            _ => None,
        };
        let draw = TrialDraw {
            sampling: self.sampling,
            seed: self.seed,
            antithetic: self.antithetic && group.is_none(),
            psucc,
            thr,
            group,
        };

        let trials = self.trials;
        let block = |scratch: &mut BlockScratch, b: usize| {
            let first = b * LANES;
            scratch.run_block(plan, &draw, first as u64, (trials - first).min(LANES))
        };
        let blocks = trials.div_ceil(LANES);
        if self.parallel {
            (0..blocks)
                .into_par_iter()
                .map_init(|| BlockScratch::new(plan), block)
                .collect()
        } else {
            let mut scratch = BlockScratch::new(plan);
            (0..blocks).map(|b| block(&mut scratch, b)).collect()
        }
    }

    /// Sequential trial-order reduction shared by every sampling path.
    fn summarize(&self, makespans: &[f64]) -> MonteCarloResult {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &m in makespans {
            sum += m;
            sum_sq += m * m;
            min = min.min(m);
            max = max.max(m);
        }
        let t = self.trials as f64;
        let mean = sum / t;
        let variance = (sum_sq / t - mean * mean).max(0.0);
        MonteCarloResult {
            mean,
            variance,
            std_error: (variance / t).sqrt(),
            min,
            max,
            trials: self.trials,
        }
    }
}

/// Monte-Carlo estimator bound to one prepared graph: the trial plan
/// (topological relabelling and failure-free forward pass) is built
/// once, and the per-model probability and threshold buffers are
/// refilled per model instead of allocated per call.
/// [`PreparedEstimator::reseed`] swaps the master seed, so one
/// preparation serves many deterministically seeded sweep cells.
struct PreparedMonteCarlo {
    est: MonteCarloEstimator,
    plan: TrialPlan,
    bufs: ModelBuffers,
    last_std_error: Option<f64>,
}

impl PreparedMonteCarlo {
    fn run(&mut self, model: &FailureModel, scenario: &ScenarioModel) -> MonteCarloResult {
        let r = self
            .est
            .run_scenario_on(&self.plan, model, scenario, &mut self.bufs);
        self.last_std_error = Some(r.std_error);
        r
    }
}

impl PreparedEstimator for PreparedMonteCarlo {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.run(model, &ScenarioModel::Iid).mean
    }

    fn std_error_hint(&self) -> Option<f64> {
        self.last_std_error
    }

    fn reseed(&mut self, seed: u64) {
        self.est.seed = seed;
    }

    fn estimate_scenario(
        &mut self,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Result<Estimate, UnsupportedScenario> {
        if scenario.is_iid() {
            return Ok(self.estimate_for(model));
        }
        let start = Instant::now();
        let r = self.run(model, scenario);
        Ok(Estimate {
            value: r.mean,
            elapsed: start.elapsed(),
            name: self.name().to_string(),
            std_error: Some(r.std_error),
        })
    }
}

impl Estimator for MonteCarloEstimator {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedMonteCarlo {
            est: *self,
            plan: TrialPlan::new(prepared.frozen()),
            bufs: ModelBuffers::default(),
            last_std_error: None,
        })
    }
}

/// The graph-only data every trial shares, built once per graph: the
/// DAG relabelled in topological order and its failure-free forward
/// pass.
struct TrialPlan {
    /// Topological position of each node, indexed by node id.
    pos_of: Vec<u32>,
    /// Task weight at each position.
    weight: Vec<f64>,
    /// CSR offsets into `pred_pos`, per position.
    pred_off: Vec<u32>,
    /// Predecessor positions, each list in the node's original
    /// predecessor order.
    pred_pos: Vec<u32>,
    /// Failure-free completion time at each position.
    base: Vec<f64>,
    /// `prefix_best[k]`: the forward pass's running makespan before
    /// position `k`; `prefix_best[n]` is the failure-free makespan.
    prefix_best: Vec<f64>,
}

impl TrialPlan {
    fn new(frozen: &FrozenDag) -> TrialPlan {
        let n = frozen.node_count();
        let mut pos_of = vec![0u32; n];
        for (k, &i) in frozen.topo.iter().enumerate() {
            pos_of[i as usize] = k as u32;
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred_pos = Vec::with_capacity(frozen.pred_list.len());
        pred_off.push(0);
        for &i in &frozen.topo {
            pred_pos.extend(frozen.preds(i as usize).iter().map(|&p| pos_of[p as usize]));
            pred_off.push(pred_pos.len() as u32);
        }
        let mut plan = TrialPlan {
            pos_of,
            weight: frozen
                .topo
                .iter()
                .map(|&i| frozen.weights[i as usize])
                .collect(),
            pred_off,
            pred_pos,
            base: Vec::new(),
            prefix_best: Vec::with_capacity(n + 1),
        };
        let mut base = vec![0.0; n];
        plan.suffix(0, &plan.weight, &mut base, 0.0);
        // The scalar pass's running `best`, position by position.
        let mut best = 0.0f64;
        plan.prefix_best.push(best);
        for &c in &base {
            if c > best {
                best = c;
            }
            plan.prefix_best.push(best);
        }
        plan.base = base;
        plan
    }

    fn len(&self) -> usize {
        self.weight.len()
    }

    /// Weight of node `i` (by node id).
    fn node_weight(&self, i: usize) -> f64 {
        self.weight[self.pos_of[i] as usize]
    }

    /// Predecessor positions of position `k`.
    #[inline]
    fn preds(&self, k: usize) -> &[u32] {
        &self.pred_pos[self.pred_off[k] as usize..self.pred_off[k + 1] as usize]
    }

    /// Scalar forward pass over positions `from..n`: fills `comp` from
    /// the completions it holds below `from` and returns the makespan,
    /// given the running maximum `best` of the positions before `from`.
    fn suffix(&self, from: usize, weight: &[f64], comp: &mut [f64], mut best: f64) -> f64 {
        for (k, &w) in weight.iter().enumerate().skip(from) {
            let mut start = 0.0f64;
            for &p in self.preds(k) {
                let c = comp[p as usize];
                if c > start {
                    start = c;
                }
            }
            let c = start + w;
            comp[k] = c;
            if c > best {
                best = c;
            }
        }
        best
    }

    /// [`TrialPlan::suffix`] over [`LANES`] trials at once, each lane
    /// with the scalar pass's exact operations.
    fn suffix_lanes(
        &self,
        from: usize,
        weight: &[[f64; LANES]],
        comp: &mut [[f64; LANES]],
        mut best: [f64; LANES],
    ) -> [f64; LANES] {
        for (k, w) in weight.iter().enumerate().skip(from) {
            let mut start = [0.0f64; LANES];
            for &p in self.preds(k) {
                for (s, &c) in start.iter_mut().zip(&comp[p as usize]) {
                    if c > *s {
                        *s = c;
                    }
                }
            }
            let mut c = [0.0f64; LANES];
            for ((c, s), w) in c.iter_mut().zip(&start).zip(w) {
                *c = s + w;
            }
            for (b, &c) in best.iter_mut().zip(&c) {
                if c > *b {
                    *b = c;
                }
            }
            comp[k] = c;
        }
        best
    }
}

/// Per-model buffers, in node order, reused across models.
#[derive(Default)]
struct ModelBuffers {
    psucc: Vec<f64>,
    thr: Vec<u64>,
    psucc_hot: Vec<f64>,
    thr_hot: Vec<u64>,
}

/// Everything a trial's sampling reads, borrowed for one run.
struct TrialDraw<'a> {
    sampling: SamplingModel,
    seed: u64,
    antithetic: bool,
    /// Per-attempt success probability per node.
    psucc: &'a [f64],
    /// [`threshold`] of `psucc`.
    thr: &'a [u64],
    /// The group-correlated mixture, if the scenario has one.
    group: Option<GroupDraw<'a>>,
}

/// Group-hazard sampling inputs: a hot member uses the hot vectors.
struct GroupDraw<'a> {
    group_of: &'a [u32],
    n_groups: usize,
    group_prob: f64,
    psucc_hot: &'a [f64],
    thr_hot: &'a [u64],
}

/// Per-thread scratch for one block of trials. Between blocks the
/// completion arrays hold the plan's failure-free completions and the
/// weight arrays its weights; a block restores whatever it overwrites.
struct BlockScratch {
    /// Failed tasks `(position, k·a)` per lane of the current block.
    fails: [Vec<(u32, f64)>; LANES],
    /// Per-group hot flags of the trial being sampled.
    hot: Vec<bool>,
    comp: Vec<f64>,
    weight: Vec<f64>,
    /// `comp` and `weight` with one column per lane.
    comp_lanes: Vec<[f64; LANES]>,
    weight_lanes: Vec<[f64; LANES]>,
}

impl BlockScratch {
    fn new(plan: &TrialPlan) -> BlockScratch {
        BlockScratch {
            fails: Default::default(),
            hot: Vec::new(),
            comp: plan.base.clone(),
            weight: plan.weight.clone(),
            comp_lanes: plan.base.iter().map(|&c| [c; LANES]).collect(),
            weight_lanes: plan.weight.iter().map(|&w| [w; LANES]).collect(),
        }
    }

    /// Makespans of trials `first..first + lanes` (`lanes ≤ LANES`;
    /// the remaining lanes are padding).
    fn run_block(
        &mut self,
        plan: &TrialPlan,
        draw: &TrialDraw,
        first: u64,
        lanes: usize,
    ) -> [f64; LANES] {
        let n = plan.len();
        let mut from = [n; LANES];
        for (lane, f) in from.iter_mut().enumerate().take(lanes) {
            *f = self.sample(plan, draw, first + lane as u64, lane);
        }
        let mut out = [plan.prefix_best[n]; LANES];
        let dirty = from[..lanes].iter().filter(|&&f| f < n).count();
        if dirty > SCALAR_MAX_DIRTY {
            let lo = from.iter().copied().min().unwrap_or(n);
            for (lane, fails) in self.fails[..lanes].iter().enumerate() {
                for &(pos, w) in fails {
                    self.weight_lanes[pos as usize][lane] = w;
                }
            }
            out = plan.suffix_lanes(
                lo,
                &self.weight_lanes,
                &mut self.comp_lanes,
                [plan.prefix_best[lo]; LANES],
            );
            for (c, &b) in self.comp_lanes[lo..].iter_mut().zip(&plan.base[lo..]) {
                *c = [b; LANES];
            }
            for (lane, fails) in self.fails[..lanes].iter().enumerate() {
                for &(pos, _) in fails {
                    self.weight_lanes[pos as usize][lane] = plan.weight[pos as usize];
                }
            }
        } else {
            for (lane, &f) in from[..lanes].iter().enumerate() {
                if f == n {
                    continue;
                }
                for &(pos, w) in &self.fails[lane] {
                    self.weight[pos as usize] = w;
                }
                out[lane] = plan.suffix(f, &self.weight, &mut self.comp, plan.prefix_best[f]);
                self.comp[f..].copy_from_slice(&plan.base[f..]);
                for &(pos, _) in &self.fails[lane] {
                    self.weight[pos as usize] = plan.weight[pos as usize];
                }
            }
        }
        out
    }

    /// Sample trial `trial` into `fails[lane]` and return its first
    /// failed position (`n` when every task succeeded at once).
    ///
    /// Each task consumes exactly one uniform `u`: the 2-state model
    /// fails iff `u ≥ p`, the geometric model inverts the attempt-count
    /// CDF (`N = 1 + ⌊ln(1−u)/ln(1−p)⌋`). One-uniform-per-task is what
    /// makes antithetic mirroring (`u → 1−u`) well defined: mirrored
    /// trials share the RNG stream of their pair.
    fn sample(&mut self, plan: &TrialPlan, draw: &TrialDraw, trial: u64, lane: usize) -> usize {
        let (stream, mirror) = if draw.antithetic {
            (trial >> 1, trial & 1 == 1)
        } else {
            (trial, false)
        };
        let mut rng = StdRng::seed_from_u64(splitmix64(draw.seed ^ splitmix64(stream)));
        if let Some(g) = &draw.group {
            // The group Bernoullis come first in the trial's stream.
            self.hot.clear();
            self.hot
                .extend((0..g.n_groups).map(|_| rng.gen::<f64>() < g.group_prob));
        }
        let fails = &mut self.fails[lane];
        fails.clear();
        let mut from = plan.len();
        let mut slow = |i: usize, m: u64, p: f64| {
            let k = attempts_for(draw.sampling, p, m as f64 * UNIT);
            if k != 1 {
                let pos = plan.pos_of[i];
                fails.push((pos, k as f64 * plan.weight[pos as usize]));
                from = from.min(pos as usize);
            }
        };
        let mut next = || {
            let m = rng.next_u64() >> 11;
            if mirror {
                (1 << 53) - m
            } else {
                m
            }
        };
        match &draw.group {
            None => {
                for (i, &thr) in draw.thr.iter().enumerate() {
                    let m = next();
                    if may_fail(m, thr) {
                        slow(i, m, draw.psucc[i]);
                    }
                }
            }
            Some(g) => {
                for (i, &grp) in g.group_of.iter().enumerate() {
                    let hot = self.hot[grp as usize];
                    let m = next();
                    let thr = if hot { g.thr_hot[i] } else { draw.thr[i] };
                    if may_fail(m, thr) {
                        slow(i, m, if hot { g.psucc_hot[i] } else { draw.psucc[i] });
                    }
                }
            }
        }
        from
    }
}

/// Integer first-attempt threshold for success probability `p`: a
/// 53-bit draw `m` succeeds at once iff `m < threshold(p)`, which is
/// exactly `m·2⁻⁵³ < p` (see the module docs). `p ≥ 1` always
/// succeeds; NaN and negative `p` map to 0, so every draw takes the
/// slow path through [`attempts_for`].
#[inline]
fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else {
        // Exact scaling; `as` saturates NaN and negatives to 0.
        (p * (1u64 << 53) as f64).ceil() as u64
    }
}

/// Whether draw `m` must go through [`attempts_for`]: exactly
/// `!(m·2⁻⁵³ < p)` for `thr = threshold(p)`.
#[inline]
fn may_fail(m: u64, thr: u64) -> bool {
    m >= thr
}

/// Number of execution attempts implied by success probability `p` and
/// uniform draw `u` — the shared inner step of every trial kernel.
#[inline]
fn attempts_for(sampling: SamplingModel, p: f64, u: f64) -> u32 {
    match sampling {
        SamplingModel::TwoState => {
            if p >= 1.0 || u < p {
                1u32
            } else {
                2u32
            }
        }
        SamplingModel::Geometric => {
            if p >= 1.0 || u < p {
                1u32
            } else {
                // Inversion: P(N > k) = (1−p)^k.
                let q = 1.0 - p;
                let k = 1.0 + ((1.0 - u).max(f64::MIN_POSITIVE)).ln() / q.ln();
                (k.floor() as u32).clamp(1, 10_000)
            }
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-trial seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_dag::Dag;

    fn single(a: f64) -> Dag {
        let mut g = Dag::new();
        g.add_node(a);
        g
    }

    #[test]
    fn failure_free_is_exact() {
        let g = single(3.0);
        let mc = MonteCarloEstimator::new(1000);
        let r = mc.run(&g, &FailureModel::failure_free());
        assert_eq!(r.mean, 3.0);
        assert_eq!(r.variance, 0.0);
        assert_eq!(r.min, 3.0);
        assert_eq!(r.max, 3.0);
    }

    #[test]
    fn single_task_two_state_matches_closed_form() {
        let a = 1.0;
        let lambda = 0.2231435513; // pfail = 1 − e^{−λ} = 0.2
        let g = single(a);
        let mc = MonteCarloEstimator::new(200_000)
            .with_seed(7)
            .with_sampling(SamplingModel::TwoState);
        let r = mc.run(&g, &FailureModel::new(lambda));
        let want = 0.8 * 1.0 + 0.2 * 2.0;
        assert!(
            (r.mean - want).abs() < 4.0 * r.std_error + 1e-9,
            "mean {} want {want} (se {})",
            r.mean,
            r.std_error
        );
    }

    #[test]
    fn single_task_geometric_matches_closed_form() {
        // E[attempts] = 1/p ⇒ E[duration] = a/p.
        let a = 1.0;
        let p = 0.8f64;
        let lambda = -(p.ln()) / a;
        let g = single(a);
        let mc = MonteCarloEstimator::new(200_000).with_seed(3);
        let r = mc.run(&g, &FailureModel::new(lambda));
        let want = a / p;
        assert!(
            (r.mean - want).abs() < 4.0 * r.std_error,
            "mean {} want {want} (se {})",
            r.mean,
            r.std_error
        );
    }

    #[test]
    fn deterministic_given_seed_and_parallel() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(1.5);
        g.add_edge(a, b);
        g.add_edge(a, c);
        let m = FailureModel::new(0.1);
        let mc = MonteCarloEstimator::new(50_000).with_seed(99);
        let r1 = mc.run(&g, &m);
        let r2 = mc.run(&g, &m);
        let r3 = mc.sequential().run(&g, &m);
        assert_eq!(r1.mean, r2.mean, "parallel runs are reproducible");
        assert_eq!(r1.mean, r3.mean, "thread count does not change the result");
        assert_eq!(r1.min, r3.min);
        assert_eq!(r1.max, r3.max);
    }

    #[test]
    fn different_seeds_differ() {
        let g = single(1.0);
        let m = FailureModel::new(0.3);
        let r1 = MonteCarloEstimator::new(10_000).with_seed(1).run(&g, &m);
        let r2 = MonteCarloEstimator::new(10_000).with_seed(2).run(&g, &m);
        assert_ne!(r1.mean, r2.mean);
    }

    #[test]
    fn mean_bounded_by_min_max() {
        let g = single(1.0);
        let r = MonteCarloEstimator::new(5_000).run(&g, &FailureModel::new(0.5));
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.min >= 1.0, "a task takes at least one attempt");
    }

    #[test]
    fn std_error_shrinks_with_trials() {
        let g = single(1.0);
        let m = FailureModel::new(0.5);
        let small = MonteCarloEstimator::new(1_000).with_seed(5).run(&g, &m);
        let large = MonteCarloEstimator::new(100_000).with_seed(5).run(&g, &m);
        assert!(large.std_error < small.std_error);
    }

    #[test]
    fn estimate_carries_std_error() {
        let g = single(1.0);
        let e = MonteCarloEstimator::new(1_000).estimate(&g, &FailureModel::new(0.1));
        assert!(e.std_error.is_some());
        assert_eq!(e.name, "MonteCarlo");
    }

    #[test]
    fn geometric_exceeds_two_state_mean() {
        // Geometric allows >1 re-execution, so its mean is strictly
        // larger at high failure rates.
        let g = single(1.0);
        let m = FailureModel::new(0.7);
        let geo = MonteCarloEstimator::new(100_000).with_seed(11).run(&g, &m);
        let two = MonteCarloEstimator::new(100_000)
            .with_seed(11)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &m);
        assert!(geo.mean > two.mean);
    }
}

#[cfg(test)]
mod antithetic_tests {
    use super::*;
    use stochdag_dag::Dag;

    fn chain(n: usize) -> Dag {
        let mut g = Dag::new();
        let mut prev = None;
        for _ in 0..n {
            let v = g.add_node(1.0);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        g
    }

    #[test]
    fn antithetic_mean_is_unbiased() {
        // Single task closed form: E = a/p under geometric sampling.
        let mut g = Dag::new();
        g.add_node(1.0);
        let p = 0.8f64;
        let model = FailureModel::new(-(p.ln()));
        let r = MonteCarloEstimator::new(200_000)
            .with_seed(4)
            .antithetic()
            .run(&g, &model);
        assert!(
            (r.mean - 1.0 / p).abs() < 4.0 * r.std_error.max(1e-4),
            "antithetic mean {} want {}",
            r.mean,
            1.0 / p
        );
    }

    #[test]
    fn antithetic_reduces_empirical_estimator_variance() {
        // The makespan of a chain is Σ durations — monotone in every
        // uniform, so pairing must reduce the variance of the *mean*.
        // Measure by bootstrapping over independent seeds.
        // p = e^{-0.7} ~ 0.50 makes the duration-vs-uniform map steep, so
        // mirrored pairs are strongly negatively correlated; at tiny
        // failure rates the reduction exists but drowns in bootstrap
        // noise.
        let g = chain(10);
        let model = FailureModel::new(0.7);
        let trials = 2_000;
        let reps = 80;
        let spread = |anti: bool| -> f64 {
            let means: Vec<f64> = (0..reps)
                .map(|s| {
                    let mut mc = MonteCarloEstimator::new(trials).with_seed(1000 + s);
                    if anti {
                        mc = mc.antithetic();
                    }
                    mc.run(&g, &model).mean
                })
                .collect();
            let m = means.iter().sum::<f64>() / reps as f64;
            means.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / reps as f64
        };
        let plain = spread(false);
        let anti = spread(true);
        assert!(
            anti < plain,
            "antithetic variance {anti:.3e} not below plain {plain:.3e}"
        );
    }

    #[test]
    fn mirrored_pairs_share_stream() {
        // With antithetic sampling and 2 trials, the two makespans come
        // from mirrored uniforms: for a single task their attempt counts
        // straddle the mean whenever one of them failed.
        let mut g = Dag::new();
        g.add_node(1.0);
        let model = FailureModel::new(0.5);
        let r = MonteCarloEstimator::new(2)
            .with_seed(9)
            .antithetic()
            .run(&g, &model);
        assert!(r.trials == 2);
        assert!(r.min >= 1.0);
    }
}

#[cfg(test)]
mod scenario_tests {
    use super::*;
    use crate::scenario::ScenarioModel;
    use stochdag_dag::Dag;

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

    fn plan(g: &Dag) -> TrialPlan {
        TrialPlan::new(&g.freeze())
    }

    fn scenario_mean(g: &Dag, model: &FailureModel, scenario: &ScenarioModel, seed: u64) -> f64 {
        let mc = MonteCarloEstimator::new(20_000).with_seed(seed);
        mc.run_scenario_on(&plan(g), model, scenario, &mut ModelBuffers::default())
            .mean
    }

    #[test]
    fn iid_scenario_is_bit_identical_to_plain_run() {
        let g = diamond();
        let m = FailureModel::new(0.1);
        let mc = MonteCarloEstimator::new(5_000).with_seed(17);
        let plain = mc.run(&g, &m);
        let via = mc.run_scenario_on(
            &plan(&g),
            &m,
            &ScenarioModel::Iid,
            &mut ModelBuffers::default(),
        );
        assert_eq!(plain.mean, via.mean);
        assert_eq!(plain.variance, via.variance);
    }

    #[test]
    fn never_hot_group_scenario_matches_iid_statistically() {
        // q = 0 ⇒ the mixture collapses to i.i.d. (the trial streams
        // differ because group uniforms are drawn first, so compare
        // means, not bits).
        let g = diamond();
        let m = FailureModel::new(0.2);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0, 1],
            n_groups: 2,
            group_prob: 0.0,
            hazard: 5.0,
        };
        let corr = scenario_mean(&g, &m, &scenario, 3);
        let iid = MonteCarloEstimator::new(20_000).with_seed(4).run(&g, &m);
        assert!(
            (corr - iid.mean).abs() < 6.0 * iid.std_error.max(1e-3),
            "q=0 mixture {corr} vs iid {}",
            iid.mean
        );
    }

    #[test]
    fn always_hot_group_matches_uniform_node_hazard() {
        // q = 1 ⇒ every task runs at hazard m, which is exactly the
        // uniform NodeHazard scenario.
        let g = diamond();
        let m = FailureModel::new(0.15);
        let hot = ScenarioModel::GroupHazard {
            group_of: vec![0, 0, 1, 1],
            n_groups: 2,
            group_prob: 1.0,
            hazard: 3.0,
        };
        let node = ScenarioModel::NodeHazard {
            hazard: vec![3.0; 4],
        };
        let a = scenario_mean(&g, &m, &hot, 5);
        let b = scenario_mean(&g, &m, &node, 6);
        assert!(
            (a - b).abs() / b < 0.02,
            "always-hot {a} vs node-hazard {b}"
        );
    }

    #[test]
    fn correlation_raises_the_expected_makespan() {
        let g = diamond();
        let m = FailureModel::new(0.1);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 0, 0, 0],
            n_groups: 1,
            group_prob: 0.3,
            hazard: 6.0,
        };
        let corr = scenario_mean(&g, &m, &scenario, 9);
        let iid = MonteCarloEstimator::new(20_000).with_seed(9).run(&g, &m);
        assert!(
            corr > iid.mean,
            "hot racks must hurt: {corr} vs {}",
            iid.mean
        );
    }

    #[test]
    fn group_trials_are_deterministic_per_seed() {
        let g = diamond();
        let m = FailureModel::new(0.25);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0, 1],
            n_groups: 2,
            group_prob: 0.4,
            hazard: 2.0,
        };
        let a = scenario_mean(&g, &m, &scenario, 42);
        let b = scenario_mean(&g, &m, &scenario, 42);
        let c = scenario_mean(&g, &m, &scenario, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prepared_estimate_scenario_reports_std_error() {
        let g = diamond();
        let prepared = PreparedDag::new(g);
        let mut p = MonteCarloEstimator::new(2_000).prepare(&prepared);
        let est = p
            .estimate_scenario(
                &FailureModel::new(0.1),
                &ScenarioModel::NodeHazard {
                    hazard: vec![1.0, 2.0, 1.0, 2.0],
                },
            )
            .unwrap();
        assert!(est.value > 0.0);
        assert!(est.std_error.is_some());
        assert_eq!(est.name, "MonteCarlo");
    }
}

#[cfg(test)]
mod kernel_tests {
    //! The block kernel against a verbatim copy of the per-trial
    //! kernel it replaced, and the integer sampling test against the
    //! floating-point comparison it stands for.

    use super::*;
    use proptest::prelude::*;
    use stochdag_dag::NodeId;

    /// Per-thread reusable scratch buffers for one trial.
    struct TrialScratch {
        weights: Vec<f64>,
        completion: Vec<f64>,
        /// Per-group hot flags (group-correlated scenarios only).
        hot: Vec<bool>,
    }

    impl TrialScratch {
        fn new(n: usize) -> TrialScratch {
            TrialScratch {
                weights: vec![0.0; n],
                completion: Vec::with_capacity(n),
                hot: Vec::new(),
            }
        }

        /// Sample one failure scenario and return its makespan.
        ///
        /// Each task consumes exactly one uniform `u`: the 2-state model
        /// fails iff `u ≥ p`, the geometric model inverts the attempt-count
        /// CDF (`N = 1 + ⌊ln(1−u)/ln(1−p)⌋`). One-uniform-per-task is what
        /// makes antithetic mirroring (`u → 1−u`) well defined: mirrored
        /// trials share the RNG stream of their pair.
        fn run_trial(
            &mut self,
            frozen: &FrozenDag,
            psucc: &[f64],
            sampling: SamplingModel,
            seed: u64,
            trial: u64,
            antithetic: bool,
        ) -> f64 {
            let (stream, mirror) = if antithetic {
                (trial >> 1, trial & 1 == 1)
            } else {
                (trial, false)
            };
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(stream)));
            for (i, (&a, &p)) in frozen.weights.iter().zip(psucc.iter()).enumerate() {
                let mut u: f64 = rng.gen(); // [0, 1)
                if mirror {
                    u = 1.0 - u; // (0, 1]
                }
                self.weights[i] = attempts_for(sampling, p, u) as f64 * a;
            }
            frozen.longest_path_with_weights(&self.weights, &mut self.completion)
        }

        /// Sample one group-correlated trial and return its makespan.
        ///
        /// The per-group hot/cold Bernoullis are drawn *before* the task
        /// uniforms from the same per-trial stream, so a trial's outcome is
        /// a pure function of `(seed, trial)` exactly like the i.i.d.
        /// kernel. Hot members use the precomputed `psucc_hot` vector
        /// (`psucc^m`); cold members use the baseline `psucc`.
        #[allow(clippy::too_many_arguments)]
        fn run_group_trial(
            &mut self,
            frozen: &FrozenDag,
            psucc: &[f64],
            psucc_hot: &[f64],
            group_of: &[u32],
            n_groups: usize,
            group_prob: f64,
            sampling: SamplingModel,
            seed: u64,
            trial: u64,
        ) -> f64 {
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(trial)));
            self.hot.clear();
            self.hot
                .extend((0..n_groups).map(|_| rng.gen::<f64>() < group_prob));
            for (i, &a) in frozen.weights.iter().enumerate() {
                let p = if self.hot[group_of[i] as usize] {
                    psucc_hot[i]
                } else {
                    psucc[i]
                };
                let u: f64 = rng.gen();
                self.weights[i] = attempts_for(sampling, p, u) as f64 * a;
            }
            frozen.longest_path_with_weights(&self.weights, &mut self.completion)
        }
    }

    /// Every trial's makespan through the legacy per-trial kernel.
    fn legacy_makespans(
        est: &MonteCarloEstimator,
        frozen: &FrozenDag,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Vec<f64> {
        let n = frozen.node_count();
        let mut psucc: Vec<f64> = frozen
            .weights
            .iter()
            .map(|&a| model.psuccess_of_weight(a))
            .collect();
        if let ScenarioModel::NodeHazard { hazard } = scenario {
            psucc = psucc.iter().zip(hazard).map(|(p, &h)| p.powf(h)).collect();
        }
        let mut scratch = TrialScratch::new(n);
        (0..est.trials as u64)
            .map(|t| match scenario {
                ScenarioModel::GroupHazard {
                    group_of,
                    n_groups,
                    group_prob,
                    hazard,
                } => {
                    let psucc_hot: Vec<f64> = psucc.iter().map(|p| p.powf(*hazard)).collect();
                    scratch.run_group_trial(
                        frozen,
                        &psucc,
                        &psucc_hot,
                        group_of,
                        *n_groups,
                        *group_prob,
                        est.sampling,
                        est.seed,
                        t,
                    )
                }
                _ => scratch.run_trial(frozen, &psucc, est.sampling, est.seed, t, est.antithetic),
            })
            .collect()
    }

    /// Every trial's makespan through the block kernel, evaluating
    /// `models` in turn over one plan and one set of buffers (as a
    /// prepared estimator does).
    fn kernel_makespans(
        est: &MonteCarloEstimator,
        frozen: &FrozenDag,
        models: &[FailureModel],
        scenario: &ScenarioModel,
    ) -> Vec<Vec<f64>> {
        let plan = TrialPlan::new(frozen);
        let mut bufs = ModelBuffers::default();
        models
            .iter()
            .map(|m| {
                let blocks = est.trial_makespans(&plan, m, scenario, &mut bufs);
                blocks.as_flattened()[..est.trials].to_vec()
            })
            .collect()
    }

    fn assert_bit_identical(
        est: &MonteCarloEstimator,
        dag: &Dag,
        models: &[FailureModel],
        scenario: &ScenarioModel,
    ) -> Result<(), String> {
        let frozen = dag.freeze();
        let got = kernel_makespans(est, &frozen, models, scenario);
        for (m, got) in models.iter().zip(&got) {
            let want = legacy_makespans(est, &frozen, m, scenario);
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                if g.to_bits() != w.to_bits() {
                    return Err(format!(
                        "trial {t}: kernel {g} != legacy {w} ({est:?}, lambda {}, {})",
                        m.lambda,
                        scenario.kind_name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// A random layered DAG: `widths[l]` tasks in layer `l`, edges
    /// between consecutive layers and some skip edges chosen by `bits`,
    /// weights on a coarse grid with zeros and duplicates, and node ids
    /// shuffled so the topological order is not the id order.
    fn layered_dag(widths: &[usize], bits: &[bool], rng: &mut StdRng) -> Dag {
        let total: usize = widths.iter().sum();
        let mut ids: Vec<usize> = (0..total).collect();
        for i in (1..total).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut g = Dag::new();
        let weights: Vec<f64> = (0..total)
            .map(|i| {
                let w = rng.gen_range(0u32..6) as f64 * 0.5;
                if i == 0 {
                    w + 1.0
                } else {
                    w
                }
            })
            .collect();
        let nodes: Vec<NodeId> = weights.iter().map(|&w| g.add_node(w)).collect();
        let mut layers = Vec::new();
        let mut next = 0;
        for &w in widths {
            layers.push((next..next + w).map(|k| nodes[ids[k]]).collect::<Vec<_>>());
            next += w;
        }
        let mut bit = bits.iter().cycle();
        for l in 1..layers.len() {
            for (j, &v) in layers[l].iter().enumerate() {
                // Every task below the first layer has at least one
                // predecessor in the layer right above it.
                g.add_edge(layers[l - 1][j % layers[l - 1].len()], v);
                for above in &layers[l.saturating_sub(2)..l] {
                    for &u in above {
                        if *bit.next().unwrap() && !g.preds(v).contains(&u) {
                            g.add_edge(u, v);
                        }
                    }
                }
            }
        }
        g
    }

    fn scenario_for(kind: u32, n: usize, rng: &mut StdRng) -> ScenarioModel {
        match kind {
            0 => ScenarioModel::Iid,
            1 => ScenarioModel::NodeHazard {
                hazard: (0..n)
                    .map(|_| 1.0 + rng.gen_range(0u32..4) as f64)
                    .collect(),
            },
            _ => {
                let n_groups = rng.gen_range(1usize..4);
                ScenarioModel::GroupHazard {
                    group_of: (0..n).map(|_| rng.gen_range(0..n_groups as u32)).collect(),
                    n_groups,
                    group_prob: rng.gen_range(0u32..5) as f64 / 4.0,
                    hazard: 1.0 + rng.gen_range(0u32..5) as f64,
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn block_kernel_matches_legacy_trial_kernel(
            widths in proptest::collection::vec(1usize..7, 1..7),
            bits in proptest::collection::vec(any::<bool>(), 64),
            log_pfails in proptest::collection::vec(-6.0f64..-0.0457, 1..4),
            knobs in 0u64..u64::MAX,
        ) {
            // pfail is log-uniform in [1e-6, 0.9]: from trials that
            // almost never fail (no path work) to blocks whose every
            // lane is dirty (the 8-lane pass).
            let mut rng = StdRng::seed_from_u64(knobs);
            let dag = layered_dag(&widths, &bits, &mut rng);
            let models: Vec<FailureModel> = log_pfails
                .iter()
                .map(|&l| FailureModel::from_pfail_for_dag(10f64.powf(l), &dag))
                .collect();
            let scenario = scenario_for(rng.gen_range(0u32..3), dag.node_count(), &mut rng);
            let mut est = MonteCarloEstimator::new(rng.gen_range(1usize..70))
                .with_seed(rng.next_u64());
            if rng.gen_bool(0.5) {
                est = est.with_sampling(SamplingModel::TwoState);
            }
            if rng.gen_bool(0.5) {
                est = est.antithetic();
            }
            if rng.gen_bool(0.5) {
                est = est.sequential();
            }
            assert_bit_identical(&est, &dag, &models, &scenario)?;
        }
    }

    #[test]
    fn block_kernel_matches_legacy_on_factorization_dags() {
        use stochdag_taskgraphs::{cholesky_dag, lu_dag, KernelTimings};
        let t = KernelTimings::paper_default();
        for dag in [lu_dag(5, &t), cholesky_dag(6, &t)] {
            let models: Vec<FailureModel> = [0.3, 0.01, 0.001]
                .iter()
                .map(|&p| FailureModel::from_pfail_for_dag(p, &dag))
                .collect();
            for est in [
                MonteCarloEstimator::new(203).with_seed(5),
                MonteCarloEstimator::new(203)
                    .with_seed(6)
                    .antithetic()
                    .sequential(),
            ] {
                assert_bit_identical(&est, &dag, &models, &ScenarioModel::Iid).unwrap();
            }
        }
    }

    /// `m·2⁻⁵³ < p`, the legacy first-attempt success test, evaluated
    /// in floating point on the draw the legacy kernel saw.
    fn float_succeeds(m: u64, mirror: bool, p: f64) -> bool {
        let u = m as f64 * UNIT;
        let u = if mirror { 1.0 - u } else { u };
        u < p
    }

    /// Check the integer test against the float test for draw `m`
    /// (plain and mirrored), and that the draw the slow path converts
    /// is the legacy uniform bit for bit.
    fn check_draw(m: u64, p: f64) {
        let thr = threshold(p);
        if m < 1 << 53 {
            assert_eq!(
                may_fail(m, thr),
                !float_succeeds(m, false, p),
                "m {m} p {p:e}"
            );
        }
        if m <= 1 << 53 && m > 0 {
            // The mirrored draw `2⁵³ − m` is the legacy `1 − u`.
            let mirrored = (1u64 << 53) - m;
            let legacy_u = 1.0 - m as f64 * UNIT;
            assert_eq!((mirrored as f64 * UNIT).to_bits(), legacy_u.to_bits());
            if m < 1 << 53 {
                assert_eq!(
                    may_fail(mirrored, thr),
                    !float_succeeds(m, true, p),
                    "mirrored m {m} p {p:e}"
                );
            }
        }
    }

    fn next_up(p: f64) -> f64 {
        f64::from_bits(p.to_bits() + 1)
    }

    fn next_down(p: f64) -> f64 {
        f64::from_bits(p.to_bits() - 1)
    }

    #[test]
    fn integer_test_is_the_float_comparison_at_every_boundary() {
        let mut ps = Vec::new();
        for k in [
            1u64,
            2,
            3,
            1000,
            1 << 26,
            (1 << 52) + 1,
            (1 << 53) - 2,
            (1 << 53) - 1,
        ] {
            let p = k as f64 * UNIT;
            ps.extend([p, next_up(p), next_down(p)]);
        }
        ps.extend([0.3, 0.5, 0.999, 1e-300, f64::MIN_POSITIVE, 5e-324, 1e-310]);
        for p in ps {
            let thr = threshold(p);
            for m in [
                thr.saturating_sub(1),
                thr,
                thr.saturating_add(1),
                0,
                1,
                (1 << 53) - 1,
                1 << 53,
            ] {
                check_draw(m, p);
                check_draw((1u64 << 53).saturating_sub(m), p);
            }
        }
    }

    #[test]
    fn integer_test_edge_probabilities() {
        // p = 0 (and -0): every draw fails the first attempt.
        for p in [0.0, -0.0] {
            assert_eq!(threshold(p), 0);
            for m in [0, 1, (1u64 << 53) - 1, 1 << 53] {
                check_draw(m, p);
                assert!(may_fail(m, threshold(p)));
            }
        }
        // p ≥ 1 never takes the slow path, even for the mirrored draw
        // u = 1 that the float test would reject: `attempts_for`'s
        // `p >= 1` arm returns 1 there too.
        for p in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(threshold(p), u64::MAX);
            for m in [0, 1, (1u64 << 53) - 1, 1 << 53] {
                assert!(!may_fail(m, threshold(p)));
                for sampling in [SamplingModel::Geometric, SamplingModel::TwoState] {
                    assert_eq!(attempts_for(sampling, p, m as f64 * UNIT), 1);
                }
            }
        }
        // NaN: every draw takes the slow path, which answers exactly as
        // the legacy kernel did.
        assert_eq!(threshold(f64::NAN), 0);
        for m in [0, 1, (1u64 << 53) - 1] {
            check_draw(m, f64::NAN);
            assert!(may_fail(m, threshold(f64::NAN)));
        }
        assert_eq!(attempts_for(SamplingModel::Geometric, f64::NAN, 0.5), 1);
        // A subnormal p admits exactly the draw m = 0.
        let tiny = 5e-324;
        assert_eq!(threshold(tiny), 1);
        assert!(!may_fail(0, threshold(tiny)));
        assert!(may_fail(1, threshold(tiny)));
    }

    #[test]
    fn failure_free_trials_return_the_stored_makespan() {
        // Failure-free: every trial is the stored failure-free makespan.
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.5);
        g.add_edge(a, b);
        let plan = TrialPlan::new(&g.freeze());
        assert_eq!(plan.prefix_best, vec![0.0, 1.0, 3.5]);
        let est = MonteCarloEstimator::new(11).with_seed(3);
        let blocks = est.trial_makespans(
            &plan,
            &FailureModel::failure_free(),
            &ScenarioModel::Iid,
            &mut ModelBuffers::default(),
        );
        assert_eq!(blocks.len(), 2);
        assert!(blocks.as_flattened().iter().all(|&m| m == 3.5));
    }
}
