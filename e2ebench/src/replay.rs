//! The traced in-process replay of a campaign: the benchmark drives
//! the same work the engine's lease executor does — plan, generate or
//! parse the DAGs, resolve scenarios, prepare, evaluate every estimator
//! cell and Monte-Carlo reference cache-first, encode and decode the
//! leases and events, write the sinks — calling each layer's public
//! functions inside a span named after the layer.
//!
//! The replay reproduces the work, not the rows: cell seeds are the
//! benchmark's own, so values differ from the program's. Correctness
//! is checked elsewhere against the engine's own in-process run.

use crate::spans::Tracer;
use stochdag_core::{Estimator, FailureModel, MonteCarloEstimator, PreparedEstimator};
use stochdag_dag::{structural_hash, Dag, PreparedDag};
use stochdag_engine::{
    cell_key, decode_event, decode_lease, encode_event, encode_lease, summarize, CacheTier,
    CampaignEvent, CsvSink, DagSpec, EstimatorRegistry, JsonlSink, ResultCache, ResultSink,
    SweepRow, SweepSpec, WorkLease,
};
use stochdag_taskgraphs::KernelTimings;

/// Counts one replayed campaign produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayCounts {
    /// Estimator cells evaluated (cache misses).
    pub cells: usize,
    /// Monte-Carlo trials run by `mc:N` cells.
    pub mc_trials: u64,
    /// Tasks read from trace files.
    pub tasks_parsed: usize,
    /// `PreparedDag` builds.
    pub prepares: usize,
    /// Bytes the CSV and JSONL sinks wrote.
    pub sink_bytes: usize,
    /// Leases encoded and decoded.
    pub leases: usize,
}

/// The span name of an estimator family's cells.
pub fn family_span(canonical: &str) -> &'static str {
    match canonical.split(':').next().unwrap_or("") {
        "first-order" => "core.first_order",
        "second-order" => "core.second_order",
        "sculli" => "core.sculli",
        "corlca" => "core.corlca",
        "dodin" => "core.dodin",
        "spelde" => "core.spelde",
        "mc" => "core.mc",
        _ => "core.other",
    }
}

/// Trials of an `mc:N` estimator id (0 for other families).
fn mc_trials(canonical: &str) -> u64 {
    match canonical.split_once(':') {
        Some(("mc", n)) => n.parse().unwrap_or(0),
        _ => 0,
    }
}

/// A deterministic per-unit seed (the benchmark's own derivation).
fn unit_seed(spec_seed: u64, hash: u128, lambda: f64, unit: &str) -> u64 {
    let mut h = spec_seed ^ (hash as u64) ^ ((hash >> 64) as u64) ^ lambda.to_bits();
    for b in unit.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & ((1u64 << 53) - 1)
}

/// One (model, scenario) entry of an instance's model axis.
struct Entry {
    model: FailureModel,
    scenario: stochdag_core::ScenarioModel,
    label: String,
    suffix: String,
}

/// Replay the campaign `spec_text` against `cache`, recording spans on
/// `t`. Everything runs on the calling thread.
pub fn replay(t: &Tracer, spec_text: &str, cache: &ResultCache) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    t.span("bench.campaign", || -> Result<(), String> {
        // Plan: parse the spec and expand it (DAG generation, trace
        // parsing and scenario resolution are their own layers).
        let (spec, instances, models, leases) = t.span("engine.plan", || {
            let spec = SweepSpec::from_str_auto(spec_text).map_err(|e| e.to_string())?;
            spec.validate().map_err(|e| e.to_string())?;
            let mut instances: Vec<(String, Dag)> = Vec::new();
            for d in &spec.dags {
                match d {
                    DagSpec::Factorization { class, ks } => {
                        for &k in ks {
                            let dag = t.span("taskgraphs.generate", || {
                                class.generate(k, &KernelTimings::paper_default())
                            });
                            instances.push((format!("{}:k={k}", class.name()), dag));
                        }
                    }
                    DagSpec::Dot { path } | DagSpec::TraceJson { path } => {
                        let trace = t.span("workload.parse", || {
                            let p = std::path::Path::new(path);
                            if matches!(d, DagSpec::Dot { .. }) {
                                stochdag_workload::load_dot(p)
                            } else {
                                stochdag_workload::load_trace_json(p)
                            }
                        });
                        let trace = trace.map_err(|e| e.to_string())?;
                        counts.tasks_parsed += trace.dag.node_count();
                        instances.push((trace.name.clone(), trace.dag));
                    }
                    other => {
                        for inst in other.materialize().map_err(|e| e.to_string())? {
                            instances.push((inst.id, inst.dag));
                        }
                    }
                }
            }
            let mut models: Vec<Vec<Entry>> = Vec::new();
            for (_, dag) in &instances {
                let scenarios: Vec<(stochdag_core::ScenarioModel, String)> =
                    if spec.scenarios.is_empty() {
                        vec![(stochdag_core::ScenarioModel::Iid, String::new())]
                    } else {
                        t.span("workload.scenario_resolve", || {
                            spec.scenarios
                                .iter()
                                .map(|s| {
                                    let suffix = if s.is_iid() {
                                        String::new()
                                    } else {
                                        format!("|{s}")
                                    };
                                    s.resolve(dag).map(|m| (m, suffix))
                                })
                                .collect::<Result<_, _>>()
                        })
                        .map_err(|e| e.to_string())?
                    };
                let mut entries = Vec::new();
                for &p in &spec.pfails {
                    let model = FailureModel::from_pfail_for_dag(p, dag);
                    for (scenario, suffix) in &scenarios {
                        entries.push(Entry {
                            model,
                            scenario: scenario.clone(),
                            label: format!("pfail={p}{suffix}"),
                            suffix: suffix.clone(),
                        });
                    }
                }
                models.push(entries);
            }
            let (m_count, e_count) = (models.first().map_or(0, Vec::len), spec.estimators.len());
            let leases: Vec<WorkLease> = (0..instances.len() * e_count)
                .map(|l| WorkLease {
                    lease_id: l,
                    cells: (0..m_count)
                        .map(|m| ((l / e_count) * m_count + m) * e_count + l % e_count)
                        .collect(),
                })
                .collect();
            Ok::<_, String>((spec, instances, models, leases))
        })?;

        let prepared: Vec<(PreparedDag, u128)> = instances
            .iter()
            .map(|(_, dag)| {
                t.span("dag.prepare", || {
                    counts.prepares += 1;
                    (PreparedDag::new(dag.clone()), structural_hash(dag))
                })
            })
            .collect();

        let registry = EstimatorRegistry::standard();
        let ids: Vec<String> = spec.estimators.iter().map(ToString::to_string).collect();
        let reference_id = format!("mc-reference:{}", spec.reference_trials);
        let m_count = models.first().map_or(0, Vec::len);
        let mut references: Vec<Option<f64>> = vec![None; instances.len() * m_count];
        let mut rows: Vec<SweepRow> = Vec::new();
        let mut events: Vec<String> = Vec::new();
        let eval = |key: &str,
                    seed: u64,
                    span: &'static str,
                    entry: &Entry,
                    prep: &mut Option<Box<dyn PreparedEstimator>>,
                    make: &dyn Fn() -> Box<dyn PreparedEstimator>|
         -> Result<(stochdag_core::Estimate, Option<CacheTier>), String> {
            if let Some(hit) = t.span("engine.cache_get", || cache.lookup_tiered(key)) {
                return Ok((hit.0, Some(hit.1)));
            }
            let est = t.span(span, || {
                let p = prep.get_or_insert_with(make);
                p.reseed(seed);
                p.estimate_scenario(&entry.model, &entry.scenario)
            });
            let est = est.map_err(|e| e.to_string())?;
            t.span("engine.cache_put", || cache.store(key, &est));
            Ok((est, None))
        };

        for lease in &leases {
            let line = t.span("engine.lease_codec", || encode_lease(lease));
            let lease = t
                .span("engine.lease_codec", || decode_lease(&line))
                .map_err(|e| format!("lease codec: {e}"))?;
            counts.leases += 1;
            events.push(encode_event(&CampaignEvent::LeaseStart {
                lease_id: lease.lease_id,
                cells: lease.cells.len(),
            }));
            let mut prep: Option<Box<dyn PreparedEstimator>> = None;
            for &idx in &lease.cells {
                let e = idx % ids.len();
                let m = (idx / ids.len()) % m_count;
                let i = idx / (ids.len() * m_count);
                let (pdag, hash) = &prepared[i];
                let entry = &models[i][m];
                let lambda = entry.model.lambda;
                let scenario = i * m_count + m;
                let reference = match references[scenario] {
                    Some(v) => v,
                    None => {
                        let unit = format!("{reference_id}{}", entry.suffix);
                        let seed = unit_seed(spec.seed, *hash, lambda, &unit);
                        let key = cell_key(*hash, lambda, &unit, seed);
                        let trials = spec.reference_trials;
                        let sampling = spec.reference_sampling;
                        let mut ref_prep = None;
                        let make = || {
                            MonteCarloEstimator::new(trials)
                                .with_sampling(sampling)
                                .prepare(pdag)
                        };
                        let (est, _) =
                            eval(&key, seed, "core.mc_reference", entry, &mut ref_prep, &make)?;
                        references[scenario] = Some(est.value);
                        est.value
                    }
                };
                let unit = format!("{}{}", ids[e], entry.suffix);
                let seed = unit_seed(spec.seed, *hash, lambda, &unit);
                let key = cell_key(*hash, lambda, &unit, seed);
                let est_spec = &spec.estimators[e];
                let make = || {
                    registry
                        .build(est_spec, seed)
                        .expect("spec validated")
                        .prepare(pdag)
                };
                let (est, tier) = eval(&key, seed, family_span(&ids[e]), entry, &mut prep, &make)?;
                if tier.is_none() {
                    counts.cells += 1;
                    counts.mc_trials += mc_trials(&ids[e]);
                }
                let row = SweepRow {
                    dag: instances[i].0.clone(),
                    tasks: pdag.node_count(),
                    edges: pdag.edge_count(),
                    model: entry.label.clone(),
                    lambda,
                    estimator: ids[e].clone(),
                    value: est.value,
                    reference,
                    reference_std_error: 0.0,
                    rel_error: (est.value - reference) / reference,
                    elapsed_s: est.elapsed.as_secs_f64(),
                    seed,
                };
                let event = CampaignEvent::Cell {
                    index: idx,
                    cached: tier.is_some(),
                    tier,
                    row,
                };
                let line = t.span("engine.lease_codec", || encode_event(&event));
                events.push(line);
                if let CampaignEvent::Cell { row, .. } = event {
                    rows.push(row);
                }
            }
        }
        // The coordinator's side of the wire: decode every event.
        t.span("engine.lease_codec", || {
            events
                .iter()
                .try_for_each(|l| decode_event(l).map(drop))
                .map_err(|e| format!("event codec: {e}"))
        })?;
        rows.sort_by_key(|r| (r.dag.clone(), r.model.clone(), r.estimator.clone()));
        counts.sink_bytes = t
            .span("engine.sink", || -> std::io::Result<usize> {
                let mut csv = CsvSink::new(Vec::new());
                let mut jsonl = JsonlSink::new(Vec::new());
                let summary = summarize(&rows);
                for sink in [&mut csv as &mut dyn ResultSink, &mut jsonl] {
                    sink.begin()?;
                    for r in &rows {
                        sink.row(r)?;
                    }
                    sink.summary(&summary)?;
                    sink.finish()?;
                }
                Ok(csv.into_inner().len() + jsonl.into_inner().len())
            })
            .map_err(|e| e.to_string())?;
        Ok(())
    })?;
    Ok(counts)
}
