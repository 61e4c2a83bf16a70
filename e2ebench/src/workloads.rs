//! The four workloads, each driven through the `stochdag` binary's real
//! entry points, and their correctness gates.

use crate::gen::{self, ServeRequest};
use crate::procs::{self, Proc, ProcSet, WorkDir};
use crate::replay::{self, ReplayCounts};
use crate::spans::{self, Tracer};
use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stochdag_engine::{Campaign, CsvSink, ProgressMode, ResultCache, ResultSink, SweepSpec};
use stochdag_serve::{ServeClient, ShutdownMode};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["table1-cold", "traces-workers", "spool-grid", "serve-mixed"];

/// Whether to repeat set-up once more: at least 3 times, then until 15
/// times or 3 s of set-up. The median is reported.
fn more_setups(done: &[f64]) -> bool {
    done.len() < 3 || (done.len() < 15 && done.iter().sum::<f64>() < 3.0)
}

/// Everything one run needs.
pub struct Ctx {
    /// The `stochdag` binary.
    pub bin: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub work: WorkDir,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Every spawned process.
    pub procs: ProcSet,
}

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// Cells and requests attempted.
    pub attempted: u64,
    /// Failed cells, failed or refused requests, and mismatched rows.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Sample counts behind the end-to-end timings, for the report.
    pub samples: Vec<String>,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Share of the traced replay's wall per layer time metric.
    pub shares: BTreeMap<&'static str, f64>,
    /// The traced replay's spans, as JSONL.
    pub spans_jsonl: String,
}

/// Run one workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "table1-cold" => sweep_workload(ctx, SweepKind::Table1),
        "traces-workers" => sweep_workload(ctx, SweepKind::Traces),
        "spool-grid" => sweep_workload(ctx, SweepKind::Spool),
        "serve-mixed" => serve_workload(ctx),
        other => Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Drop the columns that legitimately differ between runs: a row's
/// `elapsed_s` (second-last field) and a summary line's
/// `total_elapsed_s` (last field).
pub fn normalize_csv(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.starts_with('#') {
            out.push_str(line.rsplit_once(',').map_or(line, |(head, _)| head));
        } else {
            let mut parts = line.rsplitn(3, ',');
            let (seed, _elapsed, head) = (parts.next(), parts.next(), parts.next());
            match (head, seed) {
                (Some(head), Some(seed)) => {
                    out.push_str(head);
                    out.push(',');
                    out.push_str(seed);
                }
                _ => out.push_str(line),
            }
        }
        out.push('\n');
    }
    out
}

/// Mean |rel_error| over the non-Monte-Carlo data rows of a CSV.
pub fn rel_errors(csv: &str) -> Vec<f64> {
    csv.lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            (f.len() == 12 && !f[5].starts_with("mc:"))
                .then(|| f[9].parse::<f64>().ok().map(f64::abs))
                .flatten()
        })
        .collect()
}

/// Data rows of a CSV (header and summary excluded).
fn data_rows(csv: &str) -> usize {
    csv.lines().skip(1).filter(|l| !l.starts_with('#')).count()
}

/// The rows an in-process `sweep` of `spec_text` writes, normalized.
fn expected_csv(spec_text: &str, cache: &Arc<ResultCache>) -> Result<String, String> {
    let spec = SweepSpec::from_str_auto(spec_text).map_err(|e| e.to_string())?;
    let out = Campaign::builder(spec)
        .cache(cache.clone())
        .build()
        .and_then(|c| c.run())
        .map_err(|e| format!("in-process reference sweep: {e}"))?;
    let mut csv = CsvSink::new(Vec::new());
    csv.begin()
        .and_then(|()| out.rows.iter().try_for_each(|r| csv.row(r)))
        .and_then(|()| csv.summary(&out.summary))
        .and_then(|()| csv.finish())
        .map_err(|e| e.to_string())?;
    Ok(normalize_csv(&String::from_utf8_lossy(&csv.into_inner())))
}

/// Count the data rows of `got` that differ from `want` (a missing or
/// extra row counts as a difference).
fn mismatched_rows(got: &str, want: &str) -> u64 {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let differing = g.iter().zip(&w).filter(|(a, b)| a != b).count();
    (differing + g.len().abs_diff(w.len())) as u64
}

#[derive(Clone, Copy, PartialEq)]
enum SweepKind {
    Table1,
    Traces,
    Spool,
}

impl SweepKind {
    /// Workload name, which is also the campaign (and CSV) name.
    fn name(self) -> &'static str {
        match self {
            SweepKind::Table1 => "table1-cold",
            SweepKind::Traces => "traces-workers",
            SweepKind::Spool => "spool-grid",
        }
    }
}

/// Write the workload's inputs into `dir` and self-check them; returns
/// the spec path and text.
fn write_inputs(kind: SweepKind, seed: u64, dir: &Path) -> Result<(PathBuf, String), String> {
    let write = |name: &str, text: &str| {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("writing {}: {e}", p.display()))?;
        Ok::<_, String>(p)
    };
    let spec = match kind {
        SweepKind::Table1 => gen::table1_spec(seed),
        SweepKind::Spool => gen::spool_spec(seed),
        SweepKind::Traces => {
            let traces = gen::trace_files(seed);
            for t in &traces {
                let path = write(&t.file, &t.text)?;
                // Self-check: every generated trace parses, whole.
                let parsed = if t.kind == "dot" {
                    stochdag_workload::load_dot(&path)
                } else {
                    stochdag_workload::load_trace_json(&path)
                }
                .map_err(|e| format!("generated trace {} does not parse: {e}", t.file))?;
                if parsed.dag.node_count() != t.tasks {
                    return Err(format!("generated trace {} lost tasks", t.file));
                }
            }
            gen::traces_spec(seed, &dir.display().to_string(), &traces)
        }
    };
    Ok((write("spec.json", &spec)?, spec))
}

/// Cells the program will run for `spec_text` (the engine's own plan).
fn planned_cells(spec_text: &str) -> Result<usize, String> {
    let spec = SweepSpec::from_str_auto(spec_text).map_err(|e| e.to_string())?;
    Campaign::builder(spec)
        .build()
        .and_then(|c| c.dry_run())
        .map(|d| d.cells)
        .map_err(|e| e.to_string())
}

/// Fail with the process's stderr when it did not exit cleanly.
fn check_exit(p: Proc, what: &str) -> Result<procs::Exit, String> {
    let exit = p.wait()?;
    if !exit.status.success() {
        return Err(format!(
            "{what} failed ({}): {}",
            exit.status,
            exit.stderr.trim()
        ));
    }
    Ok(exit)
}

/// One campaign through the CLI.
struct CampaignRun {
    wall: Duration,
    csv: String,
    metrics: Option<serde::Value>,
    /// User+system time of the campaign's processes.
    cpu_ms: f64,
    /// Spawn until the coordinator's first stderr line.
    startup: Option<Duration>,
}

fn run_campaign(
    ctx: &Ctx,
    kind: SweepKind,
    spec: &Path,
    dir: &Path,
    with_metrics: bool,
) -> Result<CampaignRun, String> {
    let (cache, out, spool) = (dir.join("cache"), dir.join("out"), dir.join("spool"));
    let metrics = dir.join("metrics.json");
    let mut cmd = Command::new(&ctx.bin);
    cmd.arg("sweep").arg("--spec").arg(spec);
    cmd.arg("--out").arg(&out).arg("--cache").arg(&cache);
    cmd.args(["--progress", "none"]);
    match kind {
        SweepKind::Table1 => {
            cmd.args(["--jobs", "2"]);
        }
        SweepKind::Traces => {
            cmd.args(["--workers", "2", "--jobs", "1"]);
        }
        SweepKind::Spool => {
            std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
            cmd.arg("--spool").arg(&spool);
        }
    }
    if with_metrics {
        cmd.arg("--metrics-out").arg(&metrics);
    }
    let cpu0 = procs::reaped_children_cpu_ms();
    let t0 = Instant::now();
    let mut workers = Vec::new();
    if kind == SweepKind::Spool {
        for w in 0..2 {
            let mut wc = Command::new(&ctx.bin);
            wc.arg("sweep-worker").arg("--spool").arg(&spool);
            wc.arg("--cache")
                .arg(&cache)
                .args(["--jobs", "1", "--max-wait", "60"]);
            wc.arg("--name").arg(format!("w{w}"));
            workers.push(ctx.procs.spawn(wc, "sweep-worker", Stdio::null())?);
        }
    }
    let coordinator = check_exit(ctx.procs.spawn(cmd, "sweep", Stdio::null())?, "sweep");
    if coordinator.is_err() && kind == SweepKind::Spool {
        // Let the workers stop by themselves before they are reaped.
        let _ = std::fs::write(spool.join("stop"), "abort");
    }
    let startup = coordinator?.startup;
    for w in workers {
        check_exit(w, "sweep-worker")?;
    }
    let wall = t0.elapsed();
    let cpu_ms = procs::reaped_children_cpu_ms() - cpu0;
    let csv_path = out.join(format!("{}.csv", kind.name()));
    let csv = std::fs::read_to_string(&csv_path)
        .map_err(|e| format!("reading {}: {e}", csv_path.display()))?;
    let metrics = if with_metrics {
        let text = std::fs::read_to_string(&metrics).map_err(|e| e.to_string())?;
        Some(serde::json::parse(&text).map_err(|e| format!("metrics report: {e:?}"))?)
    } else {
        None
    };
    Ok(CampaignRun {
        wall,
        csv,
        metrics,
        cpu_ms,
        startup,
    })
}

/// A counter or span total from a `--metrics-out` report.
fn report_num(report: &serde::Value, path: &[&str]) -> f64 {
    let mut v = report;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

fn report_counters_with_prefix(report: &serde::Value, prefix: &str) -> f64 {
    match report
        .get("detail")
        .and_then(|d| d.get("telemetry"))
        .and_then(|t| t.get("counters"))
    {
        Some(serde::Value::Obj(pairs)) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_f64())
            .sum(),
        _ => 0.0,
    }
}

fn sweep_workload(ctx: &Ctx, kind: SweepKind) -> Result<Outcome, String> {
    let root = ctx.work.path();
    // Set-up: generate and self-check the inputs, plan the campaign and
    // sweep it in process for the rows every campaign must reproduce,
    // and have the binary validate the spec (`--dry-run`). The
    // in-process sweep also keeps set-up long enough that its median
    // follows the machine's speed rather than process-spawn jitter.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    while more_setups(&setup_s) {
        let t0 = Instant::now();
        let dir = root.join(format!("inputs-{}", setup_s.len()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (spec_path, spec_text) = write_inputs(kind, ctx.seed, &dir)?;
        let cells = planned_cells(&spec_text)?;
        let expected = expected_csv(&spec_text, &Arc::new(ResultCache::in_memory()))?;
        if data_rows(&expected) != cells {
            return Err(format!(
                "in-process sweep wrote {} rows, plan has {cells} cells",
                data_rows(&expected)
            ));
        }
        let mut dry = Command::new(&ctx.bin);
        dry.arg("sweep")
            .arg("--spec")
            .arg(&spec_path)
            .arg("--dry-run");
        check_exit(
            ctx.procs.spawn(dry, "sweep --dry-run", Stdio::null())?,
            "sweep --dry-run",
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some((spec_path, spec_text, cells, expected));
    }
    let (spec_path, spec_text, cells, expected) = inputs.expect("set up at least once");

    // Measure: cold campaigns back to back for the run's length.
    ctx.procs.reset_peak();
    let start = Instant::now();
    let mut runs: Vec<(CampaignRun, bool)> = Vec::new();
    let mut failed_campaigns = 0u64;
    let mut cache_bytes = 0;
    while runs.len() + (failed_campaigns as usize) < 2
        || start.elapsed().as_secs_f64() < ctx.seconds
    {
        let i = runs.len() + failed_campaigns as usize;
        let dir = root.join(format!("campaign-{i}"));
        // Traced runs alternate the program's own telemetry on and off,
        // which measures its overhead.
        let with_metrics = ctx.trace && i.is_multiple_of(2);
        match run_campaign(ctx, kind, &spec_path, &dir, with_metrics) {
            Ok(run) => {
                if ctx.trace {
                    cache_bytes = procs::dir_bytes(&dir.join("cache"));
                }
                runs.push((run, with_metrics));
            }
            Err(e) => {
                eprintln!("campaign {i} failed: {e}");
                failed_campaigns += 1;
                if failed_campaigns >= 3 {
                    return Err(e);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let peak_rss_mb = ctx.procs.peak_rss_mb();

    // Verify every campaign's rows against the in-process sweep.
    let mut out = Outcome {
        attempted: ((runs.len() as u64) + failed_campaigns) * cells as u64,
        failed: failed_campaigns * cells as u64,
        ..Outcome::default()
    };
    let mut rel = Vec::new();
    for (run, _) in &runs {
        out.failed += mismatched_rows(&normalize_csv(&run.csv), &expected);
        rel.extend(rel_errors(&run.csv));
    }

    // Per-campaign medians keep a burst of outside load in one campaign
    // from moving the run's figures.
    let walls: Vec<f64> = runs.iter().map(|(r, _)| ms(r.wall)).collect();
    let cpus: Vec<f64> = runs.iter().map(|(r, _)| r.cpu_ms).collect();
    let wall_ms = stats::median(&walls).unwrap_or(0.0);
    out.e2e
        .insert("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    out.e2e
        .insert("cells_per_s", cells as f64 * 1000.0 / wall_ms);
    out.layers.insert(
        "proc.cpu_ms_per_cell",
        stats::median(&cpus).unwrap_or(0.0) / cells as f64,
    );
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    out.e2e.insert("campaign_p50_ms", wall_ms);
    out.e2e.insert(
        "rel_err_mean",
        rel.iter().sum::<f64>() / rel.len().max(1) as f64,
    );
    out.samples.push(format!(
        "{} campaigns of {cells} cells, {} set-ups",
        runs.len(),
        setup_s.len()
    ));

    if ctx.trace {
        let reports: Vec<&serde::Value> = runs
            .iter()
            .filter_map(|(r, _)| r.metrics.as_ref())
            .collect();
        let per_report = |f: &dyn Fn(&serde::Value) -> f64| {
            reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
        };
        let mut program = BTreeMap::new();
        let stable_cells = |r: &serde::Value, k: &str| report_num(r, &["stable", "cells", k]);
        let hits = per_report(&|r| stable_cells(r, "memory_hits") + stable_cells(r, "disk_hits"));
        let misses = per_report(&|r| stable_cells(r, "computed"));
        program.insert("engine.cache_hits", hits);
        program.insert("engine.cache_misses", misses);
        program.insert("engine.cache_hit_ratio", hits / (hits + misses).max(1.0));
        program.insert(
            "engine.queue_wait_ms",
            per_report(&|r| {
                report_num(
                    r,
                    &["detail", "telemetry", "spans", "queue_wait", "total_ns"],
                ) / 1e6
            }),
        );
        program.insert(
            "engine.lease_retries",
            per_report(&|r| report_num(r, &["detail", "telemetry", "counters", "worker_retries"])),
        );
        program.insert(
            "engine.spool_reclaims",
            per_report(&|r| report_num(r, &["detail", "telemetry", "counters", "spool_reclaims"])),
        );
        if kind == SweepKind::Spool {
            // Coordinator wall minus the busy time its leases reported.
            let idle: Vec<f64> = runs
                .iter()
                .filter_map(|(r, _)| {
                    let m = r.metrics.as_ref()?;
                    let busy_ms: f64 = r
                        .csv
                        .lines()
                        .skip(1)
                        .filter(|l| !l.starts_with('#'))
                        .filter_map(|l| l.rsplit(',').nth(1)?.parse::<f64>().ok())
                        .sum::<f64>()
                        * 1000.0;
                    Some((report_num(m, &["detail", "wall_s"]) * 1000.0 - busy_ms).max(0.0))
                })
                .collect();
            program.insert("engine.spool_idle_ms", stats::median(&idle).unwrap_or(0.0));
            let cells_reported = per_report(&|r| report_counters_with_prefix(r, "spool_cells_"));
            if (cells_reported - cells as f64).abs() > 0.5 {
                out.failed += 1;
                eprintln!("spool workers reported {cells_reported} cells, plan has {cells}");
            }
        }
        let startups: Vec<f64> = runs.iter().filter_map(|(r, _)| r.startup.map(ms)).collect();
        program.insert("cli.startup_ms", stats::median(&startups).unwrap_or(0.0));
        let (on, off): (Vec<_>, Vec<_>) = runs.iter().partition(|(_, m)| *m);
        let median_wall = |v: &[&(CampaignRun, bool)]| {
            stats::median(&v.iter().map(|(r, _)| ms(r.wall)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let (w_on, w_off) = (median_wall(&on), median_wall(&off));
        program.insert(
            "trace.overhead_pct",
            if w_off > 0.0 {
                (w_on / w_off - 1.0) * 100.0
            } else {
                0.0
            },
        );
        program.insert("engine.cache_bytes", cache_bytes as f64);

        let cache = ResultCache::on_disk(root.join("replay-cache"));
        let tracer = Tracer::new();
        tracer.set_id(&format!("{}-replay", kind.name()));
        let counts = replay::replay(&tracer, &spec_text, &cache)?;
        layer_metrics(&mut out, &tracer, &counts, 1.0, program);
    }
    Ok(out)
}

/// Fill the per-layer metrics from a traced replay of `campaigns`
/// campaigns plus what the program itself reported.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    counts: &ReplayCounts,
    campaigns: f64,
    program: BTreeMap<&'static str, f64>,
) {
    let spans = tracer.spans();
    let by_name = spans::self_time_by_name(&spans);
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "bench.campaign")
        .map(|s| s.end - s.start)
        .sum();
    let self_ms =
        |name: &str| by_name.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6) / campaigns;
    for (metric, span) in [
        ("taskgraphs.generate_ms", "taskgraphs.generate"),
        ("workload.parse_ms", "workload.parse"),
        ("workload.scenario_resolve_ms", "workload.scenario_resolve"),
        ("dag.prepare_ms", "dag.prepare"),
        ("core.dodin_ms", "core.dodin"),
        ("core.mc_reference_ms", "core.mc_reference"),
        ("core.mc_ms", "core.mc"),
        ("core.first_order_ms", "core.first_order"),
        ("core.second_order_ms", "core.second_order"),
        ("core.sculli_ms", "core.sculli"),
        ("core.corlca_ms", "core.corlca"),
        ("core.spelde_ms", "core.spelde"),
        ("engine.plan_ms", "engine.plan"),
        ("engine.cache_get_ms", "engine.cache_get"),
        ("engine.cache_put_ms", "engine.cache_put"),
        ("engine.lease_codec_ms", "engine.lease_codec"),
        ("engine.sink_ms", "engine.sink"),
        ("trace.unattributed_ms", "bench.campaign"),
    ] {
        out.layers.insert(metric, self_ms(span));
        out.shares.insert(
            metric,
            by_name
                .get(span)
                .map_or(0.0, |(ns, _)| *ns as f64 / wall_ns.max(1) as f64),
        );
    }
    let dodin_share = out.shares["core.dodin_ms"];
    out.layers.insert("core.dodin_share", dodin_share);
    out.layers
        .insert("trace.replay_wall_ms", wall_ns as f64 / 1e6 / campaigns);
    for (metric, v) in [
        ("workload.tasks_parsed", counts.tasks_parsed as f64),
        ("dag.prepares", counts.prepares as f64),
        ("core.mc_trials", counts.mc_trials as f64),
        ("core.cells", counts.cells as f64),
        ("engine.leases", counts.leases as f64),
        ("engine.sink_bytes", counts.sink_bytes as f64),
    ] {
        out.layers.insert(metric, v / campaigns);
    }
    for (k, v) in program {
        out.layers.insert(k, v);
    }
    out.spans_jsonl = spans::to_jsonl(&spans);
}

/// A running `stochdag serve` daemon; dropping it asks for a shutdown
/// and kills the process if it does not exit promptly.
struct Daemon {
    proc: Option<Proc>,
    client: ServeClient,
    startup: Duration,
}

impl Daemon {
    fn start(ctx: &Ctx, cache: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(&ctx.bin);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-running",
            "2",
            "--max-queued",
            "64",
        ]);
        cmd.arg("--cache").arg(cache);
        let t0 = Instant::now();
        let mut proc = ctx.procs.spawn(cmd, "serve", Stdio::piped())?;
        let stdout = proc.take_stdout().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("stochdag-serve listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(Daemon {
            proc: Some(proc),
            client: ServeClient::connect_to(addr),
            startup: t0.elapsed(),
        })
    }

    fn pid(&self) -> u32 {
        self.proc.as_ref().expect("running").pid()
    }

    /// Shut the daemon down; `Err` when it had to be killed.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(proc) = self.proc.take() else {
            return Ok(());
        };
        let _ = self.client.shutdown(ShutdownMode::Now);
        if proc.wait_or_kill(Duration::from_secs(10)) {
            Ok(())
        } else {
            Err("serve daemon did not exit after shutdown".into())
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Submit a campaign and stream its rows: (csv, submit-ack time,
/// stream time, campaign id, cells).
fn submit_and_stream(
    client: &ServeClient,
    spec: &SweepSpec,
) -> Result<(String, Duration, Duration, u64, usize), String> {
    let t0 = Instant::now();
    let ticket = client.submit(spec).map_err(|e| e.to_string())?;
    let ack = t0.elapsed();
    let mut csv = CsvSink::new(Vec::new());
    let outcome = client
        .run_to_sinks(ticket.id, &mut [&mut csv], ProgressMode::None)
        .map_err(|e| e.to_string())?;
    let stream = t0.elapsed() - ack;
    let text = String::from_utf8_lossy(&csv.into_inner()).into_owned();
    Ok((text, ack, stream, ticket.id, outcome.cells))
}

/// What one closed-loop client observed.
#[derive(Default)]
struct ClientLog {
    campaign_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    status_ms: Vec<f64>,
    /// (request index, csv) of every delivered campaign.
    outputs: Vec<(usize, String)>,
    cells: u64,
    attempted: u64,
    failed: u64,
    spans: Vec<(&'static str, Instant, Instant, String)>,
}

fn serve_client(
    client: ServeClient,
    requests: &[(ServeRequest, SweepSpec)],
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut consecutive_failures = 0;
    for (i, (req, spec)) in requests.iter().enumerate() {
        if Instant::now() >= deadline || consecutive_failures >= 5 {
            break;
        }
        log.attempted += 2;
        let t0 = Instant::now();
        match submit_and_stream(&client, spec) {
            Ok((csv, ack, stream, id, cells)) => {
                let t1 = Instant::now();
                log.campaign_ms.push(ms(t1 - t0));
                log.ack_ms.push(ms(ack));
                log.stream_ms.push(ms(stream));
                log.cells += cells as u64;
                log.outputs.push((i, csv));
                log.spans
                    .push(("serve.submit_ack", t0, t0 + ack, req.name.clone()));
                log.spans
                    .push(("serve.stream", t0 + ack, t1, req.name.clone()));
                let s0 = Instant::now();
                match client.status(Some(id)) {
                    Ok(_) => {
                        log.status_ms.push(ms(s0.elapsed()));
                        log.spans
                            .push(("serve.status", s0, Instant::now(), req.name.clone()));
                        consecutive_failures = 0;
                    }
                    Err(e) => {
                        eprintln!("status failed: {e}");
                        log.failed += 1;
                        consecutive_failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("campaign {} failed: {e}", req.name);
                log.failed += 2;
                consecutive_failures += 1;
            }
        }
    }
    log
}

fn serve_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let root = ctx.work.path();
    let pool = gen::serve_pool(ctx.seed);
    let parse = |r: &ServeRequest| SweepSpec::from_str_auto(&r.spec).map_err(|e| e.to_string());
    // Set-up: start the daemon on a fresh cache and pre-fill it with the
    // pool campaigns; repeated, keeping the last daemon.
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut startups = Vec::new();
    let mut cache_dir = PathBuf::new();
    while more_setups(&setup_s) {
        if let Some(mut d) = daemon.take() {
            d.shutdown()?;
        }
        let t0 = Instant::now();
        cache_dir = root.join(format!("serve-cache-{}", setup_s.len()));
        let d = Daemon::start(ctx, &cache_dir)?;
        startups.push(ms(d.startup));
        for r in &pool {
            submit_and_stream(&d.client, &parse(r)?)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("set up at least once");
    let streams = gen::serve_stream(ctx.seed, 2, 4000);
    let streams: Vec<Vec<(ServeRequest, SweepSpec)>> = streams
        .into_iter()
        .map(|s| s.into_iter().map(|r| Ok((r.clone(), parse(&r)?))).collect())
        .collect::<Result<_, String>>()?;
    let before = daemon
        .client
        .status(None)
        .map_err(|e| e.to_string())?
        .server;

    // Measure: two closed-loop clients.
    ctx.procs.reset_peak();
    let cpu0 = procs::process_cpu_ms(daemon.pid());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|reqs| {
                let client = daemon.client.clone();
                s.spawn(move || serve_client(client, reqs, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = procs::process_cpu_ms(daemon.pid()) - cpu0;
    let peak_rss_mb = ctx.procs.peak_rss_mb();
    let after = daemon
        .client
        .status(None)
        .map_err(|e| e.to_string())?
        .server;
    let cache_bytes = procs::dir_bytes(&cache_dir);
    daemon.shutdown()?;

    // Verify: every delivered campaign equals a direct in-process sweep.
    let cache = Arc::new(ResultCache::in_memory());
    let mut expected: HashMap<String, String> = HashMap::new();
    let mut out = Outcome::default();
    let mut rel = Vec::new();
    for (log, reqs) in logs.iter().zip(&streams) {
        out.attempted += log.attempted;
        out.failed += log.failed;
        for (i, csv) in &log.outputs {
            let req = &reqs[*i].0;
            if !expected.contains_key(&req.name) {
                expected.insert(req.name.clone(), expected_csv(&req.spec, &cache)?);
            }
            let bad = mismatched_rows(&normalize_csv(csv), &expected[&req.name]);
            if bad > 0 {
                eprintln!(
                    "campaign {}: {bad} row(s) differ from a direct sweep",
                    req.name
                );
                out.failed += 1;
            }
            rel.extend(rel_errors(csv));
        }
    }
    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let campaign_ms = all(|l| &l.campaign_ms);
    let status_ms = all(|l| &l.status_ms);
    let cells: u64 = logs.iter().map(|l| l.cells).sum();
    out.e2e
        .insert("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    out.e2e.insert("cells_per_s", cells as f64 / wall_s);
    out.layers
        .insert("proc.cpu_ms_per_cell", cpu_ms / cells.max(1) as f64);
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    out.e2e.insert(
        "campaign_p50_ms",
        stats::median(&campaign_ms).unwrap_or(0.0),
    );
    out.e2e.insert(
        "rel_err_mean",
        rel.iter().sum::<f64>() / rel.len().max(1) as f64,
    );
    let tail = |v: &[f64]| match stats::tail_percentile(v.len(), 90) {
        Some(p) => format!(
            "p{p} {:.3} ms",
            stats::percentile(v, p as f64).unwrap_or(0.0)
        ),
        None => "no tail percentile".into(),
    };
    out.samples.push(format!(
        "{} campaigns ({}), {} status requests ({}), {} set-ups",
        campaign_ms.len(),
        tail(&campaign_ms),
        status_ms.len(),
        tail(&status_ms),
        setup_s.len()
    ));

    if ctx.trace {
        let mut program = BTreeMap::new();
        let tail_value = |v: &[f64]| {
            stats::tail_percentile(v.len(), 90)
                .and_then(|p| stats::percentile(v, p as f64))
                .unwrap_or(0.0)
        };
        program.insert(
            "serve.submit_ack_ms",
            stats::median(&all(|l| &l.ack_ms)).unwrap_or(0.0),
        );
        program.insert(
            "serve.stream_ms",
            stats::median(&all(|l| &l.stream_ms)).unwrap_or(0.0),
        );
        program.insert("serve.status_ms", stats::median(&status_ms).unwrap_or(0.0));
        program.insert("serve.status_p90_ms", tail_value(&status_ms));
        program.insert("serve.campaign_p90_ms", tail_value(&campaign_ms));
        program.insert(
            "serve.admission_rejects",
            ((after.admission_rejected + after.quota_rejected)
                - (before.admission_rejected + before.quota_rejected)) as f64,
        );
        let computed = (after.cells_computed - before.cells_computed) as f64;
        let hits = ((after.cells_memory_hits + after.cells_disk_hits)
            - (before.cells_memory_hits + before.cells_disk_hits)) as f64;
        let n = campaign_ms.len().max(1) as f64;
        program.insert("serve.cache_hit_rate", hits / (hits + computed).max(1.0));
        program.insert("engine.cache_hits", hits / n);
        program.insert("engine.cache_misses", computed / n);
        program.insert("engine.cache_hit_ratio", hits / (hits + computed).max(1.0));
        program.insert("engine.cache_bytes", cache_bytes as f64);
        program.insert("cli.startup_ms", stats::median(&startups).unwrap_or(0.0));
        program.insert("trace.overhead_pct", 0.0);

        // Replay the first requests of client 0 in process, over a
        // cache pre-filled with the pool, so reads and writes mix as
        // they did against the daemon.
        let cache = ResultCache::on_disk(root.join("replay-cache"));
        let prefill = Tracer::new();
        for r in &pool {
            replay::replay(&prefill, &r.spec, &cache)?;
        }
        let tracer = Tracer::new();
        let mut counts = ReplayCounts::default();
        let sample: Vec<&(ServeRequest, SweepSpec)> = streams[0].iter().take(20).collect();
        for (req, _) in &sample {
            tracer.set_id(&req.name);
            let c = replay::replay(&tracer, &req.spec, &cache)?;
            counts.cells += c.cells;
            counts.mc_trials += c.mc_trials;
            counts.tasks_parsed += c.tasks_parsed;
            counts.prepares += c.prepares;
            counts.sink_bytes += c.sink_bytes;
            counts.leases += c.leases;
        }
        // Client-side spans of the measured requests go to the JSONL too.
        let base = start;
        for log in &logs {
            for (name, a, b, id) in &log.spans {
                let ns = |t: &Instant| t.saturating_duration_since(base).as_nanos() as u64;
                tracer.record(name, ns(a), ns(b), id);
            }
        }
        layer_metrics(&mut out, &tracer, &counts, sample.len() as f64, program);
    }
    Ok(out)
}
