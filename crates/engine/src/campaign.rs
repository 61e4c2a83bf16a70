//! The [`Campaign`] facade: one typed, embeddable entry point for the
//! whole engine.
//!
//! A campaign is the paper's evaluation unit — a grid of
//! (DAG × failure model × estimator) cells compared against Monte-Carlo
//! references — and this module gives it a single lifecycle:
//!
//! ```text
//! Campaign::builder(spec)      // typed SweepSpec, typed EstimatorSpecs
//!     .cache(...)              // shared content-addressed ResultCache
//!     .sink(...)               // ordered row consumers (CSV/JSONL/…)
//!     .observer(...)           // completion-order event subscribers
//!     .backend(...)            // how cells execute (see ExecBackend)
//!     .build()?                // validates everything up front
//!     .run()?                  // or .resume_report() / .dry_run()
//! ```
//!
//! Execution is **pull-scheduled**: the coordinator expands the spec
//! into a [`CampaignPlan`], loads its [`WorkLease`] batches into a
//! [`LeaseQueue`], and the backend's workers drain batches as they
//! finish — a slow (or remote, or heterogeneous) worker simply wins
//! fewer leases instead of dragging a statically-partitioned tail.
//! Every backend reports work through the same [`CampaignEvent`]
//! stream; the campaign core merges that stream once — re-sequencing
//! rows for the sinks, feeding observers, enforcing completeness — so
//! output bytes are identical no matter which backend produced the
//! events or how the leases interleaved.

use crate::cache::ResultCache;
use crate::cancel::CancelToken;
use crate::coordinator::{coordinate, Lost, Report, Transport};
use crate::error::EngineError;
use crate::lease::{
    encode_lease, serve_session, CampaignPlan, LeaseQueue, PipeSource, QueueSource, WorkLease,
};
use crate::observer::CampaignObserver;
use crate::progress::{ProgressMode, ProgressReporter};
use crate::protocol::{decode_event, CampaignEvent};
use crate::registry::EstimatorRegistry;
use crate::runner::{expand, resume_report_impl, Expansion, ResumeReport, SweepOutcome};
use crate::sink::{summarize, Reorderer, ResultSink, SweepRow};
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use std::collections::{BTreeSet, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Event source tag of the coordinator itself (the [`Plan`] event);
/// backends tag events with their worker slot instead.
///
/// [`Plan`]: CampaignEvent::Plan
pub(crate) const COORDINATOR_SOURCE: usize = usize::MAX;

/// What a backend needs to execute a campaign: the validated spec, the
/// shared estimator registry and result cache, and the expanded plan.
pub struct BackendContext<'a> {
    /// The validated campaign spec.
    pub spec: &'a SweepSpec,
    /// Estimator factory.
    pub registry: &'a EstimatorRegistry,
    /// Shared result cache (multi-process backends hand its
    /// [`ResultCache::disk_dir`] to worker processes).
    pub cache: &'a ResultCache,
    /// The campaign's telemetry collector (disabled by default).
    /// Backends pass it to lease executors; process-spawning backends
    /// additionally check [`Telemetry::is_enabled`] to decide whether
    /// workers should collect and report snapshots.
    pub telemetry: &'a Telemetry,
    /// Cooperative stop flag. In-process backends hand it to the lease
    /// executor (checked between cells); the worker-process backends'
    /// coordinator loop checks it before granting leases, which it does
    /// after every event. A backend stops early with
    /// [`EngineError::cancelled`] when it is set.
    pub cancel: &'a CancelToken,
    /// The expanded campaign plan the lease queue was built from —
    /// what a [`LeaseExecutor`](crate::LeaseExecutor) executes against.
    pub plan: &'a CampaignPlan,
}

/// Event delivery callback handed to backends: `(source slot, event)`.
/// Must be callable from any backend thread.
pub type Deliver<'a> = dyn Fn(usize, CampaignEvent) -> Result<(), EngineError> + Sync + 'a;

/// An execution strategy for a campaign's cells (**v2, work-leasing**).
///
/// This trait is the **extension seam of the engine**: a backend owns
/// *where and how* cells run. The coordinator owns the schedule — a
/// [`LeaseQueue`] of [`WorkLease`] cell batches — and the backend's
/// workers *pull* batches as they finish, so heterogeneous cell costs
/// balance themselves: a worker stuck on an expensive `exact` batch
/// simply wins fewer leases. A batch whose worker crashes is re-queued
/// ([`LeaseQueue::requeue`], bounded per lease) for any surviving
/// worker. Everything a backend does is reported through the one
/// [`CampaignEvent`] vocabulary, and the campaign core merges events,
/// drops duplicate deliveries, re-orders rows, and checks completeness
/// identically for every implementation — which is what makes backend
/// outputs byte-identical regardless of lease interleaving.
///
/// Shipped backends:
///
/// * [`InProcess`] — worker threads in this process draining the
///   queue through one shared [`LeaseExecutor`](crate::LeaseExecutor).
/// * [`MultiProcess`] — N `sweep-worker` processes on this machine
///   sharing the on-disk cache, leases streamed over stdin pipes.
/// * [`SharedFs`](crate::SharedFs) — remote `sweep-worker` processes
///   on other hosts, coordinated through a shared-filesystem spool
///   directory.
///
/// The two worker-process backends run one coordinator loop over
/// different transports (pipes, spool files).
pub trait ExecBackend: Send + Sync {
    /// Human-readable backend name (diagnostics, dry runs).
    fn name(&self) -> String;

    /// How many worker slots the backend drives (a sizing hint for
    /// dry-run reports and resume reports — *not* a partition count;
    /// the lease queue is the only work assignment).
    fn workers(&self) -> usize {
        1
    }

    /// Drain `leases`, delivering each event (tagged with its source
    /// worker slot) as it happens. Grant batches with
    /// [`LeaseQueue::next`], retire them with [`LeaseQueue::complete`]
    /// when their `LeaseDone` arrives, and [`LeaseQueue::requeue`] the
    /// batches of a crashed worker.
    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError>;
}

/// Execute the campaign on worker threads in this process: up to
/// `--jobs` (default: every core) threads drain the lease queue
/// through one shared [`LeaseExecutor`](crate::LeaseExecutor), so each
/// DAG instance freezes once and each (instance × estimator) group
/// prepares once. The `jobs` budget is per campaign: concurrent
/// campaigns in one process (the `serve` daemon's pool) each get their
/// own.
pub struct InProcess;

impl ExecBackend for InProcess {
    fn name(&self) -> String {
        "in-process".into()
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        serve_session(ctx, 0, &QueueSource { leases, deliver }, &|ev| {
            deliver(0, ev)
        })
    }
}

/// Distribute the campaign over N worker **processes** on this machine.
///
/// Each worker runs `sweep-worker --leases`: the coordinator streams
/// [`WorkLease`] lines over the worker's stdin (a pipeline window of
/// `--jobs` batches keeps the worker's threads saturated), the worker
/// executes them cache-first against the shared on-disk cache and
/// streams line-delimited JSON [`CampaignEvent`]s back over its stdout
/// pipe — the pipe transport of the coordinator loop
/// [`SharedFs`](crate::SharedFs) also runs. A worker that dies — torn
/// or corrupt stream, reported error, exit before its leases are done
/// — is **re-spawned once** and its unfinished leases are re-queued for
/// any worker (each lease is granted at most twice); the retry runs
/// cache-first, so cells the crashed worker already finished are served
/// from the shared cache and only the remainder recomputes. Events the
/// failed attempt already delivered are deduplicated by the campaign
/// core (they are deterministic, so the retry's copies are identical).
/// A slot whose respawn dies too is retired (`worker_slots_retired`);
/// a non-zero exit after the session ended only counts
/// `worker_exit_nonzero`.
///
/// The worker-thread cap is a `--jobs` handshake: an explicit spec
/// `jobs` is passed through per worker; otherwise this machine's cores
/// are split across the local worker processes. (Workers never derive
/// `cores / N` themselves — they don't know the peer count, and on a
/// remote host the coordinator's core count is meaningless.)
///
/// Workers default to `current_exe()` + `sweep-worker` (correct when
/// the embedding binary is the `stochdag` CLI); embedders point
/// [`MultiProcess::launcher`] at a `stochdag` binary instead.
pub struct MultiProcess {
    workers: usize,
    launcher: Option<(PathBuf, Vec<String>)>,
}

impl MultiProcess {
    /// Backend spawning `workers` processes.
    pub fn new(workers: usize) -> MultiProcess {
        MultiProcess {
            workers,
            launcher: None,
        }
    }

    /// Use `program args…` as the worker command instead of
    /// `current_exe() sweep-worker`. The backend appends
    /// `--spec-json PATH --leases --worker I --jobs J` plus
    /// `--cache DIR` / `--no-cache`, and `--telemetry` when the
    /// campaign runs with an enabled [`Telemetry`] collector.
    pub fn launcher(mut self, program: impl Into<PathBuf>, args: Vec<String>) -> MultiProcess {
        self.launcher = Some((program.into(), args));
        self
    }
}

impl ExecBackend for MultiProcess {
    fn name(&self) -> String {
        format!("multi-process ({} workers)", self.workers)
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::spec("worker count must be positive"));
        }
        // The --jobs handshake: an explicit spec cap applies per
        // worker; otherwise split this machine's cores across the
        // local worker processes (an uncapped worker would build a
        // full-size thread pool, oversubscribing the host N-fold).
        // Either way results are identical — the thread count cannot
        // change any value.
        let jobs = ctx.spec.jobs.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (cores / self.workers).max(1)
        });
        // Hand the spec to the workers as a temp JSON file. Named by
        // (pid, campaign counter) — not spec.name, which is
        // user-controlled and may contain path separators. The counter
        // matters for embedders: two concurrent `Campaign::run()`s in
        // one process must not clobber (or delete) each other's spec.
        static SPEC_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let spec_path = std::env::temp_dir().join(format!(
            "stochdag-spec-{}-{}.json",
            std::process::id(),
            SPEC_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&spec_path, serde::json::to_string(ctx.spec)).map_err(|e| {
            EngineError::io(format!("writing worker spec {}", spec_path.display()), e)
        })?;
        let result = std::thread::scope(|scope| {
            let mut pipes = Pipes {
                backend: self,
                ctx,
                spec_path: &spec_path,
                jobs,
                scope,
                lines: mpsc::channel(),
                slots: (0..self.workers).map(|_| PipeSlot::default()).collect(),
                closing: false,
            };
            coordinate(&mut pipes, leases, deliver, ctx.telemetry, ctx.cancel)
        });
        let _ = std::fs::remove_file(&spec_path);
        result
    }
}

/// A worker's stdout line as its reader thread forwards it, tagged
/// `(slot, generation)` (see [`forward_events`]).
type PipeLine = (usize, usize, Option<Result<CampaignEvent, String>>);

/// One [`MultiProcess`] worker slot.
#[derive(Default)]
struct PipeSlot {
    child: Option<Child>,
    /// The lease pipe; closed once the queue drained.
    stdin: Option<ChildStdin>,
    /// Bumped when the slot's child is abandoned, so that child's
    /// reader thread no longer speaks for the slot.
    generation: usize,
    joined: bool,
    /// Granted leases whose `LeaseDone` has not arrived.
    held: BTreeSet<usize>,
    respawned: bool,
    retired: bool,
}

/// The pipe transport of [`MultiProcess`]: spawns each slot's worker
/// (and re-spawns it once after a failure), keeps a window of `jobs`
/// leases in flight on its stdin, and runs one reader thread per child.
struct Pipes<'a, 's, 'e> {
    backend: &'a MultiProcess,
    ctx: &'a BackendContext<'a>,
    spec_path: &'a std::path::Path,
    jobs: usize,
    scope: &'s std::thread::Scope<'s, 'e>,
    lines: (mpsc::Sender<PipeLine>, mpsc::Receiver<PipeLine>),
    slots: Vec<PipeSlot>,
    /// The queue drained: no more spawns, and EOF is a clean exit.
    closing: bool,
}

impl Pipes<'_, '_, '_> {
    fn spawn(&mut self, slot: usize) -> Result<(), EngineError> {
        let (program, base_args) = match &self.backend.launcher {
            Some((p, a)) => (p.clone(), a.clone()),
            None => (
                std::env::current_exe().map_err(|e| EngineError::io("locating own binary", e))?,
                vec!["sweep-worker".to_string()],
            ),
        };
        let mut cmd = Command::new(program);
        cmd.args(base_args)
            .arg("--spec-json")
            .arg(self.spec_path)
            .arg("--leases")
            .arg("--worker")
            .arg(slot.to_string())
            .arg("--jobs")
            .arg(self.jobs.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match self.ctx.cache.disk_dir() {
            Some(dir) => cmd.arg("--cache").arg(dir),
            None => cmd.arg("--no-cache"),
        };
        if self.ctx.telemetry.is_enabled() {
            cmd.arg("--telemetry");
        }
        self.ctx.telemetry.count("worker_spawns", 1);
        let mut child = cmd
            .spawn()
            .map_err(|e| EngineError::worker(slot, format!("spawning sweep worker: {e}")))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let s = &mut self.slots[slot];
        s.stdin = child.stdin.take();
        s.child = Some(child);
        let (tx, generation) = (self.lines.0.clone(), s.generation);
        self.scope.spawn(move || {
            forward_events(stdout, |read| tx.send((slot, generation, read)).is_ok())
        });
        Ok(())
    }

    /// Stop a failed slot's worker and report the leases it held. The
    /// slot re-spawns once; a second failure retires it.
    fn fail(&mut self, slot: usize, why: String, kind: Option<String>, out: &mut Vec<Report>) {
        let s = &mut self.slots[slot];
        if let Some(mut child) = s.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        s.stdin = None;
        s.joined = false;
        s.generation += 1;
        if !self.closing && std::mem::replace(&mut s.respawned, true) {
            s.retired = true;
            self.ctx.telemetry.count("worker_slots_retired", 1);
        }
        out.push(Report::Lost(Lost {
            who: format!("sweep worker {slot}"),
            slot: Some(slot),
            leases: std::mem::take(&mut s.held).into_iter().collect(),
            why,
            kind,
        }));
    }

    /// Act on one forwarded line of a worker's stdout.
    fn on_line(&mut self, (slot, generation, read): PipeLine, out: &mut Vec<Report>) {
        let s = &mut self.slots[slot];
        if generation != s.generation {
            return;
        }
        match read {
            Some(Ok(CampaignEvent::Error { message, kind })) => {
                let kind = kind.unwrap_or_else(|| "unknown".into());
                self.fail(slot, message, Some(kind), out);
            }
            Some(Ok(hello @ CampaignEvent::Hello { .. })) if !s.joined => {
                s.joined = true;
                out.push(Report::Event(slot, hello));
            }
            Some(Ok(_)) if !s.joined => {
                let why = "protocol violation: first event was not hello".into();
                self.fail(slot, why, None, out);
            }
            Some(Ok(event)) => {
                if let CampaignEvent::LeaseDone { lease_id, .. } = &event {
                    s.held.remove(lease_id);
                }
                out.push(Report::Event(slot, event));
            }
            Some(Err(why)) => self.fail(slot, why, None, out),
            None if self.closing => {
                // Every lease is completed and merged; a worker that
                // botches its own exit is not worth failing the campaign.
                let exit = s.child.take().map(|mut c| c.wait());
                if !matches!(exit, Some(Ok(status)) if status.success()) {
                    self.ctx.telemetry.count("worker_exit_nonzero", 1);
                }
            }
            None if s.joined => self.fail(slot, "stream ended mid-lease".into(), None, out),
            None => {
                let why = "stream ended before its hello event".into();
                self.fail(slot, why, None, out);
            }
        }
    }
}

impl Transport for Pipes<'_, '_, '_> {
    fn room(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.joined && s.stdin.is_some())
            .map(|s| self.jobs.saturating_sub(s.held.len()))
            .sum()
    }

    fn grant(&mut self, lease: WorkLease, _attempt: usize) -> Result<(), EngineError> {
        let jobs = self.jobs;
        let s = self
            .slots
            .iter_mut()
            .find(|s| s.joined && s.stdin.is_some() && s.held.len() < jobs)
            .expect("leases are granted within room()");
        s.held.insert(lease.lease_id);
        let stdin = s.stdin.as_mut().expect("checked above");
        if writeln!(stdin, "{}", encode_lease(&lease)).is_err() {
            // The worker stopped reading its leases: stop it, and its
            // reader's EOF reports the leases lost.
            s.stdin = None;
            if let Some(child) = &mut s.child {
                let _ = child.kill();
            }
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Report>) -> Result<(), EngineError> {
        for slot in 0..self.slots.len() {
            let s = &self.slots[slot];
            if s.child.is_none() && !s.retired && !self.closing {
                self.spawn(slot)?;
            }
        }
        if self.slots.iter().all(|s| s.child.is_none()) {
            return Ok(());
        }
        // Take every line already queued: one wake-up per burst, not
        // per event, keeps the coordinator off the workers' cores.
        let first = self.lines.1.recv().expect("the transport holds a sender");
        let burst: Vec<PipeLine> = std::iter::once(first)
            .chain(self.lines.1.try_iter())
            .collect();
        for line in burst {
            self.on_line(line, out);
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.slots.iter().all(|s| s.retired)
    }

    fn end(&mut self, drained: bool, out: &mut Vec<Report>) {
        if !drained {
            return; // dropping the transport stops the workers
        }
        // A closed lease pipe ends the worker's session: it sends its
        // telemetry and `done` events and exits.
        self.closing = true;
        for s in &mut self.slots {
            s.stdin = None;
        }
        while self.slots.iter().any(|s| s.child.is_some()) {
            let _ = self.wait(out);
        }
    }
}

impl Drop for Pipes<'_, '_, '_> {
    /// Leave no worker running, or its reader thread would keep the
    /// enclosing thread scope from joining.
    fn drop(&mut self) {
        for mut child in self.slots.iter_mut().filter_map(|s| s.child.take()) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Forward one worker event stream to `send` line by line: each decoded
/// event, or the failure that ended the stream (a broken read or an
/// undecodable line), then `None` at EOF. Stops early once `send`
/// returns `false` (nobody listens). After an undecodable line the
/// stream is untrusted, but it is still drained to EOF: closing a live
/// worker's pipe early would kill it mid-write (EPIPE) instead of
/// letting it finish — its results are in the shared cache regardless
/// — and exit cleanly.
fn forward_events(
    reader: impl BufRead,
    send: impl Fn(Option<Result<CampaignEvent, String>>) -> bool,
) {
    let mut corrupt = false;
    for line in reader.lines() {
        let Ok(line) = line else {
            // The pipe was torn down mid-stream: the worker is gone.
            send(Some(Err("stream broke mid-read".into())));
            return;
        };
        if corrupt {
            continue;
        }
        let event = decode_event(&line);
        corrupt = event.is_err();
        if !send(Some(event)) {
            return;
        }
    }
    send(None);
}

/// Merges a campaign's event stream: row re-sequencing into the sinks,
/// first-error capture, and the completeness checks that make backend
/// outputs interchangeable.
///
/// Every stream is a leased campaign's: the coordinator's
/// [`Plan`](CampaignEvent::Plan) event fixes the expected cell,
/// reference and lease totals, and a stream without one is rejected.
///
/// Duplicate deliveries — what a re-queued lease or a re-spawned
/// worker produces, live in [`Campaign::run`] or captured in a stream
/// [`merge_event_streams`] replays — are tolerated by keeping the first
/// copy of every cell, reference, lease total and session event.
#[derive(Default)]
pub(crate) struct Merge {
    /// `(cells, references, leases)` from the coordinator's plan.
    plan: Option<(usize, usize, usize)>,
    reorder: Reorderer,
    rows: Vec<SweepRow>,
    seen_cells: HashSet<usize>,
    seen_scenarios: HashSet<usize>,
    /// Session events (`hello`, `telemetry`, `done`) already merged,
    /// by kind and worker slot: a re-spawned worker repeats them.
    seen_sessions: HashSet<(&'static str, usize)>,
    lease_done: BTreeSet<usize>,
    cache_hits: usize,
    cache_misses: usize,
    cells_computed: usize,
    cells_memory_hits: usize,
    cells_disk_hits: usize,
    first_error: Option<EngineError>,
}

impl Merge {
    pub(crate) fn record_error(&mut self, e: EngineError) {
        self.first_error.get_or_insert(e);
    }

    pub(crate) fn has_error(&self) -> bool {
        self.first_error.is_some()
    }

    /// Merge one delivered event, live or replayed: drop a duplicate
    /// before anything sees it, then fold a worker's telemetry snapshot
    /// into `telemetry` and feed the observers and the row pipeline.
    fn accept(
        &mut self,
        source: usize,
        event: CampaignEvent,
        telemetry: &Telemetry,
        observers: &mut [&mut dyn CampaignObserver],
        sinks: &mut [&mut dyn ResultSink],
    ) {
        if self.is_duplicate(source, &event) {
            return;
        }
        if let CampaignEvent::Telemetry { snapshot, .. } = &event {
            telemetry.merge(snapshot);
        }
        for obs in observers.iter_mut() {
            if let Err(e) = obs.on_event(&event) {
                self.record_error(e);
            }
        }
        self.observe(source, event, sinks);
    }

    /// Dedup gate: returns `true` when this event re-delivers something
    /// already merged — a re-queued lease's or a re-spawned worker's
    /// duplicate — so neither observers (progress counters!) nor the
    /// row pipeline see it twice. References dedup across workers by
    /// their global scenario index.
    fn is_duplicate(&mut self, source: usize, event: &CampaignEvent) -> bool {
        match event {
            CampaignEvent::Plan { .. } => self.plan.is_some(),
            CampaignEvent::Hello { shard, .. } => !self.seen_sessions.insert(("hello", *shard)),
            CampaignEvent::Reference { scenario, .. } => {
                scenario.is_some_and(|g| !self.seen_scenarios.insert(g))
            }
            CampaignEvent::Cell { index, .. } => !self.seen_cells.insert(*index),
            CampaignEvent::LeaseDone { lease_id, .. } => !self.lease_done.insert(*lease_id),
            CampaignEvent::Done { .. } => !self.seen_sessions.insert(("done", source)),
            // A re-spawned worker re-sends its snapshot; merge each
            // source's telemetry exactly once.
            CampaignEvent::Telemetry { shard, .. } => {
                !self.seen_sessions.insert(("telemetry", *shard))
            }
            CampaignEvent::LeaseStart { .. }
            | CampaignEvent::Error { .. }
            | CampaignEvent::Unknown { .. } => false,
        }
    }

    fn observe(&mut self, source: usize, event: CampaignEvent, sinks: &mut [&mut dyn ResultSink]) {
        match event {
            CampaignEvent::Plan {
                cells,
                references,
                leases,
            } => {
                self.plan = Some((cells, references, leases));
            }
            CampaignEvent::Cell {
                index, tier, row, ..
            } => {
                match tier {
                    None => self.cells_computed += 1,
                    Some(crate::cache::CacheTier::Memory) => self.cells_memory_hits += 1,
                    Some(crate::cache::CacheTier::Disk) => self.cells_disk_hits += 1,
                }
                let rows = &mut self.rows;
                let mut failed_cell: Option<String> = None;
                let emit_result = self.reorder.push(index, row, |r| {
                    // Collect first: a sink failure aborts the sweep
                    // with an error, but the row set stays complete.
                    rows.push(r.clone());
                    for sink in sinks.iter_mut() {
                        if let Err(e) = sink.row(r) {
                            failed_cell =
                                Some(format!("{} / {} / {}", r.dag, r.model, r.estimator));
                            return Err(e);
                        }
                    }
                    Ok(())
                });
                if let Err(e) = emit_result {
                    self.first_error
                        .get_or_insert(EngineError::sink(failed_cell, format!("sink row: {e}")));
                }
            }
            CampaignEvent::LeaseDone { hits, misses, .. } => {
                // Per-attempt cache totals; the dedup gate lets a
                // re-queued lease's totals through once.
                self.cache_hits += hits;
                self.cache_misses += misses;
            }
            CampaignEvent::Error { message, .. } => {
                self.first_error
                    .get_or_insert(EngineError::worker(source, message));
            }
            // Session events carry no row bookkeeping (`Done` totals are
            // zero: cache tallies arrive per lease); snapshot merging is
            // the campaign core's business (it owns the Telemetry
            // handle); unknown events are a newer writer's vocabulary.
            CampaignEvent::Hello { .. }
            | CampaignEvent::LeaseStart { .. }
            | CampaignEvent::Reference { .. }
            | CampaignEvent::Done { .. }
            | CampaignEvent::Telemetry { .. }
            | CampaignEvent::Unknown { .. } => {}
        }
    }

    /// Final completeness checks against the plan — every planned
    /// cell merged exactly once, every planned lease reported its
    /// `LeaseDone` — then the sinks' summary and finish (timed as the
    /// `sink_flush` span). Returns the campaign outcome.
    pub(crate) fn finish(
        mut self,
        sinks: &mut [&mut dyn ResultSink],
        telemetry: &Telemetry,
        start: Instant,
    ) -> Result<SweepOutcome, EngineError> {
        if let Some(e) = self.first_error.take() {
            return Err(e);
        }
        let Some((cells, references, leases)) = self.plan else {
            return Err(EngineError::worker(
                None,
                "worker event stream carries no plan event (not a leased campaign stream)",
            ));
        };
        if self.reorder.pending() != 0 || self.rows.len() != cells {
            return Err(EngineError::worker(
                None,
                format!(
                    "merged {} of {cells} planned cells ({} out-of-sequence) — \
                     worker streams overlapped or dropped cells",
                    self.rows.len(),
                    self.reorder.pending()
                ),
            ));
        }
        if self.lease_done.len() != leases {
            return Err(EngineError::worker(
                None,
                format!(
                    "only {} of {leases} planned leases reported lease_done — \
                     a worker crashed or its stream was cut",
                    self.lease_done.len()
                ),
            ));
        }
        let summary = summarize(&self.rows);
        {
            let _flush = telemetry.span("sink_flush");
            for sink in sinks.iter_mut() {
                sink.summary(&summary)
                    .and_then(|()| sink.finish())
                    .map_err(|e| EngineError::sink(None, format!("sink summary: {e}")))?;
            }
        }
        Ok(SweepOutcome {
            cells,
            // Exact from the coordinator's plan (one reference scenario
            // per instance × model, however many workers probed it).
            references,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cells_computed: self.cells_computed,
            cells_memory_hits: self.cells_memory_hits,
            cells_disk_hits: self.cells_disk_hits,
            wall: start.elapsed(),
            rows: self.rows,
            summary,
        })
    }
}

/// Merge N worker event streams into ordered sink output.
///
/// A [`Campaign`] run does this — plus worker lifecycle and crash
/// retry — in one call; this entry point exists for *replayed*
/// streams: captured worker stdout, archived event logs (an observer
/// on [`Campaign::run`] sees exactly what `serve` streams to its
/// clients), spliced protocol fixtures.
///
/// Each reader is one slice of a leased campaign's event stream; one
/// of them must carry the coordinator's [`Plan`](CampaignEvent::Plan)
/// event. Rows arrive tagged with their global cell index and are
/// re-sequenced, so the sinks observe the exact same ordered row
/// stream — and therefore write the exact same bytes — as an
/// in-process run over the same cache. Progress events feed `progress`
/// as they arrive.
///
/// A captured stream may carry a re-queued lease's events twice (its
/// failed attempt's and the retry's): replays pass the same duplicate
/// gate as a live run, ahead of `progress`, so every cell counts once.
///
/// Fails if any stream reports [`CampaignEvent::Error`] or is
/// malformed, if no stream carries a plan, or if the merged rows and
/// [`LeaseDone`](CampaignEvent::LeaseDone) events do not cover every
/// planned cell and lease.
pub fn merge_event_streams<R: BufRead + Send>(
    workers: Vec<R>,
    sinks: &mut [&mut dyn ResultSink],
    progress: &mut ProgressReporter,
) -> Result<SweepOutcome, EngineError> {
    let start = Instant::now();
    if workers.is_empty() {
        return Err(EngineError::worker(
            None,
            "distributed sweep needs at least one worker",
        ));
    }
    for sink in sinks.iter_mut() {
        sink.begin()
            .map_err(|e| EngineError::sink(None, format!("sink begin: {e}")))?;
    }

    let mut merge = Merge::default();
    let disabled = Telemetry::disabled();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for (w, reader) in workers.into_iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || forward_events(reader, |read| tx.send((w, read)).is_ok()));
        }
        drop(tx);
        for (w, read) in rx {
            match read {
                Some(Ok(ev)) => merge.accept(w, ev, &disabled, &mut [&mut *progress], sinks),
                Some(Err(e)) => merge.record_error(EngineError::worker(w, e)),
                None => {}
            }
        }
    });
    progress.finish();
    merge.finish(sinks, &disabled, start)
}

/// One concrete DAG instance in a [`DryRun`] report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DryRunInstance {
    /// Instance id (e.g. `"lu:k=8"`).
    pub id: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
}

/// What a campaign *would* execute — the full expansion, without
/// running (or probing) anything. See [`Campaign::dry_run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DryRun {
    /// Campaign name.
    pub name: String,
    /// Backend description.
    pub backend: String,
    /// Canonical estimator ids, in spec order.
    pub estimators: Vec<String>,
    /// Materialized DAG instances, in spec order.
    pub instances: Vec<DryRunInstance>,
    /// Failure models per instance.
    pub models: usize,
    /// Total estimator cells.
    pub cells: usize,
    /// Monte-Carlo reference scenarios.
    pub references: usize,
}

/// A fully-configured campaign: the one handle behind `sweep`-style
/// executions, resume reports, and dry runs (see the
/// crate docs and [`Campaign::builder`]).
pub struct Campaign {
    spec: SweepSpec,
    registry: EstimatorRegistry,
    cache: Arc<ResultCache>,
    backend: Box<dyn ExecBackend>,
    sinks: Vec<Box<dyn ResultSink>>,
    observers: Vec<Box<dyn CampaignObserver>>,
    telemetry: Telemetry,
    cancel: CancelToken,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec.name)
            .field("backend", &self.backend.name())
            .field("sinks", &self.sinks.len())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Campaign {
    /// Start configuring a campaign for `spec`. Defaults: the standard
    /// registry, an in-memory cache, the [`InProcess`] backend, no
    /// sinks, no observers.
    pub fn builder(spec: SweepSpec) -> CampaignBuilder {
        CampaignBuilder(Campaign {
            spec,
            registry: EstimatorRegistry::standard(),
            cache: Arc::new(ResultCache::in_memory()),
            backend: Box::new(InProcess),
            sinks: Vec::new(),
            observers: Vec::new(),
            telemetry: Telemetry::disabled(),
            cancel: CancelToken::new(),
        })
    }

    /// The campaign's validated spec.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The campaign's result cache (e.g. for a post-run
    /// [`ResultCache::gc_disk`]).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Execute every cell on the configured backend, streaming ordered
    /// rows into the sinks and raw events into the observers.
    ///
    /// The coordinator plans the campaign, announces the plan, runs the
    /// backend over the lease queue, merges its event stream (dedup,
    /// re-sequencing, completeness), feeds observers and sinks, and
    /// folds worker telemetry snapshots into the campaign's collector.
    pub fn run(self) -> Result<SweepOutcome, EngineError> {
        let start = Instant::now();
        let Campaign {
            spec,
            registry,
            cache,
            backend,
            mut sinks,
            mut observers,
            telemetry,
            cancel,
        } = self;
        let mut sinks: Vec<&mut dyn ResultSink> = sinks
            .iter_mut()
            .map(|b| &mut **b as &mut dyn ResultSink)
            .collect();
        let mut observers: Vec<&mut dyn CampaignObserver> = observers
            .iter_mut()
            .map(|b| &mut **b as &mut dyn CampaignObserver)
            .collect();
        let plan = CampaignPlan::new(&spec, &registry)?;
        let leases = LeaseQueue::new(plan.leases().to_vec());
        for sink in sinks.iter_mut() {
            sink.begin()
                .map_err(|e| EngineError::sink(None, format!("sink begin: {e}")))?;
        }
        let mut merge = Merge::default();
        // Bounded to one in-flight event: backends run at most two
        // events ahead of the observers, so an observer that flips the
        // campaign's [`CancelToken`] (the seam the service's `cancel`
        // request is built on) is guaranteed visible to the executor
        // before the next lease starts. Cell computation dominates the
        // per-event handoff, so throughput is unaffected.
        let (tx, rx) = mpsc::sync_channel::<(usize, CampaignEvent)>(1);
        // The coordinator announces the authoritative totals before
        // any worker starts — under leasing no worker can (it does not
        // know how many leases it will win). The one buffered slot
        // makes this pre-loop send safe.
        tx.send((
            COORDINATOR_SOURCE,
            CampaignEvent::Plan {
                cells: plan.cells(),
                references: plan.references(),
                leases: leases.total(),
            },
        ))
        .expect("plan receiver alive");
        let ctx = BackendContext {
            spec: &spec,
            registry: &registry,
            cache: &cache,
            telemetry: &telemetry,
            cancel: &cancel,
            plan: &plan,
        };
        let backend_result = std::thread::scope(|scope| {
            let ctx = &ctx;
            let leases = &leases;
            let handle = scope.spawn(move || {
                let deliver = move |source: usize, ev: CampaignEvent| {
                    tx.send((source, ev))
                        .map_err(|_| EngineError::worker(None, "event channel closed"))
                };
                backend.execute(ctx, leases, &deliver)
            });
            loop {
                // Only measure channel blocking when telemetry is on:
                // the disabled path keeps the bare recv, clock-free.
                let received = if telemetry.is_enabled() {
                    let t0 = Instant::now();
                    let r = rx.recv();
                    telemetry.record_span_duration("queue_wait", t0.elapsed());
                    r
                } else {
                    rx.recv()
                };
                let Ok((source, event)) = received else {
                    break;
                };
                // After the first error (a sink or observer failure)
                // the campaign's fate is sealed: stop dispatching to
                // observers and sinks and just drain the channel. The
                // backend cannot be cancelled mid-cell — completed
                // cells still land in the shared cache — but no
                // further downstream work happens.
                if !merge.has_error() {
                    merge.accept(source, event, &telemetry, &mut observers, &mut sinks);
                }
            }
            handle.join().expect("backend thread panicked")
        });
        for obs in observers.iter_mut() {
            if let Err(e) = obs.on_finish() {
                merge.record_error(e);
            }
        }
        backend_result?;
        let outcome = merge.finish(&mut sinks, &telemetry, start)?;
        telemetry.record_span_duration("campaign", outcome.wall);
        Ok(outcome)
    }

    /// Diff the spec against the cache — per-estimator hit/miss
    /// counts — without computing anything or perturbing the cache.
    pub fn resume_report(&self) -> Result<ResumeReport, EngineError> {
        resume_report_impl(&self.spec, &self.registry, &self.cache)
    }

    /// Expand the campaign — instances, models, estimators, cell and
    /// reference counts — without executing or probing anything.
    pub fn dry_run(&self) -> Result<DryRun, EngineError> {
        let Expansion {
            estimator_ids,
            instances,
            ..
        } = expand(&self.spec, &self.registry)?;
        let e_count = estimator_ids.len();
        let m_count = self.spec.model_count();
        Ok(DryRun {
            name: self.spec.name.clone(),
            backend: self.backend.name(),
            estimators: estimator_ids.into_iter().map(|(_, id)| id).collect(),
            instances: instances
                .iter()
                .map(|i| DryRunInstance {
                    id: i.id.clone(),
                    tasks: i.dag.node_count(),
                    edges: i.dag.edge_count(),
                })
                .collect(),
            models: m_count,
            cells: instances.len() * m_count * e_count,
            references: instances.len() * m_count,
        })
    }

    /// Serve work leases from `input` — the worker half of a **v2**
    /// distributed run (`sweep-worker --leases`, spawned by
    /// [`MultiProcess`] or launched by hand against a
    /// [`SharedFs`](crate::SharedFs) spool's coordinator pipe).
    ///
    /// Decodes one [`WorkLease`] per line, executes each against the
    /// shared cache within the spec's `jobs` thread budget (the
    /// coordinator's `--jobs` handshake; defaulting to this machine's
    /// cores — a leased worker never derives `cores / N`, it does not
    /// know the peer count), and reports events to the configured
    /// observers — a worker process attaches a
    /// [`WireObserver`](crate::WireObserver) on stdout. Returns when
    /// `input` reaches EOF (the coordinator closed the pipe after the
    /// queue drained). `worker` tags this worker's `Hello`/`Telemetry`
    /// events.
    pub fn serve_leases(
        mut self,
        worker: usize,
        input: impl BufRead + Send,
    ) -> Result<(), EngineError> {
        let observers = Mutex::new(std::mem::take(&mut self.observers));
        let emit = |ev: CampaignEvent| -> Result<(), EngineError> {
            let mut observers = observers.lock().expect("observer list");
            for o in observers.iter_mut() {
                o.on_event(&ev)?;
            }
            Ok(())
        };
        let result = CampaignPlan::new(&self.spec, &self.registry).and_then(|plan| {
            let ctx = BackendContext {
                spec: &self.spec,
                registry: &self.registry,
                cache: &self.cache,
                telemetry: &self.telemetry,
                cancel: &self.cancel,
                plan: &plan,
            };
            let pipe = PipeSource {
                lines: Mutex::new(input.lines()),
                worker,
                emit: &emit,
            };
            serve_session(&ctx, worker, &pipe, &emit)
        });
        for o in observers.into_inner().expect("observer list").iter_mut() {
            let _ = o.on_finish();
        }
        result
    }
}

/// Configures a [`Campaign`] (see [`Campaign::builder`]).
pub struct CampaignBuilder(Campaign);

impl CampaignBuilder {
    /// Replace the estimator registry (default: the standard one).
    pub fn registry(mut self, registry: EstimatorRegistry) -> Self {
        self.0.registry = registry;
        self
    }

    /// Use this result cache (an owned [`ResultCache`] or a shared
    /// `Arc<ResultCache>` — pass a clone of the `Arc` to keep a handle
    /// for post-run maintenance like [`ResultCache::gc_disk`]).
    pub fn cache(mut self, cache: impl Into<Arc<ResultCache>>) -> Self {
        self.0.cache = cache.into();
        self
    }

    /// Select the execution backend (default: [`InProcess`]).
    pub fn backend(mut self, backend: impl ExecBackend + 'static) -> Self {
        self.0.backend = Box::new(backend);
        self
    }

    /// Cap the campaign's worker threads (overrides the spec's `jobs`;
    /// results are identical at any setting).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.0.spec.jobs = Some(jobs);
        self
    }

    /// Attach an ordered row consumer (every sink receives every row,
    /// in deterministic cell order).
    pub fn sink(mut self, sink: impl ResultSink + 'static) -> Self {
        self.0.sinks.push(Box::new(sink));
        self
    }

    /// Subscribe a completion-order event observer.
    pub fn observer(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.0.observers.push(Box::new(observer));
        self
    }

    /// Render progress (counters, throughput, cache-hit rate, ETA) to
    /// stderr in the given mode — shorthand for subscribing a
    /// [`ProgressReporter`]. [`ProgressMode::Live`] falls back to
    /// plain line output when stderr is not a terminal (see
    /// [`ProgressReporter::stderr`]).
    pub fn progress(self, mode: ProgressMode) -> Self {
        self.observer(ProgressReporter::stderr(mode))
    }

    /// Attach a telemetry collector (default:
    /// [`Telemetry::disabled`]). Pass a clone of an enabled handle and
    /// keep the original: after [`Campaign::run`] it holds the merged
    /// spans and counters of every worker, ready for
    /// [`Telemetry::report`]. With an enabled collector,
    /// [`MultiProcess`] workers are spawned with `--telemetry` and
    /// their snapshots merge in over the wire.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.0.telemetry = telemetry;
        self
    }

    /// Share a cooperative stop flag with the campaign (default: a
    /// private token nobody cancels). Keep a clone and call
    /// [`CancelToken::cancel`] from another thread to stop the run
    /// between cells; the run then fails with
    /// [`EngineError::Cancelled`]. Finished cells are already in the
    /// cache, so re-running the same spec over the same cache resumes
    /// from where the cancelled run stopped.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.0.cancel = cancel;
        self
    }

    /// Validate the configuration and produce the campaign handle.
    /// Spec problems (empty axes, bad estimator knobs, `jobs = 0`)
    /// fail here, before any filesystem or process work.
    pub fn build(self) -> Result<Campaign, EngineError> {
        let campaign = self.0;
        campaign.spec.validate()?;
        for est in &campaign.spec.estimators {
            campaign.registry.build(est, 0)?; // constructors are cheap; reject bad knobs now
        }
        if campaign.backend.workers() == 0 {
            return Err(EngineError::spec("backend needs at least one worker"));
        }
        Ok(campaign)
    }
}
