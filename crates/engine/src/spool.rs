//! Cross-host campaigns over a shared-filesystem spool directory: the
//! [`SharedFs`] backend (coordinator side) and the [`SpoolWorker`]
//! session (remote side, behind `sweep-worker --spool`).
//!
//! The transport is the filesystem every host already shares (NFS,
//! Lustre, a bind mount): no sockets, no ssh, no new dependencies.
//! All handoff is by **atomic rename** — the same tmp-then-rename
//! discipline [`ResultCache`] uses for cell payloads — so a reader
//! never observes a half-written file:
//!
//! ```text
//! spool/
//!   spec.json                    campaign spec (coordinator, at start)
//!   meta.json                    campaign name + shared cache dir
//!   workers/{name}.json          worker registration {name, jobs, pid}
//!   stats/{name}.json            cumulative worker progress {name, leases, cells}
//!   leases/open/
//!     lease-000007-a1.json       grantable lease, attempt 1
//!   leases/claimed/
//!     lease-000007-a1.json       renamed here by the claiming worker
//!   events/
//!     lease-000007-a1.jsonl      the attempt's CampaignEvent stream
//!   stop                         "done" or "abort"; workers exit
//! ```
//!
//! Lifecycle: the coordinator writes `spec.json`/`meta.json`, drops
//! every planned [`WorkLease`] into `leases/open/`, and polls. Workers
//! (launched by hand, a job scheduler, anything) register themselves,
//! claim leases by renaming `open/ → claimed/` (the rename race picks
//! exactly one winner), execute them against the shared cache with the
//! standard [`LeaseExecutor`], and publish each attempt's event stream
//! to `events/` — ending in
//! [`LeaseDone`](crate::CampaignEvent::LeaseDone) on success or an
//! [`Error`](crate::CampaignEvent::Error) tail on failure. The spool is
//! one transport of the coordinator loop that
//! [`MultiProcess`](crate::MultiProcess) runs over pipes: the
//! coordinator merges each published stream and **re-queues** failed
//! or stale attempts (a claim the coordinator has seen for longer than
//! the lease timeout with no event file is a dead worker) under the
//! campaign's per-lease attempt cap, exactly like a local worker crash.
//! Output stays byte-identical to a single-process run because every
//! consumer shares the [`LeaseExecutor`] definitions and the campaign
//! merge drops duplicate deliveries and re-sequences rows by global
//! cell index.
//!
//! Spool workers run with telemetry disabled (snapshots would need
//! another spool channel for little insight — worker timings are in
//! the event streams' wake); the coordinator's own spans and counters
//! (`worker_retries`, per-event progress) work as usual. Workers do
//! publish cumulative progress to `stats/{name}.json` after every
//! completed lease; the coordinator folds the deltas into
//! `spool_leases_{name}` / `spool_cells_{name}` telemetry counters and
//! counts stale-claim reclaims as `spool_reclaims`, so `--metrics-out`
//! shows who did the work and how often leases had to be re-granted.

use crate::campaign::{BackendContext, Deliver, ExecBackend, COORDINATOR_SOURCE};
use crate::coordinator::{coordinate, Lost, Report, Transport};
use crate::error::EngineError;
use crate::lease::{
    decode_lease, drain, encode_lease, CampaignPlan, LeaseExecutor, LeaseQueue, LeaseSource,
    WorkLease,
};
use crate::protocol::{decode_event, encode_event, CampaignEvent};
use crate::registry::EstimatorRegistry;
use crate::spec::SweepSpec;
use crate::telemetry::Telemetry;
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(50);

/// Write `payload` to `path` atomically (tmp in the same directory,
/// then rename) so spool readers never observe a torn file.
fn write_atomic(path: &Path, payload: &str) -> Result<(), EngineError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, payload)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| EngineError::io(format!("writing spool file {}", path.display()), e))
}

/// [`write_atomic`] of a JSON object.
fn write_json(
    path: &Path,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
) -> Result<(), EngineError> {
    let mut text = String::new();
    serde::json::write_value(&Value::obj(fields), &mut text);
    write_atomic(path, &text)
}

fn lease_file_name(lease_id: usize, attempt: usize) -> String {
    format!("lease-{lease_id:06}-a{attempt}")
}

/// Parse `(lease_id, attempt)` back out of a spool file stem
/// (`lease-000007-a2`).
fn parse_lease_stem(stem: &str) -> Option<(usize, usize)> {
    let rest = stem.strip_prefix("lease-")?;
    let (id, attempt) = rest.split_once("-a")?;
    Some((id.parse().ok()?, attempt.parse().ok()?))
}

/// The `.{ext}` files of `dir` with their stems, sorted (deterministic
/// scan order across hosts and filesystems). A file still under its
/// `write_atomic` tmp name does not match; a missing directory reads as
/// empty.
fn spool_files(dir: &Path, ext: &str) -> Vec<(PathBuf, String)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(PathBuf, String)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == ext).then_some((path, stem))
        })
        .collect();
    files.sort();
    files
}

/// Drive a campaign through a shared-filesystem spool directory —
/// the cross-host [`ExecBackend`]. The module-level docs above cover
/// the spool layout and failure semantics; see
/// [`SpoolWorker`] for the remote half.
///
/// The spool directory must be empty (or absent) — one spool hosts one
/// campaign. Workers can join at any time; the campaign fails if none
/// registers within [`worker_timeout`](SharedFs::worker_timeout), or
/// if all progress stalls longer than the lease and worker timeouts
/// combined.
pub struct SharedFs {
    spool: PathBuf,
    lease_timeout: Duration,
    worker_timeout: Duration,
}

impl SharedFs {
    /// Backend coordinating through `spool` (created if absent).
    pub fn new(spool: impl Into<PathBuf>) -> SharedFs {
        SharedFs {
            spool: spool.into(),
            lease_timeout: Duration::from_secs(300),
            worker_timeout: Duration::from_secs(120),
        }
    }

    /// How long a claimed lease may sit without its event stream
    /// appearing before the claim is presumed dead and the lease
    /// re-queued (default 300 s). The clock starts when the coordinator
    /// first sees the claim in `leases/claimed/` — not at the claim
    /// file's mtime, which the claiming rename keeps from when the
    /// lease was posted and which another host's clock wrote. Set this
    /// well above the cost of the campaign's most expensive batch: a
    /// reclaim of a *live* slow worker is harmless (results are
    /// deterministic and deduplicated) but wastes its work.
    pub fn lease_timeout(mut self, timeout: Duration) -> SharedFs {
        self.lease_timeout = timeout.max(Duration::from_secs(1));
        self
    }

    /// How long to wait for the first worker registration before
    /// failing the campaign (default 120 s).
    pub fn worker_timeout(mut self, timeout: Duration) -> SharedFs {
        self.worker_timeout = timeout.max(Duration::from_secs(1));
        self
    }
}

impl ExecBackend for SharedFs {
    fn name(&self) -> String {
        format!("shared-fs ({})", self.spool.display())
    }

    fn execute(
        &self,
        ctx: &BackendContext<'_>,
        leases: &LeaseQueue,
        deliver: &Deliver<'_>,
    ) -> Result<(), EngineError> {
        if ctx.cancel.is_cancelled() {
            return Err(EngineError::cancelled());
        }
        for sub in [
            "leases/open",
            "leases/claimed",
            "events",
            "workers",
            "stats",
        ] {
            std::fs::create_dir_all(self.spool.join(sub)).map_err(|e| {
                let what = format!("creating spool directory {}", self.spool.display());
                EngineError::io(what, e)
            })?;
        }
        let spec_path = self.spool.join("spec.json");
        if spec_path.exists() {
            return Err(EngineError::spec(format!(
                "spool {} already hosts a campaign (found spec.json); \
                 use a fresh directory per campaign",
                self.spool.display()
            )));
        }
        let cache = match ctx.cache.disk_dir() {
            Some(dir) => serde::Serialize::serialize(&dir.display().to_string()),
            None => Value::Null,
        };
        let name = serde::Serialize::serialize(&ctx.spec.name);
        write_json(
            &self.spool.join("meta.json"),
            [("name", name), ("cache", cache)],
        )?;
        // spec.json lands last: its appearance is the signal workers
        // wait on, so meta must already be readable.
        write_atomic(&spec_path, &serde::json::to_string(ctx.spec))?;
        let mut spool = Spool {
            fs: self,
            ctx,
            start: Instant::now(),
            last_report: Instant::now(),
            scanned: false,
            slots: BTreeMap::new(),
            streams: HashSet::new(),
            done: HashSet::new(),
            claims: HashMap::new(),
            stats: BTreeMap::new(),
        };
        coordinate(&mut spool, leases, deliver, ctx.telemetry, ctx.cancel)
    }
}

/// The spool transport of [`SharedFs`]: lease files out, event files
/// in, one directory scan per 50 ms poll.
struct Spool<'a> {
    fs: &'a SharedFs,
    ctx: &'a BackendContext<'a>,
    start: Instant,
    /// When a scan last found something to report.
    last_report: Instant,
    /// Whether the first scan ran (every later one waits a poll first).
    scanned: bool,
    /// Registered worker names and their slots, in order of first sighting.
    slots: BTreeMap<String, usize>,
    /// Event files already read.
    streams: HashSet<PathBuf>,
    /// Leases whose complete event stream was reported.
    done: HashSet<usize>,
    /// When each claim file was first seen in `leases/claimed/`. A
    /// claim's age runs from here, not from its mtime: the claiming
    /// rename keeps the mtime the lease file got when it was posted,
    /// and another host's clock may disagree with this one's.
    claims: HashMap<PathBuf, Instant>,
    /// Cumulative `(leases, cells)` already folded in, per worker.
    stats: BTreeMap<String, (u64, u64)>,
}

impl Spool<'_> {
    fn dir(&self, sub: &str) -> PathBuf {
        self.fs.spool.join(sub)
    }

    /// Fold the workers' cumulative `stats/{name}.json` files into
    /// per-worker telemetry counters, counting only the delta since
    /// the previous harvest (the files are cumulative; counters are
    /// monotonic sums).
    fn harvest_worker_stats(&mut self) {
        for (path, name) in spool_files(&self.dir("stats"), "json") {
            let Some(v) = std::fs::read_to_string(&path)
                .ok()
                .and_then(|s| serde::json::parse(&s).ok())
            else {
                continue; // torn or vanished file; next poll re-reads
            };
            let leases = v.get("leases").and_then(Value::as_u64).unwrap_or(0);
            let cells = v.get("cells").and_then(Value::as_u64).unwrap_or(0);
            let last = self.stats.entry(name.clone()).or_insert((0, 0));
            let telemetry = self.ctx.telemetry;
            if leases > last.0 {
                telemetry.count(&format!("spool_leases_{name}"), leases - last.0);
            }
            if cells > last.1 {
                telemetry.count(&format!("spool_cells_{name}"), cells - last.1);
            }
            *last = (leases.max(last.0), cells.max(last.1));
        }
    }

    /// Report one attempt's published event stream: its events, and
    /// the lease lost unless the stream ends in the lease's `LeaseDone`
    /// (what the cache already holds of a failed attempt makes the
    /// retry cheap). Returns whether the attempt completed.
    fn read_stream(
        path: &Path,
        lease_id: usize,
        out: &mut Vec<Report>,
    ) -> Result<bool, EngineError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| EngineError::io(format!("reading event stream {}", path.display()), e))?;
        let (mut why, mut kind) = ("attempt ended without lease_done".to_string(), None);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match decode_event(line) {
                Ok(CampaignEvent::Error { message, kind: k }) => {
                    (why, kind) = (message, Some(k.unwrap_or_else(|| "unknown".into())));
                    break;
                }
                Ok(event) => {
                    let done = matches!(event, CampaignEvent::LeaseDone { lease_id: id, .. } if id == lease_id);
                    out.push(Report::Event(0, event));
                    if done {
                        return Ok(true);
                    }
                }
                Err(e) => {
                    why = e;
                    break;
                }
            }
        }
        out.push(Report::Lost(Lost {
            who: format!("spool lease {lease_id}"),
            slot: None,
            leases: vec![lease_id],
            why,
            kind,
        }));
        Ok(false)
    }
}

impl Transport for Spool<'_> {
    fn room(&self) -> usize {
        usize::MAX
    }

    fn grant(&mut self, lease: WorkLease, attempt: usize) -> Result<(), EngineError> {
        let name = format!("{}.json", lease_file_name(lease.lease_id, attempt));
        write_atomic(&self.dir("leases/open").join(name), &encode_lease(&lease))
    }

    fn wait(&mut self, out: &mut Vec<Report>) -> Result<(), EngineError> {
        if self.scanned {
            std::thread::sleep(POLL);
        }
        self.scanned = true;
        // New worker registrations → one Hello per worker, slot
        // indices in registration-name order of first sighting.
        for (reg, name) in spool_files(&self.dir("workers"), "json") {
            if self.slots.contains_key(&name) {
                continue;
            }
            let jobs = std::fs::read_to_string(&reg)
                .ok()
                .and_then(|s| serde::json::parse(&s).ok())
                .and_then(|v| v.get("jobs").and_then(Value::as_u64))
                .map(|j| j as usize);
            let slot = self.slots.len();
            self.slots.insert(name, slot);
            let hello = CampaignEvent::Hello {
                shard: slot,
                shard_count: 0,
                cells: 0,
                references: 0,
                version: Some(2),
                jobs,
            };
            out.push(Report::Event(slot, hello));
        }
        // Completed (or failed) attempt streams.
        for (path, stem) in spool_files(&self.dir("events"), "jsonl") {
            let Some((lease_id, _attempt)) = parse_lease_stem(&stem) else {
                continue;
            };
            if !self.streams.insert(path.clone()) {
                continue;
            }
            if self.done.contains(&lease_id) {
                continue; // duplicate attempt (reclaimed slow worker)
            }
            if Self::read_stream(&path, lease_id, out)? {
                self.done.insert(lease_id);
            }
        }
        // Stale claims: a claim whose event stream never appeared
        // within the lease timeout is a dead worker.
        for (claim, stem) in spool_files(&self.dir("leases/claimed"), "json") {
            let Some((lease_id, _)) = parse_lease_stem(&stem) else {
                continue;
            };
            if self.done.contains(&lease_id) {
                continue;
            }
            let seen = *self
                .claims
                .entry(claim.clone())
                .or_insert_with(Instant::now);
            // Removing the claim is the reclaim lock: only one
            // coordinator pass can win the remove.
            if seen.elapsed() > self.fs.lease_timeout && std::fs::remove_file(&claim).is_ok() {
                self.ctx.telemetry.count("spool_reclaims", 1);
                out.push(Report::Lost(Lost {
                    who: format!("spool lease {lease_id}"),
                    slot: None,
                    leases: vec![lease_id],
                    why: "worker lost; claim went stale".into(),
                    kind: None,
                }));
            }
        }
        self.harvest_worker_stats();
        // A remote worker can vanish without a trace, so silence is
        // bounded: no registration within the worker timeout, or no
        // report at all for the lease and worker timeouts combined.
        if !out.is_empty() {
            self.last_report = Instant::now();
        } else if self.slots.is_empty() && self.start.elapsed() > self.fs.worker_timeout {
            return Err(EngineError::worker(
                None,
                format!(
                    "no spool worker registered in {} within {:.0?} — \
                     launch `sweep-worker --spool` on a host sharing the filesystem",
                    self.fs.spool.display(),
                    self.fs.worker_timeout
                ),
            ));
        } else if self.last_report.elapsed() > self.fs.lease_timeout + self.fs.worker_timeout {
            return Err(EngineError::worker(
                None,
                format!(
                    "spool campaign stalled: no lease progress for {:.0?} \
                     ({} of {} leases completed)",
                    self.fs.lease_timeout + self.fs.worker_timeout,
                    self.done.len(),
                    self.ctx.plan.leases().len()
                ),
            ));
        }
        Ok(())
    }

    fn end(&mut self, drained: bool, out: &mut Vec<Report>) {
        let verdict = if drained { "done" } else { "abort" };
        let _ = write_atomic(&self.dir("stop"), verdict);
        if !drained {
            return;
        }
        // Grace pass: a worker writes its stats file just *after*
        // publishing the event stream that drained the queue, so give
        // the last cumulative writes a moment to land before the final
        // fold into the counters.
        let total = self.done.len() as u64;
        let grace = Instant::now();
        loop {
            self.harvest_worker_stats();
            let harvested: u64 = self.stats.values().map(|(l, _)| *l).sum();
            if harvested >= total || grace.elapsed() > Duration::from_secs(2) {
                break;
            }
            std::thread::sleep(POLL);
        }
        let wall_s = self.start.elapsed().as_secs_f64();
        let done = CampaignEvent::Done {
            hits: 0,
            misses: 0,
            wall_s,
        };
        out.push(Report::Event(COORDINATOR_SOURCE, done));
    }
}

/// What a [`SpoolWorker`] session accomplished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpoolSummary {
    /// Lease attempts this worker completed successfully.
    pub leases: usize,
    /// Cells across those attempts.
    pub cells: usize,
}

/// The remote half of a [`SharedFs`] campaign: one worker process on
/// any host sharing the spool filesystem (the engine behind
/// `sweep-worker --spool DIR`).
///
/// [`run`](SpoolWorker::run) waits for the coordinator's `spec.json`,
/// registers under [`name`](SpoolWorker::name), then claims and
/// executes leases with `jobs` threads until the coordinator writes
/// the `stop` file. Results go to the shared cache named in
/// `meta.json` (override with [`cache_dir`](SpoolWorker::cache_dir) /
/// [`no_cache`](SpoolWorker::no_cache)); each attempt's event stream
/// is published atomically to `events/`. A worker may join or die at
/// any point — the coordinator re-queues whatever it abandoned.
pub struct SpoolWorker {
    spool: PathBuf,
    name: String,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    max_wait: Duration,
}

impl SpoolWorker {
    /// Worker session over `spool`. Default name `worker-{pid}`,
    /// thread count = this host's cores (each host caps itself — peer
    /// count is unknown and irrelevant under leasing).
    pub fn new(spool: impl Into<PathBuf>) -> SpoolWorker {
        SpoolWorker {
            spool: spool.into(),
            name: format!("worker-{}", std::process::id()),
            jobs: None,
            cache_dir: None,
            no_cache: false,
            max_wait: Duration::from_secs(60),
        }
    }

    /// Registration name (must be unique across the campaign's
    /// workers; the default embeds the pid, so collisions only happen
    /// across hosts with colliding pids — pass hostnames there).
    pub fn name(mut self, name: impl Into<String>) -> SpoolWorker {
        self.name = name.into();
        self
    }

    /// Cap this worker's threads (default: every core of this host).
    pub fn jobs(mut self, jobs: usize) -> SpoolWorker {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Use this result-cache directory instead of the one `meta.json`
    /// names (e.g. when the shared cache mounts at a different path on
    /// this host).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SpoolWorker {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Run without a disk cache (correct but recomputes everything the
    /// cache would have shared).
    pub fn no_cache(mut self) -> SpoolWorker {
        self.no_cache = true;
        self
    }

    /// How long to wait for the coordinator's `spec.json` before
    /// giving up (default 60 s).
    pub fn max_wait(mut self, wait: Duration) -> SpoolWorker {
        self.max_wait = wait;
        self
    }

    fn stopped(&self) -> bool {
        self.spool.join("stop").exists()
    }

    /// Serve the spool until the coordinator stops the campaign.
    pub fn run(self) -> Result<SpoolSummary, EngineError> {
        // Wait for the campaign to appear (spec.json is written last,
        // so meta.json is readable once it exists).
        let spec_path = self.spool.join("spec.json");
        let waited = Instant::now();
        while !spec_path.exists() {
            if self.stopped() {
                return Ok(SpoolSummary {
                    leases: 0,
                    cells: 0,
                });
            }
            if waited.elapsed() > self.max_wait {
                return Err(EngineError::worker(
                    None,
                    format!(
                        "no campaign appeared in spool {} within {:.0?}",
                        self.spool.display(),
                        self.max_wait
                    ),
                ));
            }
            std::thread::sleep(POLL);
        }
        let spec_text = std::fs::read_to_string(&spec_path)
            .map_err(|e| EngineError::io(format!("reading {}", spec_path.display()), e))?;
        let mut spec: SweepSpec = serde::json::from_str(&spec_text)
            .map_err(|e| EngineError::spec(format!("bad spool spec.json: {e}")))?;
        spec.validate()?;
        let meta_cache = std::fs::read_to_string(self.spool.join("meta.json"))
            .ok()
            .and_then(|s| serde::json::parse(&s).ok())
            .and_then(|m| Some(PathBuf::from(m.get("cache")?.as_str()?)));
        let cache = match self.cache_dir.clone().or(meta_cache) {
            Some(dir) if !self.no_cache => crate::cache::ResultCache::on_disk(dir),
            _ => crate::cache::ResultCache::in_memory(),
        };
        // This host's thread budget (the coordinator's spec `jobs` is
        // sized for the coordinator's machine, not this one).
        let jobs = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        spec.jobs = Some(jobs);
        let registry = EstimatorRegistry::standard();
        let plan = CampaignPlan::new(&spec, &registry)?;
        let telemetry = Telemetry::disabled();
        let cancel = crate::cancel::CancelToken::new();
        let ctx = BackendContext {
            spec: &spec,
            registry: &registry,
            cache: &cache,
            telemetry: &telemetry,
            cancel: &cancel,
            plan: &plan,
        };
        let executor = LeaseExecutor::new(&ctx);
        let pid = std::process::id() as u64;
        write_json(
            &self.spool.join(format!("workers/{}.json", self.name)),
            [
                ("name", serde::Serialize::serialize(&self.name)),
                ("jobs", serde::Serialize::serialize(&jobs)),
                ("pid", serde::Serialize::serialize(&pid)),
            ],
        )?;
        let source = SpoolSource {
            worker: &self,
            closed: AtomicBool::new(false),
            done: Mutex::new(SpoolSummary {
                leases: 0,
                cells: 0,
            }),
        };
        drain(&source, &executor)?;
        Ok(source.done.into_inner().expect("worker totals"))
    }

    /// Claim the first open lease by renaming it into `claimed/`; the
    /// rename race picks exactly one winner per file.
    fn claim_next(&self) -> Option<(WorkLease, String)> {
        for (open, stem) in spool_files(&self.spool.join("leases/open"), "json") {
            let claimed = self
                .spool
                .join("leases/claimed")
                .join(open.file_name().expect("lease file name"));
            if std::fs::rename(&open, &claimed).is_err() {
                continue; // another worker won this one
            }
            let Ok(text) = std::fs::read_to_string(&claimed) else {
                continue;
            };
            match decode_lease(&text) {
                Ok(lease) => return Some((lease, stem)),
                Err(_) => continue, // torn file; the coordinator re-queues it
            }
        }
        None
    }
}

/// One claimed spool lease: the lease, its attempt's file stem, and
/// the tmp event stream the attempt writes before publishing it.
struct SpoolClaim {
    lease: WorkLease,
    stem: String,
    tmp: PathBuf,
    out: Mutex<BufWriter<File>>,
}

impl std::borrow::Borrow<WorkLease> for SpoolClaim {
    fn borrow(&self) -> &WorkLease {
        &self.lease
    }
}

/// The spool transport of a [`SpoolWorker`]: claims leases by renaming
/// `leases/open/ → claimed/` (polling every 50 ms until the
/// coordinator writes `stop`), writes each attempt's events to a tmp
/// file, and retires an attempt by publishing that file atomically to
/// `events/` — with an `Error` tail when the attempt failed, so the
/// coordinator re-queues promptly instead of waiting out the
/// stale-claim timeout — and then its cumulative `stats/{name}.json`.
struct SpoolSource<'w> {
    worker: &'w SpoolWorker,
    closed: AtomicBool,
    /// Attempts completed so far; held while publishing them, so the
    /// stats file only ever grows.
    done: Mutex<SpoolSummary>,
}

impl LeaseSource for SpoolSource<'_> {
    type Claim = SpoolClaim;

    fn claim(&self) -> Result<Option<SpoolClaim>, EngineError> {
        loop {
            if self.closed.load(Ordering::Relaxed) || self.worker.stopped() {
                return Ok(None);
            }
            let Some((lease, stem)) = self.worker.claim_next() else {
                std::thread::sleep(POLL);
                continue;
            };
            let tmp = self
                .worker
                .spool
                .join("events")
                .join(format!("{stem}.jsonl.tmp.{}", std::process::id()));
            let file = File::create(&tmp)
                .map_err(|e| EngineError::io(format!("creating {}", tmp.display()), e))?;
            return Ok(Some(SpoolClaim {
                lease,
                stem,
                tmp,
                out: Mutex::new(BufWriter::new(file)),
            }));
        }
    }

    fn emit(&self, claim: &SpoolClaim, event: CampaignEvent) -> Result<(), EngineError> {
        let mut out = claim.out.lock().expect("event stream");
        writeln!(out, "{}", encode_event(&event))
            .map_err(|e| EngineError::io("writing spool event stream", e))
    }

    fn retire(
        &self,
        claim: SpoolClaim,
        result: Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        if let Err(e) = &result {
            let _ = self.emit(
                &claim,
                CampaignEvent::Error {
                    message: e.to_string(),
                    kind: Some(e.kind().to_string()),
                },
            );
        }
        claim
            .out
            .into_inner()
            .expect("event stream")
            .flush()
            .map_err(|e| EngineError::io("flushing spool event stream", e))?;
        let spool = &self.worker.spool;
        let final_path = spool.join("events").join(format!("{}.jsonl", claim.stem));
        std::fs::rename(&claim.tmp, &final_path)
            .map_err(|e| EngineError::io(format!("publishing {}", final_path.display()), e))?;
        let _ = std::fs::remove_file(
            spool
                .join("leases/claimed")
                .join(format!("{}.json", claim.stem)),
        );
        result?;
        // Publish the cumulative totals to `stats/{name}.json`; a failed
        // write is ignored (stats are observability, never correctness).
        let mut done = self.done.lock().expect("worker totals");
        done.leases += 1;
        done.cells += claim.lease.cells.len();
        let worker = self.worker;
        let _ = write_json(
            &spool.join(format!("stats/{}.json", worker.name)),
            [
                ("name", serde::Serialize::serialize(&worker.name)),
                ("leases", serde::Serialize::serialize(&(done.leases as u64))),
                ("cells", serde::Serialize::serialize(&(done.cells as u64))),
            ],
        );
        Ok(())
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }
}
