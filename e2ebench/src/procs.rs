//! Dependency-free process accounting from `/proc`, and orphan-free
//! teardown of every process the benchmark starts.
//!
//! CPU: user+system time of reaped children comes from the `cutime` and
//! `cstime` fields of `/proc/self/stat` (a child that waited for its own
//! workers includes theirs); a process that is still alive is read from
//! its own `/proc/<pid>/stat`. Peak memory: a sampler thread reads
//! `VmHWM` of every tracked process and its descendants.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Fields of `/proc/<pid>/stat` after the parenthesised command name.
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(
        rest.split_whitespace()
            .skip(1) // state
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// CPU milliseconds (user + system) of every child this process has
/// reaped so far, and of their reaped descendants.
pub fn reaped_children_cpu_ms() -> f64 {
    // Fields 16 and 17 (cutime, cstime); index 0 here is field 4.
    stat_fields("self").map_or(0.0, |f| (f[12] + f[13]) as f64 * 1000.0 / TICKS_PER_S)
}

/// CPU milliseconds (user + system) a live process has used so far.
pub fn process_cpu_ms(pid: u32) -> f64 {
    // Fields 14 and 15 (utime, stime).
    stat_fields(&pid.to_string()).map_or(0.0, |f| (f[10] + f[11]) as f64 * 1000.0 / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `pid` and all of its live descendants.
fn process_tree(pid: u32) -> Vec<u32> {
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let p = out[i];
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{p}/task")) {
            for task in tasks.flatten() {
                if let Ok(kids) = std::fs::read_to_string(task.path().join("children")) {
                    out.extend(
                        kids.split_whitespace()
                            .filter_map(|k| k.parse::<u32>().ok()),
                    );
                }
            }
        }
        i += 1;
    }
    out
}

struct Shared {
    roots: Mutex<Vec<u32>>,
    peak_kb: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn sample(&self) {
        let roots = self.roots.lock().expect("roots").clone();
        for root in roots {
            for pid in process_tree(root) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    self.peak_kb.fetch_max(kb, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Tracks every process the benchmark spawns: samples their peak
/// memory while they live, and stops the sampler when dropped.
pub struct ProcSet {
    shared: Arc<Shared>,
    sampler: Option<JoinHandle<()>>,
}

impl Default for ProcSet {
    fn default() -> Self {
        ProcSet::new()
    }
}

impl ProcSet {
    /// Start the peak-memory sampler (every 20 ms).
    pub fn new() -> ProcSet {
        let shared = Arc::new(Shared {
            roots: Mutex::new(Vec::new()),
            peak_kb: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let s = shared.clone();
        let sampler = std::thread::spawn(move || {
            while !s.stop.load(Ordering::Relaxed) {
                s.sample();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        ProcSet {
            shared,
            sampler: Some(sampler),
        }
    }

    /// Highest `VmHWM` seen among tracked processes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.shared.sample();
        self.shared.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }

    /// Forget the peak seen so far (set-up processes are not part of
    /// the measured run).
    pub fn reset_peak(&self) {
        self.shared.peak_kb.store(0, Ordering::Relaxed);
    }

    /// Spawn `cmd` with stdin closed and stderr captured, tracked until
    /// it is waited for or dropped (which kills it).
    pub fn spawn(&self, mut cmd: Command, label: &str, stdout: Stdio) -> Result<Proc, String> {
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {label}: {e}"))?;
        let pid = child.id();
        self.shared.roots.lock().expect("roots").push(pid);
        let stderr = child.stderr.take().expect("piped stderr");
        let first_line = Arc::new(Mutex::new(None));
        let first = first_line.clone();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                first
                    .lock()
                    .expect("first line")
                    .get_or_insert_with(Instant::now);
                text.push_str(&line);
                text.push('\n');
            }
            text
        });
        Ok(Proc {
            child: Some(child),
            pid,
            label: label.to_string(),
            spawned,
            first_line,
            reader: Some(reader),
            shared: self.shared.clone(),
        })
    }
}

impl Drop for ProcSet {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// A spawned process. Dropping it without [`Proc::wait`] kills it and
/// reaps it, so no error path leaves an orphan behind.
pub struct Proc {
    child: Option<Child>,
    pid: u32,
    label: String,
    spawned: Instant,
    first_line: Arc<Mutex<Option<Instant>>>,
    reader: Option<JoinHandle<String>>,
    shared: Arc<Shared>,
}

/// How a waited-for process ended.
pub struct Exit {
    /// Exit status.
    pub status: ExitStatus,
    /// Everything it wrote to stderr.
    pub stderr: String,
    /// Spawn until its first line of stderr (its start-up time).
    pub startup: Option<Duration>,
}

impl Proc {
    /// Process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Standard output, when it was piped.
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.as_mut()?.stdout.take()
    }

    /// Spawn until the first line of stderr, if one arrived yet.
    pub fn startup(&self) -> Option<Duration> {
        self.first_line
            .lock()
            .expect("first line")
            .map(|t| t.duration_since(self.spawned))
    }

    fn untrack(&self) {
        self.shared.sample();
        self.shared
            .roots
            .lock()
            .expect("roots")
            .retain(|&p| p != self.pid);
    }

    /// Wait for the process to exit.
    pub fn wait(mut self) -> Result<Exit, String> {
        let mut child = self.child.take().expect("not yet waited");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for {}: {e}", self.label))?;
        self.untrack();
        let stderr = self
            .reader
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        Ok(Exit {
            status,
            stderr,
            startup: self.startup(),
        })
    }

    /// Wait up to `timeout` for the process to exit on its own; kill it
    /// after that. Returns whether it exited by itself.
    pub fn wait_or_kill(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let child = self.child.as_mut().expect("not yet waited");
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                self.untrack();
                self.child = None;
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false // Drop kills and reaps it.
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            self.untrack();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create a fresh, empty directory at `path` (absolute).
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
