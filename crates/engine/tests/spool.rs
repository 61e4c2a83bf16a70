//! Cross-host campaign coordination over a shared-filesystem spool,
//! exercised in-process: a [`SharedFs`] coordinator and [`SpoolWorker`]
//! sessions (threads here, remote `sweep-worker --spool` processes in
//! production) meet in one spool directory, and the merged output must
//! be byte-identical to a single-process run over the same cache —
//! including when a claim goes stale and the coordinator re-queues it.

mod common;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::SharedBuf;
use stochdag_engine::{
    Campaign, CampaignEvent, CsvSink, FnObserver, ResultCache, SharedFs, SpoolWorker, SweepSpec,
    Telemetry,
};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stochdag_spool_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn spec(name: &str) -> SweepSpec {
    SweepSpec::from_str_auto(&format!(
        r#"
        name = "{name}"
        seed = 13
        pfails = [0.01, 0.05]
        estimators = ["first-order", "sculli"]
        reference_trials = 600
        [[dags]]
        kind = "cholesky"
        ks = [2, 3]
        "#
    ))
    .unwrap()
}

#[test]
fn two_spool_workers_match_single_process_byte_for_byte() {
    let dir = scratch("two");
    let spool = dir.join("spool");
    let cache_dir = dir.join("cache");

    // Two worker sessions start first and wait for the campaign to be
    // posted — the normal cross-host launch order.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let spool = spool.clone();
            std::thread::spawn(move || {
                SpoolWorker::new(&spool)
                    .name(format!("w{i}"))
                    .jobs(1)
                    .max_wait(Duration::from_secs(30))
                    .run()
            })
        })
        .collect();

    let buf = SharedBuf::default();
    let hellos = Arc::new(Mutex::new(Vec::new()));
    let seen = hellos.clone();
    let outcome = Campaign::builder(spec("spool2"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool))
        .sink(CsvSink::new(buf.clone()))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            if let CampaignEvent::Hello { shard, jobs, .. } = ev {
                seen.lock().unwrap().push((*shard, *jobs));
            }
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    assert_eq!(outcome.references, 4);

    let summaries: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().unwrap().unwrap())
        .collect();
    assert_eq!(
        summaries.iter().map(|s| s.leases).sum::<usize>(),
        4,
        "the two sessions jointly drained every lease"
    );
    assert_eq!(summaries.iter().map(|s| s.cells).sum::<usize>(), 8);
    // Each worker the coordinator saw announced itself with its jobs
    // handshake. (A worker that registers only after a fast campaign
    // drained never appears — so the count is 1 or 2, never 0.)
    let hellos = hellos.lock().unwrap();
    assert!(
        (1..=2).contains(&hellos.len()),
        "registered workers announce once each: {hellos:?}"
    );
    assert!(hellos.iter().all(|&(_, jobs)| jobs == Some(1)));

    // Single-process replay over the same cache: identical bytes.
    let single = SharedBuf::default();
    let replay = Campaign::builder(spec("spool2"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::new(single.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(replay.fully_cached(), "{} misses", replay.cache_misses);
    assert_eq!(buf.bytes(), single.bytes(), "byte-identical CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_claim_is_reclaimed_and_the_campaign_completes() {
    let dir = scratch("stale");
    let spool = dir.join("spool");
    let cache_dir = dir.join("cache");

    // A saboteur that claims the first posted lease and then "dies":
    // the claim file sits in leases/claimed/ with no events behind it,
    // exactly what a worker killed mid-lease leaves on disk.
    let saboteur = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            let open = spool.join("leases").join("open");
            let claimed = spool.join("leases").join("claimed");
            for _ in 0..600 {
                if let Ok(entries) = std::fs::read_dir(&open) {
                    for e in entries.flatten() {
                        let target = claimed.join(e.file_name());
                        if std::fs::rename(e.path(), &target).is_ok() {
                            return true;
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            false
        })
    };

    // One healthy worker drains everything else (and, after the
    // coordinator reclaims the stale claim, the re-queued lease too).
    let worker = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            SpoolWorker::new(&spool)
                .name("healthy")
                .jobs(1)
                .max_wait(Duration::from_secs(30))
                .run()
        })
    };

    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec("stale"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .backend(SharedFs::new(&spool).lease_timeout(Duration::from_secs(1)))
        .sink(CsvSink::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8, "reclaim must not lose the stale lease");

    assert!(saboteur.join().unwrap(), "saboteur claimed a lease");
    let summary = worker.join().unwrap().unwrap();
    assert_eq!(
        summary.cells, 8,
        "the healthy worker executed every cell, including the reclaimed lease"
    );

    // The interrupted-and-reclaimed campaign still replays
    // byte-identically from its cache.
    let single = SharedBuf::default();
    let replay = Campaign::builder(spec("stale"))
        .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
        .sink(CsvSink::new(single.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(replay.fully_cached(), "{} misses", replay.cache_misses);
    assert_eq!(buf.bytes(), single.bytes(), "byte-identical CSV");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_lease_claimed_late_is_not_reclaimed_while_its_worker_runs() {
    let dir = scratch("late");
    let spool = dir.join("spool");
    let mut spec = spec("late");
    // Leases that span several 50 ms polls in `claimed/` yet finish
    // well inside the 1 s lease timeout, even in a debug build.
    spec.reference_trials = 100_000;

    // The only worker joins 2.5 s after the coordinator posted the
    // leases, so every lease file it claims is older than the 1 s
    // lease timeout; its claims are live all the same.
    let worker = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2500));
            SpoolWorker::new(&spool)
                .name("late")
                .jobs(1)
                .max_wait(Duration::from_secs(30))
                .run()
        })
    };
    let telemetry = Telemetry::enabled();
    let outcome = Campaign::builder(spec)
        .cache(Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(SharedFs::new(&spool).lease_timeout(Duration::from_secs(1)))
        .telemetry(telemetry.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    let summary = worker.join().unwrap().unwrap();
    assert_eq!(
        (summary.leases, summary.cells),
        (4, 8),
        "each lease ran once"
    );

    let counters = telemetry.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("spool_reclaims"), 0, "{counters:?}");
    assert_eq!(count("worker_retries"), 0, "{counters:?}");
    let spool_cells: u64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("spool_cells_"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(spool_cells, outcome.cells as u64, "{counters:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_registration_in_flight_is_not_a_worker() {
    let dir = scratch("torn");
    let spool = dir.join("spool");
    // What a worker's atomic registration write leaves for a moment
    // before its rename: an empty tmp file next to the real ones.
    std::fs::create_dir_all(spool.join("workers")).unwrap();
    std::fs::write(spool.join("workers").join("w0.tmp.1"), b"").unwrap();

    let worker = {
        let spool = spool.clone();
        std::thread::spawn(move || {
            SpoolWorker::new(&spool)
                .name("w1")
                .jobs(1)
                .max_wait(Duration::from_secs(30))
                .run()
        })
    };
    let hellos = Arc::new(Mutex::new(Vec::new()));
    let seen = hellos.clone();
    let outcome = Campaign::builder(spec("torn"))
        .cache(Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(SharedFs::new(&spool))
        .observer(FnObserver(move |ev: &CampaignEvent| {
            if let CampaignEvent::Hello { shard, jobs, .. } = ev {
                seen.lock().unwrap().push((*shard, *jobs));
            }
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 8);
    worker.join().unwrap().unwrap();
    assert_eq!(*hellos.lock().unwrap(), [(0, Some(1))]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_used_spool_directory_refuses_a_second_campaign() {
    let dir = scratch("reuse");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::write(spool.join("spec.json"), b"{}").unwrap();
    let err = Campaign::builder(spec("reuse"))
        .cache(Arc::new(ResultCache::on_disk(dir.join("cache"))))
        .backend(SharedFs::new(&spool).worker_timeout(Duration::from_secs(1)))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        err.to_string().contains("already hosts a campaign"),
        "{err}"
    );
    assert!(
        !spool.join("stop").exists(),
        "the refusal must not stop the campaign the spool hosts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spool_no_worker_joins_fails_after_the_worker_timeout_and_stops() {
    let dir = scratch("nobody");
    let spool = dir.join("spool");
    let err = Campaign::builder(spec("nobody"))
        .backend(SharedFs::new(&spool).worker_timeout(Duration::from_secs(1)))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        err.to_string().contains("no spool worker registered"),
        "{err}"
    );
    // A worker launched late finds the campaign already aborted.
    assert_eq!(
        std::fs::read_to_string(spool.join("stop")).unwrap(),
        "abort"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
