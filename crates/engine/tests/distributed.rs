//! Distributed execution invariants, exercised in-process: a leased
//! campaign's event stream — captured with an observer on
//! [`Campaign::run`], exactly what `serve` streams to its clients —
//! covers every planned cell and lease exactly once, replaying it
//! sharded across several readers through [`merge_event_streams`] is
//! byte-identical to the single-process sink output, and broken or
//! plan-less streams are rejected.

mod common;

use common::{capture_lines, merge_csv, shard_by_lease, SharedBuf};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use stochdag_engine::{
    decode_event, encode_event, merge_event_streams, Campaign, CampaignEvent, CsvSink,
    MultiProcess, ProgressMode, ProgressReporter, ResultCache, ResultSink, SweepSpec,
};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stochdag_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn campaign() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
name = "dist"
seed = 11
pfails = [0.01, 0.001]
estimators = ["first-order", "sculli", "mc:600"]
reference_trials = 1500

[[dags]]
kind = "cholesky"
ks = [2, 3]

[[dags]]
kind = "fork-join"
width = 3
depth = 2
"#,
    )
    .unwrap()
}

/// A captured leased run over a shared disk cache (see
/// [`common::capture_lines`]).
fn campaign_lines(spec: &SweepSpec, cache_dir: &PathBuf) -> Vec<String> {
    capture_lines(Campaign::builder(spec.clone()).cache(Arc::new(ResultCache::on_disk(cache_dir))))
}

#[test]
fn shards_jointly_match_single_process_byte_for_byte() {
    let spec = campaign();

    for shards in [1usize, 2, 4] {
        let dir = scratch(&format!("w{shards}"));
        let cache_dir = dir.join("cache");

        // Fresh leased run over the shared directory, its stream
        // replayed as `shards` worker-like streams.
        let lines = campaign_lines(&spec, &cache_dir);
        let (merged_csv, merged) = merge_csv(shard_by_lease(&lines, shards));
        assert_eq!(merged.cells, 18, "3 DAGs x 2 pfails x 3 estimators");

        // Single-process run over the same cache: must be fully served
        // from what the captured run stored, with identical bytes.
        let buf = SharedBuf::default();
        let single = Campaign::builder(spec.clone())
            .cache(Arc::new(ResultCache::on_disk(&cache_dir)))
            .sink(CsvSink::new(buf.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            single.fully_cached(),
            "the captured run must have computed every work unit ({} misses)",
            single.cache_misses
        );
        assert_eq!(merged.rows, single.rows, "merged rows = single rows");
        assert_eq!(merged_csv, buf.bytes(), "byte-identical CSV");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shard_streams_cover_every_cell_exactly_once() {
    let spec = campaign();
    let dir = scratch("cover");
    let cache_dir = dir.join("cache");
    let lines = campaign_lines(&spec, &cache_dir);
    let mut seen = std::collections::BTreeSet::new();
    let mut started = std::collections::BTreeSet::new();
    let mut done = std::collections::BTreeSet::new();
    let mut plan_cells = 0usize;
    let mut plan_leases = 0usize;
    for (s, stream) in shard_by_lease(&lines, 3).into_iter().enumerate() {
        let events: Vec<CampaignEvent> = stream.iter().map(|l| decode_event(l).unwrap()).collect();
        if s == 0 {
            assert!(
                matches!(events.first(), Some(CampaignEvent::Plan { .. })),
                "plan first"
            );
            assert!(
                matches!(events.get(1), Some(CampaignEvent::Hello { .. })),
                "hello second"
            );
            assert!(
                matches!(events.last(), Some(CampaignEvent::Done { .. })),
                "done last"
            );
        }
        for ev in events {
            match ev {
                CampaignEvent::Plan { cells, leases, .. } => {
                    plan_cells += cells;
                    plan_leases += leases;
                }
                CampaignEvent::LeaseStart { lease_id, .. } => {
                    assert!(started.insert(lease_id), "lease {lease_id} started twice");
                }
                CampaignEvent::LeaseDone { lease_id, .. } => {
                    assert!(done.insert(lease_id), "lease {lease_id} done twice");
                }
                CampaignEvent::Cell { index, .. } => {
                    assert!(seen.insert(index), "cell {index} in two shards");
                }
                _ => {}
            }
        }
    }
    assert_eq!(seen.len(), 18, "union of shards covers the campaign");
    assert_eq!(plan_cells, 18);
    assert_eq!(*seen.iter().next_back().unwrap(), 17, "contiguous indices");
    assert_eq!(plan_leases, 9, "one lease per instance x estimator");
    assert_eq!(started, done, "every started lease finished");
    assert_eq!(done.len(), plan_leases);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_rejects_broken_streams() {
    let spec = campaign();
    let dir = scratch("broken");
    let cache_dir = dir.join("cache");
    let good = campaign_lines(&spec, &cache_dir);

    let run = |streams: Vec<Vec<String>>| {
        let readers: Vec<Cursor<Vec<u8>>> = streams
            .into_iter()
            .map(|l| Cursor::new((l.join("\n") + "\n").into_bytes()))
            .collect();
        let mut sinks: Vec<&mut dyn ResultSink> = vec![];
        merge_event_streams(readers, &mut sinks, &mut ProgressReporter::disabled())
    };
    assert!(run(vec![good.clone()]).is_ok(), "the intact stream merges");

    // A stream that ends before its last `lease_done` (crashed worker).
    let truncated = good[..good.len() - 2].to_vec();
    let err = run(vec![truncated]).unwrap_err();
    assert!(err.to_string().contains("worker"), "{err}");

    // An explicit worker error aborts the merge.
    let failed = vec![
        good[0].clone(),
        encode_event(&CampaignEvent::Error {
            message: "worker exploded".into(),
            kind: Some("worker".into()),
        }),
    ];
    let err = run(vec![failed]).unwrap_err();
    assert!(err.to_string().contains("worker exploded"), "{err}");

    // Garbage on the wire is a hard protocol error.
    let garbage = vec![good[0].clone(), "{not an event".into()];
    let err = run(vec![garbage]).unwrap_err();
    assert!(err.to_string().contains("bad worker event"), "{err}");

    // No workers at all is refused.
    let err = run(vec![]).unwrap_err();
    assert!(err.to_string().contains("at least one worker"), "{err}");

    // A stream without the coordinator's plan is not a leased
    // campaign stream: rejected with a structured worker error even
    // though every cell is present.
    let planless: Vec<String> = good
        .iter()
        .filter(|l| !matches!(decode_event(l), Ok(CampaignEvent::Plan { .. })))
        .cloned()
        .collect();
    let err = run(vec![planless]).unwrap_err();
    assert!(
        matches!(err, stochdag_engine::EngineError::Worker { .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("plan"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replays_drop_a_requeued_attempts_duplicate_events() {
    let spec = campaign();
    let dir = scratch("dup");
    let good = campaign_lines(&spec, &dir.join("cache"));

    // What a captured run looks like when a lease was re-queued after
    // its first attempt already delivered everything: the attempt's
    // lease_start, reference, cell and lease_done events come twice.
    let is = |line: &String, f: fn(&CampaignEvent) -> bool| f(&decode_event(line).unwrap());
    let start = good
        .iter()
        .position(|l| is(l, |e| matches!(e, CampaignEvent::LeaseStart { .. })))
        .unwrap();
    let end = start
        + good[start..]
            .iter()
            .position(|l| is(l, |e| matches!(e, CampaignEvent::LeaseDone { .. })))
            .unwrap();
    let attempt = good[start..=end].to_vec();
    assert!(attempt
        .iter()
        .any(|l| is(l, |e| matches!(e, CampaignEvent::Reference { .. }))));
    let mut spliced = good.clone();
    spliced.splice(end + 1..end + 1, attempt);

    let replay = |lines: &[String]| {
        let out = SharedBuf::default();
        let mut progress = ProgressReporter::new(ProgressMode::Plain, Box::new(out.clone()))
            .with_plain_interval(Duration::ZERO);
        let mut csv = CsvSink::new(Vec::new());
        {
            let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv];
            let reader = Cursor::new((lines.join("\n") + "\n").into_bytes());
            merge_event_streams(vec![reader], &mut sinks, &mut progress).unwrap();
        }
        (csv.into_inner(), out.text())
    };
    let (clean_csv, _) = replay(&good);
    let (spliced_csv, progress) = replay(&spliced);
    assert_eq!(spliced_csv, clean_csv, "duplicates leave the CSV unchanged");
    let counted: Vec<&str> = progress
        .lines()
        .filter_map(|l| l.split("cells ").nth(1)?.split(' ').next())
        .collect();
    assert_eq!(counted.last(), Some(&"18/18"), "{progress}");
    assert!(
        counted
            .iter()
            .all(|c| c.split('/').next().unwrap().parse::<usize>().unwrap() <= 18),
        "each cell counts once: {progress}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_report_under_workers_counts_cells_per_estimator() {
    let spec = campaign();
    let dir = scratch("resume");
    let cache = Arc::new(ResultCache::on_disk(dir.join("cache")));
    let distributed = |spec: &SweepSpec| {
        Campaign::builder(spec.clone())
            .cache(cache.clone())
            .backend(MultiProcess::new(2))
            .build()
            .unwrap()
    };

    let fresh = distributed(&spec).resume_report().unwrap();
    assert_eq!(fresh.estimators.len(), 3);
    assert_eq!(
        fresh.estimators.iter().map(|e| e.misses).sum::<usize>(),
        18,
        "estimator misses partition the cells"
    );
    assert!(fresh.estimators.iter().all(|e| e.hits == 0));

    // Compute the first-order cells only, then the report shows exactly
    // that estimator as cached and the others as pending.
    let mut first_order = spec.clone();
    first_order.estimators.truncate(1);
    let part = Campaign::builder(first_order)
        .cache(cache.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let after = distributed(&spec).resume_report().unwrap();
    assert_eq!(after.estimators[0].hits, part.cells);
    assert_eq!(after.estimators[0].misses, 0);
    for e in &after.estimators[1..] {
        assert_eq!((e.hits, e.misses), (0, 6), "{}", e.estimator);
    }
    assert_eq!(
        after.reference_hits, part.references,
        "the partial run cached the references its cells needed"
    );

    // A zero-worker backend is rejected before any filesystem work.
    assert!(Campaign::builder(spec.clone())
        .backend(MultiProcess::new(0))
        .build()
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
