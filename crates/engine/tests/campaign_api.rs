//! Integration coverage of the [`Campaign`] facade: builder wiring,
//! cache-replay byte identity, dry runs, resume reports, observers,
//! thread budgets and the shared cache.

mod common;

use common::SharedBuf;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, Campaign, CampaignEvent, CsvSink, EngineError, EstimatorSpec, FnObserver,
    MultiProcess, ResultCache, SweepSpec, VecSink, WireObserver,
};

fn campaign_spec() -> SweepSpec {
    SweepSpec::from_str_auto(
        r#"
name = "facade"
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

#[test]
fn campaign_rerun_is_fully_cached_and_byte_identical() {
    let spec = campaign_spec();
    let cache = Arc::new(ResultCache::in_memory());

    // First run computes everything.
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(spec.clone())
        .cache(cache.clone())
        .sink(CsvSink::new(buf.clone()))
        .sink(VecSink::default())
        .build()
        .unwrap()
        .run()
        .unwrap();

    // A second campaign over the same cache must be fully served and
    // replay the exact same rows, summary, and CSV bytes.
    let replay_buf = SharedBuf::default();
    let replay = Campaign::builder(spec)
        .cache(cache.clone())
        .sink(CsvSink::new(replay_buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert!(replay.fully_cached(), "first run fed the replay");
    assert_eq!(outcome.cells, replay.cells);
    assert_eq!(outcome.references, replay.references);
    assert_eq!(outcome.rows, replay.rows, "rows are bit-identical");
    assert_eq!(outcome.summary, replay.summary);
    assert_eq!(buf.bytes(), replay_buf.bytes(), "CSV bytes are identical");
}

#[test]
fn dry_run_expands_without_executing() {
    let campaign = Campaign::builder(campaign_spec()).build().unwrap();
    let dry = campaign.dry_run().unwrap();
    assert_eq!(dry.name, "facade");
    assert_eq!(dry.backend, "in-process");
    assert_eq!(dry.estimators, ["first-order", "sculli", "mc:600"]);
    assert_eq!(dry.instances.len(), 3);
    assert_eq!(dry.instances[0].id, "cholesky:k=2");
    assert!(dry.instances.iter().all(|i| i.tasks > 0));
    assert_eq!(dry.models, 2);
    assert_eq!(dry.cells, 18);
    assert_eq!(dry.references, 6);

    // Leases assign work dynamically, so a multi-process dry run shows
    // the same expansion under its own backend name.
    let distributed = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(3))
        .build()
        .unwrap()
        .dry_run()
        .unwrap();
    assert_eq!(distributed.backend, "multi-process (3 workers)");
    assert_eq!(
        (distributed.cells, distributed.references),
        (dry.cells, dry.references)
    );
    assert_eq!(distributed.instances, dry.instances);

    // Nothing ran: a fresh resume report still sees zero cached cells.
    let report = campaign.resume_report().unwrap();
    assert_eq!(report.total_hits(), 0);
}

#[test]
fn resume_report_is_the_same_under_every_backend() {
    let cache = Arc::new(ResultCache::in_memory());
    let run = Campaign::builder(campaign_spec())
        .cache(cache.clone())
        .build()
        .unwrap();
    let in_process = run.resume_report().unwrap();
    run.run().unwrap();

    let distributed = Campaign::builder(campaign_spec())
        .cache(cache.clone())
        .backend(MultiProcess::new(2))
        .build()
        .unwrap();
    let report = distributed.resume_report().unwrap();
    assert!(report.fully_cached());
    assert_eq!(report.estimators.iter().map(|e| e.hits).sum::<usize>(), 18);
    assert_eq!(
        report.total_hits(),
        in_process.total_misses(),
        "everything the in-process report saw missing is now cached"
    );
}

#[test]
fn observers_see_the_full_event_stream() {
    let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_events = events.clone();
    let outcome = Campaign::builder(campaign_spec())
        .observer(FnObserver(move |ev: &CampaignEvent| {
            let tag = match ev {
                CampaignEvent::Plan { .. } => "plan",
                CampaignEvent::Hello { .. } => "hello",
                CampaignEvent::LeaseStart { .. } => "lease_start",
                CampaignEvent::Reference { .. } => "reference",
                CampaignEvent::Cell { .. } => "cell",
                CampaignEvent::LeaseDone { .. } => "lease_done",
                CampaignEvent::Done { .. } => "done",
                CampaignEvent::Error { .. } => "error",
                CampaignEvent::Telemetry { .. } => "telemetry",
                CampaignEvent::Unknown { .. } => "unknown",
            };
            sink_events.lock().unwrap().push(tag.to_string());
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let seen = events.lock().unwrap();
    assert_eq!(seen.first().map(String::as_str), Some("plan"));
    assert_eq!(seen.get(1).map(String::as_str), Some("hello"));
    assert_eq!(seen.last().map(String::as_str), Some("done"));
    assert_eq!(seen.iter().filter(|t| *t == "cell").count(), outcome.cells);
    assert_eq!(
        seen.iter().filter(|t| *t == "reference").count(),
        outcome.references
    );
}

#[test]
fn run_streams_the_wire_protocol_through_observers() {
    let buf = SharedBuf::default();
    let outcome = Campaign::builder(campaign_spec())
        .observer(WireObserver::new(buf.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.cells, 18);

    let text = String::from_utf8(buf.bytes()).unwrap();
    let events: Vec<CampaignEvent> = text
        .lines()
        .map(|l| decode_event(l).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    assert!(matches!(events.first(), Some(CampaignEvent::Plan { .. })));
    match events.get(1) {
        Some(CampaignEvent::Hello { shard, version, .. }) => {
            assert_eq!((*shard, *version), (0, Some(2)), "in-process slot 0, v2");
        }
        other => panic!("expected hello second, got {other:?}"),
    }
    assert!(matches!(events.last(), Some(CampaignEvent::Done { .. })));
    let cells = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::Cell { .. }))
        .count();
    assert_eq!(cells, outcome.cells);
}

#[test]
fn capped_campaigns_run_concurrently() {
    // Two `jobs = 1` campaigns in one process: each observer, on its
    // campaign's first cell, signals the other and then waits for the
    // other's signal. That only succeeds if both campaigns are running
    // at the same time — a process-wide cap that serialized capped
    // campaigns would time the first one out.
    let (to_b, from_a) = std::sync::mpsc::channel::<()>();
    let (to_a, from_b) = std::sync::mpsc::channel::<()>();
    let campaign = |signal: std::sync::mpsc::Sender<()>, wait: std::sync::mpsc::Receiver<()>| {
        let met = Arc::new(Mutex::new(None::<bool>));
        let seen = met.clone();
        let mut spec = campaign_spec();
        spec.jobs = Some(1);
        let run = Campaign::builder(spec)
            .observer(FnObserver(move |ev: &CampaignEvent| {
                let mut seen = seen.lock().unwrap();
                if seen.is_none() && matches!(ev, CampaignEvent::Cell { .. }) {
                    let _ = signal.send(());
                    let peer = wait.recv_timeout(std::time::Duration::from_secs(10));
                    *seen = Some(peer.is_ok());
                }
            }))
            .build()
            .unwrap();
        (run, met)
    };
    let (a, met_a) = campaign(to_b, from_b);
    let (b, met_b) = campaign(to_a, from_a);
    std::thread::scope(|s| {
        let a = s.spawn(|| a.run().unwrap());
        let b = s.spawn(|| b.run().unwrap());
        assert_eq!(a.join().unwrap().cells, 18);
        assert_eq!(b.join().unwrap().cells, 18);
    });
    assert_eq!(
        *met_a.lock().unwrap(),
        Some(true),
        "campaign A met B mid-run"
    );
    assert_eq!(
        *met_b.lock().unwrap(),
        Some(true),
        "campaign B met A mid-run"
    );
}

#[test]
fn shared_cache_counters_accumulate_across_campaigns() {
    // `ResultCache::hits`/`misses` count since construction: a campaign
    // must not reset them for everyone else sharing the cache.
    let cache = Arc::new(ResultCache::in_memory());
    let run = |spec: SweepSpec| {
        Campaign::builder(spec)
            .cache(cache.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let first = run(campaign_spec());
    let mut wider = campaign_spec();
    wider.pfails.push(0.005);
    let second = run(wider);
    assert!(first.cache_misses > 0 && second.cache_hits > 0);
    assert_eq!(
        cache.hits() + cache.misses(),
        first.cache_hits + first.cache_misses + second.cache_hits + second.cache_misses
    );
}

#[test]
fn builder_rejects_bad_configurations_up_front() {
    let err = Campaign::builder(SweepSpec::default()).build().unwrap_err();
    assert!(matches!(err, EngineError::Spec { .. }), "{err}");

    let mut spec = campaign_spec();
    spec.estimators.push(EstimatorSpec::Dodin { atoms: 1 });
    let err = Campaign::builder(spec).build().unwrap_err();
    assert!(err.to_string().contains("dodin"), "{err}");

    let err = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(0))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("worker"), "{err}");

    let err = Campaign::builder(campaign_spec())
        .jobs(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("jobs"), "{err}");
}

#[test]
fn multiprocess_spawn_failures_surface_as_worker_errors() {
    let err = Campaign::builder(campaign_spec())
        .backend(MultiProcess::new(2).launcher("/nonexistent/stochdag-binary-for-test", vec![]))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Worker { .. }),
        "spawn failure is a worker error: {err}"
    );
    assert!(err.to_string().contains("spawning sweep worker"), "{err}");
}
