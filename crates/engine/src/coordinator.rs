//! The coordinator loop shared by the worker-process backends.
//!
//! [`MultiProcess`](crate::MultiProcess) feeds local workers over stdin
//! pipes and [`SharedFs`](crate::SharedFs) feeds remote ones through a
//! spool directory. Each is a [`Transport`] that reports only that an
//! event arrived (a worker joins with its `Hello`) or that leases were
//! lost and why — the coordinator-side mirror of the worker-side `LeaseSource`.
//! [`coordinate`] owns everything else: granting leases from the
//! [`LeaseQueue`], delivering events, retiring a lease on its
//! `LeaseDone`, the one re-queue under the per-lease attempt cap,
//! cancellation, and the drained and exhausted outcomes. A transport
//! fails its own `wait` when its workers stay silent too long.

use crate::campaign::Deliver;
use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::lease::{LeaseQueue, WorkLease};
use crate::protocol::CampaignEvent;
use crate::telemetry::Telemetry;

/// What a [`Transport`] saw happen.
pub(crate) enum Report {
    /// An event from a worker slot (or the coordinator's own source);
    /// a worker joins with its `Hello`.
    Event(usize, CampaignEvent),
    /// A worker or lease attempt failed.
    Lost(Lost),
}

/// A failed worker or lease attempt.
pub(crate) struct Lost {
    /// How the stderr retry line names it (`sweep worker 0`).
    pub(crate) who: String,
    /// The worker slot, when the failure is attributable to one.
    pub(crate) slot: Option<usize>,
    /// Granted leases it left uncompleted (possibly none).
    pub(crate) leases: Vec<usize>,
    pub(crate) why: String,
    /// The kind of the worker's own `Error` event, when it sent one.
    pub(crate) kind: Option<String>,
}

/// How leases reach a backend's workers and how their events come back.
pub(crate) trait Transport {
    /// How many more leases the workers take right now.
    fn room(&self) -> usize;

    /// Hand a lease, granted for the `attempt`-th time, to a worker.
    fn grant(&mut self, lease: WorkLease, attempt: usize) -> Result<(), EngineError>;

    /// Wait for the workers and push what happened onto `out`; fail
    /// when the workers went silent for longer than the transport
    /// allows (the pipes notice a dead worker by its stream's end, so
    /// only the spool bounds silence).
    fn wait(&mut self, out: &mut Vec<Report>) -> Result<(), EngineError>;

    /// Whether no worker is left to take a lease.
    fn exhausted(&self) -> bool {
        false
    }

    /// Wind down: after the queue `drained`, let the workers end their
    /// sessions and push their last reports; otherwise stop them.
    fn end(&mut self, drained: bool, out: &mut Vec<Report>);
}

/// Run a campaign's lease queue to completion over `transport`.
pub(crate) fn coordinate(
    transport: &mut impl Transport,
    leases: &LeaseQueue,
    deliver: &Deliver<'_>,
    telemetry: &Telemetry,
    cancel: &CancelToken,
) -> Result<(), EngineError> {
    let mut reports = Vec::new();
    let result = (|| loop {
        grant(transport, leases, cancel)?;
        if leases.is_drained() {
            return Ok(());
        }
        if transport.exhausted() {
            return Err(EngineError::worker(
                None,
                "workers exhausted their retry budget before the lease queue drained",
            ));
        }
        transport.wait(&mut reports)?;
        for report in reports.drain(..) {
            handle(report, leases, deliver, telemetry)?;
            // A worker that just finished a lease gets its next one
            // before the rest of the burst is delivered.
            grant(transport, leases, cancel)?;
        }
    })();
    reports.clear();
    transport.end(result.is_ok(), &mut reports);
    result?;
    reports
        .into_iter()
        .try_for_each(|report| handle(report, leases, deliver, telemetry))
}

/// Hand out ready leases while the workers have room — unless the
/// campaign was cancelled.
fn grant(
    transport: &mut impl Transport,
    leases: &LeaseQueue,
    cancel: &CancelToken,
) -> Result<(), EngineError> {
    if cancel.is_cancelled() {
        return Err(EngineError::cancelled());
    }
    while transport.room() > 0 {
        let Some(lease) = leases.next() else { break };
        let attempt = leases.attempts(lease.lease_id);
        transport.grant(lease, attempt)?;
    }
    Ok(())
}

/// Deliver one report. A lost lease goes back on the queue here and
/// nowhere else: under the per-lease attempt cap, with the failure
/// tallied and announced on stderr.
fn handle(
    report: Report,
    leases: &LeaseQueue,
    deliver: &Deliver<'_>,
    telemetry: &Telemetry,
) -> Result<(), EngineError> {
    let lost = match report {
        Report::Event(slot, event) => {
            let done = match &event {
                CampaignEvent::LeaseDone { lease_id, .. } => Some(*lease_id),
                _ => None,
            };
            deliver(slot, event)?;
            if let Some(lease_id) = done {
                leases.complete(lease_id);
            }
            return Ok(());
        }
        Report::Lost(lost) => lost,
    };
    // Tally every worker failure by kind — including attempts whose
    // leases a re-queue later completes, which never surface as a
    // campaign error.
    if let Some(kind) = &lost.kind {
        telemetry.count(&format!("errors_{kind}"), 1);
    }
    let why = &lost.why;
    for &lease_id in &lost.leases {
        if !leases.requeue(lease_id) {
            let attempts = leases.attempts(lease_id);
            return Err(EngineError::worker(
                lost.slot,
                format!("lease {lease_id} failed after {attempts} attempts (last: {why})"),
            ));
        }
    }
    telemetry.count("worker_retries", 1);
    match lost.leases.len() {
        0 => eprintln!("{} failed ({why})", lost.who),
        n => eprintln!("{} failed ({why}); re-queueing {n} lease(s)", lost.who),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn queue(n: usize) -> LeaseQueue {
        LeaseQueue::new(
            (0..n)
                .map(|id| WorkLease {
                    lease_id: id,
                    cells: vec![id],
                })
                .collect(),
        )
    }

    fn hello(slot: usize) -> CampaignEvent {
        CampaignEvent::Hello {
            shard: slot,
            shard_count: 0,
            cells: 0,
            references: 0,
            version: Some(2),
            jobs: Some(1),
        }
    }

    fn lease_done(lease_id: usize) -> CampaignEvent {
        CampaignEvent::LeaseDone {
            lease_id,
            cells: 1,
            hits: 0,
            misses: 1,
        }
    }

    /// An in-memory worker: it completes every lease it is handed,
    /// unless it is doomed, in which case it dies holding them.
    struct FakeWorker {
        held: Vec<usize>,
        /// Deaths left before the worker behaves.
        doomed: usize,
        /// Whether a death respawns the worker or retires it.
        respawns: bool,
        retired: bool,
    }

    struct Fake {
        workers: Vec<FakeWorker>,
        joined: bool,
        waits: usize,
        /// Cancel this token on the given wait.
        cancel_on: Option<(usize, CancelToken)>,
    }

    impl Fake {
        fn new(workers: Vec<FakeWorker>) -> Fake {
            Fake {
                workers,
                joined: false,
                waits: 0,
                cancel_on: None,
            }
        }
    }

    fn worker(doomed: usize, respawns: bool) -> FakeWorker {
        FakeWorker {
            held: Vec::new(),
            doomed,
            respawns,
            retired: false,
        }
    }

    impl Transport for Fake {
        fn room(&self) -> usize {
            if !self.joined {
                return 0;
            }
            self.workers
                .iter()
                .filter(|w| !w.retired && w.held.is_empty())
                .count()
        }

        fn grant(&mut self, lease: WorkLease, _attempt: usize) -> Result<(), EngineError> {
            let w = self
                .workers
                .iter_mut()
                .find(|w| !w.retired && w.held.is_empty())
                .expect("granted within room");
            w.held.push(lease.lease_id);
            Ok(())
        }

        fn wait(&mut self, out: &mut Vec<Report>) -> Result<(), EngineError> {
            self.waits += 1;
            if let Some((n, token)) = &self.cancel_on {
                if *n == self.waits {
                    token.cancel();
                }
            }
            if !self.joined {
                self.joined = true;
                out.extend((0..self.workers.len()).map(|s| Report::Event(s, hello(s))));
                return Ok(());
            }
            for (slot, w) in self.workers.iter_mut().enumerate() {
                if w.held.is_empty() {
                    continue;
                }
                if w.doomed > 0 {
                    w.doomed -= 1;
                    w.retired = !w.respawns;
                    out.push(Report::Lost(Lost {
                        who: format!("fake worker {slot}"),
                        slot: Some(slot),
                        leases: std::mem::take(&mut w.held),
                        why: "killed".into(),
                        kind: None,
                    }));
                } else {
                    out.extend(
                        w.held
                            .drain(..)
                            .map(|id| Report::Event(slot, lease_done(id))),
                    );
                }
            }
            Ok(())
        }

        fn exhausted(&self) -> bool {
            self.workers.iter().all(|w| w.retired)
        }

        fn end(&mut self, _drained: bool, _out: &mut Vec<Report>) {}
    }

    /// Run `fake` over `leases`, returning the result and the lease ids
    /// of the delivered `LeaseDone` events.
    fn run(
        fake: &mut Fake,
        leases: &LeaseQueue,
        telemetry: &Telemetry,
        cancel: &CancelToken,
    ) -> (Result<(), EngineError>, Vec<usize>) {
        let done = Mutex::new(Vec::new());
        let deliver = |_: usize, ev: CampaignEvent| {
            if let CampaignEvent::LeaseDone { lease_id, .. } = ev {
                done.lock().unwrap().push(lease_id);
            }
            Ok(())
        };
        let result = coordinate(fake, leases, &deliver, telemetry, cancel);
        (result, done.into_inner().unwrap())
    }

    #[test]
    fn a_lost_workers_leases_are_requeued_and_completed_by_another() {
        let leases = queue(4);
        let telemetry = Telemetry::enabled();
        let mut fake = Fake::new(vec![worker(1, false), worker(0, false)]);
        let (result, mut done) = run(&mut fake, &leases, &telemetry, &CancelToken::new());
        result.unwrap();
        done.sort_unstable();
        assert_eq!(done, [0, 1, 2, 3], "every lease completed once");
        assert!(leases.is_drained());
        assert_eq!(leases.attempts(0), 2, "the lost lease was granted again");
        let counters = telemetry.snapshot().counters;
        assert_eq!(counters.get("worker_retries"), Some(&1));
    }

    #[test]
    fn a_lease_lost_twice_fails_the_campaign() {
        let leases = queue(2);
        let mut fake = Fake::new(vec![worker(usize::MAX, true)]);
        let (result, done) = run(
            &mut fake,
            &leases,
            &Telemetry::disabled(),
            &CancelToken::new(),
        );
        let err = result.unwrap_err();
        assert!(done.is_empty());
        assert_eq!(
            err.to_string(),
            "worker 0: lease 0 failed after 2 attempts (last: killed)"
        );
    }

    #[test]
    fn every_slot_retired_with_leases_left_is_exhausted() {
        let leases = queue(3);
        let mut fake = Fake::new(vec![worker(1, false), worker(1, false)]);
        let (result, _) = run(
            &mut fake,
            &leases,
            &Telemetry::disabled(),
            &CancelToken::new(),
        );
        let err = result.unwrap_err();
        assert!(
            err.to_string().contains("exhausted their retry budget"),
            "{err}"
        );
        assert!(!leases.is_drained());
    }

    #[test]
    fn cancellation_stops_the_loop() {
        let leases = queue(8);
        let cancel = CancelToken::new();
        let mut fake = Fake::new(vec![worker(0, false)]);
        fake.cancel_on = Some((3, cancel.clone()));
        let (result, done) = run(&mut fake, &leases, &Telemetry::disabled(), &cancel);
        assert!(matches!(result, Err(EngineError::Cancelled)), "{result:?}");
        assert!(done.len() < 8, "stopped before the queue drained");
    }
}
