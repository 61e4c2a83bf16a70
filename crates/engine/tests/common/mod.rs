//! Helpers shared by the engine's integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::Cursor;
use std::sync::{Arc, Mutex};
use stochdag_engine::{
    decode_event, encode_event, merge_event_streams, CampaignBuilder, CampaignEvent, CsvSink,
    FnObserver, ProgressReporter, ResultSink, SweepOutcome,
};

/// A cloneable in-memory writer whose bytes outlive the sink or
/// observer that owns the writer (campaigns consume both).
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }

    pub fn text(&self) -> String {
        String::from_utf8(self.bytes()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run the campaign with `jobs = 1` and capture its event stream as
/// wire lines — exactly what `serve` streams to its clients. One
/// thread runs the leases one after another, so every lease's events
/// form one contiguous block.
pub fn capture_lines(builder: CampaignBuilder) -> Vec<String> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = lines.clone();
    builder
        .jobs(1)
        .observer(FnObserver(move |ev: &CampaignEvent| {
            sink.lock().unwrap().push(encode_event(ev));
        }))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let out = lines.lock().unwrap().clone();
    out
}

/// Shard a captured stream into `n` replay streams by dealing its
/// leases round-robin (each `lease_start ..= lease_done` block stays
/// whole); the session events — plan, hello, telemetry, done — ride on
/// shard 0.
pub fn shard_by_lease(lines: &[String], n: usize) -> Vec<Vec<String>> {
    let mut streams = vec![Vec::new(); n];
    let (mut current, mut dealt) = (0, 0);
    for line in lines {
        let event = decode_event(line).unwrap();
        if let CampaignEvent::LeaseStart { .. } = event {
            current = dealt % n;
            dealt += 1;
        }
        streams[current].push(line.clone());
        if let CampaignEvent::LeaseDone { .. } = event {
            current = 0;
        }
    }
    streams
}

/// Replay event streams through `merge_event_streams` into a CSV sink.
pub fn merge_csv(streams: Vec<Vec<String>>) -> (Vec<u8>, SweepOutcome) {
    let readers: Vec<Cursor<Vec<u8>>> = streams
        .into_iter()
        .map(|lines| Cursor::new((lines.join("\n") + "\n").into_bytes()))
        .collect();
    let mut csv = CsvSink::new(Vec::new());
    let outcome = {
        let mut sinks: Vec<&mut dyn ResultSink> = vec![&mut csv];
        merge_event_streams(readers, &mut sinks, &mut ProgressReporter::disabled()).unwrap()
    };
    (csv.into_inner(), outcome)
}
