//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit and better direction, and for each per-layer metric the
//! end-to-end metric (and workload) it is predicted to move.
//! `BENCHMARK.json` lists the same names, units and directions; a test
//! keeps the two in step.

/// End-to-end metrics: name, unit, better direction.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("campaign_p50_ms", "ms", "lower"),
    ("rel_err_mean", "ratio", "lower"),
];

/// Per-layer metrics of the traced run: name, unit, better direction,
/// and the end-to-end metric it should move.
///
/// Replay times (the `*_ms` of taskgraphs, workload, dag, core and the
/// engine's plan, cache, codec and sink) are self time per replayed
/// campaign. The other values come from the binary's own
/// `--metrics-out` report, the daemon's `status`, or the benchmark's
/// clocks and `/proc` readings around the processes.
/// `proc.cpu_ms_per_cell` (user+system time of every process of the
/// run, per cell) would be an end-to-end metric, but on shared virtual
/// machines the CPU time of the same syscall-heavy work drifts up to
/// twofold over minutes, so it carries no regression bound.
#[rustfmt::skip]
pub const LAYERS: &[(&str, &str, &str, &str)] = &[
    ("taskgraphs.generate_ms", "ms", "lower", "setup_s on table1-cold"),
    ("workload.parse_ms", "ms", "lower", "cells_per_s on traces-workers"),
    ("workload.tasks_parsed", "count", "higher", "cells_per_s on traces-workers"),
    ("workload.scenario_resolve_ms", "ms", "lower", "cells_per_s on traces-workers"),
    ("dag.prepare_ms", "ms", "lower", "cells_per_s on traces-workers, table1-cold"),
    ("dag.prepares", "count", "lower", "cells_per_s on traces-workers, table1-cold"),
    ("core.dodin_ms", "ms", "lower", "cells_per_s, proc.cpu_ms_per_cell on table1-cold"),
    ("core.dodin_share", "ratio", "lower", "cells_per_s, proc.cpu_ms_per_cell on table1-cold"),
    ("core.mc_reference_ms", "ms", "lower", "cells_per_s on table1-cold; campaign_p50_ms on serve-mixed"),
    ("core.mc_ms", "ms", "lower", "cells_per_s on traces-workers"),
    ("core.mc_trials", "count", "higher", "cells_per_s on traces-workers"),
    ("core.first_order_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("core.second_order_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("core.sculli_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("core.corlca_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("core.spelde_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("core.cells", "count", "higher", "cells_per_s on spool-grid"),
    ("engine.plan_ms", "ms", "lower", "setup_s; campaign_p50_ms on serve-mixed"),
    ("engine.cache_get_ms", "ms", "lower", "campaign_p50_ms on serve-mixed; cells_per_s on spool-grid, traces-workers"),
    ("engine.cache_put_ms", "ms", "lower", "campaign_p50_ms on serve-mixed; cells_per_s on spool-grid, traces-workers"),
    ("engine.cache_hits", "count", "higher", "campaign_p50_ms on serve-mixed"),
    ("engine.cache_misses", "count", "lower", "campaign_p50_ms on serve-mixed"),
    ("engine.cache_hit_ratio", "ratio", "higher", "campaign_p50_ms on serve-mixed"),
    ("engine.cache_bytes", "bytes", "lower", "cells_per_s on spool-grid, traces-workers"),
    ("engine.leases", "count", "lower", "cells_per_s on traces-workers, spool-grid"),
    ("engine.lease_retries", "count", "lower", "cells_per_s on traces-workers, spool-grid"),
    ("engine.lease_codec_ms", "ms", "lower", "cells_per_s on traces-workers, spool-grid"),
    ("engine.queue_wait_ms", "ms", "lower", "cells_per_s on traces-workers, spool-grid"),
    ("engine.spool_reclaims", "count", "lower", "cells_per_s on spool-grid"),
    ("engine.spool_idle_ms", "ms", "lower", "cells_per_s on spool-grid"),
    ("engine.sink_ms", "ms", "lower", "cells_per_s (a small share everywhere)"),
    ("engine.sink_bytes", "bytes", "lower", "cells_per_s (a small share everywhere)"),
    ("serve.submit_ack_ms", "ms", "lower", "campaign_p50_ms on serve-mixed"),
    ("serve.stream_ms", "ms", "lower", "campaign_p50_ms on serve-mixed"),
    ("serve.status_ms", "ms", "lower", "status latency on serve-mixed"),
    ("serve.status_p90_ms", "ms", "lower", "status latency tail on serve-mixed"),
    ("serve.campaign_p90_ms", "ms", "lower", "campaign latency tail on serve-mixed"),
    ("serve.admission_rejects", "count", "lower", "campaign_p50_ms on serve-mixed"),
    ("serve.cache_hit_rate", "ratio", "higher", "campaign_p50_ms on serve-mixed"),
    ("cli.startup_ms", "ms", "lower", "setup_s; cells_per_s on spool-grid, traces-workers"),
    ("proc.cpu_ms_per_cell", "ms", "lower", "cells_per_s on every workload"),
    ("trace.unattributed_ms", "ms", "lower", "none: replay time outside every layer span"),
    ("trace.replay_wall_ms", "ms", "lower", "none: the base of every share"),
    ("trace.overhead_pct", "%", "lower", "none: program telemetry on vs off"),
];
