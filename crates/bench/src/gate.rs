//! Perf-regression gate over `BENCH_sweep.json` artifacts.
//!
//! The CI `bench-trajectory` job runs `bench-report --gate
//! BENCH_sweep.json`: the freshly measured records are compared against
//! the committed baseline, and any *pinned kernel label* whose median
//! regresses by more than [`REGRESSION_THRESHOLD`] fails the job. Only
//! kernel-shaped labels are pinned (see [`is_pinned`]); end-to-end
//! labels with real I/O and process-spawn noise stay informational, so
//! the gate is strict exactly where timings are stable enough to be
//! strict.

use serde::{json, Value};

/// Maximum tolerated median slowdown on a pinned label: fresh medians
/// above `baseline · (1 + threshold)` are regressions. 25% is wide
/// enough to absorb shared-runner noise on µs-scale kernels while still
/// catching an accidentally de-optimized hot loop.
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// One `(bench, label, median_ns)` measurement from a bench-report
/// artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Bench target name (`kernel_hotloop`, `prepared_pipeline`, …).
    pub bench: String,
    /// Criterion label within the bench.
    pub label: String,
    /// Median wall time in nanoseconds.
    pub median_ns: u64,
}

/// Whether a `(bench, label)` pair is held to the regression threshold.
///
/// Pinned: every `kernel_hotloop` label (pure in-process kernels) and
/// the `prepared_pipeline` `prepared_grid/8models` labels (prepare once,
/// then one `estimate_for` per model — the PR-level acceptance
/// numbers). Everything else — cache benches that touch disk, shard
/// benches that spawn processes — is tracked in the artifact but not
/// gated.
pub fn is_pinned(bench: &str, label: &str) -> bool {
    bench == "kernel_hotloop"
        || (bench == "prepared_pipeline" && label.ends_with("prepared_grid/8models"))
}

/// One pinned label whose fresh median exceeded the threshold.
#[derive(Clone, Debug)]
pub struct Regression {
    /// `bench/label` key.
    pub key: String,
    /// Committed baseline median (ns).
    pub baseline_ns: u64,
    /// Freshly measured median (ns).
    pub fresh_ns: u64,
    /// `fresh / baseline`.
    pub ratio: f64,
}

/// Outcome of a gate run.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Pinned labels present in both artifacts and compared.
    pub checked: usize,
    /// Pinned labels that regressed past the threshold.
    pub regressions: Vec<Regression>,
    /// Pinned baseline labels missing from the fresh run (a renamed or
    /// deleted kernel bench must come with a baseline refresh).
    pub missing: Vec<String>,
    /// Pinned fresh labels with no baseline yet (newly added kernels;
    /// informational — they gate from the next baseline refresh on).
    pub new_labels: Vec<String>,
}

impl GateReport {
    /// A gate passes when nothing regressed and nothing pinned
    /// disappeared.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Human-readable multi-line summary (stable ordering).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "perf gate: {} pinned label(s) checked, {} regression(s), {} missing, {} new\n",
            self.checked,
            self.regressions.len(),
            self.missing.len(),
            self.new_labels.len()
        ));
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION {}: {} ns -> {} ns ({:.2}x, threshold {:.2}x)\n",
                r.key,
                r.baseline_ns,
                r.fresh_ns,
                r.ratio,
                1.0 + REGRESSION_THRESHOLD
            ));
        }
        for key in &self.missing {
            out.push_str(&format!(
                "  MISSING {key}: pinned in the baseline but absent from this run\n"
            ));
        }
        for key in &self.new_labels {
            out.push_str(&format!("  new {key}: no baseline yet, not gated\n"));
        }
        out
    }
}

/// Compare `fresh` against `baseline` over the pinned labels.
///
/// Pure and deterministic: records are matched by `(bench, label)`,
/// unpinned labels are ignored entirely, and result vectors are sorted
/// by key.
pub fn check(baseline: &[BenchRecord], fresh: &[BenchRecord], threshold: f64) -> GateReport {
    let key = |r: &BenchRecord| format!("{}/{}", r.bench, r.label);
    let fresh_by_key: std::collections::BTreeMap<String, &BenchRecord> = fresh
        .iter()
        .filter(|r| is_pinned(&r.bench, &r.label))
        .map(|r| (key(r), r))
        .collect();
    let mut report = GateReport::default();
    let mut seen = std::collections::BTreeSet::new();
    let mut pinned_baseline: Vec<&BenchRecord> = baseline
        .iter()
        .filter(|r| is_pinned(&r.bench, &r.label))
        .collect();
    pinned_baseline.sort_by_key(|r| key(r));
    for b in pinned_baseline {
        let k = key(b);
        seen.insert(k.clone());
        match fresh_by_key.get(&k) {
            None => report.missing.push(k),
            Some(f) => {
                report.checked += 1;
                let ratio = if b.median_ns == 0 {
                    if f.median_ns == 0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    f.median_ns as f64 / b.median_ns as f64
                };
                if ratio > 1.0 + threshold {
                    report.regressions.push(Regression {
                        key: k,
                        baseline_ns: b.median_ns,
                        fresh_ns: f.median_ns,
                        ratio,
                    });
                }
            }
        }
    }
    report.new_labels = fresh_by_key
        .keys()
        .filter(|k| !seen.contains(*k))
        .cloned()
        .collect();
    report
}

/// Parse the `benches` array of a `BENCH_sweep.json` document into
/// records.
pub fn parse_report(text: &str) -> Result<Vec<BenchRecord>, String> {
    let root = json::parse(text).map_err(|e| format!("bad bench report: {e}"))?;
    let benches = root
        .require("benches")
        .ok()
        .and_then(|b| b.as_arr().map(<[Value]>::to_vec))
        .ok_or("bench report has no benches array")?;
    benches
        .iter()
        .map(|v| {
            let s = |k: &str| {
                v.require(k)
                    .ok()
                    .and_then(|x| x.as_str().map(str::to_string))
                    .ok_or_else(|| format!("bench record missing string {k}"))
            };
            let median_ns = v
                .require("median_ns")
                .ok()
                .and_then(Value::as_u64)
                .ok_or("bench record missing integer median_ns")?;
            Ok(BenchRecord {
                bench: s("bench")?,
                label: s("label")?,
                median_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, label: &str, median_ns: u64) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            label: label.to_string(),
            median_ns,
        }
    }

    #[test]
    fn pinning_covers_kernels_not_end_to_end_benches() {
        assert!(is_pinned("kernel_hotloop", "dist_ops/256/convolve_scratch"));
        assert!(is_pinned(
            "prepared_pipeline",
            "prepared_pipeline/full5/prepared_grid/8models"
        ));
        assert!(!is_pinned(
            "prepared_pipeline",
            "prepared_pipeline/full5/legacy_per_cell/8models"
        ));
        assert!(!is_pinned(
            "sweep_cache",
            "sweep_18cells_cold/single_process"
        ));
        assert!(!is_pinned(
            "distributed_shard",
            "shard_protocol/encode_cell_event"
        ));
    }

    #[test]
    fn within_threshold_passes() {
        let base = vec![rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1000)];
        let fresh = vec![rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1240)];
        let report = check(&base, &fresh, REGRESSION_THRESHOLD);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checked, 1);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn past_threshold_fails_with_the_offending_label() {
        let base = vec![
            rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1000),
            rec(
                "kernel_hotloop",
                "grid_kernels/dodin/per_model/8models",
                2000,
            ),
        ];
        let fresh = vec![
            rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1100),
            rec(
                "kernel_hotloop",
                "grid_kernels/dodin/per_model/8models",
                2600,
            ),
        ];
        let report = check(&base, &fresh, REGRESSION_THRESHOLD);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.key, "kernel_hotloop/grid_kernels/dodin/per_model/8models");
        assert!((r.ratio - 1.3).abs() < 1e-9);
        assert!(
            report.render().contains("REGRESSION"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn unpinned_regressions_do_not_gate() {
        let base = vec![rec(
            "sweep_cache",
            "sweep_18cells_cold/single_process",
            1000,
        )];
        let fresh = vec![rec(
            "sweep_cache",
            "sweep_18cells_cold/single_process",
            9000,
        )];
        let report = check(&base, &fresh, REGRESSION_THRESHOLD);
        assert!(report.passed());
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn vanished_pinned_label_fails_new_label_informs() {
        let base = vec![rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1000)];
        let fresh = vec![rec("kernel_hotloop", "dist_ops/64/max_scratch", 900)];
        let report = check(&base, &fresh, REGRESSION_THRESHOLD);
        assert!(!report.passed());
        assert_eq!(
            report.missing,
            ["kernel_hotloop/dist_ops/64/convolve_scratch"]
        );
        assert_eq!(
            report.new_labels,
            ["kernel_hotloop/dist_ops/64/max_scratch"]
        );
    }

    #[test]
    fn zero_baseline_is_handled() {
        let base = vec![rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 0)];
        let fresh = vec![rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1)];
        let report = check(&base, &fresh, REGRESSION_THRESHOLD);
        assert!(
            !report.passed(),
            "0 -> 1 ns is an infinite-ratio regression"
        );
    }

    #[test]
    fn parse_round_trips_the_artifact_schema() {
        let text = r#"{"benches":[
            {"bench":"kernel_hotloop","label":"dist_ops/64/convolve_scratch","median_ns":1234,"samples":10},
            {"bench":"sweep_cache","label":"sweep_18cells_cold/single_process","median_ns":99,"samples":5}
        ],"schema_version":1,"suite":"sweep"}"#;
        let records = parse_report(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            rec("kernel_hotloop", "dist_ops/64/convolve_scratch", 1234)
        );
        assert!(parse_report("{}").is_err());
        assert!(parse_report(r#"{"benches":[{"bench":"x"}]}"#).is_err());
    }
}
