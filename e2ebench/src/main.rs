//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the root of a stochdag checkout. Builds the `stochdag`
//! binary (release), runs one workload through it for `S` seconds,
//! checks every output against an in-process sweep, prints a
//! human-readable report on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero, printing no result, on any set-up
//! failure.

use e2ebench::layers::{END_TO_END, LAYERS};
use e2ebench::procs::{ProcSet, WorkDir};
use e2ebench::workloads::{self, Ctx, Outcome, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Build the `stochdag` binary from the checkout in `root` and return
/// its path.
fn build_program(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/cli/Cargo.toml").exists() {
        return Err(format!("{} is not a stochdag checkout", root.display()));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "stochdag"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building stochdag failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |d| root.join(d));
    let bin = target.join("release/stochdag");
    bin.exists()
        .then_some(bin.clone())
        .ok_or_else(|| format!("{} missing after the build", bin.display()))
}

fn print_report(args: &Args, out: &Outcome, trace_file: Option<&Path>) {
    eprintln!(
        "\n== {} (seed {}, {} s, trace {}) ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    eprintln!(
        "attempted {} failed {} (error rate {:.4})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, unit, _) in END_TO_END {
        eprintln!(
            "{name:>18} {:>14.6} {unit}",
            out.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    for s in &out.samples {
        eprintln!("samples: {s}");
    }
    if !args.trace {
        return;
    }
    eprintln!(
        "\n{:<30} {:>14} {:<6} {:>8}  predicted to move",
        "per-layer metric", "value", "unit", "share"
    );
    for (name, unit, _, predicts) in LAYERS {
        let share = out
            .shares
            .get(name)
            .map_or(String::new(), |s| format!("{:.1}%", s * 100.0));
        let value = out.layers.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<30} {value:>14.4} {unit:<6} {share:>8}  {predicts}");
    }
    if let Some(p) = trace_file {
        eprintln!("spans: {}", p.display());
    }
}

fn result_json(out: &Outcome, trace: bool) -> String {
    let (values, names): (_, Vec<(&str, &str)>) = if trace {
        (&out.layers, LAYERS.iter().map(|l| (l.0, l.1)).collect())
    } else {
        (&out.e2e, END_TO_END.iter().map(|m| (m.0, m.1)).collect())
    };
    let metrics: Vec<String> = names
        .into_iter()
        .map(|(n, u)| {
            let v = values.get(n).copied().unwrap_or(0.0);
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = build_program(&root).and_then(|bin| {
        let work = WorkDir::create(root.join(format!(
            ".bench_work/{}-{}",
            args.workload,
            std::process::id()
        )))?;
        let ctx = Ctx {
            bin,
            work,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            procs: ProcSet::new(),
        };
        workloads::run(&args.workload, &ctx)
    });
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let trace_file = (args.trace && !out.spans_jsonl.is_empty()).then(|| {
        let p = root.join(format!(
            ".bench_traces/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let _ = std::fs::create_dir_all(p.parent().expect("has parent"));
        std::fs::write(&p, &out.spans_jsonl).ok().map(|()| p)
    });
    print_report(&args, &out, trace_file.flatten().as_deref());
    println!("{}", result_json(&out, args.trace));
}
