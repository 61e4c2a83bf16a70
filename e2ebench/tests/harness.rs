//! Unit checks of the harness's own machinery: the tail-percentile rule,
//! span self time, input determinism, output normalization, and the
//! agreement of the metric catalogue with `BENCHMARK.json`.

use e2ebench::gen;
use e2ebench::layers::{END_TO_END, LAYERS};
use e2ebench::spans::{self, Span, Tracer};
use e2ebench::stats::{percentile, tail_percentile, TAIL_SAMPLES};
use e2ebench::workloads::{normalize_csv, rel_errors};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(100, 90), Some(90));
    assert_eq!(tail_percentile(1000, 90), Some(90));
    assert_eq!(tail_percentile(1000, 99), Some(99));
    assert_eq!(tail_percentile(50, 90), Some(80));
    assert_eq!(tail_percentile(20, 90), Some(50));
    assert_eq!(tail_percentile(19, 90), None);
    assert_eq!(tail_percentile(5, 90), None);
    for n in 20..400 {
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p = tail_percentile(n, 90).expect("n >= 20");
        let cut = percentile(&samples, p as f64).unwrap();
        let beyond = samples.iter().filter(|&&s| s > cut).count();
        assert!(beyond >= TAIL_SAMPLES, "n={n} p{p}: {beyond} beyond");
        // And it is the highest such percentile (capped at p90).
        if p < 90 {
            let next = percentile(&samples, (p + 1) as f64).unwrap();
            assert!(samples.iter().filter(|&&s| s > next).count() < TAIL_SAMPLES);
        }
    }
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        id: "c1".into(),
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 40, Some(0)), // overlaps a: covered time is 10..40
        span("c", 60, 70, Some(0)),
        span("a.inner", 12, 18, Some(1)),
    ];
    assert_eq!(spans::self_times(&spans), vec![60, 14, 20, 10, 6]);
    let by_name = spans::self_time_by_name(&spans);
    assert_eq!(by_name["a"], (14, 1));
}

#[test]
fn nested_tracer_spans_partition_the_root() {
    let t = Tracer::new();
    t.set_id("campaign-7");
    t.span("root", || {
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", || t.span("grandchild", || ()));
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[3].parent, Some(2));
    let own: u64 = spans::self_times(&spans).iter().sum();
    assert_eq!(own, spans[0].end - spans[0].start);
    let jsonl = spans::to_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), 4);
    assert!(jsonl.contains("\"id\":\"campaign-7\""));
}

#[test]
fn generated_inputs_are_byte_identical_per_seed_and_parse() {
    for seed in [0, 1, 42, 1 << 40] {
        let a = gen::trace_files(seed);
        let b = gen::trace_files(seed);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text, "{} differs between calls", x.file);
            let parsed = if x.kind == "dot" {
                stochdag_workload::parse_dot(&x.text)
            } else {
                stochdag_workload::parse_trace_json(&x.text)
            }
            .expect("generated trace parses");
            assert_eq!(parsed.dag.node_count(), x.tasks);
            assert!(
                (150..400).contains(&x.tasks),
                "{} has {} tasks",
                x.file,
                x.tasks
            );
        }
        assert_eq!(
            gen::serve_stream(seed, 2, 57),
            gen::serve_stream(seed, 2, 57)
        );
        assert_eq!(gen::spool_spec(seed), gen::spool_spec(seed));
        for spec in [
            gen::table1_spec(seed),
            gen::spool_spec(seed),
            gen::traces_spec(seed, "/traces", &a),
        ] {
            stochdag_engine::SweepSpec::from_str_auto(&spec).expect("generated spec parses");
        }
    }
    assert_ne!(gen::trace_files(1)[0].text, gen::trace_files(2)[0].text);
    // Shapes do not depend on the seed, so work per run is comparable.
    let sizes = |seed| {
        gen::trace_files(seed)
            .iter()
            .map(|t| t.tasks)
            .collect::<Vec<_>>()
    };
    assert_eq!(sizes(1), sizes(2));
}

#[test]
fn serve_stream_mixes_two_writes_in_every_ten() {
    let streams = gen::serve_stream(9, 2, 200);
    let mut fresh = std::collections::HashSet::new();
    for s in &streams {
        assert_eq!(s.len(), 200);
        for block in s.chunks(10) {
            assert_eq!(block.iter().filter(|r| !r.cached).count(), 2);
        }
        for r in s.iter().filter(|r| !r.cached) {
            assert!(fresh.insert(r.spec.clone()), "fresh campaign repeated");
        }
    }
    let pool = gen::serve_pool(9);
    assert!(streams[0]
        .iter()
        .filter(|r| r.cached)
        .all(|r| pool.contains(r)));
}

#[test]
fn normalization_drops_only_timing_columns() {
    let csv = "dag,tasks,edges,model,lambda,estimator,value,reference,reference_std_error,rel_error,elapsed_s,seed\n\
               lu:k=3,14,18,pfail=0.01,0.1,sculli,1.5,1.4,0.01,0.0714,0.000123,99\n\
               lu:k=3,14,18,pfail=0.01,0.1,mc:10,1.3,1.4,0.01,-0.0714,0.5,98\n\
               # summary: sculli,1,0.0714,0.0714,0.000123\n";
    let n = normalize_csv(csv);
    assert!(n.contains("lu:k=3,14,18,pfail=0.01,0.1,sculli,1.5,1.4,0.01,0.0714,99\n"));
    assert!(n.contains("# summary: sculli,1,0.0714,0.0714\n"));
    assert!(!n.contains("0.000123"));
    // Monte-Carlo rows are not estimator accuracy.
    assert_eq!(rel_errors(csv), vec![0.0714]);
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let text = include_str!("../../BENCHMARK.json");
    let v = serde::json::parse(text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<[String; 3]> {
        v.get(key)
            .and_then(|a| a.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .map(|k| m.get(k).and_then(|x| x.as_str()).unwrap().to_string())
            })
            .collect()
    };
    let e2e: Vec<[String; 3]> = END_TO_END
        .iter()
        .map(|&(n, u, b)| [n, u, b].map(String::from))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layers: Vec<[String; 3]> = LAYERS
        .iter()
        .map(|&(n, u, b, _)| [n, u, b].map(String::from))
        .collect();
    assert_eq!(list("per_layer"), layers);
}
