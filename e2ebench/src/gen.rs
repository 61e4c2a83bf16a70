//! Seeded input generation: synthetic Montage- and Epigenomics-shaped
//! workflow traces (written as DOT and WfCommons JSON), the campaign
//! specs of each workload, and the `serve-mixed` request stream.
//!
//! Everything here is a pure function of the seed, so the same seed
//! gives byte-identical inputs. Shapes (task and edge counts) are fixed
//! per workload; the seed varies task runtimes, the failure
//! probabilities (within a tenth of their grid spacing), the request
//! stream and the Monte-Carlo seeds, so the work per run stays
//! comparable across seeds.

use std::fmt::Write as _;

/// SplitMix64: a tiny, dependency-free, well-mixed PRNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to 1/1000 so text renderings are
    /// short and exact.
    pub fn runtime(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1000.0).round() / 1000.0
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One task of a workflow trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Unique task name.
    pub name: String,
    /// Runtime (the task weight).
    pub runtime: f64,
    /// Names of the tasks this one depends on.
    pub parents: Vec<String>,
}

/// A named workflow trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Workflow {
    /// Workflow name (becomes part of the engine's instance id).
    pub name: String,
    /// Tasks in topological order.
    pub tasks: Vec<Task>,
}

impl Workflow {
    fn task(&mut self, name: String, runtime: f64, parents: Vec<String>) -> String {
        self.tasks.push(Task {
            name: name.clone(),
            runtime,
            parents,
        });
        name
    }
}

/// A Montage-shaped mosaic workflow over `images` input tiles laid out
/// in rows of `cols`: project every tile, difference every pair of
/// horizontal and vertical neighbours, fit and model the background,
/// correct every projection, then co-add, shrink and render. The seed
/// draws every runtime; the structure is fixed, so first-order accuracy
/// and Monte-Carlo cost hardly move with the seed.
pub fn montage(name: &str, seed: u64, images: usize, cols: usize) -> Workflow {
    let mut rng = Rng::new(seed, 0x6d6f_6e74);
    let mut wf = Workflow {
        name: name.to_string(),
        tasks: Vec::new(),
    };
    let projects: Vec<String> = (0..images)
        .map(|i| wf.task(format!("mProjectPP_{i}"), rng.runtime(12.0, 16.0), vec![]))
        .collect();
    let mut diffs = Vec::new();
    for a in 0..images {
        let right = (a + 1 < images && (a + 1) % cols != 0).then_some(a + 1);
        for b in right
            .into_iter()
            .chain((a + cols < images).then_some(a + cols))
        {
            diffs.push(wf.task(
                format!("mDiffFit_{a}_{b}"),
                rng.runtime(2.0, 3.0),
                vec![projects[a].clone(), projects[b].clone()],
            ));
        }
    }
    let concat = wf.task("mConcatFit".into(), rng.runtime(1.0, 2.0), diffs);
    let model = wf.task("mBgModel".into(), rng.runtime(4.0, 6.0), vec![concat]);
    let backgrounds: Vec<String> = projects
        .iter()
        .enumerate()
        .map(|(i, p)| {
            wf.task(
                format!("mBackground_{i}"),
                rng.runtime(3.0, 4.0),
                vec![model.clone(), p.clone()],
            )
        })
        .collect();
    let table = wf.task("mImgtbl".into(), rng.runtime(0.5, 1.0), backgrounds);
    let add = wf.task("mAdd".into(), rng.runtime(8.0, 10.0), vec![table]);
    let shrink = wf.task("mShrink".into(), rng.runtime(1.0, 2.0), vec![add]);
    wf.task("mJPEG".into(), rng.runtime(0.5, 1.0), vec![shrink]);
    wf
}

/// An Epigenomics-shaped genome pipeline: `lanes` independent lanes,
/// each split into `chunks` four-stage chains (filter, convert,
/// convert, map) merged per lane, then indexed and piled up.
pub fn epigenomics(name: &str, seed: u64, lanes: usize, chunks: usize) -> Workflow {
    let mut rng = Rng::new(seed, 0x6570_6967);
    let mut wf = Workflow {
        name: name.to_string(),
        tasks: Vec::new(),
    };
    let mut merges = Vec::new();
    for l in 0..lanes {
        let split = wf.task(format!("fastqSplit_{l}"), rng.runtime(10.0, 14.0), vec![]);
        let mut maps = Vec::new();
        for c in 0..chunks {
            let filter = wf.task(
                format!("filterContams_{l}_{c}"),
                rng.runtime(3.0, 4.0),
                vec![split.clone()],
            );
            let sol = wf.task(
                format!("sol2sanger_{l}_{c}"),
                rng.runtime(1.0, 2.0),
                vec![filter],
            );
            let bfq = wf.task(
                format!("fastq2bfq_{l}_{c}"),
                rng.runtime(2.0, 2.5),
                vec![sol],
            );
            maps.push(wf.task(format!("map_{l}_{c}"), rng.runtime(20.0, 30.0), vec![bfq]));
        }
        merges.push(wf.task(format!("mapMerge_{l}"), rng.runtime(5.0, 6.0), maps));
    }
    let index = wf.task("maqIndex".into(), rng.runtime(8.0, 9.0), merges);
    wf.task("pileup".into(), rng.runtime(3.0, 4.0), vec![index]);
    wf
}

/// Render a workflow as Graphviz DOT with `weight=` task runtimes.
pub fn to_dot(wf: &Workflow) -> String {
    let mut s = format!("// synthetic workflow trace\ndigraph {} {{\n", wf.name);
    for t in &wf.tasks {
        let _ = writeln!(s, "  {} [weight={}];", t.name, t.runtime);
    }
    for t in &wf.tasks {
        for p in &t.parents {
            let _ = writeln!(s, "  {p} -> {};", t.name);
        }
    }
    s.push_str("}\n");
    s
}

/// Render a workflow as WfCommons-style JSON (`workflow.tasks` with
/// `name`, `runtime`, `parents` and `children`).
pub fn to_wfcommons_json(wf: &Workflow) -> String {
    let quote = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = format!(
        "{{\n  \"name\": \"{}\",\n  \"workflow\": {{\n    \"tasks\": [\n",
        wf.name
    );
    for (i, t) in wf.tasks.iter().enumerate() {
        let parents: Vec<&str> = t.parents.iter().map(String::as_str).collect();
        let children: Vec<&str> = wf
            .tasks
            .iter()
            .filter(|c| c.parents.contains(&t.name))
            .map(|c| c.name.as_str())
            .collect();
        let _ = write!(
            s,
            "      {{\"name\": \"{}\", \"runtime\": {}, \"parents\": [{}], \"children\": [{}]}}",
            t.name,
            t.runtime,
            quote(&parents),
            quote(&children)
        );
        s.push_str(if i + 1 < wf.tasks.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]\n  }\n}\n");
    s
}

/// A trace file the `traces-workers` workload writes: file name and
/// contents.
pub struct TraceFile {
    /// File name (the suffix selects the format).
    pub file: String,
    /// Spec `kind` (`"dot"` or `"trace-json"`).
    pub kind: &'static str,
    /// File contents.
    pub text: String,
    /// Task count of the trace.
    pub tasks: usize,
}

/// The four traces of `traces-workers`: two Montage and two
/// Epigenomics shapes of a few hundred tasks each, one of each in DOT
/// and one in WfCommons JSON.
pub fn trace_files(seed: u64) -> Vec<TraceFile> {
    let workflows = [
        (montage("montage_a", seed, 60, 8), "dot"),
        (epigenomics("epigenomics_a", seed, 4, 12), "trace-json"),
        (montage("montage_b", seed ^ 1, 48, 6), "trace-json"),
        (epigenomics("epigenomics_b", seed ^ 1, 3, 16), "dot"),
    ];
    workflows
        .into_iter()
        .map(|(wf, kind)| TraceFile {
            file: format!("{}.{}", wf.name, if kind == "dot" { "dot" } else { "json" }),
            kind,
            text: if kind == "dot" {
                to_dot(&wf)
            } else {
                to_wfcommons_json(&wf)
            },
            tasks: wf.tasks.len(),
        })
        .collect()
}

/// `n` distinct, sorted failure probabilities spread evenly over
/// `[lo, hi)`, each jittered by the seed within a tenth of the grid
/// spacing (so accuracy and cost hardly depend on the seed) and
/// rounded to 1e-7.
pub fn pfails(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let step = (hi - lo) / n as f64;
    (0..n)
        .map(|k| {
            let p = lo + step * (k as f64 + 0.5 + 0.1 * (rng.unit() - 0.5));
            (p * 1e7).round() / 1e7
        })
        .collect()
}

fn f64_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The ROADMAP's Table-1 grid: LU/QR/Cholesky at k ∈ {6, 8, 10}, two
/// pfails, six estimators and a 20k-trial reference. The seed only
/// picks the Monte-Carlo seeds.
pub fn table1_spec(seed: u64) -> String {
    format!(
        r#"{{"name": "table1-cold", "seed": {seed}, "pfails": [0.01, 0.001],
 "estimators": ["first-order", "second-order", "sculli", "corlca", "dodin:128", "spelde:16"],
 "reference_trials": 20000,
 "dags": [{{"kind": "lu", "ks": [6, 8, 10]}}, {{"kind": "qr", "ks": [6, 8, 10]}},
          {{"kind": "cholesky", "ks": [6, 8, 10]}}]}}
"#
    )
}

/// The `traces-workers` campaign over trace files stored in `dir`:
/// four pfails × {iid, rack, bursty} × {first-order, mc}. The reference
/// is small next to the `mc` cells: both workers compute a reference
/// when they lease cells of the same scenario at once, and a large one
/// would make the work per campaign depend on that timing.
pub fn traces_spec(seed: u64, dir: &str, traces: &[TraceFile]) -> String {
    let mut rng = Rng::new(seed, 0x7472_6163);
    let p = pfails(&mut rng, 4, 0.001, 0.012);
    let dags: Vec<String> = traces
        .iter()
        .map(|t| format!(r#"{{"kind": "{}", "path": "{dir}/{}"}}"#, t.kind, t.file))
        .collect();
    format!(
        r#"{{"name": "traces-workers", "seed": {seed}, "pfails": [{}],
 "estimators": ["first-order", "mc:6000"], "reference_trials": 300,
 "scenarios": ["iid", "rack:4:0.05:2", "bursty:8:0.25:3:7"],
 "dags": [{}]}}
"#,
        f64_list(&p),
        dags.join(", ")
    )
}

/// The `spool-grid` campaign: 300 cheap analytic cells (LU/Cholesky
/// k ∈ {4, 6, 8}, ten pfails, five estimators) and one 8k-trial
/// reference per scenario, so compute does not vanish under the
/// filesystem and poll-loop costs it is there to expose.
pub fn spool_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed, 0x7370_6f6f);
    let p = pfails(&mut rng, 10, 0.001, 0.02);
    format!(
        r#"{{"name": "spool-grid", "seed": {seed}, "pfails": [{}],
 "estimators": ["first-order", "second-order", "sculli", "corlca", "spelde:16"],
 "reference_trials": 8000,
 "dags": [{{"kind": "lu", "ks": [4, 6, 8]}}, {{"kind": "cholesky", "ks": [4, 6, 8]}}]}}
"#,
        f64_list(&p)
    )
}

/// One small `serve-mixed` campaign at a single pfail.
pub fn serve_spec(seed: u64, name: &str, pfail: f64) -> String {
    format!(
        r#"{{"name": "{name}", "seed": {seed}, "pfails": [{pfail:?}],
 "estimators": ["first-order", "second-order", "sculli", "corlca", "spelde:16"],
 "reference_trials": 1500,
 "dags": [{{"kind": "lu", "ks": [3, 4]}}, {{"kind": "cholesky", "ks": [4, 5]}}]}}
"#
    )
}

/// One request of a `serve-mixed` client: a campaign spec, and whether
/// set-up already computed it (so the daemon serves it from cache).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// Campaign name.
    pub name: String,
    /// Spec text (JSON).
    pub spec: String,
    /// Whether the campaign is one of the pre-filled pool.
    pub cached: bool,
}

/// Number of pre-filled campaigns in the `serve-mixed` pool.
pub const SERVE_POOL: usize = 6;

/// The pool of campaigns set-up computes before `serve-mixed` measures.
pub fn serve_pool(seed: u64) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed, 0x706f_6f6c);
    pfails(&mut rng, SERVE_POOL, 0.001, 0.02)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let name = format!("pool-{i}");
            ServeRequest {
                spec: serve_spec(seed, &name, p),
                name,
                cached: true,
            }
        })
        .collect()
}

/// The request streams of `clients` closed-loop clients, `per_client`
/// requests each. In every block of ten requests exactly two carry a
/// new pfail (writes); the other eight repeat a pool campaign (reads).
pub fn serve_stream(seed: u64, clients: usize, per_client: usize) -> Vec<Vec<ServeRequest>> {
    let pool = serve_pool(seed);
    let mut rng = Rng::new(seed, 0x7374_7265);
    let fresh_total = clients * per_client.div_ceil(10) * 2;
    // Fresh pfails lie in a band the pool never uses, so they are
    // distinct from every pool pfail as well as from each other.
    let mut fresh = pfails(&mut rng, fresh_total, 0.02, 0.05).into_iter();
    (0..clients)
        .map(|c| {
            let mut out = Vec::with_capacity(per_client);
            while out.len() < per_client {
                let a = rng.below(10);
                let b = (a + 1 + rng.below(9)) % 10;
                for slot in 0..10 {
                    if out.len() == per_client {
                        break;
                    }
                    if slot == a || slot == b {
                        let p = fresh.next().expect("enough fresh pfails");
                        let name = format!("fresh-c{c}-{}", out.len());
                        out.push(ServeRequest {
                            spec: serve_spec(seed, &name, p),
                            name,
                            cached: false,
                        });
                    } else {
                        out.push(pool[rng.below(pool.len())].clone());
                    }
                }
            }
            out
        })
        .collect()
}
