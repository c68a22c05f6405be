//! The syno benchmark: one workload per process, end-to-end metrics from
//! untimed-state-identical passes, per-layer metrics from a traced run.
//! See `README.md` next to this crate for the workloads, the metrics and
//! the noise rule; `run.py` builds this binary and the daemon and is the
//! command to run.

mod draw;
mod host;
mod layers;
mod search;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::exit;

use syno_core::graph::PGraph;
use syno_serve::SearchRequest;

use stats::{json_str, median, percentile, ratio, Metrics};

/// A set-up sample is taken between units, once every this many units
/// (serve: rounds), so the samples span the whole run; `setup_s` is their
/// median.
pub const SETUP_EVERY: usize = 4;
/// Searches per pass: enough that 10 lie beyond p90.
pub const SEARCH_UNITS: usize = 100;

/// What one unit (a search or a session) produced in one pass.
#[derive(Clone, Debug, Default)]
pub struct UnitResult {
    /// Sorted `(content_hash, accuracy bits)` of the evaluated candidates.
    pub set: Vec<(u64, u64)>,
    pub evaluated: u64,
    pub skipped: u64,
    pub trainings: u64,
    pub cache_hits: u64,
    pub steps: u64,
    pub wall_ns: u64,
    pub idle_ns: u64,
    pub failed: bool,
}

/// One pass over a workload's unit list: per-unit seconds and results.
#[derive(Debug, Default)]
pub struct Pass {
    pub times: Vec<f64>,
    pub units: Vec<UnitResult>,
    /// Mean over the pass's units (serve: rounds) of the working process's
    /// peak resident set, reset before each.
    pub peak_rss_mb: f64,
}

#[derive(Debug, Default)]
pub struct Measurement {
    pub passes: Vec<Pass>,
    pub setup_s: Vec<f64>,
    pub checks: Vec<(String, bool)>,
}

impl Measurement {
    /// Each unit's best time over the passes.
    fn best_times(&self) -> Vec<f64> {
        let n = self.passes[0].times.len();
        (0..n)
            .map(|u| {
                self.passes
                    .iter()
                    .map(|p| p.times[u])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    fn first(&self) -> &[UnitResult] {
        &self.passes[0].units
    }

    fn sum(&self, f: impl Fn(&UnitResult) -> u64) -> u64 {
        self.first().iter().map(f).sum()
    }

    fn candidates_per_s(&self) -> f64 {
        ratio(
            self.sum(|u| u.evaluated) as f64,
            self.best_times().iter().sum(),
        )
    }

    fn end_to_end(&self) -> Metrics {
        let best_ms: Vec<f64> = self.best_times().iter().map(|t| t * 1e3).collect();
        let evaluated = self.sum(|u| u.evaluated) as f64;
        let failed = self.sum(|u| u.skipped + u.failed as u64) as f64;
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("candidates_per_s", self.candidates_per_s(), "1/s");
        m.put("search_ms_p50", percentile(&best_ms, 0.5), "ms");
        m.put("search_ms_p90", percentile(&best_ms, 0.9), "ms");
        m.put("ok_ratio", ratio(evaluated, evaluated + failed), "ratio");
        let peaks: Vec<f64> = self.passes.iter().map(|p| p.peak_rss_mb).collect();
        m.put("peak_rss_mb", median(&peaks), "MiB");
        m
    }

    /// Units run over all passes.
    fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.units.len() as u64).sum()
    }

    /// Units that failed over all passes.
    fn failed(&self) -> u64 {
        self.passes
            .iter()
            .flat_map(|p| &p.units)
            .filter(|u| u.failed)
            .count() as u64
    }

    fn check_passes_agree(&mut self) {
        let first = &self.passes[0].units;
        let same = self.passes.iter().all(|p| {
            p.units.len() == first.len() && p.units.iter().zip(first).all(|(a, b)| a.set == b.set)
        });
        self.checks
            .push(("every pass yields the same candidate sets".into(), same));
    }
}

/// A measured workload plus what the traced replay needs from it.
pub struct Run {
    pub m: Measurement,
    /// Candidate graphs per unit (traced runs).
    pub graphs: Vec<Vec<PGraph>>,
    /// Proxy training steps and batch the units ran under.
    pub proxy: syno_nn::ProxyConfig,
    pub scenarios: Vec<draw::Scenario>,
    pub store_dir: PathBuf,
    pub cache_hit_ratio: f64,
    pub serve: Option<ServeTrace>,
    /// Reference in-process runs (serve): the `search` layer's readings.
    pub reference: Vec<UnitResult>,
}

/// Serve-only readings of the traced pass.
pub struct ServeTrace {
    pub readings: Vec<serve::SessionReadings>,
    pub metrics_dump: String,
}

struct Args {
    workload: String,
    seed: u64,
    passes: usize,
    units: usize,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
    trace_out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload search_cold|search_warm|serve_tenants --seed N \
         --serve-bin PATH --work-dir DIR [--passes K] [--units U] [--trace 0|1] [--trace-out DIR]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        passes: 3,
        units: SEARCH_UNITS,
        trace: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
        trace_out: PathBuf::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        let num = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--passes" => args.passes = (num() as usize).max(1),
            "--units" => args.units = (num() as usize).max(2),
            "--trace" => args.trace = num() != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--trace-out" => args.trace_out = PathBuf::from(&value),
            _ => usage(),
        }
    }
    if args.work_dir.as_os_str().is_empty() {
        usage();
    }
    if args.trace_out.as_os_str().is_empty() {
        args.trace_out = args.work_dir.clone();
    }
    args
}

fn search_workload(args: &Args, warm: bool, traced: bool) -> Run {
    let scenarios = draw::scenarios(args.seed, args.units);
    let out = if warm {
        search::warm(&scenarios, args.passes, &args.work_dir, traced)
    } else {
        search::cold(&scenarios, args.passes, &args.work_dir, traced)
    };
    let mut m = out.measurement;
    m.check_passes_agree();
    Run {
        m,
        graphs: out.graphs,
        proxy: draw::search_proxy(),
        scenarios,
        store_dir: out.store_dir,
        cache_hit_ratio: out.cache_hit_ratio,
        serve: None,
        reference: Vec::new(),
    }
}

fn serve_workload(args: &Args, traced: bool) -> Run {
    let requests = draw::tenant_requests(args.seed, args.units / 2);
    let mut m = Measurement::default();
    let mut trace = None;
    let mut store_dir = PathBuf::new();
    let mut hit_ratio = 0.0;
    for p in 0..args.passes {
        let dir = args.work_dir.join(format!("serve-{p}"));
        let sp = serve::serve_pass(&args.serve_bin, &requests, &dir, traced, traced && p == 0);
        m.setup_s.extend(&sp.setup_s);
        m.passes.push(sp.pass);
        if p == 0 {
            trace = Some(ServeTrace {
                readings: sp.readings,
                metrics_dump: sp.metrics_dump,
            });
            store_dir = dir;
            hit_ratio = sp.cache_hit_ratio;
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    m.check_passes_agree();

    // Every session's final set must equal an in-process run of the same
    // request under the same store state: the references run in session
    // order (round by round, tenant A first) against one shared store.
    let units: Vec<&SearchRequest> = (0..args.units / 2)
        .flat_map(|round| [&requests[0][round], &requests[1][round]])
        .collect();
    let ref_dir = args.work_dir.join("serve-reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let ref_store = std::sync::Arc::new(
        syno_store::StoreBuilder::new(&ref_dir)
            .open()
            .expect("open reference store"),
    );
    let mut reference = Vec::new();
    let mut graphs = Vec::new();
    for (u, request) in units.iter().enumerate() {
        let _s = spans::span("search.reference", u);
        let (unit, g) = serve::reference(request, &ref_store, traced);
        reference.push(unit);
        graphs.push(g);
    }
    drop(ref_store);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let agree = (0..units.len()).all(|u| m.passes[0].units[u].set == reference[u].set);
    m.checks.push((
        "each session's set equals an in-process run of its request".into(),
        agree,
    ));

    let scenarios: Vec<draw::Scenario> = units
        .iter()
        .map(|r| {
            let (vars, spec) =
                syno_core::codec::decode_spec(&r.spec).expect("request spec decodes");
            draw::Scenario {
                label: r.label.clone(),
                vision: spec.input.rank() == 4,
                vars,
                spec,
                mcts_seed: r.seed,
            }
        })
        .collect();
    Run {
        m,
        graphs,
        proxy: draw::request_proxy(units[0]),
        scenarios,
        store_dir,
        cache_hit_ratio: hit_ratio,
        serve: trace,
        reference,
    }
}

fn measure(args: &Args, traced: bool) -> Run {
    match args.workload.as_str() {
        "search_cold" => search_workload(args, false, traced),
        "search_warm" => search_workload(args, true, traced),
        "serve_tenants" => serve_workload(args, traced),
        _ => usage(),
    }
}

fn main() {
    // The memory probe runs in a process of its own: its 8 MiB buffer would
    // otherwise raise glibc's mmap threshold for the measured work.
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        println!("{:.3}", host::memory_probe_ms());
        return;
    }
    let args = parse_args();
    std::fs::create_dir_all(&args.work_dir).expect("create work dir");

    let run = measure(&args, false);
    let mut metrics = run.m.end_to_end();
    let mut checks = run.m.checks.clone();
    let mut attempted = run.m.attempted();
    let mut failed = run.m.failed();
    let first = run.m.first();
    let counts = format!(
        "{{\"units\": {}, \"candidates\": {}, \"skipped\": {}, \"trainings\": {}, \"cache_hits\": {}, \"steps\": {}}}",
        first.len(),
        run.m.sum(|u| u.evaluated),
        run.m.sum(|u| u.skipped),
        run.m.sum(|u| u.trainings),
        run.m.sum(|u| u.cache_hits),
        run.m.sum(|u| u.steps),
    );
    let _ = std::fs::remove_dir_all(&run.store_dir);

    if args.trace {
        let untraced_cps = run.m.candidates_per_s();
        drop(run);
        spans::enable();
        syno_telemetry::set_enabled(true);
        let traced = measure(&args, true);
        checks.extend(
            traced
                .m
                .checks
                .iter()
                .map(|(n, ok)| (format!("traced: {n}"), *ok)),
        );
        attempted += traced.m.attempted();
        failed += traced.m.failed();
        let mut per_layer = layers::replay(&traced, &args.serve_bin, &args.work_dir);
        syno_telemetry::set_enabled(false);
        let recorded = spans::take();
        per_layer.extend(layers::span_report(&recorded));
        per_layer.put(
            "telemetry.overhead_frac",
            ratio(untraced_cps, traced.m.candidates_per_s()) - 1.0,
            "ratio",
        );
        let _ = std::fs::remove_dir_all(&traced.store_dir);
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let _ = std::fs::create_dir_all(&args.trace_out);
        let _ = std::fs::write(
            args.trace_out.join(format!("{stem}.spans.jsonl")),
            spans::to_jsonl(&recorded),
        );
        if let Some(serve) = &traced.serve {
            let _ = std::fs::write(
                args.trace_out.join(format!("{stem}.daemon.prom")),
                &serve.metrics_dump,
            );
        }
        let program = syno_telemetry::trace::drain();
        let _ = std::fs::write(
            args.trace_out.join(format!("{stem}.program.txt")),
            syno_telemetry::trace::flame_summary(&program),
        );
        metrics = per_layer;
    }

    let correct = checks.iter().all(|(_, ok)| *ok) && failed == 0;
    let check_json: Vec<String> = checks
        .iter()
        .map(|(name, ok)| format!("{{\"check\": {}, \"ok\": {ok}}}", json_str(name)))
        .collect();
    println!(
        "{{\"diagnostics\": {{\"workload\": {}, \"seed\": {}, \"passes\": {}, \"units\": {}, \
         \"counts\": {counts}, \"checks\": [{}]}}}}",
        json_str(&args.workload),
        args.seed,
        args.passes,
        args.units,
        check_json.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
}
