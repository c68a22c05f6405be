//! The in-process search workloads: `search_cold` and `search_warm`.
//!
//! One unit is one `SearchBuilder` search (one scenario, `workers(1)`,
//! `eval_workers(1)`). A run executes its unit list in spaced passes, each
//! from identical state: a fresh repository per cold pass, a fresh copy of
//! the set-up journal per warm pass.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use syno_core::graph::PGraph;
use syno_search::{MctsConfig, SearchBuilder, SearchEvent};
use syno_store::{Store, StoreBuilder};

use crate::draw::{self, Scenario};
use crate::host;
use crate::spans::span;
use crate::stats::mean;
use crate::{Measurement, Pass, UnitResult, SETUP_EVERY};

/// Runs one search, journaling into `store`.
fn run_search(
    scenario: &Scenario,
    store: &Arc<Store>,
    keep_graphs: bool,
) -> (UnitResult, Vec<PGraph>) {
    let builder = SearchBuilder::new()
        .scenario(&scenario.label, &scenario.vars, &scenario.spec)
        .mcts(MctsConfig {
            iterations: draw::SEARCH_ITERATIONS,
            seed: scenario.mcts_seed,
            ..MctsConfig::default()
        })
        .proxy(draw::search_proxy())
        .workers(1)
        .eval_workers(1)
        .store(Arc::clone(store));
    let mut unit = UnitResult::default();
    let run = match builder.start() {
        Ok(run) => run,
        Err(error) => {
            eprintln!("perfbench: {} did not start: {error}", scenario.label);
            unit.failed = true;
            return (unit, Vec::new());
        }
    };
    for event in run.events() {
        match event {
            SearchEvent::ProxyScored { .. } => unit.trainings += 1,
            SearchEvent::CacheHit { .. } => unit.cache_hits += 1,
            SearchEvent::CandidateSkipped { .. } => unit.skipped += 1,
            _ => {}
        }
    }
    let report = match run.join() {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", scenario.label);
            unit.failed = true;
            return (unit, Vec::new());
        }
    };
    unit.evaluated = report.candidates.len() as u64;
    unit.steps = report.steps;
    unit.wall_ns = report.wall.as_nanos() as u64;
    unit.idle_ns = report.phases.idle.as_nanos() as u64;
    unit.set = report
        .candidates
        .iter()
        .map(|c| (c.graph.content_hash(), c.accuracy.to_bits()))
        .collect();
    unit.set.sort_unstable();
    let graphs = if keep_graphs {
        report.candidates.into_iter().map(|c| c.graph).collect()
    } else {
        Vec::new()
    };
    (unit, graphs)
}

/// One pass over every scenario against `store`, taking a set-up sample
/// with `setup` every [`SETUP_EVERY`] units.
fn pass(
    scenarios: &[Scenario],
    store: &Arc<Store>,
    keep_graphs: bool,
    setup: &mut dyn FnMut() -> f64,
    setup_s: &mut Vec<f64>,
) -> (Pass, Vec<Vec<PGraph>>) {
    let mut out = Pass::default();
    let mut peaks = Vec::new();
    let mut graphs = Vec::new();
    for (u, scenario) in scenarios.iter().enumerate() {
        if u % SETUP_EVERY == SETUP_EVERY - 1 {
            setup_s.push(setup());
        }
        host::reset_peak_rss("self");
        let mut s = span("search.run", u);
        let started = Instant::now();
        let (unit, g) = run_search(scenario, store, keep_graphs);
        out.times.push(started.elapsed().as_secs_f64());
        peaks.push(host::peak_rss_mb("self").unwrap_or(0.0));
        if unit.failed {
            s.fail();
        }
        out.units.push(unit);
        graphs.push(g);
    }
    out.peak_rss_mb = mean(&peaks);
    (out, graphs)
}

fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(
        StoreBuilder::new(dir)
            .open()
            .unwrap_or_else(|e| panic!("open store {}: {e}", dir.display())),
    )
}

/// Creates and opens a fresh repository at `dir`; returns it and the
/// seconds that took (directory, journal header and its fsync).
fn create_store(dir: &Path) -> (Arc<Store>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let _s = span("store.create", 0);
    let started = Instant::now();
    let store = open_store(dir);
    (store, started.elapsed().as_secs_f64())
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy journal");
        }
    }
}

/// Opens a copy of the journal at `base`; returns it and the seconds the
/// open (the journal replay) took.
fn open_copy(base: &Path, dir: &Path) -> (Arc<Store>, f64) {
    copy_dir(base, dir);
    let _s = span("store.open", 0);
    let started = Instant::now();
    let store = open_store(dir);
    (store, started.elapsed().as_secs_f64())
}

/// What the traced replay needs from a search workload run.
pub struct SearchOutcome {
    pub measurement: Measurement,
    /// Candidate graphs per unit, from the first timed pass (traced runs).
    pub graphs: Vec<Vec<PGraph>>,
    /// The repository the last timed pass used, still on disk.
    pub store_dir: PathBuf,
    /// `cache_hits / lookups` of the last timed pass's store.
    pub cache_hit_ratio: f64,
}

fn same_sets(a: &Pass, b: &Pass) -> bool {
    a.units.len() == b.units.len() && a.units.iter().zip(&b.units).all(|(x, y)| x.set == y.set)
}

/// `search_cold`: every pass journals into a fresh repository.
pub fn cold(
    scenarios: &[Scenario],
    passes: usize,
    work: &Path,
    keep_graphs: bool,
) -> SearchOutcome {
    let mut m = Measurement::default();
    let mut graphs = Vec::new();
    let mut hit_ratio = 0.0;
    let scratch = work.join("cold-setup");
    let mut setup = || create_store(&scratch).1;
    let mut dir = work.join("cold-0");
    for p in 0..passes {
        if p > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = work.join(format!("cold-{p}"));
        let (store, setup_s) = create_store(&dir);
        m.setup_s.push(setup_s);
        let (timed, g) = pass(
            scenarios,
            &store,
            keep_graphs && p == 0,
            &mut setup,
            &mut m.setup_s,
        );
        if p == 0 {
            graphs = g;
        }
        hit_ratio = store.stats().cache_hit_ratio().unwrap_or(0.0);
        m.passes.push(timed);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    SearchOutcome {
        measurement: m,
        graphs,
        store_dir: dir,
        cache_hit_ratio: hit_ratio,
    }
}

/// `search_warm`: set-up journals one untimed cold pass; every timed pass
/// replays a fresh copy of that journal, so every evaluation is a recall.
pub fn warm(
    scenarios: &[Scenario],
    passes: usize,
    work: &Path,
    keep_graphs: bool,
) -> SearchOutcome {
    let mut m = Measurement::default();
    let base = work.join("warm-base");
    let (store, _) = create_store(&base);
    let (cold, _) = pass(scenarios, &store, false, &mut || 0.0, &mut Vec::new());
    drop(store);

    let mut graphs = Vec::new();
    let mut hit_ratio = 0.0;
    let scratch = work.join("warm-setup");
    let mut setup = || open_copy(&base, &scratch).1;
    let mut dir = work.join("warm-0");
    for p in 0..passes {
        if p > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = work.join(format!("warm-{p}"));
        let (store, setup_s) = open_copy(&base, &dir);
        m.setup_s.push(setup_s);
        let (timed, g) = pass(
            scenarios,
            &store,
            keep_graphs && p == 0,
            &mut setup,
            &mut m.setup_s,
        );
        if p == 0 {
            graphs = g;
        }
        hit_ratio = store.stats().cache_hit_ratio().unwrap_or(0.0);
        m.passes.push(timed);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&base);

    let trainings: u64 = m
        .passes
        .iter()
        .flat_map(|p| &p.units)
        .map(|u| u.trainings)
        .sum();
    m.checks
        .push(("warm passes emit zero ProxyScored".into(), trainings == 0));
    let identical = m.passes.iter().all(|p| same_sets(&cold, p));
    m.checks.push((
        "cold and warm yield identical candidate sets per scenario".into(),
        identical,
    ));
    SearchOutcome {
        measurement: m,
        graphs,
        store_dir: dir,
        cache_hit_ratio: hit_ratio,
    }
}
