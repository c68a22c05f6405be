//! The `serve_tenants` workload: a `syno-serve` child process with a fresh
//! store per pass and two tenant connections submitting their seeded
//! request sequences.
//!
//! Each tenant is a closed loop: it submits its next request only after
//! the previous session finished. The two tenants start each round
//! together (a barrier), so a request that tenant B duplicates from
//! tenant A's same round is in flight at the same time as A's, which is
//! what the daemon's training coalescing acts on. Between rounds the
//! daemon's peak RSS is read and reset. One unit is one session, timed
//! from `submit` until its terminal `Done`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use syno_core::codec::decode_spec;
use syno_core::graph::PGraph;
use syno_search::{MctsConfig, SearchBuilder, SearchEvent};
use syno_serve::{Frame, SearchRequest, SessionMessage, SynoClient, WireEvent};
use syno_store::Store;

use crate::draw;
use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::spans::span;
use crate::stats::mean;
use crate::{Pass, UnitResult, SETUP_EVERY};

/// A running `syno-serve` child. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral localhost port and waits until it
    /// reports its address.
    pub fn spawn(bin: &Path, store: &Path, telemetry: bool) -> Daemon {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--eval-workers", "2", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if !telemetry {
            cmd.arg("--no-telemetry");
        }
        let mut child = cmd
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let mut lines = BufReader::new(child.stderr.take().expect("daemon stderr piped")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("syno-serve: listening on ") {
                addr = Some(rest.trim().to_owned());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("syno-serve exited before listening");
        };
        // Keep draining stderr (caught candidate panics are printed there)
        // so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            stderr: Some(stderr),
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Requests a graceful shutdown through `client` and reaps the child.
    pub fn shutdown(mut self, client: SynoClient) {
        if let Err(error) = client.shutdown() {
            eprintln!("perfbench: daemon shutdown request failed: {error}");
        }
        drop(client);
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Client-side readings of one session.
#[derive(Default)]
pub struct SessionReadings {
    pub accept_s: f64,
    pub first_event_s: f64,
    pub frames: u64,
    /// The session's frames as received (kept in traced runs only).
    pub received: Vec<Frame>,
}

fn run_session(
    client: &SynoClient,
    request: &SearchRequest,
    unit: usize,
    keep_frames: bool,
) -> (UnitResult, f64, SessionReadings) {
    let mut result = UnitResult::default();
    let mut readings = SessionReadings::default();
    let mut s = span("serve.session", unit);
    let started = Instant::now();
    let session = {
        let mut a = span("serve.submit", unit);
        match client.submit(request) {
            Ok(session) => session,
            Err(error) => {
                eprintln!("perfbench: session {unit} refused: {error}");
                a.fail();
                s.fail();
                result.failed = true;
                return (result, started.elapsed().as_secs_f64(), readings);
            }
        }
    };
    readings.accept_s = started.elapsed().as_secs_f64();
    let id = session.id();
    for message in session.messages() {
        readings.frames += 1;
        match &message {
            SessionMessage::Event(event) => {
                if readings.frames == 1 {
                    readings.first_event_s = started.elapsed().as_secs_f64();
                }
                match event {
                    WireEvent::LatencyTuned { id, candidate, .. } => {
                        result.set.push((*id, candidate.accuracy.to_bits()))
                    }
                    WireEvent::CacheHit { id, candidate, .. } => {
                        result.cache_hits += 1;
                        result.set.push((*id, candidate.accuracy.to_bits()))
                    }
                    WireEvent::ProxyScored { .. } => result.trainings += 1,
                    WireEvent::CandidateSkipped { .. } => result.skipped += 1,
                    _ => {}
                }
                if keep_frames {
                    readings.received.push(Frame::Event {
                        session: id,
                        event: event.clone(),
                    });
                }
            }
            SessionMessage::Done {
                stopped,
                steps,
                candidates,
            } => {
                result.steps = *steps;
                if keep_frames {
                    readings.received.push(Frame::SearchDone {
                        session: id,
                        stopped: stopped.clone(),
                        steps: *steps,
                        candidates: *candidates,
                    });
                }
            }
            SessionMessage::Error(error) => {
                eprintln!("perfbench: session {unit} error: {error}");
                result.failed = true;
            }
            SessionMessage::Lost { .. } => {
                eprintln!("perfbench: session {unit} lost its connection");
                result.failed = true;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if result.failed {
        s.fail();
    }
    result.set.sort_unstable();
    result.evaluated = result.set.len() as u64;
    (result, elapsed, readings)
}

/// One pass through a fresh daemon and store.
pub struct ServePass {
    pub pass: Pass,
    /// Set-up samples: this pass's own start, then one every
    /// [`SETUP_EVERY`] rounds from a second daemon started between rounds.
    pub setup_s: Vec<f64>,
    pub readings: Vec<SessionReadings>,
    /// The daemon's `--metrics` dump (telemetry-on passes only).
    pub metrics_dump: String,
    pub cache_hit_ratio: f64,
}

/// Spawns a daemon on a fresh store at `dir`, connects both tenants, and
/// returns the seconds that took.
fn start(bin: &Path, dir: &Path, telemetry: bool) -> (Daemon, SynoClient, SynoClient, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let _s = span("serve.start", 0);
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, dir, telemetry);
    let connect = |tenant| {
        SynoClient::connect(&daemon.addr, tenant)
            .unwrap_or_else(|e| panic!("connect {tenant}: {e}"))
    };
    let a = connect("tenant-a");
    let b = connect("tenant-b");
    (daemon, a, b, started.elapsed().as_secs_f64())
}

pub fn serve_pass(
    bin: &Path,
    requests: &[Vec<SearchRequest>; 2],
    dir: &Path,
    telemetry: bool,
    keep_frames: bool,
) -> ServePass {
    let (daemon, a, b, first_setup) = start(bin, dir, telemetry);
    let setup_dir = dir.with_extension("setup");
    let setup_s = Mutex::new(vec![first_setup]);
    let rounds = requests[0].len();
    let pid = daemon.pid();
    let slots: Vec<Mutex<Option<(UnitResult, f64, SessionReadings)>>> =
        (0..2 * rounds).map(|_| Mutex::new(None)).collect();
    let round_peaks = Mutex::new(Vec::new());
    let barrier = Barrier::new(2);
    // Between rounds both tenants wait; one of them reads the daemon's peak
    // RSS over the round just finished, takes a set-up sample every
    // SETUP_EVERY rounds, and resets the peak for the next round.
    let between_rounds = |round: usize| {
        if barrier.wait().is_leader() {
            if round > 0 {
                let peak = peak_rss_mb(&pid).unwrap_or(0.0);
                round_peaks.lock().expect("round peaks").push(peak);
            }
            if round % SETUP_EVERY == SETUP_EVERY - 1 {
                let sample = setup_sample(bin, &setup_dir);
                setup_s.lock().expect("setup samples").push(sample);
            }
            reset_peak_rss(&pid);
        }
        barrier.wait();
    };
    std::thread::scope(|scope| {
        for (t, client) in [&a, &b].into_iter().enumerate() {
            let slots = &slots;
            let between_rounds = &between_rounds;
            scope.spawn(move || {
                for (round, request) in requests[t].iter().enumerate() {
                    between_rounds(round);
                    let unit = 2 * round + t;
                    let outcome = run_session(client, request, unit, keep_frames);
                    *slots[unit].lock().expect("session slot") = Some(outcome);
                }
                between_rounds(requests[t].len());
            });
        }
    });
    let peak = mean(&round_peaks.into_inner().expect("round peaks"));
    let _ = std::fs::remove_dir_all(&setup_dir);
    let setup_s = setup_s.into_inner().expect("setup samples");
    let metrics_dump = if telemetry {
        a.metrics().unwrap_or_default()
    } else {
        String::new()
    };
    let cache_hit_ratio = a
        .status()
        .ok()
        .and_then(|s| s.store)
        .and_then(|s| s.cache_hit_ratio())
        .unwrap_or(0.0);
    drop(b);
    daemon.shutdown(a);

    let mut pass = Pass {
        peak_rss_mb: peak,
        ..Pass::default()
    };
    let mut readings = Vec::new();
    for slot in slots {
        let (unit, time, r) = slot
            .into_inner()
            .expect("session slot")
            .expect("session ran");
        pass.units.push(unit);
        pass.times.push(time);
        readings.push(r);
    }
    ServePass {
        pass,
        setup_s,
        readings,
        metrics_dump,
        cache_hit_ratio,
    }
}

/// One set-up sample: spawn a daemon on a fresh store, connect both
/// tenants, shut it down; returns the seconds until both were connected.
fn setup_sample(bin: &Path, dir: &Path) -> f64 {
    let (daemon, a, b, setup) = start(bin, dir, false);
    drop(b);
    daemon.shutdown(a);
    setup
}

/// The in-process reference for `request`: a `SearchBuilder` run built
/// the way the daemon admits the request, on one thread, against `store`.
pub fn reference(
    request: &SearchRequest,
    store: &Arc<Store>,
    keep_graphs: bool,
) -> (UnitResult, Vec<PGraph>) {
    let mut unit = UnitResult::default();
    let (vars, spec) = decode_spec(&request.spec).expect("benchmark request spec decodes");
    let config = syno_serve::ServeConfig::default();
    let mut mcts = MctsConfig::default();
    if request.iterations > 0 {
        mcts.iterations = request.iterations as usize;
    }
    mcts.seed = request.seed;
    let run = SearchBuilder::new()
        .scenario(&request.label, &vars, &spec)
        .mcts(mcts)
        .proxy(draw::request_proxy(request))
        .devices(config.devices.clone())
        .compiler(config.compiler)
        .workers(1)
        .eval_workers(1)
        .progress_every(config.progress_every)
        .store(Arc::clone(store))
        .start()
        .expect("reference search starts");
    for event in run.events() {
        match event {
            SearchEvent::ProxyScored { .. } => unit.trainings += 1,
            SearchEvent::CacheHit { .. } => unit.cache_hits += 1,
            SearchEvent::CandidateSkipped { .. } => unit.skipped += 1,
            _ => {}
        }
    }
    let report = run.join().expect("reference search joins");
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

/// Reads a counter from a Prometheus exposition dump (0 when absent).
pub fn counter(dump: &str, name: &str) -> f64 {
    dump.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let key = parts.next()?;
            (key == name).then(|| parts.next()?.parse::<f64>().ok())?
        })
        .fold(0.0, |a, b| a + b)
}
