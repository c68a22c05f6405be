//! Per-layer metrics of the traced run: the benchmark replays each
//! layer's public calls on the run's own inputs (its scenarios and the
//! candidate graphs it found), timing every call from outside under a
//! span, and reads the counters the traced run itself produced.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use syno_compiler::{CompilerKind, DType, Device, OperatorClass};
use syno_core::graph::PGraph;
use syno_core::synth::{rollout, Enumerator, RolloutResult, SynthConfig};
use syno_nn::ProxyFamilyId;
use syno_serve::Frame;
use syno_store::{ScoreContract, StoreBuilder};

use crate::spans::{self, span, SpanRecord};
use crate::stats::{percentile, ratio, Metrics};
use crate::{draw, serve, Run};

/// Guided rollouts replayed from each scenario root.
const ROLLOUTS_PER_SCENARIO: usize = 8;
/// Candidates per unit that the `nn` replay trains and scores.
const SCORES_PER_UNIT: usize = 3;
/// Rounds of the small daemon replay run for the search workloads.
const SERVE_REPLAY_ROUNDS: usize = 2;

/// Times `f` under a span; returns its result and microseconds.
fn timed<T>(name: &'static str, unit: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = span(name, unit);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

fn core(run: &Run, m: &mut Metrics) {
    let (mut rollout_us, mut children_us, mut hash_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut complete = 0usize;
    for (u, scenario) in run.scenarios.iter().enumerate() {
        let enumerator = Enumerator::new(SynthConfig::auto(&scenario.vars, 4));
        let root = PGraph::new(scenario.vars.clone(), scenario.spec.clone());
        let mut rng = StdRng::seed_from_u64(scenario.mcts_seed);
        for _ in 0..ROLLOUTS_PER_SCENARIO {
            let (result, us) = timed("core.rollout", u, || {
                rollout(&mut rng, &enumerator, &root, true)
            });
            complete += matches!(result, RolloutResult::Complete(_)) as usize;
            rollout_us.push(us);
        }
        let (_, us) = timed("core.children", u, || enumerator.children(&root).len());
        children_us.push(us);
    }
    for (u, graphs) in run.graphs.iter().enumerate() {
        for g in graphs {
            let (_, us) = timed("core.content_hash", u, || g.content_hash());
            hash_us.push(us);
        }
    }
    m.put("core.rollout_us_p50", percentile(&rollout_us, 0.5), "us");
    m.put("core.rollout_us_p90", percentile(&rollout_us, 0.9), "us");
    m.put(
        "core.rollout_complete_ratio",
        ratio(complete as f64, rollout_us.len() as f64),
        "ratio",
    );
    m.put("core.children_us_p50", percentile(&children_us, 0.5), "us");
    m.put("core.content_hash_us_p50", percentile(&hash_us, 0.5), "us");
}

fn search(run: &Run, m: &mut Metrics) {
    // The search layer's readings come from the traced searches: the
    // timed units themselves, or for serve the in-process references.
    let units = if run.reference.is_empty() {
        &run.m.passes[0].units
    } else {
        &run.reference
    };
    let steps: u64 = units.iter().map(|u| u.steps).sum();
    let wall: u64 = units.iter().map(|u| u.wall_ns).sum();
    let idle: u64 = units.iter().map(|u| u.idle_ns).sum();
    let evaluated: u64 = units.iter().map(|u| u.evaluated).sum();
    m.put(
        "search.iterations_per_s",
        ratio(steps as f64, wall as f64 / 1e9),
        "1/s",
    );
    m.put(
        "search.candidates_per_iteration",
        ratio(evaluated as f64, steps as f64),
        "ratio",
    );
    m.put(
        "search.unattributed_frac",
        ratio(idle as f64, wall as f64),
        "ratio",
    );
}

fn nn(run: &Run, m: &mut Metrics) {
    let (mut vision_ms, mut sequence_ms) = (Vec::new(), Vec::new());
    let (mut attempts, mut failures) = (0u64, 0u64);
    for (u, graphs) in run.graphs.iter().enumerate() {
        let family = if run.scenarios[u].vision {
            ProxyFamilyId::Vision
        } else {
            ProxyFamilyId::Sequence
        };
        for g in graphs.iter().take(SCORES_PER_UNIT) {
            let mut s = span("nn.score", u);
            let started = Instant::now();
            let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                family.family().score(g, 0, &run.proxy)
            }));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            attempts += 1;
            if !matches!(scored, Ok(Ok(_))) {
                failures += 1;
                s.fail();
            }
            if run.scenarios[u].vision {
                vision_ms.push(ms)
            } else {
                sequence_ms.push(ms)
            }
        }
    }
    m.put("nn.vision_score_ms_p50", percentile(&vision_ms, 0.5), "ms");
    m.put("nn.vision_score_ms_p90", percentile(&vision_ms, 0.9), "ms");
    m.put(
        "nn.sequence_score_ms_p50",
        percentile(&sequence_ms, 0.5),
        "ms",
    );
    m.put(
        "nn.sequence_score_ms_p90",
        percentile(&sequence_ms, 0.9),
        "ms",
    );
    m.put(
        "nn.score_fail_ratio",
        ratio(failures as f64, attempts as f64),
        "ratio",
    );
    // Proxy trainings the traced run itself executed (the daemon's counter
    // for serve): what the `nn` layer's work should scale with.
    let trainings = match &run.serve {
        Some(t) => serve::counter(&t.metrics_dump, "syno_search_proxy_train_total"),
        None => run.m.passes[0]
            .units
            .iter()
            .map(|u| u.trainings)
            .sum::<u64>() as f64,
    };
    m.put("nn.trainings", trainings, "count");
}

fn ir_and_compiler(run: &Run, m: &mut Metrics) {
    let (mut lower_us, mut tune_us) = (Vec::new(), Vec::new());
    let device = Device::mobile_cpu();
    for (u, graphs) in run.graphs.iter().enumerate() {
        for g in graphs {
            let mut s = span("ir.lower", u);
            let started = Instant::now();
            if syno_ir::lower_optimized(g, 0).is_err() {
                s.fail();
            }
            lower_us.push(started.elapsed().as_secs_f64() * 1e6);
            drop(s);

            let mut s = span("compiler.tune", u);
            let started = Instant::now();
            match syno_compiler::profile_graph(g, 0, OperatorClass::Novel, "candidate") {
                Ok(profile) => {
                    std::hint::black_box(syno_compiler::compile(
                        &profile,
                        &device,
                        CompilerKind::Tvm,
                        DType::F32,
                    ));
                }
                Err(_) => s.fail(),
            }
            tune_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.put("ir.lower_us_p50", percentile(&lower_us, 0.5), "us");
    m.put("compiler.tune_us_p50", percentile(&tune_us, 0.5), "us");
    m.put("compiler.tune_us_p90", percentile(&tune_us, 0.9), "us");
}

/// Frames in a journal segment: a 12-byte header, then
/// `[tag u8][len u32][payload][checksum u32]` records.
fn journal_records(dir: &Path) -> (u64, u64) {
    let (mut records, mut bytes) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("journal") && name.ends_with(".syno")) {
            continue;
        }
        let Ok(data) = std::fs::read(entry.path()) else {
            continue;
        };
        bytes += data.len() as u64;
        let mut at = 12usize;
        while at + 5 <= data.len() {
            let len =
                u32::from_le_bytes(data[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
            at += 9 + len;
            records += (at <= data.len()) as u64;
        }
    }
    (records, bytes)
}

fn store(run: &Run, work: &Path, m: &mut Metrics) {
    let (records, bytes) = journal_records(&run.store_dir);
    let mut s = span("store.open", 0);
    let started = Instant::now();
    let opened = StoreBuilder::new(&run.store_dir).create(false).open();
    let open_s = started.elapsed().as_secs_f64();
    if opened.is_err() {
        s.fail();
    }
    drop(s);
    let contract = |u: usize| {
        let family = if run.scenarios[u].vision {
            "vision"
        } else {
            "sequence"
        };
        ScoreContract::new(family, run.proxy.train.exec.reduce_width as u32)
    };
    let mut lookup_us = Vec::new();
    if let Ok(store) = &opened {
        for (u, graphs) in run.graphs.iter().enumerate() {
            for g in graphs {
                let hash = g.content_hash();
                let (_, us) = timed("store.lookup", u, || {
                    store.score_for_contract(hash, &contract(u))
                });
                lookup_us.push(us);
            }
        }
    }
    drop(opened);

    let scratch = work.join("replay-append");
    let _ = std::fs::remove_dir_all(&scratch);
    let mut append_us = Vec::new();
    if let Ok(target) = StoreBuilder::new(&scratch).open() {
        for (u, graphs) in run.graphs.iter().enumerate() {
            for g in graphs {
                let hash = g.content_hash();
                let (r, us) = timed("store.append", u, || target.put_candidate(hash, g));
                append_us.push(us);
                let (s, us2) = timed("store.append", u, || {
                    target.put_score(hash, 0.5, &contract(u))
                });
                append_us.push(us2);
                if r.is_err() || s.is_err() {
                    eprintln!("perfbench: replay append failed");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    m.put("store.open_ms", open_s * 1e3, "ms");
    m.put(
        "store.replay_records_per_s",
        ratio(records as f64, open_s),
        "1/s",
    );
    m.put("store.append_us_p50", percentile(&append_us, 0.5), "us");
    m.put("store.append_us_p90", percentile(&append_us, 0.9), "us");
    m.put("store.lookup_us_p50", percentile(&lookup_us, 0.5), "us");
    m.put("store.journal_bytes", bytes as f64, "bytes");
    m.put("store.cache_hit_ratio", run.cache_hit_ratio, "ratio");
}

fn serve_layer(run: &Run, serve_bin: &Path, work: &Path, m: &mut Metrics) {
    // The search workloads drive no daemon; replay a few of their own
    // scenarios through one so the layer is measured on every workload.
    let replayed;
    let trace = match &run.serve {
        Some(t) => t,
        None => {
            let rounds = SERVE_REPLAY_ROUNDS.min(run.scenarios.len() / 2);
            let steps = run.proxy.train.steps as u32;
            let batch = run.proxy.train.batch as u32;
            let mut requests: [Vec<_>; 2] = [Vec::new(), Vec::new()];
            for (i, scenario) in run.scenarios.iter().take(2 * rounds).enumerate() {
                requests[i % 2].push(draw::request(
                    scenario,
                    draw::SEARCH_ITERATIONS as u32,
                    steps,
                    batch,
                ));
            }
            let dir = work.join("replay-serve");
            let sp = serve::serve_pass(serve_bin, &requests, &dir, true, true);
            let _ = std::fs::remove_dir_all(&dir);
            replayed = crate::ServeTrace {
                readings: sp.readings,
                metrics_dump: sp.metrics_dump,
            };
            &replayed
        }
    };
    let accept: Vec<f64> = trace.readings.iter().map(|r| r.accept_s * 1e3).collect();
    let first: Vec<f64> = trace
        .readings
        .iter()
        .map(|r| r.first_event_s * 1e3)
        .collect();
    let frames: u64 = trace.readings.iter().map(|r| r.frames).sum();
    let mut codec_us = Vec::new();
    for (u, r) in trace.readings.iter().enumerate() {
        for frame in &r.received {
            let mut s = span("serve.frame_codec", u);
            let started = Instant::now();
            let bytes = frame.encode();
            if !matches!(Frame::decode(frame.kind(), &bytes), Ok(ref back) if back == frame) {
                s.fail();
            }
            codec_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let dump = &trace.metrics_dump;
    let trainings = serve::counter(dump, "syno_search_proxy_train_total");
    let candidates = serve::counter(dump, "syno_search_candidates_total");
    let followers = serve::counter(dump, "syno_search_coalesce_followers_total");
    let leaders = serve::counter(dump, "syno_search_coalesce_leaders_total");
    m.put("serve.accept_ms_p50", percentile(&accept, 0.5), "ms");
    m.put("serve.accept_ms_p90", percentile(&accept, 0.9), "ms");
    m.put("serve.first_event_ms_p50", percentile(&first, 0.5), "ms");
    m.put(
        "serve.frames_per_session",
        ratio(frames as f64, trace.readings.len() as f64),
        "count",
    );
    m.put("serve.frame_codec_us_p50", percentile(&codec_us, 0.5), "us");
    m.put(
        "serve.trainings_per_candidate",
        ratio(trainings, candidates),
        "ratio",
    );
    m.put(
        "serve.coalesce_follower_ratio",
        ratio(followers, followers + leaders),
        "ratio",
    );
}

/// Replays every layer on the traced run's inputs.
pub fn replay(run: &Run, serve_bin: &Path, work: &Path) -> Metrics {
    let mut m = Metrics::default();
    core(run, &mut m);
    search(run, &mut m);
    nn(run, &mut m);
    ir_and_compiler(run, &mut m);
    store(run, work, &mut m);
    serve_layer(run, serve_bin, work, &mut m);
    m
}

/// Layers reported with calls, self time and failures.
pub const LAYERS: [&str; 7] = ["core", "search", "nn", "ir", "compiler", "store", "serve"];

/// Calls, self time and failures per layer, from the recorded spans.
pub fn span_report(recorded: &[SpanRecord]) -> Metrics {
    let totals = spans::layer_totals(recorded);
    let mut m = Metrics::default();
    for layer in LAYERS {
        let t = totals.get(layer).copied().unwrap_or_default();
        m.put(format!("{layer}.calls"), t.calls as f64, "count");
        m.put(format!("{layer}.self_ms"), t.self_ns as f64 / 1e6, "ms");
        m.put(format!("{layer}.failures"), t.failures as f64, "count");
    }
    m
}
