//! Seeded workload inputs. Everything the program receives is drawn here
//! from the `--seed` argument; the same seed gives the same scenarios,
//! MCTS seeds and request sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use syno_core::codec::encode_spec;
use syno_core::size::Size;
use syno_core::spec::{OperatorSpec, TensorShape};
use syno_core::var::{VarKind, VarTable};
use syno_nn::{ProxyConfig, TrainConfig};
use syno_serve::SearchRequest;

/// MCTS iterations of one search in the search workloads. Sized so that
/// 70 runs of all three workloads fit in under an hour on two cores.
pub const SEARCH_ITERATIONS: usize = 100;
/// Proxy training steps and batch of the search workloads (the bench
/// proxy of `crates/bench`).
pub const SEARCH_TRAIN_STEPS: usize = 6;
pub const SEARCH_TRAIN_BATCH: usize = 4;

/// Serve requests are training-heavy: fewer iterations, more steps.
pub const SERVE_ITERATIONS: u32 = 30;
pub const SERVE_TRAIN_STEPS: u32 = 60;
pub const SERVE_TRAIN_BATCH: u32 = 4;
/// One in this many of the second tenant's rounds duplicates the first
/// tenant's request of the same round (in flight together: coalescing).
pub const SERVE_DUPLICATE_EVERY: usize = 4;
/// One in this many of each tenant's rounds repeats one of its own earlier
/// fresh requests (finished earlier: store recall).
pub const SERVE_REPEAT_EVERY: usize = 5;

/// One search input: a labelled operator spec plus its MCTS seed.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub label: String,
    pub vars: Arc<VarTable>,
    pub spec: OperatorSpec,
    pub vision: bool,
    pub mcts_seed: u64,
}

/// Vision valuations `(N, Cin, Cout, H = W)`; the coefficient `k` is 3.
const VISION_VALUATIONS: [[u64; 4]; 16] = {
    let mut out = [[0; 4]; 16];
    let mut i = 0;
    while i < 16 {
        out[i] = [
            [2, 4][i & 1],
            [3, 4][(i >> 1) & 1],
            [4, 8][(i >> 2) & 1],
            [6, 8][(i >> 3) & 1],
        ];
        i += 1;
    }
    out
};
/// Sequence valuations `(B, T, C)`; the coefficient `k` is 2.
const SEQUENCE_VALUATIONS: [[u64; 3]; 8] = [
    [2, 4, 8],
    [4, 4, 8],
    [2, 8, 8],
    [4, 8, 8],
    [2, 4, 16],
    [4, 4, 16],
    [2, 8, 16],
    [4, 8, 16],
];

/// `count` indices into a list of `len` options, dealt from shuffled
/// decks that each hold every option once, so every seed draws each
/// valuation about equally often and seeds differ in order and MCTS seeds.
fn deal(rng: &mut StdRng, len: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut deck: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            deck.swap(i, rng.random_range(0..=i));
        }
        out.extend(deck.into_iter().take(count - out.len()));
    }
    out
}

/// `[N, Cin, H, W] → [N, Cout, H, W]`.
fn vision([n_v, cin_v, cout_v, side]: [u64; 4]) -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let n = vars.declare("N", VarKind::Primary);
    let cin = vars.declare("Cin", VarKind::Primary);
    let cout = vars.declare("Cout", VarKind::Primary);
    let h = vars.declare("H", VarKind::Primary);
    let w = vars.declare("W", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![
        (n, n_v),
        (cin, cin_v),
        (cout, cout_v),
        (h, side),
        (w, side),
        (k, 3),
    ]);
    let shape = |c| TensorShape::new(vec![Size::var(n), Size::var(c), Size::var(h), Size::var(w)]);
    let spec = OperatorSpec::new(shape(cin), shape(cout));
    (vars.into_shared(), spec)
}

/// `[B, T, C] → [B, T, C]`.
fn sequence([b_v, t_v, c_v]: [u64; 3]) -> (Arc<VarTable>, OperatorSpec) {
    let mut vars = VarTable::new();
    let b = vars.declare("B", VarKind::Primary);
    let t = vars.declare("T", VarKind::Primary);
    let c = vars.declare("C", VarKind::Primary);
    let k = vars.declare("k", VarKind::Coefficient);
    vars.push_valuation(vec![(b, b_v), (t, t_v), (c, c_v), (k, 2)]);
    let shape = TensorShape::new(vec![Size::var(b), Size::var(t), Size::var(c)]);
    let spec = OperatorSpec::new(shape.clone(), shape);
    (vars.into_shared(), spec)
}

/// `units` scenarios alternating vision and sequence, so every seed has
/// the same family mix.
pub fn scenarios(seed: u64, units: usize) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vision_deal = deal(&mut rng, VISION_VALUATIONS.len(), units.div_ceil(2));
    let sequence_deal = deal(&mut rng, SEQUENCE_VALUATIONS.len(), units / 2);
    (0..units)
        .map(|i| {
            let is_vision = i % 2 == 0;
            let (vars, spec) = if is_vision {
                vision(VISION_VALUATIONS[vision_deal[i / 2]])
            } else {
                sequence(SEQUENCE_VALUATIONS[sequence_deal[i / 2]])
            };
            Scenario {
                label: format!("unit-{i}"),
                vars,
                spec,
                vision: is_vision,
                mcts_seed: rng.random_range(0..1_000_000u64),
            }
        })
        .collect()
}

/// The proxy configuration of the search workloads.
pub fn search_proxy() -> ProxyConfig {
    ProxyConfig {
        train: TrainConfig {
            steps: SEARCH_TRAIN_STEPS,
            batch: SEARCH_TRAIN_BATCH,
            eval_batches: 1,
            ..TrainConfig::default()
        },
        ..ProxyConfig::default()
    }
}

/// The proxy configuration a daemon session runs under for `request`
/// (the daemon default with the request's overrides, as the daemon's
/// admission applies them).
pub fn request_proxy(request: &SearchRequest) -> ProxyConfig {
    let mut proxy = syno_serve::ServeConfig::default().proxy;
    if request.train_steps > 0 {
        proxy.train.steps = request.train_steps as usize;
    }
    if request.train_batch > 0 {
        proxy.train.batch = request.train_batch as usize;
    }
    if request.eval_batches > 0 {
        proxy.train.eval_batches = request.eval_batches as usize;
    }
    proxy
}

/// Turns a scenario into a daemon request with the given training size.
pub fn request(
    scenario: &Scenario,
    iterations: u32,
    train_steps: u32,
    train_batch: u32,
) -> SearchRequest {
    SearchRequest {
        label: scenario.label.clone(),
        spec: encode_spec(&scenario.vars, &scenario.spec),
        family: String::new(),
        iterations,
        seed: scenario.mcts_seed,
        progress_every: 0,
        max_steps: 0,
        train_steps,
        train_batch,
        eval_batches: 1,
        resume: false,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Fresh,
    Repeat,
    Duplicate,
}

/// Round roles of one tenant: exactly `repeats` repeats and `duplicates`
/// duplicates at seeded positions; round 0 is always fresh, so a repeat
/// always has an earlier fresh request to repeat.
fn roles(rng: &mut StdRng, rounds: usize, repeats: usize, duplicates: usize) -> Vec<Role> {
    let mut tail = vec![Role::Fresh; rounds.saturating_sub(1)];
    for (i, slot) in tail.iter_mut().enumerate() {
        if i < repeats {
            *slot = Role::Repeat;
        } else if i < repeats + duplicates {
            *slot = Role::Duplicate;
        }
    }
    for i in (1..tail.len()).rev() {
        tail.swap(i, rng.random_range(0..=i));
    }
    let mut out = vec![Role::Fresh];
    out.extend(tail);
    out.truncate(rounds);
    out
}

/// The two tenants' request sequences, one request per round each.
/// Tenant A searches vision specs and tenant B sequence specs, except that
/// B duplicates A's same-round request in one round in
/// [`SERVE_DUPLICATE_EVERY`]. Each tenant repeats one of its own earlier
/// fresh requests in one round in [`SERVE_REPEAT_EVERY`]. The counts are
/// exact and only their positions are drawn, so every seed offers the
/// daemon the same amount of reuse. Two sessions in flight together
/// either are identical or search different spec families, so which of
/// them trains a shared candidate first never decides a result.
pub fn tenant_requests(seed: u64, rounds: usize) -> [Vec<SearchRequest>; 2] {
    let mut rng = StdRng::seed_from_u64(seed);
    let repeats = rounds / SERVE_REPEAT_EVERY;
    let role_lists = [
        roles(&mut rng, rounds, repeats, 0),
        roles(&mut rng, rounds, repeats, rounds / SERVE_DUPLICATE_EVERY),
    ];
    let mut tenants: [Vec<SearchRequest>; 2] = [Vec::new(), Vec::new()];
    let mut own_fresh: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for round in 0..rounds {
        for t in 0..2 {
            let next = match role_lists[t][round] {
                Role::Duplicate => tenants[0][round].clone(),
                Role::Repeat => {
                    let earlier = own_fresh[t][rng.random_range(0..own_fresh[t].len())];
                    tenants[t][earlier].clone()
                }
                Role::Fresh => {
                    // Fresh requests cycle through the valuations in a
                    // fixed order; the seed draws their MCTS seeds.
                    let (vars, spec) = if t == 0 {
                        vision(VISION_VALUATIONS[round % VISION_VALUATIONS.len()])
                    } else {
                        sequence(SEQUENCE_VALUATIONS[round % SEQUENCE_VALUATIONS.len()])
                    };
                    own_fresh[t].push(round);
                    let scenario = Scenario {
                        label: format!("tenant{t}-round{round}"),
                        vars,
                        spec,
                        vision: t == 0,
                        mcts_seed: rng.random_range(0..1_000_000u64),
                    };
                    request(
                        &scenario,
                        SERVE_ITERATIONS,
                        SERVE_TRAIN_STEPS,
                        SERVE_TRAIN_BATCH,
                    )
                }
            };
            tenants[t].push(next);
        }
    }
    tenants
}
