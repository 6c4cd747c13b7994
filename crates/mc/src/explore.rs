//! Bounded exhaustive exploration: every interleaving of message-delay
//! choices, composed with the scenario's scheduled churn and faults.
//!
//! # How the state space is enumerated
//!
//! The only nondeterminism in a validated [`Scenario`] is the delay of
//! each live-edge send, drawn from the scenario's quantized
//! `delay_choices ⊆ [0, T]` (drift is fixed per scenario — the suites
//! quantize it by enumerating *rate vectors* as separate scenarios, per
//! the `[1−ρ, 1+ρ]` bound; churn and crash/restart are scheduled, so
//! their interleaving with protocol events is fully determined by the
//! engine's `(time, class, seq)` order once delays are fixed). A run is
//! therefore a path in a decision tree whose branching factor is
//! `delay_choices.len()`.
//!
//! The explorer walks that tree by **trail re-execution**: a trail is a
//! forced prefix of choice indices; the model runs from the initial state
//! following the trail and defaulting to choice 0 past it, recording
//! every decision. After each run, the untaken alternatives at every
//! decision *at or past the trail's end* are pushed as new trails
//! (alternatives before the trail's end were already scheduled when a
//! shorter prefix of this path first ran). Re-execution trades CPU for
//! memory: no model states are kept, only trails and the time-0 model,
//! which is built once per scenario (so `make` runs once per node) and
//! cloned at the start of every run.
//!
//! # Seen-state pruning
//!
//! After each instant the model's canonical encoding ([`Model::encode`])
//! is hashed in one pass by two independent 64-bit FNV-1a lanes and
//! inserted into a seen set. A run may stop early at a previously-seen
//! state — different delay paths frequently converge (e.g. once every
//! in-flight message is delivered and the queue shape matches) — but
//! **only once it has made at least one free decision**
//! (`decisions ≥ forced.len()`): up to that point the run is merely
//! replaying a prefix whose alternatives still need scheduling from
//! *this* trail's extensions. Pruning at a seen state is sound because
//! the encoding captures the complete dynamic state (nodes, timers,
//! peers, edges, cursors, pending queue): identical encodings have
//! identical futures given identical remaining decisions, and those
//! futures were enumerated from the first visit.
//!
//! A replayed prefix is stepped and checked again but **not encoded or
//! hashed again**. The run that pushed this trail made decision
//! `forced.len() − 1` after every instant boundary of the prefix, so it
//! did not stop at any of them; each such state was therefore already
//! inserted, by that run or (inside its own forced prefix) by one of its
//! ancestors, down to the root run, whose prefix is empty. Debug builds
//! recompute the key on the prefix and assert that it is in the seen set.
//!
//! Every instant of every run is also fed to the [`Oracle`]; the first
//! violation aborts the search and is packaged as an ITF trace.

use crate::itf::Trace;
use crate::model::{DelayDecider, Model, ModelNode, Scenario};
use crate::oracle::Oracle;
use std::collections::HashSet;

/// Result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario's name.
    pub scenario: String,
    /// Complete runs (trails) executed.
    pub runs: usize,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Maximum number of decisions in any single run.
    pub max_depth: usize,
    /// The first invariant violation, if any, with its replayable trace.
    pub violation: Option<(Trace, String)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-stream basis: FNV-1a over a different offset keeps the two
/// 64-bit digests independent enough for a 128-bit effective key.
const FNV_OFFSET_ALT: u64 = 0x6c62_272e_07bb_0142;

/// Both FNV-1a lanes over the little-endian bytes of `words`, in one
/// pass: each lane's key is bit-identical to a separate FNV-1a pass from
/// its basis, but the two multiply chains overlap.
fn fnv1a_pair(words: &[u64]) -> (u64, u64) {
    let (mut a, mut b) = (FNV_OFFSET, FNV_OFFSET_ALT);
    for &w in words {
        for byte in w.to_le_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    (a, b)
}

/// The seen-set key of `m`'s canonical encoding (`scratch` is reused).
fn state_key<N: ModelNode>(m: &Model<N>, scratch: &mut Vec<u64>) -> (u64, u64) {
    scratch.clear();
    m.encode(scratch);
    fnv1a_pair(scratch)
}

/// Exhaustively explores `sc`, building the time-0 nodes with `make`.
///
/// `make` runs once per node: every run starts from a clone of the one
/// time-0 model. A run replays its trail's prefix, stepping the model and
/// checking every instant with the [`Oracle`], but hashes only the states
/// past the prefix (see the module docs).
///
/// `max_runs` is a safety valve against mis-sized scenarios: the search
/// panics once it would execute more than `max_runs` runs, rather than
/// burning CI minutes silently (a correctly-sized suite stays well under
/// it).
pub fn explore<N: ModelNode>(
    sc: &Scenario,
    make: impl FnMut(usize) -> N,
    max_runs: usize,
) -> Report {
    sc.validate();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut report = Report {
        scenario: sc.name.clone(),
        runs: 0,
        states: 0,
        max_depth: 0,
        violation: None,
    };
    let root = Model::new(sc, make);
    let mut scratch = Vec::new();
    while let Some(forced) = stack.pop() {
        report.runs += 1;
        assert!(
            report.runs <= max_runs,
            "scenario {} exceeded {} runs — shrink its horizon or choices",
            sc.name,
            max_runs
        );
        let forced_len = forced.len();
        let mut model = root.clone();
        let mut decider = DelayDecider::trail(forced);
        let mut oracle = Oracle::new(sc.algo.n);
        model.run(sc.horizon, &mut decider, |m, decisions| {
            if !oracle.check(m) {
                return false;
            }
            // A replayed prefix never prunes, and its states are already
            // in the seen set — see module docs for both arguments.
            if decisions < forced_len {
                debug_assert!(
                    seen.contains(&state_key(m, &mut scratch)),
                    "replayed prefix state was never inserted"
                );
                return true;
            }
            seen.insert(state_key(m, &mut scratch))
        });
        let DelayDecider::Trail { forced, record } = decider else {
            unreachable!("explore uses trail deciders");
        };
        report.max_depth = report.max_depth.max(record.len());
        if let Some(v) = oracle.violation() {
            // Re-run the violating path once more, collecting snapshots
            // for the exported trace (keeps the hot loop snapshot-free).
            let choices: Vec<usize> = record.iter().map(|&(_, c)| c).collect();
            let (trace, _) = trace_from(sc, root.clone(), choices);
            report.violation = Some((trace, v.to_string()));
            return report;
        }
        // Schedule the untaken siblings of every free decision.
        for (j, &(arity, chosen)) in record.iter().enumerate().skip(forced.len()) {
            debug_assert_eq!(chosen, 0, "free decisions default to choice 0");
            for alt in 1..arity {
                let mut trail = Vec::with_capacity(j + 1);
                trail.extend(record[..j].iter().map(|&(_, c)| c));
                trail.push(alt);
                stack.push(trail);
            }
        }
        report.states = seen.len();
    }
    report.states = seen.len();
    report
}

/// Replays one trail to completion (no pruning) and exports its trace —
/// used to produce *healthy* traces for the replay round-trip tests.
pub fn trace_of_trail<N: ModelNode>(
    sc: &Scenario,
    make: impl FnMut(usize) -> N,
    trail: Vec<usize>,
) -> (Trace, Oracle) {
    sc.validate();
    trace_from(sc, Model::new(sc, make), trail)
}

/// Runs `model` (the time-0 state of `sc`) along `trail` and exports the
/// trace.
fn trace_from<N: ModelNode>(
    sc: &Scenario,
    mut model: Model<N>,
    trail: Vec<usize>,
) -> (Trace, Oracle) {
    let mut decider = DelayDecider::trail(trail);
    let mut oracle = Oracle::new(sc.algo.n);
    let mut states = Vec::new();
    model.run(sc.horizon, &mut decider, |m, _| {
        oracle.check(m);
        states.push(m.snapshot());
        true
    });
    let violation = oracle.violation().map(|v| v.to_string());
    (Trace::build(sc, model.sends(), states, violation), oracle)
}

/// The CI scenario suite at a given `n ∈ 2..=4`.
///
/// Each suite fixes `ρ = 0.05, T = 1, D = 2, ΔH = 0.5` and enumerates
/// rate vectors over the drift quantization `{1−ρ, 1, 1+ρ}` (the
/// boundary-and-midpoint choices an adversary controls under the paper's
/// model), crossed with churn and crash/restart variants within the
/// scenario bounds. Horizons are sized so the full `n = 3` suite
/// explores in well under the 60 s CI budget.
pub fn suite(n: usize) -> Vec<Scenario> {
    use gcs_core::AlgoParams;
    use gcs_net::{node, Edge, TopologyEvent};
    use gcs_sim::{FaultEvent, ModelParams};

    let model = ModelParams::new(0.05, 1.0, 2.0);
    let algo = AlgoParams::with_minimal_b0(model, n, 0.5);
    let lo = 1.0 - model.rho;
    let hi = 1.0 + model.rho;
    let delays = vec![0.0, model.t];

    let path: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(node(i), node(i + 1)))
        .collect();
    // Horizon per n: sized so every scenario's decision count (≈ one per
    // live-edge send) keeps 2^decisions re-executions inside the CI
    // budget, while still covering the initial discovery exchange plus at
    // least one full tick round per node.
    let horizon = match n {
        2 => 1.6,
        3 => 1.3,
        _ => 1.0,
    };
    let mut scenarios = Vec::new();
    let mut push = |name: String,
                    rates: Vec<f64>,
                    initial: Vec<Edge>,
                    topology: Vec<TopologyEvent>,
                    faults: Vec<FaultEvent>,
                    horizon: f64| {
        scenarios.push(Scenario {
            name,
            algo,
            rates,
            initial_edges: initial,
            topology,
            faults,
            delay_choices: delays.clone(),
            horizon,
        });
    };

    // Rate quantization: every vector over {1−ρ, 1, 1+ρ} at n = 2; the
    // adversarially extreme vectors (max pairwise drift plus midpoint
    // mixes) at n = 3, 4 to keep the product bounded.
    let rate_vectors: Vec<Vec<f64>> = match n {
        2 => {
            let q = [lo, 1.0, hi];
            let mut v = Vec::new();
            for &a in &q {
                for &b in &q {
                    v.push(vec![a, b]);
                }
            }
            v
        }
        3 => vec![
            vec![hi, 1.0, lo],
            vec![lo, hi, lo],
            vec![hi, lo, hi],
            vec![1.0, 1.0, 1.0],
        ],
        4 => vec![vec![hi, 1.0, 1.0, lo], vec![hi, lo, hi, lo]],
        _ => panic!("suite covers n = 2..=4"),
    };

    for (i, rates) in rate_vectors.iter().enumerate() {
        push(
            format!("n{n}-static-r{i}"),
            rates.clone(),
            path.clone(),
            Vec::new(),
            Vec::new(),
            horizon,
        );
    }

    // Churn: drop then re-add the first path edge around the first tick
    // exchanges (exercises epoch mismatch drops, stale discovery
    // versions, and re-add rediscovery).
    let churn_edge = path[0];
    push(
        format!("n{n}-churn"),
        match n {
            2 => vec![hi, lo],
            3 => vec![hi, 1.0, lo],
            _ => vec![hi, 1.0, 1.0, lo],
        },
        path.clone(),
        vec![
            TopologyEvent::remove_at(0.7, churn_edge),
            TopologyEvent::add_at(1.0, churn_edge),
        ],
        Vec::new(),
        horizon,
    );

    // Crash/restart of the fastest node mid-run (exercises timer
    // cancellation, state loss, restart rediscovery).
    push(
        format!("n{n}-crash-restart"),
        match n {
            2 => vec![hi, lo],
            3 => vec![hi, 1.0, lo],
            _ => vec![hi, 1.0, 1.0, lo],
        },
        path.clone(),
        Vec::new(),
        vec![
            FaultEvent::crash(0.6, node(0)),
            FaultEvent::restart(0.9, node(0)),
        ],
        horizon,
    );

    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::GradientNode;

    #[test]
    fn n2_static_scenario_explores_clean() {
        let suite = suite(2);
        let sc = &suite[0];
        let report = explore(sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.runs > 1, "branching must occur");
        assert!(report.states > 0);
    }

    #[test]
    fn exploration_visits_both_alternatives_of_the_first_decision() {
        let suite = suite(2);
        let sc = &suite[0];
        // With 2 delay choices the run count is at least 1 + #free
        // decisions of the root run.
        let report = explore(sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(report.max_depth >= 2);
        assert!(report.runs >= report.max_depth);
    }

    #[test]
    fn mutant_is_caught_by_exploration_too() {
        use crate::mutant::{MutantNode, Mutation};
        let sc = crate::mutant::smoke_scenario(Mutation::LmaxOverwrite);
        let report = explore(
            &sc,
            |_| MutantNode::new(sc.algo, Mutation::LmaxOverwrite),
            1_000_000,
        );
        let (_, msg) = report.violation.expect("exploration must catch the mutant");
        assert!(msg.contains("Property 6.3"), "{msg}");
    }
}
