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
//! The explorer walks that tree depth-first from a LIFO stack of
//! **branches**. A branch is a trail — a forced prefix of choice indices
//! whose last entry is an untaken alternative — plus the point it resumes
//! from: an `Rc`-shared `(Model, Oracle)` snapshot of the instant
//! boundary just before the instant that makes the trail's last decision,
//! and the `(arity, choice)` record of the decisions made before that
//! boundary. A run clones the snapshot, follows the trail through that
//! instant and defaults to choice 0 past it, recording every decision.
//! After each run, the untaken alternatives at every decision *at or past
//! the trail's end* are pushed as new branches (alternatives before the
//! trail's end were already scheduled when a shorter prefix of this path
//! first ran), each resuming from the snapshot of the boundary before its
//! decision's instant. The root run starts from the time-0 model, which
//! is built once per scenario (so `make` runs once per node).
//!
//! A run takes a snapshot at every fresh boundary it announces before
//! the horizon; the ones no branch refers to are dropped when the run
//! ends, so the live snapshots are bounded by the DFS stack. A run never re-executes the
//! prefix it resumes from: its model and oracle are exactly what the run
//! that pushed it had at that boundary, because the model is
//! deterministic given the decisions and the oracle's floors depend only
//! on the states it checked. A violation is exported by replaying its
//! full choice list from the time-0 model ([`trace_of_trail`]'s path).
//! Debug builds replay every resumed branch's trail from the time-0 model
//! and assert that it reaches the snapshot's boundary in a state with the
//! snapshot's key.
//!
//! # Seen-state pruning
//!
//! At each instant boundary the model's canonical encoding
//! ([`Model::encode`]) is keyed in one word-wise pass by two
//! independently seeded 64×64→128-bit multiply-fold lanes (wyhash's
//! `mum`) and inserted into a seen set. A run stops early at a
//! previously-seen state — different delay paths frequently converge
//! (e.g. once every in-flight message is delivered and the queue shape
//! matches). Pruning at a seen state is sound because the encoding
//! captures the complete dynamic state (nodes, timers, peers, edges,
//! cursors, pending queue): identical encodings have identical futures
//! given identical remaining decisions, and those futures were enumerated
//! from the first visit.
//!
//! A resumed run skips the one callback that re-announces its snapshot's
//! boundary: that state was checked, keyed and found fresh by the run
//! that took the snapshot. Every later boundary of the run lies past the
//! trail's last decision (`decisions ≥ forced.len()`), so a run prunes
//! only once it has taken its alternative: a replayed prefix state is
//! never looked up, let alone cut short by its own earlier visit.
//!
//! Every announced instant is also fed to the [`Oracle`]; the first
//! violation aborts the search and is packaged as an ITF trace.

use crate::itf::Trace;
use crate::model::{DelayDecider, Model, ModelNode, Scenario};
use crate::oracle::Oracle;
use gcs_clocks::Time;
use std::collections::HashSet;
use std::rc::Rc;

/// Result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario's name.
    pub scenario: String,
    /// Runs executed: the root run plus one per branch resumed from the
    /// stack (each a path suffix from its snapshot to a seen state or
    /// the horizon).
    pub runs: usize,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Maximum number of decisions in any single run.
    pub max_depth: usize,
    /// The first invariant violation, if any, with its replayable trace.
    pub violation: Option<(Trace, String)>,
}

/// A state's seen-set key: one 64-bit digest per lane.
type Key = (u64, u64);

/// wyhash's secret words: lane A is seeded with the first and multiplies
/// by the second, lane B the same with the third and fourth.
const WYP: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// wyhash's multiply-fold: the 128-bit product, high half xor low half.
fn mum(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

/// The 128-bit key of `words`: two independently seeded lanes, one
/// multiply-fold per word each, with the length folded into each lane's
/// finaliser.
fn key_of(words: &[u64]) -> Key {
    let (mut a, mut b) = (WYP[0], WYP[2]);
    for &w in words {
        a = mum(a ^ w, WYP[1]);
        b = mum(b ^ w, WYP[3]);
    }
    let len = words.len() as u64;
    (mum(a ^ len, WYP[0]), mum(b ^ len, WYP[2]))
}

/// The seen-set key of `m`'s canonical encoding (`scratch` is reused and
/// holds the encoding afterwards).
fn state_key<N: ModelNode>(m: &Model<N>, scratch: &mut Vec<u64>) -> Key {
    scratch.clear();
    m.encode(scratch);
    key_of(scratch)
}

/// A resumable instant boundary: the model and oracle exactly as a run
/// left them after announcing it.
type Snapshot<N> = Rc<(Model<N>, Oracle)>;

/// One pending subtree of the search.
struct Branch<N: ModelNode> {
    /// The boundary just before the instant of `forced`'s last decision
    /// (the time-0 model for decisions of the root run's first instant).
    from: Snapshot<N>,
    /// `(arity, choice)` of every decision made before `from`.
    record: Vec<(usize, usize)>,
    /// The choice prefix to follow; its last entry is the untaken
    /// alternative this branch explores.
    forced: Vec<usize>,
}

/// Exhaustively explores `sc`, building the time-0 nodes with `make`.
///
/// `make` runs once per node. The root run starts from the time-0 model;
/// every other run resumes from the snapshot its branch carries, so a
/// shared prefix is stepped, checked and keyed once, by the run that
/// first reached it (see the module docs).
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
    search(sc, make, max_runs, |_, _| {})
}

/// [`explore`], calling `visit` with the encoding and key of every state
/// the search keys, in order.
fn search<N: ModelNode>(
    sc: &Scenario,
    make: impl FnMut(usize) -> N,
    max_runs: usize,
    mut visit: impl FnMut(&[u64], Key),
) -> Report {
    sc.validate();
    let mut seen: HashSet<Key> = HashSet::new();
    let mut report = Report {
        scenario: sc.name.clone(),
        runs: 0,
        states: 0,
        max_depth: 0,
        violation: None,
    };
    let root: Snapshot<N> = Rc::new((Model::new(sc, make), Oracle::new(sc.algo.n)));
    let mut stack = vec![Branch {
        from: Rc::clone(&root),
        record: Vec::new(),
        forced: Vec::new(),
    }];
    let horizon = Time::new(sc.horizon);
    let mut scratch = Vec::new();
    while let Some(Branch {
        from,
        record,
        forced,
    }) = stack.pop()
    {
        report.runs += 1;
        assert!(
            report.runs <= max_runs,
            "scenario {} exceeded {} runs — shrink its horizon or choices",
            sc.name,
            max_runs
        );
        #[cfg(debug_assertions)]
        check_resume_point(sc, &root, &from, &record, &forced);
        let forced_len = forced.len();
        // Only the time-0 model was never announced by a callback.
        let mut skip = !Rc::ptr_eq(&from, &root);
        let (mut model, mut oracle) = (*from).clone();
        // Fresh boundaries of this run, each with the number of decisions
        // made before it; decision `j` resumes from the last one at or
        // before `j`.
        let mut boundaries = vec![(record.len(), from)];
        let mut decider = DelayDecider::Trail { forced, record };
        model.run(sc.horizon, &mut decider, |m, decisions| {
            if std::mem::take(&mut skip) {
                return true;
            }
            debug_assert!(decisions >= forced_len, "keyed a boundary inside the trail");
            if !oracle.check(m) {
                return false;
            }
            let key = state_key(m, &mut scratch);
            visit(&scratch, key);
            if !seen.insert(key) {
                return false;
            }
            // The final boundary is followed by no decision to resume at.
            if m.next_instant().is_none_or(|t| t > horizon) {
                return true;
            }
            let snapshot = Rc::new((m.clone(), oracle.clone()));
            match boundaries.last_mut() {
                // No decision since the last boundary: it holds none.
                Some(last) if last.0 == decisions => *last = (decisions, snapshot),
                _ => boundaries.push((decisions, snapshot)),
            }
            true
        });
        let DelayDecider::Trail { forced, record } = decider else {
            unreachable!("explore uses trail deciders");
        };
        report.max_depth = report.max_depth.max(record.len());
        if let Some(v) = oracle.violation() {
            // Re-run the violating path from time 0, collecting the clock
            // readings for the exported trace (keeps them off the hot loop).
            let choices: Vec<usize> = record.iter().map(|&(_, c)| c).collect();
            let (trace, _) = trace_from(sc, root.0.clone(), choices);
            report.violation = Some((trace, v.to_string()));
            return report;
        }
        // Schedule the untaken siblings of every free decision.
        let mut b = 0;
        for (j, &(arity, chosen)) in record.iter().enumerate().skip(forced.len()) {
            debug_assert_eq!(chosen, 0, "free decisions default to choice 0");
            while b + 1 < boundaries.len() && boundaries[b + 1].0 <= j {
                b += 1;
            }
            let (before, ref from) = boundaries[b];
            for alt in 1..arity {
                let mut trail = Vec::with_capacity(j + 1);
                trail.extend(record[..j].iter().map(|&(_, c)| c));
                trail.push(alt);
                stack.push(Branch {
                    from: Rc::clone(from),
                    record: record[..before].to_vec(),
                    forced: trail,
                });
            }
        }
        report.states = seen.len();
    }
    report.states = seen.len();
    report
}

/// Debug cross-check of a resume point: replaying the branch's trail from
/// the time-0 model reaches the snapshot's boundary after exactly
/// `record.len()` decisions, in a state with the snapshot's key, and the
/// record is a strict prefix of the trail.
#[cfg(debug_assertions)]
fn check_resume_point<N: ModelNode>(
    sc: &Scenario,
    root: &Snapshot<N>,
    from: &Snapshot<N>,
    record: &[(usize, usize)],
    forced: &[usize],
) {
    if Rc::ptr_eq(from, root) {
        debug_assert!(record.is_empty(), "the time-0 model follows no decision");
        return;
    }
    let mut scratch = Vec::new();
    let at = from.0.now();
    let mut model = root.0.clone();
    let mut decider = DelayDecider::trail(forced.to_vec());
    let mut reached = None;
    model.run(sc.horizon, &mut decider, |m, decisions| {
        if m.now() < at {
            return true;
        }
        reached = Some((m.now(), decisions, state_key(m, &mut scratch)));
        false
    });
    debug_assert_eq!(
        reached,
        Some((at, record.len(), state_key(&from.0, &mut scratch))),
        "a resumed snapshot differs from replaying its prefix"
    );
    debug_assert!(
        record.len() < forced.len() && record.iter().zip(forced).all(|(r, &c)| r.1 == c),
        "a branch's record must be a strict prefix of its trail"
    );
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

    /// Keys partition states exactly as their canonical encodings do:
    /// equal keys iff equal encodings (no collision, no split), over
    /// every state the search keys on the n = 2 suite and `n3-churn`.
    #[test]
    fn keys_partition_states_exactly_as_encodings_do() {
        use std::collections::HashMap;
        let churn = suite(3)
            .into_iter()
            .find(|sc| sc.name == "n3-churn")
            .expect("the n=3 suite has a churn scenario");
        let mut key_of_encoding: HashMap<Vec<u64>, Key> = HashMap::new();
        let mut encoding_of_key: HashMap<Key, Vec<u64>> = HashMap::new();
        for sc in suite(2).iter().chain([&churn]) {
            let mut distinct = HashSet::new();
            let report = search(
                sc,
                |_| GradientNode::new(sc.algo),
                1_000_000,
                |words, key| {
                    let first = key_of_encoding.entry(words.to_vec()).or_insert(key);
                    assert_eq!(*first, key, "{}: one encoding, two keys", sc.name);
                    let first = encoding_of_key.entry(key).or_insert_with(|| words.to_vec());
                    assert_eq!(first, words, "{}: one key, two encodings", sc.name);
                    distinct.insert(words.to_vec());
                },
            );
            assert!(report.violation.is_none(), "{}", sc.name);
            assert_eq!(report.states, distinct.len(), "{}", sc.name);
        }
        assert_eq!(key_of_encoding.len(), encoding_of_key.len());
        // Each 64-bit lane alone separates these states too.
        let lane_a: HashSet<u64> = encoding_of_key.keys().map(|k| k.0).collect();
        let lane_b: HashSet<u64> = encoding_of_key.keys().map(|k| k.1).collect();
        assert_eq!(lane_a.len(), encoding_of_key.len(), "lane A collides");
        assert_eq!(lane_b.len(), encoding_of_key.len(), "lane B collides");
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
