//! The engine's view of the dynamic graph: `Simulator::edges`,
//! `neighbors` and `has_edge` are served from the canonical edge store,
//! so they are checked here against the schedule that drove the run, at
//! every instant the engine processes, inline and with every topology
//! batch applied per shard on the worker pool. A `TopologySource` that
//! breaks its contract must fail the run, not corrupt the store.

use gcs_clocks::Time;
use gcs_net::schedule::{TopologyEvent, TopologyEventKind};
use gcs_net::{node, Edge, NodeId, ScheduleSource, TopologySchedule, TopologySource};
use gcs_sim::{Automaton, Context, LinkChange, Message, ModelParams, SimBuilder, TimerKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Empty handlers: the run is topology and discovery only.
struct Inert;

impl Automaton for Inert {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}

    fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}

    fn on_alarm(&mut self, _ctx: &mut Context<'_>, _kind: TimerKind) {}

    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
}

fn params() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

const N: usize = 6;

/// Strategy: a random valid schedule over `N` nodes whose toggles land on
/// a half-second grid, so several changes often share one instant (a
/// topology batch wider than one event). A toggle of an edge already
/// changed at the same instant is dropped, as the schedule forbids it.
fn arb_schedule() -> impl Strategy<Value = TopologySchedule> {
    let potential: Vec<Edge> = (0..N)
        .flat_map(|i| (i + 1..N).map(move |j| Edge::between(i, j)))
        .collect();
    let m = potential.len();
    (
        prop::collection::vec(any::<bool>(), m),
        prop::collection::vec((0usize..m, 0usize..3), 0..60),
    )
        .prop_map(move |(initial_mask, toggles)| {
            let initial: Vec<Edge> = potential
                .iter()
                .zip(&initial_mask)
                .filter(|(_, &up)| up)
                .map(|(&e, _)| e)
                .collect();
            let mut present: BTreeSet<Edge> = initial.iter().copied().collect();
            let mut t = 0.5;
            let mut this_instant = BTreeSet::new();
            let mut events = Vec::new();
            for (idx, steps) in toggles {
                if steps > 0 {
                    t += 0.5 * steps as f64;
                    this_instant.clear();
                }
                let e = potential[idx];
                if !this_instant.insert(e) {
                    continue;
                }
                let kind = if present.remove(&e) {
                    TopologyEventKind::Remove
                } else {
                    present.insert(e);
                    TopologyEventKind::Add
                };
                events.push(TopologyEvent {
                    time: Time::new(t),
                    kind,
                    edge: e,
                });
            }
            TopologySchedule::new(N, initial, events)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every processed instant, at one and three worker shards with
    /// every batch handed to the pool: `edges()` is the schedule's edge
    /// set, in ascending order; `neighbors(u)` is ascending, symmetric
    /// and agrees with `has_edge` on every node pair.
    #[test]
    fn engine_graph_view_matches_schedule(sched in arb_schedule()) {
        let horizon = sched.events().last().map_or(1.0, |ev| ev.time.seconds()) + 3.0;
        for threads in [1, 3] {
            let mut sim = SimBuilder::topology(params(), ScheduleSource::new(sched.clone()))
                .threads(threads)
                .par_threshold(1)
                .build_with(|_| Inert);
            let mut instants = 0usize;
            sim.run_until_with(Time::new(horizon), |sim, t, _| {
                instants += 1;
                let edges: Vec<Edge> = sim.edges().collect();
                let expected: Vec<Edge> = sched.edges_at(t).into_iter().collect();
                assert_eq!(edges, expected, "threads {threads}, {t:?}");
                for u in 0..N {
                    let nbrs: Vec<NodeId> = sim.neighbors(node(u)).collect();
                    assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "neighbors({u}) unsorted");
                    for v in (0..N).filter(|&v| v != u) {
                        let e = Edge::between(u, v);
                        let listed = nbrs.contains(&node(v));
                        let mirrored = sim.neighbors(node(v)).any(|w| w == node(u));
                        assert!(
                            listed == sim.has_edge(e) && listed == mirrored,
                            "threads {threads}, {t:?}: {e:?} listed {listed}, mirrored {mirrored}"
                        );
                    }
                }
            });
            prop_assert!(instants > 0);
            if threads > 1 && !sched.events().is_empty() {
                prop_assert!(sim.pool_jobs() > 0, "batches ran on the pool");
            }
        }
    }
}

/// A hand-written source that serves whatever it is given, unvalidated.
struct Malformed {
    n: usize,
    initial: Vec<Edge>,
    events: Vec<TopologyEvent>,
}

impl TopologySource for Malformed {
    fn n(&self) -> usize {
        self.n
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        std::mem::take(&mut self.initial)
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.events.first().map(|ev| ev.time)
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        let due = self.events.iter().take_while(|ev| ev.time <= until).count();
        buf.extend(self.events.drain(..due));
    }
}

fn run_malformed(n: usize, initial: Vec<Edge>, events: Vec<(f64, TopologyEventKind, Edge)>) {
    let events = events
        .into_iter()
        .map(|(t, kind, edge)| TopologyEvent {
            time: Time::new(t),
            kind,
            edge,
        })
        .collect();
    let mut sim =
        SimBuilder::topology(params(), Malformed { n, initial, events }).build_with(|_| Inert);
    sim.run_until(Time::new(10.0));
}

#[test]
#[should_panic(expected = "already present at")]
fn adding_a_present_edge_fails_closed() {
    let e = Edge::between(0, 1);
    run_malformed(3, vec![e], vec![(1.0, TopologyEventKind::Add, e)]);
}

#[test]
#[should_panic(expected = "not present at")]
fn removing_an_absent_edge_fails_closed() {
    let e = Edge::between(1, 2);
    run_malformed(3, vec![], vec![(1.0, TopologyEventKind::Remove, e)]);
}

#[test]
#[should_panic(expected = "out of range for n=3")]
fn an_endpoint_out_of_range_fails_closed() {
    let e = Edge::between(1, 3);
    run_malformed(3, vec![], vec![(1.0, TopologyEventKind::Add, e)]);
}

#[test]
#[should_panic(expected = "out of range for n=3")]
fn an_initial_endpoint_out_of_range_fails_closed() {
    run_malformed(3, vec![Edge::between(0, 5)], vec![]);
}
