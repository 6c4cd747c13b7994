//! Dispatcher overhead: the shard-resident worker pool against inline
//! dispatch, and batched sharded topology apply against the serial path.
//!
//! `segment_*` isolates per-segment dispatch cost: a timer-only automaton
//! whose instants are exactly one wide segment each, so one benchmark
//! iteration advances one segment and the measured time *is* the
//! per-segment cost (handler work is a few nanoseconds). The pool pays
//! two channel round-trips per segment.
//!
//! `topology_*` replays an E13-shaped instant — hundreds of link changes
//! sharing one time — through the batched sharded apply on the pool and
//! the serial apply (a parallel threshold above the burst width), measured
//! in link-changes/s.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gcs_clocks::time::at;
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::{generators, Edge, NodeId, ScheduleSource, TopologySchedule};
use gcs_sim::{
    Automaton, Context, LinkChange, Message, ModelParams, SimBuilder, Simulator, TimerKind,
};

fn model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Re-arms its timer and does nothing else: every instant is one wide
/// all-nodes alarm segment with near-zero handler work.
struct Tick;

impl Automaton for Tick {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(0.5, TimerKind::Tick);
    }

    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}

    fn on_discover(&mut self, _ctx: &mut Context<'_>, _change: LinkChange) {}

    fn on_alarm(&mut self, ctx: &mut Context<'_>, _kind: TimerKind) {
        ctx.set_timer(0.5, TimerKind::Tick);
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
}

/// No timers, empty handlers: the run is topology + discovery only.
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

fn bench_segment_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_overhead");
    // One alarm instant (= one parallel segment) per iteration.
    group.throughput(Throughput::Elements(1));
    // `segment_inline` (threads = 1, no parallel dispatch at all) is the
    // zero-overhead floor: pool overhead = pool − inline.
    for (label, threads) in [("segment_inline", 1), ("segment_pool", 4)] {
        let schedule = TopologySchedule::static_graph(32, generators::ring(32));
        let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
            .threads(threads)
            .par_threshold(1)
            .build_with(|_| Tick);
        let mut t = 0.0;
        group.bench_function(label, |b| {
            b.iter(|| {
                t += 0.5;
                sim.run_until(at(t));
            })
        });
        if threads > 1 {
            assert!(sim.stats().segments_parallel > 0);
        }
    }
    group.finish();
}

const BURSTS: usize = 8;
const PER_BURST: usize = 512;

/// Ring of `n` plus `BURSTS` instants each carrying `PER_BURST` chord
/// changes at one shared time — the E13 flash-crowd shape.
fn burst_schedule(n: usize) -> TopologySchedule {
    let mut events = Vec::new();
    for b in 0..BURSTS {
        let t = 0.1 * (b + 1) as f64;
        for i in (0..2 * PER_BURST).step_by(2) {
            let chord = Edge::between(i, (i + 2) % n);
            events.push(if b % 2 == 0 {
                add_at(t, chord)
            } else {
                remove_at(t, chord)
            });
        }
    }
    TopologySchedule::new(n, generators::ring(n), events)
}

fn bench_topology_apply(c: &mut Criterion) {
    let n = 2048;
    let mut group = c.benchmark_group("dispatch_overhead");
    group.throughput(Throughput::Elements((BURSTS * PER_BURST) as u64));
    // Same shard layout for both; only the threshold decides whether a
    // burst goes to the pool.
    for (label, par_min) in [
        ("topology_serial", PER_BURST + 1),
        ("topology_batched", 256),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    SimBuilder::topology(model(), ScheduleSource::new(burst_schedule(n)))
                        .threads(8)
                        .par_threshold(par_min)
                        .build_with(|_| Inert)
                },
                |mut sim: Simulator<Inert>| {
                    sim.run_until(at(1.0));
                    sim // defer the drop (pool join) out of the timing
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_segment_dispatch, bench_topology_apply);
criterion_main!(benches);
