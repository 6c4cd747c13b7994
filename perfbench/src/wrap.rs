//! Forwarding wrappers around the library's public traits. Each method
//! forwards to the wrapped value — the defaulted ones too, so a wrapped
//! run takes exactly the inner type's code paths — and the work-doing
//! ones book their time to a [`Probe`].
//!
//! That a wrapped run reproduces the unwrapped run's fingerprint (stats,
//! clocks, drift cursors, evictions) is checked on every traced run.

use crate::trace::{local_ns, record, record_since, Probe};
use gcs_analysis::SkewStream;
use gcs_clocks::{DriftCursor, DriftSource, Time};
use gcs_mc::{ModelNode, NodeProbe};
use gcs_net::{Edge, NodeId, TopologyEvent, TopologySource};
use gcs_sim::{Automaton, Context, LinkChange, Message, RebootUnsupported, Simulator, TimerKind};
use std::time::Instant;

/// An automaton whose handlers are timed.
#[derive(Clone, Debug)]
pub struct Timed<N>(pub N);

impl<N: Automaton> Automaton for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.0.on_start(ctx);
        record_since(Probe::OnStart, t);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        let t = Instant::now();
        self.0.on_receive(ctx, from, msg);
        record_since(Probe::OnReceive, t);
    }

    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        let t = Instant::now();
        self.0.on_discover(ctx, change);
        record_since(Probe::OnDiscover, t);
    }

    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind) {
        let t = Instant::now();
        self.0.on_alarm(ctx, kind);
        record_since(Probe::OnAlarm, t);
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        self.0.logical_clock(hw)
    }

    fn max_estimate(&self, hw: f64) -> f64 {
        self.0.max_estimate(hw)
    }

    fn try_reboot(&self) -> Result<Self, RebootUnsupported> {
        self.0.try_reboot().map(Timed)
    }

    fn reboot(&self) -> Self {
        Timed(self.0.reboot())
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }

    fn pack_cold(&mut self, out: &mut Vec<u8>) -> bool {
        self.0.pack_cold(out)
    }

    fn unpack_cold(&mut self, bytes: &[u8]) {
        self.0.unpack_cold(bytes)
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

impl<N: ModelNode> ModelNode for Timed<N> {
    fn probe(&self, hw: f64) -> NodeProbe {
        self.0.probe(hw)
    }

    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out)
    }
}

/// A topology source whose pulls are timed and counted.
#[derive(Debug)]
pub struct TimedSource<S>(pub S);

impl<S: TopologySource> TopologySource for TimedSource<S> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        let t = Instant::now();
        let edges = self.0.initial_edges();
        record_since(Probe::Peek, t);
        edges
    }

    fn peek_time(&mut self) -> Option<Time> {
        let t = Instant::now();
        let next = self.0.peek_time();
        record_since(Probe::Peek, t);
        next
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        let before = buf.len();
        let t = Instant::now();
        self.0.pull_until(until, buf);
        let ns = t.elapsed().as_nanos() as u64;
        record(Probe::Pull, ns, (buf.len() - before) as u64);
        record(Probe::PullCall, 0, 1);
    }
}

/// A drift plane whose evaluations are timed.
#[derive(Debug)]
pub struct TimedDrift<D>(pub D);

impl<D: DriftSource> DriftSource for TimedDrift<D> {
    fn rho(&self) -> f64 {
        self.0.rho()
    }

    fn init(&self, index: usize) -> DriftCursor {
        let t = Instant::now();
        let c = self.0.init(index);
        record_since(Probe::Drift, t);
        c
    }

    fn next_segment(&self, index: usize, cursor: &mut DriftCursor) {
        let t = Instant::now();
        self.0.next_segment(index, cursor);
        record_since(Probe::Drift, t);
    }

    fn stateless(&self) -> bool {
        self.0.stateless()
    }

    fn read(&self, index: usize, cursor: &mut DriftCursor, t: Time) -> f64 {
        let start = Instant::now();
        let h = self.0.read(index, cursor, t);
        record_since(Probe::Drift, start);
        h
    }

    fn fire_time(&self, index: usize, cursor: &mut DriftCursor, now: Time, delta: f64) -> Time {
        let t = Instant::now();
        let at = self.0.fire_time(index, cursor, now, delta);
        record_since(Probe::Drift, t);
        at
    }

    fn read_at(&self, index: usize, t: Time) -> f64 {
        let start = Instant::now();
        let h = self.0.read_at(index, t);
        record_since(Probe::Drift, start);
        h
    }

    fn fire_at(&self, index: usize, now: Time, delta: f64) -> Time {
        let t = Instant::now();
        let at = self.0.fire_at(index, now, delta);
        record_since(Probe::Drift, t);
        at
    }
}

/// `SkewStream::observe`, timed. The drift reads it triggers (through
/// `Simulator::logical`) stay booked under [`Probe::Drift`]; the observer
/// is charged only the rest, so no probe time is counted twice.
pub fn timed_observe<A: Automaton>(
    stream: &mut SkewStream,
    sim: &Simulator<A>,
    t: Time,
    touched: &[NodeId],
) {
    let drift0 = local_ns(Probe::Drift);
    let start = Instant::now();
    stream.observe(sim, t, touched);
    let ns = start.elapsed().as_nanos() as u64;
    let nested = local_ns(Probe::Drift) - drift0;
    record(Probe::Observe, ns.saturating_sub(nested), 1);
}
