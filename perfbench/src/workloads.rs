//! The four workloads, built from the library's public constructors and
//! a seed, and run under a [`Mode`]: untraced (the library's own types)
//! or traced (the same run through the forwarding wrappers).

use crate::trace::Tracer;
use crate::wrap::{timed_observe, Timed, TimedDrift, TimedSource};
use gcs_analysis::SkewStream;
use gcs_clocks::time::at;
use gcs_clocks::{DriftModel, DriftSource, ModelDrift, Time};
use gcs_core::{AlgoParams, GradientNode, GradientShared};
use gcs_mc::{explore, ModelNode, Report, Scenario};
use gcs_net::churn::{random_churn, ChurnSource};
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::{generators, Edge, NodeId, ScheduleSource, TopologySchedule, TopologySource};
use gcs_sim::{Automaton, DelayStrategy, ModelParams, PlaneBytes, SimBuilder, SimStats, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Path + flapping chords at n = 2^16, eager schedule, split drift,
    /// two worker threads: protocol-heavy, topology-light.
    ChurnPath,
    /// Streamed churn at n = 2^18 under random-walk drift with the
    /// streaming skew observer: topology- and drift-heavy, serial.
    ChurnWalk,
    /// A 2^15-node backbone visited by 8 waves of 2^14 one-shot nodes at
    /// n = 2^22, with eviction sweeps: setup-, memory- and burst-heavy.
    VisitorWaves,
    /// Exhaustive model checking of the n = 4 churn and crash/restart
    /// scenarios.
    McN4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChurnPath,
        Workload::ChurnWalk,
        Workload::VisitorWaves,
        Workload::McN4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnPath => "churn-path",
            Workload::ChurnWalk => "churn-walk",
            Workload::VisitorWaves => "visitor-waves",
            Workload::McN4 => "mc-n4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at its benchmark size.
    pub fn spec(self) -> Spec {
        let sim = |n, horizon, threads| SimSpec {
            workload: self,
            n,
            horizon,
            threads,
            slices: 1000,
            backbone: 0,
            waves: 0,
            visitors: 0,
        };
        match self {
            Workload::ChurnPath => Spec::Sim(sim(1 << 16, 10.0, 2)),
            Workload::ChurnWalk => Spec::Sim(sim(1 << 18, 2.0, 1)),
            Workload::VisitorWaves => Spec::Sim(SimSpec {
                backbone: 1 << 15,
                waves: 8,
                visitors: 1 << 14,
                ..sim(1 << 22, 18.0, 1)
            }),
            Workload::McN4 => Spec::Mc(McSpec {
                n: 4,
                scenarios: vec!["n4-churn", "n4-crash-restart"],
            }),
        }
    }
}

/// A workload's inputs, minus the seed.
#[derive(Clone, Debug)]
pub enum Spec {
    Sim(SimSpec),
    Mc(McSpec),
}

/// A simulation workload's size and engine settings.
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub workload: Workload,
    pub n: usize,
    pub horizon: f64,
    pub threads: usize,
    /// `run_until` calls of equal simulated length that make up the run.
    pub slices: usize,
    /// `visitor-waves` only: backbone width, waves and visitors per wave.
    pub backbone: usize,
    pub waves: usize,
    pub visitors: usize,
}

/// A model-checking workload: the `explore::suite(n)` scenarios to run.
#[derive(Clone, Debug)]
pub struct McSpec {
    pub n: usize,
    pub scenarios: Vec<&'static str>,
}

/// How a run reaches the library: directly, or through the forwarding
/// wrappers that feed the probes.
pub trait Mode {
    type Node: ModelNode + 'static;
    type Source: TopologySource + 'static;
    type Drift: DriftSource + 'static;
    fn node(node: GradientNode) -> Self::Node;
    fn source(source: Box<dyn TopologySource>) -> Self::Source;
    fn drift(drift: ModelDrift) -> Self::Drift;
    fn observe(stream: &mut SkewStream, sim: &Simulator<Self::Node>, t: Time, touched: &[NodeId]);
}

/// The library's own types; no probes.
#[derive(Debug)]
pub struct Untraced;

impl Mode for Untraced {
    type Node = GradientNode;
    type Source = Box<dyn TopologySource>;
    type Drift = ModelDrift;
    fn node(node: GradientNode) -> GradientNode {
        node
    }
    fn source(source: Box<dyn TopologySource>) -> Self::Source {
        source
    }
    fn drift(drift: ModelDrift) -> ModelDrift {
        drift
    }
    fn observe(
        stream: &mut SkewStream,
        sim: &Simulator<GradientNode>,
        t: Time,
        touched: &[NodeId],
    ) {
        stream.observe(sim, t, touched);
    }
}

/// Every trait object wrapped in its timed forwarder.
#[derive(Debug)]
pub struct Traced;

impl Mode for Traced {
    type Node = Timed<GradientNode>;
    type Source = TimedSource<Box<dyn TopologySource>>;
    type Drift = TimedDrift<ModelDrift>;
    fn node(node: GradientNode) -> Self::Node {
        Timed(node)
    }
    fn source(source: Box<dyn TopologySource>) -> Self::Source {
        TimedSource(source)
    }
    fn drift(drift: ModelDrift) -> Self::Drift {
        TimedDrift(drift)
    }
    fn observe(stream: &mut SkewStream, sim: &Simulator<Self::Node>, t: Time, touched: &[NodeId]) {
        timed_observe(stream, sim, t, touched);
    }
}

const CHURN_SALT: u64 = 0x000c_4e1d;
const DRIFT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const VISITOR_SALT: u64 = 0x0005_1e17;

/// The E1 model (`ρ = 0.01, T = 1, D = 2`).
fn churn_model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Tighter bounds (`T = 0.25, D = 0.6`) so a visitor's stay is long
/// enough to be discovered, exchange a round and be left again within
/// one chunk.
fn visitor_model() -> ModelParams {
    ModelParams::new(0.01, 0.25, 0.6)
}

impl SimSpec {
    fn model(&self) -> ModelParams {
        match self.workload {
            Workload::VisitorWaves => visitor_model(),
            _ => churn_model(),
        }
    }

    fn drift_model(&self) -> DriftModel {
        match self.workload {
            Workload::ChurnPath => DriftModel::FastUpTo(self.n / 2),
            Workload::ChurnWalk => DriftModel::RandomWalk {
                step: self.horizon / 4.0,
            },
            _ => DriftModel::Perfect,
        }
    }

    /// Chunk boundaries (in slices) at which `visitor-waves` sweeps the
    /// cold tier: one chunk per wave plus a lead-in and a drain chunk.
    fn evict_every(&self) -> Option<usize> {
        (self.workload == Workload::VisitorWaves).then(|| (self.slices / (self.waves + 2)).max(1))
    }

    /// The visitor waves' topology events: wave `w` joins at one instant
    /// early in chunk `w + 1` and leaves at one instant late in it, each
    /// visitor at a seeded backbone host. Benchmark input, made before
    /// the first library call.
    fn visitor_events(&self, seed: u64) -> (Vec<Edge>, Vec<gcs_net::TopologyEvent>) {
        assert!(self.backbone >= 2 && self.backbone + self.waves * self.visitors <= self.n);
        let chunk = self.horizon / (self.waves + 2) as f64;
        let mut rng = StdRng::seed_from_u64(seed ^ VISITOR_SALT);
        let backbone = (0..self.backbone - 1)
            .map(|i| Edge::between(i, i + 1))
            .collect();
        let mut events = Vec::with_capacity(2 * self.waves * self.visitors);
        for w in 0..self.waves {
            let join = (w as f64 + 1.0 + rng.gen_range(0.05..0.15)) * chunk;
            let leave = (w as f64 + 1.0 + rng.gen_range(0.85..0.95)) * chunk;
            for j in 0..self.visitors {
                let visitor = self.backbone + w * self.visitors + j;
                let e = Edge::between(visitor, rng.gen_range(0..self.backbone));
                events.push(add_at(join, e));
                events.push(remove_at(leave, e));
            }
        }
        (backbone, events)
    }
}

/// What a simulation run leaves behind, read after the horizon.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    pub fingerprint: u64,
    pub stats: SimStats,
    pub planes: PlaneBytes,
    pub wheel_peaks: [usize; 5],
    pub drift_cursors: usize,
    pub evictions: u64,
    pub cold_bytes: usize,
    pub pool_jobs: u64,
    pub topology_apply_s: f64,
    /// Process CPU seconds over the run phase (all threads).
    pub cpu_s: f64,
    /// Streamed peak global skew and the Theorem 6.9 bound, when the
    /// workload streams skew.
    pub peak_global_skew: Option<f64>,
    pub global_skew_bound: f64,
}

/// A simulation built and ready to run, inside an open `workload` span.
struct Built<M: Mode> {
    sim: Simulator<M::Node>,
    params: AlgoParams,
    root: usize,
}

/// Makes the inputs, opens the `workload` span and builds the simulator
/// inside a `setup` span (⊃ `net.schedule`, `core.shared_build`,
/// `sim.build`).
fn setup_sim<M: Mode>(spec: &SimSpec, seed: u64, tr: &mut Tracer) -> Built<M> {
    let n = spec.n;
    let model = spec.model();
    let visitors = (spec.workload == Workload::VisitorWaves).then(|| spec.visitor_events(seed));

    let root = tr.enter("workload");
    let setup = tr.enter("setup");
    let source: Box<dyn TopologySource> = tr.span("net.schedule", || match spec.workload {
        Workload::ChurnPath => {
            let mut rng = StdRng::seed_from_u64(seed ^ CHURN_SALT);
            let sched = random_churn(
                n,
                generators::path(n),
                n / 4,
                (6.0, 12.0),
                (2.0, 4.0),
                spec.horizon,
                &mut rng,
            );
            Box::new(ScheduleSource::new(sched)) as Box<dyn TopologySource>
        }
        Workload::ChurnWalk => {
            let h = spec.horizon;
            Box::new(ChurnSource::new(
                n,
                generators::path(n),
                n / 4,
                (0.3 * h, 0.6 * h),
                (0.1 * h, 0.2 * h),
                h,
                seed ^ CHURN_SALT,
            ))
        }
        Workload::VisitorWaves => {
            let (backbone, events) = visitors.expect("visitor events");
            Box::new(ScheduleSource::new(TopologySchedule::new(
                n, backbone, events,
            )))
        }
        Workload::McN4 => unreachable!("mc-n4 is not a simulation workload"),
    });
    let params = AlgoParams::with_minimal_b0(model, n, 0.5);
    let parking = spec.workload == Workload::VisitorWaves;
    let shared = tr.span("core.shared_build", || {
        Arc::new(GradientShared::new(params).with_idle_parking(parking))
    });
    let drift = ModelDrift::new(
        spec.drift_model(),
        model.rho,
        spec.horizon,
        seed ^ DRIFT_SALT,
    );
    let sim = tr.span("sim.build", || {
        SimBuilder::topology(model, M::source(source))
            .drift(M::drift(drift))
            .delay(DelayStrategy::Max)
            .seed(seed)
            .threads(spec.threads)
            .build_with(|_| M::node(GradientNode::with_shared(shared.clone())))
    });
    tr.exit(setup);
    Built { sim, params, root }
}

/// Set-up time of one more build, dropped unrun.
pub fn setup_only(spec: &SimSpec, seed: u64) -> f64 {
    let mut tr = Tracer::default();
    let built = setup_sim::<Untraced>(spec, seed, &mut tr);
    tr.exit(built.root);
    tr.find("setup").map_or(0.0, |s| s.seconds())
}

/// Builds and runs a simulation workload. Spans: `workload` ⊃ `setup`
/// (see [`setup_sim`]) and `run` (⊃ `sim.slice`, `sim.evict`).
pub fn run_sim<M: Mode>(spec: &SimSpec, seed: u64, tr: &mut Tracer) -> SimOutcome {
    let Built {
        mut sim,
        params,
        root,
    } = setup_sim::<M>(spec, seed, tr);
    let mut stream = (spec.workload == Workload::ChurnWalk)
        .then(|| SkewStream::new(spec.n, params.model.rho, 4096));
    let run = tr.enter("run");
    let cpu0 = cpu_seconds();
    for k in 1..=spec.slices {
        let until = if k == spec.slices {
            spec.horizon
        } else {
            spec.horizon * k as f64 / spec.slices as f64
        };
        let slice = tr.enter("sim.slice");
        match stream.as_mut() {
            Some(s) => {
                sim.run_until_with(at(until), |sim, t, touched| M::observe(s, sim, t, touched))
            }
            None => sim.run_until(at(until)),
        }
        tr.exit(slice);
        if spec.evict_every().is_some_and(|every| k % every == 0) {
            tr.span("sim.evict", || sim.evict_quiescent());
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    tr.exit(run);
    tr.exit(root);

    SimOutcome {
        fingerprint: sim_fingerprint(&sim),
        stats: *sim.stats(),
        planes: sim.plane_bytes(),
        wheel_peaks: sim.wheel_pending_peaks(),
        drift_cursors: sim.drift_cursors(),
        evictions: sim.evictions(),
        cold_bytes: sim.cold_bytes(),
        pool_jobs: sim.pool_jobs(),
        topology_apply_s: sim.topology_apply_seconds(),
        cpu_s,
        peak_global_skew: stream.map(|s| s.peak_global_skew()),
        global_skew_bound: params.global_skew_bound(),
    }
}

/// What a model-checking run leaves behind.
#[derive(Clone, Debug)]
pub struct McOutcome {
    pub fingerprint: u64,
    pub reports: Vec<Report>,
}

impl McOutcome {
    pub fn states(&self) -> usize {
        self.reports.iter().map(|r| r.states).sum()
    }

    pub fn runs(&self) -> usize {
        self.reports.iter().map(|r| r.runs).sum()
    }

    pub fn max_depth(&self) -> usize {
        self.reports.iter().map(|r| r.max_depth).max().unwrap_or(0)
    }
}

/// Safety valve handed to `explore`; the n = 4 scenarios stay far below.
const MAX_RUNS: usize = 2_000_000;

/// The named `explore::suite(n)` scenarios — the mc workload's setup.
pub fn mc_suite(spec: &McSpec) -> Vec<Scenario> {
    let suite = gcs_mc::explore::suite(spec.n);
    spec.scenarios
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|sc| sc.name == *name)
                .unwrap_or_else(|| panic!("no scenario {name} in the n = {} suite", spec.n))
                .clone()
        })
        .collect()
}

/// Explores each scenario. Spans: `workload` ⊃ `setup`, `run`
/// (⊃ one `mc.explore` per scenario).
pub fn run_mc<M: Mode>(spec: &McSpec, tr: &mut Tracer) -> McOutcome {
    let root = tr.enter("workload");
    let scenarios = tr.span("setup", || mc_suite(spec));
    let run = tr.enter("run");
    let reports: Vec<Report> = scenarios
        .iter()
        .map(|sc| {
            tr.span("mc.explore", || {
                explore(sc, |_| M::node(GradientNode::new(sc.algo)), MAX_RUNS)
            })
        })
        .collect();
    tr.exit(run);
    tr.exit(root);
    let mut h = Fnv::default();
    for r in &reports {
        h.str(&r.scenario);
        h.word(r.states as u64);
        h.word(r.runs as u64);
        h.word(r.max_depth as u64);
        h.word(r.violation.is_some() as u64);
    }
    McOutcome {
        fingerprint: h.0,
        reports,
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Hash of everything a run's trace determines: the trace-relevant
/// `SimStats` fields (those `SimStats` equality compares), the engine's
/// trace-derived gauges, and the bits of every logical clock at the
/// horizon. Scheduling-only counters are left out, so the value is the
/// same at every thread count.
pub fn sim_fingerprint<A: Automaton>(sim: &Simulator<A>) -> u64 {
    let SimStats {
        events_processed,
        messages_sent,
        messages_delivered,
        dropped_no_edge,
        dropped_in_flight,
        alarms_fired,
        alarms_stale,
        discovers_delivered,
        discovers_stale,
        topology_events,
        topology_pulled,
        peak_topology_backlog,
        peak_staged_events,
        faults_pulled,
        faults_applied,
        crashes,
        restarts,
        dropped_crashed,
        suppressed_crashed,
        dropped_fault_window,
        delay_spiked,
        topology_batches,
        peak_batch_len,
        segments_parallel: _,
        segments_inline: _,
        par_min_events: _,
    } = *sim.stats();
    let mut h = Fnv::default();
    for w in [
        events_processed,
        messages_sent,
        messages_delivered,
        dropped_no_edge,
        dropped_in_flight,
        alarms_fired,
        alarms_stale,
        discovers_delivered,
        discovers_stale,
        topology_events,
        topology_pulled,
        peak_topology_backlog,
        peak_staged_events,
        faults_pulled,
        faults_applied,
        crashes,
        restarts,
        dropped_crashed,
        suppressed_crashed,
        dropped_fault_window,
        delay_spiked,
        topology_batches,
        peak_batch_len,
    ] {
        h.word(w);
    }
    for g in sim.wheel_pending_peaks() {
        h.word(g as u64);
    }
    for g in [
        sim.drift_cursors(),
        sim.node_state_watermark(),
        sim.rng_streams(),
        sim.cold_nodes(),
        sim.cold_bytes(),
    ] {
        h.word(g as u64);
    }
    h.word(sim.evictions());
    h.word(sim.rehydrations());
    for x in sim.logical_snapshot() {
        h.word(x.to_bits());
    }
    h.0
}

/// CPU seconds this process has used, all threads (`/proc/self/stat`
/// utime + stime at the kernel's fixed 100 Hz user tick).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}
