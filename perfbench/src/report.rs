//! Iterations, output checks, and the metrics the benchmark reports.

use crate::json::Json;
use crate::trace::{Probe, Tracer};
use crate::workloads::{
    mc_suite, run_mc, run_sim, setup_only, McOutcome, SimOutcome, Spec, Traced, Untraced, Workload,
};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Reported with `--trace 1`; a layer
/// a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("net.schedule_s", "s"),
    ("net.pull_s", "s"),
    ("net.pull_calls", "count"),
    ("net.pulled_events", "count"),
    ("net.peak_staged_events", "count"),
    ("net.peak_topology_backlog", "count"),
    ("clocks.drift_s", "s"),
    ("clocks.drift_calls", "count"),
    ("clocks.drift_cursors", "count"),
    ("core.shared_build_s", "s"),
    ("core.on_start_s", "s"),
    ("core.on_start.calls", "count"),
    ("core.on_receive_s", "s"),
    ("core.on_receive.calls", "count"),
    ("core.on_alarm_s", "s"),
    ("core.on_alarm.calls", "count"),
    ("core.on_discover_s", "s"),
    ("core.on_discover.calls", "count"),
    ("sim.build_s", "s"),
    ("sim.build_self_s", "s"),
    ("sim.run_self_s", "s"),
    ("sim.topology_apply_s", "s"),
    ("sim.events", "count"),
    ("sim.segments_parallel", "count"),
    ("sim.segments_inline", "count"),
    ("sim.pool_jobs", "count"),
    ("sim.cpu_util", "ratio"),
    ("sim.stale_frac", "ratio"),
    ("sim.evict_s", "s"),
    ("sim.evictions", "count"),
    ("sim.cold_bytes", "bytes"),
    ("sim.plane.topology_bytes", "bytes"),
    ("sim.plane.drift_bytes", "bytes"),
    ("sim.plane.automaton_hot_bytes", "bytes"),
    ("sim.plane.automaton_cold_bytes", "bytes"),
    ("sim.plane.wheel_bytes", "bytes"),
    ("sim.plane.staging_bytes", "bytes"),
    ("sim.plane.dispatch_scratch_bytes", "bytes"),
    ("sim.wheel_peak.topology", "count"),
    ("sim.wheel_peak.fault", "count"),
    ("sim.wheel_peak.deliver", "count"),
    ("sim.wheel_peak.alarm", "count"),
    ("sim.wheel_peak.discover", "count"),
    ("sim.slice_ms.p50", "ms"),
    ("sim.slice_ms.p99", "ms"),
    ("sim.slices", "count"),
    ("analysis.observe_s", "s"),
    ("analysis.observe_calls", "count"),
    ("mc.explore_s", "s"),
    ("mc.runs", "count"),
    ("mc.states", "count"),
    ("mc.max_depth", "count"),
    ("mc.states_per_run", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.traced_runs", "count"),
    ("trace.untraced_runs", "count"),
];

/// What one iteration produced.
#[derive(Clone, Debug)]
pub enum Outcome {
    Sim(Box<SimOutcome>),
    Mc(McOutcome),
}

impl Outcome {
    pub fn fingerprint(&self) -> u64 {
        match self {
            Outcome::Sim(o) => o.fingerprint,
            Outcome::Mc(o) => o.fingerprint,
        }
    }
}

/// One run of a workload from the first library call to a finished
/// result, with its spans.
#[derive(Debug)]
pub struct Iteration {
    pub traced: bool,
    pub tracer: Tracer,
    pub outcome: Outcome,
}

impl Iteration {
    pub fn run(spec: &Spec, seed: u64, traced: bool) -> Iteration {
        let mut tracer = Tracer::default();
        let outcome = match (spec, traced) {
            (Spec::Sim(s), false) => {
                Outcome::Sim(Box::new(run_sim::<Untraced>(s, seed, &mut tracer)))
            }
            (Spec::Sim(s), true) => Outcome::Sim(Box::new(run_sim::<Traced>(s, seed, &mut tracer))),
            (Spec::Mc(m), false) => Outcome::Mc(run_mc::<Untraced>(m, &mut tracer)),
            (Spec::Mc(m), true) => Outcome::Mc(run_mc::<Traced>(m, &mut tracer)),
        };
        Iteration {
            traced,
            tracer,
            outcome,
        }
    }

    /// Set-up time of one more build of `spec`, dropped unrun.
    pub fn setup_only(spec: &Spec, seed: u64) -> f64 {
        match spec {
            Spec::Sim(s) => setup_only(s, seed),
            Spec::Mc(m) => {
                let t = std::time::Instant::now();
                std::hint::black_box(mc_suite(m));
                t.elapsed().as_secs_f64()
            }
        }
    }

    fn secs(&self, span: &str) -> f64 {
        self.tracer.find(span).map_or(0.0, |s| s.seconds())
    }

    /// Seconds from the first library call to a finished result.
    pub fn wall_s(&self) -> f64 {
        self.secs("workload")
    }

    /// Seconds from the first library call to a ready simulator (or
    /// scenario suite).
    pub fn setup_s(&self) -> f64 {
        self.secs("setup")
    }

    pub fn run_s(&self) -> f64 {
        self.secs("run")
    }

    /// Simulation events (or distinct model states) per run second.
    pub fn throughput(&self) -> f64 {
        let work = match &self.outcome {
            Outcome::Sim(o) => o.stats.events_processed as f64,
            Outcome::Mc(o) => o.states() as f64,
        };
        work / self.run_s()
    }

    /// Per-layer values of this (traced) iteration.
    pub fn layers(&self) -> BTreeMap<&'static str, f64> {
        let tr = &self.tracer;
        let total = tr.find("workload").map(|s| s.probes).unwrap_or_default();
        let sum = |name: &str| tr.all(name).map(|s| s.seconds()).sum::<f64>();
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
        let mut set = |k: &'static str, v: f64| {
            *m.get_mut(k)
                .unwrap_or_else(|| panic!("{k} is not a per-layer metric")) = v;
        };
        for (probe, secs, calls) in [
            (Probe::OnStart, "core.on_start_s", "core.on_start.calls"),
            (
                Probe::OnReceive,
                "core.on_receive_s",
                "core.on_receive.calls",
            ),
            (Probe::OnAlarm, "core.on_alarm_s", "core.on_alarm.calls"),
            (
                Probe::OnDiscover,
                "core.on_discover_s",
                "core.on_discover.calls",
            ),
        ] {
            set(secs, total.seconds(probe));
            set(calls, total.calls(probe) as f64);
        }
        match &self.outcome {
            Outcome::Sim(o) => {
                let s = &o.stats;
                set("net.schedule_s", sum("net.schedule"));
                set(
                    "net.pull_s",
                    total.seconds(Probe::Pull) + total.seconds(Probe::Peek),
                );
                set("net.pull_calls", total.calls(Probe::PullCall) as f64);
                set("net.pulled_events", total.calls(Probe::Pull) as f64);
                set("net.peak_staged_events", s.peak_staged_events as f64);
                set("net.peak_topology_backlog", s.peak_topology_backlog as f64);
                set("clocks.drift_s", total.seconds(Probe::Drift));
                set("clocks.drift_calls", total.calls(Probe::Drift) as f64);
                set("clocks.drift_cursors", o.drift_cursors as f64);
                set("core.shared_build_s", sum("core.shared_build"));
                set("sim.build_s", sum("sim.build"));
                let build_self = tr
                    .spans()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == "sim.build");
                set(
                    "sim.build_self_s",
                    build_self.map(|(id, _)| tr.self_seconds(id)).sum(),
                );
                let slices: Vec<(usize, f64)> = tr
                    .spans()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == "sim.slice")
                    .map(|(id, s)| (id, s.seconds()))
                    .collect();
                set(
                    "sim.run_self_s",
                    slices.iter().map(|&(id, _)| tr.self_seconds(id)).sum(),
                );
                let mut ms: Vec<f64> = slices.iter().map(|&(_, s)| s * 1e3).collect();
                set("sim.slice_ms.p50", percentile(&mut ms, 0.50));
                set("sim.slice_ms.p99", percentile(&mut ms, 0.99));
                set("sim.slices", ms.len() as f64);
                set("sim.topology_apply_s", o.topology_apply_s);
                set("sim.events", s.events_processed as f64);
                set("sim.segments_parallel", s.segments_parallel as f64);
                set("sim.segments_inline", s.segments_inline as f64);
                set("sim.pool_jobs", o.pool_jobs as f64);
                set("sim.cpu_util", o.cpu_s / self.run_s());
                let stale = s.alarms_stale + s.discovers_stale;
                set(
                    "sim.stale_frac",
                    stale as f64 / s.events_processed.max(1) as f64,
                );
                set("sim.evict_s", sum("sim.evict"));
                set("sim.evictions", o.evictions as f64);
                set("sim.cold_bytes", o.cold_bytes as f64);
                let p = &o.planes;
                set("sim.plane.topology_bytes", p.topology as f64);
                set("sim.plane.drift_bytes", p.drift as f64);
                set("sim.plane.automaton_hot_bytes", p.automaton_hot as f64);
                set("sim.plane.automaton_cold_bytes", p.automaton_cold as f64);
                set("sim.plane.wheel_bytes", p.wheel as f64);
                set("sim.plane.staging_bytes", p.staging as f64);
                set(
                    "sim.plane.dispatch_scratch_bytes",
                    p.dispatch_scratch as f64,
                );
                let lanes = [
                    "sim.wheel_peak.topology",
                    "sim.wheel_peak.fault",
                    "sim.wheel_peak.deliver",
                    "sim.wheel_peak.alarm",
                    "sim.wheel_peak.discover",
                ];
                for (name, &peak) in lanes.into_iter().zip(&o.wheel_peaks) {
                    set(name, peak as f64);
                }
                set("analysis.observe_s", total.seconds(Probe::Observe));
                set("analysis.observe_calls", total.calls(Probe::Observe) as f64);
            }
            Outcome::Mc(o) => {
                set("mc.explore_s", sum("mc.explore"));
                set("mc.runs", o.runs() as f64);
                set("mc.states", o.states() as f64);
                set("mc.max_depth", o.max_depth() as f64);
                set(
                    "mc.states_per_run",
                    o.states() as f64 / o.runs().max(1) as f64,
                );
            }
        }
        m
    }
}

/// Median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    percentile(&mut v, 0.5)
}

/// Nearest-rank percentile `q ∈ (0, 1]` (sorts `xs`); 0 for no samples.
/// With 1000 samples, p99 is rank 990 and has ten samples beyond it.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The end-to-end metrics over the untraced iterations.
pub fn end_to_end(
    iters: &[Iteration],
    setup_samples: &[f64],
    peak_rss_bytes: u64,
) -> BTreeMap<&'static str, f64> {
    let untraced: Vec<&Iteration> = iters.iter().filter(|it| !it.traced).collect();
    let of =
        |f: fn(&Iteration) -> f64| median(&untraced.iter().map(|it| f(it)).collect::<Vec<_>>());
    let mut setups: Vec<f64> = untraced.iter().map(|it| it.setup_s()).collect();
    setups.extend_from_slice(setup_samples);
    BTreeMap::from([
        ("wall_s", of(Iteration::wall_s)),
        ("setup_s", median(&setups)),
        ("throughput_per_s", of(Iteration::throughput)),
        ("peak_rss_mb", peak_rss_bytes as f64 / (1024.0 * 1024.0)),
    ])
}

/// The per-layer metrics: medians over the traced iterations, plus the
/// tracing overhead against the untraced ones.
pub fn per_layer(iters: &[Iteration]) -> BTreeMap<&'static str, f64> {
    let traced: Vec<BTreeMap<&'static str, f64>> = iters
        .iter()
        .filter(|it| it.traced)
        .map(Iteration::layers)
        .collect();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(k, _)| (k, median(&traced.iter().map(|l| l[k]).collect::<Vec<_>>())))
        .collect();
    let wall = |traced: bool| {
        median(
            &iters
                .iter()
                .filter(|it| it.traced == traced)
                .map(Iteration::wall_s)
                .collect::<Vec<_>>(),
        )
    };
    m.insert("trace.overhead_frac", wall(true) / wall(false) - 1.0);
    m.insert("trace.traced_runs", traced.len() as f64);
    m.insert(
        "trace.untraced_runs",
        iters.iter().filter(|it| !it.traced).count() as f64,
    );
    m
}

/// The result line: `correct`, `attempted`, `failed` and each metric
/// with its unit.
pub fn result_json(failed: usize, attempted: usize, metrics: &BTreeMap<&'static str, f64>) -> Json {
    let unit = |k: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(name, _)| *name == k)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {k} has no unit"))
    };
    let metrics = metrics.iter().map(|(&k, &v)| {
        (
            k,
            Json::obj([("value", Json::Num(v)), ("unit", unit(k).into())]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Fingerprints and model-checking counts recorded for the default seed
/// (`perfbench/recorded.json`), with the host they were recorded on.
#[derive(Clone, Debug)]
pub struct Recorded {
    pub default_seed: u64,
    pub doc: Json,
}

impl Recorded {
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let doc = Json::parse(text)?;
        let default_seed = doc
            .get("default_seed")
            .and_then(Json::as_f64)
            .ok_or("recorded.json lacks default_seed")? as u64;
        Ok(Recorded { default_seed, doc })
    }

    pub fn fingerprint(&self, w: Workload) -> Option<u64> {
        let hex = self.doc.get("fingerprints")?.get(w.name())?.as_str()?;
        u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
    }

    pub fn mc_states(&self, scenario: &str) -> Option<usize> {
        Some(self.doc.get("mc_states")?.get(scenario)?.as_f64()? as usize)
    }
}

/// Renders a fingerprint as `recorded.json` stores it.
pub fn hex(fp: u64) -> String {
    format!("0x{fp:016x}")
}

/// Output checks for one iteration. Returns the reasons it failed.
///
/// * The fingerprint equals the run's first iteration (traced or not),
///   and, on the default seed, the recorded one. `mc-n4` takes no seeded
///   input, so its fingerprint and state counts are checked every run.
/// * The workload keeps its character, judged on deterministic counts.
/// * `churn-walk`'s streamed peak global skew is within the bound; the
///   model checker finds no violation.
pub fn check(
    w: Workload,
    spec: &Spec,
    seed: u64,
    it: &Iteration,
    first: u64,
    rec: &Recorded,
) -> Vec<String> {
    let mut bad = Vec::new();
    let fp = it.outcome.fingerprint();
    if fp != first {
        bad.push(format!(
            "fingerprint {} differs from the first iteration's {}",
            hex(fp),
            hex(first)
        ));
    }
    if seed == rec.default_seed || w == Workload::McN4 {
        match rec.fingerprint(w) {
            Some(r) if r == fp => {}
            Some(r) => bad.push(format!(
                "fingerprint {} differs from the recorded {}",
                hex(fp),
                hex(r)
            )),
            None => bad.push(format!("no recorded fingerprint for {}", w.name())),
        }
    }
    match (&it.outcome, spec) {
        (Outcome::Sim(o), Spec::Sim(s)) => {
            let st = &o.stats;
            let events = st.events_processed as f64;
            let topo = st.topology_events as f64;
            let mut need = |ok: bool, what: String| {
                if !ok {
                    bad.push(what);
                }
            };
            match w {
                Workload::ChurnPath => {
                    need(
                        topo < 0.02 * events,
                        format!("topology events {topo} not under 2% of {events}"),
                    );
                    need(
                        s.threads < 2 || st.segments_parallel > 0,
                        "no parallel segment at 2 threads".into(),
                    );
                }
                Workload::ChurnWalk => {
                    need(
                        st.peak_staged_events >= 100_000,
                        format!("peak staged {} < 1e5", st.peak_staged_events),
                    );
                    need(
                        topo >= 0.05 * events,
                        format!("topology events {topo} under 5% of {events}"),
                    );
                    let skew = o.peak_global_skew.unwrap_or(f64::INFINITY);
                    need(
                        skew <= o.global_skew_bound,
                        format!(
                            "peak global skew {skew} exceeds the bound {}",
                            o.global_skew_bound
                        ),
                    );
                }
                Workload::VisitorWaves => {
                    need(
                        st.peak_batch_len >= s.visitors as u64,
                        format!("peak batch {} < {}", st.peak_batch_len, s.visitors),
                    );
                    need(o.evictions > 0, "no evictions".into());
                }
                Workload::McN4 => unreachable!(),
            }
        }
        (Outcome::Mc(o), _) => {
            for r in &o.reports {
                if let Some((_, why)) = &r.violation {
                    bad.push(format!("{}: violation {why}", r.scenario));
                }
                if rec.mc_states(&r.scenario) != Some(r.states) {
                    bad.push(format!(
                        "{}: {} states, recorded {:?}",
                        r.scenario,
                        r.states,
                        rec.mc_states(&r.scenario)
                    ));
                }
            }
        }
        _ => unreachable!("outcome and spec kinds always match"),
    }
    bad
}

/// Metric and workload names: letters, digits, `_`, `.`, `-`, starting
/// with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
