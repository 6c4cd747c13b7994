//! In-memory tracing owned by the benchmark: per-call probe counters fed
//! by the forwarding wrappers in [`crate::wrap`], and spans around the
//! public library calls the benchmark makes.
//!
//! Probe counters are per thread (the engine runs handlers and drift
//! reads on its worker lanes): each thread owns one [`Cells`] block it
//! alone writes, registered in a global list. [`snapshot`] sums the
//! blocks. The engine's workers are parked at a barrier whenever
//! `run_until` returns, so a snapshot taken between library calls sees
//! every write of the calls before it.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-call probe point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    OnStart,
    OnReceive,
    OnAlarm,
    OnDiscover,
    /// Every `DriftSource` evaluation (init, segment advance, reads,
    /// timer inversions).
    Drift,
    /// `TopologySource::peek_time` and `initial_edges`.
    Peek,
    /// `TopologySource::pull_until`; its count field is the pulled
    /// events, not the calls (see [`Probe::PullCall`]).
    Pull,
    /// `pull_until` call count (time is booked under [`Probe::Pull`]).
    PullCall,
    /// The `SkewStream::observe` closure, excluding the drift reads it
    /// makes (those stay under [`Probe::Drift`]).
    Observe,
}

impl Probe {
    pub const ALL: [Probe; 9] = [
        Probe::OnStart,
        Probe::OnReceive,
        Probe::OnAlarm,
        Probe::OnDiscover,
        Probe::Drift,
        Probe::Peek,
        Probe::Pull,
        Probe::PullCall,
        Probe::Observe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Probe::OnStart => "core.on_start",
            Probe::OnReceive => "core.on_receive",
            Probe::OnAlarm => "core.on_alarm",
            Probe::OnDiscover => "core.on_discover",
            Probe::Drift => "clocks.drift",
            Probe::Peek => "net.peek",
            Probe::Pull => "net.pull",
            Probe::PullCall => "net.pull_call",
            Probe::Observe => "analysis.observe",
        }
    }
}

const N: usize = Probe::ALL.len();

/// Nanoseconds and counts per probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ns: [u64; N],
    pub count: [u64; N],
}

impl Counts {
    pub fn seconds(&self, p: Probe) -> f64 {
        self.ns[p as usize] as f64 * 1e-9
    }

    pub fn calls(&self, p: Probe) -> u64 {
        self.count[p as usize]
    }

    /// `self − earlier`, element-wise.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut d = Counts::default();
        for i in 0..N {
            d.ns[i] = self.ns[i] - earlier.ns[i];
            d.count[i] = self.count[i] - earlier.count[i];
        }
        d
    }
}

/// One thread's counters. Only the owning thread stores into them, so a
/// load + store pair is race-free and cheaper than a locked add.
struct Cells {
    ns: [AtomicU64; N],
    count: [AtomicU64; N],
}

static REGISTRY: Mutex<Vec<Arc<Cells>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Cells> = {
        let cells = Arc::new(Cells {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            count: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        REGISTRY.lock().unwrap().push(cells.clone());
        cells
    };
}

/// Books `ns` nanoseconds and `count` units to `probe` on this thread.
#[inline]
pub fn record(probe: Probe, ns: u64, count: u64) {
    LOCAL.with(|c| {
        let i = probe as usize;
        c.ns[i].store(c.ns[i].load(Relaxed) + ns, Relaxed);
        c.count[i].store(c.count[i].load(Relaxed) + count, Relaxed);
    });
}

/// Books the time since `start` and one call to `probe`.
#[inline]
pub fn record_since(probe: Probe, start: Instant) {
    record(probe, start.elapsed().as_nanos() as u64, 1);
}

/// This thread's probed nanoseconds for `probe` so far.
#[inline]
pub fn local_ns(probe: Probe) -> u64 {
    LOCAL.with(|c| c.ns[probe as usize].load(Relaxed))
}

/// This thread's probed nanoseconds over all probes.
fn local_total_ns() -> u64 {
    LOCAL.with(|c| c.ns.iter().map(|x| x.load(Relaxed)).sum())
}

/// Sum over every thread that ever recorded.
pub fn snapshot() -> Counts {
    let mut out = Counts::default();
    for cells in REGISTRY.lock().unwrap().iter() {
        for i in 0..N {
            out.ns[i] += cells.ns[i].load(Relaxed);
            out.count[i] += cells.count[i].load(Relaxed);
        }
    }
    out
}

/// One span: a public library call (or a phase made of them), with the
/// probe activity inside it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    /// Probe activity over the whole span, children included, on every
    /// thread.
    pub probes: Counts,
    /// Probed nanoseconds on the span's own thread. Worker lanes run in
    /// parallel with it, so only these cover the span's interval.
    pub own_probe_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A stack of open spans plus every closed one, kept in memory until the
/// benchmark writes them out.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Counts, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let at_start = snapshot();
        let own_at_start = local_total_ns();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(p, _, _)| p),
            start,
            end: start,
            probes: Counts::default(),
            own_probe_ns: 0,
        });
        self.open.push((id, at_start, own_at_start));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let (top, at_start, own_at_start) = self.open.pop().expect("no open span");
        assert_eq!(top, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.own_probe_ns = local_total_ns() - own_at_start;
        span.probes = snapshot().since(&at_start);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every span called `name`.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of span `id`: its duration minus what its child spans
    /// cover and minus the probed calls made directly inside it on its
    /// own thread. With worker lanes, time the span's thread spends
    /// waiting for them stays in its self time.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut covered = 0.0;
        let mut child_probe_ns = 0;
        for child in self.spans.iter().filter(|s| s.parent == Some(id)) {
            covered += child.seconds();
            child_probe_ns += child.own_probe_ns;
        }
        let direct_probe_ns = span.own_probe_ns - child_probe_ns;
        span.seconds() - covered - direct_probe_ns as f64 * 1e-9
    }

    /// The spans as a JSON array (written out when a traced run ends).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let probes = Probe::ALL
                        .iter()
                        .filter(|&&p| s.probes.calls(p) > 0)
                        .map(|&p| {
                            let pair = vec![
                                Json::Num(s.probes.seconds(p)),
                                Json::Num(s.probes.calls(p) as f64),
                            ];
                            (p.name(), Json::Arr(pair))
                        });
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", s.name.into()),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        ("self_s", Json::Num(self.self_seconds(id))),
                        ("probes", Json::obj(probes)),
                    ])
                })
                .collect(),
        )
    }
}
