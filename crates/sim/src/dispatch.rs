//! The deterministic dispatch core shared by every execution mode.
//!
//! One function, [`run_event`], embodies the engine's event semantics.
//! It is called
//!
//! * from worker threads during parallel segments (each worker owns one
//!   shard and processes that shard's slice of the segment in event-seq
//!   order),
//! * inline on the serial fast path (small segments, `threads = 1`),
//! * and for single steps ([`Simulator::step`](crate::Simulator::step)).
//!
//! ## Why all three modes produce bit-identical traces
//!
//! Within a segment (a run of same-instant events between topology
//! barriers), a handler can only observe
//!
//! 1. its own node's state (automaton, timers, discovery watermarks, FIFO
//!    horizons, RNG stream, drift cursor) — owner-exclusive, mutated in
//!    the node's own event-seq order regardless of which thread runs it,
//! 2. the canonical edge state — read-only inside a segment (only
//!    topology events write it, and they are barriers),
//! 3. the drift plane — an immutable [`DriftSource`]; all *mutable*
//!    evaluation state is the owner's private cursor (point 1), and
//!    cursor evaluation is bit-identical to the materialized schedule,
//!    so lazy generation can never show in a trace.
//!
//! Everything a handler *emits* — message deliveries, alarms, drop
//! notifications — is buffered as an [`Effect`] tagged with the
//! triggering event's queue sequence number and the emission index within
//! that event. After the segment, the engine sorts all effects by
//! `(trigger seq, emission idx)` and pushes them into the wheel in that
//! canonical order, so new events receive the same sequence numbers (and
//! therefore the same tie-break order) no matter how many workers ran or
//! how their execution interleaved. Randomness cannot break ties either:
//! every draw comes from the consuming node's private stream
//! (see [`Context::rng`](crate::Context::rng)), never from a shared one.

use crate::automaton::{Action, Automaton, Context};
use crate::delay::DelayStrategy;
use crate::engine::DiscoveryDelay;
use crate::event::{EventPayload, LinkChange, LinkChangeKind, QueuedEvent};
use crate::fault::FaultState;
use crate::model::ModelParams;
use crate::shard::{lazy_rng, EdgeStore, Shard};
use gcs_clocks::{DriftCursor, DriftSource, Time};
use gcs_net::{Edge, NodeId};
use rand::rngs::StdRng;

/// Default parallel threshold: segments (and topology batches) shorter
/// than this run inline on the coordinating thread — handing a few
/// events to the pool costs more than running them. The threshold
/// affects scheduling only — traces are identical either way — and is
/// tunable per run via `SimBuilder::par_threshold` or the
/// `GCS_SIM_PAR_MIN` environment variable.
pub(crate) const PAR_MIN_EVENTS: usize = 64;

/// A deferred engine effect: an event to enqueue once the segment's
/// canonical merge runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Effect {
    /// Queue sequence number of the triggering event.
    pub seq: u64,
    /// Emission index within the triggering event.
    pub k: u32,
    /// When the new event fires.
    pub time: Time,
    /// What it is.
    pub payload: EventPayload,
}

/// The read-only world shared by every worker during one segment.
#[derive(Clone, Copy)]
pub(crate) struct DispatchCtx<'a> {
    pub edges: &'a EdgeStore,
    /// The drift plane; per-node evaluation state lives in the owner's
    /// shard as a lazy cursor.
    pub drift: &'a dyn DriftSource,
    pub delay: &'a DelayStrategy,
    pub discovery: &'a DiscoveryDelay,
    /// Accumulated fault state (crashed set, loss/delay windows, drift
    /// warp) — written only at fault barriers, read by every worker.
    pub faults: &'a FaultState,
    pub params: ModelParams,
    pub now: Time,
    /// Simulation seed (lazy per-node streams key off it).
    pub seed: u64,
    /// Number of shards (for the id → local-index mapping).
    pub shard_count: usize,
    /// Whether to record touched nodes for an attached observer.
    pub observing: bool,
}

impl DispatchCtx<'_> {
    /// The owner of an event — the node whose state it may mutate.
    /// Topology events have no single owner; they are segment barriers and
    /// never reach [`run_event`].
    pub fn owner(payload: &EventPayload) -> NodeId {
        match payload {
            EventPayload::Deliver { to, .. } => *to,
            EventPayload::Alarm { node, .. } => *node,
            EventPayload::Discover { node, .. } => *node,
            EventPayload::Topology { .. } | EventPayload::Fault { .. } => {
                unreachable!("topology and fault events are barriers, not dispatched")
            }
        }
    }
}

/// Hardware reading of `u` at `t` through the lazy drift plane.
///
/// `H(0) = 0` by the model's convention, so queries at time 0 touch
/// nothing. Stateless planes (eager adapters) answer directly from their
/// materialized schedules. Otherwise the node's cursor — created here on
/// first use — advances to `t` (per-node query times are monotone: one
/// memoized read per instant, instants in time order).
pub(crate) fn read_hw(
    ctx: &DispatchCtx<'_>,
    slot: &mut Option<Box<DriftCursor>>,
    u: NodeId,
    t: Time,
) -> f64 {
    if t == Time::ZERO {
        return 0.0;
    }
    if ctx.drift.stateless() {
        return ctx.drift.read_at(u.index(), t);
    }
    let cursor = slot.get_or_insert_with(|| Box::new(ctx.drift.init(u.index())));
    ctx.drift.read(u.index(), cursor, t)
}

/// Hands `f` the right stream for a maybe-drawing strategy: the node's
/// lazy stream when the strategy declares it draws, else the shard's
/// never-drawn scratch stand-in. In debug builds the stand-in is checked
/// to come back untouched — a strategy that draws while declaring
/// `draws() == false` would silently sample shard-shared state and break
/// the trace-invariance argument, so it fails loudly here instead.
pub(crate) fn sample_with_rng<R>(
    draws: bool,
    slot: &mut Option<Box<StdRng>>,
    scratch: &mut StdRng,
    seed: u64,
    index: usize,
    f: impl FnOnce(&mut StdRng) -> R,
) -> R {
    if draws {
        return f(lazy_rng(slot, seed, index));
    }
    #[cfg(debug_assertions)]
    let before = scratch.clone();
    let out = f(scratch);
    #[cfg(debug_assertions)]
    debug_assert!(
        *scratch == before,
        "strategy drew from the scratch stream while declaring draws() == false"
    );
    out
}

/// Subjective-timer inversion for `u` at `now` through the lazy plane.
///
/// The look-ahead past `now` runs on a probe clone, so the persistent
/// cursor never advances beyond `now`. At time 0 the cursor would stay
/// in its initial state, so none is persisted — a node whose only
/// activity is `on_start` keeps zero drift state.
pub(crate) fn fire_hw(
    ctx: &DispatchCtx<'_>,
    slot: &mut Option<Box<DriftCursor>>,
    u: NodeId,
    now: Time,
    delta: f64,
) -> Time {
    if ctx.drift.stateless() {
        return ctx.drift.fire_at(u.index(), now, delta);
    }
    match slot {
        Some(cursor) => ctx.drift.fire_time(u.index(), cursor, now, delta),
        None if now == Time::ZERO => ctx.drift.fire_at(u.index(), now, delta),
        None => {
            let mut cursor = Box::new(ctx.drift.init(u.index()));
            let t = ctx.drift.fire_time(u.index(), &mut cursor, now, delta);
            *slot = Some(cursor);
            t
        }
    }
}

/// Processes one shard's slice of a segment, in event-seq order.
pub(crate) fn run_shard<A: Automaton>(ctx: &DispatchCtx<'_>, shard: &mut Shard<A>) {
    let events = std::mem::take(&mut shard.events);
    for ev in &events {
        let owner = DispatchCtx::owner(&ev.payload);
        run_event(ctx, shard, owner, ev);
    }
    shard.events = events;
    shard.events.clear();
}

/// Processes a single non-topology event against its owner's shard.
pub(crate) fn run_event<A: Automaton>(
    ctx: &DispatchCtx<'_>,
    shard: &mut Shard<A>,
    owner: NodeId,
    ev: &QueuedEvent,
) {
    let local = owner.index() / ctx.shard_count;
    // A crashed node executes nothing: deliveries to it vanish (the edge
    // is up, so the sender is *not* notified — unlike a removal, a crash
    // is silent), its alarms and discoveries are suppressed. Watermarks
    // are left untouched so a restarted node re-learns its edges through
    // the fresh discoveries the restart schedules.
    if ctx.faults.is_crashed(owner) {
        match ev.payload {
            EventPayload::Deliver { .. } => shard.stats.dropped_crashed += 1,
            _ => shard.stats.suppressed_crashed += 1,
        }
        return;
    }
    shard.table.ensure(local);
    match ev.payload {
        EventPayload::Deliver {
            from,
            to,
            msg,
            epoch,
            ..
        } => {
            let edge = Edge::new(from, to);
            let state = ctx.edges.find(edge);
            if state.map(|e| e.live && e.epoch == epoch).unwrap_or(false) {
                shard.stats.messages_delivered += 1;
                // A delivery touches the node: rehydrate it from the cold
                // tier before the handler observes any state. (The drop
                // path below touches only the *sender*, so it leaves the
                // owner cold.)
                shard.table.rehydrate(local, &mut shard.nodes[local]);
                run_handler(ctx, shard, owner, local, ev.seq, |a, c| {
                    a.on_receive(c, from, msg)
                });
            } else {
                // Dropped in flight: the model obliges the environment to
                // tell the sender within D of the send; we tell it now
                // (≤ send + T).
                shard.stats.dropped_in_flight += 1;
                let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                shard.effects.push(Effect {
                    seq: ev.seq,
                    k: 0,
                    time: ctx.now,
                    payload: EventPayload::Discover {
                        node: from,
                        change: LinkChange {
                            kind: LinkChangeKind::Removed,
                            edge,
                        },
                        version,
                    },
                });
            }
        }
        EventPayload::Alarm {
            kind, generation, ..
        } => {
            // No rehydration here, by construction: eviction requires no
            // armed timer, so an alarm reaching a cold node is stale on
            // the drained slots (`get` → `None`) exactly as it would be
            // on the hot ones (generation mismatch) — same branch, same
            // stats.
            if shard.table.timers[local].get(kind) != Some(generation) {
                shard.stats.alarms_stale += 1;
                return;
            }
            debug_assert!(
                !shard.table.is_cold(local),
                "live alarm against a cold node: eviction let an armed timer through"
            );
            shard.table.timers[local].disarm(kind);
            shard.stats.alarms_fired += 1;
            run_handler(ctx, shard, owner, local, ev.seq, |a, c| a.on_alarm(c, kind));
        }
        EventPayload::Discover {
            change, version, ..
        } => {
            // Rehydrate before the staleness check: the discovery
            // watermark being compared lives in the packed peer state.
            shard.table.rehydrate(local, &mut shard.nodes[local]);
            let other = change.edge.other(owner);
            let peer = shard.table.peer(local, other);
            if version <= peer.discovered_version {
                shard.stats.discovers_stale += 1;
                return;
            }
            peer.discovered_version = version;
            shard.stats.discovers_delivered += 1;
            run_handler(ctx, shard, owner, local, ev.seq, |a, c| {
                a.on_discover(c, change)
            });
        }
        EventPayload::Topology { .. } | EventPayload::Fault { .. } => {
            unreachable!("barrier events are applied serially between segments")
        }
    }
}

/// Runs one handler on its owner and turns the produced [`Action`]s into
/// effects, applying owner-local side effects (timer generations, FIFO
/// horizons, RNG draws, cursor advances) immediately so later events of
/// the *same* node in the same segment observe them — exactly as the
/// per-event engine did.
pub(crate) fn run_handler<A: Automaton>(
    ctx: &DispatchCtx<'_>,
    shard: &mut Shard<A>,
    u: NodeId,
    local: usize,
    seq: u64,
    f: impl FnOnce(&mut A, &mut Context<'_>),
) {
    let Shard {
        nodes,
        table,
        effects,
        stats,
        touched,
        actions,
        scratch_rng,
        ..
    } = shard;
    // One drift-plane evaluation per node per instant (two events at the
    // same instant read the same hardware value by definition). At time 0
    // every clock reads exactly 0, so `on_start` dispatch touches no
    // table slot — a node whose start handler does nothing never
    // materializes any engine state at all.
    let base = if ctx.now == Time::ZERO {
        0.0
    } else {
        table.ensure(local);
        if table.hw_time[local] != ctx.now {
            table.hw[local] = read_hw(ctx, &mut table.drift[local], u, ctx.now);
            table.hw_time[local] = ctx.now;
        }
        table.hw[local]
    };
    // The *observed* reading adds any drift-excursion warp. The memo and
    // the cursor stay on the base plane — warp is a pure function of
    // `(node, now)` given the applied faults, so re-adding it at every
    // observation point keeps all paths (handlers, `Simulator::hardware`,
    // later instants) consistent. Exactly 0.0 on clean runs, so fault-free
    // traces are bit-identical to builds without a fault plane.
    let warp = ctx.faults.hw_warp(u, ctx.now);
    let hw = if warp != 0.0 { base + warp } else { base };
    actions.clear();
    // The RNG slot rides outside the table during the handler so a
    // not-yet-materialized node only claims its slots if the handler
    // actually did something (drew, or emitted actions).
    let ensured = local < table.watermark();
    let mut rng_slot = if ensured {
        table.rng[local].take()
    } else {
        None
    };
    {
        let mut c = Context::with_lazy_rng(u, ctx.now, hw, actions, &mut rng_slot, ctx.seed);
        f(&mut nodes[local], &mut c);
    }
    if ensured || rng_slot.is_some() || !actions.is_empty() {
        table.ensure(local);
        table.rng[local] = rng_slot;
    }
    if ctx.observing {
        touched.push(u);
    }
    let mut k = 0u32;
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => {
                stats.messages_sent += 1;
                let edge = Edge::new(u, to);
                // An open loss window swallows the send silently: no
                // delivery, no sender notification — unlike a removed
                // edge, the window is invisible to the protocol.
                if ctx.faults.drops(ctx.now, edge) {
                    stats.dropped_fault_window += 1;
                    k += 1;
                    continue;
                }
                let state = ctx.edges.find(edge);
                if state.map(|e| e.live).unwrap_or(false) {
                    let epoch = state.expect("live edge has an entry").epoch;
                    // A delay spike overrides the strategy (and skips its
                    // draw — spike windows are deterministic, so this is
                    // thread-count invariant); otherwise the node's stream
                    // materializes only for strategies that actually draw.
                    let d = if let Some(spike) = ctx.faults.delay_override(ctx.now) {
                        stats.delay_spiked += 1;
                        spike
                    } else {
                        sample_with_rng(
                            ctx.delay.draws(),
                            &mut table.rng[local],
                            scratch_rng,
                            ctx.seed,
                            u.index(),
                            |rng| ctx.delay.delay(edge, u, ctx.now, ctx.params.t, rng),
                        )
                    };
                    let mut deliver_at = ctx.now + gcs_clocks::Duration::new(d);
                    // FIFO per directed link: never deliver before an
                    // earlier message.
                    let peer = table.peer(local, to);
                    deliver_at = deliver_at.max(peer.fifo_out);
                    peer.fifo_out = deliver_at;
                    effects.push(Effect {
                        seq,
                        k,
                        time: deliver_at,
                        payload: EventPayload::Deliver {
                            from: u,
                            to,
                            msg,
                            epoch,
                        },
                    });
                } else {
                    // The edge does not exist: the message is not delivered
                    // and the sender discovers that within D.
                    stats.dropped_no_edge += 1;
                    let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                    let lat = sample_with_rng(
                        ctx.discovery.draws(),
                        &mut table.rng[local],
                        scratch_rng,
                        ctx.seed,
                        u.index(),
                        |rng| ctx.discovery.sample(ctx.params.d, rng),
                    );
                    effects.push(Effect {
                        seq,
                        k,
                        time: ctx.now + gcs_clocks::Duration::new(lat),
                        payload: EventPayload::Discover {
                            node: u,
                            change: LinkChange {
                                kind: LinkChangeKind::Removed,
                                edge,
                            },
                            version,
                        },
                    });
                }
                k += 1;
            }
            Action::SetTimer { delta, kind } => {
                let generation = table.timers[local].arm(kind);
                let fire = fire_hw(ctx, &mut table.drift[local], u, ctx.now, delta);
                effects.push(Effect {
                    seq,
                    k,
                    time: fire,
                    payload: EventPayload::Alarm {
                        node: u,
                        kind,
                        generation,
                    },
                });
                k += 1;
            }
            Action::CancelTimer { kind } => table.timers[local].cancel(kind),
        }
    }
}

/// A job handed to a pool worker: any closure over borrows that outlive
/// the [`WorkerPool::run`] call that submitted it (`run` blocks until
/// every submitted job completes, which is what makes the lifetime
/// erasure in `run` sound).
pub(crate) type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The erased form a worker thread actually receives.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One long-lived worker: its job channel, its completion channel, and
/// the OS thread itself.
struct Worker {
    job_tx: std::sync::mpsc::Sender<Job>,
    done_rx: std::sync::mpsc::Receiver<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A persistent pool of shard-pinned worker lanes.
///
/// The pre-pool dispatcher paid a `std::thread::scope` spawn/join for
/// every wide segment — tens of microseconds of thread creation per
/// barrier, dominating segment cost under sustained churn. The pool
/// spawns its threads once (lazily, at the first wide segment) and feeds
/// them per-barrier jobs over plain `mpsc` channels.
///
/// **Leader participation**: lane 0 *is* the submitting thread. The
/// coordinator would otherwise block in `recv` while its workers run, so
/// it executes lane 0's job itself after handing out the rest — one
/// fewer OS thread, one fewer channel round-trip per barrier, and on a
/// two-lane pool the barrier costs a single send/recv pair.
///
/// **Pinning**: the engine always submits the job for shard chunk `w` to
/// lane `w`, so the shard → lane assignment is fixed for the life of
/// the simulator (warm caches, and no cross-lane migration of shard
/// state). Pinning — like everything else about the pool — is
/// scheduling only: traces are bit-identical to the inline path because
/// jobs run the same `run_shard`/`apply_batch` bodies over
/// the same disjoint `&mut` partitions.
///
/// **Soundness**: jobs capture non-`'static` borrows of the simulator's
/// shards; [`run`](Self::run) transmutes that lifetime away to cross the
/// channel and then blocks until every submitted job has signalled
/// completion (or its worker has died), re-establishing the guarantee a
/// scoped spawn gives statically: no borrow outlives the call.
///
/// **Panics**: a panicking job kills its worker thread, closing both its
/// channels. `run` detects the closed channel, *first* waits for every
/// other submitted job (so no borrow is still in flight), then joins the
/// dead worker and re-raises its payload on the coordinating thread —
/// a worker panic fails the run loudly instead of deadlocking it.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    /// Jobs submitted over the pool's lifetime (test observability).
    jobs_run: u64,
}

impl WorkerPool {
    /// Spawns a pool with `lanes` parallel lanes: lane 0 is the
    /// submitting thread itself, lanes `1..lanes` are OS threads named
    /// for debuggability.
    pub fn spawn(lanes: usize) -> Self {
        assert!(lanes >= 1, "a pool needs at least one lane");
        let workers = (1..lanes)
            .map(|i| {
                let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
                let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
                let handle = std::thread::Builder::new()
                    .name(format!("gcs-shard-{i}"))
                    .spawn(move || {
                        // Exits when the pool drops its sender; dies (and
                        // is detected through its closed channels) if a
                        // job panics.
                        while let Ok(job) = job_rx.recv() {
                            job();
                            if done_tx.send(()).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("failed to spawn shard worker");
                Worker {
                    job_tx,
                    done_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool {
            workers,
            jobs_run: 0,
        }
    }

    /// Number of lanes, counting the caller's lane 0.
    pub fn size(&self) -> usize {
        self.workers.len() + 1
    }

    /// Jobs submitted over the pool's lifetime.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Runs every `(lane, job)` pair on its pinned lane — lane 0 inline
    /// on the caller, the rest on their worker threads — and blocks
    /// until all of them complete. Propagates the first panic (inline
    /// first, then workers) after every other submitted job has
    /// finished.
    pub fn run<'scope>(&mut self, jobs: Vec<(usize, ScopedJob<'scope>)>) {
        let mut inline: Vec<ScopedJob<'scope>> = Vec::new();
        let mut pending: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut dead: Option<usize> = None;
        for (lane, job) in jobs {
            self.jobs_run += 1;
            if lane == 0 {
                inline.push(job);
                continue;
            }
            let w = lane - 1;
            // SAFETY: the borrows captured by `job` live for `'scope`,
            // which encloses this call; the loops below do not return
            // until the worker has either finished the job (completion
            // message) or died without completing it (closed channel) —
            // in both cases the job no longer runs, so no borrow escapes
            // the call. An unsent job (dead worker) is dropped here,
            // inside `'scope`, without ever running. This is the same
            // lifetime erasure a scoped spawn performs internally; the
            // workspace-wide `unsafe_code = "deny"` is waived for this
            // single statement.
            #[allow(unsafe_code)]
            let job: Job = unsafe { std::mem::transmute::<ScopedJob<'scope>, Job>(job) };
            if self.workers[w].job_tx.send(job).is_ok() {
                pending.push(w);
            } else {
                dead.get_or_insert(w);
            }
        }
        // Leader participation: run lane 0 while the workers chew on
        // theirs. An inline panic must not unwind yet — remote jobs still
        // hold caller-frame borrows — so it is caught and re-raised after
        // the barrier, exactly like a worker death.
        let mut inline_panic = None;
        for job in inline {
            if inline_panic.is_none() {
                inline_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).err();
            }
        }
        for w in pending {
            if self.workers[w].done_rx.recv().is_err() {
                dead.get_or_insert(w);
            }
        }
        // Every live worker is idle again and every dead worker has
        // stopped executing — only now is unwinding (which releases the
        // borrows the jobs captured) safe.
        if let Some(payload) = inline_panic {
            std::panic::resume_unwind(payload);
        }
        if let Some(w) = dead {
            match self.workers[w].handle.take().map(|h| h.join()) {
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                _ => panic!("shard worker {} terminated unexpectedly", w + 1),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for Worker {
            job_tx,
            done_rx,
            handle,
        } in self.workers.drain(..)
        {
            // Closing the job channel is the shutdown signal; join
            // errors are ignored (the panic, if any, was already
            // propagated by `run`, and a second panic mid-unwind would
            // abort).
            drop(job_tx);
            drop(done_rx);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_jobs_on_pinned_workers_and_reuses_threads() {
        let mut pool = WorkerPool::spawn(2);
        let mut out = [0usize; 2];
        let names: [std::sync::Mutex<Vec<String>>; 2] = Default::default();
        for round in 1..=3 {
            let (a, b) = out.split_at_mut(1);
            let jobs: Vec<(usize, ScopedJob<'_>)> = vec![
                (0, {
                    let names = &names[0];
                    Box::new(move || {
                        a[0] += round;
                        names
                            .lock()
                            .unwrap()
                            .push(std::thread::current().name().unwrap_or("").to_owned());
                    })
                }),
                (1, {
                    let names = &names[1];
                    Box::new(move || {
                        b[0] += round * 10;
                        names
                            .lock()
                            .unwrap()
                            .push(std::thread::current().name().unwrap_or("").to_owned());
                    })
                }),
            ];
            pool.run(jobs);
        }
        assert_eq!(out, [6, 60]);
        assert_eq!(pool.jobs_run(), 6);
        let caller = std::thread::current().name().unwrap_or("").to_owned();
        for (lane, names) in names.iter().enumerate() {
            let expected = if lane == 0 {
                // Leader participation: lane 0 runs on the submitting
                // thread itself.
                caller.clone()
            } else {
                format!("gcs-shard-{lane}")
            };
            let names = names.lock().unwrap();
            assert_eq!(names.len(), 3);
            assert!(
                names.iter().all(|n| *n == expected),
                "jobs for chunk {lane} must stay pinned to lane {lane} ({expected}): {names:?}"
            );
        }
    }

    #[test]
    fn pool_drop_joins_idle_workers() {
        let pool = WorkerPool::spawn(4);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_propagates_worker_panics_after_draining() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pool = WorkerPool::spawn(2);
            pool.run(vec![
                (0, {
                    let finished = &finished;
                    Box::new(move || {
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as ScopedJob<'_>
                }),
                (1, Box::new(|| panic!("job exploded"))),
            ]);
        }));
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job exploded", "original payload re-raised");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "other submitted jobs complete before the panic unwinds"
        );
    }

    #[test]
    fn pool_propagates_inline_lane_panics_after_the_barrier() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pool = WorkerPool::spawn(2);
            pool.run(vec![
                (0, Box::new(|| panic!("leader exploded")) as ScopedJob<'_>),
                (1, {
                    let finished = &finished;
                    Box::new(move || {
                        finished.fetch_add(1, Ordering::SeqCst);
                    })
                }),
            ]);
        }));
        let payload = result.expect_err("inline panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "leader exploded");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "remote jobs complete before the inline panic unwinds"
        );
    }
}
