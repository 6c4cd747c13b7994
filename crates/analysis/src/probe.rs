//! Event-driven streaming observability.
//!
//! The pull-snapshot [`Recorder`](crate::Recorder) evaluates every node's
//! logical clock (`O(n)`) and every edge's skew (`O(m)`) at each sample
//! instant, and at `n = 65 536` that dominates the run. This module keeps
//! skew observability **streaming**: the engine reports, after every
//! processed instant, which nodes' handlers ran
//! ([`Simulator::run_until_with`]), and a [`SkewStream`] maintains
//! per-node clock offsets and per-edge skews *incrementally* — exact for
//! every touched node, nominally advanced (rate 1) for untouched ones.
//!
//! ## The error certificate
//!
//! Between exact evaluations a node's logical clock advances at its
//! hardware rate (plus non-negative discrete jumps, which always coincide
//! with events — i.e. with touches). The nominal advance therefore errs by
//! at most `ρ̂ · staleness` per node, where `ρ̂` is the drift bound and
//! `staleness` is the time since the node's last touch — so any reported
//! *skew* (a difference of two clock values) errs by at most twice that.
//! [`SkewStream`] tracks the worst staleness it ever relied on —
//! including, for the global extrema, the staleness of the
//! least-recently-touched node — and exposes
//! [`SkewStream::error_bound`]: the reported peaks are exact up to that
//! bound, with `O(touched · degree)` work per instant and `O(n)` memory.
//! Under any live protocol that ticks every `ΔH` subjective time, the
//! staleness (hence the error) is bounded by a constant independent of
//! the horizon.

use gcs_clocks::Time;
use gcs_net::NodeId;
use gcs_sim::{Automaton, Simulator};

/// Incremental global/local skew tracking, fed from engine instants.
#[derive(Clone, Debug)]
pub struct SkewStream {
    /// Drift bound `ρ̂` used for the error certificate.
    rho_hat: f64,
    /// `L_u(stamp_u) − stamp_u`: the node's clock, detrended by the
    /// nominal rate-1 advance, at its last exact evaluation.
    offsets: Vec<f64>,
    /// Last exact evaluation time per node.
    stamps: Vec<f64>,
    /// Running extrema of `offsets` with their witness nodes (refreshed
    /// by full rescan every [`refresh_every`](Self::new) instants; kept
    /// current between rescans while that is cheap — see `dirty`).
    min_offset: f64,
    max_offset: f64,
    argmin: usize,
    argmax: usize,
    /// Set when a witness node's offset moved *away* from its extremum —
    /// the cached extremum may then belong to no current cache entry, so
    /// folding it into the global peak would pair values from different
    /// times (overreporting beyond the certificate). While dirty, the
    /// global peak is not advanced; the next rescan recomputes the
    /// extrema consistently and clears the flag.
    dirty: bool,
    /// Conservative lower bound on `min(stamps)`: recomputed at each
    /// rescan. Stamps only ever increase, so a cached minimum never
    /// overestimates the true one — using it overestimates staleness,
    /// keeping the certificate sound between rescans.
    min_stamp: f64,
    /// Peak of the streamed global-skew estimate.
    peak_global: f64,
    /// Peak of the streamed per-edge skew estimate.
    peak_local: f64,
    /// Worst staleness of any cached value actually used — including, at
    /// every global-skew update, the (conservative) staleness of the
    /// least-recently-touched node, since the offset extrema may rest on
    /// any cached entry.
    max_staleness_used: f64,
    refresh_every: u64,
    instants_seen: u64,
}

impl SkewStream {
    /// A tracker over `n` nodes (all clocks start at 0 at time 0) under
    /// drift bound `rho_hat`. `refresh_every` controls how often (in
    /// instants) the offset extrema are recomputed by a full `O(n)`
    /// rescan; between rescans they are maintained monotonically.
    pub fn new(n: usize, rho_hat: f64, refresh_every: u64) -> Self {
        assert!(n > 0, "need at least one node");
        assert!((0.0..1.0).contains(&rho_hat));
        assert!(refresh_every >= 1);
        SkewStream {
            rho_hat,
            offsets: vec![0.0; n],
            stamps: vec![0.0; n],
            min_offset: 0.0,
            max_offset: 0.0,
            argmin: 0,
            argmax: 0,
            dirty: false,
            min_stamp: 0.0,
            peak_global: 0.0,
            peak_local: 0.0,
            max_staleness_used: 0.0,
            refresh_every,
            instants_seen: 0,
        }
    }

    /// Feeds one engine instant: `touched` are the nodes whose handlers
    /// ran (as delivered by [`Simulator::run_until_with`]). Evaluates the
    /// touched nodes exactly, refreshes their incident-edge skews, and
    /// advances the running peaks.
    pub fn observe<A: Automaton>(&mut self, sim: &Simulator<A>, t: Time, touched: &[NodeId]) {
        let now = t.seconds();
        self.instants_seen += 1;
        for &u in touched {
            let exact = sim.logical(u);
            let offset = exact - now;
            self.offsets[u.index()] = offset;
            self.stamps[u.index()] = now;
            if offset >= self.max_offset {
                self.max_offset = offset;
                self.argmax = u.index();
            } else if u.index() == self.argmax {
                self.dirty = true;
            }
            if offset <= self.min_offset {
                self.min_offset = offset;
                self.argmin = u.index();
            } else if u.index() == self.argmin {
                self.dirty = true;
            }
            for v in sim.neighbors(u) {
                let staleness = now - self.stamps[v.index()];
                let estimate_v = self.offsets[v.index()] + now;
                self.max_staleness_used = self.max_staleness_used.max(staleness);
                self.peak_local = self.peak_local.max((exact - estimate_v).abs());
            }
        }
        if self.instants_seen.is_multiple_of(self.refresh_every) {
            self.rescan_extrema();
        }
        if !self.dirty {
            // The extrema may rest on *any* cached offset, so charge the
            // certificate with the staleness of the least-recently-touched
            // node (conservatively, via the cached minimum stamp).
            self.max_staleness_used = self.max_staleness_used.max(now - self.min_stamp);
            self.peak_global = self.peak_global.max(self.max_offset - self.min_offset);
        }
    }

    /// Recomputes the offset extrema and the minimum stamp exactly
    /// (offsets of untouched nodes are unchanged since their stamps, so
    /// this never reads the sim).
    fn rescan_extrema(&mut self) {
        self.min_offset = f64::INFINITY;
        self.max_offset = f64::NEG_INFINITY;
        for (i, &o) in self.offsets.iter().enumerate() {
            if o < self.min_offset {
                self.min_offset = o;
                self.argmin = i;
            }
            if o > self.max_offset {
                self.max_offset = o;
                self.argmax = i;
            }
        }
        self.min_stamp = self.stamps.iter().cloned().fold(f64::INFINITY, f64::min);
        self.dirty = false;
    }

    /// Peak streamed global skew (max − min of detrended clock offsets,
    /// advanced only while the cached extrema are mutually consistent —
    /// between an extremum's invalidation and the next rescan the peak
    /// holds rather than pairing values from different times).
    pub fn peak_global_skew(&self) -> f64 {
        self.peak_global
    }

    /// Peak streamed per-edge skew over edges incident to touched nodes.
    pub fn peak_local_skew(&self) -> f64 {
        self.peak_local
    }

    /// Certified upper bound on the error of any reported skew peak:
    /// `2 ρ̂ ×` the worst staleness of a cached clock the tracker ever
    /// relied on. A skew is a difference of two clock values, each of
    /// which may be a nominally-advanced cache entry erring by at most
    /// `ρ̂ × staleness`, hence the factor 2 (for the local peak one
    /// endpoint is always exact, so this over-covers it).
    pub fn error_bound(&self) -> f64 {
        2.0 * self.rho_hat * self.max_staleness_used
    }

    /// Worst staleness of any cached clock value used so far.
    pub fn max_staleness_used(&self) -> f64 {
        self.max_staleness_used
    }

    /// Instants observed so far.
    pub fn instants_seen(&self) -> u64 {
        self.instants_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;
    use gcs_core::{AlgoParams, GradientNode};
    use gcs_net::{generators, ScheduleSource, TopologySchedule};
    use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

    fn run_with_stream(n: usize, horizon: f64) -> (SkewStream, f64, f64) {
        let model = ModelParams::new(0.01, 1.0, 2.0);
        let params = AlgoParams::with_minimal_b0(model, n, 0.5);
        let mut sim = SimBuilder::topology(
            model,
            ScheduleSource::new(TopologySchedule::static_graph(n, generators::path(n))),
        )
        .delay(DelayStrategy::Max)
        .build_with(move |_| GradientNode::new(params));
        let mut stream = SkewStream::new(n, model.rho, 16);
        sim.run_until_with(at(horizon), |sim, t, touched| {
            stream.observe(sim, t, touched);
        });
        // Exact references at the end of the run.
        let logical = sim.logical_snapshot();
        let exact_global = crate::metrics::global_skew(&logical);
        let exact_local = crate::metrics::max_local_skew(&sim);
        (stream, exact_global, exact_local)
    }

    #[test]
    fn streams_skew_within_certified_error() {
        let (stream, exact_global, exact_local) = run_with_stream(16, 40.0);
        assert!(stream.instants_seen() > 0);
        let eps = stream.error_bound();
        // Peaks dominate the final exact values up to the certificate
        // (peaks are over the whole run, the exact values are end-of-run).
        assert!(
            stream.peak_global_skew() + eps >= exact_global,
            "streamed {} + {eps} < exact {exact_global}",
            stream.peak_global_skew()
        );
        assert!(stream.peak_local_skew() + eps >= exact_local);
        // With perfect clocks here the certificate is exactly zero only if
        // rho were 0; it must at least be finite and small.
        assert!(eps.is_finite());
    }

    #[test]
    fn error_certificate_scales_with_staleness() {
        let (stream, _, _) = run_with_stream(8, 20.0);
        assert!(stream.max_staleness_used() >= 0.0);
        assert!((stream.error_bound() - 2.0 * 0.01 * stream.max_staleness_used()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_rejected() {
        let _ = SkewStream::new(0, 0.01, 8);
    }
}
