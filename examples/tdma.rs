//! TDMA slot scheduling — the motivating application from the paper's
//! introduction, behind the [`Scenario`] experiment surface.
//!
//! In a wireless network, interference is local: a TDMA schedule only needs
//! the clocks of *neighboring* nodes to agree. Each node divides its
//! logical clock into frames of `SLOTS` slots and transmits during its own
//! slot. Two neighbors collide when their transmission windows overlap in
//! real time, which happens exactly when their logical skew exceeds the
//! guard band left around each slot.
//!
//! This example runs Algorithm 2 on a random geometric network, derives
//! the minimum guard band that would have avoided all collisions (the peak
//! neighbor skew), and contrasts it with the network-wide skew a
//! global-skew-only deployment would have to budget for.
//!
//! Run with: `cargo run --release --example tdma`

use gcs_net::ScheduleSource;
use gradient_clock_sync::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOTS: usize = 8;
const SLOT_LEN: f64 = 1.0;
/// Nodes transmit only during the first half of their slot; the second
/// half is the guard band absorbing neighbor skew.
const GUARD: f64 = SLOT_LEN / 2.0;

/// The TDMA workload: geometric network, random-walk drift, random delays.
struct Tdma {
    n: usize,
    horizon: f64,
    seed: u64,
}

impl Scenario for Tdma {
    fn id(&self) -> &'static str {
        "tdma"
    }
    fn title(&self) -> &'static str {
        "TDMA guard bands sized by local, not global, skew"
    }
    fn claim(&self) -> &'static str {
        "§1 motivation — the gradient property is what TDMA actually needs"
    }
    fn run_scenario(&self) -> ScenarioReport {
        let model = ModelParams::new(0.01, 1.0, 2.0);
        let params = AlgoParams::with_minimal_b0(model, self.n, 0.5);
        let mut rep = ScenarioReport::new();

        // Random geometric layout: nodes within radius 0.35 interfere.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let positions = generators::random_positions(self.n, &mut rng);
        let mut edges = generators::geometric(&positions, 0.35);
        // Keep the deployment connected (the model requires it).
        for e in generators::path(self.n) {
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        let schedule = TopologySchedule::static_graph(self.n, edges.clone());
        let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
            .drift_model(DriftModel::RandomWalk { step: 5.0 }, self.horizon)
            .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
            .seed(self.seed)
            .build_with(|_| GradientNode::new(params));

        // Let the budgets settle, then observe a long steady-state window.
        let settle = params.w() + params.budget_settle_age() / (1.0 - model.rho);
        sim.run_until(at(settle));
        rep.note(format!(
            "{} nodes, {} links; frame = {SLOTS} slots x {SLOT_LEN}s, settled after t = {settle:.0}",
            self.n,
            edges.len()
        ));

        let mut peak_neighbor_skew: f64 = 0.0;
        let mut peak_global_skew: f64 = 0.0;
        let mut collisions = 0u64;
        let mut checks = 0u64;
        let mut t = settle;
        while t < self.horizon + settle {
            t += 0.5;
            sim.run_until(at(t));
            let clocks = sim.logical_snapshot();
            peak_global_skew = peak_global_skew.max(metrics::global_skew(&clocks));
            for e in sim.edges() {
                let skew = (clocks[e.lo().index()] - clocks[e.hi().index()]).abs();
                peak_neighbor_skew = peak_neighbor_skew.max(skew);
                // Neighbors sharing a slot index always clash — that is a
                // slot *assignment* (coloring) issue, not a synchronization
                // one; only differently-slotted pairs test the clocks.
                if e.lo().index() % SLOTS == e.hi().index() % SLOTS {
                    continue;
                }
                // A node transmits when its own logical clock sits inside
                // the transmit window (first SLOT_LEN − GUARD) of its slot.
                let transmitting = |w: NodeId, l: f64| -> bool {
                    let in_frame = l.rem_euclid(SLOT_LEN * SLOTS as f64);
                    let slot = (in_frame / SLOT_LEN).floor() as usize;
                    let in_slot = in_frame - slot as f64 * SLOT_LEN;
                    slot == w.index() % SLOTS && in_slot < SLOT_LEN - GUARD
                };
                checks += 1;
                if transmitting(e.lo(), clocks[e.lo().index()])
                    && transmitting(e.hi(), clocks[e.hi().index()])
                {
                    collisions += 1;
                }
            }
        }

        let mut table = Table::new("interference budget", &["quantity", "value"]);
        table.row(&[
            "peak neighbor (local) skew".into(),
            format!("{peak_neighbor_skew:.3}"),
        ]);
        table.row(&[
            "stable local skew bound".into(),
            format!("{:.3}", params.stable_local_skew()),
        ]);
        table.row(&[
            "peak network (global) skew".into(),
            format!("{peak_global_skew:.3}"),
        ]);
        table.row(&[
            "global skew bound G(n)".into(),
            format!("{:.3}", params.global_skew_bound()),
        ]);
        table.row(&[
            format!("slot collisions ({checks} link-checks)"),
            format!("{collisions}"),
        ]);
        rep.table(table);

        rep.note(format!(
            "gradient property: a guard band of {peak_neighbor_skew:.2}s per slot suffices for \
             neighbors, even though clocks across the whole network disagree by up to \
             {peak_global_skew:.2}s."
        ));
        assert!(
            peak_neighbor_skew <= params.stable_local_skew(),
            "local skew exceeded the paper's stable bound"
        );
        assert_eq!(
            collisions, 0,
            "with skew below the guard band, differently-slotted neighbors must never overlap"
        );
        rep
    }
}

fn main() {
    let s = Tdma {
        n: 32,
        horizon: 400.0,
        seed: 7,
    };
    println!("[{}] {} ({})\n", s.id(), s.title(), s.claim());
    s.run_scenario().print();
}
