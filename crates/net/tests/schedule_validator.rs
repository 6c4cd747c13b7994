//! The same-instant add/remove check of `TopologySchedule::new` compares
//! adjacent events only. These tests pin it to the pairwise rule it
//! replaced: on random (mostly invalid) inputs, the constructor panics on
//! exactly the inputs the pairwise validator rejects, with the same
//! message.

use gcs_clocks::Time;
use gcs_net::schedule::{TopologyEvent, TopologyEventKind};
use gcs_net::{Edge, TopologySchedule};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Nodes in the generated schedules; events may name node `N` (out of
/// range) so endpoint checks interleave with the conflict check.
const N: usize = 3;

/// One generated input: initial edges and an unsorted event log.
type Input = (Vec<Edge>, Vec<TopologyEvent>);

/// Events over three instants, so same-instant runs of one edge are
/// common, with both kinds mixed; rarely at the invalid time 0 or on an
/// edge out of range (each rejects the input before later instants are
/// looked at).
fn arb_input() -> impl Strategy<Value = Input> {
    let in_range: Vec<Edge> = (0..N)
        .flat_map(|i| (i + 1..N).map(move |j| Edge::between(i, j)))
        .collect();
    let m = in_range.len();
    (
        prop::collection::vec(any::<bool>(), m),
        prop::collection::vec((0usize..16 * m, 0u8..25, any::<bool>()), 0..8),
    )
        .prop_map(move |(initial_mask, raw)| {
            let initial = in_range
                .iter()
                .zip(&initial_mask)
                .filter(|(_, &up)| up)
                .map(|(&e, _)| e)
                .collect();
            let events = raw
                .into_iter()
                .map(|(idx, t, add)| TopologyEvent {
                    time: Time::new(f64::from(t.div_ceil(8))),
                    kind: if add {
                        TopologyEventKind::Add
                    } else {
                        TopologyEventKind::Remove
                    },
                    edge: if idx < 15 * m {
                        in_range[idx % m]
                    } else {
                        Edge::between(idx % N, N)
                    },
                })
                .collect();
            (initial, events)
        })
}

/// The validator as it was before the adjacent-pair check: every pair of
/// events in a same-instant batch is compared. Returns the panic message
/// `TopologySchedule::new` would raise.
fn pairwise(n: usize, initial: &[Edge], mut events: Vec<TopologyEvent>) -> Result<(), String> {
    for e in initial {
        if e.hi().index() >= n {
            return Err(format!("edge {e:?} endpoint out of range for n={n}"));
        }
    }
    events.sort_by(|x, y| x.time.cmp(&y.time).then(x.edge.cmp(&y.edge)));
    let mut present: BTreeSet<Edge> = initial.iter().copied().collect();
    let mut i = 0;
    while i < events.len() {
        let t = events[i].time;
        if t <= Time::ZERO {
            return Err(format!(
                "topology events must occur strictly after time 0 (got {t:?})"
            ));
        }
        let mut j = i;
        while j < events.len() && events[j].time == t {
            j += 1;
        }
        let batch = &events[i..j];
        for (k, ev) in batch.iter().enumerate() {
            if ev.edge.hi().index() >= n {
                return Err(format!(
                    "edge {:?} endpoint out of range for n={n}",
                    ev.edge
                ));
            }
            for other in &batch[k + 1..] {
                if other.edge == ev.edge && other.kind != ev.kind {
                    return Err(format!(
                        "edge {:?} both added and removed at {t:?}",
                        ev.edge
                    ));
                }
            }
        }
        for ev in batch {
            let ok = match ev.kind {
                TopologyEventKind::Add => present.insert(ev.edge),
                TopologyEventKind::Remove => present.remove(&ev.edge),
            };
            if !ok {
                return Err(match ev.kind {
                    TopologyEventKind::Add => {
                        format!("add of already-present edge {:?} at {t:?}", ev.edge)
                    }
                    TopologyEventKind::Remove => {
                        format!("remove of absent edge {:?} at {t:?}", ev.edge)
                    }
                });
            }
        }
        i = j;
    }
    Ok(())
}

/// `TopologySchedule::new`'s outcome, with a panic turned into its message.
fn constructed((initial, events): &Input) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        TopologySchedule::new(N, initial.iter().copied(), events.clone());
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The adjacent-pair check rejects exactly what the pairwise rule
    /// rejected, with the same message.
    #[test]
    fn adjacent_check_matches_the_pairwise_rule(input in arb_input()) {
        prop_assert_eq!(constructed(&input), pairwise(N, &input.0, input.1.clone()));
    }
}

/// The generator is not vacuous: a fair share of its inputs reach the
/// same-instant conflict, and a fair share are accepted.
#[test]
fn generated_inputs_exercise_the_conflict_check() {
    let strategy = arb_input();
    let mut rng = TestRng::for_test("generated_inputs_exercise_the_conflict_check");
    let (mut conflicts, mut accepted) = (0, 0);
    for _ in 0..2000 {
        let (initial, events) = strategy.generate(&mut rng);
        match pairwise(N, &initial, events) {
            Err(msg) if msg.contains("both added and removed") => conflicts += 1,
            Ok(()) => accepted += 1,
            Err(_) => {}
        }
    }
    assert!(conflicts >= 100, "only {conflicts} conflicting inputs");
    assert!(accepted >= 100, "only {accepted} accepted inputs");
}
