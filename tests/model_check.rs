//! Full-stack model-check integration: the bounded explorer, the seeded
//! mutants, and the ITF → engine replay pipeline, exercised end to end
//! through the facade at CI-friendly bounds.
//!
//! The heavyweight exhaustive suites run in the fail-closed `model_check`
//! bin (`cargo run --release -p gcs-mc --bin model_check`); these tests
//! keep a smaller always-on footprint inside `cargo test`.

use gradient_clock_sync::core::GradientNode;
use gradient_clock_sync::mc::explore::{suite, trace_of_trail};
use gradient_clock_sync::mc::mutant::{smoke_run, Mutation};
use gradient_clock_sync::mc::{explore, fuzz, replay_trace, Scenario, Trace};

#[test]
fn explorer_verifies_the_full_n2_suite() {
    for sc in suite(2) {
        let report = explore(&sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(
            report.violation.is_none(),
            "{}: {}",
            sc.name,
            report.violation.unwrap().1
        );
        assert!(report.runs >= 1 && report.states > 0, "{}", sc.name);
    }
}

#[test]
fn explorer_verifies_an_n3_churn_scenario() {
    let sc = suite(3)
        .into_iter()
        .find(|sc| !sc.topology.is_empty())
        .expect("the n=3 suite has a churn scenario");
    let report = explore(&sc, |_| GradientNode::new(sc.algo), 1_000_000);
    assert!(
        report.violation.is_none(),
        "{}: {}",
        sc.name,
        report.violation.unwrap().1
    );
}

/// Exact `(states, runs, max depth)` of the explorer: a change to the
/// search order, the pruning rule or the canonical encoding moves them.
/// Debug builds also assert, for every resumed branch, that replaying its
/// trail from time 0 reaches its snapshot's state.
#[test]
fn explorer_counts_are_pinned() {
    let counts = |sc: &Scenario| {
        let r = explore(sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(r.violation.is_none(), "{}", sc.name);
        (r.states, r.runs, r.max_depth)
    };
    let mut totals = (0, 0, 0);
    for sc in suite(2) {
        let (states, runs, depth) = counts(&sc);
        totals = (totals.0 + states, totals.1 + runs, totals.2.max(depth));
    }
    assert_eq!(totals, (6_016, 2_463, 8), "n = 2 suite totals");
    let churn = suite(3)
        .into_iter()
        .find(|sc| sc.name == "n3-churn")
        .expect("the n=3 suite has a churn scenario");
    assert_eq!(counts(&churn), (4_016, 2_048, 11), "n3-churn");
}

#[test]
fn seeded_mutants_fail_closed_and_the_control_passes() {
    assert_eq!(smoke_run(Mutation::None), None, "control must stay clean");
    let v = smoke_run(Mutation::LmaxOverwrite).expect("Lmax mutant must be caught");
    assert!(v.message.contains("Property 6.3"), "{v}");
    let v = smoke_run(Mutation::MissingHeadroomClause).expect("predicate mutant must be caught");
    assert!(v.message.contains("Definition 6.1"), "{v}");
}

#[test]
fn exported_trace_replays_bit_identical_through_the_engine() {
    let scenarios = suite(2);
    let sc = &scenarios[0];
    let (trace, oracle) = trace_of_trail(sc, |_| GradientNode::new(sc.algo), vec![1, 1, 0]);
    assert!(oracle.violation().is_none());
    let parsed = Trace::from_json(&trace.to_json()).expect("ITF JSON round trip");
    assert_eq!(parsed, trace);
    for threads in [1usize, 8] {
        replay_trace(&parsed, threads)
            .unwrap_or_else(|e| panic!("replay diverged at {threads} threads: {e}"));
    }
}

#[test]
fn fuzz_batch_over_the_production_node_is_clean() {
    let outcome = fuzz(2026, 4);
    assert_eq!(outcome.iterations, 4);
    assert!(
        outcome.violation.is_none(),
        "{}",
        outcome.violation.unwrap().1
    );
}
