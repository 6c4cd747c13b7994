//! Tests of the benchmark harness itself, at tiny sizes: the forwarding
//! wrappers leave traces unchanged, spans nest, metric names follow the
//! grammar, and the result line parses back.

use gcs_perfbench::json::Json;
use gcs_perfbench::report::{
    end_to_end, per_layer, percentile, result_json, valid_name, Iteration, Outcome, END_TO_END,
    PER_LAYER,
};
use gcs_perfbench::workloads::{McSpec, SimSpec, Spec, Workload};

/// Every simulation workload shrunk to a few hundred nodes, at `threads`.
fn tiny(threads: usize) -> Vec<Spec> {
    let sized = |w: Workload, n: usize, slices: usize| {
        let Spec::Sim(full) = w.spec() else {
            unreachable!("simulation workload")
        };
        SimSpec {
            n,
            slices,
            threads,
            ..full
        }
    };
    vec![
        Spec::Sim(sized(Workload::ChurnPath, 256, 50)),
        Spec::Sim(sized(Workload::ChurnWalk, 512, 40)),
        Spec::Sim(SimSpec {
            backbone: 16,
            waves: 2,
            visitors: 8,
            horizon: 7.2,
            ..sized(Workload::VisitorWaves, 64, 40)
        }),
    ]
}

fn tiny_mc() -> Spec {
    Spec::Mc(McSpec {
        n: 2,
        scenarios: vec!["n2-churn", "n2-crash-restart"],
    })
}

#[test]
fn wrappers_do_not_change_the_trace() {
    for (serial, parallel) in tiny(1).iter().zip(tiny(2).iter()) {
        let reference = Iteration::run(serial, 7, false).outcome.fingerprint();
        for spec in [serial, parallel] {
            for traced in [false, true] {
                let it = Iteration::run(spec, 7, traced);
                assert_eq!(
                    it.outcome.fingerprint(),
                    reference,
                    "{spec:?} traced={traced} changed the trace"
                );
                if let (Outcome::Sim(o), Spec::Sim(s)) = (&it.outcome, spec) {
                    if s.workload == Workload::ChurnPath && s.threads == 2 {
                        assert!(o.stats.segments_parallel > 0, "the worker pool never ran");
                    }
                }
            }
        }
    }
    let mc = tiny_mc();
    assert_eq!(
        Iteration::run(&mc, 0, true).outcome.fingerprint(),
        Iteration::run(&mc, 0, false).outcome.fingerprint()
    );
}

#[test]
fn seeds_change_the_inputs() {
    let spec = &tiny(1)[0];
    let a = Iteration::run(spec, 1, false).outcome.fingerprint();
    let b = Iteration::run(spec, 2, false).outcome.fingerprint();
    assert_ne!(a, b, "the seed must reach the workload");
}

#[test]
fn traced_runs_probe_every_layer_they_use() {
    for spec in tiny(1) {
        let it = Iteration::run(&spec, 3, true);
        let m = it.layers();
        for key in [
            "core.on_receive.calls",
            "core.on_alarm.calls",
            "clocks.drift_calls",
            "net.pull_calls",
        ] {
            assert!(m[key] > 0.0, "{key} is 0 on {spec:?}");
        }
    }
    let m = Iteration::run(&tiny_mc(), 0, true).layers();
    assert!(m["mc.states"] > 0.0 && m["core.on_receive.calls"] > 0.0);
}

#[test]
fn self_times_are_nonnegative_and_children_nest() {
    let mut specs = tiny(1);
    specs.extend(tiny(2));
    specs.push(tiny_mc());
    for spec in specs {
        let it = Iteration::run(&spec, 5, true);
        let spans = it.tracer.spans();
        for (id, s) in spans.iter().enumerate() {
            assert!(s.end >= s.start, "{} ends before it starts", s.name);
            assert!(
                it.tracer.self_seconds(id) >= 0.0,
                "{} has negative self time {}",
                s.name,
                it.tracer.self_seconds(id)
            );
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "{} escapes its parent {}",
                    s.name,
                    parent.name
                );
            }
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.seconds())
                .sum();
            assert!(children <= s.seconds(), "children of {} exceed it", s.name);
        }
        let layers = it.layers();
        for (k, v) in &layers {
            assert!(v.is_finite() && *v >= 0.0, "{k} = {v}");
        }
    }
}

#[test]
fn metric_names_follow_the_grammar_and_match_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "duplicate metric {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
    assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(&"x".repeat(65)));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    };
    let ours = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads")
    };
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn result_lines_parse_back_with_every_metric() {
    let spec = &tiny(1)[1];
    let iters: Vec<Iteration> = (0..4)
        .map(|i| Iteration::run(spec, 9, i % 2 == 1))
        .collect();
    for (metrics, table) in [
        (end_to_end(&iters, &[], 1 << 20), &END_TO_END[..]),
        (per_layer(&iters), &PER_LAYER[..]),
    ] {
        let line = result_json(0, iters.len(), &metrics).render();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        let Json::Obj(top) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(4.0));
        for (name, unit) in table {
            let m = back
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(metrics[name]));
        }
        let Some(Json::Obj(all)) = back.get("metrics") else {
            unreachable!()
        };
        assert_eq!(all.len(), table.len());
    }
}

#[test]
fn p99_of_a_thousand_slices_leaves_ten_beyond() {
    let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&mut xs, 0.99);
    assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
}
