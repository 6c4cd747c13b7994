//! Benchmark driver.
//!
//! ```text
//! gcs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gcs-perfbench --record        # prints a fresh recorded.json
//! ```
//!
//! Runs the workload repeatedly until `--seconds` is used up (at least
//! three times), checks every run's output, and prints one JSON object
//! as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics of untraced runs; `--trace 1` alternates untraced
//! and traced runs and reports the per-layer metrics, writing the last
//! traced run's spans to `.bench_out/<workload>-seed<n>.trace.json`.

use gcs_perfbench::json::Json;
use gcs_perfbench::report::{
    check, end_to_end, hex, per_layer, result_json, Iteration, Outcome, Recorded,
};
use gcs_perfbench::workloads::Workload;
use gcs_perfbench::{host, report};
use std::process::ExitCode;
use std::time::Instant;

const RECORDED: &str = include_str!("../recorded.json");

/// Fewest runs per mode, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// Share of `--seconds` spent on extra set-up samples before the full
/// runs: set-up is timed (and the simulator dropped unrun) until that
/// time is up, so `setup_s` is a median over more samples than there
/// are full runs.
const SETUP_SHARE: f64 = 0.1;

/// Cap on set-up samples (reached only by sub-millisecond set-ups).
const MAX_SETUPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--record" {
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(60.0),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return record(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = match Recorded::parse(RECORDED) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: recorded.json: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let spec = w.spec();
    let start = Instant::now();
    // Extra set-up samples first, while every process is in the same
    // fresh state.
    let mut setup_samples = Vec::new();
    while !args.trace
        && setup_samples.len() < MAX_SETUPS
        && start.elapsed().as_secs_f64() < SETUP_SHARE * args.seconds
    {
        setup_samples.push(Iteration::setup_only(&spec, args.seed));
    }
    let mut iters: Vec<Iteration> = Vec::new();
    let mut failed = 0;
    let mut peak_rss = 0;
    let mut first_fp = None;
    loop {
        // With tracing, alternate untraced and traced runs so both see
        // the same host conditions.
        let traced = args.trace && iters.len() % 2 == 1;
        let it = Iteration::run(&spec, args.seed, traced);
        if iters.is_empty() {
            // VmHWM of a process that has run the workload once.
            peak_rss = gcs_analysis::peak_rss_bytes().unwrap_or(0);
        }
        let first = *first_fp.get_or_insert(it.outcome.fingerprint());
        let bad = check(w, &spec, args.seed, &it, first, &rec);
        for why in &bad {
            eprintln!("check failed ({}): {why}", w.name());
        }
        failed += usize::from(!bad.is_empty());
        eprintln!(
            "{} {} wall {:.4} s setup {:.4} s fingerprint {}",
            w.name(),
            if traced { "traced" } else { "untraced" },
            it.wall_s(),
            it.setup_s(),
            hex(it.outcome.fingerprint())
        );
        iters.push(it);
        let per_mode = |t: bool| iters.iter().filter(|i| i.traced == t).count();
        let enough = per_mode(false) >= MIN_RUNS && (!args.trace || per_mode(true) >= MIN_RUNS);
        let typical = report::median(&iters.iter().map(Iteration::wall_s).collect::<Vec<_>>());
        if enough && start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    let metrics = if args.trace {
        write_trace(&args, &iters);
        per_layer(&iters)
    } else {
        end_to_end(&iters, &setup_samples, peak_rss)
    };
    println!("{}", result_json(failed, iters.len(), &metrics).render());
    ExitCode::SUCCESS
}

/// Writes the last traced run's spans, with the host they ran on.
fn write_trace(args: &Args, iters: &[Iteration]) {
    let Some(last) = iters.iter().rev().find(|it| it.traced) else {
        return;
    };
    let doc = Json::obj([
        ("workload", args.workload.name().into()),
        ("seed", Json::Num(args.seed as f64)),
        ("host", host::fingerprint()),
        ("spans", last.tracer.to_json()),
    ]);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs every workload once, untraced, on the default seed and prints
/// the `recorded.json` those runs imply.
fn record() -> ExitCode {
    let seed = Recorded::parse(RECORDED).map_or(42, |r| r.default_seed);
    let mut fingerprints = Vec::new();
    let mut mc_states = Vec::new();
    for w in Workload::ALL {
        let it = Iteration::run(&w.spec(), seed, false);
        eprintln!("{}: {}", w.name(), hex(it.outcome.fingerprint()));
        fingerprints.push((w.name(), Json::Str(hex(it.outcome.fingerprint()))));
        if let Outcome::Mc(o) = &it.outcome {
            for r in &o.reports {
                mc_states.push((r.scenario.clone(), Json::Num(r.states as f64)));
            }
        }
    }
    let doc = Json::obj([
        ("default_seed", Json::Num(seed as f64)),
        ("host", host::fingerprint()),
        ("fingerprints", Json::obj(fingerprints)),
        ("mc_states", Json::obj(mc_states)),
    ]);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}
