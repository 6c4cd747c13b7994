//! Host fingerprint: numbers from different hosts are not evidence for
//! each other, so every recording names the machine it came from.

use crate::json::Json;
use std::process::Command;

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// CPU model, hardware threads, memory, toolchain and commit. The commit
/// is read with `git`, which the recording is made from; elsewhere it
/// reads `unknown`.
pub fn fingerprint() -> Json {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("cpu_model", text(proc_field("/proc/cpuinfo", "model name"))),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("mem_total", text(proc_field("/proc/meminfo", "MemTotal"))),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}
