//! The repository's benchmark. It drives the `gcs-*` crates only through
//! their public API, times those calls from outside the library, and
//! checks every run's output. See `README.md` for workloads and metrics.

pub mod host;
pub mod json;
pub mod report;
pub mod trace;
pub mod workloads;
pub mod wrap;
