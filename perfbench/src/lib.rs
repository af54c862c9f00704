//! `perfbench`: the serve-path benchmark of the QMatch repository.
//!
//! It drives the real `qmatch serve` program over HTTP with four seeded,
//! closed-loop workloads, checks every reply against an in-process
//! reference, and reports end-to-end metrics (`--trace 0`) or per-layer
//! metrics from a traced replay (`--trace 1`). See `README.md` next to
//! this crate for the workloads, the metrics and how to read a run.

pub mod http;
pub mod json;
pub mod replay;
pub mod runner;
pub mod server;
pub mod workload;
