//! `optrep-perf`: the daemon-level benchmark behind `BENCHMARK.json`.
//!
//! It drives real `optrepd` cores ([`optrep_server::Node`]) in-process
//! over loopback TCP through the public [`optrep_server::Client`], and
//! measures the layers from outside only — by timing calls into public
//! functions on mirror stores. `README.md` beside this crate holds the
//! workload, metric and interaction tables, and the pinned public
//! surface the benchmark compiles against.

#![cfg(unix)]

pub mod cli;
pub mod cluster;
pub mod estimator;
pub mod json;
pub mod mirror;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod sys;
pub mod workload;
