//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment of the DESIGN.md index (T1, T2, F1–F3, E1–E7, A1, A2)
//! is implemented in [`experiments`] and printed as a paper-style table by
//! the `tables` binary:
//!
//! ```text
//! cargo run -p optrep-bench --bin tables -- all
//! cargo run -p optrep-bench --bin tables -- t2 e4
//! ```
//!
//! Wall-clock is `crates/perf`'s: its probes time the same primitives
//! (`core.srv_compare_ns_p50`, `core.frame_codec_mb_per_s`) with a noise
//! model.

pub mod experiments;
pub mod prom;
pub mod table;

pub use table::Table;
