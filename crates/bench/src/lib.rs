//! Shared harness code for the experiment binaries (`src/bin/exp*.rs`) and
//! the Criterion micro-benchmarks (`benches/`).
//!
//! Every experiment binary reproduces one claim of the paper's evaluation
//! (see `DESIGN.md` §3 and `EXPERIMENTS.md`); this library provides the
//! common pieces: configuration presets, protocol sweeps and fixed-width
//! table printing.

pub mod harness;
pub mod table;
pub mod traj;
pub mod workload;

pub use harness::{base_config, run_protocols, ProtocolRow, PROTOCOL_LABELS};
pub use traj::{validate_bench_doc, Trajectory};
pub use workload::{committed_metrics, SkewedItems, TxnShape};
