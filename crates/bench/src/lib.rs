//! Shared harness code for the experiment binaries (`src/bin/exp*.rs`),
//! the one micro-benchmark (`benches/m4_sercheck.rs`) and the selector
//! tests.
//!
//! `exp1`–`exp8` each reproduce one claim of the paper's evaluation on the
//! simulator; `exp9`–`exp11` drive the live runtime (README.md, "Running
//! things"). This library provides the common pieces: configuration
//! presets, protocol sweeps, fixed-width table printing and the seeded
//! selector-test inputs.

pub mod harness;
pub mod table;
pub mod workload;

pub use harness::{base_config, run_protocols, ProtocolRow, PROTOCOL_LABELS};
pub use workload::{committed_metrics, SkewedItems};
