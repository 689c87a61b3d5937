//! # sim — the distributed-DBMS simulator and experiment runner
//!
//! The paper's evaluation (Section 5, referencing the authors' simulation
//! study) sweeps transaction arrival rate and transaction size and compares
//! mean transaction system time `S`, restart/deadlock behaviour and message
//! cost across 2PL, T/O, PA and the dynamic (STL-selected) mix. This crate
//! provides the simulator those sweeps run on:
//!
//! * [`config`] — every knob the paper names as a relevant system parameter:
//!   arrival rate, read/write mix, transmission delay, transaction size,
//!   restart cost, deadlock-detection period, plus the replication layout and
//!   the method-assignment policy (static, probabilistic mix, or STL-dynamic);
//! * [`workload`] — the open Poisson workload generator;
//! * [`driver`] — the deterministic discrete-event loop that connects the
//!   request issuers and queue managers from `unified-cc` through the
//!   simulated network, runs the periodic deadlock detector, collects
//!   metrics, and checks the resulting execution with the serializability
//!   oracle;
//! * [`report`] — the per-run summary consumed by the experiment binaries.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod report;
pub mod workload;

pub use config::{MethodPolicy, SimConfig};
pub use driver::Simulation;
pub use report::{MethodReport, SimReport};
pub use workload::{WorkloadGenerator, WorkloadTxn};
