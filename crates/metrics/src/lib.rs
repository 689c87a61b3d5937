//! # metrics — measurement of the quantities the paper's evaluation uses
//!
//! Section 5 of the paper defines its performance measure as the average
//! transaction system time `S` and reasons about restart probabilities,
//! deadlock counts, blocking, lock-hold times and per-queue read/write
//! throughputs (the λ's of the STL model). This crate collects all of those,
//! broken down by concurrency-control method, and exposes the aggregates the
//! STL parameter estimator consumes.

#![forbid(unsafe_code)]

pub mod collector;

pub use collector::{MethodSample, MethodStats, MetricsSample, SimMetrics, TxnOutcome};

// The histogram machinery all latency distributions in this workspace use
// (fixed-width buckets with exact running moments, shape-checked `merge`).
// Re-exported so consumers of the evaluation quantities — the trace
// plane's per-phase breakdowns above all — name it through `metrics`.
pub use simkit::stats::{Histogram, RunningStat};
