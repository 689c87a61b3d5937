//! # trace — the flight-recorder tracing plane
//!
//! The paper's whole evaluation (Section 5) hangs on one quantity — the
//! average transaction system time `S`, decomposed into waiting,
//! blocking, restart and messaging components. This crate gives the live
//! runtime that decomposition without giving up the PR 3–5 hot-path
//! discipline: every client thread and the runtime's keeper write
//! fixed-size [`TraceEvent`] records (txn incarnation, phase tag,
//! shared-clock timestamp) into a per-lane bounded [`FlightRing`] — no
//! locks, no allocation, no branches beyond the [`TraceLevel`] checks —
//! and everything expensive happens off-thread:
//!
//! * [`TracePlane::report`] merges the striped per-method accumulators
//!   into a [`TraceReport`]: a Section-5-style table where
//!   `S = selection + transport + queue/block + execution + reply`,
//!   per CC method, with exact telescoping sums (built on
//!   [`metrics::Histogram`] and its shape-checked `merge`).
//! * [`TraceLog`] stitches ring snapshots into per-transaction
//!   [`SpanTree`]s and checks lifecycle consistency — the reconstruction
//!   oracle the integration tests run against the sercheck log.
//! * [`TracePlane::trigger_postmortem`] dumps the last N events per lane
//!   as JSONL on the first anomaly (deadlock victim, serializability
//!   violation) — the debugging artifact the early incarnation races
//!   were missing.
//! * [`json::Json`] is the dependency-free JSON emit/parse layer the
//!   dumps and the repo benchmark's `results.json` share.

#![forbid(unsafe_code)]

pub mod collect;
pub mod event;
pub mod json;
pub mod plane;
pub mod ring;

pub use collect::{
    LaneDwell, MethodBreakdown, Segment, Span, SpanTimings, SpanTree, TraceLog, TraceReport,
    SEGMENTS,
};
pub use event::{Phase, TraceEvent, NUM_PHASES, SELECTION_CACHE_HIT};
pub use plane::{TraceConfig, TraceLevel, TracePlane, CLIENT_LANES};
pub use ring::FlightRing;
