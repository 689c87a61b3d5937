//! # network — simulated message transport between sites
//!
//! The paper's protocols exchange messages between request issuers (at user
//! sites) and data-queue managers (at data sites). Only two properties of the
//! transport matter to the protocols and to the paper's evaluation axes:
//! the *transmission delay* (parameter (3) in the paper's list of relevant
//! system parameters) and the *number of messages* (PA's communication cost
//! grows with load). This crate models exactly those two things:
//!
//! * [`LatencyModel`] — how long a message takes from site `a` to site `b`
//!   (separate local and remote delay distributions),
//! * [`NetworkModel`] — stamps envelopes with delivery times and keeps
//!   per-category message counts,
//! * [`Envelope`] — a payload in flight, tagged with source, destination and
//!   delivery time.
//!
//! Delivery between a given pair of sites is FIFO: the model never assigns a
//! later-sent message an earlier delivery time than an earlier-sent one on
//! the same directed link.

#![forbid(unsafe_code)]

pub mod latency;
pub mod model;

pub use latency::{DelaySpec, LatencyModel};
pub use model::{Envelope, MsgCategory, MsgStats, NetworkModel};
