//! # unified-cc — the paper's unified concurrency control system (Section 4)
//!
//! This crate is the primary contribution of the reproduction: a concurrency
//! control engine in which **each transaction chooses its own protocol** —
//! Two-Phase Locking (2PL), Basic Timestamp Ordering (T/O), or Precedence
//! Agreement (PA) — and all three coexist on the same data while the overall
//! execution stays conflict serializable.
//!
//! The two halves of the paper's construction map onto two state machines:
//!
//! * [`item::ItemState`] + [`qm::QueueManager`] — the data-site side: the
//!   unified precedence assignment (Section 4.1) and the **semi-lock
//!   protocol** (Section 4.2) that unifies precedence enforcement. One
//!   [`qm::QueueManager`] per site owns the [`item::ItemState`] of every
//!   physical item stored there.
//! * [`ri::RequestIssuer`] — the user-site side: one per transaction
//!   incarnation, driving the request/grant/backoff/release conversation for
//!   whichever protocol the transaction selected.
//!
//! Both are *sans-IO*: they consume [`pam::RequestMsg`]/[`pam::ReplyMsg`]
//! values and produce messages and lifecycle actions, never touching clocks,
//! threads or sockets. The `sim` crate drives them through a discrete-event
//! simulation for the paper's experiments; the same state machines can be
//! embedded directly (see the `examples` package).
//!
//! Deadlock handling for the 2PL transactions in the mix (the only ones that
//! can deadlock — Theorem 3) lives in [`deadlock`].

#![forbid(unsafe_code)]

pub mod deadlock;
pub mod item;
pub mod qm;
pub mod ri;
pub mod sink;

pub use deadlock::WaitForGraph;
pub use item::{
    EnforcementMode, HeldLock, ItemState, DEFAULT_VERSION_RETAIN, VERSION_HARD_CAP_FACTOR,
};
pub use qm::{ConfluentOp, QmEvent, QmOutput, QueueManager};
pub use ri::{RequestIssuer, RiAction, RiOutput, RiPhase};
pub use sink::QmSink;
