//! # pam — the Precedence-Assignment Model (paper, Section 3)
//!
//! PAM decomposes a distributed concurrency-control algorithm into two
//! functions computed by the concurrency-control subsystem:
//!
//! 1. **Precedence assignment** — for each data item `Dj` there is a
//!    precedence space `(SPj, <j)` and a one-to-one function assigning an
//!    element of `SPj` to every operation accessing `Dj`.
//! 2. **Precedence enforcement** — the implementation order of conflicting
//!    operations on each item must follow the assigned precedences (condition
//!    **E1**), and there must exist a serialization order on transactions
//!    consistent with those precedences (condition **E2**).
//!
//! This crate provides:
//!
//! * [`precedence`] — the *unified precedence space* of Section 4.1 (the
//!   timestamp space extended with the paper's tie-breaking rules), plus the
//!   per-protocol assignment policies for 2PL, T/O and PA;
//! * [`msg`] — the request/reply message vocabulary exchanged between
//!   request issuers and data-queue managers, shared by the standalone
//!   protocol engines and the unified system;
//! * [`queue`] — the data-queue data structure (`QUEUE(j)` in the paper):
//!   a precedence-sorted sequence of requests with accepted/blocked marks and
//!   the `HD(j)` head computation.
//!
//! The enforcement side (lock tables, the semi-lock protocol) lives in the
//! `unified-cc` crate; the standalone reference protocols live in
//! `protocols`.

#![forbid(unsafe_code)]

pub mod msg;
pub mod precedence;
pub mod queue;

pub use msg::{GrantClass, LockMode, ReplyMsg, RequestMsg};
pub use precedence::{AssignmentPolicy, PrecClass, Precedence};
pub use queue::{DataQueue, EntryStatus, QueueEntry};
