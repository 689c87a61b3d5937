//! # protocols — standalone reference implementations of the three
//! candidate concurrency-control algorithms
//!
//! The unified system in `unified-cc` runs 2PL, T/O and PA side by side.
//! This crate provides each algorithm *on its own*, in the form the paper's
//! Section 3 describes them, as small synchronous engines:
//!
//! * [`lock2pl`] — static two-phase locking: FCFS queues, shared/exclusive
//!   locks, a wait-for graph and deadlock detection with youngest-victim
//!   abort;
//! * [`basic_to`] — Basic Timestamp Ordering: per-item read/write timestamps
//!   and reject-on-out-of-order arrival;
//! * [`pa`] — the Precedence Agreement queue manager of Section 3.4, with
//!   timestamp backoff instead of rejection.
//!
//! They serve three purposes: (1) they are the baselines the paper's
//! evaluation compares against, (2) they cross-validate the unified engine —
//! running the unified system with a single-method workload must produce the
//! same accept/reject/backoff decisions these engines produce, and (3) they
//! are directly embeddable lock managers for applications that want exactly
//! one protocol (see the `examples` package).

#![forbid(unsafe_code)]

pub mod basic_to;
pub mod lock2pl;
pub mod pa;

pub use basic_to::{BasicTimestampOrdering, ToDecision};
pub use lock2pl::{LockManager, LockMode2pl, LockRequestOutcome};
pub use pa::{PaDecision, PaQueueManager};
