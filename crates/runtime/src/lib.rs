//! # runtime — the sharded multi-threaded execution runtime
//!
//! This crate takes the unified concurrency-control engine out of the
//! simulator and serves **live concurrent traffic** with it. The same
//! sans-IO state machines the discrete-event simulator drives —
//! [`unified_cc::QueueManager`] on the data side, [`unified_cc::RequestIssuer`]
//! on the transaction side — are embedded into real threads and real
//! channels:
//!
//! * **Shards** (internal) — one per site: that site's queue manager
//!   behind a lock, run by whoever holds it. A client that finds a shard
//!   idle runs its own protocol command there, on its own thread, and
//!   pays no wake-up; otherwise the command crosses a bounded inbox
//!   (backpressure) to the shard's thread. Either way replies are routed
//!   back through the transaction registry, and every implemented
//!   operation reaches the shard's slice of the execution log, which the
//!   shard thread keeps.
//! * **[`Database`]** — the thread-safe facade. Client threads open
//!   transactions with predeclared read/write sets ([`TxnSpec`]); each
//!   transaction runs under its own concurrency-control method — pinned per
//!   transaction, drawn from a configured mix, or chosen by the STL
//!   selector ([`CcPolicy`]). The calling thread drives its own request
//!   issuer: it blocks on grants, negotiates PA backoffs, retries T/O
//!   rejections and deadlock aborts under fresh timestamps, then executes
//!   and commits.
//! * **Deadlock detector** (internal) — a background thread that
//!   periodically merges the per-shard wait-for edges into a
//!   [`unified_cc::WaitForGraph`] and signals the youngest 2PL member of
//!   each cycle (Corollary 2 guarantees one exists) as a victim.
//! * **Execution-log tap** — [`Database::log_snapshot`] mid-run and
//!   [`RuntimeReport::logs`] at shutdown expose the merged per-item
//!   implementation logs, so every run can be replayed through the
//!   `sercheck` serializability oracle exactly like a simulation.
//!
//! ```
//! use dbmodel::{CcMethod, LogicalItemId};
//! use runtime::{Database, RuntimeConfig, TxnSpec};
//!
//! let db = Database::open(RuntimeConfig::default()).unwrap();
//! let spec = TxnSpec::new()
//!     .read(LogicalItemId(1))
//!     .write(LogicalItemId(2))
//!     .method(CcMethod::PrecedenceAgreement);
//! let receipt = db
//!     .run_transaction(&spec, |reads| {
//!         let seen = reads[&LogicalItemId(1)];
//!         vec![(LogicalItemId(2), seen + 1)]
//!     })
//!     .unwrap();
//! assert_eq!(receipt.method, CcMethod::PrecedenceAgreement);
//! let report = db.shutdown().unwrap();
//! assert!(report.serializable().is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod db;
pub mod report;

mod clock;
mod detector;
mod refitter;
mod registry;
mod route;
mod shard;
mod spec;
mod stats;
mod txn;

pub use config::{CcPolicy, ConfigError, RuntimeConfig};
pub use db::{ActiveTxn, Database, TxnError, TxnReceipt, TxnSpec};
// The fault-plane vocabulary callers need to arm [`RuntimeConfig::faults`]
// and consume [`Database::fault_counters`].
pub use faultsim::{FaultCounters, FaultProfile, FaultSchedule};
pub use report::RuntimeReport;
pub use stats::StatsSnapshot;
// The tracing-plane vocabulary callers need to configure tracing
// ([`RuntimeConfig::trace`]) and consume [`Database::trace_report`] /
// [`Database::trace_snapshot`].
pub use trace::{Phase, TraceConfig, TraceEvent, TraceLevel, TraceLog, TraceReport};
