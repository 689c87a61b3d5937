//! # selection — the System-Throughput-Loss (STL) model and the dynamic
//! concurrency-control selector (paper, Section 5)
//!
//! The paper rejects picking the protocol that minimises a transaction's own
//! system time (it is biased towards 2PL, which shortens its own latency by
//! degrading everyone else) and instead estimates, for each candidate
//! protocol, the **system throughput loss** the new transaction would inflict
//! while it holds its locks. The protocol with the smallest estimated STL is
//! chosen.
//!
//! * [`stl`] — the recursive `STL'(λ_loss, U)` function evaluated with the
//!   dynamic-programming scheme the paper suggests (level/τ grid), plus the
//!   `λ_block` / `λ_new` auxiliaries.
//! * [`estimators`] — the closed-form per-protocol estimators
//!   `STL_2PL`, `STL_T/O`, `STL_PA` built from measured parameters
//!   (abort/rejection/backoff probabilities, mean lock-hold times).
//! * [`selector`] — [`selector::StlSelector`], which pulls those parameters
//!   from a [`metrics::SimMetrics`] and picks the method for each incoming
//!   transaction, with a round-robin warm-up while estimates are still
//!   unreliable.
//! * [`cache`] — [`cache::CachedStlSelector`], the amortized variant: the
//!   model and parameters are frozen into an [`cache::EpochSnapshot`]
//!   refreshed every N commits (or when a probe of the metrics it was
//!   fitted from finds them drifted), and `STL'(λ, U)` is
//!   memoized in a [`cache::StlTable`] every shape shares: an array per
//!   frozen hold time, indexed by loss bucket up to the saturating `λ_A` —
//!   provably identical to fresh STL′ evaluation within an epoch. The
//!   current epoch sits behind a `std` `RwLock` held only to clone or swap
//!   its `Arc`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod confluence;
pub mod estimators;
pub mod selector;
pub mod stl;

pub use cache::{
    CacheSettings, CacheStats, CachedStlSelector, Epoch, EpochSnapshot, PublishedSelection,
    RefitOutcome, StlTable,
};
pub use confluence::{
    classify, is_read_only, route, Confluence, OpProfile, Route, FAST_PATH_MAX_OPS,
};
pub use estimators::{
    stl_2pl, stl_2pl_summary, stl_pa, stl_pa_summary, stl_to, stl_to_summary, ProtocolParams,
    ShapeSummary, StlFn, TxnShape,
};
pub use selector::{
    evaluate_decision, evaluate_decision_with, exploratory_decision, is_exploration_round,
    MethodParamSet, SelectionDecision, StlSelector,
};
pub use stl::StlModel;
