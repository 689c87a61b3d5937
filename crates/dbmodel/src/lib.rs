//! # dbmodel — the distributed database model from the paper's Section 2
//!
//! This crate defines the data model every other crate builds on:
//!
//! * identifier newtypes for sites, transactions, logical and physical data
//!   items ([`ids`]),
//! * logical/physical read-write operations and conflict predicates ([`op`]),
//! * the three-phase transaction model (read phase, local computing phase,
//!   write phase) and per-transaction concurrency-control choice ([`txn`]),
//! * the replication catalog mapping logical items to their physical copies
//!   across sites ([`catalog`]),
//! * a per-site in-memory store of physical data items ([`store`]), and
//! * per-physical-item implementation logs — the "logs" of the paper's
//!   execution model, from which the serializability oracle reconstructs the
//!   conflict graph ([`log`]).
//!
//! Nothing in this crate knows about any particular concurrency-control
//! protocol; it is the substrate that 2PL, T/O, PA and the unified scheme all
//! share.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod ids;
pub mod log;
pub mod op;
pub mod store;
pub mod txn;

pub use catalog::{Catalog, CatalogError, ReplicationPolicy};
pub use ids::{LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId};
pub use log::{ImplementedOp, ItemLog, LogSet};
pub use op::{AccessMode, LogicalOp, PhysicalOp};
pub use store::{SiteStore, StoreError, Value};
pub use txn::{CcMethod, Transaction, TransactionBuilder, TxnPhase};
