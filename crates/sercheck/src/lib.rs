//! # sercheck — the serializability oracle
//!
//! The paper's correctness criterion is conflict serializability (Theorem 1):
//! an execution is conflict serializable iff the conflict graph induced by
//! the per-item implementation logs is acyclic. This crate reconstructs that
//! graph from a [`dbmodel::LogSet`] and either recovers a serialization order
//! (a topological sort of the graph) or reports a cycle as a witness of a
//! non-serializable execution.
//!
//! Every integration and property test of the concurrency-control engines
//! funnels its execution logs through [`check_serializable`].
//!
//! ## Violation observers
//!
//! A failed check is the strongest anomaly signal the workspace has — it
//! means a race or protocol bug let a conflict cycle commit. Observers
//! registered through [`observe_violations`] are invoked with the error
//! before it is returned, so diagnostic machinery (the runtime's trace
//! plane dumps its flight-recorder rings) can capture state at the moment
//! the oracle fires rather than after the caller unwinds. Registration is
//! scoped: dropping the returned guard removes the observer, so a
//! simulator test that *constructs* a cycle on purpose does not trip a
//! live runtime's postmortem.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dbmodel::{LogSet, TxnId};

pub mod graph;

pub use graph::{ConflictGraph, SerializabilityError};

type Observer = Box<dyn Fn(&SerializabilityError) + Send + Sync>;

static NEXT_OBSERVER_ID: AtomicU64 = AtomicU64::new(0);
static OBSERVERS: Mutex<Vec<(u64, Observer)>> = Mutex::new(Vec::new());

/// Keeps an observer registered; dropping it deregisters.
#[derive(Debug)]
pub struct ObserverGuard {
    id: u64,
}

impl Drop for ObserverGuard {
    fn drop(&mut self) {
        let mut observers = OBSERVERS.lock().expect("observer list poisoned");
        observers.retain(|(id, _)| *id != self.id);
    }
}

/// Register `f` to be called with every serializability violation any
/// thread's [`check_serializable`] detects, until the guard is dropped.
pub fn observe_violations(
    f: impl Fn(&SerializabilityError) + Send + Sync + 'static,
) -> ObserverGuard {
    let id = NEXT_OBSERVER_ID.fetch_add(1, Ordering::Relaxed);
    OBSERVERS
        .lock()
        .expect("observer list poisoned")
        .push((id, Box::new(f)));
    ObserverGuard { id }
}

/// Check an execution's logs for conflict serializability, notifying every
/// registered violation observer before returning a failure.
pub fn check_serializable(logs: &LogSet) -> Result<Vec<TxnId>, SerializabilityError> {
    let result = graph::check_serializable(logs);
    if let Err(ref error) = result {
        let observers = OBSERVERS.lock().expect("observer list poisoned");
        for (_, observer) in observers.iter() {
            observer(error);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use dbmodel::{AccessMode, LogicalItemId, PhysicalItemId, SiteId};

    use super::*;

    fn cyclic_logs() -> LogSet {
        // Two items with opposite write orders: T1 → T2 on one, T2 → T1
        // on the other — the canonical conflict cycle.
        let mut logs = LogSet::default();
        let a = PhysicalItemId::new(LogicalItemId(0), SiteId(0));
        let b = PhysicalItemId::new(LogicalItemId(1), SiteId(0));
        logs.record(a, TxnId(1), AccessMode::Write);
        logs.record(a, TxnId(2), AccessMode::Write);
        logs.record(b, TxnId(2), AccessMode::Write);
        logs.record(b, TxnId(1), AccessMode::Write);
        logs
    }

    #[test]
    fn observers_fire_on_violation_and_stop_after_drop() {
        let fired = Arc::new(AtomicUsize::new(0));
        let guard = observe_violations({
            let fired = Arc::clone(&fired);
            move |error| {
                assert!(matches!(error, SerializabilityError::Cycle(_)));
                fired.fetch_add(1, Ordering::SeqCst);
            }
        });

        assert!(check_serializable(&cyclic_logs()).is_err());
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // A clean execution does not notify.
        let mut clean = LogSet::default();
        clean.record(
            PhysicalItemId::new(LogicalItemId(0), SiteId(0)),
            TxnId(1),
            AccessMode::Write,
        );
        assert!(check_serializable(&clean).is_ok());
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        drop(guard);
        assert!(check_serializable(&cyclic_logs()).is_err());
        assert_eq!(fired.load(Ordering::SeqCst), 1, "deregistered");
    }
}
