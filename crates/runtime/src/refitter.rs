//! The selector's refitter thread.
//!
//! Under [`crate::CcPolicy::DynamicStl`] a `begin` only ever *reads* the
//! selector's published epoch; when it notices the epoch is due for a
//! re-fit it raises a flag and unparks this thread, which does the slow
//! part — merge the metric stripes, fit the model, pre-warm the new
//! epoch's STL′ table from the old one's keys, publish — while admissions
//! carry on against the old epoch (see [`selection::cache`]). It is not the
//! keeper, which serves the shards and runs the deadlock detector: a re-fit
//! takes around ten milliseconds and must stretch neither the detector's
//! scan period nor the keeper's service of the shards' inboxes.
//!
//! The thread owns exactly the `Arc`s it works on — the selector, the
//! metric stripes, the counters — and never a [`crate::Database`], so it
//! cannot keep a database alive: `shutdown` closes the selector (a re-fit
//! in flight gives up at its next dynamic program) and joins the thread
//! before it takes the final metrics; dropping the last handle without
//! `shutdown` closes and unparks it, and it exits on its own. Whatever was
//! asked for and never published — cut short by the close, still pending at
//! exit, or lost to a panic, which is caught here so selection degrades to
//! a stale epoch and never to a dead one — is counted in
//! [`crate::StatsSnapshot::selection_refits_abandoned`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use selection::{CachedStlSelector, RefitOutcome};
use simkit::time::SimTime;

use crate::stats::{MetricsShards, RuntimeStats};

/// Spawn the refitter. It parks until a selection unparks it, and returns
/// once `selector` is closed.
pub(crate) fn spawn(
    selector: Arc<CachedStlSelector>,
    metrics: Arc<MetricsShards>,
    stats: Arc<RuntimeStats>,
    started: Instant,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("cc-selector-refitter".into())
        .spawn(move || {
            let abandon = || {
                stats
                    .selection_refits_abandoned
                    .fetch_add(1, Ordering::Relaxed)
            };
            let mut cut_short = false;
            while !selector.is_closed() {
                // The selector's published epoch changes in one atomic
                // step at the very end of a re-fit, so a panic anywhere
                // before it leaves nothing half-done to observe.
                let served = catch_unwind(AssertUnwindSafe(|| {
                    serve(&selector, &metrics, &stats, started)
                }));
                match served {
                    Err(_) => {
                        abandon();
                    }
                    // Only a close abandons: the loop ends here.
                    Ok(Some(RefitOutcome::Abandoned)) => cut_short = true,
                    // Requests raised during the re-fit coalesced into the
                    // flag: look again before parking.
                    Ok(Some(_)) => {}
                    // `unpark` leaves a token, so a request or a close
                    // that lands between the check and the park is not
                    // slept through.
                    Ok(None) => std::thread::park(),
                }
            }
            // One re-fit was wanted and will not happen, whether the close
            // caught it in flight, still pending, or both.
            if cut_short || selector.refit_requested() {
                abandon();
            }
        })
        .expect("failed to spawn selector refitter")
}

/// Answer the pending request, if any, against the live commit count and
/// metric stripes; the time spent is the refitter-side half of the
/// selector's cost.
fn serve(
    selector: &CachedStlSelector,
    metrics: &MetricsShards,
    stats: &RuntimeStats,
    started: Instant,
) -> Option<RefitOutcome> {
    let begun = Instant::now();
    let now = || SimTime::from_micros(started.elapsed().as_micros() as u64);
    let outcome = selector.serve_request(
        stats.committed.load(Ordering::Relaxed),
        || metrics.merged(now()),
        || metrics.sample(now()),
    )?;
    stats
        .selection_refit_nanos
        .fetch_add(begun.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Some(outcome)
}
