//! The background deadlock detector.
//!
//! One scan function, two triggers. A scan asks each shard for its current
//! wait-for edges, merges them into one [`WaitForGraph`], and — per the
//! paper's Corollary 2, which guarantees every deadlock cycle contains a
//! 2PL transaction — signals the youngest 2PL member of each cycle as a
//! victim through the registry. The victim's own client thread performs the
//! abort (it owns the request issuer), so the detector never touches
//! protocol state directly.
//!
//! * **Pushed.** A shard that queues a wait-for edge whose waiter is itself
//!   waited on raises the registry's scan request and unparks this thread
//!   (the announce rule, `shard.rs`; the marks and why the closing edge of
//!   a cycle always asks, `registry.rs`). The scan runs at once, so a
//!   deadlock stands for about one thread wake-up, not for half a scan
//!   interval. Requests coalesce: one scan runs at a time, and a request
//!   raised while it runs re-arms the next.
//!   A pushed scan that had to skip a shard's report (it missed
//!   `EDGE_REPORT_TIMEOUT`: a shard mid-outage, or its core held that
//!   long) may have missed the very cycle it was asked for, so it asks for
//!   one more scan at once; a second skip in a row leaves the rest to the
//!   periodic tick, so a crashed shard's inbox does not fill up with edge
//!   requests.
//! * **Periodic.** Every `deadlock_scan_interval` regardless, so that
//!   liveness never rests on the announcements: an edge queued without one
//!   would leave its cycle standing until the next tick, exactly as every
//!   cycle did before — and the victim is counted in
//!   [`crate::StatsSnapshot::deadlock_backstop_victims`], which is
//!   therefore zero on a healthy runtime.
//!
//! The edge reports go through [`ShardSender::submit`]: an idle shard's
//! edges are read on this thread and no shard thread is woken for them. A
//! held core is not waited for: the report goes to the ring.
//!
//! Because the scan is a racy snapshot assembled from per-shard reports, a
//! reported "cycle" may have already dissolved by the time the victim reacts;
//! that is harmless — `RequestIssuer::abort_for_deadlock` refuses to abort an
//! incarnation that is no longer waiting. A victim that has not reacted yet
//! is seen again by the next scan and not signalled again: the registry
//! signals an incarnation once.

//! The detector thread also runs the **stranded-transaction sweep**, on the
//! periodic tick only: under
//! fault injection (dropped aborts, late-delivered accesses, crash
//! amnesia) a shard can hold queue entries or locks for a transaction no
//! client will ever finish. Each sweep collects every transaction present
//! at any shard and checks it against the registry; a transaction present
//! at a shard but registered nowhere is a *suspect*. A suspect seen on
//! two consecutive sweeps is cleaned up with [`ShardCmd::Cleanup`] (an
//! engine-level abort of its residual state). The two-sweep grace guards
//! the deregister-vs-in-flight-release race: a committing client
//! deregisters before its releases are processed, but releases travel the
//! reliable channel and land within microseconds, far inside one scan
//! interval.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbmodel::{CcMethod, TxnId};
use trace::{Phase, TracePlane};
use unified_cc::WaitForGraph;

use crate::registry::Registry;
use crate::shard::{ShardCmd, ShardSender};
use crate::stats::RuntimeStats;

/// How long the detector waits for one shard's edge report before skipping
/// it for this scan.
const EDGE_REPORT_TIMEOUT: Duration = Duration::from_millis(100);

/// Spawn the detector thread. It parks until the next periodic tick or
/// until [`Registry::wake_detector`] unparks it — for a requested scan, or
/// to see `stopped` and return.
pub(crate) fn spawn(
    shards: Vec<ShardSender>,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    interval: Duration,
    stopped: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("cc-deadlock-detector".into())
        .spawn(move || {
            registry.attach_detector(std::thread::current());
            // Merged-edge scratch reused across scans (the shards build
            // their reports with `wait_edges_into`, so a scan's only
            // steady-state allocations are the per-shard report vectors
            // that cross the oneshot boundary).
            let mut edges: Vec<(TxnId, TxnId)> = Vec::new();
            // Suspects carried across sweeps (the two-sweep grace).
            let mut suspects: HashSet<TxnId> = HashSet::new();
            let mut next_tick = Instant::now() + interval;
            // The last scan was a pushed one that skipped a report and
            // asked again (see `scan_once`).
            let mut retrying = false;
            // Flags first, park second: `unpark` leaves a token, so a
            // request or a stop that lands in between is not slept through.
            while !stopped.load(Ordering::Relaxed) {
                let pushed = registry.take_scan_request();
                let now = Instant::now();
                let tick = now >= next_tick;
                if !pushed && !tick {
                    std::thread::park_timeout(next_tick - now);
                    continue;
                }
                if pushed {
                    stats.deadlock_push_scans.fetch_add(1, Ordering::Relaxed);
                }
                let skipped = scan_once(&shards, &registry, &stats, &plane, &mut edges, pushed);
                // A pushed scan that missed a report may have missed the
                // cycle it was asked for, and nothing else would ask before
                // the tick: ask once more now. A second miss in a row
                // leaves it to the tick, so a crashed shard's inbox does
                // not fill with edge requests.
                retrying = skipped && pushed && !retrying;
                if retrying {
                    registry.request_scan();
                }
                if tick {
                    sweep_stranded(&shards, &registry, &mut suspects);
                    next_tick = Instant::now() + interval;
                }
            }
        })
        .expect("failed to spawn deadlock detector")
}

/// One scan: gather edges into the reusable `edges` scratch, find cycles,
/// signal victims. `pushed` says a shard asked for this scan. The scratch
/// is left cleared with its capacity intact. Returns whether a live
/// shard's report missed [`EDGE_REPORT_TIMEOUT`] and was skipped.
pub(crate) fn scan_once(
    shards: &[ShardSender],
    registry: &Registry,
    stats: &RuntimeStats,
    plane: &TracePlane,
    edges: &mut Vec<(TxnId, TxnId)>,
    pushed: bool,
) -> bool {
    debug_assert!(edges.is_empty());
    let mut skipped = false;
    for shard in shards {
        let (tx, rx) = transport::oneshot::channel();
        if shard.submit(ShardCmd::WaitEdges(tx), false).is_err() {
            continue; // shard already shut down
        }
        match rx.recv_timeout(EDGE_REPORT_TIMEOUT) {
            Ok(shard_edges) => edges.extend(shard_edges),
            // Slow (mid-outage, or its core held past the timeout): this
            // scan goes on without it.
            Err(transport::oneshot::RecvError::Timeout) => skipped = true,
            Err(transport::oneshot::RecvError::Disconnected) => {}
        }
    }
    if edges.is_empty() {
        return skipped;
    }
    // A request that came in while the reports were gathered was raised
    // under its shard's lock, before the edge it speaks for could be read:
    // whatever this scan finds, an announcement led to it.
    let pushed = pushed || registry.scan_requested();
    // Every cycle in the snapshot gets its victim now: a cycle left for
    // "the next scan" gains no new edge, so nobody would ask for that scan.
    let victims = WaitForGraph::from_edges(edges.drain(..)).choose_victims_exhaustively(|txn| {
        registry.method_of(txn) == Some(CcMethod::TwoPhaseLocking)
    });
    for victim in victims {
        // Refused for a victim an earlier scan signalled and that has not
        // reacted yet, so `deadlock_victims` counts victims, not scans.
        if registry.signal_deadlock(victim) {
            stats.deadlock_victims.fetch_add(1, Ordering::Relaxed);
            if !pushed {
                stats
                    .deadlock_backstop_victims
                    .fetch_add(1, Ordering::Relaxed);
            }
            plane.record(
                plane.client_lane(),
                victim.0,
                Phase::Victim,
                u32::from(!pushed),
            );
            // The first victim latches the flight-recorder postmortem (a
            // no-op unless a dump directory is configured).
            let _ = plane.trigger_postmortem("deadlock-victim");
        }
    }
    skipped
}

/// One stranded-transaction sweep (see the module docs): collect every
/// transaction present at each shard, suspect those registered nowhere,
/// and clean up suspects already seen on the previous sweep. `suspects`
/// is the grace set carried between sweeps.
pub(crate) fn sweep_stranded(
    shards: &[ShardSender],
    registry: &Registry,
    suspects: &mut HashSet<TxnId>,
) {
    let mut next_suspects: HashSet<TxnId> = HashSet::new();
    for shard in shards {
        let (tx, rx) = transport::oneshot::channel();
        if shard.send(ShardCmd::PresentTxns(tx)).is_err() {
            continue;
        }
        let present = match rx.recv_timeout(EDGE_REPORT_TIMEOUT) {
            Ok(present) => present,
            Err(_) => continue, // mid-outage or shut down: next sweep
        };
        let mut confirmed = Vec::new();
        for txn in present {
            if registry.method_of(txn).is_some() {
                continue; // live somewhere — not stranded
            }
            if suspects.contains(&txn) {
                confirmed.push(txn);
            } else {
                next_suspects.insert(txn);
            }
        }
        if !confirmed.is_empty() {
            let _ = shard.send(ShardCmd::Cleanup(confirmed));
        }
    }
    *suspects = next_suspects;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ClientEvent, ClientMailbox};
    use crate::shard::{ShardCmd, ShardHandle};
    use dbmodel::{AccessMode, LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId};
    use pam::RequestMsg;
    use std::time::Duration;
    use unified_cc::{EnforcementMode, QueueManager};

    fn item(i: u64, site: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(i), SiteId(site))
    }

    fn spawn_shard(
        site: u32,
        idx: usize,
        it: PhysicalItemId,
        registry: &Arc<Registry>,
        stats: &Arc<RuntimeStats>,
    ) -> ShardHandle {
        let mut qm = QueueManager::new(SiteId(site));
        qm.add_item(it, 0, EnforcementMode::SemiLock);
        let (tx, rx) = transport::ring::channel(16);
        crate::shard::spawn(
            qm,
            idx,
            rx,
            tx,
            Arc::clone(registry),
            Arc::clone(stats),
            Arc::new(TracePlane::new(&trace::TraceConfig::default(), 2)),
            Arc::new(crate::clock::CommitClock::new()),
        )
    }

    fn test_plane() -> TracePlane {
        TracePlane::new(&trace::TraceConfig::default(), 2)
    }

    /// A fresh mailbox with the `seq`-th incarnation registered on it.
    fn client(registry: &Registry, seq: u64, method: CcMethod) -> (ClientMailbox, TxnId) {
        let mut mb = registry.client_mailbox().expect("mailbox");
        let txn = registry.txn_id(seq, mb.slot());
        registry.register(txn, method, &mut mb);
        (mb, txn)
    }

    /// Enqueue one write `Access` for `txn` on `it` at `shard`.
    fn access(shard: &ShardSender, txn: TxnId, it: PhysicalItemId, method: CcMethod, ts: u64) {
        let msg = RequestMsg::Access {
            txn,
            item: it,
            mode: AccessMode::Write,
            method,
            ts: TsTuple::new(Timestamp(ts), 10),
        };
        let sent = shard.send(ShardCmd::HandleBatch {
            origin: SiteId(0),
            msgs: [msg].into_iter().collect(),
        });
        assert!(sent.is_ok(), "shard alive");
    }

    fn expect_grant(mb: &mut ClientMailbox, txn: TxnId) {
        match mb.recv_timeout(txn.0, Duration::from_secs(2)) {
            Some(ClientEvent::Replies(batch))
                if matches!(batch.iter().next(), Some(pam::ReplyMsg::Grant { .. })) => {}
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    /// Block until `shard` reports `txn` queued without a grant.
    fn wait_until_waiting(shard: &ShardSender, txn: TxnId) {
        for _ in 0..200 {
            let (tx, rx) = transport::oneshot::channel();
            assert!(shard.send(ShardCmd::Waiting(tx)).is_ok(), "shard alive");
            if rx
                .recv_timeout(Duration::from_secs(2))
                .expect("shard replies")
                .contains(&txn)
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("transaction {txn:?} never queued at the shard");
    }

    /// Inject a genuine wait cycle through the real shard machinery — two
    /// 2PL writers holding one item each and queued behind the other's —
    /// and check a single scan victimises exactly the *youngest* 2PL
    /// member (Corollary 2's victim rule as the detector implements it).
    #[test]
    fn injected_cycle_victimises_the_youngest_2pl_member() {
        injected_2pl_cycle(false);
    }

    /// The same cycle with the shards' announcements muted: nobody asks
    /// for a scan, and the victim the periodic scan finds is counted as the
    /// backstop's.
    #[test]
    fn an_unannounced_cycle_is_a_backstop_victim() {
        injected_2pl_cycle(true);
    }

    fn injected_2pl_cycle(muted: bool) {
        let registry = Arc::new(Registry::new(64));
        registry.mute_announcements.store(muted, Ordering::Relaxed);
        let stats = Arc::new(RuntimeStats::with_shards(2));
        let a = item(0, 0);
        let b = item(1, 1);
        let shard0 = spawn_shard(0, 0, a, &registry, &stats);
        let shard1 = spawn_shard(1, 1, b, &registry, &stats);
        let shards = vec![shard0.tx.clone(), shard1.tx.clone()];

        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        let (mut mb2, t2) = client(&registry, 2, CcMethod::TwoPhaseLocking);

        // T1 locks a, T2 locks b.
        access(&shard0.tx, t1, a, CcMethod::TwoPhaseLocking, 1);
        access(&shard1.tx, t2, b, CcMethod::TwoPhaseLocking, 2);
        expect_grant(&mut mb1, t1);
        expect_grant(&mut mb2, t2);
        // Cross requests: T1 waits for b (held by T2), T2 waits for a
        // (held by T1) — a genuine deadlock.
        access(&shard1.tx, t1, b, CcMethod::TwoPhaseLocking, 1);
        access(&shard0.tx, t2, a, CcMethod::TwoPhaseLocking, 2);
        wait_until_waiting(&shard1.tx, t1);
        wait_until_waiting(&shard0.tx, t2);

        // The shards announced both edges; the second found its waiter
        // already waited on and asked for a scan.
        assert_eq!(stats.deadlock_probes.load(Ordering::Relaxed), 2);
        assert_eq!(registry.scan_requested(), !muted);

        // A periodic scan — which still counts as pushed if a request is
        // pending by the time it has read the edges.
        let tracer = test_plane();
        let mut edges = Vec::new();
        scan_once(&shards, &registry, &stats, &tracer, &mut edges, false);
        // The victim has not reacted, the cycle still stands: a second and
        // a third scan see it and must not signal it again.
        scan_once(&shards, &registry, &stats, &tracer, &mut edges, true);
        scan_once(&shards, &registry, &stats, &tracer, &mut edges, false);
        assert_eq!(
            tracer.phase_counts()[Phase::Victim as usize],
            1,
            "the victim signal must be traced, once"
        );

        // The youngest 2PL member (the larger TxnId) is the victim …
        match mb2.recv_timeout(t2.0, Duration::from_secs(2)) {
            Some(ClientEvent::DeadlockVictim) => {}
            other => panic!("expected T2 to be the victim, got {other:?}"),
        }
        // … and the older one is left alone.
        assert!(
            mb1.recv_timeout(t1.0, Duration::from_millis(50)).is_none(),
            "the older transaction must not be signalled"
        );
        assert!(
            mb2.recv_timeout(t2.0, Duration::from_millis(50)).is_none(),
            "one signal per victim incarnation, however many scans"
        );
        assert_eq!(stats.deadlock_victims.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.deadlock_backstop_victims.load(Ordering::Relaxed),
            u64::from(muted),
            "a backstop victim is one no announcement led to"
        );

        drop(shards);
        let _ = shard0.tx.send(ShardCmd::Shutdown);
        let _ = shard1.tx.send(ShardCmd::Shutdown);
        let _ = shard0.join.join();
        let _ = shard1.join.join();
    }

    /// Two cycles in one component — T1 ⇄ T2 over `a`/`b`, T2 ⇄ T3 over
    /// `b`/`c` — and one scan: the youngest member's abort would leave
    /// T1 ⇄ T2 standing with no new edge to ask for another scan, so the
    /// scan must signal a victim for each cycle.
    #[test]
    fn one_scan_breaks_every_cycle_of_a_component() {
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(3));
        let items = [item(0, 0), item(1, 1), item(2, 2)];
        let handles: Vec<ShardHandle> = items
            .iter()
            .enumerate()
            .map(|(idx, &it)| spawn_shard(idx as u32, idx, it, &registry, &stats))
            .collect();
        let shards: Vec<ShardSender> = handles.iter().map(|h| h.tx.clone()).collect();
        let two_pl = CcMethod::TwoPhaseLocking;
        let mut clients: Vec<(ClientMailbox, TxnId)> =
            (1..=3).map(|seq| client(&registry, seq, two_pl)).collect();
        // T1 locks a, T2 locks b, T3 locks c …
        for (i, (mb, txn)) in clients.iter_mut().enumerate() {
            access(&shards[i], *txn, items[i], two_pl, i as u64 + 1);
            expect_grant(mb, *txn);
        }
        // … then T1 and T3 queue for b, and T2 for a and for c.
        for (i, at) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
            let txn = clients[i].1;
            access(&shards[at], txn, items[at], two_pl, i as u64 + 1);
            wait_until_waiting(&shards[at], txn);
        }

        scan_once(
            &shards,
            &registry,
            &stats,
            &test_plane(),
            &mut Vec::new(),
            true,
        );
        assert_eq!(stats.deadlock_victims.load(Ordering::Relaxed), 2);
        for (i, (mb, txn)) in clients.iter_mut().enumerate() {
            let signalled = matches!(
                mb.recv_timeout(txn.0, Duration::from_millis(50)),
                Some(ClientEvent::DeadlockVictim)
            );
            assert_eq!(signalled, i != 0, "T{}: the oldest alone survives", i + 1);
        }

        drop(shards);
        for handle in handles {
            let _ = handle.tx.send(ShardCmd::Shutdown);
            let _ = handle.join.join();
        }
    }

    /// With a T/O transaction in the cycle, the victim is still the 2PL
    /// member — even when the T/O transaction is younger.
    #[test]
    fn to_member_of_a_cycle_is_never_the_victim() {
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(2));
        let a = item(0, 0);
        let b = item(1, 1);
        let shard0 = spawn_shard(0, 0, a, &registry, &stats);
        let shard1 = spawn_shard(1, 1, b, &registry, &stats);
        let shards = vec![shard0.tx.clone(), shard1.tx.clone()];

        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        let (mut mb3, t3) = client(&registry, 3, CcMethod::TimestampOrdering);

        // 2PL T1 locks a; T/O T3 locks b (fresh thresholds accept ts 3).
        access(&shard0.tx, t1, a, CcMethod::TwoPhaseLocking, 1);
        access(&shard1.tx, t3, b, CcMethod::TimestampOrdering, 3);
        expect_grant(&mut mb1, t1);
        expect_grant(&mut mb3, t3);
        access(&shard1.tx, t1, b, CcMethod::TwoPhaseLocking, 1);
        access(&shard0.tx, t3, a, CcMethod::TimestampOrdering, 3);
        wait_until_waiting(&shard1.tx, t1);
        wait_until_waiting(&shard0.tx, t3);

        let pushed = registry.take_scan_request();
        assert!(pushed, "the closing edge asks for a scan");
        scan_once(
            &shards,
            &registry,
            &stats,
            &test_plane(),
            &mut Vec::new(),
            pushed,
        );

        match mb1.recv_timeout(t1.0, Duration::from_secs(2)) {
            Some(ClientEvent::DeadlockVictim) => {}
            other => panic!("expected the 2PL member to be the victim, got {other:?}"),
        }
        assert!(
            mb3.recv_timeout(t3.0, Duration::from_millis(50)).is_none(),
            "T/O transactions are never deadlock victims (Corollary 2)"
        );
        assert_eq!(stats.deadlock_victims.load(Ordering::Relaxed), 1);
        assert_eq!(stats.deadlock_backstop_victims.load(Ordering::Relaxed), 0);

        drop(shards);
        let _ = shard0.tx.send(ShardCmd::Shutdown);
        let _ = shard1.tx.send(ShardCmd::Shutdown);
        let _ = shard0.join.join();
        let _ = shard1.join.join();
    }

    /// The stranded-transaction sweep: a lock held by a transaction that
    /// is registered nowhere survives the first sweep (grace) and is
    /// cleaned on the second, unblocking the registered waiter queued
    /// behind it.
    #[test]
    fn stranded_lock_is_cleaned_after_two_sweeps() {
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let a = item(0, 0);
        let shard = spawn_shard(0, 0, a, &registry, &stats);
        let shards = vec![shard.tx.clone()];

        // T9 takes the write lock but is never registered — the ghost a
        // dropped Abort or a crashed client leaves behind. T1 is a live,
        // registered transaction stuck behind it.
        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        access(&shard.tx, TxnId(9), a, CcMethod::TwoPhaseLocking, 9);
        access(&shard.tx, t1, a, CcMethod::TwoPhaseLocking, 1);
        wait_until_waiting(&shard.tx, t1);

        let mut suspects = HashSet::new();
        sweep_stranded(&shards, &registry, &mut suspects);
        assert!(
            suspects.contains(&TxnId(9)),
            "first sweep only suspects the ghost"
        );
        assert!(
            mb1.recv_timeout(t1.0, Duration::from_millis(20)).is_none(),
            "grace: nothing cleaned on the first sweep"
        );
        sweep_stranded(&shards, &registry, &mut suspects);
        // The cleanup aborts T9's residual state and the freed lock
        // grants T1.
        expect_grant(&mut mb1, t1);
        assert!(!suspects.contains(&TxnId(9)), "cleaned, no longer suspect");

        drop(shards);
        let _ = shard.tx.send(ShardCmd::Shutdown);
        let _ = shard.join.join();
    }
}
