//! The background deadlock detector.
//!
//! The runtime analogue of the simulator's periodic deadlock scan: every
//! `deadlock_scan_interval` the detector asks each shard for its current
//! wait-for edges, merges them into one [`WaitForGraph`], and — per the
//! paper's Corollary 2, which guarantees every deadlock cycle contains a
//! 2PL transaction — signals the youngest 2PL member of each cycle as a
//! victim through the registry. The victim's own client thread performs the
//! abort (it owns the request issuer), so the detector never touches
//! protocol state directly.
//!
//! Because the scan is a racy snapshot assembled from per-shard reports, a
//! reported "cycle" may have already dissolved by the time the victim reacts;
//! that is harmless — `RequestIssuer::abort_for_deadlock` refuses to abort an
//! incarnation that is no longer waiting.

//! The detector thread also runs the **stranded-transaction sweep**: under
//! fault injection (dropped aborts, late-delivered accesses, crash
//! amnesia) a shard can hold queue entries or locks for a transaction no
//! client will ever finish. Each scan collects every transaction present
//! at any shard and checks it against the registry; a transaction present
//! at a shard but registered nowhere is a *suspect*. A suspect seen on
//! two consecutive scans is cleaned up with [`ShardCmd::Cleanup`] (an
//! engine-level abort of its residual state). The two-scan grace guards
//! the deregister-vs-in-flight-release race: a committing client
//! deregisters before its releases are processed, but releases travel the
//! reliable channel and land within microseconds, far inside one scan
//! interval.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dbmodel::{CcMethod, TxnId};
use trace::{Phase, TracePlane};
use unified_cc::WaitForGraph;

use crate::registry::Registry;
use crate::shard::{ShardCmd, ShardSender};
use crate::stats::RuntimeStats;

/// How long the detector waits for one shard's edge report before skipping
/// it for this scan.
const EDGE_REPORT_TIMEOUT: Duration = Duration::from_millis(100);

/// Spawn the detector thread. It stops when `stop` receives a message or
/// all senders of `stop` are dropped.
pub(crate) fn spawn(
    shards: Vec<ShardSender>,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    interval: Duration,
    stop: Receiver<()>,
    stopped: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("cc-deadlock-detector".into())
        .spawn(move || {
            // Merged-edge scratch reused across scans (the shards build
            // their reports with `wait_edges_into`, so a scan's only
            // steady-state allocations are the per-shard report vectors
            // that cross the oneshot boundary).
            let mut edges: Vec<(TxnId, TxnId)> = Vec::new();
            // Suspects carried across scans (the two-scan grace).
            let mut suspects: HashSet<TxnId> = HashSet::new();
            loop {
                match stop.recv_timeout(interval) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {}
                }
                if stopped.load(Ordering::Relaxed) {
                    return;
                }
                scan_once(&shards, &registry, &stats, &plane, &mut edges);
                sweep_stranded(&shards, &registry, &mut suspects);
            }
        })
        .expect("failed to spawn deadlock detector")
}

/// One scan: gather edges into the reusable `edges` scratch, find cycles,
/// signal victims. The scratch is left cleared with its capacity intact.
pub(crate) fn scan_once(
    shards: &[ShardSender],
    registry: &Registry,
    stats: &RuntimeStats,
    plane: &TracePlane,
    edges: &mut Vec<(TxnId, TxnId)>,
) {
    debug_assert!(edges.is_empty());
    for shard in shards {
        let (tx, rx) = transport::oneshot::channel();
        if shard.send(ShardCmd::WaitEdges(tx)).is_err() {
            continue; // shard already shut down
        }
        match rx.recv_timeout(EDGE_REPORT_TIMEOUT) {
            Ok(shard_edges) => edges.extend(shard_edges),
            Err(_) => continue, // slow or shut-down shard: skip this scan
        }
    }
    if edges.is_empty() {
        return;
    }
    let graph = WaitForGraph::from_edges(edges.drain(..));
    let victims =
        graph.choose_victims(|txn| registry.method_of(txn) == Some(CcMethod::TwoPhaseLocking));
    for victim in victims {
        if registry.signal_deadlock(victim) {
            stats.deadlock_victims.fetch_add(1, Ordering::Relaxed);
            plane.record(plane.client_lane(), victim.0, Phase::Victim, 0);
            // The first victim latches the flight-recorder postmortem (a
            // no-op unless a dump directory is configured).
            let _ = plane.trigger_postmortem("deadlock-victim");
        }
    }
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

    /// Enqueue one write `Access` for `txn` on `it` at `shard`.
    fn access(shard: &ShardSender, txn: u64, it: PhysicalItemId, method: CcMethod, ts: u64) {
        let msg = RequestMsg::Access {
            txn: TxnId(txn),
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
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(2));
        let a = item(0, 0);
        let b = item(1, 1);
        let shard0 = spawn_shard(0, 0, a, &registry, &stats);
        let shard1 = spawn_shard(1, 1, b, &registry, &stats);
        let shards = vec![shard0.tx.clone(), shard1.tx.clone()];

        let mut mb1 = registry.client_mailbox().expect("mailbox");
        let mut mb2 = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb1);
        registry.register(TxnId(2), CcMethod::TwoPhaseLocking, &mut mb2);

        // T1 locks a, T2 locks b.
        access(&shard0.tx, 1, a, CcMethod::TwoPhaseLocking, 1);
        access(&shard1.tx, 2, b, CcMethod::TwoPhaseLocking, 2);
        expect_grant(&mut mb1, TxnId(1));
        expect_grant(&mut mb2, TxnId(2));
        // Cross requests: T1 waits for b (held by T2), T2 waits for a
        // (held by T1) — a genuine deadlock.
        access(&shard1.tx, 1, b, CcMethod::TwoPhaseLocking, 1);
        access(&shard0.tx, 2, a, CcMethod::TwoPhaseLocking, 2);
        wait_until_waiting(&shard1.tx, TxnId(1));
        wait_until_waiting(&shard0.tx, TxnId(2));

        let tracer = test_plane();
        scan_once(&shards, &registry, &stats, &tracer, &mut Vec::new());
        assert_eq!(
            tracer.phase_counts()[Phase::Victim as usize],
            1,
            "the victim signal must be traced"
        );

        // The youngest 2PL member (the larger TxnId) is the victim …
        match mb2.recv_timeout(2, Duration::from_secs(2)) {
            Some(ClientEvent::DeadlockVictim) => {}
            other => panic!("expected T2 to be the victim, got {other:?}"),
        }
        // … and the older one is left alone.
        assert!(
            mb1.recv_timeout(1, Duration::from_millis(50)).is_none(),
            "the older transaction must not be signalled"
        );
        assert_eq!(stats.deadlock_victims.load(Ordering::Relaxed), 1);

        drop(shards);
        let _ = shard0.tx.send(ShardCmd::Shutdown);
        let _ = shard1.tx.send(ShardCmd::Shutdown);
        let _ = shard0.join.join();
        let _ = shard1.join.join();
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

        let mut mb1 = registry.client_mailbox().expect("mailbox");
        let mut mb3 = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb1);
        registry.register(TxnId(3), CcMethod::TimestampOrdering, &mut mb3);

        // 2PL T1 locks a; T/O T3 locks b (fresh thresholds accept ts 3).
        access(&shard0.tx, 1, a, CcMethod::TwoPhaseLocking, 1);
        access(&shard1.tx, 3, b, CcMethod::TimestampOrdering, 3);
        expect_grant(&mut mb1, TxnId(1));
        expect_grant(&mut mb3, TxnId(3));
        access(&shard1.tx, 1, b, CcMethod::TwoPhaseLocking, 1);
        access(&shard0.tx, 3, a, CcMethod::TimestampOrdering, 3);
        wait_until_waiting(&shard1.tx, TxnId(1));
        wait_until_waiting(&shard0.tx, TxnId(3));

        scan_once(&shards, &registry, &stats, &test_plane(), &mut Vec::new());

        match mb1.recv_timeout(1, Duration::from_secs(2)) {
            Some(ClientEvent::DeadlockVictim) => {}
            other => panic!("expected the 2PL member to be the victim, got {other:?}"),
        }
        assert!(
            mb3.recv_timeout(3, Duration::from_millis(50)).is_none(),
            "T/O transactions are never deadlock victims (Corollary 2)"
        );

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
        let mut mb1 = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb1);
        access(&shard.tx, 9, a, CcMethod::TwoPhaseLocking, 9);
        access(&shard.tx, 1, a, CcMethod::TwoPhaseLocking, 1);
        wait_until_waiting(&shard.tx, TxnId(1));

        let mut suspects = HashSet::new();
        sweep_stranded(&shards, &registry, &mut suspects);
        assert!(
            suspects.contains(&TxnId(9)),
            "first sweep only suspects the ghost"
        );
        assert!(
            mb1.recv_timeout(1, Duration::from_millis(20)).is_none(),
            "grace: nothing cleaned on the first sweep"
        );
        sweep_stranded(&shards, &registry, &mut suspects);
        // The cleanup aborts T9's residual state and the freed lock
        // grants T1.
        expect_grant(&mut mb1, TxnId(1));
        assert!(!suspects.contains(&TxnId(9)), "cleaned, no longer suspect");

        drop(shards);
        let _ = shard.tx.send(ShardCmd::Shutdown);
        let _ = shard.join.join();
    }
}
