//! Deadlock detection, a turn of the keeper's (`shard.rs`).
//!
//! One scan function, two triggers. A scan reads each shard's current
//! wait-for edges directly under that shard's core lock, merges them into
//! one [`WaitForGraph`], and — per the paper's Corollary 2, which
//! guarantees every deadlock cycle contains a 2PL transaction — signals the
//! youngest 2PL member of each cycle as a victim through the registry. The
//! victim's own client thread performs the abort (it owns the request
//! issuer), so the detector never changes protocol state to break a cycle.
//!
//! * **Pushed.** A shard that queues a wait-for edge whose waiter is itself
//!   waited on raises the registry's scan request and wakes the keeper
//!   (the announce rule, `shard.rs`; the marks and why the closing edge of
//!   a cycle always asks, `registry.rs`). The keeper's next turn runs the
//!   scan, so a deadlock stands for about one thread wake-up, not for half
//!   a scan interval. Requests coalesce: one scan runs at a time, and a
//!   request raised while it runs re-arms the next.
//!   A scan never blocks on a core: a down one (a `Crash` outage) is
//!   skipped at once, and a held one is retried for at most
//!   [`EDGE_REPORT_TIMEOUT`] and then skipped; either skip is counted in
//!   [`crate::StatsSnapshot::deadlock_report_skips`]. A pushed scan that
//!   skipped a shard may have missed the very cycle it was asked for, so
//!   the next turn scans once more; a second skip in a row leaves the rest
//!   to the periodic tick, so a shard that stays down does not keep the
//!   keeper rescanning.
//! * **Periodic.** Every `deadlock_scan_interval` regardless, so that
//!   liveness never rests on the announcements: an edge queued without one
//!   would leave its cycle standing until the next tick, exactly as every
//!   cycle did before — and the victim is counted in
//!   [`crate::StatsSnapshot::deadlock_backstop_victims`], which is
//!   therefore zero on a healthy runtime.
//!
//! Because the scan is a racy snapshot assembled from per-shard reads, a
//! reported "cycle" may have already dissolved by the time the victim reacts;
//! that is harmless — `RequestIssuer::abort_for_deadlock` refuses to abort an
//! incarnation that is no longer waiting. A victim that has not reacted yet
//! is seen again by the next scan and not signalled again: the registry
//! signals an incarnation once.
//!
//! The periodic tick also runs the **stranded-transaction sweep**: under
//! fault injection (dropped aborts, late-delivered accesses, crash
//! amnesia) a shard can hold queue entries or locks for a transaction no
//! client will ever finish. Each sweep collects every transaction present
//! at any shard and checks it against the registry; a transaction present
//! at a shard but registered nowhere is a *suspect*. A suspect seen on
//! two consecutive sweeps is cleaned up in the same core tenure that found
//! it ([`ShardCore::cleanup`], an engine-level abort of its residual
//! state). The two-sweep grace guards the deregister-vs-in-flight-release
//! race: a committing client deregisters before its releases are
//! processed, but releases travel the reliable channel and land within
//! microseconds, far inside one scan interval.
//!
//! These functions hold cores the way the keeper does, which makes the
//! hand-off check only before it parks: off the keeper (in tests) they
//! run while no command is in flight.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use dbmodel::{CcMethod, TxnId};
use trace::{Phase, TracePlane};
use unified_cc::WaitForGraph;

use crate::registry::Registry;
use crate::shard::ShardCore;
use crate::stats::RuntimeStats;

/// How long a scan retries one shard's held core before it skips the
/// shard for this scan.
const EDGE_REPORT_TIMEOUT: Duration = Duration::from_millis(100);

/// The detector's state between the keeper's turns.
pub(crate) struct Detector {
    pub(crate) registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    interval: Duration,
    /// When the periodic scan is next due.
    pub(crate) next_tick: Instant,
    /// The last scan was a pushed one that skipped a shard: the next turn
    /// scans again (see [`Detector::turn`]).
    retrying: bool,
    /// Merged-edge scratch reused across scans: a scan allocates nothing
    /// in the steady state.
    edges: Vec<(TxnId, TxnId)>,
    /// Suspects carried across sweeps (the two-sweep grace).
    suspects: HashSet<TxnId>,
}

impl Detector {
    pub(crate) fn new(
        registry: &Arc<Registry>,
        stats: &Arc<RuntimeStats>,
        plane: &Arc<TracePlane>,
        interval: Duration,
    ) -> Self {
        Detector {
            registry: Arc::clone(registry),
            stats: Arc::clone(stats),
            plane: Arc::clone(plane),
            interval,
            next_tick: Instant::now() + interval,
            retrying: false,
            edges: Vec::new(),
            suspects: HashSet::new(),
        }
    }

    /// The keeper's turn: a scan if one was asked for or the tick is due,
    /// and the sweep on the tick. Whether anything ran.
    pub(crate) fn turn(&mut self, cores: &[Arc<Mutex<ShardCore>>]) -> bool {
        // A retry is a scan the detector asked itself for.
        let pushed = self.registry.take_scan_request() || self.retrying;
        let tick = Instant::now() >= self.next_tick;
        if !pushed && !tick {
            return false;
        }
        let push_scans = &self.stats.deadlock_push_scans;
        push_scans.fetch_add(u64::from(pushed), Ordering::Relaxed);
        let skipped = self.scan_once(cores, pushed);
        // A pushed scan that skipped a shard may have missed the cycle it
        // was asked for, and nothing else would ask before the tick: ask
        // once more, for the next turn. A second skip in a row leaves it
        // to the tick.
        self.retrying = skipped && pushed && !self.retrying;
        if tick {
            self.sweep_stranded(cores);
            self.next_tick = Instant::now() + self.interval;
        }
        true
    }

    /// One scan: gather edges into the reusable scratch, find cycles,
    /// signal victims. `pushed` says a shard asked for this scan. Returns
    /// whether a shard was skipped (and counted).
    pub(crate) fn scan_once(&mut self, cores: &[Arc<Mutex<ShardCore>>], pushed: bool) -> bool {
        let (registry, stats, plane) = (&*self.registry, &*self.stats, &*self.plane);
        let edges = &mut self.edges;
        debug_assert!(edges.is_empty());
        let mut skipped = false;
        for core in cores {
            match report(core) {
                Some(core) => core.qm.wait_edges_into(edges),
                None => {
                    skipped = true;
                    stats.deadlock_report_skips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if edges.is_empty() {
            return skipped;
        }
        // A request that came in while the edges were gathered was raised
        // under its shard's lock, before the edge it speaks for could be read:
        // whatever this scan finds, an announcement led to it.
        let pushed = pushed || registry.scan_requested();
        // Every cycle in the snapshot gets its victim now: a cycle left for
        // "the next scan" gains no new edge, so nobody would ask for that scan.
        let victims =
            WaitForGraph::from_edges(edges.drain(..)).choose_victims_exhaustively(|txn| {
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

    /// One stranded-transaction sweep (see the module docs): collect
    /// every transaction present at each shard, suspect those registered
    /// nowhere, and clean up suspects already seen on the previous sweep.
    pub(crate) fn sweep_stranded(&mut self, cores: &[Arc<Mutex<ShardCore>>]) {
        let mut next_suspects: HashSet<TxnId> = HashSet::new();
        for core in cores {
            // Down or held past the timeout: the next sweep.
            let Some(mut core) = report(core) else {
                continue;
            };
            let mut present = Vec::new();
            core.qm.present_txns_into(&mut present);
            let mut confirmed = Vec::new();
            for &txn in &present {
                if self.registry.method_of(txn).is_some() {
                    continue; // live somewhere — not stranded
                }
                if self.suspects.contains(&txn) {
                    confirmed.push(txn);
                } else {
                    next_suspects.insert(txn);
                }
            }
            core.cleanup(&confirmed);
        }
        self.suspects = next_suspects;
    }
}

/// Take `core` for a read, retrying a held one for at most
/// [`EDGE_REPORT_TIMEOUT`]; `None` — skip it — when it stays held or is
/// down.
fn report(core: &Mutex<ShardCore>) -> Option<MutexGuard<'_, ShardCore>> {
    let deadline = Instant::now() + EDGE_REPORT_TIMEOUT;
    loop {
        match core.try_lock() {
            Ok(core) => return (!core.is_down()).then_some(core),
            Err(TryLockError::WouldBlock) if Instant::now() < deadline => std::thread::yield_now(),
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ClientEvent, ClientMailbox};
    use crate::shard::{KeeperJoin, ShardCmd, ShardSender};
    use dbmodel::{AccessMode, LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId};
    use pam::RequestMsg;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;
    use unified_cc::{EnforcementMode, QueueManager};

    fn item(i: u64, site: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(i), SiteId(site))
    }

    /// One shard per item, shard `i` at the site of `items[i]`, under a
    /// keeper that takes no detection turn: the tests scan by hand.
    fn spawn_shards(
        items: &[PhysicalItemId],
        registry: &Arc<Registry>,
        stats: &Arc<RuntimeStats>,
    ) -> (Vec<ShardSender>, KeeperJoin) {
        let plane = Arc::new(TracePlane::new(&trace::TraceConfig::default(), 2));
        let (shards, inboxes): (Vec<_>, Vec<_>) = items
            .iter()
            .enumerate()
            .map(|(idx, &it)| {
                let mut qm = QueueManager::new(it.site);
                qm.add_item(it, 0, EnforcementMode::SemiLock);
                let (tx, rx) = transport::ring::channel(16);
                let shard = crate::shard::build(
                    qm,
                    idx,
                    tx,
                    Arc::clone(registry),
                    Arc::clone(stats),
                    Arc::clone(&plane),
                    Arc::new(crate::clock::CommitClock::new()),
                );
                (shard, rx)
            })
            .unzip();
        let detector = Detector::new(registry, stats, &plane, Duration::from_secs(10));
        let keeper = crate::shard::spawn_keeper(
            shards.iter().zip(inboxes).collect(),
            detector,
            Arc::new(AtomicBool::new(true)),
        );
        (shards, keeper)
    }

    /// The cores a scan reads.
    fn cores(shards: &[ShardSender]) -> Vec<Arc<Mutex<ShardCore>>> {
        shards.iter().map(ShardSender::core).collect()
    }

    fn shut_down(shards: Vec<ShardSender>, keeper: KeeperJoin) {
        for shard in &shards {
            let _ = shard.send(ShardCmd::Shutdown);
        }
        drop(shards);
        assert!(keeper.join().unwrap().iter().all(Result::is_ok));
    }

    fn test_plane() -> TracePlane {
        TracePlane::new(&trace::TraceConfig::default(), 2)
    }

    /// A detector scanning by hand, its tick far away.
    fn detector(
        registry: &Arc<Registry>,
        stats: &Arc<RuntimeStats>,
        plane: &Arc<TracePlane>,
    ) -> Detector {
        Detector::new(registry, stats, plane, Duration::from_secs(10))
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
        let (shards, keeper) = spawn_shards(&[a, b], &registry, &stats);
        let (shard0, shard1) = (&shards[0], &shards[1]);
        let cores = cores(&shards);

        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        let (mut mb2, t2) = client(&registry, 2, CcMethod::TwoPhaseLocking);

        // T1 locks a, T2 locks b.
        access(shard0, t1, a, CcMethod::TwoPhaseLocking, 1);
        access(shard1, t2, b, CcMethod::TwoPhaseLocking, 2);
        expect_grant(&mut mb1, t1);
        expect_grant(&mut mb2, t2);
        // Cross requests: T1 waits for b (held by T2), T2 waits for a
        // (held by T1) — a genuine deadlock.
        access(shard1, t1, b, CcMethod::TwoPhaseLocking, 1);
        access(shard0, t2, a, CcMethod::TwoPhaseLocking, 2);
        wait_until_waiting(shard1, t1);
        wait_until_waiting(shard0, t2);

        // The shards announced both edges; the second found its waiter
        // already waited on and asked for a scan.
        assert_eq!(stats.deadlock_probes.load(Ordering::Relaxed), 2);
        assert_eq!(registry.scan_requested(), !muted);

        // A periodic scan — which still counts as pushed if a request is
        // pending by the time it has read the edges.
        let tracer = Arc::new(test_plane());
        let mut detector = detector(&registry, &stats, &tracer);
        detector.scan_once(&cores, false);
        // The victim has not reacted, the cycle still stands: a second and
        // a third scan see it and must not signal it again.
        detector.scan_once(&cores, true);
        detector.scan_once(&cores, false);
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
        assert_eq!(stats.deadlock_report_skips.load(Ordering::Relaxed), 0);

        shut_down(shards, keeper);
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
        let (shards, keeper) = spawn_shards(&items, &registry, &stats);
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

        detector(&registry, &stats, &Arc::new(test_plane())).scan_once(&cores(&shards), true);
        assert_eq!(stats.deadlock_victims.load(Ordering::Relaxed), 2);
        for (i, (mb, txn)) in clients.iter_mut().enumerate() {
            let signalled = matches!(
                mb.recv_timeout(txn.0, Duration::from_millis(50)),
                Some(ClientEvent::DeadlockVictim)
            );
            assert_eq!(signalled, i != 0, "T{}: the oldest alone survives", i + 1);
        }

        shut_down(shards, keeper);
    }

    /// With a T/O transaction in the cycle, the victim is still the 2PL
    /// member — even when the T/O transaction is younger.
    #[test]
    fn to_member_of_a_cycle_is_never_the_victim() {
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(2));
        let a = item(0, 0);
        let b = item(1, 1);
        let (shards, keeper) = spawn_shards(&[a, b], &registry, &stats);
        let (shard0, shard1) = (&shards[0], &shards[1]);

        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        let (mut mb3, t3) = client(&registry, 3, CcMethod::TimestampOrdering);

        // 2PL T1 locks a; T/O T3 locks b (fresh thresholds accept ts 3).
        access(shard0, t1, a, CcMethod::TwoPhaseLocking, 1);
        access(shard1, t3, b, CcMethod::TimestampOrdering, 3);
        expect_grant(&mut mb1, t1);
        expect_grant(&mut mb3, t3);
        access(shard1, t1, b, CcMethod::TwoPhaseLocking, 1);
        access(shard0, t3, a, CcMethod::TimestampOrdering, 3);
        wait_until_waiting(shard1, t1);
        wait_until_waiting(shard0, t3);

        let pushed = registry.take_scan_request();
        assert!(pushed, "the closing edge asks for a scan");
        detector(&registry, &stats, &Arc::new(test_plane())).scan_once(&cores(&shards), pushed);

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

        shut_down(shards, keeper);
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
        let (shards, keeper) = spawn_shards(&[a], &registry, &stats);
        let shard = &shards[0];

        // T9 takes the write lock but is never registered — the ghost a
        // dropped Abort or a crashed client leaves behind. T1 is a live,
        // registered transaction stuck behind it.
        let (mut mb1, t1) = client(&registry, 1, CcMethod::TwoPhaseLocking);
        access(shard, TxnId(9), a, CcMethod::TwoPhaseLocking, 9);
        access(shard, t1, a, CcMethod::TwoPhaseLocking, 1);
        wait_until_waiting(shard, t1);

        let cores = cores(&shards);
        let mut detector = detector(&registry, &stats, &Arc::new(test_plane()));
        detector.sweep_stranded(&cores);
        assert!(
            detector.suspects.contains(&TxnId(9)),
            "first sweep only suspects the ghost"
        );
        assert!(
            mb1.recv_timeout(t1.0, Duration::from_millis(20)).is_none(),
            "grace: nothing cleaned on the first sweep"
        );
        detector.sweep_stranded(&cores);
        // The cleanup aborts T9's residual state and the freed lock
        // grants T1.
        expect_grant(&mut mb1, t1);
        assert!(
            !detector.suspects.contains(&TxnId(9)),
            "cleaned, no longer suspect"
        );
        assert_eq!(stats.cleanup_aborts.load(Ordering::Relaxed), 1);

        shut_down(shards, keeper);
    }
}
