//! # faultsim — seeded deterministic fault injection for the message plane
//!
//! The runtime's "network" is the transport boundary between client
//! threads and the shards: every protocol message a transaction sends
//! crosses it exactly once. This crate wraps that boundary with a fault
//! plane that can **drop**, **duplicate**, **delay/reorder** and
//! **partition** messages per link (one link per destination shard), and
//! **crash** shards at scheduled points — all driven by a
//! [`FaultSchedule`] derived from a single [`SimRng`] seed, so any
//! failing run is replayed by re-running the same seed.
//!
//! ## Message reliability classes
//!
//! Not every message may be faulted. `Release` and `Demote` carry the
//! *committed write* of a transaction whose client considers the commit
//! decided the moment they are sent (2PL/PA release is fire-and-forget);
//! dropping one would silently lose a committed write, and delaying a
//! `Demote` turns a bounded commit wait into a phantom failure while the
//! write still lands later. Both are therefore modeled as a **durable
//! commit channel**: never dropped, never delayed, and they pass through
//! partitions. `Access`, `UpdatedTs` and `Abort` are fair game — losing
//! or delaying them strands *uncommitted* state, which the runtime's
//! timeouts and the detector's stranded-transaction cleanup must (and,
//! under test, demonstrably do) recover.
//!
//! ## Crash model
//!
//! A crash is **partial amnesia over an outage**: the shard goes
//! unresponsive for the scheduled outage, then recovers having lost every
//! *ungranted* queue entry while keeping granted locks, implemented
//! values and the `R-TS`/`W-TS` thresholds — the durable-store framing in
//! which grants and implementations have hit stable storage but in-flight
//! admissions have not. Clients whose requests were wiped observe the
//! loss as a grant that never arrives and recover through the request
//! timeout.
//!
//! ## Determinism
//!
//! The *schedule* — fault rates, partition windows, crash points, and
//! every per-link decision stream — is a pure function of the seed.
//! Per-link decisions are serialized under a per-link lock, so the k-th
//! droppable message on a link always gets the k-th draw of that link's
//! forked stream. In a multi-threaded run the OS scheduler still decides
//! *which* message is k-th; single-threaded regression tests are exactly
//! reproducible, and multi-threaded sweeps reproduce the same fault
//! pressure and the same windows even when individual victims differ.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pam::RequestMsg;
use simkit::rng::SimRng;

/// Is this message on the durable commit channel (exempt from faults)?
///
/// See the crate docs: `Release` and `Demote` implement committed writes
/// whose clients no longer wait for an acknowledgement, so faulting them
/// would forge lost updates rather than recoverable chaos.
pub fn is_reliable(msg: &RequestMsg) -> bool {
    matches!(msg, RequestMsg::Release { .. } | RequestMsg::Demote { .. })
}

/// Intensity knobs from which a concrete [`FaultSchedule`] is derived.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a droppable message is silently discarded.
    pub drop_rate: f64,
    /// Probability a droppable message is delivered twice.
    pub dup_rate: f64,
    /// Probability a droppable message is held back and released after
    /// [`FaultProfile::delay_span`] later sends on the same link
    /// (delay doubles as reordering: later messages overtake it).
    pub delay_rate: f64,
    /// How many subsequent sends on the link pass a delayed message.
    pub delay_span: u64,
    /// Partition windows per link (each buffers the link for
    /// [`FaultProfile::partition_len`] sends, then heals and flushes).
    pub partitions_per_link: u32,
    /// Length of each partition window, in sends on the link.
    pub partition_len: u64,
    /// Total shard crashes to schedule across all links.
    pub crashes: u32,
    /// How long a crashed shard stays unresponsive before recovering.
    pub crash_outage: Duration,
    /// Approximate sends per link the run is expected to make; partition
    /// windows and crash points are placed uniformly inside this horizon.
    pub horizon: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            delay_span: 8,
            partitions_per_link: 0,
            partition_len: 32,
            crashes: 0,
            crash_outage: Duration::from_millis(20),
            horizon: 512,
        }
    }
}

impl FaultProfile {
    /// A mixed-chaos profile drawn from `seed` itself: every fault class
    /// is armed with a seed-dependent intensity. Used by the seed-sweep
    /// property test so 200 seeds explore 200 different chaos mixes.
    pub fn sampled(seed: u64) -> FaultProfile {
        let mut rng = SimRng::new(seed).fork(0xF417);
        FaultProfile {
            drop_rate: rng.next_f64() * 0.10,
            dup_rate: rng.next_f64() * 0.10,
            delay_rate: rng.next_f64() * 0.10,
            delay_span: 2 + rng.next_below(12),
            partitions_per_link: rng.next_below(2) as u32,
            partition_len: 8 + rng.next_below(24),
            crashes: rng.next_below(3) as u32,
            crash_outage: Duration::from_millis(5 + rng.next_below(15)),
            horizon: 256,
        }
    }
}

/// A partition window on one link: sends in `[from, until)` (link-local
/// send counts) are buffered and flushed when the window heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    pub from: u64,
    pub until: u64,
}

/// A scheduled crash: when the link's send counter reaches `at_send`,
/// the destination shard crashes for the schedule's outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    pub at_send: u64,
}

/// The concrete, fully materialized fault schedule for one run: rates
/// plus per-link partition windows and crash points, all derived from
/// one seed. `Display` prints everything needed to replay the run.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    profile: FaultProfile,
    partitions: Vec<Vec<PartitionWindow>>,
    crashes: Vec<Vec<CrashPoint>>,
}

impl FaultSchedule {
    /// Materialize the schedule `profile` implies for `num_links` links
    /// under `seed`. The same `(profile, seed, num_links)` triple always
    /// yields the identical schedule.
    pub fn generate(profile: FaultProfile, seed: u64, num_links: usize) -> FaultSchedule {
        let root = SimRng::new(seed);
        let mut partitions = vec![Vec::new(); num_links];
        let mut crashes = vec![Vec::new(); num_links];
        let horizon = profile.horizon.max(1);

        let mut part_rng = root.fork(1);
        for windows in partitions.iter_mut() {
            for _ in 0..profile.partitions_per_link {
                let from = 1 + part_rng.next_below(horizon);
                windows.push(PartitionWindow {
                    from,
                    until: from + profile.partition_len.max(1),
                });
            }
            windows.sort_by_key(|w| w.from);
        }

        let mut crash_rng = root.fork(2);
        for _ in 0..profile.crashes {
            if num_links == 0 {
                break;
            }
            let link = crash_rng.next_index(num_links);
            crashes[link].push(CrashPoint {
                at_send: 1 + crash_rng.next_below(horizon),
            });
        }
        for points in crashes.iter_mut() {
            points.sort_by_key(|c| c.at_send);
        }

        FaultSchedule {
            seed,
            profile,
            partitions,
            crashes,
        }
    }

    /// The seed the schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The intensity profile the schedule was derived from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Number of links the schedule covers.
    pub fn num_links(&self) -> usize {
        self.partitions.len()
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.profile;
        writeln!(
            f,
            "FaultSchedule {{ seed: {:#x}, drop: {:.3}, dup: {:.3}, delay: {:.3} (span {}), \
             outage: {:?}, horizon: {} }}",
            self.seed,
            p.drop_rate,
            p.dup_rate,
            p.delay_rate,
            p.delay_span,
            p.crash_outage,
            p.horizon
        )?;
        for (link, windows) in self.partitions.iter().enumerate() {
            if !windows.is_empty() {
                writeln!(f, "  link {link}: partitions {windows:?}")?;
            }
        }
        for (link, points) in self.crashes.iter().enumerate() {
            if !points.is_empty() {
                writeln!(f, "  link {link}: crashes {points:?}")?;
            }
        }
        Ok(())
    }
}

/// A crash signal the caller must act on: take the destination shard
/// down for `outage`, then recover it with partial amnesia.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    pub outage: Duration,
}

/// Monotonic counters of every fault the plane actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Droppable messages silently discarded.
    pub dropped: u64,
    /// Droppable messages delivered twice.
    pub duplicated: u64,
    /// Droppable messages held back past later sends.
    pub delayed: u64,
    /// Messages buffered by a partition window.
    pub partitioned: u64,
    /// Crash signals handed to the caller.
    pub crashes: u64,
}

impl FaultCounters {
    /// Total faults of any class.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.partitioned + self.crashes
    }
}

/// Per-link mutable state: the forked decision stream, the send counter
/// the schedule's windows are defined over, and the hold buffers.
#[derive(Debug)]
struct LinkState {
    rng: SimRng,
    sends: u64,
    /// Delayed messages with the send count at which they are released.
    held: Vec<(u64, RequestMsg)>,
    /// Messages buffered by the currently open partition window.
    partition_buf: Vec<RequestMsg>,
    /// Index of the next unconsumed partition window.
    next_partition: usize,
    /// Index of the next unfired crash point.
    next_crash: usize,
}

/// The live fault plane: a [`FaultSchedule`] plus the per-link runtime
/// state, shared by every client thread crossing the boundary.
///
/// Thread-safe; per-link decisions are serialized by a per-link lock so
/// the decision stream stays attached to the link's send order.
#[derive(Debug)]
pub struct FaultPlane {
    schedule: FaultSchedule,
    links: Vec<Mutex<LinkState>>,
    active: AtomicBool,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    partitioned: AtomicU64,
    crashes: AtomicU64,
}

impl FaultPlane {
    /// Arm the plane with a materialized schedule.
    pub fn new(schedule: FaultSchedule) -> FaultPlane {
        let root = SimRng::new(schedule.seed());
        let links = (0..schedule.num_links())
            .map(|link| {
                Mutex::new(LinkState {
                    rng: root.fork(0x11AA + link as u64),
                    sends: 0,
                    held: Vec::new(),
                    partition_buf: Vec::new(),
                    next_partition: 0,
                    next_crash: 0,
                })
            })
            .collect();
        FaultPlane {
            schedule,
            links,
            active: AtomicBool::new(true),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
        }
    }

    /// The schedule the plane runs.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Pass one outbound message through the plane. Messages to deliver
    /// *now* (possibly none, possibly several: duplicates, released
    /// delays, healed partitions) are appended to `out` — all addressed
    /// to the same link. Returns a crash signal when the send crossed a
    /// scheduled crash point.
    pub fn on_send(
        &self,
        link: usize,
        msg: RequestMsg,
        out: &mut Vec<RequestMsg>,
    ) -> Option<CrashSignal> {
        if !self.active.load(Ordering::Acquire) || link >= self.links.len() {
            out.push(msg);
            return None;
        }
        let mut st = self.links[link].lock().expect("fault link poisoned");
        st.sends += 1;
        let now = st.sends;

        // Release delayed messages that have served their span.
        let mut i = 0;
        while i < st.held.len() {
            if st.held[i].0 <= now {
                let (_, held) = st.held.swap_remove(i);
                out.push(held);
            } else {
                i += 1;
            }
        }

        // Crash points fire at most once each, in order.
        let mut crash = None;
        while let Some(point) = self.schedule.crashes[link].get(st.next_crash) {
            if point.at_send > now {
                break;
            }
            st.next_crash += 1;
            self.crashes.fetch_add(1, Ordering::Relaxed);
            crash = Some(CrashSignal {
                outage: self.schedule.profile.crash_outage,
            });
        }

        // Partition windows: buffer droppable traffic inside an open
        // window; flush the buffer the first send at or past its end.
        let mut inside_partition = false;
        while let Some(window) = self.schedule.partitions[link].get(st.next_partition) {
            if now < window.from {
                break;
            }
            if now < window.until {
                inside_partition = true;
                break;
            }
            st.next_partition += 1;
            let healed = std::mem::take(&mut st.partition_buf);
            out.extend(healed);
        }

        if is_reliable(&msg) {
            // The durable commit channel bypasses every fault class.
            out.push(msg);
            return crash;
        }

        if inside_partition {
            st.partition_buf.push(msg);
            self.partitioned.fetch_add(1, Ordering::Relaxed);
            return crash;
        }

        let draw = st.rng.next_f64();
        let p = &self.schedule.profile;
        if draw < p.drop_rate {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else if draw < p.drop_rate + p.dup_rate {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            out.push(msg);
            out.push(msg);
        } else if draw < p.drop_rate + p.dup_rate + p.delay_rate {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            let due = now + p.delay_span.max(1);
            st.held.push((due, msg));
        } else {
            out.push(msg);
        }
        crash
    }

    /// Quiesce the plane: deactivate fault injection and flush every
    /// hold buffer (delayed and partition-buffered messages) through
    /// `deliver(link, msg)`. Call before the final drain so no message
    /// is still parked in the plane when invariants are checked.
    pub fn quiesce(&self, mut deliver: impl FnMut(usize, RequestMsg)) {
        self.active.store(false, Ordering::Release);
        for (link, slot) in self.links.iter().enumerate() {
            let mut st = slot.lock().expect("fault link poisoned");
            for (_, msg) in st.held.drain(..) {
                deliver(link, msg);
            }
            for msg in st.partition_buf.drain(..) {
                deliver(link, msg);
            }
        }
    }

    /// Whether the plane is still injecting faults.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Snapshot of everything injected so far.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{
        AccessMode, CcMethod, LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId,
    };

    fn access(txn: u64) -> RequestMsg {
        RequestMsg::Access {
            txn: TxnId(txn),
            item: PhysicalItemId::new(LogicalItemId(1), SiteId(0)),
            mode: AccessMode::Write,
            method: CcMethod::TwoPhaseLocking,
            ts: TsTuple::new(Timestamp(1), 10),
        }
    }

    fn release(txn: u64) -> RequestMsg {
        RequestMsg::Release {
            txn: TxnId(txn),
            item: PhysicalItemId::new(LogicalItemId(1), SiteId(0)),
            write_value: Some(7),
            commit_ts: Timestamp::ZERO,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let profile = FaultProfile {
            partitions_per_link: 2,
            crashes: 3,
            ..FaultProfile::default()
        };
        let a = FaultSchedule::generate(profile.clone(), 42, 4);
        let b = FaultSchedule::generate(profile, 42, 4);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn different_seeds_differ() {
        let profile = FaultProfile {
            partitions_per_link: 2,
            crashes: 3,
            ..FaultProfile::default()
        };
        let a = FaultSchedule::generate(profile.clone(), 1, 4);
        let b = FaultSchedule::generate(profile, 2, 4);
        assert!(a.partitions != b.partitions || a.crashes != b.crashes);
    }

    #[test]
    fn drop_rate_one_drops_every_droppable_message() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                drop_rate: 1.0,
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        for t in 0..50 {
            plane.on_send(0, access(t), &mut out);
        }
        assert!(out.is_empty(), "every droppable message dropped");
        assert_eq!(plane.counters().dropped, 50);
    }

    #[test]
    fn reliable_messages_bypass_every_fault() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                drop_rate: 1.0,
                partitions_per_link: 1,
                partition_len: 1000,
                horizon: 1,
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        for t in 0..20 {
            plane.on_send(0, release(t), &mut out);
        }
        assert_eq!(out.len(), 20, "durable commit channel is untouched");
        assert_eq!(plane.counters().dropped, 0);
    }

    #[test]
    fn duplication_delivers_twice() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                dup_rate: 1.0,
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        plane.on_send(0, access(1), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(plane.counters().duplicated, 1);
    }

    #[test]
    fn delay_holds_then_releases_after_span() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                delay_rate: 1.0,
                delay_span: 2,
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        plane.on_send(0, access(1), &mut out);
        assert!(out.is_empty(), "held");
        // Sends 2 and 3: both also delayed (rate 1.0); send 3 releases
        // the first held message (due at send 1 + span 2 = 3).
        plane.on_send(0, access(2), &mut out);
        assert!(out.is_empty());
        plane.on_send(0, access(3), &mut out);
        assert_eq!(out.len(), 1, "first message released after its span");
        assert!(matches!(out[0], RequestMsg::Access { txn: TxnId(1), .. }));
    }

    #[test]
    fn partition_buffers_then_flushes_at_heal() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                partitions_per_link: 1,
                partition_len: 3,
                horizon: 1, // window starts at send 1
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let window = schedule.partitions[0][0];
        assert_eq!(window.from, 1);
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        for t in 1..=3 {
            plane.on_send(0, access(t), &mut out);
        }
        assert!(out.is_empty(), "window [1,4) buffers all three");
        assert_eq!(plane.counters().partitioned, 3);
        plane.on_send(0, access(4), &mut out);
        assert_eq!(out.len(), 4, "heal flushes the buffer plus the new send");
    }

    #[test]
    fn crash_points_fire_once_at_their_send() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                crashes: 1,
                horizon: 1, // crash at send 1 on some link
                ..FaultProfile::default()
            },
            7,
            2,
        );
        let link = schedule
            .crashes
            .iter()
            .position(|c| !c.is_empty())
            .expect("one crash scheduled");
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        let first = plane.on_send(link, access(1), &mut out);
        assert!(first.is_some(), "crash fires at its send");
        let second = plane.on_send(link, access(2), &mut out);
        assert!(second.is_none(), "crash fires only once");
        assert_eq!(plane.counters().crashes, 1);
    }

    #[test]
    fn quiesce_flushes_all_buffers_and_deactivates() {
        let schedule = FaultSchedule::generate(
            FaultProfile {
                delay_rate: 1.0,
                delay_span: 1000,
                ..FaultProfile::default()
            },
            7,
            1,
        );
        let plane = FaultPlane::new(schedule);
        let mut out = Vec::new();
        for t in 0..5 {
            plane.on_send(0, access(t), &mut out);
        }
        assert!(out.is_empty());
        let mut flushed = Vec::new();
        plane.quiesce(|link, msg| flushed.push((link, msg)));
        assert_eq!(flushed.len(), 5, "every held message flushed");
        assert!(!plane.is_active());
        // After quiesce the plane is a passthrough.
        plane.on_send(0, access(99), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sampled_profiles_vary_with_seed_and_replay_exactly() {
        let a = FaultProfile::sampled(1);
        let b = FaultProfile::sampled(1);
        let c = FaultProfile::sampled(2);
        assert_eq!(a, b, "same seed, same profile");
        assert_ne!(a, c, "different seeds explore different chaos mixes");
        assert!(a.drop_rate <= 0.10 && a.dup_rate <= 0.10 && a.delay_rate <= 0.10);
    }

    #[test]
    fn deterministic_single_threaded_replay_is_exact() {
        let run = |seed: u64| {
            let schedule = FaultSchedule::generate(FaultProfile::sampled(seed), seed, 2);
            let plane = FaultPlane::new(schedule);
            let mut out = Vec::new();
            let mut crashes = 0u32;
            for t in 0..200 {
                if plane
                    .on_send((t % 2) as usize, access(t), &mut out)
                    .is_some()
                {
                    crashes += 1;
                }
            }
            (out, crashes, plane.counters())
        };
        let (out_a, crashes_a, counters_a) = run(99);
        let (out_b, crashes_b, counters_b) = run(99);
        assert_eq!(out_a, out_b);
        assert_eq!(crashes_a, crashes_b);
        assert_eq!(counters_a, counters_b);
    }
}
