//! The reply-plane race certification suite (PR 4's `test` archetype).
//!
//! The slab registry's one dangerous claim is that a reply addressed to
//! an earlier incarnation can never surface in a later incarnation that
//! reuses the same mailbox slot — the runtime's "stale reply for an
//! aborted incarnation is dropped" rule, enforced by each slot's binding
//! lock (a delivery checks the key and pushes under it, a deregister
//! clears the key under it, a register sweeps the ring and binds under
//! it) instead of by allocating a fresh channel per incarnation. This
//! suite attacks that claim four ways:
//!
//! 1. **Seeded churn across 8 threads** — clients cycle incarnations on
//!    reused mailboxes while producers deliver against deliberately
//!    stale key snapshots; every received event must carry the
//!    consumer's *current* key, and the stale-drop counter must prove
//!    the races actually fired.
//! 2. **Mutation check** — the identical machinery with the
//!    register-time sweep disabled
//!    (`MailboxOptions::sweep_on_register = false`) must demonstrably
//!    leak: a stale reply observably reaches a later incarnation. If
//!    this test ever stops failing-the-guarantee with the sweep off, the
//!    suite has lost its teeth.
//! 3. **Victim-signal race** — a `DeadlockVictim`-style marker racing a
//!    stream of coalesced reply batches is never lost: if the producer
//!    saw it accepted, the consumer observes it before the registration
//!    is torn down.
//! 4. **Metadata churn** — updates through `update_meta` aimed at keys
//!    that die mid-flight never land on the next incarnation of the
//!    slot (the runtime keeps its deadlock flags there).
//!
//! Every key is minted from its client's own mailbox
//! (`MailboxRegistry::key(seq, mailbox.slot())`), as the runtime mints
//! transaction ids, so the suite races the key-addressed slab itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simkit::rng::SimRng;
use transport::mailbox::{Mailbox, MailboxOptions, MailboxRegistry};

const CLIENTS: usize = 8;
const PRODUCERS: usize = 4;

/// Events in this suite are `(intended_key, payload)` where the payload
/// repeats the key the producer believed it was addressing — so a
/// misrouted event is observable at the consumer even if the filter is
/// mutation-disabled.
type Ev = u64;

/// Raises `stop` when dropped. Each scope body holds one, so a failing
/// assertion in the body still stops the threads it spawned: the scope
/// joins and the test fails instead of hanging.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn churn_options(sweep_on_register: bool) -> MailboxOptions {
    MailboxOptions {
        mailbox_capacity: 32,
        max_clients: CLIENTS,
        sweep_on_register,
        ..MailboxOptions::default()
    }
}

/// The shared churn harness. Runs clients cycling incarnations on
/// reused mailboxes against producers delivering to (possibly stale)
/// key snapshots until `deadline`, and returns
/// `(cross_incarnation_leaks, stale_dropped)`.
fn run_churn(registry: &MailboxRegistry<Ev>, run_for: Duration, seed: u64) -> (u64, u64) {
    // Each client's currently (or recently) registered key. Producers
    // read these racily — that staleness is the attack.
    let published: Arc<Vec<AtomicU64>> =
        Arc::new((0..CLIENTS).map(|_| AtomicU64::new(0)).collect());
    let next_seq = Arc::new(AtomicU64::new(1));
    let stop = Arc::new(AtomicBool::new(false));
    let leaks = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        for p in 0..PRODUCERS {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let registry = registry.clone();
            scope.spawn(move || {
                let mut rng = SimRng::new(seed ^ (0xB0B0 + p as u64));
                while !stop.load(Ordering::Relaxed) {
                    let c = (rng.next_f64() * CLIENTS as f64) as usize % CLIENTS;
                    let key = published[c].load(Ordering::Relaxed);
                    if key == 0 {
                        continue;
                    }
                    // Deliver a burst; by the time the later sends land
                    // the client may be incarnations ahead.
                    for _ in 0..4 {
                        registry.deliver(key, key);
                    }
                }
            });
        }
        for c in 0..CLIENTS {
            let published = Arc::clone(&published);
            let next_seq = Arc::clone(&next_seq);
            let stop = Arc::clone(&stop);
            let leaks = Arc::clone(&leaks);
            let registry = registry.clone();
            scope.spawn(move || {
                let mut rng = SimRng::new(seed ^ (0xC11E + c as u64));
                // One mailbox per client thread, reused across every
                // incarnation below — the allocation-free design under
                // test.
                let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
                while !stop.load(Ordering::Relaxed) {
                    let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                    let key = registry.key(seq, mailbox.slot()).expect("seq fits");
                    registry.register(key, 0, &mut mailbox);
                    published[c].store(key, Ordering::Relaxed);
                    // Seed one event for this incarnation regardless of
                    // producer aim. `try_deliver`, not `deliver`: this
                    // thread is its own consumer, and blocking on a ring
                    // only it can drain would self-deadlock.
                    registry.try_deliver(key, key);
                    let drains = 1 + (rng.next_f64() * 3.0) as usize;
                    for _ in 0..drains {
                        if let Some(payload) = mailbox.recv_timeout(key, Duration::from_millis(5)) {
                            if payload != key {
                                // A reply for another (earlier)
                                // incarnation surfaced in this one.
                                leaks.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Leave undrained events behind on purpose: the next
                    // incarnation must never see them.
                    registry.deregister(key);
                    if rng.next_f64() < 0.05 {
                        std::thread::yield_now();
                    }
                }
                published[c].store(0, Ordering::Relaxed);
            });
        }
        std::thread::sleep(run_for);
    });
    (leaks.load(Ordering::Relaxed), registry.stale_dropped())
}

/// Satellite 1, main half: with the stale-event guard whole, the churn
/// may drop arbitrarily many stale events but must never leak one into
/// a later incarnation — and the sweep counter must prove the stale
/// races genuinely happened (otherwise the zero-leak assertion is
/// vacuous).
#[test]
fn churn_with_tag_never_leaks_across_incarnations() {
    let registry = MailboxRegistry::<Ev>::with_options(churn_options(true));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut total_stale = 0;
    while Instant::now() < deadline {
        let (leaks, stale) = run_churn(&registry, Duration::from_millis(300), 0xA5EED);
        assert_eq!(
            leaks, 0,
            "a stale reply reached a later incarnation despite the guard"
        );
        total_stale = stale;
        if total_stale > 0 {
            break;
        }
    }
    assert!(
        total_stale > 0,
        "the churn never produced a stale delivery — the race test is vacuous"
    );
}

/// Satellite 1, mutation half: disabling the register-time sweep must
/// make the identical churn demonstrably fail the stale-grant rule. The
/// deterministic transport-level unit test pins the exact leak
/// sequence; this one shows the sweep is what stops it *under real
/// races*.
#[test]
fn churn_without_tag_demonstrably_leaks() {
    let registry = MailboxRegistry::<Ev>::with_options(churn_options(false));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut leaked = 0;
    while Instant::now() < deadline && leaked == 0 {
        let (leaks, _) = run_churn(&registry, Duration::from_millis(300), 0x0FF7A6);
        leaked += leaks;
    }
    assert!(
        leaked > 0,
        "with the sweep disabled the churn must leak stale replies; \
         if it no longer does, the race suite has lost its teeth"
    );
}

/// Satellite 2, racing half (the deterministic ordering half lives in
/// `runtime`'s registry tests, on both planes): a rare victim-style
/// marker racing a firehose of reply batches is never lost — every
/// marker the producer saw accepted is observed by the consumer of that
/// incarnation.
#[test]
fn victim_marker_racing_reply_batches_is_never_lost() {
    const MARKER: u64 = u64::MAX;
    const ROUNDS: u64 = 400;
    let registry = MailboxRegistry::<(u64, bool)>::with_options(MailboxOptions {
        mailbox_capacity: 32,
        max_clients: 2,
        sweep_on_register: true,
        ..MailboxOptions::default()
    });
    let current = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        // The "shard": keeps blasting reply batches at the live key.
        {
            let current = Arc::clone(&current);
            let stop = Arc::clone(&stop);
            let registry = registry.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let key = current.load(Ordering::Relaxed);
                    if key != 0 {
                        registry.deliver(key, (key, false));
                    }
                }
            });
        }
        // The "client": per incarnation, waits for the detector's marker
        // amid the reply noise.
        let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
        let mut rng = SimRng::new(0xDEAD10C);
        for round in 1..=ROUNDS {
            let key = registry.key(round, mailbox.slot()).expect("seq fits");
            registry.register(key, 0, &mut mailbox);
            current.store(key, Ordering::Relaxed);
            // The "detector" races from this thread at a seeded delay:
            // the signal interleaves arbitrarily with in-flight replies.
            if rng.next_f64() < 0.5 {
                std::thread::yield_now();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            // `try_deliver` + drain loop (never block on one's own
            // mailbox): the shard may have filled the ring, in which
            // case draining a few replies frees a slot for the signal.
            let mut accepted = registry.try_deliver(key, (MARKER, true));
            let mut seen_marker = false;
            while !seen_marker {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: the victim marker was lost among the replies"
                );
                if let Some((payload, is_marker)) =
                    mailbox.recv_timeout(key, Duration::from_millis(100))
                {
                    if is_marker {
                        assert_eq!(payload, MARKER);
                        seen_marker = true;
                    } else {
                        assert_eq!(payload, key, "reply leaked across incarnations");
                    }
                }
                if !accepted {
                    accepted = registry.try_deliver(key, (MARKER, true));
                }
            }
            assert!(accepted, "the live incarnation's signal was queued");
            current.store(0, Ordering::Relaxed);
            registry.deregister(key);
        }
    });
}

/// Concurrent register/deregister/deliver churn keeps the registry's
/// bookkeeping consistent: after the dust settles nothing is live, and a
/// fresh registration — with the largest `seq` a key can carry — still
/// round-trips.
#[test]
fn churn_leaves_consistent_bookkeeping() {
    let registry = MailboxRegistry::<Ev>::with_options(churn_options(true));
    let _ = run_churn(&registry, Duration::from_millis(500), 0xB00C);
    assert_eq!(registry.len(), 0, "every incarnation was deregistered");
    let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
    let key = registry
        .key(registry.max_seq(), mailbox.slot())
        .expect("the top seq fits");
    registry.register(key, 7, &mut mailbox);
    assert!(registry.deliver(key, 42));
    assert_eq!(mailbox.recv_timeout(key, Duration::from_secs(1)), Some(42));
    assert_eq!(registry.resolve_meta(key), Some(7));
    registry.deregister(key);
}

/// Satellite 4: producers stamp each published key's own value into its
/// metadata through `update_meta` while clients cycle incarnations on
/// reused mailboxes. An update aimed at a key that dies before it lands
/// must be refused, never applied to the next incarnation on the slot:
/// every incarnation reads only the 0 it registered with or its own key.
/// The refusal counter proves the race fired.
#[test]
fn churn_never_lets_a_dead_keys_metadata_update_reach_the_next_incarnation() {
    let registry = MailboxRegistry::<Ev>::with_options(churn_options(true));
    let published: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let next_seq = AtomicU64::new(1);
    let (refused, leaks) = (AtomicU64::new(0), AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(20);
    while refused.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            for p in 0..PRODUCERS {
                let (registry, published, refused, stop) = (&registry, &published, &refused, &stop);
                scope.spawn(move || {
                    let mut rng = SimRng::new(0xF1A6 + p as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let c = (rng.next_f64() * CLIENTS as f64) as usize % CLIENTS;
                        let key = published[c].load(Ordering::Relaxed);
                        if key != 0 && registry.update_meta(key, |_| Some(key)).is_none() {
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for c in 0..CLIENTS {
                let (registry, published, next_seq, leaks, stop) =
                    (&registry, &published, &next_seq, &leaks, &stop);
                scope.spawn(move || {
                    let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
                    while !stop.load(Ordering::Relaxed) {
                        let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                        let key = registry.key(seq, mailbox.slot()).expect("seq fits");
                        registry.register(key, 0, &mut mailbox);
                        published[c].store(key, Ordering::Relaxed);
                        for _ in 0..3 {
                            let meta = registry.resolve_meta(key).expect("own key is live");
                            if meta != 0 && meta != key {
                                leaks.fetch_add(1, Ordering::Relaxed);
                            }
                            std::thread::yield_now();
                        }
                        registry.deregister(key);
                    }
                    published[c].store(0, Ordering::Relaxed);
                });
            }
            std::thread::sleep(Duration::from_millis(300));
        });
        assert_eq!(
            leaks.load(Ordering::Relaxed),
            0,
            "a dead key's metadata update reached a later incarnation"
        );
    }
    assert!(
        refused.load(Ordering::Relaxed) > 0,
        "no update ever raced a deregister — the race test is vacuous"
    );
    assert_eq!(registry.len(), 0, "every incarnation was deregistered");
}

/// Shared harness for the scale tests: ramp `ramp_n` keys to
/// concurrently live (each holding its own mailbox) while churner
/// threads cycle short-lived incarnations through the same slab, then
/// deliver exactly one payload to every held key and require it back.
/// Returns the live registration count sampled at peak liveness.
fn ramp_under_churn(ramp_n: usize, opts: MailboxOptions) -> usize {
    const CHURNERS: u64 = 3;
    let registry = MailboxRegistry::<Ev>::with_options(opts);
    let stop = Arc::new(AtomicBool::new(false));
    let leaks = Arc::new(AtomicU64::new(0));
    let mut at_peak = 0;

    std::thread::scope(|scope| {
        let stop_churners = StopOnDrop(&stop);
        // Churners register/deliver/deregister transient keys (their
        // `seq`s disjoint from the ramp's) so the ramp races live
        // registration traffic, not a quiesced registry.
        for t in 0..CHURNERS {
            let stop = Arc::clone(&stop);
            let leaks = Arc::clone(&leaks);
            let registry = registry.clone();
            scope.spawn(move || {
                let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let seq = (1 << 32) + t + n * CHURNERS;
                    n += 1;
                    let key = registry.key(seq, mailbox.slot()).expect("seq fits");
                    registry.register(key, 0, &mut mailbox);
                    registry.try_deliver(key, key);
                    if let Some(payload) = mailbox.recv_timeout(key, Duration::from_millis(1)) {
                        if payload != key {
                            leaks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    registry.deregister(key);
                }
            });
        }

        let mut held: Vec<(u64, Mailbox<Ev>)> = Vec::with_capacity(ramp_n);
        for i in 0..ramp_n {
            let mut mailbox = registry.acquire().expect("mailbox slab exhausted");
            let key = registry
                .key(i as u64 + 1, mailbox.slot())
                .expect("seq fits");
            registry.register(key, 0, &mut mailbox);
            held.push((key, mailbox));
        }
        // Every held key must still be individually addressable at peak
        // liveness — and must receive its own payload, never another
        // incarnation's.
        for (key, mailbox) in &mut held {
            assert!(
                registry.deliver(*key, *key),
                "delivery to live key {key} was refused at peak liveness"
            );
            assert_eq!(
                mailbox.recv_timeout(*key, Duration::from_secs(5)),
                Some(*key),
                "held key {key} lost (or mis-received) its reply"
            );
        }
        at_peak = registry.len();
        drop(stop_churners);
        for (key, _) in &held {
            registry.deregister(*key);
        }
    });

    assert_eq!(
        leaks.load(Ordering::Relaxed),
        0,
        "a churner observed a stale reply during the ramp"
    );
    assert_eq!(registry.len(), 0, "every registration was torn down");
    at_peak
}

/// 4096 keys ramped to concurrently live while churners race
/// register/deliver/deregister traffic through the same slab: every held
/// key gets its own payload and no churner sees another's.
#[test]
fn index_growth_under_churn_never_loses_a_delivery() {
    let live = ramp_under_churn(
        4096,
        MailboxOptions {
            mailbox_capacity: 8,
            max_clients: 4096 + 64,
            sweep_on_register: true,
            ..MailboxOptions::default()
        },
    );
    assert!(live >= 4096, "only {live} registrations live at the peak");
}

/// The scale gate: 32768 keys — 8x the fixed index the reply plane first
/// shipped with — concurrently live under churn, each addressable, with
/// zero stale-reply leaks.
#[test]
fn scale_32768_live_keys_stays_off_the_overflow_path() {
    let live = ramp_under_churn(
        32_768,
        MailboxOptions {
            mailbox_capacity: 8,
            max_clients: 32_768 + 64,
            sweep_on_register: true,
            ..MailboxOptions::default()
        },
    );
    assert!(live >= 32_768, "only {live} registrations live at the peak");
}
