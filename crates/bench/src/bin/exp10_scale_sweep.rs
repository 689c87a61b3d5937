//! E10 — reply-plane scale sweep: tens of thousands of concurrently open
//! registrations under Zipfian-skewed delivery.
//!
//! The reply plane is a slab of reusable mailboxes addressed by the keys
//! themselves: a key (the runtime's transaction id) carries its mailbox's
//! slot in its low bits, so routing a reply is an index into the slab and
//! a compare, at any number of open registrations. This experiment is the
//! slab's scale proof, in two sections:
//!
//! 1. **Section A (transport)** — how does the raw mailbox registry
//!    behave as the *live* registration count ramps into the tens of
//!    thousands? Each cell holds `live` keys open simultaneously while
//!    churner threads cycle transient incarnations through the same
//!    slab, checks every held key still resolves, then drives
//!    Zipfian-skewed deliver/receive traffic across the live set. The
//!    cell reports registrations/s on the ramp, skewed deliveries/s, and
//!    — the gate — how many held keys were addressable at the peak.
//! 2. **Section B (runtime hold)** — can the full engine keep tens of
//!    thousands of transactions *open at once*? A cell begins `hold`
//!    write transactions on disjoint items and keeps every one open
//!    before aborting them all; the reply plane must count every one of
//!    them live.
//!
//! Live commit throughput under skew, the confluent bypass and the
//! snapshot plane are measured by the repo benchmark (`benchmark/`:
//! `wide_hot`, `counter_bypass`, `read_mostly`), not here.
//!
//! Run with: `cargo run --release -p bench --bin exp10_scale_sweep`
//!
//! Environment knobs (used by the CI smoke step):
//!
//! * `EXP10_SMOKE=1` — restrict each axis to its gate-relevant points.
//! * `EXP10_GATE=<live>` — fail (exit 1) unless a Section A cell held at
//!   least `<live>` concurrently open registrations, every one
//!   addressable, with no stale leak, and the Section B cell held that
//!   many transactions open at once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::table;
use dbmodel::{CcMethod, LogicalItemId};
use runtime::{CcPolicy, Database, RuntimeConfig, TxnSpec};
use simkit::dist::Zipfian;
use simkit::rng::SimRng;
use transport::mailbox::{Mailbox, MailboxOptions, MailboxRegistry};

/// Skewed deliver/receive operations per Section A cell.
const DELIVER_OPS: usize = 200_000;
/// Concurrent churner threads racing each Section A ramp.
const CHURNERS: u64 = 2;

/// What one Section A (raw registry) cell measured.
struct TransportOutcome {
    live: usize,
    theta: f64,
    reg_per_sec: f64,
    deliver_per_sec: f64,
    /// Held keys that resolved at peak liveness.
    addressable: usize,
    stale_dropped: u64,
    full_dropped: u64,
    leaks: u64,
}

/// Ramp `live` keys to concurrently registered (each with its own slab
/// mailbox) while churners race the same slab, then drive
/// Zipfian-skewed deliver/receive traffic over the live set.
fn run_transport_cell(live: usize, theta: f64) -> TransportOutcome {
    let registry = MailboxRegistry::<u64>::with_options(MailboxOptions {
        mailbox_capacity: 8,
        max_clients: live + CHURNERS as usize + 8,
        ..MailboxOptions::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let leaks = Arc::new(AtomicU64::new(0));
    let mut outcome = None;

    std::thread::scope(|scope| {
        for t in 0..CHURNERS {
            let stop = Arc::clone(&stop);
            let leaks = Arc::clone(&leaks);
            let registry = registry.clone();
            scope.spawn(move || {
                let mut mailbox = registry.acquire().expect("churner mailbox");
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Transient keys' `seq`s lie above the ramp's.
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

        let ramp_begun = Instant::now();
        let mut held: Vec<(u64, Mailbox<u64>)> = Vec::with_capacity(live);
        for i in 0..live {
            let mut mailbox = registry.acquire().expect("ramp mailbox");
            let key = registry
                .key(i as u64 + 1, mailbox.slot())
                .expect("seq fits");
            registry.register(key, 0, &mut mailbox);
            held.push((key, mailbox));
        }
        let ramp_secs = ramp_begun.elapsed().as_secs_f64();
        let addressable = held
            .iter()
            .filter(|(key, _)| registry.resolve_meta(*key).is_some())
            .count();

        // Skewed delivery across the live set: rank 0 (the hottest key)
        // maps to the first-ramped key.
        let zipf = Zipfian::new(live, theta);
        let mut rng = SimRng::new(0xE10 ^ live as u64);
        let deliver_begun = Instant::now();
        let mut local_leaks = 0u64;
        for _ in 0..DELIVER_OPS {
            let idx = zipf.sample_index(&mut rng);
            let (key, mailbox) = &mut held[idx];
            if registry.try_deliver(*key, *key) {
                if let Some(payload) = mailbox.recv_timeout(*key, Duration::from_millis(5)) {
                    if payload != *key {
                        local_leaks += 1;
                    }
                }
            }
        }
        let deliver_secs = deliver_begun.elapsed().as_secs_f64();

        let at_peak = TransportOutcome {
            live,
            theta,
            reg_per_sec: live as f64 / ramp_secs,
            deliver_per_sec: DELIVER_OPS as f64 / deliver_secs,
            addressable,
            stale_dropped: registry.stale_dropped(),
            full_dropped: registry.full_dropped(),
            leaks: local_leaks,
        };
        stop.store(true, Ordering::Relaxed);
        for (key, _) in &held {
            registry.deregister(*key);
        }
        outcome = Some(at_peak);
    });

    let mut outcome = outcome.expect("cell ran");
    outcome.leaks += leaks.load(Ordering::Relaxed);
    assert_eq!(registry.len(), 0, "all registrations torn down");
    outcome
}

/// What the Section B (runtime open-hold) cell measured.
struct HoldOutcome {
    hold: usize,
    begin_per_sec: f64,
    /// Transactions the reply plane counted live once all were open.
    live: usize,
    abort_secs: f64,
}

/// Begin `hold` write transactions on disjoint items and keep them all
/// open simultaneously — the engine-level version of Section A's ramp.
fn run_hold_cell(hold: usize) -> HoldOutcome {
    let db = Database::open(RuntimeConfig {
        num_shards: 4,
        num_items: hold as u64 + 8,
        policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
        reply_mailbox_capacity: 8,
        reply_max_clients: hold + 64,
        ..RuntimeConfig::default()
    })
    .expect("valid config");

    let begun = Instant::now();
    let mut open = Vec::with_capacity(hold);
    for i in 0..hold {
        open.push(
            db.begin(&TxnSpec::new().write(LogicalItemId(i as u64)))
                .expect("disjoint begin succeeds"),
        );
    }
    let ramp_secs = begun.elapsed().as_secs_f64();
    let live = db.live_transactions();
    let abort_begun = Instant::now();
    for txn in open {
        txn.abort();
    }
    let abort_secs = abort_begun.elapsed().as_secs_f64();
    db.shutdown();
    HoldOutcome {
        hold,
        begin_per_sec: hold as f64 / ramp_secs,
        live,
        abort_secs,
    }
}

fn main() {
    let smoke = std::env::var("EXP10_SMOKE").is_ok_and(|v| v == "1");
    let gate: Option<usize> = std::env::var("EXP10_GATE")
        .ok()
        .and_then(|s| s.parse().ok());

    // --- Section A: raw registry scale ---------------------------------
    println!("E10.A: mailbox registry scale — live registrations x delivery skew");
    println!("       (churners race every ramp)\n");
    let widths_a = [7, 6, 8, 10, 8, 7, 7, 6];
    table::header(
        &[
            "live",
            "theta",
            "reg/s",
            "deliver/s",
            "addr.",
            "stale",
            "drops",
            "leaks",
        ],
        &widths_a,
    );
    let live_axis: &[usize] = if smoke {
        &[4096, 32_768]
    } else {
        &[4096, 16_384, 32_768, 65_536]
    };
    let theta_axis: &[f64] = if smoke { &[0.99] } else { &[0.0, 0.99] };
    let mut transport_gate_ok = false;
    for &live in live_axis {
        for &theta in theta_axis {
            let o = run_transport_cell(live, theta);
            table::row(
                &[
                    o.live.to_string(),
                    format!("{:.2}", o.theta),
                    format!("{:.0}", o.reg_per_sec),
                    format!("{:.0}", o.deliver_per_sec),
                    o.addressable.to_string(),
                    o.stale_dropped.to_string(),
                    o.full_dropped.to_string(),
                    o.leaks.to_string(),
                ],
                &widths_a,
            );
            if let Some(required) = gate {
                if o.addressable >= required && o.leaks == 0 {
                    transport_gate_ok = true;
                }
            }
        }
    }

    // --- Section B: engine open-hold -----------------------------------
    println!("\nE10.B: engine open-hold — transactions held open simultaneously\n");
    let widths_b = [7, 9, 7, 8];
    table::header(&["hold", "begin/s", "live", "abort s"], &widths_b);
    let hold_axis: &[usize] = if smoke { &[32_768] } else { &[8192, 32_768] };
    let mut hold_gate_ok = false;
    for &hold in hold_axis {
        let o = run_hold_cell(hold);
        table::row(
            &[
                o.hold.to_string(),
                format!("{:.0}", o.begin_per_sec),
                o.live.to_string(),
                format!("{:.2}", o.abort_secs),
            ],
            &widths_b,
        );
        if let Some(required) = gate {
            if o.live >= required {
                hold_gate_ok = true;
            }
        }
    }

    if let Some(required) = gate {
        println!();
        if !transport_gate_ok {
            eprintln!(
                "FAIL: no Section A cell held >= {required} live, addressable \
                 registrations with a leak-free reply plane"
            );
            std::process::exit(1);
        }
        if !hold_gate_ok {
            eprintln!("FAIL: the engine did not hold >= {required} transactions open");
            std::process::exit(1);
        }
        println!(
            "gate passed: >= {required} concurrently open registrations, \
             each addressable (leaks 0)"
        );
    }
}
