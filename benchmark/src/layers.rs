//! Per-layer replays: the traced rep's transaction stream pushed through
//! each lower layer's public API, single-threaded (or as a two-thread
//! ping-pong where the wake-up is what is being measured), every call
//! timed from outside. Layer names are crate names.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dbmodel::{
    AccessMode, Catalog, CcMethod, LogicalItemId, PhysicalItemId, ReplicationPolicy, SiteId,
    Timestamp, Transaction, TsTuple, TxnId,
};
use pam::precedence::AssignmentPolicy;
use pam::queue::{DataQueue, EntryStatus, QueueEntry};
use pam::{ReplyMsg, RequestMsg};
use runtime::RuntimeReport;
use selection::{classify, is_read_only, CachedStlSelector, OpProfile};
use trace::{Phase, TraceConfig, TracePlane};
use transport::batch::SmallBatch;
use transport::mailbox::MailboxRegistry;
use transport::ring;
use unified_cc::{EnforcementMode, QmSink, QueueManager};

use crate::gen::{Shape, TxnDesc, Workload};
use crate::run::SHARDS;

/// A layer measurement: the value and how many operations it averages.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    pub value: f64,
    pub samples: u64,
}

fn per_op(elapsed: Duration, ops: u64, unit_nanos: f64) -> Measure {
    Measure {
        value: if ops == 0 {
            0.0
        } else {
            elapsed.as_nanos() as f64 / ops as f64 / unit_nanos
        },
        samples: ops,
    }
}

/// The median of `rounds` runs of a replay that takes a few milliseconds,
/// so one preemption does not decide the number.
fn median_of(rounds: usize, mut replay: impl FnMut() -> Measure) -> Measure {
    let mut runs: Vec<Measure> = (0..rounds).map(|_| replay()).collect();
    runs.sort_by(|a, b| a.value.total_cmp(&b.value));
    runs[rounds / 2]
}

const REPLAY_ROUNDS: usize = 5;

/// Longest stream prefix replayed through a layer: keeps the whole layer
/// pass near a second even where one call costs hundreds of microseconds.
const REPLAY_PREFIX: usize = 4_000;

fn site_of(item: u64) -> SiteId {
    // `Catalog::generate` places single copies round-robin by item id.
    SiteId((item % SHARDS as u64) as u32)
}

fn physical(item: u64) -> PhysicalItemId {
    PhysicalItemId::new(LogicalItemId(item), site_of(item))
}

/// `(item, mode)` of every access a transaction makes.
fn accesses(desc: &TxnDesc) -> impl Iterator<Item = (u64, AccessMode)> + '_ {
    let reads = desc.reads.iter().map(|&i| (i, AccessMode::Read));
    let writes = desc.writes.iter().map(|&i| (i, AccessMode::Write));
    reads.chain(writes)
}

/// The method the replays assign transaction `seq`: the three coordinated
/// methods in rotation, as the mixed workloads run them.
fn method_of(seq: usize) -> CcMethod {
    CcMethod::ALL[seq % 3]
}

fn profile_of(desc: &TxnDesc) -> OpProfile {
    match desc.shape {
        Shape::Rmw { reads: 0, .. } => OpProfile::RMW_WRITES,
        Shape::Rmw { .. } => OpProfile::READS.with(OpProfile::RMW_WRITES),
        Shape::Add => OpProfile::ADDS,
        Shape::ReadOnly { .. } => OpProfile::READS,
    }
}

/// `selection.decide_ns`: one `CachedStlSelector::select` per transaction,
/// fed the metrics the traced rep's database collected.
pub fn selection_decide(w: &Workload, stream: &[TxnDesc], report: &RuntimeReport) -> Measure {
    let catalog = Catalog::generate(SHARDS, w.items, ReplicationPolicy::SingleCopy);
    let txns: Vec<Transaction> = stream
        .iter()
        .take(REPLAY_PREFIX)
        .enumerate()
        .map(|(seq, desc)| {
            let id = TxnId(seq as u64 + 1);
            Transaction::builder(id, catalog.origin_for(id))
                .reads(desc.reads.iter().map(|&i| LogicalItemId(i)))
                .writes(desc.writes.iter().map(|&i| LogicalItemId(i)))
                .build()
        })
        .collect();
    let mut selector = CachedStlSelector::new();
    let started = Instant::now();
    for txn in &txns {
        black_box(selector.select(txn, &catalog, &report.metrics));
    }
    per_op(started.elapsed(), txns.len() as u64, 1.0)
}

/// `selection.classify_ns`: the two pure routing predicates `execute`
/// evaluates before it picks a path.
pub fn selection_classify(stream: &[TxnDesc]) -> Measure {
    let shapes: Vec<(OpProfile, usize, usize)> = stream
        .iter()
        .map(|d| (profile_of(d), d.reads.len(), d.writes.len()))
        .collect();
    const ROUNDS: u64 = 20;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for &(profile, reads, writes) in black_box(&shapes) {
            black_box(is_read_only(profile, reads, writes));
            black_box(classify(profile, reads, writes));
        }
    }
    per_op(started.elapsed(), ROUNDS * shapes.len() as u64, 1.0)
}

/// The per-shard access batches a transaction fans out, as the runtime's
/// send batcher groups them.
fn access_batches(seq: usize, desc: &TxnDesc) -> Vec<SmallBatch<RequestMsg>> {
    let mut batches: Vec<SmallBatch<RequestMsg>> = Vec::new();
    for shard in 0..SHARDS {
        let batch: SmallBatch<RequestMsg> = accesses(desc)
            .filter(|&(item, _)| site_of(item) == SiteId(shard))
            .map(|(item, mode)| RequestMsg::Access {
                txn: TxnId(seq as u64 + 1),
                item: physical(item),
                mode,
                method: method_of(seq),
                ts: TsTuple::new(Timestamp(seq as u64 + 1), 1_000),
            })
            .collect();
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    batches
}

/// `transport.ring_ns_per_msg`: same-thread push and drain of the stream's
/// access batches through one inbox ring of the runtime's default size.
pub fn transport_ring(stream: &[TxnDesc]) -> Measure {
    const CAPACITY: usize = 256;
    let batches: Vec<SmallBatch<RequestMsg>> = stream
        .iter()
        .enumerate()
        .flat_map(|(seq, desc)| access_batches(seq, desc))
        .collect();
    let messages = batches.len() as u64;
    median_of(REPLAY_ROUNDS, || {
        let batches = batches.clone();
        let (tx, mut rx) = ring::channel::<SmallBatch<RequestMsg>>(CAPACITY);
        let mut drained = Vec::with_capacity(CAPACITY);
        let started = Instant::now();
        for (n, batch) in batches.into_iter().enumerate() {
            tx.send(batch).expect("the receiver is alive");
            if (n + 1) % (CAPACITY / 2) == 0 {
                rx.drain_into(&mut drained);
                black_box(drained.len());
                drained.clear();
            }
        }
        rx.drain_into(&mut drained);
        per_op(started.elapsed(), messages, 1.0)
    })
}

/// `transport.mailbox_ns_per_event`: register, one delivery per touched
/// shard, receive each, deregister — one reusable mailbox, as a client
/// thread holds it.
pub fn transport_mailbox(stream: &[TxnDesc]) -> Measure {
    let registry: MailboxRegistry<SmallBatch<ReplyMsg>> = MailboxRegistry::new();
    let mut mailbox = registry
        .acquire()
        .expect("an empty slab has a free mailbox");
    let replies: Vec<Vec<SmallBatch<ReplyMsg>>> = stream
        .iter()
        .enumerate()
        .map(|(seq, desc)| {
            access_batches(seq, desc)
                .iter()
                .map(|batch| {
                    batch
                        .iter()
                        .map(|msg| ReplyMsg::Ack {
                            txn: TxnId(seq as u64 + 1),
                            item: msg.item(),
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    // Keys are never reused, so every round continues the numbering.
    let mut next_key = 1u64;
    median_of(REPLAY_ROUNDS, || {
        let replies = replies.clone();
        let mut events = 0u64;
        let started = Instant::now();
        for batches in replies {
            let key = next_key;
            next_key += 1;
            registry.register(key, 0, &mut mailbox);
            let expected = batches.len();
            for batch in batches {
                registry.deliver(key, batch);
            }
            for _ in 0..expected {
                black_box(mailbox.recv_timeout(key, Duration::from_secs(1)));
                events += 1;
            }
            registry.deregister(key);
        }
        per_op(started.elapsed(), events, 1.0)
    })
}

const PING_PONGS: u64 = 5_000;

/// `transport.ring_hop_us`: two threads, two rings, one message in flight —
/// each hop is push, unpark, park, pop: the wake-up most of a commit is.
pub fn transport_ring_hop() -> Measure {
    let (to_peer, mut peer_rx) = ring::channel::<u64>(256);
    let (to_main, mut main_rx) = ring::channel::<u64>(256);
    let elapsed = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(n) = peer_rx.recv() {
                if to_main.send(n).is_err() {
                    break;
                }
            }
        });
        let started = Instant::now();
        for n in 0..PING_PONGS {
            to_peer.send(n).expect("the peer is alive");
            black_box(main_rx.recv().expect("the peer answers"));
        }
        let elapsed = started.elapsed();
        drop(to_peer);
        elapsed
    });
    per_op(elapsed, 2 * PING_PONGS, 1_000.0)
}

/// `transport.mailbox_hop_us`: the same ping-pong through two registered
/// reply mailboxes.
pub fn transport_mailbox_hop() -> Measure {
    const MAIN_KEY: u64 = 1;
    const PEER_KEY: u64 = 2;
    let wait = Duration::from_secs(5);
    let registry: MailboxRegistry<u64> = MailboxRegistry::new();
    let mut main_box = registry
        .acquire()
        .expect("an empty slab has a free mailbox");
    let mut peer_box = registry
        .acquire()
        .expect("an empty slab has a free mailbox");
    registry.register(MAIN_KEY, 0, &mut main_box);
    registry.register(PEER_KEY, 0, &mut peer_box);
    let elapsed = std::thread::scope(|scope| {
        let peer_registry = registry.clone();
        scope.spawn(move || {
            for _ in 0..PING_PONGS {
                let n = peer_box.recv_timeout(PEER_KEY, wait).expect("a ping");
                peer_registry.deliver(MAIN_KEY, n);
            }
        });
        let started = Instant::now();
        for n in 0..PING_PONGS {
            registry.deliver(PEER_KEY, n);
            black_box(main_box.recv_timeout(MAIN_KEY, wait).expect("a pong"));
        }
        started.elapsed()
    });
    registry.deregister(MAIN_KEY);
    registry.deregister(PEER_KEY);
    per_op(elapsed, 2 * PING_PONGS, 1_000.0)
}

/// `core.qm_ns_per_msg`: every transaction as one `Access` batch and one
/// `Release` batch per site through `QueueManager::handle_batch` with a
/// reused sink.
pub fn core_queue_manager(w: &Workload, stream: &[TxnDesc]) -> Measure {
    let catalog = Catalog::generate(SHARDS, w.items, ReplicationPolicy::SingleCopy);
    // (site, access batch, release batch) per transaction and touched site.
    let mut phases: Vec<(usize, Vec<RequestMsg>, Vec<RequestMsg>)> = Vec::new();
    for (seq, desc) in stream.iter().enumerate() {
        for batch in access_batches(seq, desc) {
            let access: Vec<RequestMsg> = batch.iter().cloned().collect();
            let release = access
                .iter()
                .map(|msg| match *msg {
                    RequestMsg::Access {
                        txn, item, mode, ..
                    } => RequestMsg::Release {
                        txn,
                        item,
                        write_value: (mode == AccessMode::Write).then_some(seq as i64),
                        commit_ts: Timestamp::ZERO,
                    },
                    _ => unreachable!("access batches hold only Access messages"),
                })
                .collect();
            phases.push((access[0].item().site.0 as usize, access, release));
        }
    }
    let messages: u64 = phases
        .iter()
        .map(|(_, a, r)| (a.len() + r.len()) as u64)
        .sum();
    median_of(REPLAY_ROUNDS, || {
        let mut managers: Vec<QueueManager> = (0..SHARDS)
            .map(|s| QueueManager::from_catalog(SiteId(s), &catalog, 0, EnforcementMode::SemiLock))
            .collect();
        let mut sink = QmSink::new();
        let started = Instant::now();
        for (site, access, release) in &phases {
            let origin = SiteId(*site as u32);
            sink.clear();
            managers[*site].handle_batch(origin, access.iter(), &mut sink);
            black_box(sink.replies.len());
            sink.clear();
            managers[*site].handle_batch(origin, release.iter(), &mut sink);
            black_box(sink.events.len());
        }
        per_op(started.elapsed(), messages, 1.0)
    })
}

/// `pam.queue_ns_per_op`: insert each access into its item's `DataQueue`
/// in the stream's precedence order and remove it eight transactions
/// later, so hot items hold the queue depth the skew gives them.
pub fn pam_data_queue(w: &Workload, stream: &[TxnDesc]) -> Measure {
    const IN_FLIGHT: usize = 8;
    median_of(REPLAY_ROUNDS, || {
        let mut queues: Vec<DataQueue> = (0..w.items).map(|_| DataQueue::new()).collect();
        let mut policies: Vec<AssignmentPolicy> =
            (0..w.items).map(|_| AssignmentPolicy::new()).collect();
        let mut ops = 0u64;
        let started = Instant::now();
        for (seq, desc) in stream.iter().enumerate() {
            let txn = TxnId(seq as u64 + 1);
            let method = method_of(seq);
            for (item, mode) in accesses(desc) {
                let precedence = policies[item as usize].assign(
                    method,
                    Timestamp(seq as u64 + 1),
                    site_of(item),
                    txn,
                );
                queues[item as usize].insert(QueueEntry {
                    txn,
                    mode,
                    method,
                    precedence,
                    status: EntryStatus::Accepted,
                    granted: false,
                });
                ops += 1;
            }
            if let Some(old) = seq.checked_sub(IN_FLIGHT) {
                let txn = TxnId(old as u64 + 1);
                for (item, _) in accesses(&stream[old]) {
                    black_box(queues[item as usize].remove(txn));
                    ops += 1;
                }
            }
        }
        per_op(started.elapsed(), ops, 1.0)
    })
}

/// `trace.record_ns`: one flight-recorder event into one client lane at the
/// runtime's default trace level.
pub fn trace_record() -> Measure {
    const EVENTS: u64 = 1_000_000;
    let plane = TracePlane::new(&TraceConfig::default(), SHARDS as usize);
    let lane = plane.client_lane();
    let started = Instant::now();
    for txn in 0..EVENTS {
        plane.record(lane, black_box(txn), Phase::Committed, 0);
    }
    per_op(started.elapsed(), EVENTS, 1.0)
}

/// The three `sim.*` metrics: one run of the paper's base configuration
/// (the `exp*` suite's shared baseline) under the STL selector. The last
/// two are virtual-time results and repeat exactly for a given seed.
pub struct SimRun {
    pub host_us_per_txn: Measure,
    pub system_time_ms: f64,
    pub messages_per_commit: f64,
}

pub fn sim_base_run(seed: u64) -> SimRun {
    const TRANSACTIONS: usize = 1_200;
    let config = sim::SimConfig {
        seed,
        num_sites: 4,
        num_items: 60,
        arrival_rate: 80.0,
        txn_size: 4,
        read_fraction: 0.6,
        num_transactions: TRANSACTIONS,
        restart_delay: simkit::time::Duration::from_millis(30),
        local_compute: simkit::time::Duration::from_millis(10),
        remote_delay: network::DelaySpec::Uniform(2_000, 8_000),
        method_policy: sim::MethodPolicy::DynamicStl,
        ..sim::SimConfig::default()
    };
    let started = Instant::now();
    let report = sim::Simulation::run(config);
    SimRun {
        host_us_per_txn: per_op(started.elapsed(), TRANSACTIONS as u64, 1_000.0),
        system_time_ms: report.mean_system_time() * 1e3,
        messages_per_commit: report.messages_per_commit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    /// Every replay runs on every workload's stream and measures something.
    #[test]
    fn replays_cover_every_workload() {
        for w in &WORKLOADS {
            let stream = w.generate(1, 0, 300);
            let ops: usize = stream.iter().map(|d| accesses(d).count()).sum();
            assert!(transport_ring(&stream).samples >= stream.len() as u64);
            assert!(transport_mailbox(&stream).samples >= stream.len() as u64);
            assert_eq!(core_queue_manager(w, &stream).samples, 2 * ops as u64);
            assert!(pam_data_queue(w, &stream).samples > ops as u64);
            assert!(selection_classify(&stream).value > 0.0);
        }
    }

    #[test]
    fn sim_results_repeat_exactly_for_a_seed() {
        let (a, b) = (sim_base_run(5), sim_base_run(5));
        assert_eq!(a.system_time_ms.to_bits(), b.system_time_ms.to_bits());
        assert_eq!(
            a.messages_per_commit.to_bits(),
            b.messages_per_commit.to_bits()
        );
        assert!(a.system_time_ms > 0.0 && a.messages_per_commit > 0.0);
    }
}
