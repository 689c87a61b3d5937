//! M8 — micro-benchmark: the engine core in isolation.
//!
//! Isolates what sits between the client→shard ring and the reply
//! mailboxes — the queue-manager engine itself, on the exp9
//! wide-transaction shape (one 8-item write transaction = 8 `Access` +
//! 8 `Release` messages against one site). Two engines
//! consume identical message streams:
//!
//! * `dense-batched` — the engine as the runtime drives it since the
//!   sink refactor: a [`QueueManager`] resolving items through its dense
//!   slot table, one `handle_batch` call per transaction phase pushing
//!   into a reusable [`QmSink`] (zero allocations per steady-state
//!   batch).
//! * `btree-per-message` — the seed engine's shape, reconstructed over
//!   the same item-state core: a `BTreeMap<PhysicalItemId, ItemState>`
//!   looked up per message, with every message materialising an owned
//!   `QmOutput { Vec<ReplyMsg>, Vec<QmEvent> }` exactly like the seed's
//!   per-message `handle` did.
//!
//! One benchmark iteration is one wave of `WAVE_TXNS` transactions. The
//! closing summary prints both engines' txn/s and the ratio;
//! `M8_GATE=<ratio>` (the CI floor) fails the process if `dense-batched`
//! falls below `<ratio>` × `btree-per-message` (medians of alternating
//! measurement blocks: single-shot pairs on a shared runner swing too
//! much for a 1.0x floor).
//!
//! A third variant, `dense-traced`, reruns the dense-batched engine with a
//! [`trace::TracePlane`] at `TraceLevel::Full` recording the shard-side
//! events the runtime's shard loop emits (one `ShardRecv` per batch, one
//! `Granted` per fold) — the flight recorder's worst-case overhead on the
//! hottest loop we have. `M8_TRACE_GATE=<ratio>` fails the process if the
//! traced engine falls below `<ratio>` × the untraced one. The closing
//! summary also lands in `BENCH_m8.json` (see [`bench::traj`]).

use std::collections::BTreeMap;
use std::time::Instant;

use bench::Trajectory;
use criterion::{criterion_group, criterion_main, Criterion};
use dbmodel::{
    AccessMode, CcMethod, LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId, Value,
};
use pam::RequestMsg;
use trace::json::Json;
use trace::{Phase, TraceConfig, TracePlane};
use unified_cc::{EnforcementMode, ItemState, QmOutput, QmSink, QueueManager};

const SITE: SiteId = SiteId(0);
const ITEMS: u64 = 8;
const WAVE_TXNS: u64 = 2048;
const INITIAL: Value = 100;

fn pi(i: u64) -> PhysicalItemId {
    PhysicalItemId::new(LogicalItemId(i), SITE)
}

/// The seed engine's shape: item states behind a `BTreeMap`, one owned
/// `QmOutput` allocated per message.
struct BTreeEngine {
    items: BTreeMap<PhysicalItemId, ItemState>,
}

impl BTreeEngine {
    fn new() -> Self {
        BTreeEngine {
            items: (0..ITEMS)
                .map(|i| {
                    (
                        pi(i),
                        ItemState::new(pi(i), INITIAL, EnforcementMode::SemiLock),
                    )
                })
                .collect(),
        }
    }

    fn handle(&mut self, origin: SiteId, msg: &RequestMsg) -> QmOutput {
        let mut sink = QmSink::new();
        let item = self.items.get_mut(&msg.item()).expect("item exists");
        match msg {
            RequestMsg::Access {
                txn,
                mode,
                method,
                ts,
                ..
            } => item.handle_access(*txn, origin, *mode, *method, *ts, &mut sink),
            RequestMsg::UpdatedTs { txn, new_ts, .. } => {
                item.handle_updated_ts(*txn, *new_ts, &mut sink)
            }
            RequestMsg::Release {
                txn,
                write_value,
                commit_ts,
                ..
            } => item.handle_release(*txn, *write_value, *commit_ts, Timestamp::ZERO, &mut sink),
            RequestMsg::Demote {
                txn,
                write_value,
                commit_ts,
                ..
            } => item.handle_demote(*txn, *write_value, *commit_ts, Timestamp::ZERO, &mut sink),
            RequestMsg::Abort { txn, .. } => item.handle_abort(*txn, &mut sink),
        }
        QmOutput {
            replies: sink.replies,
            events: sink.events,
        }
    }
}

/// Fill the scratch buffers with one wide transaction's two message
/// phases (the shard receives exactly these two `HandleBatch` commands).
fn fill_txn(txn: u64, access: &mut Vec<RequestMsg>, release: &mut Vec<RequestMsg>) {
    access.clear();
    release.clear();
    for i in 0..ITEMS {
        access.push(RequestMsg::Access {
            txn: TxnId(txn),
            item: pi(i),
            mode: AccessMode::Write,
            method: CcMethod::TwoPhaseLocking,
            ts: TsTuple::new(Timestamp(1), 10),
        });
        release.push(RequestMsg::Release {
            txn: TxnId(txn),
            item: pi(i),
            write_value: Some((txn % 1000) as Value),
            commit_ts: Timestamp::ZERO,
        });
    }
}

struct Scratch {
    access: Vec<RequestMsg>,
    release: Vec<RequestMsg>,
    sink: QmSink,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            access: Vec::with_capacity(ITEMS as usize),
            release: Vec::with_capacity(ITEMS as usize),
            sink: QmSink::new(),
        }
    }
}

fn run_wave_batched(qm: &mut QueueManager, next_txn: &mut u64, s: &mut Scratch) {
    for _ in 0..WAVE_TXNS {
        let txn = *next_txn;
        *next_txn += 1;
        fill_txn(txn, &mut s.access, &mut s.release);
        s.sink.clear();
        qm.handle_batch(SITE, s.access.iter(), &mut s.sink);
        std::hint::black_box(s.sink.replies.len());
        s.sink.clear();
        qm.handle_batch(SITE, s.release.iter(), &mut s.sink);
        std::hint::black_box(s.sink.events.len());
    }
}

/// The dense-batched wave with the flight recorder on: the same events
/// the runtime's shard loop records per drained batch (`ShardRecv` with
/// the command count) and per sink fold (`Granted` with the grant count).
fn run_wave_traced(qm: &mut QueueManager, next_txn: &mut u64, s: &mut Scratch, plane: &TracePlane) {
    for _ in 0..WAVE_TXNS {
        let txn = *next_txn;
        *next_txn += 1;
        fill_txn(txn, &mut s.access, &mut s.release);
        s.sink.clear();
        plane.record(0, txn, Phase::ShardRecv, s.access.len() as u32);
        qm.handle_batch(SITE, s.access.iter(), &mut s.sink);
        plane.record(0, txn, Phase::Granted, s.sink.events.len() as u32);
        std::hint::black_box(s.sink.replies.len());
        s.sink.clear();
        plane.record(0, txn, Phase::ShardRecv, s.release.len() as u32);
        qm.handle_batch(SITE, s.release.iter(), &mut s.sink);
        std::hint::black_box(s.sink.events.len());
    }
}

fn run_wave_btree(engine: &mut BTreeEngine, next_txn: &mut u64, s: &mut Scratch) {
    for _ in 0..WAVE_TXNS {
        let txn = *next_txn;
        *next_txn += 1;
        fill_txn(txn, &mut s.access, &mut s.release);
        for msg in s.access.iter().chain(s.release.iter()) {
            let out = engine.handle(SITE, msg);
            std::hint::black_box(out.replies.len() + out.events.len());
        }
    }
}

fn build_qm() -> QueueManager {
    let mut qm = QueueManager::new(SITE);
    for i in 0..ITEMS {
        qm.add_item(pi(i), INITIAL, EnforcementMode::SemiLock);
    }
    qm
}

fn throughput(c: &mut Criterion) {
    let mut qm = build_qm();
    let mut traced_qm = build_qm();
    let mut btree = BTreeEngine::new();
    let mut qm_txn = 1u64;
    let mut traced_txn = 1u64;
    let mut btree_txn = 1u64;
    let mut scratch = Scratch::new();
    let plane = TracePlane::new(&TraceConfig::default(), 1);

    let mut group = c.benchmark_group("m8_engine_wave2048_latency");
    group.bench_function("dense-batched/8-item-txn", |b| {
        b.iter(|| run_wave_batched(&mut qm, &mut qm_txn, &mut scratch));
    });
    group.bench_function("dense-traced/8-item-txn", |b| {
        b.iter(|| run_wave_traced(&mut traced_qm, &mut traced_txn, &mut scratch, &plane));
    });
    group.bench_function("btree-per-message/8-item-txn", |b| {
        b.iter(|| run_wave_btree(&mut btree, &mut btree_txn, &mut scratch));
    });
    group.finish();

    // The gated comparison alternates measurement blocks between the two
    // engines and compares medians (single-shot pairs on a shared runner
    // swing too much for a 1.0x floor).
    const REPS: usize = 5;
    const BLOCK_WAVES: u64 = 10;
    let measure = |f: &mut dyn FnMut()| {
        let begun = Instant::now();
        for _ in 0..BLOCK_WAVES {
            f();
        }
        (BLOCK_WAVES * WAVE_TXNS) as f64 / begun.elapsed().as_secs_f64()
    };
    let mut dense_runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut btree_runs = Vec::new();
    for _ in 0..REPS {
        dense_runs.push(measure(&mut || {
            run_wave_batched(&mut qm, &mut qm_txn, &mut scratch)
        }));
        traced_runs.push(measure(&mut || {
            run_wave_traced(&mut traced_qm, &mut traced_txn, &mut scratch, &plane)
        }));
        btree_runs.push(measure(&mut || {
            run_wave_btree(&mut btree, &mut btree_txn, &mut scratch)
        }));
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let (dense, traced, btree) = (
        median(&mut dense_runs),
        median(&mut traced_runs),
        median(&mut btree_runs),
    );
    println!("    -> dense-batched: {dense:.0} wide txn/s through one engine (median of {REPS})");
    println!(
        "    -> dense-traced: {traced:.0} wide txn/s with the flight recorder on \
         (median of {REPS}, {} events recorded)",
        plane.events_recorded()
    );
    println!(
        "    -> btree-per-message: {btree:.0} wide txn/s through one engine (median of {REPS})"
    );
    let ratio = dense / btree;
    let trace_ratio = traced / dense;
    println!(
        "    -> engine-core ratio on the {ITEMS}-item wide-transaction shape: \
         {ratio:.2}x (dense-batched vs btree-per-message, alternating medians)"
    );
    println!(
        "    -> trace-overhead ratio: {trace_ratio:.2}x \
         (dense-traced vs dense-batched, alternating medians)"
    );

    let mut traj = Trajectory::new("m8");
    traj.meta("reps", Json::num(REPS as u32));
    traj.meta("block_waves", Json::Num(BLOCK_WAVES as f64));
    traj.meta("wave_txns", Json::Num(WAVE_TXNS as f64));
    traj.meta("engine_ratio", Json::Num(ratio));
    traj.meta("trace_ratio", Json::Num(trace_ratio));
    for (engine, txn_per_sec) in [
        ("dense-batched", dense),
        ("dense-traced", traced),
        ("btree-per-message", btree),
    ] {
        traj.row([
            ("engine", Json::str(engine)),
            ("txn_per_sec", Json::Num(txn_per_sec)),
        ]);
    }
    traj.emit();

    if let Some(gate) = std::env::var("M8_GATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        if ratio < gate {
            eprintln!(
                "FAIL: the batched dense-table engine is below the required \
                 {gate:.2}x of the per-message BTreeMap baseline"
            );
            std::process::exit(1);
        }
        println!("    -> m8 gate passed (required {gate:.2}x)");
    }
    if let Some(gate) = std::env::var("M8_TRACE_GATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        if trace_ratio < gate {
            eprintln!(
                "FAIL: the flight recorder costs too much on the engine core — \
                 dense-traced is below the required {gate:.2}x of dense-batched"
            );
            std::process::exit(1);
        }
        println!("    -> m8 trace gate passed (required {gate:.2}x)");
    }
}

criterion_group!(benches, throughput);
criterion_main!(benches);
