//! One rep: a fresh `Database`, a warm-up, a measured window driven by a
//! closed loop of client threads, and the accounting around it.
//!
//! The load is closed loop because the runtime is an embedded library whose
//! callers block on `run_transaction` / `execute`. Both clients draw from
//! one shared atomic budget, so they finish the window together.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use dbmodel::{CcMethod, LogicalItemId, Value};
use runtime::{
    CcPolicy, Database, RuntimeConfig, RuntimeReport, StatsSnapshot, TraceReport, TxnError,
    TxnReceipt, TxnSpec,
};

use crate::gen::{Policy, Shape, TxnDesc, Workload};
use crate::procfs;

/// Client threads generating load (`nproc` is 2 on the reference box; the
/// runtime adds its own shard threads and the deadlock detector).
pub const CLIENTS: usize = 2;
pub const SHARDS: u32 = 2;

/// The route a committed transaction took, from its receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    TwoPl,
    To,
    Pa,
    Bypass,
    Snapshot,
}

impl Route {
    pub const ALL: [Route; 5] = [
        Route::TwoPl,
        Route::To,
        Route::Pa,
        Route::Bypass,
        Route::Snapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::TwoPl => "2pl",
            Route::To => "to",
            Route::Pa => "pa",
            Route::Bypass => "bypass",
            Route::Snapshot => "snapshot",
        }
    }

    fn of(receipt: &TxnReceipt) -> Route {
        if receipt.snapshot {
            Route::Snapshot
        } else if receipt.fastpath {
            Route::Bypass
        } else {
            match receipt.method {
                CcMethod::TwoPhaseLocking => Route::TwoPl,
                CcMethod::TimestampOrdering => Route::To,
                CcMethod::PrecedenceAgreement => Route::Pa,
            }
        }
    }
}

/// Which public call a span covers. `Txn` is the root: the whole
/// transaction as its caller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Txn,
    Begin,
    Compute,
    Commit,
    Execute,
}

impl SpanName {
    pub fn name(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::Begin => "Database::begin",
            SpanName::Compute => "compute",
            SpanName::Commit => "ActiveTxn::commit",
            SpanName::Execute => "Database::execute",
        }
    }
}

/// One span of the traced pass, recorded by the benchmark around a public
/// call. Times are nanoseconds since the rep started, on one clock for
/// every client.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    /// Index of the parent span in the same client's buffer.
    pub parent: Option<u32>,
    /// Index of the transaction in the rep's stream.
    pub txn_seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Set on the root span of a committed transaction.
    pub route: Option<Route>,
    pub restarts: u32,
}

/// What to run on the fresh database.
#[derive(Debug, Clone, Copy)]
pub struct RepPlan {
    pub seed: u64,
    pub stream: u64,
    pub warmup: usize,
    pub measured: usize,
    /// Record a span around every public call.
    pub traced: bool,
    /// After the window, read every item back through coordinated reads.
    pub audit: bool,
}

/// Everything one rep leaves behind.
pub struct Rep {
    pub attempted: u64,
    pub commits: u64,
    pub failed: u64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Process CPU seconds (user + system) over the window.
    pub cpu_s: f64,
    /// `Database::open` + generation + warm-up.
    pub setup_s: f64,
    pub open_s: f64,
    pub shutdown_s: f64,
    /// Whole rep, set-up to shutdown.
    pub wall_s: f64,
    /// `VmRSS` at the end of the window, before shutdown.
    pub rss_mb: f64,
    pub ctx_switches: u64,
    /// Call-to-return nanoseconds of committed transactions.
    pub latencies_ns: Vec<u32>,
    pub route_counts: [u64; 5],
    pub restarts: u64,
    /// Sum of `net_increment` over committed transactions (warm-up too).
    pub increments: i64,
    /// Counter deltas over the window.
    pub stats: StatsSnapshot,
    pub trace_report: TraceReport,
    pub report: RuntimeReport,
    /// Sum of every item read back, when the plan asked for the audit.
    pub audit_total: Option<i64>,
    pub stream: Vec<TxnDesc>,
    /// One buffer per client (empty unless traced).
    pub spans: Vec<Vec<Span>>,
}

pub fn runtime_config(w: &Workload, seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: SHARDS,
        num_items: w.items,
        policy: match w.policy {
            Policy::MixedThirds => CcPolicy::Mix {
                p_2pl: 1.0 / 3.0,
                p_to: 1.0 / 3.0,
            },
            Policy::Static2pl => CcPolicy::Static(CcMethod::TwoPhaseLocking),
            Policy::DynamicStl => CcPolicy::DynamicStl,
        },
        seed,
        ..RuntimeConfig::default()
    }
}

fn spec_of(desc: &TxnDesc) -> TxnSpec {
    let items = |ids: &[u64]| ids.iter().map(|&i| LogicalItemId(i)).collect::<Vec<_>>();
    match desc.shape {
        Shape::Rmw { .. } => TxnSpec::new()
            .reads(items(&desc.reads))
            .writes(items(&desc.writes)),
        Shape::Add => TxnSpec::new().add(LogicalItemId(desc.writes[0]), 1),
        Shape::ReadOnly { .. } => TxnSpec::new().reads(items(&desc.reads)),
    }
}

/// The read-modify-write body (see [`Shape::Rmw`]).
fn rmw_writes(
    desc: &TxnDesc,
    reads: &BTreeMap<LogicalItemId, Value>,
) -> Vec<(LogicalItemId, Value)> {
    desc.writes
        .iter()
        .enumerate()
        .map(|(j, &w)| {
            let item = LogicalItemId(w);
            let delta = if j % 2 == 0 { 1 } else { -1 };
            (item, reads[&item].wrapping_add(delta))
        })
        .collect()
}

fn issue(db: &Database, spec: &TxnSpec, desc: &TxnDesc) -> Result<TxnReceipt, TxnError> {
    match desc.shape {
        Shape::Rmw { .. } => db.run_transaction(spec, |reads| rmw_writes(desc, reads)),
        Shape::Add | Shape::ReadOnly { .. } => db.execute(spec),
    }
}

/// [`issue`] with a span around every public call. The read-modify-write
/// arm is `Database::run_transaction` spelled out.
fn issue_traced(
    db: &Database,
    spec: &TxnSpec,
    desc: &TxnDesc,
    txn_seq: u32,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Result<TxnReceipt, TxnError> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let root = spans.len() as u32;
    let child = |name, start_ns, end_ns| Span {
        name,
        parent: Some(root),
        txn_seq,
        start_ns,
        end_ns,
        route: None,
        restarts: 0,
    };
    let start = now();
    spans.push(Span {
        name: SpanName::Txn,
        parent: None,
        txn_seq,
        start_ns: start,
        end_ns: start,
        route: None,
        restarts: 0,
    });
    let result = match desc.shape {
        Shape::Rmw { .. } => (|| {
            let txn = db.begin(spec);
            let begun = now();
            spans.push(child(SpanName::Begin, start, begun));
            let mut txn = txn?;
            let writes = rmw_writes(desc, txn.reads());
            for (item, value) in writes {
                txn.write(item, value)?;
            }
            let computed = now();
            spans.push(child(SpanName::Compute, begun, computed));
            let receipt = txn.commit();
            spans.push(child(SpanName::Commit, computed, now()));
            receipt
        })(),
        Shape::Add | Shape::ReadOnly { .. } => {
            let receipt = db.execute(spec);
            spans.push(child(SpanName::Execute, start, now()));
            receipt
        }
    };
    let root = &mut spans[root as usize];
    root.end_ns = now();
    if let Ok(receipt) = &result {
        root.route = Some(Route::of(receipt));
        root.restarts = receipt.restarts;
    }
    result
}

#[derive(Default)]
struct ClientTally {
    commits: u64,
    failed: u64,
    latencies_ns: Vec<u32>,
    route_counts: [u64; 5],
    restarts: u64,
    increments: i64,
    spans: Vec<Span>,
    finished: Option<Instant>,
}

/// Pull transactions `..end` from the shared cursor until it runs out.
/// Latencies, routes and spans are kept only when `measure` is set; a
/// failure is counted, never timed.
#[allow(clippy::too_many_arguments)]
fn drive(
    db: &Database,
    specs: &[TxnSpec],
    stream: &[TxnDesc],
    cursor: &AtomicUsize,
    end: usize,
    measure: bool,
    traced: Option<Instant>,
    tally: &mut ClientTally,
) {
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let (spec, desc) = (&specs[i], &stream[i]);
        let started = Instant::now();
        let result = match traced {
            Some(epoch) if measure => {
                issue_traced(db, spec, desc, i as u32, epoch, &mut tally.spans)
            }
            _ => issue(db, spec, desc),
        };
        let nanos = started.elapsed().as_nanos();
        match result {
            Ok(receipt) => {
                tally.increments += desc.net_increment();
                if measure {
                    tally.commits += 1;
                    tally.latencies_ns.push(nanos.min(u32::MAX as u128) as u32);
                    tally.route_counts[Route::of(&receipt) as usize] += 1;
                    tally.restarts += receipt.restarts as u64;
                }
            }
            Err(_) if measure => tally.failed += 1,
            Err(_) => {}
        }
    }
    if measure {
        tally.finished = Some(Instant::now());
    }
}

/// `after - before` for every counter the benchmark reports. Gauges
/// (`mailbox_overflow_entries`, `cache.entries`, `cache.epoch`) keep their
/// end-of-window value.
fn stats_delta(before: &StatsSnapshot, after: StatsSnapshot) -> StatsSnapshot {
    let mut d = after;
    macro_rules! sub {
        ($($field:ident).+) => { d.$($field).+ -= before.$($field).+; };
    }
    sub!(committed);
    sub!(rejected_restarts);
    sub!(deadlock_restarts);
    sub!(backoff_rounds);
    sub!(deadlock_victims);
    sub!(failed);
    sub!(grants);
    sub!(implemented_ops);
    sub!(fastpath_applied);
    sub!(fastpath_refused);
    sub!(snapshot_reads);
    sub!(snapshot_refused);
    sub!(selections);
    sub!(selection_nanos);
    sub!(stale_reply_events);
    sub!(mailbox_index_resizes);
    sub!(mailbox_full_drops);
    sub!(trace_events);
    sub!(timeout_restarts);
    sub!(shard_unavailable);
    sub!(cleanup_aborts);
    sub!(cache.hits);
    sub!(cache.misses);
    sub!(cache.refits);
    for (shard, earlier) in d.per_shard.iter_mut().zip(&before.per_shard) {
        shard.grants -= earlier.grants;
        shard.prescheduled -= earlier.prescheduled;
        shard.implemented -= earlier.implemented;
        shard.aborts -= earlier.aborts;
    }
    d
}

/// Items per audit transaction: well inside one reply mailbox.
const AUDIT_CHUNK: u64 = 64;

/// Read every item through coordinated (pinned 2PL) reads and sum them.
fn audit(db: &Database, items: u64) -> Result<i64, TxnError> {
    let mut total: i64 = 0;
    for first in (0..items).step_by(AUDIT_CHUNK as usize) {
        let spec = TxnSpec::new()
            .reads((first..(first + AUDIT_CHUNK).min(items)).map(LogicalItemId))
            .method(CcMethod::TwoPhaseLocking);
        let receipt = db.run_transaction(&spec, |_| Vec::new())?;
        total = total.wrapping_add(receipt.reads.values().sum::<i64>());
    }
    Ok(total)
}

pub fn run_rep(w: &Workload, plan: RepPlan) -> Rep {
    run_rep_with(w, plan, runtime_config(w, plan.seed))
}

/// [`run_rep`] on an explicit configuration (the harness tests open a
/// deliberately broken database through this).
pub fn run_rep_with(w: &Workload, plan: RepPlan, config: RuntimeConfig) -> Rep {
    procfs::trim_heap();
    let rep_started = Instant::now();
    let db = Database::open(config).expect("the benchmark's runtime configuration is valid");
    let open_s = rep_started.elapsed().as_secs_f64();

    let total = plan.warmup + plan.measured;
    let stream = w.generate(plan.seed, plan.stream, total);
    let specs: Vec<TxnSpec> = stream.iter().map(spec_of).collect();

    let cursor = AtomicUsize::new(0);
    // Clients and the main thread meet four times: warm-up done, window
    // open, window closed, accounting read.
    let barrier = Barrier::new(CLIENTS + 1);
    let mut tallies: Vec<ClientTally> = (0..CLIENTS)
        .map(|_| ClientTally {
            latencies_ns: Vec::with_capacity(plan.measured),
            ..ClientTally::default()
        })
        .collect();

    let mut setup_s = 0.0;
    let mut window_started = rep_started;
    let mut cpu_s = 0.0;
    let mut rss_mb = 0.0;
    let mut ctx_switches = 0;
    let mut stats = StatsSnapshot::default();
    let mut trace_report = TraceReport::default();
    std::thread::scope(|scope| {
        for tally in &mut tallies {
            let (db, specs, stream) = (&db, &specs[..], &stream[..]);
            let (cursor, barrier) = (&cursor, &barrier);
            scope.spawn(move || {
                drive(db, specs, stream, cursor, plan.warmup, false, None, tally);
                barrier.wait();
                barrier.wait();
                drive(
                    db,
                    specs,
                    stream,
                    cursor,
                    total,
                    true,
                    plan.traced.then_some(rep_started),
                    tally,
                );
                barrier.wait();
                barrier.wait();
            });
        }
        barrier.wait();
        // Each client's last warm-up fetch overshot the boundary.
        cursor.store(plan.warmup, Ordering::Relaxed);
        setup_s = rep_started.elapsed().as_secs_f64();
        let stats_before = db.stats();
        let ctx_before = procfs::ctx_switches();
        let cpu_before = procfs::cpu_seconds();
        window_started = Instant::now();
        barrier.wait();
        barrier.wait();
        cpu_s = procfs::cpu_seconds() - cpu_before;
        rss_mb = procfs::rss_mb();
        ctx_switches = procfs::ctx_switches() - ctx_before;
        stats = stats_delta(&stats_before, db.stats());
        trace_report = db.trace_report();
        barrier.wait();
    });

    let window_closed = tallies
        .iter()
        .filter_map(|t| t.finished)
        .max()
        .expect("every client ran the window");
    let audit_total = plan
        .audit
        .then(|| audit(&db, w.items).expect("the audit reads commit on a quiet database"));
    let shutdown_started = Instant::now();
    let report = db
        .shutdown()
        .expect("the benchmark shuts each database down once");
    let shutdown_s = shutdown_started.elapsed().as_secs_f64();

    let mut rep = Rep {
        attempted: plan.measured as u64,
        commits: 0,
        failed: 0,
        window_s: (window_closed - window_started).as_secs_f64(),
        cpu_s,
        setup_s,
        open_s,
        shutdown_s,
        wall_s: 0.0,
        rss_mb,
        ctx_switches,
        latencies_ns: Vec::with_capacity(plan.measured),
        route_counts: [0; 5],
        restarts: 0,
        increments: 0,
        stats,
        trace_report,
        report,
        audit_total,
        stream,
        spans: Vec::new(),
    };
    for tally in tallies {
        rep.commits += tally.commits;
        rep.failed += tally.failed;
        rep.latencies_ns.extend(tally.latencies_ns);
        for (sum, n) in rep.route_counts.iter_mut().zip(tally.route_counts) {
            *sum += n;
        }
        rep.restarts += tally.restarts;
        rep.increments += tally.increments;
        rep.spans.push(tally.spans);
    }
    rep.wall_s = rep_started.elapsed().as_secs_f64();
    rep
}
