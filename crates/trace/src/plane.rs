//! The tracing plane itself: per-lane flight recorders, per-thread
//! phase counters, striped Section-5 accumulators, and the latched
//! postmortem dump.
//!
//! Lane layout: one lane per shard (lane index = shard index),
//! then [`CLIENT_LANES`] lanes shared by client threads round-robin
//! (thread-affine, assigned on a thread's first record — the same scheme
//! as the runtime's metrics stripes). A `record_at` is one relaxed
//! `fetch_add` on the *recording thread's* phase-counter slot (slots are
//! thread-affine the same way, so a client running a shard's command
//! inline does not bounce that shard's counter line between CPUs) plus,
//! at [`TraceLevel::Full`], one seqlock ring write into the event's own
//! lane: no locks, no allocation, no clock read, no branches beyond the
//! level checks. The caller supplies the timestamp, so events that share
//! a boundary share one read of [`TracePlane::now`]; `record` reads it
//! first.
//!
//! The span accumulators are *not* on the per-event path: a client
//! thread folds its six boundary timestamps into the striped
//! [`MethodBreakdown`] once per committed incarnation (and once per
//! restart), through a thread-affine mutex stripe that is effectively
//! uncontended — the same commit-path-cheap pattern as `MetricsShards`.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dbmodel::CcMethod;
use transport::stamp::now_nanos;
use transport::CachePadded;

use crate::collect::{phase_count_pairs, MethodBreakdown, SpanTimings, TraceReport};
use crate::event::{pack_meta, Phase, TraceEvent, NUM_PHASES};
use crate::json::Json;
use crate::ring::FlightRing;

/// Client lanes appended after the shard lanes (threads beyond this
/// share lanes round-robin).
pub const CLIENT_LANES: usize = 16;

/// How much the plane records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing — every record call returns on its first branch, and the
    /// plane allocates no rings and no accumulators.
    Off,
    /// Phase counters and Section-5 span accumulation, but no event
    /// rings (no flight recorder, no postmortem).
    Counters,
    /// Everything: counters, span accumulation, per-lane flight-recorder
    /// rings, transport dwell stamps, postmortem dumps.
    Full,
}

/// Configuration of the tracing plane ([`crate::TracePlane::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    pub level: TraceLevel,
    /// Events each lane's flight recorder retains (rounded up to a power
    /// of two).
    pub ring_capacity: usize,
    /// Where postmortem JSONL dumps go; `None` disables dumping even at
    /// `Full`.
    pub postmortem_dir: Option<PathBuf>,
    /// Last-N events per lane included in a postmortem dump.
    pub postmortem_last: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            // The flight recorder is always on, and the repo benchmark
            // measures every end-to-end number with it on
            // (`trace.record_ns` is its cost per event). The rings are
            // bounded, and events that share a boundary share one clock
            // read: a single-shard transfer records its nine events at
            // eight reads. It is not free: switching it off still raised
            // `transfer_uniform`'s throughput by 12–47 % in six 10-s
            // rounds on a 2-vCPU x86-64 VM.
            level: TraceLevel::Full,
            ring_capacity: 4096,
            postmortem_dir: None,
            postmortem_last: 256,
        }
    }
}

impl TraceConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.level != TraceLevel::Off && self.ring_capacity == 0 {
            return Err("trace ring capacity must be non-zero".into());
        }
        if self.postmortem_dir.is_some() && self.postmortem_last == 0 {
            return Err("postmortem_last must be non-zero when dumping".into());
        }
        Ok(())
    }
}

/// One counter slot's events per phase, cache-padded so slots never
/// false-share.
struct PhaseCounters([AtomicU64; NUM_PHASES]);

impl PhaseCounters {
    fn new() -> Self {
        PhaseCounters(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    #[inline]
    fn bump(&self, phase: Phase) {
        self.0[phase as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Index into the per-method accumulator arrays.
fn method_slot(method: CcMethod) -> usize {
    match method {
        CcMethod::TwoPhaseLocking => 0,
        CcMethod::TimestampOrdering => 1,
        CcMethod::PrecedenceAgreement => 2,
    }
}

/// One stripe of Section-5 accumulation (lazily per method, so a
/// single-method run pays one breakdown per stripe).
#[derive(Default)]
struct SpanAccum {
    methods: [Option<Box<MethodBreakdown>>; 3],
}

impl SpanAccum {
    fn breakdown(&mut self, method: CcMethod) -> &mut MethodBreakdown {
        self.methods[method_slot(method)]
            .get_or_insert_with(|| Box::new(MethodBreakdown::new(method)))
    }
}

const SPAN_STRIPES: usize = 16;

thread_local! {
    /// This thread's lane/stripe offset, assigned on first use (shared
    /// by every plane in the process, like the metrics stripe index).
    static TRACE_LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_THREAD_LANE: AtomicUsize = AtomicUsize::new(0);

fn thread_offset() -> usize {
    TRACE_LANE.with(|cell| {
        let mut offset = cell.get();
        if offset == usize::MAX {
            offset = NEXT_THREAD_LANE.fetch_add(1, Ordering::Relaxed);
            cell.set(offset);
        }
        offset
    })
}

/// The flight-recorder tracing plane (one per `Database`).
pub struct TracePlane {
    level: TraceLevel,
    shard_lanes: usize,
    /// Flight-recorder rings, one per lane (empty below `Full`).
    lanes: Box<[FlightRing]>,
    /// [`CLIENT_LANES`] phase-counter slots, picked by the recording
    /// thread as it picks its client lane (empty at `Off`). Only the sums
    /// mean anything.
    counts: Box<[CachePadded<PhaseCounters>]>,
    /// Striped Section-5 accumulators (empty at `Off`).
    stripes: Box<[CachePadded<Mutex<SpanAccum>>]>,
    postmortem_dir: Option<PathBuf>,
    postmortem_last: usize,
    postmortem_fired: AtomicBool,
}

impl std::fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePlane")
            .field("level", &self.level)
            .field("shard_lanes", &self.shard_lanes)
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl TracePlane {
    /// Build a plane with `shard_lanes` shard lanes plus the client
    /// lanes.
    pub fn new(config: &TraceConfig, shard_lanes: usize) -> TracePlane {
        let total = shard_lanes + CLIENT_LANES;
        let lanes = if config.level == TraceLevel::Full {
            (0..total)
                .map(|_| FlightRing::new(config.ring_capacity))
                .collect()
        } else {
            Box::from([])
        };
        let counts = if config.level >= TraceLevel::Counters {
            (0..CLIENT_LANES)
                .map(|_| CachePadded::new(PhaseCounters::new()))
                .collect()
        } else {
            Box::from([])
        };
        let stripes = if config.level >= TraceLevel::Counters {
            (0..SPAN_STRIPES)
                .map(|_| CachePadded::new(Mutex::new(SpanAccum::default())))
                .collect()
        } else {
            Box::from([])
        };
        TracePlane {
            level: config.level,
            shard_lanes,
            lanes,
            counts,
            stripes,
            postmortem_dir: config.postmortem_dir.clone(),
            postmortem_last: config.postmortem_last,
            postmortem_fired: AtomicBool::new(false),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The lane of shard `idx`.
    pub fn shard_lane(&self, idx: usize) -> usize {
        idx
    }

    /// The calling thread's client lane (thread-affine round-robin).
    pub fn client_lane(&self) -> usize {
        self.shard_lanes + thread_offset() % CLIENT_LANES
    }

    /// The shared clock, or 0 when the plane is off (so an untraced run
    /// never pays a clock read).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.level == TraceLevel::Off {
            0
        } else {
            now_nanos()
        }
    }

    /// Record one event at the current time.
    #[inline]
    pub fn record(&self, lane: usize, txn: u64, phase: Phase, arg: u32) {
        if self.level == TraceLevel::Off {
            return;
        }
        self.record_at(lane, now_nanos(), txn, phase, arg);
    }

    /// Record one event with an explicit timestamp (used when the caller
    /// already read the clock, or shares one read across a batch). The
    /// event goes into `lane`; it is counted on the calling thread's slot.
    #[inline]
    pub fn record_at(&self, lane: usize, ts_nanos: u64, txn: u64, phase: Phase, arg: u32) {
        if self.level == TraceLevel::Off {
            return;
        }
        self.counts[thread_offset() % CLIENT_LANES].bump(phase);
        if self.level == TraceLevel::Full {
            self.lanes[lane].record(ts_nanos, txn, pack_meta(phase, arg));
        }
    }

    /// Fold one committed incarnation's boundary timestamps into the
    /// Section-5 accumulator (called once per commit, off the per-event
    /// path; the stripe mutex is thread-affine and uncontended).
    pub fn record_span(&self, method: CcMethod, timings: &SpanTimings) {
        if self.level == TraceLevel::Off {
            return;
        }
        let stripe = thread_offset() % self.stripes.len();
        let mut accum = self.stripes[stripe].lock().expect("span stripe poisoned");
        accum.breakdown(method).record_span(timings);
    }

    /// Fold one failed incarnation's begin→restart duration.
    pub fn record_restart(&self, method: CcMethod, nanos: u64) {
        if self.level == TraceLevel::Off {
            return;
        }
        let stripe = thread_offset() % self.stripes.len();
        let mut accum = self.stripes[stripe].lock().expect("span stripe poisoned");
        accum
            .breakdown(method)
            .restart_overhead
            .record(nanos as f64 / 1_000.0);
    }

    /// Total events recorded per phase, summed over every counter slot.
    pub fn phase_counts(&self) -> [u64; NUM_PHASES] {
        let mut totals = [0u64; NUM_PHASES];
        for slot in self.counts.iter() {
            for (total, count) in totals.iter_mut().zip(&slot.0 .0[..]) {
                *total += count.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Total events recorded across all phases.
    pub fn events_recorded(&self) -> u64 {
        self.phase_counts().iter().sum()
    }

    /// Snapshot every lane's surviving events (unsorted across lanes).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.snapshot_into(i as u32, &mut out);
        }
        out
    }

    /// Merge the striped accumulators and counters into a report (the
    /// caller attaches transport dwell meters it owns).
    pub fn report(&self) -> TraceReport {
        let mut methods: [Option<MethodBreakdown>; 3] = [None, None, None];
        for stripe in self.stripes.iter() {
            let accum = stripe.lock().expect("span stripe poisoned");
            for (slot, partial) in methods.iter_mut().zip(&accum.methods) {
                if let Some(partial) = partial {
                    slot.get_or_insert_with(|| MethodBreakdown::new(partial.method))
                        .merge_from(partial);
                }
            }
        }
        TraceReport {
            methods: methods.into_iter().flatten().collect(),
            phase_counts: phase_count_pairs(self.phase_counts()),
            transport_dwell: Vec::new(),
        }
    }

    /// Dump the last-N events of every lane as JSONL, once per plane:
    /// the first anomaly (deadlock victim, sercheck failure) wins, later
    /// triggers are no-ops. Returns the path
    /// written, or `None` when dumping is disabled, already latched, or
    /// the level holds no rings.
    pub fn trigger_postmortem(&self, reason: &str) -> Option<PathBuf> {
        if self.level != TraceLevel::Full {
            return None;
        }
        let dir = self.postmortem_dir.as_deref()?;
        if self.postmortem_fired.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(self.write_postmortem(dir, reason))
    }

    fn write_postmortem(&self, dir: &Path, reason: &str) -> PathBuf {
        let mut events = Vec::new();
        let mut lane_events = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            lane_events.clear();
            lane.snapshot_into(i as u32, &mut lane_events);
            let keep_from = lane_events.len().saturating_sub(self.postmortem_last);
            events.extend_from_slice(&lane_events[keep_from..]);
        }
        events.sort_by_key(|e| e.ts_nanos);

        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("trace_postmortem_{safe}.jsonl"));

        let mut out = String::new();
        let header = Json::obj([
            ("reason", Json::str(reason)),
            ("shard_lanes", Json::num(self.shard_lanes as u32)),
            ("client_lanes", Json::num(CLIENT_LANES as u32)),
            ("events", Json::num(events.len() as u32)),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for e in &events {
            let line = Json::obj([
                ("lane", Json::num(e.lane)),
                ("ts_nanos", Json::Num(e.ts_nanos as f64)),
                // A string: an id past 2^53 has no exact `f64`.
                ("txn", Json::str(e.txn.to_string())),
                ("phase", Json::str(e.phase.name())),
                ("arg", Json::num(e.arg)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        // Postmortems are best-effort diagnostics: a failed write must
        // never take down the run that is already anomalous.
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(&path, out);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_config() -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Full,
            ring_capacity: 64,
            postmortem_dir: None,
            postmortem_last: 8,
        }
    }

    #[test]
    fn off_plane_allocates_nothing_and_ignores_records() {
        let plane = TracePlane::new(
            &TraceConfig {
                level: TraceLevel::Off,
                ..TraceConfig::default()
            },
            4,
        );
        assert_eq!(plane.now(), 0);
        plane.record(0, 1, Phase::Begin, 0);
        plane.record_span(CcMethod::TwoPhaseLocking, &SpanTimings::default());
        assert_eq!(plane.events_recorded(), 0);
        assert!(plane.snapshot().is_empty());
        assert!(plane.report().methods.is_empty());
    }

    #[test]
    fn full_plane_records_events_and_spans() {
        let plane = TracePlane::new(&full_config(), 2);
        let lane = plane.client_lane();
        assert!(lane >= 2, "client lanes follow shard lanes");
        plane.record_at(lane, 100, 7, Phase::Begin, 0);
        plane.record_at(lane, 200, 7, Phase::Committed, 0);
        plane.record(plane.shard_lane(1), 7, Phase::Granted, 3);
        assert_eq!(plane.events_recorded(), 3);

        let events = plane.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .any(|e| e.lane == 1 && e.phase == Phase::Granted));

        plane.record_span(
            CcMethod::TimestampOrdering,
            &SpanTimings {
                begin: 0,
                selection_done: 1_000,
                enqueued: 2_000,
                exec_start: 3_000,
                commit_start: 4_000,
                committed: 5_000,
            },
        );
        plane.record_restart(CcMethod::TimestampOrdering, 10_000);
        let report = plane.report();
        let to = report.method(CcMethod::TimestampOrdering).unwrap();
        assert_eq!(to.spans(), 1);
        assert_eq!(to.restart_overhead.count(), 1);
        assert!((to.phase_sum_mean_us() - to.end_to_end_mean_us()).abs() < 1e-9);
        assert_eq!(report.events_recorded(), 3);
        assert!(report.format_table().contains("T/O"));
    }

    /// More recording threads than client lanes, all writing one shard
    /// lane besides their own: slots are shared and the lanes' owners
    /// are not the counters' owners, yet every event is counted once.
    #[test]
    fn phase_totals_are_exact_across_threads_sharing_a_lane() {
        const THREADS: usize = CLIENT_LANES + 4;
        const EVENTS: u64 = 10_000;
        let plane = TracePlane::new(&full_config(), 2);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let plane = &plane;
                scope.spawn(move || {
                    let own = plane.client_lane();
                    for i in 0..EVENTS {
                        let txn = (t as u64) << 32 | i;
                        plane.record_at(plane.shard_lane(1), i, txn, Phase::Granted, 1);
                        plane.record_at(own, i, txn, Phase::Begin, 0);
                        if i % 2 == 0 {
                            plane.record(own, txn, Phase::Committed, 0);
                        }
                    }
                });
            }
        });
        let mut expected = [0u64; NUM_PHASES];
        expected[Phase::Granted as usize] = THREADS as u64 * EVENTS;
        expected[Phase::Begin as usize] = THREADS as u64 * EVENTS;
        expected[Phase::Committed as usize] = THREADS as u64 * EVENTS / 2;
        assert_eq!(plane.phase_counts(), expected);
        assert_eq!(plane.events_recorded(), expected.iter().sum::<u64>());
    }

    #[test]
    fn counters_level_counts_without_rings() {
        let plane = TracePlane::new(
            &TraceConfig {
                level: TraceLevel::Counters,
                ..TraceConfig::default()
            },
            1,
        );
        plane.record(plane.client_lane(), 1, Phase::Begin, 0);
        assert_eq!(plane.events_recorded(), 1);
        assert!(plane.snapshot().is_empty(), "no rings below Full");
        assert!(plane.trigger_postmortem("x").is_none());
    }

    #[test]
    fn postmortem_dumps_once_and_parses_as_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "trace_plane_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let plane = TracePlane::new(
            &TraceConfig {
                postmortem_dir: Some(dir.clone()),
                ..full_config()
            },
            1,
        );
        // Ids above 2^53, where an `f64` can no longer hold every integer.
        let id = |i: u64| (1 << 60) + 2 * i + 1;
        for i in 0..20u64 {
            plane.record_at(0, i, id(i), Phase::ShardRecv, 2);
        }
        let path = plane
            .trigger_postmortem("deadlock victim!")
            .expect("first trigger dumps");
        assert!(path.to_string_lossy().contains("deadlock-victim-"));
        assert!(
            plane.trigger_postmortem("second").is_none(),
            "latched after the first anomaly"
        );

        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("reason").and_then(Json::as_str),
            Some("deadlock victim!")
        );
        // postmortem_last = 8 on a lane holding 20: the dump keeps 8.
        assert_eq!(header.get("events").and_then(Json::as_f64), Some(8.0));
        let events: Vec<Json> = lines.map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(events.len(), 8);
        assert!(events
            .iter()
            .all(|e| e.get("phase").and_then(Json::as_str) == Some("shard-recv")));
        let txns: Vec<u64> = events
            .iter()
            .map(|e| {
                e.get("txn")
                    .and_then(Json::as_str)
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            txns,
            (12..20).map(id).collect::<Vec<_>>(),
            "ids round-trip exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
