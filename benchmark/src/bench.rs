//! The passes: burn-in, the untraced end-to-end pass and the traced
//! per-layer pass, each a round-robin of reps over the chosen workloads.
//!
//! Noise discipline: the sandbox runs about twice as fast for the first
//! second after an idle spell and its sustained speed drifts by ±15 % over
//! several seconds, so every pass starts after a burn-in, reps are short and
//! many, workloads alternate rep by rep, nothing sleeps, and a metric is
//! the median over reps.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::correct::Verdict;
use crate::gen::{Shape, Workload};
use crate::layers::{self, Measure};
use crate::report::{end_to_end_specs, per_layer_specs, Reported};
use crate::run::{run_rep, Rep, RepPlan, Route, Span, SpanName};
use crate::stats::{median, percentile};

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Seconds of reps per workload and pass.
    pub seconds: f64,
    /// Smoke mode: a quarter of every count.
    pub quick: bool,
}

impl Settings {
    fn plan(&self, w: &Workload, stream: u64, traced: bool) -> RepPlan {
        let scale = if self.quick { 4 } else { 1 };
        RepPlan {
            seed: self.seed,
            stream,
            warmup: w.warmup / scale,
            measured: w.measured / scale,
            traced,
            audit: false,
        }
    }
}

/// A median needs a few reps whatever the time budget says.
const MIN_REPS: u64 = 3;

/// Run `one(workload index, rep index)` — which returns the seconds it
/// took — round-robin until every workload has had `seconds` of reps.
fn round_robin(workloads: usize, seconds: f64, mut one: impl FnMut(usize, u64) -> f64) {
    let mut spent = vec![0.0; workloads];
    let mut last = vec![0.0; workloads];
    let mut reps = vec![0u64; workloads];
    loop {
        let mut ran = false;
        for i in 0..workloads {
            // Stop where half of another rep would overshoot the budget.
            if reps[i] >= MIN_REPS && spent[i] + last[i] / 2.0 >= seconds {
                continue;
            }
            last[i] = one(i, reps[i]);
            spent[i] += last[i];
            reps[i] += 1;
            ran = true;
        }
        if !ran {
            break;
        }
    }
}

/// Stream ids: measured reps count up from 0, burn-in reps down from here.
const BURN_IN_STREAM: u64 = 1 << 32;

/// Unmeasured quarter-size reps of every workload until `seconds` have
/// passed: drains the sandbox's after-idle burst and warms the allocator.
pub fn burn_in(workloads: &[&Workload], settings: Settings, seconds: f64) {
    let quick = Settings {
        quick: true,
        ..settings
    };
    let started = Instant::now();
    let mut rep = 0;
    while started.elapsed().as_secs_f64() < seconds {
        for w in workloads {
            run_rep(w, quick.plan(w, BURN_IN_STREAM + rep, false));
        }
        rep += 1;
    }
}

/// What the untraced pass keeps of one workload's reps.
#[derive(Default)]
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    /// Per-rep values by metric name.
    per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// Latencies of every committed transaction of every rep.
    pooled_ns: Vec<u32>,
}

impl EndToEnd {
    fn absorb(&mut self, mut rep: Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        let commits = rep.commits.max(1) as f64;
        rep.latencies_ns.sort_unstable();
        for (name, value) in [
            ("commits_per_s", rep.commits as f64 / rep.window_s),
            ("commit_p50_us", percentile(&rep.latencies_ns, 0.50) / 1e3),
            ("commit_p95_us", percentile(&rep.latencies_ns, 0.95) / 1e3),
            ("cpu_us_per_commit", rep.cpu_s * 1e6 / commits),
            ("setup_s", rep.setup_s),
            ("peak_rss_mb", rep.rss_mb),
        ] {
            self.per_rep.entry(name).or_default().push(value);
        }
        self.pooled_ns.extend(rep.latencies_ns);
    }

    /// The end-to-end metrics: medians over reps, except the latency
    /// percentiles, which pool the transactions of all reps. The RSS is a
    /// median too, not a maximum: a process that opens and drops one
    /// database after another creeps upward by allocator fragmentation, so
    /// a maximum would grow with the number of reps a run fits in.
    pub fn reported(&mut self) -> Vec<Reported> {
        self.pooled_ns.sort_unstable();
        end_to_end_specs()
            .iter()
            .map(|spec| {
                let reps = self
                    .per_rep
                    .get(spec.name.as_str())
                    .cloned()
                    .unwrap_or_default();
                let pooled = self.pooled_ns.len() as u64;
                let (value, samples) = match spec.name.as_str() {
                    "commit_p50_us" => (percentile(&self.pooled_ns, 0.50) / 1e3, pooled),
                    "commit_p95_us" => (percentile(&self.pooled_ns, 0.95) / 1e3, pooled),
                    _ => (median(&reps), reps.len() as u64),
                };
                Reported {
                    name: spec.name.clone(),
                    unit: spec.unit,
                    better: spec.better,
                    value,
                    samples,
                    reps,
                }
            })
            .collect()
    }
}

pub fn end_to_end_pass(workloads: &[&Workload], settings: Settings) -> Vec<EndToEnd> {
    let mut results: Vec<EndToEnd> = workloads.iter().map(|_| EndToEnd::default()).collect();
    round_robin(workloads.len(), settings.seconds, |i, rep| {
        let rep = run_rep(workloads[i], settings.plan(workloads[i], rep, false));
        let wall = rep.wall_s;
        results[i].absorb(rep);
        wall
    });
    results
}

/// What the traced pass keeps of one workload: every traced rep's in-situ
/// layer metrics, the throughput of both halves of each pair, and the last
/// traced rep whole (its stream feeds the replays, its spans the file).
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    insitu: BTreeMap<String, Vec<f64>>,
    untraced_commits_per_s: Vec<f64>,
    traced_commits_per_s: Vec<f64>,
    last: Option<Rep>,
}

/// Durations (ns, ascending) of the spans `keep` selects.
fn durations(rep: &Rep, keep: impl Fn(&Span) -> bool) -> Vec<u32> {
    let mut out: Vec<u32> = rep
        .spans
        .iter()
        .flatten()
        .filter(|s| keep(s))
        .map(|s| (s.end_ns - s.start_ns).min(u32::MAX as u64) as u32)
        .collect();
    out.sort_unstable();
    out
}

/// The span-count-weighted mean of one Section-5 segment over the methods.
fn segment_mean_us(rep: &Rep, segment: usize) -> f64 {
    let methods = &rep.trace_report.methods;
    let spans: u64 = methods.iter().map(|m| m.spans()).sum();
    if spans == 0 {
        return 0.0;
    }
    let weighted: f64 = methods
        .iter()
        .map(|m| m.segments[segment].mean() * m.spans() as f64)
        .sum();
    weighted / spans as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The layer metrics one traced rep yields on its own: counter deltas over
/// its window, its spans, and the trace plane's segment means (those
/// accumulate from `open`, so they include the warm-up).
fn insitu_metrics(rep: &Rep) -> Vec<(String, f64)> {
    let s = &rep.stats;
    let commits = rep.commits.max(1);
    let per_commit = |n: u64| n as f64 / commits as f64;
    let per_kcommit = |n: u64| 1e3 * n as f64 / commits as f64;
    let p_us = |sorted: &[u32], p: f64| percentile(sorted, p) / 1e3;
    let named = |name: SpanName| durations(rep, |span| span.name == name);
    let mut latencies = rep.latencies_ns.clone();
    latencies.sort_unstable();

    // Confluent attempts are the committed adds; a fallback is one that
    // committed through coordination instead of the bypass.
    let roots = || {
        rep.spans
            .iter()
            .flatten()
            .filter(|s| s.name == SpanName::Txn)
    };
    let is_add = |span: &Span| rep.stream[span.txn_seq as usize].shape == Shape::Add;
    let adds = roots().filter(|s| s.route.is_some() && is_add(s)).count() as u64;
    let fallbacks = roots()
        .filter(|s| is_add(s) && s.route.is_some_and(|r| r != Route::Bypass))
        .count() as u64;

    let mut out: Vec<(String, f64)> = [
        ("selection.insitu_us_per_txn", s.selection_micros_per_txn()),
        ("selection.selections_per_commit", per_commit(s.selections)),
        ("selection.hit_rate", s.cache.hit_rate()),
        ("selection.refits_per_kcommit", per_kcommit(s.cache.refits)),
        ("selection.seg_us", segment_mean_us(rep, 0)),
        ("transport.seg_xport_us", segment_mean_us(rep, 1)),
        ("core.seg_queue_us", segment_mean_us(rep, 2)),
        ("runtime.seg_exec_us", segment_mean_us(rep, 3)),
        ("transport.seg_reply_us", segment_mean_us(rep, 4)),
        ("transport.stale_replies", s.stale_reply_events as f64),
        ("transport.mailbox_full_drops", s.mailbox_full_drops as f64),
        (
            "transport.mailbox_overflow_entries",
            s.mailbox_overflow_entries as f64,
        ),
        ("transport.index_resizes", s.mailbox_index_resizes as f64),
        ("core.grants_per_commit", per_commit(s.grants)),
        (
            "core.prescheduled_share",
            ratio(s.prescheduled_grants(), s.grants),
        ),
        (
            "core.rejected_restarts_per_kcommit",
            per_kcommit(s.rejected_restarts),
        ),
        (
            "core.deadlock_restarts_per_kcommit",
            per_kcommit(s.deadlock_restarts),
        ),
        (
            "core.backoff_rounds_per_kcommit",
            per_kcommit(s.backoff_rounds),
        ),
        (
            "core.deadlock_victims_per_kcommit",
            per_kcommit(s.deadlock_victims),
        ),
        (
            "core.wasted_attempt_share",
            ratio(s.restarts(), rep.commits + s.restarts()),
        ),
        ("runtime.begin_p50_us", p_us(&named(SpanName::Begin), 0.5)),
        (
            "runtime.commit_call_p50_us",
            p_us(&named(SpanName::Commit), 0.5),
        ),
        (
            "runtime.execute_p50_us",
            p_us(&named(SpanName::Execute), 0.5),
        ),
        ("runtime.open_ms", rep.open_s * 1e3),
        ("runtime.shutdown_ms", rep.shutdown_s * 1e3),
        (
            "runtime.bypass_refused_share",
            ratio(s.fastpath_refused, s.fastpath_applied + s.fastpath_refused),
        ),
        ("runtime.bypass_fallback_share", ratio(fallbacks, adds)),
        (
            "runtime.snapshot_refused_share",
            ratio(s.snapshot_refused, s.snapshot_reads + s.snapshot_refused),
        ),
        ("runtime.restarts_per_commit", per_commit(rep.restarts)),
        ("runtime.commit_p99_us", p_us(&latencies, 0.99)),
        ("runtime.commit_p999_us", p_us(&latencies, 0.999)),
        (
            "runtime.ctx_switches_per_commit",
            per_commit(rep.ctx_switches),
        ),
        ("runtime.timeout_restarts", s.timeout_restarts as f64),
        ("runtime.shard_unavailable", s.shard_unavailable as f64),
        ("runtime.cleanup_aborts", s.cleanup_aborts as f64),
        ("trace.events_per_commit", per_commit(s.trace_events)),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    for route in Route::ALL {
        let r = route.name();
        let sorted = durations(rep, |span| span.route == Some(route));
        out.push((format!("runtime.route_{r}_p50_us"), p_us(&sorted, 0.50)));
        out.push((format!("runtime.route_{r}_p95_us"), p_us(&sorted, 0.95)));
        let share = per_commit(rep.route_counts[route as usize]);
        out.push((format!("runtime.route_share_{r}"), share));
    }
    out
}

pub fn traced_pass(workloads: &[&Workload], settings: Settings) -> Vec<Traced> {
    let mut results: Vec<Traced> = workloads
        .iter()
        .map(|_| Traced {
            attempted: 0,
            failed: 0,
            insitu: BTreeMap::new(),
            untraced_commits_per_s: Vec::new(),
            traced_commits_per_s: Vec::new(),
            last: None,
        })
        .collect();
    // One step is a pair — an untraced rep, then a traced one on the same
    // stream — so the span overhead compares like with like.
    round_robin(workloads.len(), settings.seconds, |i, pair| {
        let (w, result) = (workloads[i], &mut results[i]);
        let plain = run_rep(w, settings.plan(w, pair, false));
        let traced = run_rep(w, settings.plan(w, pair, true));
        let wall = plain.wall_s + traced.wall_s;
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        result
            .untraced_commits_per_s
            .push(plain.commits as f64 / plain.window_s);
        result
            .traced_commits_per_s
            .push(traced.commits as f64 / traced.window_s);
        for (name, value) in insitu_metrics(&traced) {
            result.insitu.entry(name).or_default().push(value);
        }
        result.last = Some(traced);
        wall
    });
    results
}

impl Traced {
    /// Every per-layer metric: the in-situ ones as medians over the traced
    /// reps, the replays of the last traced rep's stream, the `sim` base
    /// run, and the oracle's cost from the correctness slice.
    pub fn reported(&self, w: &Workload, verdict: &Verdict, seed: u64) -> Vec<Reported> {
        let rep = self
            .last
            .as_ref()
            .expect("the traced pass ran at least one pair");
        let reps = self.traced_commits_per_s.len() as u64;
        let mut values: BTreeMap<String, Measure> = self
            .insitu
            .iter()
            .map(|(name, per_rep)| {
                let m = Measure {
                    value: median(per_rep),
                    samples: reps,
                };
                (name.clone(), m)
            })
            .collect();

        let record = layers::trace_record();
        let mean_latency_ns =
            rep.latencies_ns.iter().map(|&n| n as f64).sum::<f64>() / rep.commits.max(1) as f64;
        let computed_share = if mean_latency_ns > 0.0 {
            record.value * values["trace.events_per_commit"].value / mean_latency_ns
        } else {
            0.0
        };
        let untraced = median(&self.untraced_commits_per_s);
        let overhead = (untraced - median(&self.traced_commits_per_s)) / untraced;
        let sim = layers::sim_base_run(seed);
        let once = |value: f64| Measure { value, samples: 1 };
        for (name, m) in [
            (
                "selection.decide_ns",
                layers::selection_decide(w, &rep.stream, &rep.report),
            ),
            (
                "selection.classify_ns",
                layers::selection_classify(&rep.stream),
            ),
            (
                "transport.ring_ns_per_msg",
                layers::transport_ring(&rep.stream),
            ),
            (
                "transport.mailbox_ns_per_event",
                layers::transport_mailbox(&rep.stream),
            ),
            ("transport.ring_hop_us", layers::transport_ring_hop()),
            ("transport.mailbox_hop_us", layers::transport_mailbox_hop()),
            (
                "core.qm_ns_per_msg",
                layers::core_queue_manager(w, &rep.stream),
            ),
            (
                "pam.queue_ns_per_op",
                layers::pam_data_queue(w, &rep.stream),
            ),
            ("trace.record_ns", record),
            (
                "trace.computed_share",
                Measure {
                    value: computed_share,
                    samples: reps,
                },
            ),
            ("sercheck.check_us_per_op", verdict.check_us_per_op),
            (
                "sercheck.ops_checked",
                once(verdict.check_us_per_op.samples as f64),
            ),
            ("sim.host_us_per_txn", sim.host_us_per_txn),
            ("sim.system_time_ms", once(sim.system_time_ms)),
            ("sim.messages_per_commit", once(sim.messages_per_commit)),
            (
                "harness.span_overhead_share",
                Measure {
                    value: overhead,
                    samples: reps,
                },
            ),
        ] {
            values.insert(name.to_string(), m);
        }
        per_layer_specs()
            .iter()
            .map(|spec| Reported::of(spec, values[&spec.name]))
            .collect()
    }

    /// Write the last traced rep's spans, one JSON object per line. A span's
    /// `id` is its line number; `parent` is the id of its transaction span.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let rep = self
            .last
            .as_ref()
            .expect("the traced pass ran at least one pair");
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut base = 0;
        for (client, spans) in rep.spans.iter().enumerate() {
            for (idx, span) in spans.iter().enumerate() {
                write!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"client\":{client},\
                     \"txn_seq\":{},\"start_ns\":{},\"end_ns\":{}",
                    base + idx,
                    span.parent
                        .map_or("null".to_string(), |p| (base + p as usize).to_string()),
                    span.name.name(),
                    span.txn_seq,
                    span.start_ns,
                    span.end_ns,
                )?;
                if let Some(route) = span.route {
                    write!(
                        out,
                        ",\"route\":\"{}\",\"restarts\":{}",
                        route.name(),
                        span.restarts
                    )?;
                }
                writeln!(out, "}}")?;
            }
            base += spans.len();
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::workload;
    use trace::json::Json;

    #[test]
    fn round_robin_gives_every_workload_its_budget_and_minimum() {
        let mut reps = [0u64; 2];
        // Workload 0 takes 1 s a rep, workload 1 takes 10 s: the first gets
        // its 4 s in reps, the second still gets its minimum.
        round_robin(2, 4.0, |i, rep| {
            assert_eq!(rep, reps[i]);
            reps[i] += 1;
            if i == 0 {
                1.0
            } else {
                10.0
            }
        });
        assert_eq!(reps, [4, MIN_REPS]);
    }

    #[test]
    fn a_quick_traced_pair_reports_every_layer_metric_and_writes_spans() {
        let w = workload("counter_bypass").unwrap();
        let settings = Settings {
            seed: 2,
            seconds: 0.0,
            quick: true,
        };
        let traced = traced_pass(&[w], settings).remove(0);
        let verdict = crate::correct::check_slice(w, 2, crate::run::runtime_config(w, 2));
        let reported = traced.reported(w, &verdict, 2);
        assert_eq!(reported.len(), per_layer_specs().len());
        let value = |name: &str| reported.iter().find(|m| m.name == name).unwrap().value;
        assert!(value("runtime.route_share_bypass") > 0.5);
        assert!(value("runtime.route_bypass_p50_us") > 0.0);
        assert!(value("runtime.execute_p50_us") > 0.0);
        assert_eq!(value("selection.selections_per_commit"), 0.0);
        assert!(value("trace.events_per_commit") > 0.0);
        assert!(value("sim.system_time_ms") > 0.0);

        let path = crate::out_dir().join("test_spans.jsonl");
        traced.write_spans(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let roots = lines
            .iter()
            .filter(|l| l.get("parent") == Some(&Json::Null));
        assert_eq!(roots.count(), w.measured / 4);
        for (id, line) in lines.iter().enumerate() {
            assert_eq!(line.get("id").unwrap().as_f64(), Some(id as f64));
            if let Some(parent) = line.get("parent").unwrap().as_f64() {
                let parent = &lines[parent as usize];
                assert_eq!(parent.get("name").unwrap().as_str(), Some("txn"));
                assert_eq!(parent.get("txn_seq"), line.get("txn_seq"));
            }
        }
    }

    #[test]
    fn the_end_to_end_pass_reports_every_metric_nonzero() {
        let w = workload("read_mostly").unwrap();
        let settings = Settings {
            seed: 2,
            seconds: 0.0,
            quick: true,
        };
        let mut e2e = end_to_end_pass(&[w], settings).remove(0);
        assert_eq!(e2e.failed, 0);
        assert_eq!(e2e.attempted, MIN_REPS * (w.measured / 4) as u64);
        for m in e2e.reported() {
            assert!(m.value > 0.0, "{} is {}", m.name, m.value);
            assert_eq!(m.reps.len() as u64, MIN_REPS, "{}", m.name);
        }
    }
}
