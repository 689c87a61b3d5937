//! The metric lists, the results document and `compare`.
//!
//! `BENCHMARK.json` at the repository root repeats the two metric lists and
//! the workload list; a test below keeps the copies identical.

use trace::json::Json;

use crate::layers::Measure;
use crate::run::Route;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

fn spec(name: &str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Failures are reported as `failed` of `attempted` beside the metrics, not
/// as a metric: the share is 0 on every workload, and a ratio against 0
/// has no meaning. `compare` flags any rise above this absolute share.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

pub fn end_to_end_specs() -> Vec<Spec> {
    use Better::{Higher, Lower};
    vec![
        spec("commits_per_s", "txn/s", Higher, 0.25),
        spec("commit_p50_us", "us", Lower, 0.25),
        spec("commit_p95_us", "us", Lower, 0.25),
        spec("cpu_us_per_commit", "us", Lower, 0.25),
        spec("setup_s", "s", Lower, 0.25),
        spec("peak_rss_mb", "MB", Lower, 0.25),
    ]
}

pub fn per_layer_specs() -> Vec<Spec> {
    use Better::{Higher, Lower};
    let mut specs: Vec<Spec> = [
        ("selection.decide_ns", "ns", Lower),
        ("selection.classify_ns", "ns", Lower),
        ("selection.insitu_us_per_txn", "us", Lower),
        ("selection.selections_per_commit", "1/txn", Lower),
        ("selection.hit_rate", "share", Higher),
        ("selection.refits_per_kcommit", "1/ktxn", Lower),
        ("selection.seg_us", "us", Lower),
        ("transport.ring_ns_per_msg", "ns", Lower),
        ("transport.mailbox_ns_per_event", "ns", Lower),
        ("transport.ring_hop_us", "us", Lower),
        ("transport.mailbox_hop_us", "us", Lower),
        ("transport.seg_xport_us", "us", Lower),
        ("transport.seg_reply_us", "us", Lower),
        ("transport.stale_replies", "count", Lower),
        ("transport.mailbox_full_drops", "count", Lower),
        ("transport.mailbox_overflow_entries", "count", Lower),
        ("transport.index_resizes", "count", Lower),
        ("core.qm_ns_per_msg", "ns", Lower),
        ("core.grants_per_commit", "1/txn", Lower),
        ("core.prescheduled_share", "share", Lower),
        ("core.rejected_restarts_per_kcommit", "1/ktxn", Lower),
        ("core.deadlock_restarts_per_kcommit", "1/ktxn", Lower),
        ("core.backoff_rounds_per_kcommit", "1/ktxn", Lower),
        ("core.deadlock_victims_per_kcommit", "1/ktxn", Lower),
        ("core.wasted_attempt_share", "share", Lower),
        ("core.seg_queue_us", "us", Lower),
        ("pam.queue_ns_per_op", "ns", Lower),
        ("runtime.begin_p50_us", "us", Lower),
        ("runtime.commit_call_p50_us", "us", Lower),
        ("runtime.execute_p50_us", "us", Lower),
        ("runtime.seg_exec_us", "us", Lower),
        ("runtime.open_ms", "ms", Lower),
        ("runtime.shutdown_ms", "ms", Lower),
    ]
    .into_iter()
    .map(|(name, unit, better)| spec(name, unit, better, 0.0))
    .collect();
    for route in Route::ALL {
        let r = route.name();
        specs.push(spec(&format!("runtime.route_{r}_p50_us"), "us", Lower, 0.0));
        specs.push(spec(&format!("runtime.route_{r}_p95_us"), "us", Lower, 0.0));
    }
    for route in Route::ALL {
        // Bailis's coordinated fraction: less of it is better.
        let better = match route {
            Route::Bypass | Route::Snapshot => Higher,
            _ => Lower,
        };
        let name = format!("runtime.route_share_{}", route.name());
        specs.push(spec(&name, "share", better, 0.0));
    }
    specs.extend(
        [
            ("runtime.bypass_refused_share", "share", Lower),
            ("runtime.bypass_fallback_share", "share", Lower),
            ("runtime.snapshot_refused_share", "share", Lower),
            ("runtime.restarts_per_commit", "1/txn", Lower),
            ("runtime.commit_p99_us", "us", Lower),
            ("runtime.commit_p999_us", "us", Lower),
            ("runtime.ctx_switches_per_commit", "1/txn", Lower),
            ("runtime.timeout_restarts", "count", Lower),
            ("runtime.shard_unavailable", "count", Lower),
            ("runtime.cleanup_aborts", "count", Lower),
            ("trace.record_ns", "ns", Lower),
            ("trace.events_per_commit", "1/txn", Lower),
            ("trace.computed_share", "share", Lower),
            ("sercheck.check_us_per_op", "us", Lower),
            ("sercheck.ops_checked", "count", Higher),
            ("sim.host_us_per_txn", "us", Lower),
            ("sim.system_time_ms", "ms", Lower),
            ("sim.messages_per_commit", "1/txn", Lower),
            ("harness.span_overhead_share", "share", Lower),
        ]
        .into_iter()
        .map(|(name, unit, better)| spec(name, unit, better, 0.0)),
    );
    specs
}

/// One reported value: the metric, how many samples it summarises and,
/// where it summarises reps, each rep's own value (what `compare` takes
/// the run-to-run spread from).
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub samples: u64,
    pub reps: Vec<f64>,
}

impl Reported {
    pub fn of(spec: &Spec, m: Measure) -> Reported {
        Reported {
            name: spec.name.clone(),
            unit: spec.unit,
            better: spec.better,
            value: m.value,
            samples: m.samples,
            reps: Vec::new(),
        }
    }
}

/// What one workload reported.
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Reported>,
    pub per_layer: Vec<Reported>,
}

fn metrics_json(metrics: &[Reported], full: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), Json::Num(m.value)),
            ("unit".to_string(), Json::str(m.unit)),
        ];
        if full {
            fields.push(("better".to_string(), Json::str(m.better.name())));
            fields.push(("samples".to_string(), Json::Num(m.samples as f64)));
            if !m.reps.is_empty() {
                let reps = m.reps.iter().map(|&v| Json::Num(v)).collect();
                fields.push(("reps".to_string(), Json::Arr(reps)));
            }
        }
        (m.name.clone(), Json::Obj(fields))
    }))
}

impl WorkloadReport {
    /// The one-line result the benchmark contract asks for: the end-to-end
    /// metrics of an untraced run, or the per-layer metrics of a traced one.
    pub fn contract_line(&self, traced: bool) -> Json {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(metrics, false)),
        ])
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("why", Json::str(self.why)),
            ("correct", Json::Bool(self.correct)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", metrics_json(&self.end_to_end, true)),
            ("per_layer", metrics_json(&self.per_layer, true)),
        ])
    }

    pub fn print(&self) {
        println!(
            "\n== {} — {} ({} attempted, {} failed)",
            self.name,
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        println!("   {}", self.why);
        for problem in &self.problems {
            println!("   !! {problem}");
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!(
                "   {:<40} {:>14.4} {:<7} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// The whole results document (`benchmark/out/results.json`).
pub fn results_json(seed: u64, seconds: f64, quick: bool, reports: &[WorkloadReport]) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("clients", Json::Num(crate::run::CLIENTS as f64)),
        ("shards", Json::Num(crate::run::SHARDS as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        (
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::json).collect()),
        ),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`. The change is the relative move in the bad
/// direction. Where either side's rep-to-rep spread is wider than the
/// bound the medians cannot settle it: the verdict is `Unresolved` unless
/// every rep of one side beats every rep of the other.
pub fn judge(spec: &Spec, base: f64, new: f64, base_reps: &[f64], new_reps: &[f64]) -> Verdict {
    let worsening = match spec.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let noisy = stats::spread(base_reps).max(stats::spread(new_reps)) > spec.bound;
    if noisy {
        let ((base_lo, base_hi), (new_lo, new_hi)) = (min_max(base_reps), min_max(new_reps));
        let new_all_lower = new_hi < base_lo;
        let new_all_higher = new_lo > base_hi;
        return match (spec.better, new_all_lower, new_all_higher) {
            (Better::Lower, true, _) | (Better::Higher, _, true) => Verdict::Better,
            (Better::Lower, _, true) | (Better::Higher, true, _) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

fn reps_of(metric: &Json) -> Vec<f64> {
    metric
        .get("reps")
        .and_then(Json::as_array)
        .map(|reps| reps.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `compare <a.json> <b.json>`: one row per workload and end-to-end metric,
/// the ratio with its base, the bound and the verdict. Returns the rows
/// and whether any is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("no `workloads` array: not a results.json")?
            .to_vec())
    };
    let (base_workloads, new_workloads) = (workloads(a)?, workloads(b)?);
    let mut rows = vec![format!(
        "{:<18} {:<18} {:>12} {:>12} {:>7} {:>6}  {}",
        "workload", "metric", "base", "new", "ratio", "bound", "verdict"
    )];
    let mut any_worse = false;
    for base in &base_workloads {
        let name = base.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(new) = new_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for spec in end_to_end_specs() {
            let metric = |doc: &Json| doc.get("end_to_end")?.get(&spec.name).cloned();
            let (Some(bm), Some(nm)) = (metric(base), metric(new)) else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let (bv, nv) = (value(&bm), value(&nm));
            let verdict = judge(&spec, bv, nv, &reps_of(&bm), &reps_of(&nm));
            any_worse |= verdict == Verdict::Worse;
            rows.push(format!(
                "{:<18} {:<18} {:>12.3} {:>12.3} {:>7.3} {:>6.2}  {}",
                name,
                spec.name,
                bv,
                nv,
                nv / bv,
                spec.bound,
                verdict.name()
            ));
        }
        let share = |doc: &Json| {
            let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            count("failed") / count("attempted").max(1.0)
        };
        let (bs, ns) = (share(base), share(new));
        let verdict = if ns > bs + FAILED_SHARE_BOUND {
            any_worse = true;
            Verdict::Worse
        } else {
            Verdict::Same
        };
        rows.push(format!(
            "{:<18} {:<18} {:>12.5} {:>12.5} {:>7} {:>6}  {}",
            name,
            "failed_share",
            bs,
            ns,
            "-",
            "+.001",
            verdict.name()
        ));
    }
    Ok((rows, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    fn reported(name: &str, value: f64, reps: &[f64]) -> Reported {
        Reported {
            name: name.to_string(),
            unit: "us",
            better: Better::Lower,
            value,
            samples: reps.len() as u64,
            reps: reps.to_vec(),
        }
    }

    fn report(p50: f64, reps: &[f64], failed: u64) -> WorkloadReport {
        WorkloadReport {
            name: "wide_hot",
            why: "a test",
            correct: true,
            problems: vec!["a \"quoted\" problem".to_string()],
            attempted: 1_000,
            failed,
            end_to_end: vec![reported("commit_p50_us", p50, reps)],
            per_layer: vec![reported("core.qm_ns_per_msg", 41.5, &[])],
        }
    }

    #[test]
    fn results_document_round_trips_through_the_parser() {
        let doc = results_json(7, 12.0, false, &[report(100.25, &[99.0, 100.25, 101.0], 0)]);
        let parsed = Json::parse(&doc.to_string()).expect("the writer emits valid JSON");
        assert_eq!(parsed, doc);
        let w = &parsed.get("workloads").unwrap().as_array().unwrap()[0];
        let p50 = w.get("end_to_end").unwrap().get("commit_p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(100.25));
        assert_eq!(reps_of(p50), vec![99.0, 100.25, 101.0]);
        assert_eq!(parsed.get("seed").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = report(100.25, &[100.25], 0).contract_line(false);
        let Json::Obj(fields) = &line else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = line.get("metrics").unwrap().get("commit_p50_us").unwrap();
        assert_eq!(metric.to_string(), r#"{"value":100.25,"unit":"us"}"#);
        let traced = report(100.25, &[100.25], 0).contract_line(true);
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("core.qm_ns_per_msg")
            .is_some());
    }

    #[test]
    fn judge_separates_same_worse_better_and_unresolved() {
        let lower = spec("commit_p50_us", "us", Better::Lower, 0.10);
        let tight = [99.0, 100.0, 101.0];
        assert_eq!(judge(&lower, 100.0, 105.0, &tight, &tight), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 115.0, &tight, &tight), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 85.0, &tight, &tight), Verdict::Better);
        let higher = spec("commits_per_s", "txn/s", Better::Higher, 0.10);
        assert_eq!(judge(&higher, 100.0, 85.0, &tight, &tight), Verdict::Worse);
        // A spread wider than the bound: the medians settle nothing …
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&lower, 100.0, 115.0, &wide, &wide),
            Verdict::Unresolved
        );
        // … unless every rep of one side beats every rep of the other.
        let far = [200.0, 240.0, 280.0, 220.0, 260.0];
        assert_eq!(judge(&lower, 100.0, 240.0, &wide, &far), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 240.0, &wide, &far), Verdict::Better);
    }

    #[test]
    fn compare_prints_a_row_per_metric_and_flags_worse() {
        let tight = [99.0, 100.0, 101.0];
        let a = results_json(1, 12.0, false, &[report(100.0, &tight, 0)]);
        let same = results_json(1, 12.0, false, &[report(104.0, &tight, 0)]);
        let slow = results_json(1, 12.0, false, &[report(140.0, &[139.0, 140.0, 141.0], 0)]);
        let failing = results_json(1, 12.0, false, &[report(100.0, &tight, 5)]);
        let (rows, worse) = compare(&a, &same).unwrap();
        assert!(!worse);
        assert!(rows[1].contains("commit_p50_us") && rows[1].ends_with("same"));
        assert!(
            rows[1].contains("1.040"),
            "ratio with its base: {}",
            rows[1]
        );
        assert!(compare(&a, &slow).unwrap().1);
        let (rows, worse) = compare(&a, &failing).unwrap();
        assert!(worse && rows[2].contains("failed_share") && rows[2].ends_with("worse"));
        assert!(compare(&Json::Null, &a).is_err());
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// lists above and to the frozen workload table.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text_of =
            |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(entry, "name"), w.name);
            assert_eq!(text_of(entry, "why"), w.why);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for (key, specs, bounded) in [
            ("end_to_end", end_to_end_specs(), true),
            ("per_layer", per_layer_specs(), false),
        ] {
            let entries = list(key);
            assert_eq!(entries.len(), specs.len(), "{key}");
            for (entry, spec) in entries.iter().zip(&specs) {
                assert_eq!(text_of(entry, "name"), spec.name);
                assert_eq!(text_of(entry, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(
                    text_of(entry, "better"),
                    spec.better.name(),
                    "{}",
                    spec.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(spec.bound), "{}", spec.name);
            }
        }
        assert!(per_layer_specs().len() <= 128);
    }
}
