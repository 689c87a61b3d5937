//! The correctness pass: a short slice of each workload on a fresh
//! database, certified by the serializability oracle, a conservation audit
//! and a route-sanity check.
//!
//! The slice is separate and small because `sercheck` is quadratic in the
//! length of an item's log: it cannot certify a measured rep's history in
//! the time the benchmark has, so it certifies 2,000 transactions instead.

use std::time::Instant;

use runtime::RuntimeConfig;

use crate::gen::{Policy, Workload, CORRECTNESS_STREAM};
use crate::layers::Measure;
use crate::run::{run_rep_with, RepPlan, Route};

pub const SLICE: usize = 2_000;

pub struct Verdict {
    /// One line per failed check; empty when the slice is correct.
    pub problems: Vec<String>,
    pub failed: u64,
    /// `sercheck.check_us_per_op` and its `ops_checked`.
    pub check_us_per_op: Measure,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A workload that stopped exercising its route must not report numbers:
/// the floors are well below what the parent commit serves (bypass 0.79,
/// snapshot 0.875) and well above what a broken route leaves.
fn route_problems(w: &Workload, share: impl Fn(Route) -> f64, selections: u64) -> Vec<String> {
    let mut floors: Vec<(Route, f64)> = match w.name {
        "counter_bypass" => vec![(Route::Bypass, 0.5)],
        "read_mostly" => vec![(Route::Snapshot, 0.7)],
        _ => Vec::new(),
    };
    if w.policy == Policy::MixedThirds {
        floors.extend([Route::TwoPl, Route::To, Route::Pa].map(|route| (route, 0.0)));
    }
    let mut problems: Vec<String> = floors
        .into_iter()
        .filter(|&(route, min)| share(route) <= min)
        .map(|(route, min)| {
            format!(
                "{}: route share of {} is {:.3}, expected above {min}",
                w.name,
                route.name(),
                share(route)
            )
        })
        .collect();
    match (w.policy, selections) {
        (Policy::DynamicStl, 0) => problems.push(format!("{}: the selector never ran", w.name)),
        (Policy::DynamicStl, _) | (_, 0) => {}
        _ => problems.push(format!("{}: a static policy ran the selector", w.name)),
    }
    problems
}

pub fn check_slice(w: &Workload, seed: u64, config: RuntimeConfig) -> Verdict {
    let plan = RepPlan {
        seed,
        stream: CORRECTNESS_STREAM,
        warmup: 0,
        measured: SLICE,
        traced: false,
        audit: true,
    };
    let rep = run_rep_with(w, plan, config);
    let commits = rep.commits.max(1) as f64;
    let mut problems = route_problems(
        w,
        |route| rep.route_counts[route as usize] as f64 / commits,
        rep.stats.selections,
    );

    let ops = rep.report.logs.total_ops() as u64;
    let started = Instant::now();
    let order = rep.report.serializable();
    let elapsed = started.elapsed();
    if let Err(cycle) = order {
        problems.push(format!("{}: not serializable: {cycle}", w.name));
    }

    // Items start at the default initial value of 0.
    let total = rep.audit_total.expect("the slice plan asks for the audit");
    if total != rep.increments {
        problems.push(format!(
            "{}: items sum to {total}, committed increments to {}",
            w.name, rep.increments
        ));
    }
    if rep.failed > 0 {
        problems.push(format!(
            "{}: {} of {SLICE} transactions failed",
            w.name, rep.failed
        ));
    }
    Verdict {
        problems,
        failed: rep.failed,
        check_us_per_op: Measure {
            value: elapsed.as_secs_f64() * 1e6 / ops.max(1) as f64,
            samples: ops,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::workload;
    use crate::run::runtime_config;

    #[test]
    fn every_workload_slice_is_certified() {
        for w in &crate::gen::WORKLOADS {
            let verdict = check_slice(w, 3, runtime_config(w, 3));
            assert!(verdict.correct(), "{:?}", verdict.problems);
            assert!(verdict.check_us_per_op.samples >= SLICE as u64);
        }
    }

    /// The deliberately broken run: with the bypass switched off the
    /// workload still commits everything, serializably — and must still be
    /// refused, because it no longer measures what it says it measures.
    #[test]
    fn a_workload_that_lost_its_route_is_refused() {
        let w = workload("counter_bypass").unwrap();
        let broken = RuntimeConfig {
            confluence_fastpath: false,
            ..runtime_config(w, 3)
        };
        let verdict = check_slice(w, 3, broken);
        assert!(!verdict.correct());
        assert!(
            verdict.problems[0].contains("bypass"),
            "{:?}",
            verdict.problems
        );

        let w = workload("read_mostly").unwrap();
        let broken = RuntimeConfig {
            snapshot_reads: false,
            ..runtime_config(w, 3)
        };
        assert!(!check_slice(w, 3, broken).correct());
    }
}
