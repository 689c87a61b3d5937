//! The repo benchmark: five live-runtime workloads, end-to-end metrics from
//! an untraced pass, per-layer metrics from a traced pass, and a
//! correctness pass that gates both. See `README.md`.

mod bench;
mod correct;
mod gen;
mod layers;
mod procfs;
mod report;
mod run;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::json::Json;

use bench::Settings;
use gen::{Workload, WORKLOADS};
use report::WorkloadReport;

const USAGE: &str = "\
usage: ucc-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                     [--quick] [--selfcheck]
       ucc-benchmark compare <a.json> <b.json>

  --workload   one of the five workloads (default: all of them, round-robin)
  --seed       seed of every generated transaction stream (default 1)
  --seconds    seconds of reps per workload and pass (default 12; --quick 1)
  --trace      0: end-to-end pass only; 1: traced per-layer pass only
               (default: both, the traced pass at a third of --seconds)
  --quick      smoke mode: a quarter of every count
  --selfcheck  run the end-to-end pass twice and fail if any metric moves by
               more than its own bound
  compare      judge results b against results a, metric by metric

With --workload and --trace the last line of output is the one-line JSON
result: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.";

/// Seconds of unmeasured load before the first measured rep.
const BURN_IN_SECONDS: f64 = 2.5;

/// Where results and span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                parsed.workload = Some(
                    gen::workload(name)
                        .ok_or_else(|| format!("unknown workload {name}: one of {}", known()))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--selfcheck" => parsed.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, any_worse) = report::compare(&load(a)?, &load(b)?)?;
    for row in rows {
        println!("{row}");
    }
    Ok(any_worse)
}

/// `--selfcheck`: two end-to-end passes of the same code must agree within
/// every metric's own bound.
fn selfcheck(workloads: &[&'static Workload], settings: Settings) -> bool {
    let mut passes = Vec::new();
    for _ in 0..2 {
        let pass: Vec<_> = bench::end_to_end_pass(workloads, settings)
            .iter_mut()
            .map(bench::EndToEnd::reported)
            .collect();
        passes.push(pass);
    }
    let mut agree = true;
    for (w, (first, second)) in workloads.iter().zip(passes[0].iter().zip(&passes[1])) {
        for (spec, (a, b)) in report::end_to_end_specs()
            .iter()
            .zip(first.iter().zip(second))
        {
            let moved = (b.value - a.value).abs() / a.value;
            let ok = moved <= spec.bound;
            agree &= ok;
            println!(
                "{:<18} {:<18} {:>12.3} {:>12.3}  moved {:>6.3} of {:.2}  {}",
                w.name,
                spec.name,
                a.value,
                b.value,
                moved,
                spec.bound,
                if ok { "ok" } else { "DIFFERS" }
            );
        }
    }
    agree
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare_files(a, b) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(problem) => {
                    eprintln!("compare: {problem}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let seconds = args.seconds.unwrap_or(if args.quick { 1.0 } else { 12.0 });
    let settings = Settings {
        seed: args.seed,
        seconds,
        quick: args.quick,
    };
    let burn_in = if args.quick { 1.0 } else { BURN_IN_SECONDS };
    bench::burn_in(&workloads, settings, burn_in);

    if args.selfcheck {
        return if selfcheck(&workloads, settings) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let mut end_to_end =
        (args.trace != Some(true)).then(|| bench::end_to_end_pass(&workloads, settings));
    let traced = (args.trace != Some(false)).then(|| {
        // Beside an end-to-end pass the traced one is the extra: a third.
        let seconds = if end_to_end.is_some() {
            seconds / 3.0
        } else {
            seconds
        };
        bench::traced_pass(
            &workloads,
            Settings {
                seconds,
                ..settings
            },
        )
    });

    let out = out_dir();
    let mut reports = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let verdict = correct::check_slice(w, args.seed, run::runtime_config(w, args.seed));
        let mut report = WorkloadReport {
            name: w.name,
            why: w.why,
            correct: verdict.correct(),
            problems: verdict.problems.clone(),
            attempted: correct::SLICE as u64,
            failed: verdict.failed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        if let Some(pass) = &mut end_to_end {
            report.attempted += pass[i].attempted;
            report.failed += pass[i].failed;
            report.end_to_end = pass[i].reported();
        }
        if let Some(pass) = &traced {
            report.attempted += pass[i].attempted;
            report.failed += pass[i].failed;
            report.per_layer = pass[i].reported(w, &verdict, args.seed);
            let path = out.join(format!("trace_{}.jsonl", w.name));
            if let Err(e) = pass[i].write_spans(&path) {
                eprintln!("{}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        report.print();
        reports.push(report);
    }

    let results = out.join("results.json");
    let doc = report::results_json(args.seed, seconds, args.quick, &reports);
    if let Err(e) = std::fs::write(&results, format!("{doc}\n")) {
        eprintln!("{}: {e}", results.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", results.display());

    if let ([report], Some(traced)) = (reports.as_slice(), args.trace) {
        println!("{}", report.contract_line(traced));
    }
    if reports.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness check failed: no number above counts");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args("--workload wide_hot --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "wide_hot");
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(12.0), Some(true)));
        assert!(!a.quick && !a.selfcheck);
        let a = args("--quick --selfcheck").unwrap();
        assert!(a.workload.is_none() && a.trace.is_none() && a.quick && a.selfcheck);
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        assert!(args("--workload nope")
            .unwrap_err()
            .contains("transfer_uniform"));
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").unwrap_err().contains("needs a value"));
        assert!(args("--seconds -1").is_err());
        assert!(args("--seconds 1e9").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
