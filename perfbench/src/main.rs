//! perfbench: the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench compare <base-results-dir> <head-results-dir>
//! ```
//!
//! A run prints every metric with its unit and sample count, writes the
//! result (with the host fingerprint) under `perfbench/results/`, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics untraced, the per-layer ones with `--trace 1`.

mod compare;
mod host;
mod irregular;
mod metrics;
mod oracle;
mod recursion;
mod rng;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, Recorded, Saved, END_TO_END, PER_LAYER};
use serde::Serialize;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["irregular-loops", "dp-recursion", "serve-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "irregular-loops" => sweep::run(&irregular::WORKLOAD, args.seed, args.seconds, args.trace),
        "dp-recursion" => sweep::run(&recursion::WORKLOAD, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace, &results_dir()),
    }
}

/// A metric as the last line shows it.
#[derive(Serialize)]
struct Shown {
    value: f64,
    unit: String,
}

/// The last line of a run's output.
#[derive(Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Shown>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> \
                 --trace <0|1>\n       perfbench compare <base-dir> <head-dir>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::probe();
    let mut out = run(&args);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    out.complete(catalogue);
    for &(name, _) in catalogue {
        if !out.metrics[name].value.is_finite() {
            out.fail(format!("{name} is not a finite number"));
        }
    }

    println!(
        "perfbench {} seed {} ({} s, trace {}) on {} cores, {}, {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.rustc
    );
    for &(name, unit) in catalogue {
        let m = out.metrics[name];
        println!("  {name:<22} {:>16.6} {unit:<6} n={}", m.value, m.n);
    }
    println!(
        "  error_rate {:.6} ({} failed of {} attempted); report digest {:016x}",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted,
        out.digest
    );
    for note in &out.notes {
        println!("{note}");
    }
    for f in &out.failures {
        println!("  FAILED {f}");
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = results_dir();
    // Non-finite values were counted as failures above; they show as 0.
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let saved = Saved {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fingerprint,
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        digest: format!("{:016x}", out.digest),
        metrics: catalogue
            .iter()
            .map(|&(name, unit)| {
                let m = out.metrics[name];
                let r = Recorded {
                    value: finite(m.value),
                    unit: unit.to_string(),
                    n: m.n,
                };
                (name.to_string(), r)
            })
            .collect(),
    };
    let record = serde_json::to_string(&saved).expect("result renders") + "\n";
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| match &out.chrome_trace {
            Some(t) => std::fs::write(dir.join(format!("{stem}.trace.json")), t),
            None => Ok(()),
        });
    match written {
        Ok(()) => println!("  -> {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!(
            "warning: could not save results under {}: {e}",
            dir.display()
        ),
    }
    println!("{}", last_line(&saved));
    ExitCode::SUCCESS
}

/// The last line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
fn last_line(saved: &Saved) -> String {
    let line = Line {
        correct: saved.correct,
        attempted: saved.attempted,
        failed: saved.failed,
        metrics: saved
            .metrics
            .iter()
            .map(|(name, r)| {
                let shown = Shown {
                    value: r.value,
                    unit: r.unit.clone(),
                };
                (name.clone(), shown)
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("line renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload serve-open --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-open", 7, 10, true)
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload dp-recursion --seed x")).is_err());
        assert!(parse(&argv("--workload dp-recursion --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload dp-recursion")).is_err());
    }

    #[test]
    fn the_last_line_keeps_every_digit() {
        let metrics = [("a", 1.5), ("b", 1e-7), ("c", 2.0)]
            .into_iter()
            .map(|(n, v)| {
                let r = Recorded {
                    value: v,
                    unit: "s".into(),
                    n: 1,
                };
                (n.to_string(), r)
            })
            .collect();
        let saved = Saved {
            workload: "serve-open".into(),
            seed: 1,
            seconds: 1,
            trace: false,
            fingerprint: host::Fingerprint::probe(),
            correct: true,
            attempted: 3,
            failed: 0,
            digest: String::new(),
            metrics,
        };
        let line = last_line(&saved);
        let v: serde::Value = serde_json::from_str(&line).expect("JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(key).is_some(), "{key} missing from {line}");
        }
        assert!(
            line.contains(r#""b":{"value":0.0000001,"unit":"s"}"#),
            "{line}"
        );
        assert!(!line.contains(r#""n""#), "{line}");
    }
}
