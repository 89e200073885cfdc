//! `perfbench compare <base-dir> <head-dir>`: compare two sets of saved
//! results metric by metric against the bounds in `BENCHMARK.json`.
//!
//! Results taken on hosts whose fingerprints differ (cores, CPU, compiler,
//! `NPAR_*` settings) are reported as incomparable, never as a pass or a
//! regression.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::metrics::{Declaration, Saved};
use crate::stats::median;

fn load_dir(dir: &Path) -> Result<Vec<Saved>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(out)
}

/// How much worse `head` is than `base`, as a share of `base` (negative
/// when better).
pub fn worse_by(base: f64, head: f64, lower_is_better: bool) -> f64 {
    let d = (head - base) / base.abs().max(f64::MIN_POSITIVE);
    if lower_is_better {
        d
    } else {
        -d
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let (Some(base), Some(head)) = (args.first(), args.get(1)) else {
        eprintln!("usage: perfbench compare <base-results-dir> <head-results-dir>");
        return ExitCode::from(2);
    };
    let (base, head, declared) = match (
        load_dir(Path::new(base)),
        load_dir(Path::new(head)),
        Declaration::load(&Declaration::path()),
    ) {
        (Ok(b), Ok(h), Ok(d)) => (b, h, d),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    let workloads: std::collections::BTreeSet<&str> = base
        .iter()
        .chain(&head)
        .filter(|s| !s.trace)
        .map(|s| s.workload.as_str())
        .collect();
    for w in workloads {
        let of = |s: &&Saved| !s.trace && s.workload == w;
        let b: Vec<&Saved> = base.iter().filter(of).collect();
        let h: Vec<&Saved> = head.iter().filter(of).collect();
        if b.is_empty() || h.is_empty() {
            println!("{w}: results on one side only");
            continue;
        }
        let comparable = b
            .iter()
            .chain(&h)
            .all(|s| s.fingerprint.comparable(&b[0].fingerprint));
        println!("{w}: {} base runs, {} head runs", b.len(), h.len());
        if !comparable {
            println!("  incomparable: the runs' host fingerprints differ");
            continue;
        }
        for m in &declared.end_to_end {
            let (name, lower, bound) = (&m.name, m.better == "lower", &m.bound);
            let med = |runs: &[&Saved]| {
                let v: Vec<f64> = runs
                    .iter()
                    .filter_map(|s| s.metrics.get(name).map(|r| r.value))
                    .collect();
                median(&v).map(|m| m.value)
            };
            let (Some(mb), Some(mh)) = (med(&b), med(&h)) else {
                println!("  {name:<16} missing");
                continue;
            };
            let worse = worse_by(mb, mh, lower);
            let verdict = if worse > *bound {
                regressed = true;
                "REGRESSED"
            } else if worse < -*bound {
                "improved"
            } else {
                "within bound"
            };
            println!(
                "  {name:<16} base {mb:>12.4}  head {mh:>12.4} {:<4} {:+7.1}% worse (bound {:.0}%)  {verdict}",
                m.unit,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Fingerprint;
    use crate::metrics::Recorded;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn saved_results_round_trip_with_their_fingerprint() {
        let saved = Saved {
            workload: "dp-recursion".into(),
            seed: 1,
            seconds: 20,
            trace: false,
            fingerprint: Fingerprint::probe(),
            correct: true,
            attempted: 60,
            failed: 0,
            digest: format!("{:016x}", 7u64),
            metrics: [("wall_s", 1.5), ("setup_s", 2.0), ("cpu_s", 1e-7)]
                .into_iter()
                .map(|(n, v)| {
                    let r = Recorded {
                        value: v,
                        unit: "s".into(),
                        n: 3,
                    };
                    (n.to_string(), r)
                })
                .collect(),
        };
        let text = serde_json::to_string(&saved).expect("renders");
        let back: Saved = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, saved);
        assert!(back.fingerprint.comparable(&Fingerprint::probe()));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let d = Declaration::load(&Declaration::path()).expect("BENCHMARK.json readable");
        let e2e = &d.end_to_end;
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.better == "lower"));
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
