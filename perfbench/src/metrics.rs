//! The metric catalogue and the result every workload returns.
//!
//! [`END_TO_END`] and [`PER_LAYER`] must match `BENCHMARK.json` name for
//! name and unit for unit (a test holds them together). Every workload
//! reports every metric of the list its run mode asks for; a layer a
//! workload does not exercise reports 0 with 0 samples.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::host::Fingerprint;

/// End-to-end metrics (reported with `--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("modeled_gm_us", "us"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics (reported with `--trace 1`): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("tree.gen_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.threads_peak", "count"),
    ("runner.cpu_util", "ratio"),
    ("runner.rss_growth_mb", "MB"),
    ("apps.call_s", "s"),
    ("apps.self_s", "s"),
    ("sim.trace_s", "s"),
    ("sim.ops", "count"),
    ("sim.ns_per_op", "ns"),
    ("sim.grids", "count"),
    ("sim.device_launches", "count"),
    ("memo.warp_hit_ratio", "ratio"),
    ("memo.block_hit_ratio", "ratio"),
    ("memo.replay_ratio", "ratio"),
    ("sched.timing_s", "s"),
    ("sched.ns_per_grid", "ns"),
    ("sched.share", "ratio"),
    ("consolidate.merged", "count"),
    ("consolidate.inlined", "count"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.cache_ms.p50", "ms"),
    ("serve.dedup_ms.p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.fresh_ms.p50", "ms"),
    ("serve.fresh_ms.p99", "ms"),
    ("serve.backlog_p99.hi", "count"),
    ("serve.p50_ms.lo", "ms"),
    ("serve.p90_ms.lo", "ms"),
    ("serve.p99_ms.lo", "ms"),
    ("serve.p50_ms.hi", "ms"),
    ("serve.p90_ms.hi", "ms"),
    ("serve.p99_ms.hi", "ms"),
    ("serve.shed", "count"),
    ("serve.timeout", "count"),
    ("serve.failed", "count"),
    ("serve.spill_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.spill_mb", "MB"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// One reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub n: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First failure messages, for the log.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Digest of every Report the run produced (ungated).
    pub digest: u64,
    /// Human-readable extras (self-time table, sample notes).
    pub notes: Vec<String>,
    /// Chrome-trace JSON of the traced run.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Metric { value, n });
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Fill every metric of `catalogue` the workload did not exercise
    /// with 0 (0 samples), so each run reports the whole list.
    pub fn complete(&mut self, catalogue: &[(&'static str, &'static str)]) {
        for &(name, _) in catalogue {
            self.metrics
                .entry(name)
                .or_insert(Metric { value: 0.0, n: 0 });
        }
    }
}

/// A metric as a result records it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recorded {
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

/// One saved result, `perfbench/results/<workload>-seed<n>-trace<t>.json`:
/// written by a run, read back by `compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Saved {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The Report digest, hex.
    pub digest: String,
    pub metrics: BTreeMap<String, Recorded>,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Deserialize)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Declaration {
    pub end_to_end: Vec<Bounded>,
}

impl Declaration {
    /// `BENCHMARK.json` beside the `perfbench/` package.
    pub fn path() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    }

    pub fn load(path: &Path) -> Result<Declaration, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("p50 ms") && !valid_name(".x") && !valid_name("a/b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        #[derive(Deserialize)]
        struct Listed {
            name: String,
            unit: String,
        }
        #[derive(Deserialize)]
        struct Lists {
            end_to_end: Vec<Listed>,
            per_layer: Vec<Listed>,
        }
        let text = std::fs::read_to_string(Declaration::path()).expect("BENCHMARK.json");
        let doc: Lists = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |list: &[Listed]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&doc.end_to_end), own(END_TO_END));
        assert_eq!(pairs(&doc.per_layer), own(PER_LAYER));
    }
}
