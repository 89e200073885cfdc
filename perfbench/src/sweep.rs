//! The two simulation-sweep workloads share this module: a list of
//! independent simulation points, fanned out with `runner::parallel_map`
//! as the paper binaries do. Each point runs on its own fresh `Gpu::k20()`
//! at library defaults inside a big-stack worker and is checked against a
//! CPU reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use npar_bench::runner;
use npar_sim::{Gpu, Report};

use crate::host::{self, Peaks, Sampler};
use crate::metrics::Outcome;
use crate::oracle;
use crate::stats::{self, median};
use crate::trace::{self, Tracer};

/// Checks one point's output against its reference, after timing stops.
pub type Check = Box<dyn FnOnce() -> Result<(), String> + Send>;

/// Runs one point's simulation on the simulator it is given.
pub type Run = dyn Fn(&mut Gpu) -> (Report, Check) + Send + Sync;

/// One simulation of the sweep.
pub struct Point {
    pub label: String,
    pub run: Arc<Run>,
}

impl Point {
    pub fn new(
        label: impl Into<String>,
        run: impl Fn(&mut Gpu) -> (Report, Check) + Send + Sync + 'static,
    ) -> Point {
        Point {
            label: label.into(),
            run: Arc::new(run),
        }
    }
}

/// Generator times of one dataset build.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    pub graph_s: f64,
    pub tree_s: f64,
}

/// A sweep workload: how to build its inputs from the seed and turn them
/// into points. `points` also computes the CPU references (untimed).
pub struct Workload<D> {
    pub build: fn(u64) -> (D, GenTimes),
    pub points: fn(&D) -> Vec<Point>,
}

/// Dataset builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Sweeps per run at least, whatever `--seconds` says.
const MIN_SWEEPS: usize = 3;

struct PointRun {
    seconds: f64,
    report: Option<Report>,
    verdict: Result<(), String>,
}

/// Run one point on a fresh simulator.
fn run_point(p: &Point) -> (Instant, Instant, PointRun) {
    let run = Arc::clone(&p.run);
    let outer = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        runner::with_big_stack(move || {
            let start = Instant::now();
            let (report, check) = run(&mut Gpu::k20());
            let end = Instant::now();
            (start, end, report, check())
        })
    }));
    match res {
        Ok((start, end, report, verdict)) => (
            start,
            end,
            PointRun {
                seconds: end.duration_since(start).as_secs_f64(),
                report: Some(report),
                verdict,
            },
        ),
        Err(_) => {
            let end = Instant::now();
            (
                outer,
                end,
                PointRun {
                    seconds: end.duration_since(outer).as_secs_f64(),
                    report: None,
                    verdict: Err("panicked".into()),
                },
            )
        }
    }
}

struct SweepRun {
    wall_s: f64,
    cpu_s: f64,
    peaks: Peaks,
    runs: Vec<PointRun>,
}

fn run_sweep(points: &[Point], tracer: &Tracer) -> SweepRun {
    let sweep = tracer.id();
    let one = |i: usize| {
        let (start, end, run) = run_point(&points[i]);
        if tracer.enabled() {
            let s = run
                .report
                .as_ref()
                .map(|r| r.sim.clone())
                .unwrap_or_default();
            tracer.record(
                0,
                Some(sweep),
                "apps",
                points[i].label.clone(),
                start,
                end,
                vec![
                    ("sim_wall_s", s.wall_seconds),
                    ("timing_s", s.timing_pass_ns as f64 * 1e-9),
                    ("ops", s.ops_traced as f64),
                ],
            );
        }
        run
    };
    let sampler = Sampler::start();
    let t0 = Instant::now();
    let c0 = host::cpu_seconds();
    let runs = runner::parallel_map((0..points.len()).collect(), one);
    let t1 = Instant::now();
    let cpu_s = host::cpu_seconds() - c0;
    let peaks = sampler.stop();
    tracer.record(
        sweep,
        None,
        "runner",
        "sweep",
        t0,
        t1,
        vec![("cpu_s", cpu_s)],
    );
    SweepRun {
        wall_s: t1.duration_since(t0).as_secs_f64(),
        cpu_s,
        peaks,
        runs,
    }
}

/// Folds every point run into the outcome: failures, and the digest
/// oracle (each point's Report must equal its first run's).
struct Ledger {
    digests: Vec<Option<u64>>,
    labels: Vec<String>,
}

impl Ledger {
    fn absorb(&mut self, sweep: &SweepRun, out: &mut Outcome) {
        for (i, run) in sweep.runs.iter().enumerate() {
            out.attempted += 1;
            if let Err(e) = &run.verdict {
                out.fail(format!("{}: {e}", self.labels[i]));
                continue;
            }
            let Some(report) = &run.report else { continue };
            let d = oracle::report_digest(report);
            match self.digests[i] {
                None => self.digests[i] = Some(d),
                Some(first) if first != d => {
                    out.fail(format!("{}: Report differs between runs", self.labels[i]));
                }
                Some(_) => {}
            }
        }
    }
}

/// Run a sweep workload for about `seconds` and report its metrics:
/// end-to-end ones untraced, or per-layer ones from traced sweeps
/// alternating with untraced ones (their wall difference is the tracing
/// overhead).
pub fn run<D>(w: &Workload<D>, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(traced);

    let mut setup = Vec::new();
    let mut gens = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (d, g) = (w.build)(seed);
        let t1 = Instant::now();
        tracer.record(0, None, "setup", "build inputs", t0, t1, vec![]);
        setup.push(t1.duration_since(t0).as_secs_f64());
        gens.push(g);
        data = Some(d);
    }
    let data = data.expect("at least one setup repetition");
    let points = (w.points)(&data);
    let mut ledger = Ledger {
        digests: vec![None; points.len()],
        labels: points.iter().map(|p| p.label.clone()).collect(),
    };

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut sweeps: Vec<SweepRun> = Vec::new();
    let mut traced_sweeps: Vec<SweepRun> = Vec::new();
    let quiet = Tracer::new(false);
    while sweeps.len() < MIN_SWEEPS || start.elapsed() < budget {
        let s = run_sweep(&points, &quiet);
        ledger.absorb(&s, &mut out);
        sweeps.push(s);
        if traced {
            let t = run_sweep(&points, &tracer);
            ledger.absorb(&t, &mut out);
            traced_sweeps.push(t);
        }
    }

    let mut slow: Vec<(f64, &str)> = sweeps[0]
        .runs
        .iter()
        .zip(&ledger.labels)
        .map(|(r, label)| (r.seconds, label.as_str()))
        .collect();
    slow.sort_unstable_by_key(|&(s, _)| std::cmp::Reverse(stats::total_key(s)));
    let mut note = String::from("slowest points of the first sweep:");
    for (s, label) in slow.iter().take(5) {
        note.push_str(&format!("\n  {:>9.2} ms  {label}", s * 1e3));
    }
    out.notes.push(note);
    out.digest = oracle::fold(ledger.digests.iter().map(|d| d.unwrap_or(0)));
    let list = |sweeps: &[SweepRun], f: fn(&SweepRun) -> f64| -> String {
        sweeps.iter().map(|s| format!(" {:.3}", f(s))).collect()
    };
    out.notes.push(format!(
        "per sweep: wall (s){}{}\n           peak RSS (MB){}",
        list(&sweeps, |s| s.wall_s),
        if traced {
            format!("; traced{}", list(&traced_sweeps, |s| s.wall_s))
        } else {
            String::new()
        },
        list(&sweeps, |s| s.peaks.rss_mb),
    ));
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    if traced {
        per_layer(&mut out, &tracer, &traced_sweeps, &walls, &gens);
        // Every point gets a fresh Gpu, yet resident memory grows from
        // sweep to sweep; a fixed stretch of sweeps keeps it in view.
        let growth = sweeps[MIN_SWEEPS - 1].peaks.rss_mb - sweeps[0].peaks.rss_mb;
        out.set("runner.rss_growth_mb", growth, MIN_SWEEPS);
    } else {
        end_to_end(&mut out, &sweeps, &setup);
    }
    out
}

fn end_to_end(out: &mut Outcome, sweeps: &[SweepRun], setup: &[f64]) {
    let med = |v: Vec<f64>| median(&v).expect("at least one sweep");
    let wall = med(sweeps.iter().map(|s| s.wall_s).collect());
    out.set("wall_s", wall.value, wall.n);
    let cpu = med(sweeps.iter().map(|s| s.cpu_s).collect());
    out.set("cpu_s", cpu.value, cpu.n);
    // Resident memory keeps growing over a run's sweeps, so only the first
    // sweep measures a fixed amount of work.
    out.set("peak_rss_mb", sweeps[0].peaks.rss_mb, 1);
    let s = med(setup.to_vec());
    out.set("setup_s", s.value, s.n);
    let modeled: Vec<f64> = sweeps[0]
        .runs
        .iter()
        .filter_map(|r| r.report.as_ref().map(|r| r.seconds * 1e6))
        .collect();
    out.set(
        "modeled_gm_us",
        stats::geo_mean(&modeled).unwrap_or(0.0),
        modeled.len(),
    );
    let good = med(sweeps
        .iter()
        .map(|s| s.runs.iter().filter(|r| r.verdict.is_ok()).count() as f64 / s.wall_s)
        .collect());
    out.set("goodput_rps", good.value, good.n);
}

/// Sums of the simulator counters over one sweep's Reports.
#[derive(Default)]
struct Counters {
    call_s: f64,
    sim_wall_s: f64,
    timing_s: f64,
    ops: f64,
    replayed: f64,
    grids: f64,
    device_launches: f64,
    warp: (f64, f64),
    block: (f64, f64),
    merged: f64,
    inlined: f64,
}

fn counters(sweep: &SweepRun) -> Counters {
    let mut c = Counters::default();
    for run in &sweep.runs {
        c.call_s += run.seconds;
        let Some(r) = &run.report else { continue };
        let s = &r.sim;
        c.sim_wall_s += s.wall_seconds;
        c.timing_s += s.timing_pass_ns as f64 * 1e-9;
        c.ops += s.ops_traced as f64;
        c.replayed += s.ops_replayed as f64;
        c.grids += (r.host_launches + r.device_launches) as f64;
        c.device_launches += r.device_launches as f64;
        c.warp.0 += s.warp_hits as f64;
        c.warp.1 += (s.warp_hits + s.warp_misses) as f64;
        c.block.0 += s.block_hits as f64;
        c.block.1 += (s.block_hits + s.block_misses) as f64;
        c.merged += s.consolidated_grids as f64;
        c.inlined += s.inlined_grids as f64;
    }
    c
}

fn per_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &[SweepRun],
    untraced_walls: &[f64],
    gens: &[GenTimes],
) {
    let workers = host::nproc().min(traced[0].runs.len()).max(1) as f64;
    // Each traced sweep's values, then their mean.
    let mut per_sweep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for sweep in traced {
        let c = counters(sweep);
        let trace_s = c.sim_wall_s - c.timing_s;
        per_sweep.push(vec![
            ("runner.busy_s", c.call_s),
            (
                "runner.idle_s",
                (workers * sweep.wall_s - c.call_s).max(0.0),
            ),
            ("runner.threads_peak", sweep.peaks.threads as f64),
            (
                "runner.cpu_util",
                stats::ratio(sweep.cpu_s, sweep.wall_s * host::nproc() as f64),
            ),
            ("apps.call_s", c.call_s),
            ("apps.self_s", c.call_s - c.sim_wall_s),
            ("sim.trace_s", trace_s),
            ("sim.ops", c.ops),
            ("sim.ns_per_op", stats::ratio(trace_s * 1e9, c.ops)),
            ("sim.grids", c.grids),
            ("sim.device_launches", c.device_launches),
            ("memo.warp_hit_ratio", stats::ratio(c.warp.0, c.warp.1)),
            ("memo.block_hit_ratio", stats::ratio(c.block.0, c.block.1)),
            ("memo.replay_ratio", stats::ratio(c.replayed, c.ops)),
            ("sched.timing_s", c.timing_s),
            ("sched.ns_per_grid", stats::ratio(c.timing_s * 1e9, c.grids)),
            ("sched.share", stats::ratio(c.timing_s, c.sim_wall_s)),
            ("consolidate.merged", c.merged),
            ("consolidate.inlined", c.inlined),
        ]);
    }
    // Means, not medians, so the additive split of apps.call_s holds.
    for (k, (name, _)) in per_sweep[0].iter().enumerate() {
        let sum: f64 = per_sweep.iter().map(|sweep| sweep[k].1).sum();
        out.set(name, sum / per_sweep.len() as f64, per_sweep.len());
    }
    let g = |f: fn(&GenTimes) -> f64| median(&gens.iter().map(f).collect::<Vec<_>>());
    if let Some(m) = g(|t| t.graph_s).filter(|m| m.value > 0.0) {
        out.set("graph.gen_s", m.value, m.n);
    }
    if let Some(m) = g(|t| t.tree_s).filter(|m| m.value > 0.0) {
        out.set("tree.gen_s", m.value, m.n);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|l| l.wall_s).collect();
    let overhead = median(&traced_walls).expect("traced").value
        - median(untraced_walls).expect("untraced").value;
    out.set("trace.overhead_s", overhead, traced_walls.len());

    let call = out.metrics["apps.call_s"].value;
    let parts = out.metrics["sim.trace_s"].value
        + out.metrics["sched.timing_s"].value
        + out.metrics["apps.self_s"].value;
    let mut table = String::from("per-layer self time (all traced sweeps):\n");
    for (layer, t) in trace::self_times(&tracer.spans()) {
        table.push_str(&format!(
            "  {layer:<8} spans {:>6}  total {:>9.3}s  self {:>9.3}s\n",
            t.spans, t.total_s, t.self_s
        ));
    }
    table.push_str(&format!(
        "  apps.call_s {call:.4} = sim.trace_s + sched.timing_s + apps.self_s {parts:.4} \
         (mean per sweep; residual {:.2e} s; tracing overhead {overhead:+.4} s)",
        call - parts
    ));
    out.notes.push(table);
    out.chrome_trace = Some(tracer.to_chrome_trace());
}
