//! `serve-open`: one generator thread drives npar-serve in an open loop.
//!
//! Requests arrive on a seeded Poisson schedule at two fixed offered rates,
//! phase `lo` then phase `hi`, whatever the service does with them. The
//! mix follows `loadtest`: its six catalog kernels in the proportions of
//! its request list, and a repeat share taken from its replay factor.
//! Repeats draw from the 27 keys of that list and are answered from the
//! result cache; the rest carry novel salts and simulate cold, a few of
//! them sent twice at once so the twin coalesces onto the in-flight
//! original. Between the phases the service is joined (spilling its
//! cache) and restarted warm from the spill, so phase `hi` also reads
//! restored entries. Each request's latency runs from its due time to the
//! moment a collector thread sees its response; shed, timed-out and
//! failed requests count as missing the latency limit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use npar_serve::workload::{self, Dataset};
use npar_serve::{cache, Request, Response, ServeConfig, ServeStats, Service, Source, Ticket};
use npar_sim::{ConsolidateMode, CostModel, DeviceConfig, Gpu, Report, SimStats};

use crate::host::{self, Sampler};
use crate::metrics::Outcome;
use crate::oracle;
use crate::rng::{derive, Rng};
use crate::stats::{self, median, percentile, windowed};
use crate::trace::{self, Tracer};

/// Requests per kernel of `workload::KERNELS` in `loadtest`'s request
/// list (6 regular-wave, 5 divergent, 5 dp-storm, 3 dp-consolidated,
/// 4 stream-storm, 4 monte-carlo): the mix's kernel weights, and the
/// repeat population (salts below the weight, 27 keys).
pub const WEIGHTS: [u64; 6] = [6, 5, 5, 3, 4, 4];
/// Share of requests that repeat a population key. `loadtest` asks each
/// of its keys once cold and then `DUP` = 8 more times, so 8 of 9 of its
/// requests repeat a key.
pub const REPEAT_SHARE: f64 = 8.0 / 9.0;
/// Share of novel requests sent twice at once, so the twin coalesces
/// onto the in-flight original (in-flight dedupe), which repeats of
/// cached keys never do. An assumption: `loadtest` sends 12 of its 228
/// replayed requests (5%) as in-flight triplicates.
pub const TWIN_SHARE: f64 = 0.05;
/// Novel (cache-missing) requests per second that one shard completes
/// in a closed loop on the reference host (2-vCPU Xeon VM; rerun with
/// `cargo test --release -- --ignored shard_capacity`).
pub const SHARD_CAPACITY: f64 = 750.0;
/// Offered rates of the two phases, requests per second: the novel share
/// of each loads one shard to 20% (`lo`) and 50% (`hi`) of
/// [`SHARD_CAPACITY`], i.e. 1350 and 3375 requests/s. Fixed, not scaled
/// to the host a run lands on; 50% leaves room for a host twice as slow
/// before the queue runs away and requests shed.
pub const RATE_LO: f64 = 0.2 * SHARD_CAPACITY / (1.0 - REPEAT_SHARE);
pub const RATE_HI: f64 = 0.5 * SHARD_CAPACITY / (1.0 - REPEAT_SHARE);
/// Requests in phase `lo`, whatever `--seconds` says: its novel keys make
/// the spill the warm restart reads, so the spill's size is fixed too.
/// At least 1000, so 10 samples lie beyond its p99.
pub const LO_REQUESTS: usize = 2000;
/// Latency limit for `goodput_rps`, from the due time: three to four
/// times the median fresh-request latency of phase `lo` (2.5-3.2 ms) on
/// the reference host.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Requests per latency window: a phase's `serve.p50_ms.*` and
/// `serve.p90_ms.*` are medians over its consecutive windows (see
/// `stats::windowed`). 200 leaves 20 samples beyond each window's p90.
const WINDOW: usize = 200;
/// Requests per `goodput_rps` window: about 0.75 s of phase `hi`.
pub const GOODPUT_WINDOW: usize = 2500;
/// Requests in phase `hi` at least: three goodput windows.
pub const HI_MIN_REQUESTS: usize = 3 * GOODPUT_WINDOW;
/// Threads waiting on tickets, so a slow response never delays seeing a
/// fast one behind it: more than the fresh requests ever seen in the
/// service at once (26 at the p99 of phase `hi` on a slowed host).
const COLLECTORS: usize = 64;
/// Service set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Keys re-simulated directly to check the served Reports.
const DIRECT_CHECKS_PER_KERNEL: usize = 2;

/// The catalog request for kernel `k` with dataset salt `salt`: the
/// shapes of `loadtest`'s request list, each a few milliseconds of
/// simulation. The salt also spreads the grid over half to one and a half
/// times the kernel's base size, so latencies form a continuous
/// distribution rather than six spikes that a percentile could jump
/// between.
pub fn request(k: usize, salt: u64) -> Request {
    let kernel = workload::KERNELS[k];
    let shape = |n: u64, grid: u32, block: u32, launches: u32, streams: u32| Dataset {
        n,
        grid: grid / 2 + (salt % u64::from(grid + 1)) as u32,
        block,
        launches,
        streams,
        salt,
    };
    let mut device = DeviceConfig::kepler_k20();
    let dataset = match kernel {
        "regular-wave" => shape(1 << 14, 24, 128, 4, 1),
        "divergent" => shape(1 << 14, 16, 128, 2, 1),
        "dp-storm" => shape(1 << 12, 8, 64, 2, 1),
        "dp-consolidated" => {
            device.consolidate = ConsolidateMode::Auto;
            shape(1 << 12, 2, 64, 2, 1)
        }
        "stream-storm" => shape(1 << 12, 8, 64, 6, 4),
        _ => shape(1 << 13, 16, 128, 2, 1),
    };
    Request {
        kernel: kernel.to_string(),
        device,
        dataset,
    }
}

/// A kernel drawn by [`WEIGHTS`].
fn kernel(rng: &mut Rng) -> usize {
    let mut u = rng.below(WEIGHTS.iter().sum());
    for (k, &w) in WEIGHTS.iter().enumerate() {
        if u < w {
            return k;
        }
        u -= w;
    }
    unreachable!("draw below the weight total")
}

pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    /// Due offsets from the phase start, with the kernel and salt of the
    /// request due then. The request itself is built when it is sent, so
    /// a long schedule stays a few megabytes.
    pub items: Vec<(Duration, usize, u64)>,
}

/// Both phases' schedules: phase `lo` holds [`LO_REQUESTS`], phase `hi`
/// offers load for the rest of `seconds` and holds at least
/// [`HI_MIN_REQUESTS`]. (The warm restart between the phases is not part of
/// `seconds`.)
pub fn schedule(seed: u64, seconds: f64) -> [Phase; 2] {
    let mut rng = Rng::new(derive(seed, 40));
    // Novel salts lie above every population salt and differ per seed.
    let mut novel = (derive(seed, 41) | (1 << 63)) & !0xffff_ffff;
    let mut phase = |name: &'static str, rate: f64, n: usize| {
        let mut t = 0.0;
        let mut items = Vec::with_capacity(n);
        while items.len() < n {
            t += -(1.0 - rng.unit()).ln() / rate;
            let due = Duration::from_secs_f64(t);
            let k = kernel(&mut rng);
            if rng.unit() < REPEAT_SHARE {
                items.push((due, k, rng.below(WEIGHTS[k])));
                continue;
            }
            novel += 1;
            if rng.unit() < TWIN_SHARE && items.len() + 1 < n {
                items.push((due, k, novel));
            }
            items.push((due, k, novel));
        }
        Phase { name, rate, items }
    };
    let hi_seconds = seconds - LO_REQUESTS as f64 / RATE_LO;
    let hi = HI_MIN_REQUESTS.max((RATE_HI * hi_seconds) as usize);
    [phase("lo", RATE_LO, LO_REQUESTS), phase("hi", RATE_HI, hi)]
}

struct Answer {
    idx: usize,
    key: u64,
    /// Due time, seconds from the phase start.
    due_s: f64,
    latency_ms: f64,
    outcome: Result<(Source, Arc<Report>), String>,
}

struct PhaseRun {
    name: &'static str,
    seconds: f64,
    answers: Vec<Answer>,
    submit_us: Vec<f64>,
    lag_ms: Vec<f64>,
}

fn drive_phase(svc: &Service, phase: &Phase, tracer: &Tracer) -> PhaseRun {
    let span = tracer.id();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let rx = Mutex::new(rx);
    let answers = Mutex::new(Vec::with_capacity(phase.items.len()));
    let mut submit_us = Vec::with_capacity(phase.items.len());
    let mut lag_ms = Vec::with_capacity(phase.items.len());
    let start = Instant::now();
    thread::scope(|s| {
        for _ in 0..COLLECTORS {
            s.spawn(|| loop {
                let next = rx.lock().expect("collector queue").recv();
                let Ok((idx, due, ticket)) = next else { break };
                let key = ticket.key;
                let response = ticket.wait();
                let done = Instant::now();
                let latency_ms = done.duration_since(due).as_secs_f64() * 1e3;
                let outcome = match response {
                    Response::Done { source, report } => Ok((source, report)),
                    Response::TimedOut => Err("timed out".to_string()),
                    Response::Failed(e) => Err(format!("failed: {e}")),
                };
                tracer.record(
                    0,
                    Some(span),
                    "serve",
                    "request",
                    due,
                    done,
                    vec![("req", idx as f64)],
                );
                answers.lock().expect("answers").push(Answer {
                    idx,
                    key,
                    due_s: due.duration_since(start).as_secs_f64(),
                    latency_ms,
                    outcome,
                });
            });
        }
        for (idx, &(offset, k, salt)) in phase.items.iter().enumerate() {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let req = request(k, salt);
            let t0 = Instant::now();
            let submitted = svc.submit(&req);
            let t1 = Instant::now();
            lag_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            submit_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
            tracer.record(
                0,
                Some(span),
                "gen",
                "submit",
                t0,
                t1,
                vec![("req", idx as f64)],
            );
            match submitted {
                Ok(ticket) => tx.send((idx, due, ticket)).expect("collectors alive"),
                Err(e) => answers.lock().expect("answers").push(Answer {
                    idx,
                    key: npar_serve::request_key(&req),
                    due_s: offset.as_secs_f64(),
                    latency_ms: f64::INFINITY,
                    outcome: Err(format!("submit: {e}")),
                }),
            }
        }
        drop(tx);
    });
    let end = Instant::now();
    tracer.record(
        span,
        None,
        "gen",
        format!("phase {}", phase.name),
        start,
        end,
        vec![("rate", phase.rate)],
    );
    let mut answers = answers.into_inner().expect("answers");
    answers.sort_by_key(|a| a.idx);
    PhaseRun {
        name: phase.name,
        seconds: end.duration_since(start).as_secs_f64(),
        answers,
        submit_us,
        lag_ms,
    }
}

/// Library defaults, except one shard fewer than cores (at least one):
/// the generator and collectors get a core of their own, as clients on
/// other hosts would, so their scheduling does not leak into latency.
fn config(dir: &Path, cold: bool) -> ServeConfig {
    ServeConfig {
        shards: host::nproc().saturating_sub(1).max(1),
        cache_dir: Some(dir.to_path_buf()),
        cold,
        ..ServeConfig::default()
    }
}

struct Session {
    /// Both phases, the spill and the final join; the warm restart is
    /// left to `restore_s`.
    wall_s: f64,
    /// CPU of the same stretches.
    cpu_s: f64,
    phases: [PhaseRun; 2],
    stats: [ServeStats; 2],
    spill_s: f64,
    restore_s: f64,
    spill_mb: f64,
    threads_peak: usize,
}

/// Phase `lo` on the cold service, join (spill), warm restart, phase `hi`.
fn session(cold: Service, phases: &[Phase; 2], dir: &Path, tracer: &Tracer) -> Session {
    let sampler = Sampler::start();
    let t0 = Instant::now();
    let c0 = host::cpu_seconds();
    let lo = drive_phase(&cold, &phases[0], tracer);
    let j0 = Instant::now();
    let stats_lo = cold.join();
    let j1 = Instant::now();
    let c1 = host::cpu_seconds();
    tracer.record(0, None, "serve", "join + spill", j0, j1, vec![]);
    let spill_mb = std::fs::metadata(dir.join(cache::SPILL_FILE))
        .map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0));
    let warm = Service::start(config(dir, false));
    let j2 = Instant::now();
    let c2 = host::cpu_seconds();
    tracer.record(0, None, "serve", "warm start", j1, j2, vec![]);
    let hi = drive_phase(&warm, &phases[1], tracer);
    let stats_hi = warm.join();
    let end = Instant::now();
    let c3 = host::cpu_seconds();
    Session {
        wall_s: (j1.duration_since(t0) + end.duration_since(j2)).as_secs_f64(),
        cpu_s: (c1 - c0) + (c3 - c2),
        phases: [lo, hi],
        stats: [stats_lo, stats_hi],
        spill_s: j1.duration_since(j0).as_secs_f64(),
        restore_s: j2.duration_since(j1).as_secs_f64(),
        spill_mb,
        threads_peak: sampler.stop().threads,
    }
}

/// Removes the run's cache directory however the run ends.
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, results: &Path) -> Outcome {
    let mut out = Outcome::default();
    let dir = CacheDir(results.join(format!("serve-cache-{}", std::process::id())));
    let _ = std::fs::create_dir_all(&dir.0);
    let tracer = Tracer::new(traced);
    let quiet = Tracer::new(false);

    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let phases = schedule(seed, seconds as f64);
        let svc = Service::start(config(&dir.0, true));
        setup.push(t0.elapsed().as_secs_f64());
        if let Some((_, previous)) = ready.replace((phases, svc)) {
            previous.join();
        }
    }
    let (phases, svc) = ready.expect("at least one set-up");

    // A traced run first offers phase lo, untraced, to another cold
    // service: the traced session's phase lo against it is the tracing
    // overhead.
    let untraced_lo = traced.then(|| {
        let other = Service::start(config(&dir.0, true));
        let lo = drive_phase(&other, &phases[0], &quiet);
        other.join();
        lo
    });
    let s = session(svc, &phases, &dir.0, &tracer);
    let mut runs = vec![&s.phases[0], &s.phases[1]];
    runs.extend(&untraced_lo);
    verify(&mut out, &phases, &runs);

    if let Some(lo) = &untraced_lo {
        per_layer(&mut out, &tracer, &s, lo);
    } else {
        let m = median(&setup).expect("set-up ran");
        out.set("setup_s", m.value, m.n);
        end_to_end(&mut out, &s);
    }
    out
}

/// Latencies in due order; a request that failed never arrived.
fn latencies(run: &PhaseRun) -> Vec<f64> {
    run.answers
        .iter()
        .map(|a| {
            if a.outcome.is_ok() {
                a.latency_ms
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn end_to_end(out: &mut Outcome, s: &Session) {
    out.set("wall_s", s.wall_s, 1);
    out.set("cpu_s", s.cpu_s, 1);
    out.set("peak_rss_mb", host::peak_rss_mb(), 1);
    let modeled: Vec<f64> = s
        .phases
        .iter()
        .flat_map(|p| &p.answers)
        .filter_map(|a| a.outcome.as_ref().ok().map(|(_, r)| r.seconds * 1e6))
        .collect();
    out.set(
        "modeled_gm_us",
        stats::geo_mean(&modeled).unwrap_or(0.0),
        modeled.len(),
    );
    // Each window's requests within the limit over the window's span of
    // due times; the median over windows, so a host stall that slows a
    // few windows does not move it.
    let per_window: Vec<f64> = s.phases[1]
        .answers
        .chunks_exact(GOODPUT_WINDOW)
        .map(|w| {
            let good = w
                .iter()
                .filter(|a| a.outcome.is_ok() && a.latency_ms <= LATENCY_LIMIT_MS)
                .count();
            good as f64 / (w[w.len() - 1].due_s - w[0].due_s)
        })
        .collect();
    let m = median(&per_window).expect("phase hi holds a window");
    out.set("goodput_rps", m.value, m.n * GOODPUT_WINDOW);
}

fn per_layer(out: &mut Outcome, tracer: &Tracer, s: &Session, untraced_lo: &PhaseRun) {
    let all = || s.phases.iter().flat_map(|p| &p.answers);
    let pct = |out: &mut Outcome, name: &'static str, v: &[f64], per_mille: u32| {
        match percentile(v, per_mille) {
            Ok(p) => out.set(name, p.value, p.n),
            // Too few samples to report; 0 with the count it had.
            Err(r) => out.set(name, 0.0, r.n),
        }
    };
    let submit: Vec<f64> = s.phases.iter().flat_map(|p| p.submit_us.clone()).collect();
    pct(out, "serve.submit_us.p50", &submit, 500);
    pct(out, "serve.submit_us.p99", &submit, 990);
    let by_source = |src: Source| -> Vec<f64> {
        all()
            .filter(|a| matches!(a.outcome, Ok((s, _)) if s == src))
            .map(|a| a.latency_ms)
            .collect()
    };
    pct(out, "serve.cache_ms.p50", &by_source(Source::Cache), 500);
    pct(out, "serve.dedup_ms.p50", &by_source(Source::Dedup), 500);
    let fresh = by_source(Source::Fresh);
    pct(out, "serve.fresh_ms.p50", &fresh, 500);
    pct(out, "serve.fresh_ms.p99", &fresh, 990);
    let backlog = [backlog(&s.phases[0]), backlog(&s.phases[1])];
    pct(out, "serve.backlog_p99.hi", &backlog[1], 990);
    for (phase, names) in [
        (0, ["serve.p50_ms.lo", "serve.p90_ms.lo", "serve.p99_ms.lo"]),
        (1, ["serve.p50_ms.hi", "serve.p90_ms.hi", "serve.p99_ms.hi"]),
    ] {
        let lat = latencies(&s.phases[phase]);
        for (name, per_mille) in names[..2].iter().zip([500, 900]) {
            match windowed(&lat, WINDOW, per_mille) {
                Ok(p) => out.set(name, p.value, p.n),
                Err(r) => out.set(name, 0.0, r.n),
            }
        }
        pct(out, names[2], &lat, 990);
    }
    let mut stats = s.stats[0];
    stats.merge(&s.stats[1]);
    let answered = stats.answered() as f64;
    let n = stats.answered() as usize;
    out.set(
        "serve.hit_ratio",
        stats::ratio(stats.cache_hit as f64, answered),
        n,
    );
    out.set(
        "serve.dedup_ratio",
        stats::ratio(stats.deduped as f64, answered),
        n,
    );
    out.set("serve.shed", stats.shed as f64, n);
    out.set("serve.timeout", stats.timeout as f64, n);
    out.set("serve.failed", stats.failed as f64, n);
    out.set("serve.spill_s", s.spill_s, 1);
    out.set("serve.restore_s", s.restore_s, 1);
    out.set("serve.spill_mb", s.spill_mb, 1);
    let lag: Vec<f64> = s.phases.iter().flat_map(|p| p.lag_ms.clone()).collect();
    pct(out, "gen.lag_p99_ms", &lag, 990);
    out.set("runner.threads_peak", s.threads_peak as f64, 1);
    out.set(
        "runner.cpu_util",
        stats::ratio(s.cpu_s, s.wall_s * host::nproc() as f64),
        1,
    );
    let overhead = s.phases[0].seconds - untraced_lo.seconds;
    out.set("trace.overhead_s", overhead, 1);

    let mut table = String::new();
    for ((phase, st), backlog) in s.phases.iter().zip(&s.stats).zip(&backlog) {
        let offered = phase.answers.len() as f64 / phase.seconds;
        let b = |per_mille| {
            percentile(backlog, per_mille).map_or("-".to_string(), |p| p.value.to_string())
        };
        table.push_str(&format!(
            "phase {:<2} {:>6} requests in {:>6.2} s ({offered:>4.0}/s): fresh {}, cache {}, \
             dedup {}, shed {}, timeout {}, failed {}; backlog p50 {} p90 {} p99 {}\n",
            phase.name,
            phase.answers.len(),
            phase.seconds,
            st.served,
            st.cache_hit,
            st.deduped,
            st.shed,
            st.timeout,
            st.failed,
            b(500),
            b(900),
            b(990)
        ));
    }
    table.push_str("per-layer self time (traced session):\n");
    for (layer, t) in trace::self_times(&tracer.spans()) {
        table.push_str(&format!(
            "  {layer:<8} spans {:>6}  total {:>9.3}s  self {:>9.3}s\n",
            t.spans, t.total_s, t.self_s
        ));
    }
    table.push_str(&format!(
        "  phase lo {:.3} s traced vs {:.3} s untraced (tracing overhead {overhead:+.3} s)",
        s.phases[0].seconds, untraced_lo.seconds
    ));
    out.notes.push(table);
    out.chrome_trace = Some(tracer.to_chrome_trace());
}

/// For each fresh request of a phase, the fresh requests already in the
/// service when it arrived (queued or simulating): the queue it joins.
fn backlog(run: &PhaseRun) -> Vec<f64> {
    // (time, +1 arrival / -1 departure); a departure at the same instant
    // as an arrival goes first.
    let mut events: Vec<(f64, i32)> = run
        .answers
        .iter()
        .filter(|a| matches!(a.outcome, Ok((Source::Fresh, _))))
        .flat_map(|a| [(a.due_s, 1), (a.due_s + a.latency_ms * 1e-3, -1)])
        .collect();
    events.sort_unstable_by_key(|&(t, d)| (stats::total_key(t), d));
    let mut inside = 0;
    let mut seen = Vec::new();
    for (_, d) in events {
        if d > 0 {
            seen.push(f64::from(inside));
        }
        inside += d;
    }
    seen
}

/// Every `Done` must be byte-identical to the first answer for its key,
/// and a sample of keys must equal a direct `workload::drive` run.
fn verify(out: &mut Outcome, phases: &[Phase; 2], runs: &[&PhaseRun]) {
    // The first answer for each key, and its bytes.
    let mut first: BTreeMap<u64, (Arc<Report>, String)> = BTreeMap::new();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    for run in runs {
        for a in &run.answers {
            out.attempted += 1;
            let report = match &a.outcome {
                Ok((_, report)) => report,
                Err(e) => {
                    out.fail(format!("{} request {}: {e}", run.name, a.idx));
                    continue;
                }
            };
            match first.get(&a.key) {
                None => {
                    digests.insert(a.key, oracle::report_digest(report));
                    let text = serde_json::to_string(&**report).expect("Report renders");
                    first.insert(a.key, (Arc::clone(report), text));
                }
                // The same shared Report is the same bytes.
                Some((r, _)) if Arc::ptr_eq(r, report) => {}
                Some((_, t)) if *t != serde_json::to_string(&**report).expect("renders") => out
                    .fail(format!(
                        "{} request {}: Report differs from the first answer for its key",
                        run.name, a.idx
                    )),
                Some(_) => {}
            }
        }
    }
    out.digest = oracle::fold(digests.values().copied());

    let mut per_kernel: BTreeMap<usize, usize> = BTreeMap::new();
    for &(_, k, salt) in phases.iter().flat_map(|p| &p.items) {
        let key = npar_serve::request_key(&request(k, salt));
        let Some((_, served)) = first.get(&key) else {
            continue;
        };
        let seen = per_kernel.entry(k).or_default();
        if *seen >= DIRECT_CHECKS_PER_KERNEL {
            continue;
        }
        *seen += 1;
        let req = &request(k, salt);
        let mut gpu = Gpu::new(req.device.clone(), CostModel::default()).with_threads(1);
        let direct = match workload::drive(&mut gpu, req, None) {
            Ok(workload::Drive::Completed) => {
                let mut r = gpu.synchronize();
                r.sim = SimStats::default();
                serde_json::to_string(&r).expect("Report renders")
            }
            other => format!("{other:?}"),
        };
        if direct != *served {
            out.fail(format!(
                "{} salt {}: served Report differs from a direct simulation",
                req.kernel, req.dataset.salt
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let render = |p: &[Phase; 2]| -> Vec<(u128, u64)> {
            p.iter()
                .flat_map(|ph| &ph.items)
                .map(|&(t, k, salt)| (t.as_nanos(), npar_serve::request_key(&request(k, salt))))
                .collect()
        };
        let a = render(&schedule(1, 4.0));
        assert_eq!(a, render(&schedule(1, 4.0)));
        assert_ne!(a, render(&schedule(2, 4.0)));
    }

    #[test]
    fn schedules_hold_the_mix_and_the_minimum() {
        let [lo, hi] = schedule(3, 1.0);
        assert_eq!(
            (lo.items.len(), hi.items.len()),
            (LO_REQUESTS, HI_MIN_REQUESTS)
        );
        let [_, long] = schedule(3, 4.0);
        let expect = RATE_HI * (4.0 - LO_REQUESTS as f64 / RATE_LO);
        assert!((long.items.len() as f64 / expect - 1.0).abs() < 0.01);
        for phase in [&lo, &long] {
            let share = |k: usize| {
                phase
                    .items
                    .iter()
                    .filter(|&&(_, kernel, _)| kernel == k)
                    .count() as f64
                    / phase.items.len() as f64
            };
            let total: u64 = WEIGHTS.iter().sum();
            for (k, &w) in WEIGHTS.iter().enumerate() {
                let want = w as f64 / total as f64;
                assert!((share(k) - want).abs() < 0.03, "kernel {k}: {}", share(k));
            }
            let repeats = phase.items.iter().filter(|&&(_, _, salt)| salt < 8).count() as f64
                / phase.items.len() as f64;
            assert!(
                (repeats - REPEAT_SHARE).abs() < 0.03,
                "repeat share {repeats}"
            );
            for &(_, k, salt) in &phase.items {
                workload::validate(&request(k, salt)).expect("catalog request is valid");
            }
            // Mean inter-arrival within 10% of the offered rate.
            let span = phase.items.last().expect("items").0.as_secs_f64();
            let rate = phase.items.len() as f64 / span;
            assert!((rate / phase.rate - 1.0).abs() < 0.1, "rate {rate}");
        }
        let twins = long
            .items
            .windows(2)
            .filter(|w| w[0] == w[1] && w[0].2 >> 63 == 1)
            .count();
        assert!(twins > 10, "{twins} twins");
    }

    /// Measures [`SHARD_CAPACITY`]: one shard, novel requests of the mix
    /// submitted one after another, each awaited before the next.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn shard_capacity() {
        let svc = Service::start(ServeConfig {
            shards: 1,
            cache_dir: None,
            ..ServeConfig::default()
        });
        let mut rng = Rng::new(7);
        let n = 3000;
        let t0 = Instant::now();
        for i in 0..n {
            let ticket = svc
                .submit(&request(kernel(&mut rng), (1 << 63) + i))
                .expect("admitted");
            assert!(matches!(ticket.wait(), Response::Done { .. }));
        }
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        svc.join();
        eprintln!("one shard completes {rate:.0} novel requests/s");
    }
}
