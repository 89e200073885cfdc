//! Execution helpers for the experiment binaries.
//!
//! Every experiment binary shares one command-line surface, parsed once by
//! [`parse`] and cached: `--check[=warn|strict]`, `--no-memo`,
//! `--fast-forward=on|off`, `--threads N`, `--timing-threads N`,
//! `--analytic[=off]`, `--consolidate[=off|warp|block|grid|auto]`,
//! `--profile[=<path>]`,
//! `--analyze`, `--no-elide`, `--update-baseline` (acted on by the gated
//! benchmarks only, accepted everywhere for uniformity), and the serving
//! flags `--shards N`, `--queue N`, `--job-timeout-ms N`,
//! `--cache-dir PATH`, `--cold` (acted on by `npar-serve`/`loadtest` — see
//! SERVING.md). Unknown or malformed flags print a usage message to stderr
//! and exit nonzero — silently ignoring a typo like `--threads=abc` or
//! `--check=bogus` would run the wrong experiment.
//!
//! [`KNOWN_FLAGS`] enumerates the full surface; the `docs_check` binary
//! holds README.md's flags table to it, so a flag added here without a
//! documented row fails CI.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread;

use npar_sim::{CheckLevel, ConsolidateMode, Gpu};

/// Parsed command-line flags shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--check[=warn|strict]`.
    pub check: CheckLevel,
    /// Inverted `--no-memo`.
    pub memo: bool,
    /// `--fast-forward=on|off` (default on).
    pub fast_forward: bool,
    /// `--threads N` / `--threads=N`.
    pub threads: Option<usize>,
    /// `--timing-threads N` / `--timing-threads=N`: timing-pass worker
    /// lanes (DESIGN.md §13); results are bit-identical at any setting.
    pub timing_threads: Option<usize>,
    /// `--analytic[=on|off]` (default off): closed-form timing for
    /// uniform-wave grids when the analytic proof obligations hold.
    pub analytic: bool,
    /// `--consolidate[=off|warp|block|grid|auto]` (default off; bare
    /// `--consolidate` selects `auto`): the dynamic-parallelism
    /// workload-consolidation pass (DESIGN.md §15).
    pub consolidate: ConsolidateMode,
    /// `--profile[=<path>]`: `Some(None)` for the default per-run path,
    /// `Some(Some(path))` for an explicit one.
    pub profile: Option<Option<String>>,
    /// `--analyze`: collect and print npar-analyze kernel verdicts and
    /// template advice after the runs.
    pub analyze: bool,
    /// Inverted `--no-elide`: whether npar-check may skip scans for
    /// statically proven-clean kernels (on by default; reports are
    /// identical either way).
    pub elide: bool,
    /// `--update-baseline` (simbench, loadtest, analyze_all).
    pub update_baseline: bool,
    /// `--shards N`: serve worker shards (npar-serve / loadtest).
    pub shards: Option<usize>,
    /// `--queue N`: per-shard admission queue capacity (npar-serve /
    /// loadtest).
    pub queue: Option<usize>,
    /// `--job-timeout-ms N`: cooperative per-job timeout in milliseconds;
    /// `0` disables timeouts (npar-serve / loadtest).
    pub job_timeout_ms: Option<u64>,
    /// `--cache-dir PATH`: persistent serve-cache directory (npar-serve /
    /// loadtest).
    pub cache_dir: Option<String>,
    /// `--cold`: ignore an existing serve spill at boot (still spills on
    /// shutdown).
    pub cold: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            check: CheckLevel::Off,
            memo: true,
            fast_forward: true,
            threads: None,
            timing_threads: None,
            analytic: false,
            consolidate: ConsolidateMode::Off,
            profile: None,
            analyze: false,
            elide: true,
            update_baseline: false,
            shards: None,
            queue: None,
            job_timeout_ms: None,
            cache_dir: None,
            cold: false,
        }
    }
}

/// Every flag the shared parser accepts, by leading name. The `docs_check`
/// binary asserts each appears in README.md's flags table — extending
/// [`parse`] without extending the docs fails CI with the flag named.
pub const KNOWN_FLAGS: &[&str] = &[
    "--check",
    "--no-memo",
    "--fast-forward",
    "--threads",
    "--timing-threads",
    "--analytic",
    "--consolidate",
    "--profile",
    "--analyze",
    "--no-elide",
    "--update-baseline",
    "--shards",
    "--queue",
    "--job-timeout-ms",
    "--cache-dir",
    "--cold",
];

/// One-line-per-flag usage text, printed to stderr on a parse error.
pub const USAGE: &str = "\
usage: <experiment> [flags]
  --check[=warn|strict]   record hazards (warn) or abort on them (strict)
  --no-memo               disable alignment memoization (differential runs)
  --fast-forward=on|off   toggle the timing-pass fast paths (default on)
  --threads N             host lanes per simulator (default 1; DESIGN.md \u{a7}10)
  --timing-threads N      timing-pass worker lanes (default 1; DESIGN.md \u{a7}13)
  --analytic[=on|off]     closed-form timing for uniform-wave grids (default off)
  --consolidate[=off|warp|block|grid|auto]  DP workload consolidation (bare = auto)
  --profile[=<path>]      export npar-prof Chrome traces (see PROFILING.md)
  --analyze               print npar-analyze verdicts and template advice
  --no-elide              disable proof-carrying scan elision (differential)
  --update-baseline       rewrite the stored baseline (gated benchmarks)
  --shards N              serve worker shards (npar-serve/loadtest; SERVING.md)
  --queue N               per-shard admission queue capacity (npar-serve/loadtest)
  --job-timeout-ms N      per-job cooperative timeout, 0 disables (npar-serve/loadtest)
  --cache-dir PATH        persistent serve-cache directory (npar-serve/loadtest)
  --cold                  ignore an existing serve spill at boot (npar-serve/loadtest)";

/// Parse an argument list (without the binary name). Pure so the error
/// paths are unit-testable; [`parsed`] wraps it with the
/// print-usage-and-exit policy.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" | "--check=warn" => out.check = CheckLevel::Warn,
            "--check=strict" => out.check = CheckLevel::Strict,
            "--no-memo" => out.memo = false,
            "--fast-forward=on" => out.fast_forward = true,
            "--fast-forward=off" => out.fast_forward = false,
            "--profile" => out.profile = Some(None),
            "--analytic" | "--analytic=on" => out.analytic = true,
            "--analytic=off" => out.analytic = false,
            "--consolidate" => out.consolidate = ConsolidateMode::Auto,
            "--analyze" => out.analyze = true,
            "--no-elide" => out.elide = false,
            "--update-baseline" => out.update_baseline = true,
            "--cold" => out.cold = true,
            _ => {
                if let Some(path) = arg.strip_prefix("--profile=") {
                    if path.is_empty() {
                        return Err("empty --profile= path".into());
                    }
                    out.profile = Some(Some(path.to_string()));
                } else if arg == "--threads" || arg.starts_with("--threads=") {
                    let value = match arg.strip_prefix("--threads=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --threads".to_string())?,
                    };
                    match value.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => out.threads = Some(n),
                        _ => return Err(format!("invalid --threads value {value:?}")),
                    }
                } else if arg == "--timing-threads" || arg.starts_with("--timing-threads=") {
                    let value = match arg.strip_prefix("--timing-threads=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --timing-threads".to_string())?,
                    };
                    match value.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => out.timing_threads = Some(n),
                        _ => return Err(format!("invalid --timing-threads value {value:?}")),
                    }
                } else if arg == "--shards" || arg.starts_with("--shards=") {
                    let value = match arg.strip_prefix("--shards=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --shards".to_string())?,
                    };
                    match value.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => out.shards = Some(n),
                        _ => return Err(format!("invalid --shards value {value:?}")),
                    }
                } else if arg == "--queue" || arg.starts_with("--queue=") {
                    let value = match arg.strip_prefix("--queue=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --queue".to_string())?,
                    };
                    match value.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => out.queue = Some(n),
                        _ => return Err(format!("invalid --queue value {value:?}")),
                    }
                } else if arg == "--job-timeout-ms" || arg.starts_with("--job-timeout-ms=") {
                    let value = match arg.strip_prefix("--job-timeout-ms=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --job-timeout-ms".to_string())?,
                    };
                    match value.trim().parse::<u64>() {
                        // 0 is legal: it means "no timeout".
                        Ok(n) => out.job_timeout_ms = Some(n),
                        _ => return Err(format!("invalid --job-timeout-ms value {value:?}")),
                    }
                } else if arg == "--cache-dir" || arg.starts_with("--cache-dir=") {
                    let value = match arg.strip_prefix("--cache-dir=") {
                        Some(v) => v.to_string(),
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| "missing value for --cache-dir".to_string())?,
                    };
                    if value.is_empty() {
                        return Err("empty --cache-dir path".into());
                    }
                    out.cache_dir = Some(value);
                } else if let Some(v) = arg.strip_prefix("--consolidate=") {
                    match ConsolidateMode::from_flag(v) {
                        Some(mode) => out.consolidate = mode,
                        None => return Err(format!("invalid --consolidate mode {v:?}")),
                    }
                } else if let Some(v) = arg.strip_prefix("--analytic=") {
                    return Err(format!("invalid --analytic value {v:?}"));
                } else if let Some(v) = arg.strip_prefix("--check=") {
                    return Err(format!("invalid --check level {v:?}"));
                } else if let Some(v) = arg.strip_prefix("--fast-forward=") {
                    return Err(format!("invalid --fast-forward value {v:?}"));
                } else {
                    return Err(format!("unknown flag {arg:?}"));
                }
            }
        }
    }
    Ok(out)
}

/// The process's parsed flags. On the first call a malformed command line
/// prints the error and [`USAGE`] to stderr and exits with status 2.
pub fn parsed() -> &'static Args {
    static ARGS: OnceLock<Args> = OnceLock::new();
    ARGS.get_or_init(|| {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match parse(&argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    })
}

/// Validate the command line up front. Experiment binaries call this first
/// in `main` so a typo'd flag is rejected before datasets are generated or
/// simulations start — the lazy accessors would catch it anyway, but only
/// at the first simulator construction, possibly seconds in.
pub fn init() {
    let _ = parsed();
}

/// Hazard-checker severity requested on the command line (`--check` /
/// `--check=warn` records hazards while the runs continue, `--check=strict`
/// aborts an experiment on the first detected hazard).
pub fn check_level() -> CheckLevel {
    parsed().check
}

/// Whether alignment memoization stays enabled (`--no-memo` forces the
/// unmemoized simulator, for differential testing and for measuring the
/// cache itself); results are bit-identical either way.
pub fn memo_enabled() -> bool {
    parsed().memo
}

/// Whether the timing-pass fast paths stay enabled (`--fast-forward=off`
/// isolates the DESIGN.md §11 scheduler mechanisms in ablation runs);
/// results are bit-identical either way.
pub fn fast_forward_enabled() -> bool {
    parsed().fast_forward
}

/// Host lanes per simulator, from `--threads N` / `--threads=N`; without
/// the flag each simulator keeps the engine default of one lane, because
/// the binaries already run independent simulations in parallel
/// ([`parallel_map`]). Above 1 a simulator aligns warps on the chunked
/// executor (see `npar_sim::Gpu::with_threads`). Reports are bit-identical
/// at any thread count — the flag only changes host wall time.
pub fn thread_count() -> Option<usize> {
    parsed().threads
}

/// Timing-pass worker lanes, from `--timing-threads N` /
/// `--timing-threads=N`; without the flag the simulator default (1,
/// serial event loop) applies. Reports and profiler timelines are
/// bit-identical at any setting (see `npar_sim::Gpu::with_timing_threads`
/// and DESIGN.md §13).
pub fn timing_thread_count() -> Option<usize> {
    parsed().timing_threads
}

/// Whether `--analytic` was passed: the timing pass may then finish
/// uniform-wave grids in closed form when the analytic proof obligations
/// hold; bit-identical to event replay whenever it engages.
pub fn analytic_enabled() -> bool {
    parsed().analytic
}

/// The `--consolidate[=off|warp|block|grid|auto]` mode (bare
/// `--consolidate` selects `auto`): the dynamic-parallelism
/// workload-consolidation pass applied to the recorded launch stream
/// before timing (see `npar_sim::Gpu::with_consolidation` and DESIGN.md
/// §15). Kernel memory and hazard reports are identical at any setting;
/// modeled time and launch counts move.
pub fn consolidate_mode() -> ConsolidateMode {
    parsed().consolidate
}

/// Whether `--analyze` was passed: binaries then collect npar-analyze
/// kernel verdicts during their runs and print them (with template advice)
/// via [`print_analysis`].
pub fn analyze_enabled() -> bool {
    parsed().analyze
}

/// Whether proof-carrying scan elision stays enabled (`--no-elide` forces
/// every block through the full per-block scans, for differential testing
/// and for measuring the elision itself); hazard reports are identical
/// either way.
pub fn elide_enabled() -> bool {
    parsed().elide
}

/// Whether `--update-baseline` was passed (simbench and loadtest rewrite
/// their stored baselines instead of gating against them).
pub fn update_baseline() -> bool {
    parsed().update_baseline
}

/// A serving configuration honouring the command-line flags (`--shards`,
/// `--queue`, `--job-timeout-ms`, `--cache-dir`, `--cold`). Flags left off
/// the command line keep the [`npar_serve::ServeConfig`] defaults, which in
/// turn read the `NPAR_SHARDS` / `NPAR_SERVE_CACHE` environment variables —
/// see SERVING.md for the full precedence table.
pub fn serve_config() -> npar_serve::ServeConfig {
    let args = parsed();
    let mut cfg = npar_serve::ServeConfig::default();
    if let Some(n) = args.shards {
        cfg.shards = n;
    }
    if let Some(n) = args.queue {
        cfg.queue_cap = n;
    }
    if let Some(ms) = args.job_timeout_ms {
        // 0 means "no timeout" so operators can disable the default.
        cfg.timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(dir) = &args.cache_dir {
        cfg.cache_dir = Some(PathBuf::from(dir));
    }
    cfg.cold = args.cold;
    cfg
}

/// The `--profile[=<path>]` flag: `Some("")` for the default per-run path
/// under `results/`, `Some(path)` for an explicit output file (when a
/// binary profiles several runs, each export then overwrites the previous
/// one — the last run wins).
fn profile_flag() -> Option<&'static str> {
    parsed()
        .profile
        .as_ref()
        .map(|path| path.as_deref().unwrap_or(""))
}

/// Whether `--profile[=<path>]` was passed.
pub fn profiling() -> bool {
    profile_flag().is_some()
}

/// Export the timeline recorded by `gpu` (if `--profile` is active and the
/// run produced one) as Chrome-trace JSON, and print the per-kernel summary.
/// `tag` names the default output file; it is sanitized to
/// `results/profile_<tag>.trace.json`. Load the file in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing` — see PROFILING.md.
pub fn export_profile(gpu: &mut Gpu, tag: &str) {
    let Some(explicit) = profile_flag() else {
        return;
    };
    let profile = gpu.take_profile();
    if profile.is_empty() {
        return;
    }
    let path = if explicit.is_empty() {
        let tag: String = tag
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        crate::results::results_dir().join(format!("profile_{tag}.trace.json"))
    } else {
        PathBuf::from(explicit)
    };
    std::fs::write(&path, profile.to_chrome_trace()).expect("write chrome trace");
    println!("{}", profile.summary());
    println!("  -> {}", path.display());
}

/// A K20-configured simulator honouring the command-line flags (`--check`,
/// `--no-memo`, `--fast-forward`, `--profile`, `--threads`). Experiment
/// binaries construct their simulators through this so one flag covers
/// every worker thread.
pub fn gpu() -> Gpu {
    with_check_flag(Gpu::k20())
}

/// Apply the command-line flags (`--check`, `--no-memo`, `--fast-forward`,
/// `--profile`, `--threads`) to an explicitly configured simulator (the
/// ablation and cross-device binaries build theirs from custom configs).
#[must_use]
pub fn with_check_flag(gpu: Gpu) -> Gpu {
    let gpu = gpu
        .with_check(check_level())
        .with_memo(memo_enabled())
        .with_fast_forward(fast_forward_enabled())
        .with_elide(elide_enabled())
        .with_analyze(analyze_enabled())
        .with_analytic(analytic_enabled())
        .with_consolidation(consolidate_mode())
        .with_profiler(profiling());
    let gpu = match thread_count() {
        Some(n) => gpu.with_threads(n),
        None => gpu,
    };
    match timing_thread_count() {
        Some(n) => gpu.with_timing_threads(n),
        None => gpu,
    }
}

/// Print the npar-analyze report accumulated by `gpu` (verdicts per kernel
/// class plus the template advisor's recommendation), when `--analyze` is
/// active and the run observed any kernels. `tag` names the run in the
/// section header.
pub fn print_analysis(gpu: &Gpu, tag: &str) {
    if !analyze_enabled() {
        return;
    }
    let report = gpu.analysis();
    if report.is_empty() {
        return;
    }
    println!("\nnpar-analyze [{tag}]\n{report}");
}

/// Run an experiment on a worker thread with a large stack.
///
/// The recursive GPU variants execute child grids depth-first during
/// functional simulation; on the Figure 9 graphs the first exploratory
/// dive nests tens of thousands of launches, far beyond the default 8 MiB
/// main-thread stack.
pub fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::Builder::new()
        .name("npar-experiment".into())
        .stack_size(1 << 30) // 1 GiB
        .spawn(f)
        .expect("spawn experiment thread")
        .join()
        .expect("experiment thread panicked")
}

/// Run independent experiment closures in parallel on worker threads, one
/// per core, preserving input order in the results.
///
/// This is the host's one layer of parallelism: it relies on every
/// simulator simulating on one lane by default (`npar_sim::Gpu::new`), so
/// `n` cores run `n` simulations and no simulator adds worker threads of
/// its own unless `--threads` asks for them.
pub fn parallel_map<I, T>(inputs: Vec<I>, f: impl Fn(I) -> T + Send + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    use std::sync::Mutex;

    let threads = thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(inputs.len().max(1));
    let results: Vec<Mutex<Option<T>>> = (0..inputs.len()).map(|_| Mutex::new(None)).collect();
    let work: Mutex<std::vec::IntoIter<(usize, I)>> = Mutex::new(
        inputs
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter(),
    );
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Scoped threads inherit the default stack, so
                // recursion-heavy work uses with_big_stack inside `f`
                // when needed.
                loop {
                    let Some((idx, input)) = work.lock().expect("work queue").next() else {
                        break;
                    };
                    let out = f(input);
                    *results[idx].lock().expect("result slot") = Some(out);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_defaults_and_flags() {
        let a = p(&[]).unwrap();
        assert_eq!(a, Args::default());
        assert!(a.memo && a.fast_forward && a.threads.is_none());

        let a = p(&[
            "--check=strict",
            "--no-memo",
            "--fast-forward=off",
            "--threads",
            "8",
            "--timing-threads",
            "4",
            "--analytic",
            "--profile=out.json",
            "--analyze",
            "--no-elide",
            "--update-baseline",
            "--shards",
            "4",
            "--queue=32",
            "--job-timeout-ms",
            "500",
            "--cache-dir=/tmp/spill",
            "--cold",
        ])
        .unwrap();
        assert_eq!(a.check, CheckLevel::Strict);
        assert!(!a.memo);
        assert!(!a.fast_forward);
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.timing_threads, Some(4));
        assert!(a.analytic);
        assert_eq!(a.profile, Some(Some("out.json".into())));
        assert!(a.analyze);
        assert!(!a.elide);
        assert!(a.update_baseline);
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.queue, Some(32));
        assert_eq!(a.job_timeout_ms, Some(500));
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/spill"));
        assert!(a.cold);

        // --job-timeout-ms 0 is legal (disables the timeout); the serve
        // defaults stay untouched when the flags are absent.
        let a = p(&["--job-timeout-ms=0"]).unwrap();
        assert_eq!(a.job_timeout_ms, Some(0));
        assert!(a.shards.is_none() && a.queue.is_none() && a.cache_dir.is_none());
        assert!(!a.cold);

        let a = p(&["--check", "--threads=2", "--profile", "--fast-forward=on"]).unwrap();
        assert_eq!(a.check, CheckLevel::Warn);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.profile, Some(None));
        assert!(a.fast_forward);

        let a = p(&["--timing-threads=8", "--analytic=on"]).unwrap();
        assert_eq!(a.timing_threads, Some(8));
        assert!(a.analytic);
        let a = p(&["--analytic=off"]).unwrap();
        assert!(!a.analytic);

        // --consolidate: defaults off, bare selects auto, and each explicit
        // mode round-trips through the parser.
        assert_eq!(p(&[]).unwrap().consolidate, ConsolidateMode::Off);
        assert_eq!(
            p(&["--consolidate"]).unwrap().consolidate,
            ConsolidateMode::Auto
        );
        for (v, mode) in [
            ("off", ConsolidateMode::Off),
            ("warp", ConsolidateMode::Warp),
            ("block", ConsolidateMode::Block),
            ("grid", ConsolidateMode::Grid),
            ("auto", ConsolidateMode::Auto),
        ] {
            let a = p(&[format!("--consolidate={v}").as_str()]).unwrap();
            assert_eq!(a.consolidate, mode, "--consolidate={v}");
        }
    }

    #[test]
    fn parse_rejects_malformed_flags() {
        for bad in [
            &["--threads=abc"][..],
            &["--threads", "0"],
            &["--threads"],
            &["--timing-threads=abc"],
            &["--timing-threads", "0"],
            &["--timing-threads"],
            &["--analytic=maybe"],
            &["--analytic="],
            &["--consolidate=maybe"],
            &["--consolidate="],
            &["--check=bogus"],
            &["--fast-forward"],
            &["--fast-forward=maybe"],
            &["--profile="],
            &["--no-meno"],
            &["--analyze=on"],
            &["--no-elide=1"],
            &["--shards=0"],
            &["--shards", "abc"],
            &["--shards"],
            &["--queue=0"],
            &["--queue"],
            &["--job-timeout-ms=never"],
            &["--job-timeout-ms"],
            &["--cache-dir="],
            &["--cache-dir"],
            &["--cold=1"],
            &["extra-positional"],
        ] {
            let err = p(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} must be rejected");
        }
        // The usage text names every flag an error could be about, and
        // KNOWN_FLAGS (the docs_check contract) covers the same surface.
        for flag in KNOWN_FLAGS {
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
        assert_eq!(
            KNOWN_FLAGS.len(),
            16,
            "keep KNOWN_FLAGS in sync with parse()"
        );
    }

    #[test]
    fn big_stack_runs_and_returns() {
        let v = with_big_stack(|| {
            // Deep recursion that would overflow a tiny stack.
            fn rec(n: u32) -> u64 {
                if n == 0 {
                    0
                } else {
                    1 + rec(n - 1)
                }
            }
            rec(100_000)
        });
        assert_eq!(v, 100_000);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
