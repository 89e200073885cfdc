#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests, docs freshness, the
# consolidation speedup gate, and the benchmark gates. simbench fails on a
# >2x throughput regression, a timing-pass fast-path gain dropping below
# 0.7x of the stored ratio, or the heterogeneous (divergent) workload
# paying >3% wall for the fast paths — all against the checked-in
# crates/bench/BENCH_sim_baseline.json
# (refresh with --update-baseline). loadtest gates the serving layer the
# same way against crates/bench/BENCH_serve_baseline.json, plus its
# structural gates: dup-heavy replay >= 3x cold throughput, warm-restart
# cache-hit rate >= 90%, and byte-identical reports across cache paths.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
# clippy.toml bans nondeterminism hazards (partial_cmp / comparator sorts
# on floats, std HashMap/HashSet) workspace-wide; --workspace also lints
# the bench member, which the root package does not depend on.
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
# One pass over every crate's tests. Host lane counts are pinned inside the
# tests themselves (tests/parallel_differential.rs compares 1, 2 and 8
# lanes byte for byte), so no environment override changes what they cover.
cargo test -q --workspace
# The benchmark is its own package (perfbench/) and compiles against the
# public kernel API, so build and test it here too.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
# The scheduler-equivalence suite rides again with the timing pass forced
# parallel (DESIGN.md §13): NPAR_TIMING_THREADS=8 flips the default every
# other differential test constructs its Gpus with, on top of the suite's
# own --timing-threads 1/2/8 and host-lane matrix.
NPAR_TIMING_THREADS=8 cargo test -q --test sched_differential
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
cargo test -q --doc --workspace
# Docs freshness: every flag runner::parse accepts must have a row in
# README.md's flags table (fails naming the missing flag).
cargo run --release -p npar-bench --bin docs_check
# Static-analysis gate: no kernel class's verdict may drop from `proven`
# (crates/bench/ANALYZE_baseline.json; refresh with --update-baseline).
cargo run --release -p npar-bench --bin analyze_all
# Consolidation gate: consolidated dpar-naive must beat plain dpar-naive by
# at least 2x modeled time (the binary asserts it). Its launch-heavy grids
# also exercise warp alignment with many launching lanes.
cargo run --release -p npar-bench --bin fig_consolidation
cargo run --release -p npar-bench --bin simbench
# Serving gate: loadtest replays the mixed workload cold / dup-heavy /
# warm-restarted (SERVING.md) and fails on any structural or baseline gate.
cargo run --release -p npar-bench --bin loadtest
