//! Profiling counters and reports, mirroring the `nvprof` metrics the paper
//! collects: warp execution efficiency, global load/store efficiency,
//! achieved occupancy, kernel-launch and atomic counts.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Per-kernel stall attribution: warp execution cycles split by what the
/// warp scheduler was doing, in the spirit of `nvprof`'s stall-reason
/// metrics.
///
/// The first six buckets partition [`KernelMetrics::work_cycles`]: every
/// issue-group cycle the warp aligner charges is split into the *busy*
/// share (active lanes ÷ warp width, attributed to the group's kind) and
/// the *idle* remainder (attributed to [`StallCycles::divergence`]).
/// Barrier cycles are charged by block finalization on top of `work_cycles`
/// and therefore live in their own bucket. All values are work cycles
/// (warp-cycles), not wall-clock span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StallCycles {
    /// Busy ALU cycles (active-lane share of compute issue groups).
    pub compute: f64,
    /// Idle-lane cycles: lanes masked off while their warp issues — the
    /// divergence cost of irregular inner loops and early-exiting lanes.
    pub divergence: f64,
    /// Busy global-memory cycles (loads and stores, incl. transaction
    /// serialization from uncoalesced access).
    pub gmem: f64,
    /// Busy shared-memory cycles (incl. bank-conflict replays).
    pub shared: f64,
    /// Busy atomic cycles (global + shared, incl. same-address
    /// serialization).
    pub atomic: f64,
    /// Device-side launch issue overhead. Launches serialize lane by lane,
    /// so the whole group duration is launch overhead rather than
    /// divergence.
    pub launch: f64,
    /// `__syncthreads` cost charged at each barrier (per resident warp).
    pub barrier: f64,
}

impl StallCycles {
    /// Sum of every bucket: total attributed warp cycles
    /// (`work_cycles + barrier`, within floating-point tolerance).
    pub fn total(&self) -> f64 {
        self.compute
            + self.divergence
            + self.gmem
            + self.shared
            + self.atomic
            + self.launch
            + self.barrier
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &StallCycles) {
        self.compute += other.compute;
        self.divergence += other.divergence;
        self.gmem += other.gmem;
        self.shared += other.shared;
        self.atomic += other.atomic;
        self.launch += other.launch;
        self.barrier += other.barrier;
    }

    /// The buckets as `(name, cycles)` pairs in display order.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("compute", self.compute),
            ("divergence", self.divergence),
            ("gmem", self.gmem),
            ("shared", self.shared),
            ("atomic", self.atomic),
            ("launch", self.launch),
            ("barrier", self.barrier),
        ]
    }
}

/// Counters accumulated for one kernel name across every grid, block and
/// warp that executed under it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelMetrics {
    /// Grids launched under this kernel name.
    pub grids: u64,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Threads executed.
    pub threads: u64,
    /// Warp-instruction issue slots: `warp_size ×` (weighted) instructions
    /// issued. Denominator of warp execution efficiency.
    pub issue_slots: f64,
    /// Active-lane slots actually used. Numerator of warp execution
    /// efficiency.
    pub active_slots: f64,
    /// Bytes requested by global loads.
    pub gld_requested_bytes: u64,
    /// Transactions performed for global loads.
    pub gld_transactions: u64,
    /// Bytes requested by global stores.
    pub gst_requested_bytes: u64,
    /// Transactions performed for global stores.
    pub gst_transactions: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Shared-memory replay transactions caused by bank conflicts.
    pub shared_replays: u64,
    /// Global-memory atomic operations (per lane).
    pub atomics_global: u64,
    /// Shared-memory atomic operations (per lane).
    pub atomics_shared: u64,
    /// Device-side (nested) kernel launches performed by this kernel.
    pub device_launches: u64,
    /// Block-wide barriers executed.
    pub barriers: u64,
    /// Total warp execution cycles (work, not span).
    pub work_cycles: f64,
    /// Stall attribution of the warp cycles (see [`StallCycles`]). The
    /// buckets are always computed — with or without the timeline profiler
    /// — so they ride through the memo cache and reports stay bit-identical
    /// across every mode.
    pub stalls: StallCycles,
}

impl KernelMetrics {
    /// `nvprof` `warp_execution_efficiency`: average fraction of active
    /// lanes per issued warp instruction. 1.0 when no divergence.
    pub fn warp_execution_efficiency(&self) -> f64 {
        if self.issue_slots == 0.0 {
            1.0
        } else {
            self.active_slots / self.issue_slots
        }
    }

    /// `nvprof` `gld_efficiency`: requested global-load throughput over
    /// required transaction throughput. Can exceed 1.0 for broadcast
    /// patterns (many lanes served by one transaction), as on hardware.
    pub fn gld_efficiency(&self) -> f64 {
        ratio_bytes(self.gld_requested_bytes, self.gld_transactions)
    }

    /// `nvprof` `gst_efficiency` for stores.
    pub fn gst_efficiency(&self) -> f64 {
        ratio_bytes(self.gst_requested_bytes, self.gst_transactions)
    }

    /// Total atomic operations (global + shared).
    pub fn atomics(&self) -> u64 {
        self.atomics_global + self.atomics_shared
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &KernelMetrics) {
        self.grids += other.grids;
        self.blocks += other.blocks;
        self.threads += other.threads;
        self.issue_slots += other.issue_slots;
        self.active_slots += other.active_slots;
        self.gld_requested_bytes += other.gld_requested_bytes;
        self.gld_transactions += other.gld_transactions;
        self.gst_requested_bytes += other.gst_requested_bytes;
        self.gst_transactions += other.gst_transactions;
        self.shared_accesses += other.shared_accesses;
        self.shared_replays += other.shared_replays;
        self.atomics_global += other.atomics_global;
        self.atomics_shared += other.atomics_shared;
        self.device_launches += other.device_launches;
        self.barriers += other.barriers;
        self.work_cycles += other.work_cycles;
        self.stalls.merge(&other.stalls);
    }

    /// Total warp cycles the stall buckets should account for:
    /// `work_cycles` plus the barrier cost block finalization charges on
    /// top of it. [`StallCycles::total`] equals this within floating-point
    /// tolerance.
    pub fn attributed_cycles(&self) -> f64 {
        self.work_cycles + self.stalls.barrier
    }
}

fn ratio_bytes(requested: u64, transactions: u64) -> f64 {
    if transactions == 0 {
        1.0
    } else {
        requested as f64 / (transactions as f64 * 128.0)
    }
}

/// Simulator-side (host) execution statistics for one batch: wall time and
/// alignment-memoization behaviour (see DESIGN.md §8). Purely
/// observational — two runs that differ only in this section model
/// identical GPU executions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Host wall-clock seconds spent executing and timing the batch.
    pub wall_seconds: f64,
    /// Host nanoseconds spent inside the event-driven timing pass
    /// (`sched::simulate`) alone — the serial Amdahl floor the DESIGN.md
    /// §11 fast paths attack. A subset of `wall_seconds`.
    pub timing_pass_ns: u64,
    /// Host nanoseconds spent finalizing blocks (`finalize_block`: the
    /// block-cache probe, barrier segmentation, warp alignment and warp
    /// memo), timestamped once per block. The chunked executor sums its
    /// lanes' alignment time, so with several lanes this can exceed the
    /// wall time it overlaps.
    pub finalize_ns: u64,
    /// Warp-segment alignments served from the memo cache.
    pub warp_hits: u64,
    /// Warp-segment alignments computed from scratch (cacheable misses).
    pub warp_misses: u64,
    /// Whole blocks short-circuited by the block-level cache.
    pub block_hits: u64,
    /// Blocks that went through full finalization (cacheable misses).
    pub block_misses: u64,
    /// Ops recorded into traces by functional execution.
    pub ops_traced: u64,
    /// Ops whose timing was replayed from the cache instead of aligned.
    pub ops_replayed: u64,
    /// Blocks whose per-block hazard scans npar-analyze statically elided
    /// (see [`crate::analyze`]). Host-side observational counter: elision
    /// never changes what the checker reports.
    pub elided: u64,
    /// Timing domains discovered by the partitioned timing pass
    /// (DESIGN.md §13); zero while `timing_threads` is 1 or a batch is
    /// too small to partition.
    pub timing_domains: u64,
    /// Timing domains whose optimistic parallel runs were committed.
    pub timing_domains_committed: u64,
    /// Timing domains replayed serially after a time-window conflict.
    pub timing_rollbacks: u64,
    /// Grids the analytic mode finished in closed form (see
    /// [`crate::Gpu::set_analytic`]).
    pub analytic_grids: u64,
    /// Sibling-launch groups the consolidation pass merged (DESIGN.md §15).
    pub consolidated_groups: u64,
    /// Device grids merged away into a consolidated sibling grid.
    pub consolidated_grids: u64,
    /// Device grids inlined as serial work in the launching thread
    /// (below the consolidation inline threshold).
    pub inlined_grids: u64,
}

impl SimStats {
    /// Merge another batch's statistics into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.wall_seconds += other.wall_seconds;
        self.timing_pass_ns += other.timing_pass_ns;
        self.finalize_ns += other.finalize_ns;
        self.warp_hits += other.warp_hits;
        self.warp_misses += other.warp_misses;
        self.block_hits += other.block_hits;
        self.block_misses += other.block_misses;
        self.ops_traced += other.ops_traced;
        self.ops_replayed += other.ops_replayed;
        self.elided += other.elided;
        self.timing_domains += other.timing_domains;
        self.timing_domains_committed += other.timing_domains_committed;
        self.timing_rollbacks += other.timing_rollbacks;
        self.analytic_grids += other.analytic_grids;
        self.consolidated_groups += other.consolidated_groups;
        self.consolidated_grids += other.consolidated_grids;
        self.inlined_grids += other.inlined_grids;
    }

    /// Share of host wall time spent inside the event-driven timing pass
    /// (0.0 when no wall time was recorded).
    pub fn timing_share(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            (self.timing_pass_ns as f64 * 1e-9 / self.wall_seconds).min(1.0)
        } else {
            0.0
        }
    }

    /// Fraction of ops whose timing came from the cache.
    pub fn replay_fraction(&self) -> f64 {
        let total = self.ops_traced;
        if total == 0 {
            0.0
        } else {
            self.ops_replayed as f64 / total as f64
        }
    }
}

/// Execution report for one synchronized batch of kernel launches:
/// wall-clock model plus per-kernel profiling counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Device name.
    pub device: String,
    /// Modeled elapsed GPU cycles (makespan of the batch).
    pub cycles: f64,
    /// Modeled elapsed seconds.
    pub seconds: f64,
    /// Time-averaged resident warps over `num_sms × max_warps_per_sm`
    /// (`nvprof` "achieved occupancy"), averaged over the busy makespan.
    pub achieved_occupancy: f64,
    /// Kernels launched from the host.
    pub host_launches: u64,
    /// Kernels launched from the device (dynamic parallelism), total.
    pub device_launches: u64,
    /// Device launches that overflowed the fixed pending-launch pool into
    /// the slow virtualized pool.
    pub overflow_launches: u64,
    /// Hazards the checker detected in this batch (including suppressed
    /// ones beyond the recording cap); see [`crate::check`]. Always zero
    /// at [`crate::check::CheckLevel::Off`]. Independent of static scan
    /// elision by construction — elision only skips scans a promoted probe
    /// proved would pass; [`crate::Gpu::take_check_report`] breaks the
    /// batch down into scanned vs elided blocks for auditing.
    pub hazards: u64,
    /// Host-side simulator statistics (wall time, memo-cache behaviour).
    /// Observational only: everything above is independent of it.
    pub sim: SimStats,
    /// Per-kernel-name metrics.
    pub kernels: BTreeMap<String, KernelMetrics>,
}

impl Report {
    /// Aggregate the per-kernel counters into one [`KernelMetrics`].
    pub fn total(&self) -> KernelMetrics {
        self.total_where(|_| true)
    }

    /// Aggregate the counters of the kernels whose name satisfies the
    /// predicate — e.g. profiling only an algorithm's irregular kernels
    /// like the paper's per-kernel nvprof tables do.
    pub fn total_where(&self, mut keep: impl FnMut(&str) -> bool) -> KernelMetrics {
        let mut acc = KernelMetrics::default();
        for (name, m) in &self.kernels {
            if keep(name) {
                acc.merge(m);
            }
        }
        acc
    }

    /// Aggregate warp execution efficiency across all kernels.
    pub fn warp_execution_efficiency(&self) -> f64 {
        self.total().warp_execution_efficiency()
    }

    /// Merge another report (summing times and counters) — used by hosts
    /// that synchronize several batches and want one figure.
    pub fn merge(&mut self, other: &Report) {
        if self.device.is_empty() {
            self.device.clone_from(&other.device);
        }
        // Occupancy averages weighted by elapsed cycles.
        let total_cycles = self.cycles + other.cycles;
        if total_cycles > 0.0 {
            self.achieved_occupancy = (self.achieved_occupancy * self.cycles
                + other.achieved_occupancy * other.cycles)
                / total_cycles;
        }
        self.cycles = total_cycles;
        self.seconds += other.seconds;
        self.host_launches += other.host_launches;
        self.device_launches += other.device_launches;
        self.overflow_launches += other.overflow_launches;
        self.hazards += other.hazards;
        self.sim.merge(&other.sim);
        for (name, m) in &other.kernels {
            self.kernels.entry(name.clone()).or_default().merge(m);
        }
    }

    /// Render an `nvprof --metrics`-style table: one row per kernel with
    /// warp execution efficiency, global load/store efficiency and the
    /// [`StallCycles`] buckets as shares of each kernel's attributed
    /// cycles. The report-wide achieved occupancy heads the table.
    pub fn stall_table(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== stall attribution ({}) ==   achieved_occupancy {:5.1}%",
            self.device,
            self.achieved_occupancy * 100.0
        );
        let _ = writeln!(
            s,
            "{:<28} {:>8} {:>8} {:>12} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "kernel",
            "warp_eff",
            "gld_eff",
            "cycles",
            "compute",
            "diverge",
            "gmem",
            "shared",
            "atomic",
            "launch",
            "barrier"
        );
        for (name, m) in &self.kernels {
            let total = m.attributed_cycles();
            let share = |c: f64| if total > 0.0 { c / total * 100.0 } else { 0.0 };
            let _ = writeln!(
                s,
                "{:<28} {:>7.1}% {:>7.1}% {:>12.0} | {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                name,
                m.warp_execution_efficiency() * 100.0,
                m.gld_efficiency() * 100.0,
                total,
                share(m.stalls.compute),
                share(m.stalls.divergence),
                share(m.stalls.gmem),
                share(m.stalls.shared),
                share(m.stalls.atomic),
                share(m.stalls.launch),
                share(m.stalls.barrier),
            );
        }
        s
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.device)?;
        writeln!(
            f,
            "elapsed: {:.3} ms ({:.0} cycles)   achieved occupancy: {:5.1}%",
            self.seconds * 1e3,
            self.cycles,
            self.achieved_occupancy * 100.0
        )?;
        writeln!(
            f,
            "launches: {} host, {} device",
            self.host_launches, self.device_launches
        )?;
        if self.hazards > 0 {
            writeln!(f, "hazards: {} (see the check report)", self.hazards)?;
        }
        if self.sim.ops_traced > 0 {
            writeln!(
                f,
                "sim: {:.1} ms host ({:.1} ms / {:.0}% timing pass, {:.1} ms \
                 finalize) | {} ops traced, {} replayed from cache ({:.1}%) | \
                 warp cache {}/{} | block cache {}/{}",
                self.sim.wall_seconds * 1e3,
                self.sim.timing_pass_ns as f64 * 1e-6,
                self.sim.timing_share() * 100.0,
                self.sim.finalize_ns as f64 * 1e-6,
                self.sim.ops_traced,
                self.sim.ops_replayed,
                self.sim.replay_fraction() * 100.0,
                self.sim.warp_hits,
                self.sim.warp_hits + self.sim.warp_misses,
                self.sim.block_hits,
                self.sim.block_hits + self.sim.block_misses,
            )?;
        }
        writeln!(
            f,
            "{:<28} {:>7} {:>9} {:>9} {:>9} {:>10} {:>8}",
            "kernel", "grids", "warp_eff", "gld_eff", "gst_eff", "atomics", "dlaunch"
        )?;
        for (name, m) in &self.kernels {
            writeln!(
                f,
                "{:<28} {:>7} {:>8.1}% {:>8.1}% {:>8.1}% {:>10} {:>8}",
                name,
                m.grids,
                m.warp_execution_efficiency() * 100.0,
                m.gld_efficiency() * 100.0,
                m.gst_efficiency() * 100.0,
                m.atomics(),
                m.device_launches,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_bounds() {
        let mut m = KernelMetrics::default();
        assert_eq!(m.warp_execution_efficiency(), 1.0);
        m.issue_slots = 64.0;
        m.active_slots = 16.0;
        assert!((m.warp_execution_efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gld_efficiency_scattered_vs_coalesced() {
        let mut m = KernelMetrics {
            gld_requested_bytes: 128,
            gld_transactions: 1,
            ..Default::default()
        };
        assert!((m.gld_efficiency() - 1.0).abs() < 1e-12);
        m.gld_transactions = 32;
        assert!((m.gld_efficiency() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn merge_adds() {
        let mut a = KernelMetrics {
            grids: 1,
            atomics_global: 5,
            issue_slots: 32.0,
            active_slots: 32.0,
            ..Default::default()
        };
        let b = KernelMetrics {
            grids: 2,
            atomics_shared: 3,
            issue_slots: 32.0,
            active_slots: 16.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.grids, 3);
        assert_eq!(a.atomics(), 8);
        assert!((a.warp_execution_efficiency() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_merge_weights_occupancy() {
        let mut a = Report {
            cycles: 100.0,
            achieved_occupancy: 0.5,
            ..Default::default()
        };
        let b = Report {
            cycles: 300.0,
            achieved_occupancy: 0.9,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.achieved_occupancy - 0.8).abs() < 1e-12);
        assert_eq!(a.cycles, 400.0);
    }

    #[test]
    fn sim_stats_merge_and_display() {
        let mut a = SimStats {
            wall_seconds: 0.5,
            timing_pass_ns: 100_000_000,
            finalize_ns: 30_000_000,
            warp_hits: 3,
            warp_misses: 1,
            block_hits: 2,
            block_misses: 2,
            ops_traced: 100,
            ops_replayed: 60,
            elided: 4,
            timing_domains: 5,
            timing_domains_committed: 4,
            timing_rollbacks: 1,
            analytic_grids: 2,
            consolidated_groups: 1,
            consolidated_grids: 3,
            inlined_grids: 2,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.warp_hits, 6);
        assert_eq!(a.ops_traced, 200);
        assert!((a.wall_seconds - 1.0).abs() < 1e-12);
        assert_eq!(a.timing_pass_ns, 200_000_000);
        assert_eq!(a.finalize_ns, 60_000_000);
        assert!((a.timing_share() - 0.2).abs() < 1e-12);
        assert!((a.replay_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(SimStats::default().replay_fraction(), 0.0);
        assert_eq!(SimStats::default().timing_share(), 0.0);

        let r = Report {
            sim: a,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("replayed from cache"));
        assert!(s.contains("timing pass"));
        assert!(s.contains("60.0 ms finalize"));
        assert!(s.contains("warp cache 6/8"));
        // A report with no traced ops keeps the sim line out entirely.
        assert!(!Report::default().to_string().contains("replayed"));
    }

    #[test]
    fn stall_cycles_merge_and_total() {
        let mut a = StallCycles {
            compute: 10.0,
            divergence: 5.0,
            gmem: 3.0,
            ..Default::default()
        };
        let b = StallCycles {
            compute: 1.0,
            barrier: 2.0,
            launch: 4.0,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.compute - 11.0).abs() < 1e-12);
        assert!((a.total() - 25.0).abs() < 1e-12);
        let named = a.named();
        assert_eq!(named[0].0, "compute");
        assert!((named.iter().map(|(_, c)| c).sum::<f64>() - a.total()).abs() < 1e-12);
    }

    #[test]
    fn metrics_merge_includes_stalls() {
        let mut a = KernelMetrics {
            work_cycles: 10.0,
            stalls: StallCycles {
                compute: 6.0,
                divergence: 4.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = KernelMetrics {
            work_cycles: 2.0,
            stalls: StallCycles {
                gmem: 2.0,
                barrier: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.stalls.total() - 13.0).abs() < 1e-12);
        assert!((a.attributed_cycles() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn stall_table_renders_shares() {
        let mut r = Report {
            device: "test".into(),
            achieved_occupancy: 0.5,
            ..Default::default()
        };
        r.kernels.insert(
            "k".into(),
            KernelMetrics {
                work_cycles: 80.0,
                stalls: StallCycles {
                    compute: 40.0,
                    divergence: 40.0,
                    barrier: 20.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let t = r.stall_table();
        assert!(t.contains("stall attribution"));
        assert!(t.contains("diverge"));
        assert!(t.contains("40.0%"), "table: {t}");
        // An all-zero kernel renders 0% shares without dividing by zero.
        r.kernels.insert("empty".into(), KernelMetrics::default());
        assert!(r.stall_table().contains("empty"));
    }

    #[test]
    fn display_contains_kernel_rows() {
        let mut r = Report {
            device: "test".into(),
            ..Default::default()
        };
        r.kernels.insert("spmv".into(), KernelMetrics::default());
        let s = r.to_string();
        assert!(s.contains("spmv"));
        assert!(s.contains("warp_eff"));
    }
}
