//! Warp lockstep alignment: turns 32 per-lane instruction traces into
//! issue-group timing, divergence and memory-efficiency metrics.
//!
//! The model replays the lanes of a warp position-by-position. At each step
//! every unfinished lane presents its current op; ops of the same kind issue
//! together as one warp instruction (with the presenting lanes active),
//! while ops of *different* kinds at the same position serialize into
//! separate issue groups — the SIMT re-convergence behaviour that makes
//! divergent warps slow. Lanes that have finished their (shorter) traces
//! simply stop presenting, which is exactly how an irregular inner loop
//! degrades warp execution efficiency in the paper's baseline template.

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::memory::{self, LineSet};
use crate::profiler::{KernelMetrics, StallCycles};
use crate::trace::Op;

/// A device-side launch observed during alignment: which grid, and how many
/// cycles into the segment the launching instruction completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaunchPoint {
    pub grid: u32,
    pub offset: f64,
}

/// Timing outcome of one warp over one barrier segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct WarpOutcome {
    /// Execution cycles of the warp (its contribution to block work; the
    /// maximum over a block's warps is the segment span).
    pub cycles: f64,
    /// Device-side launches with their cycle offsets.
    pub launches: Vec<LaunchPoint>,
}

/// Reusable scratch buffers for alignment (allocation-free steady state).
#[derive(Debug, Default)]
pub(crate) struct AlignScratch {
    /// One step's gathers, one per issue group that needs more than a
    /// running sum. Each is cleared when its group issues.
    gld: LineSet,
    gst: LineSet,
    sld_banks: Vec<u32>,
    sst_banks: Vec<u32>,
    atom_lines: LineSet,
    atom_addrs: Vec<u64>,
    atom_shared: Vec<u32>,
    launch_grids: Vec<u32>,
}

// Issue-group bits of one step's mask.
const COMPUTE: u8 = 1 << 0;
const GLOBAL_READ: u8 = 1 << 1;
const GLOBAL_WRITE: u8 = 1 << 2;
const SHARED_READ: u8 = 1 << 3;
const SHARED_WRITE: u8 = 1 << 4;
const ATOMIC_GLOBAL: u8 = 1 << 5;
const ATOMIC_SHARED: u8 = 1 << 6;
const LAUNCH: u8 = 1 << 7;

/// A warp's running floating-point totals. Every counter takes exactly one
/// add per issue group, in issue order, whichever loop issues the group —
/// so the live-lane walk and the one-lane tail produce the same bits.
struct Totals<'a> {
    cost: &'a CostModel,
    warp: f64,
    cycles: f64,
    issue_slots: f64,
    active_slots: f64,
    /// Stall attribution: each issue group's duration splits into a busy
    /// share (active lanes / warp width, charged to the group's kind) and
    /// an idle remainder (charged to divergence). The groups accumulate
    /// the raw dur x active products; the busy scaling and the divergence
    /// remainder happen once per warp in [`finish_stalls`].
    stalls: StallCycles,
}

impl Totals<'_> {
    /// `max_n` issue cycles of arithmetic, `sum_n` lane-instructions of it.
    /// An all-zero group issues nothing.
    #[inline]
    fn compute(&mut self, max_n: u32, sum_n: u64) {
        if max_n > 0 {
            let dur = f64::from(max_n) * self.cost.alu_cycles;
            self.cycles += dur;
            self.issue_slots += self.warp * f64::from(max_n);
            self.active_slots += sum_n as f64;
            self.stalls.compute += sum_n as f64 * self.cost.alu_cycles;
        }
    }

    #[inline]
    fn global(&mut self, active: u32, transactions: u64) {
        let dur =
            self.cost.mem_base_cycles + transactions as f64 * self.cost.mem_transaction_cycles;
        self.issue(active, dur);
        self.stalls.gmem += dur * f64::from(active);
    }

    #[inline]
    fn shared(&mut self, active: u32, replays: u64) {
        let dur = self.cost.shared_cycles * replays as f64;
        self.issue(active, dur);
        self.stalls.shared += dur * f64::from(active);
    }

    #[inline]
    fn atomic_global(&mut self, active: u32, conflicts: u64, transactions: u64) {
        let dur = self.cost.atomic_base_cycles
            + (conflicts.saturating_sub(1)) as f64 * self.cost.atomic_conflict_cycles
            + transactions as f64 * self.cost.mem_transaction_cycles;
        self.issue(active, dur);
        self.stalls.atomic += dur * f64::from(active);
    }

    #[inline]
    fn atomic_shared(&mut self, active: u32, conflicts: u64) {
        let dur = self.cost.shared_cycles
            + (conflicts.saturating_sub(1)) as f64 * self.cost.atomic_shared_conflict_cycles;
        self.issue(active, dur);
        self.stalls.atomic += dur * f64::from(active);
    }

    /// One lane's device launch. Launches serialize lane by lane, and the
    /// whole serialized duration is launch overhead — the very cost the
    /// paper's dpar templates trade against — so none of it is charged to
    /// divergence. Returns the launch's offset into the segment.
    #[inline]
    fn launch(&mut self) -> f64 {
        let dur = self.cost.device_launch_issue_cycles;
        self.issue(1, dur);
        self.stalls.launch += dur;
        self.cycles
    }

    /// One warp instruction of `dur` cycles with `active` lanes.
    #[inline]
    fn issue(&mut self, active: u32, dur: f64) {
        self.cycles += dur;
        self.issue_slots += self.warp;
        self.active_slots += f64::from(active);
    }
}

/// Align one warp's lane traces (1..=warp_size slices, one per lane) over a
/// single barrier segment, accumulating profiler counters into `metrics`.
///
/// Each step walks only the live lanes: one pass in lane order gathers
/// every issue group, advances each lane and drops the lanes that finish.
/// The populated groups then issue in a fixed order — Compute, GlobalRead,
/// GlobalWrite, SharedRead, SharedWrite, AtomicGlobal, AtomicShared,
/// Launch — and within a group lanes stay in lane order, which fixes the
/// launch offsets. Once a single lane is left, the rest of its ops issue
/// in a tight loop, each its own one-lane group. Counters accumulate
/// locally and merge once at the end, which keeps memoized replays
/// bit-identical.
pub(crate) fn align_warp(
    lanes: &[&[Op]],
    device: &DeviceConfig,
    cost: &CostModel,
    metrics: &mut KernelMetrics,
    scratch: &mut AlignScratch,
) -> WarpOutcome {
    let warp = f64::from(device.warp_size);
    // Warp widths are powers of two (DeviceConfig::validate), so
    // multiplying by the reciprocal is bit-identical to dividing and keeps
    // the stall split off the fp-divide unit.
    let inv_warp = 1.0 / warp;
    let n = lanes.len();
    debug_assert!(n >= 1 && n <= device.warp_size as usize);

    if cost.divergence == crate::cost::DivergenceModel::MaxLane {
        return max_lane_model(lanes, cost, metrics);
    }

    debug_assert!(device.mem_transaction_bytes.is_power_of_two());
    let shift = device.mem_transaction_bytes.trailing_zeros();
    let banks = device.shared_banks;
    let mut launches = Vec::new();
    let mut t = Totals {
        cost,
        warp,
        cycles: 0.0,
        issue_slots: 0.0,
        active_slots: 0.0,
        stalls: StallCycles::default(),
    };
    let AlignScratch {
        gld,
        gst,
        sld_banks,
        sst_banks,
        atom_lines,
        atom_addrs,
        atom_shared,
        launch_grids,
    } = scratch;
    // The unfinished lanes' remaining ops, in lane order. Warps hold at
    // most 64 lanes (DeviceConfig::validate).
    let mut live: [&[Op]; 64] = [&[]; 64];
    let mut nlive = 0;
    for &ops in lanes.iter().filter(|ops| !ops.is_empty()) {
        live[nlive] = ops;
        nlive += 1;
    }

    while nlive > 1 {
        let mut mask = 0u8;
        let (mut max_n, mut sum_n) = (0u32, 0u64);
        let mut kept = 0;
        for i in 0..nlive {
            let Some((&op, rest)) = live[i].split_first() else {
                unreachable!("finished lanes leave the live list")
            };
            match op {
                Op::Compute(k) => {
                    mask |= COMPUTE;
                    max_n = max_n.max(k);
                    sum_n += u64::from(k);
                }
                Op::GlobalRead { addr, size } => {
                    mask |= GLOBAL_READ;
                    gld.push(addr, size, shift);
                }
                Op::GlobalWrite { addr, size } => {
                    mask |= GLOBAL_WRITE;
                    gst.push(addr, size, shift);
                }
                Op::SharedRead { addr } => {
                    mask |= SHARED_READ;
                    sld_banks.push(memory::bank(addr, banks));
                }
                Op::SharedWrite { addr } => {
                    mask |= SHARED_WRITE;
                    sst_banks.push(memory::bank(addr, banks));
                }
                Op::AtomicGlobal { addr } => {
                    mask |= ATOMIC_GLOBAL;
                    atom_lines.push(addr, 4, shift);
                    atom_addrs.push(addr);
                }
                Op::AtomicShared { addr } => {
                    mask |= ATOMIC_SHARED;
                    atom_shared.push(addr);
                }
                Op::Launch { grid } => {
                    mask |= LAUNCH;
                    launch_grids.push(grid);
                }
                Op::Sync | Op::SyncChildren => {
                    unreachable!("delimiters must be stripped before alignment")
                }
            }
            if !rest.is_empty() {
                live[kept] = rest;
                kept += 1;
            }
        }
        nlive = kept;

        if mask & COMPUTE != 0 {
            t.compute(max_n, sum_n);
        }
        if mask & GLOBAL_READ != 0 {
            let tx = gld.transactions();
            t.global(gld.lanes, tx);
            metrics.gld_requested_bytes += gld.requested_bytes;
            metrics.gld_transactions += tx;
            gld.clear();
        }
        if mask & GLOBAL_WRITE != 0 {
            let tx = gst.transactions();
            t.global(gst.lanes, tx);
            metrics.gst_requested_bytes += gst.requested_bytes;
            metrics.gst_transactions += tx;
            gst.clear();
        }
        for (bit, bank_list) in [
            (SHARED_READ, &mut *sld_banks),
            (SHARED_WRITE, &mut *sst_banks),
        ] {
            if mask & bit != 0 {
                let active = bank_list.len() as u32;
                let replays = memory::max_multiplicity(bank_list);
                t.shared(active, replays);
                metrics.shared_accesses += u64::from(active);
                metrics.shared_replays += replays;
                bank_list.clear();
            }
        }
        if mask & ATOMIC_GLOBAL != 0 {
            let tx = atom_lines.transactions();
            let conflicts = memory::max_multiplicity(atom_addrs);
            t.atomic_global(atom_lines.lanes, conflicts, tx);
            metrics.atomics_global += u64::from(atom_lines.lanes);
            atom_lines.clear();
            atom_addrs.clear();
        }
        if mask & ATOMIC_SHARED != 0 {
            let active = atom_shared.len() as u32;
            let conflicts = memory::max_multiplicity(atom_shared);
            t.atomic_shared(active, conflicts);
            metrics.atomics_shared += u64::from(active);
            atom_shared.clear();
        }
        if mask & LAUNCH != 0 {
            for &grid in launch_grids.iter() {
                let offset = t.launch();
                metrics.device_launches += 1;
                launches.push(LaunchPoint { grid, offset });
            }
            launch_grids.clear();
        }
    }

    if nlive == 1 {
        align_one_lane(live[0], shift, &mut t, metrics, &mut launches);
    }

    metrics.issue_slots += t.issue_slots;
    metrics.active_slots += t.active_slots;
    metrics.work_cycles += t.cycles;
    finish_stalls(&mut t.stalls, inv_warp, t.cycles, metrics);
    WarpOutcome {
        cycles: t.cycles,
        launches,
    }
}

/// The tail of a warp with one live lane: every op is its own one-lane
/// issue group, so coalescing reduces to the lines the access spans and
/// there are no bank or atomic conflicts.
fn align_one_lane(
    ops: &[Op],
    shift: u32,
    t: &mut Totals<'_>,
    metrics: &mut KernelMetrics,
    launches: &mut Vec<LaunchPoint>,
) {
    for &op in ops {
        match op {
            Op::Compute(k) => t.compute(k, u64::from(k)),
            Op::GlobalRead { addr, size } => {
                let tx = memory::lines_spanned(addr, size, shift);
                t.global(1, tx);
                metrics.gld_requested_bytes += u64::from(size);
                metrics.gld_transactions += tx;
            }
            Op::GlobalWrite { addr, size } => {
                let tx = memory::lines_spanned(addr, size, shift);
                t.global(1, tx);
                metrics.gst_requested_bytes += u64::from(size);
                metrics.gst_transactions += tx;
            }
            Op::SharedRead { .. } | Op::SharedWrite { .. } => {
                t.shared(1, 1);
                metrics.shared_accesses += 1;
                metrics.shared_replays += 1;
            }
            Op::AtomicGlobal { addr } => {
                t.atomic_global(1, 1, memory::lines_spanned(addr, 4, shift));
                metrics.atomics_global += 1;
            }
            Op::AtomicShared { .. } => {
                t.atomic_shared(1, 1);
                metrics.atomics_shared += 1;
            }
            Op::Launch { grid } => {
                let offset = t.launch();
                metrics.device_launches += 1;
                launches.push(LaunchPoint { grid, offset });
            }
            Op::Sync | Op::SyncChildren => {
                unreachable!("delimiters must be stripped before alignment")
            }
        }
    }
}

/// Fold one warp's raw stall accumulators into the kernel metrics. The work
/// buckets were accumulated as dur x active-lanes; one exact power-of-two
/// scale per warp turns them into busy cycles (launch is already whole
/// cycles), and divergence is the remainder — which makes the partition of
/// the warp's cycles exact by construction. Kept out of line so the
/// alignment loop stays small.
#[inline(never)]
fn finish_stalls(
    stalls: &mut StallCycles,
    inv_warp: f64,
    cycles: f64,
    metrics: &mut KernelMetrics,
) {
    stalls.compute *= inv_warp;
    stalls.gmem *= inv_warp;
    stalls.shared *= inv_warp;
    stalls.atomic *= inv_warp;
    stalls.divergence = (cycles
        - (stalls.compute + stalls.gmem + stalls.shared + stalls.atomic + stalls.launch))
        .max(0.0);
    metrics.stalls.merge(stalls);
}

/// The [`crate::cost::DivergenceModel::MaxLane`] ablation: every lane is
/// costed as if it owned the warp (each access one transaction, no
/// divergence serialization, no conflicts); the warp takes as long as its
/// slowest lane and reports full efficiency. Launch offsets come from the
/// launching lane's own running cost.
fn max_lane_model(lanes: &[&[Op]], cost: &CostModel, metrics: &mut KernelMetrics) -> WarpOutcome {
    let mut out = WarpOutcome::default();
    let mut max_cycles = 0.0f64;
    let mut max_stalls = StallCycles::default();
    let mut total_ops = 0u64;
    for lane in lanes {
        let mut c = 0.0f64;
        let mut st = StallCycles::default();
        for op in lane.iter() {
            debug_assert!(!op.is_delimiter());
            total_ops += 1;
            match *op {
                Op::Compute(k) => {
                    c += f64::from(k) * cost.alu_cycles;
                    st.compute += f64::from(k) * cost.alu_cycles;
                }
                Op::GlobalRead { size, .. } => {
                    c += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    st.gmem += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    metrics.gld_requested_bytes += u64::from(size);
                    metrics.gld_transactions += 1;
                }
                Op::GlobalWrite { size, .. } => {
                    c += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    st.gmem += cost.mem_base_cycles + cost.mem_transaction_cycles;
                    metrics.gst_requested_bytes += u64::from(size);
                    metrics.gst_transactions += 1;
                }
                Op::SharedRead { .. } | Op::SharedWrite { .. } => {
                    c += cost.shared_cycles;
                    st.shared += cost.shared_cycles;
                    metrics.shared_accesses += 1;
                }
                Op::AtomicGlobal { .. } => {
                    c += cost.atomic_base_cycles + cost.mem_transaction_cycles;
                    st.atomic += cost.atomic_base_cycles + cost.mem_transaction_cycles;
                    metrics.atomics_global += 1;
                }
                Op::AtomicShared { .. } => {
                    c += cost.shared_cycles;
                    st.atomic += cost.shared_cycles;
                    metrics.atomics_shared += 1;
                }
                Op::Launch { grid } => {
                    c += cost.device_launch_issue_cycles;
                    st.launch += cost.device_launch_issue_cycles;
                    metrics.device_launches += 1;
                    out.launches.push(LaunchPoint { grid, offset: c });
                }
                Op::Sync | Op::SyncChildren => unreachable!(),
            }
        }
        if c > max_cycles {
            max_cycles = c;
            max_stalls = st;
        }
    }
    out.cycles = max_cycles;
    // No divergence by construction: report full efficiency, and attribute
    // the warp's cycles as the slowest lane's own breakdown.
    metrics.issue_slots += total_ops as f64;
    metrics.active_slots += total_ops as f64;
    metrics.work_cycles += out.cycles;
    metrics.stalls.merge(&max_stalls);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lanes: &[Vec<Op>]) -> (WarpOutcome, KernelMetrics) {
        let device = DeviceConfig::kepler_k20();
        let cost = CostModel::default();
        let mut metrics = KernelMetrics::default();
        let mut scratch = AlignScratch::default();
        let refs: Vec<&[Op]> = lanes.iter().map(|v| v.as_slice()).collect();
        let out = align_warp(&refs, &device, &cost, &mut metrics, &mut scratch);
        (out, metrics)
    }

    /// Issue-order index of an op's kind (the reference aligner's groups).
    fn kind(op: Op) -> usize {
        match op {
            Op::Compute(_) => 0,
            Op::GlobalRead { .. } => 1,
            Op::GlobalWrite { .. } => 2,
            Op::SharedRead { .. } => 3,
            Op::SharedWrite { .. } => 4,
            Op::AtomicGlobal { .. } => 5,
            Op::AtomicShared { .. } => 6,
            Op::Launch { .. } => 7,
            Op::Sync | Op::SyncChildren => unreachable!(),
        }
    }

    /// Distinct lines over `(addr, size)` accesses, by sort and dedup.
    fn ref_transactions(accesses: &[(u64, u8)], line_bytes: u32) -> u64 {
        let shift = line_bytes.trailing_zeros();
        let mut lines = Vec::new();
        for &(addr, size) in accesses {
            let first = addr >> shift;
            let last = (addr + u64::from(size).max(1) - 1) >> shift;
            lines.extend(first..=last);
        }
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    fn ref_multiplicity(mut vals: Vec<u64>) -> u64 {
        vals.sort_unstable();
        let mut best = u64::from(!vals.is_empty());
        let mut run = 1;
        for w in vals.windows(2) {
            run = if w[0] == w[1] { run + 1 } else { 1 };
            best = best.max(run);
        }
        best
    }

    /// The full-width reference aligner: every step visits every lane once
    /// per populated issue group. The live-lane aligner must match it bit
    /// for bit.
    fn reference_align(
        lanes: &[&[Op]],
        device: &DeviceConfig,
        cost: &CostModel,
        metrics: &mut KernelMetrics,
    ) -> WarpOutcome {
        let warp = f64::from(device.warp_size);
        let mut positions = vec![0usize; lanes.len()];
        let mut out = WarpOutcome::default();
        let (mut issue_slots, mut active_slots) = (0.0f64, 0.0f64);
        let mut stalls = StallCycles::default();
        loop {
            let current: Vec<Option<Op>> = positions
                .iter()
                .zip(lanes)
                .map(|(&p, l)| l.get(p).copied())
                .collect();
            if current.iter().all(Option::is_none) {
                break;
            }
            for group in 0..8 {
                let members: Vec<Op> = current
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&op| kind(op) == group)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let count = members.len() as f64;
                match group {
                    0 => {
                        let ks = members.iter().map(|op| match op {
                            Op::Compute(k) => *k,
                            _ => unreachable!(),
                        });
                        let max_n = ks.clone().max().unwrap();
                        let sum_n: u64 = ks.map(u64::from).sum();
                        if max_n > 0 {
                            out.cycles += f64::from(max_n) * cost.alu_cycles;
                            issue_slots += warp * f64::from(max_n);
                            active_slots += sum_n as f64;
                            stalls.compute += sum_n as f64 * cost.alu_cycles;
                        }
                    }
                    1 | 2 => {
                        let acc: Vec<(u64, u8)> = members
                            .iter()
                            .map(|op| match *op {
                                Op::GlobalRead { addr, size } | Op::GlobalWrite { addr, size } => {
                                    (addr, size)
                                }
                                _ => unreachable!(),
                            })
                            .collect();
                        let tx = ref_transactions(&acc, device.mem_transaction_bytes);
                        let requested: u64 = acc.iter().map(|&(_, s)| u64::from(s)).sum();
                        let dur = cost.mem_base_cycles + tx as f64 * cost.mem_transaction_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count;
                        stalls.gmem += dur * count;
                        if group == 1 {
                            metrics.gld_requested_bytes += requested;
                            metrics.gld_transactions += tx;
                        } else {
                            metrics.gst_requested_bytes += requested;
                            metrics.gst_transactions += tx;
                        }
                    }
                    3 | 4 => {
                        let banks = members
                            .iter()
                            .map(|op| match *op {
                                Op::SharedRead { addr } | Op::SharedWrite { addr } => {
                                    u64::from((addr / 4) % device.shared_banks)
                                }
                                _ => unreachable!(),
                            })
                            .collect();
                        let replays = ref_multiplicity(banks);
                        let dur = cost.shared_cycles * replays as f64;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count;
                        metrics.shared_accesses += members.len() as u64;
                        metrics.shared_replays += replays;
                        stalls.shared += dur * count;
                    }
                    5 => {
                        let addrs: Vec<u64> = members
                            .iter()
                            .map(|op| match *op {
                                Op::AtomicGlobal { addr } => addr,
                                _ => unreachable!(),
                            })
                            .collect();
                        let acc: Vec<(u64, u8)> = addrs.iter().map(|&a| (a, 4)).collect();
                        let tx = ref_transactions(&acc, device.mem_transaction_bytes);
                        let conflicts = ref_multiplicity(addrs);
                        let dur = cost.atomic_base_cycles
                            + (conflicts.saturating_sub(1)) as f64 * cost.atomic_conflict_cycles
                            + tx as f64 * cost.mem_transaction_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count;
                        metrics.atomics_global += members.len() as u64;
                        stalls.atomic += dur * count;
                    }
                    6 => {
                        let addrs = members
                            .iter()
                            .map(|op| match *op {
                                Op::AtomicShared { addr } => u64::from(addr),
                                _ => unreachable!(),
                            })
                            .collect();
                        let conflicts = ref_multiplicity(addrs);
                        let dur = cost.shared_cycles
                            + (conflicts.saturating_sub(1)) as f64
                                * cost.atomic_shared_conflict_cycles;
                        out.cycles += dur;
                        issue_slots += warp;
                        active_slots += count;
                        metrics.atomics_shared += members.len() as u64;
                        stalls.atomic += dur * count;
                    }
                    _ => {
                        for op in &members {
                            let Op::Launch { grid } = *op else {
                                unreachable!()
                            };
                            out.cycles += cost.device_launch_issue_cycles;
                            issue_slots += warp;
                            active_slots += 1.0;
                            metrics.device_launches += 1;
                            stalls.launch += cost.device_launch_issue_cycles;
                            out.launches.push(LaunchPoint {
                                grid,
                                offset: out.cycles,
                            });
                        }
                    }
                }
            }
            for (p, l) in positions.iter_mut().zip(lanes) {
                if *p < l.len() {
                    *p += 1;
                }
            }
        }
        metrics.issue_slots += issue_slots;
        metrics.active_slots += active_slots;
        metrics.work_cycles += out.cycles;
        finish_stalls(&mut stalls, 1.0 / warp, out.cycles, metrics);
        out
    }

    /// Every field of the metrics, floats as bit patterns.
    fn metric_bits(m: &KernelMetrics) -> Vec<u64> {
        let s = &m.stalls;
        vec![
            m.grids,
            m.blocks,
            m.threads,
            m.issue_slots.to_bits(),
            m.active_slots.to_bits(),
            m.gld_requested_bytes,
            m.gld_transactions,
            m.gst_requested_bytes,
            m.gst_transactions,
            m.shared_accesses,
            m.shared_replays,
            m.atomics_global,
            m.atomics_shared,
            m.device_launches,
            m.barriers,
            m.work_cycles.to_bits(),
            s.compute.to_bits(),
            s.divergence.to_bits(),
            s.gmem.to_bits(),
            s.shared.to_bits(),
            s.atomic.to_bits(),
            s.launch.to_bits(),
            s.barrier.to_bits(),
        ]
    }

    /// A random op. Addresses cluster in a few 128-byte lines so groups
    /// coalesce, straddle and conflict; sizes include 8-byte accesses that
    /// cross a line boundary.
    fn random_op(rng: &mut rand_chacha::ChaCha8Rng, grid: &mut u32) -> Op {
        use rand::Rng;
        let global = |rng: &mut rand_chacha::ChaCha8Rng| {
            let addr = rng.gen_range(0u64..6) * 128 + rng.gen_range(0u64..128);
            let size = [1u8, 4, 8, 8, 16][rng.gen_range(0usize..5)];
            (addr, size)
        };
        match rng.gen_range(0u32..9) {
            0 | 1 => Op::Compute(rng.gen_range(0u32..4)),
            2 => {
                let (addr, size) = global(rng);
                Op::GlobalRead { addr, size }
            }
            3 => {
                let (addr, size) = global(rng);
                Op::GlobalWrite { addr, size }
            }
            4 => Op::SharedRead {
                addr: rng.gen_range(0u32..512),
            },
            5 => Op::SharedWrite {
                addr: rng.gen_range(0u32..512) * 4,
            },
            6 => Op::AtomicGlobal {
                addr: rng.gen_range(0u64..4) * 124,
            },
            7 => Op::AtomicShared {
                addr: rng.gen_range(0u32..4) * 4,
            },
            _ => {
                *grid += 1;
                Op::Launch { grid: *grid }
            }
        }
    }

    #[test]
    fn live_lane_aligner_matches_full_width_reference() {
        use rand::{Rng, SeedableRng};
        let cost = CostModel::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        let mut scratch = AlignScratch::default();
        for case in 0..10_000u32 {
            let mut device = DeviceConfig::kepler_k20();
            device.warp_size = if case % 4 == 0 { 64 } else { 32 };
            let width = rng.gen_range(1..=device.warp_size as usize);
            let mut grid = 0u32;
            let lanes: Vec<Vec<Op>> = (0..width)
                .map(|_| {
                    // Power-law lane lengths: most lanes short, a few long,
                    // and some empty.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let len = ((1.0 - u).powf(-1.2) - 1.0).min(200.0) as usize;
                    (0..len).map(|_| random_op(&mut rng, &mut grid)).collect()
                })
                .collect();
            let refs: Vec<&[Op]> = lanes.iter().map(Vec::as_slice).collect();
            let mut want_m = KernelMetrics::default();
            let want = reference_align(&refs, &device, &cost, &mut want_m);
            let mut got_m = KernelMetrics::default();
            let got = align_warp(&refs, &device, &cost, &mut got_m, &mut scratch);
            assert_eq!(got.cycles.to_bits(), want.cycles.to_bits(), "case {case}");
            assert_eq!(metric_bits(&got_m), metric_bits(&want_m), "case {case}");
            let launch_bits = |o: &WarpOutcome| -> Vec<(u32, u64)> {
                o.launches
                    .iter()
                    .map(|lp| (lp.grid, lp.offset.to_bits()))
                    .collect()
            };
            assert_eq!(launch_bits(&got), launch_bits(&want), "case {case}");
        }
    }

    #[test]
    fn uniform_compute_full_efficiency() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Compute(4)]).collect();
        let (out, m) = run(&lanes);
        assert!((m.warp_execution_efficiency() - 1.0).abs() < 1e-12);
        assert!((out.cycles - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variable_trip_counts_degrade_efficiency() {
        // Lane i executes i+1 compute steps: classic irregular inner loop.
        let lanes: Vec<Vec<Op>> = (0..32)
            .map(|i| (0..=i).map(|_| Op::Compute(1)).collect())
            .collect();
        let (out, m) = run(&lanes);
        // 32 steps, sum of active lanes = 32+31+..+1 = 528.
        assert!((out.cycles - 32.0).abs() < 1e-12);
        let expected = 528.0 / (32.0 * 32.0);
        assert!((m.warp_execution_efficiency() - expected).abs() < 1e-12);
    }

    #[test]
    fn coalesced_load_metrics() {
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![Op::GlobalRead {
                    addr: i * 4,
                    size: 4,
                }]
            })
            .collect();
        let (_, m) = run(&lanes);
        assert_eq!(m.gld_transactions, 1);
        assert_eq!(m.gld_requested_bytes, 128);
        assert!((m.gld_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_store_metrics() {
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![Op::GlobalWrite {
                    addr: i * 4096,
                    size: 4,
                }]
            })
            .collect();
        let (_, m) = run(&lanes);
        assert_eq!(m.gst_transactions, 32);
        assert!((m.gst_efficiency() - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn divergent_kinds_serialize() {
        // Half the lanes load, half compute: two issue groups in one step.
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                if i % 2 == 0 {
                    vec![Op::Compute(1)]
                } else {
                    vec![Op::GlobalRead {
                        addr: i * 4,
                        size: 4,
                    }]
                }
            })
            .collect();
        let (out, m) = run(&lanes);
        let cost = CostModel::default();
        // The 16 loads at addrs 4..124 share one 128-byte line.
        let expected = cost.alu_cycles + cost.mem_base_cycles + cost.mem_transaction_cycles;
        assert!(
            (out.cycles - expected).abs() < 1e-9,
            "cycles {}",
            out.cycles
        );
        // 2 issued instructions, 16 active lanes each.
        assert!((m.warp_execution_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let same: Vec<Vec<Op>> = (0..32)
            .map(|_| vec![Op::AtomicGlobal { addr: 64 }])
            .collect();
        let (out_same, m_same) = run(&same);
        let distinct: Vec<Vec<Op>> = (0..32u64)
            .map(|i| vec![Op::AtomicGlobal { addr: i * 4096 }])
            .collect();
        let (out_distinct, m_distinct) = run(&distinct);
        assert_eq!(m_same.atomics_global, 32);
        assert_eq!(m_distinct.atomics_global, 32);
        // Conflicting atomics cost more serialization than scattered ones
        // (scattered pay transactions, conflicting pay replays; replays are
        // the dominant term by construction of the cost model).
        let cost = CostModel::default();
        assert!(
            (out_same.cycles
                - (cost.atomic_base_cycles
                    + 31.0 * cost.atomic_conflict_cycles
                    + cost.mem_transaction_cycles))
                .abs()
                < 1e-9
        );
        assert!(
            (out_distinct.cycles - (cost.atomic_base_cycles + 32.0 * cost.mem_transaction_cycles))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn launches_serialize_and_record_offsets() {
        let mut lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![]).collect();
        lanes[3] = vec![Op::Launch { grid: 7 }];
        lanes[9] = vec![Op::Launch { grid: 8 }];
        let (out, m) = run(&lanes);
        assert_eq!(m.device_launches, 2);
        assert_eq!(out.launches.len(), 2);
        assert_eq!(out.launches[0].grid, 7);
        assert_eq!(out.launches[1].grid, 8);
        assert!(out.launches[0].offset < out.launches[1].offset);
        let cost = CostModel::default();
        assert!((out.cycles - 2.0 * cost.device_launch_issue_cycles).abs() < 1e-9);
    }

    #[test]
    fn partial_warp_counts_against_full_width() {
        let lanes: Vec<Vec<Op>> = (0..8).map(|_| vec![Op::Compute(1)]).collect();
        let (_, m) = run(&lanes);
        assert!((m.warp_execution_efficiency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_lanes_cost_nothing() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![]).collect();
        let (out, m) = run(&lanes);
        assert_eq!(out.cycles, 0.0);
        assert_eq!(m.issue_slots, 0.0);
    }

    #[test]
    fn stall_buckets_partition_work_cycles() {
        // A mixed workload: divergent compute, scattered loads, a launch.
        let mut lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                vec![
                    Op::Compute((i % 7) as u32 + 1),
                    Op::GlobalRead {
                        addr: i * 4096,
                        size: 4,
                    },
                    Op::AtomicGlobal { addr: 8 },
                ]
            })
            .collect();
        lanes[0].push(Op::Launch { grid: 1 });
        let (out, m) = run(&lanes);
        let sum = m.stalls.compute
            + m.stalls.divergence
            + m.stalls.gmem
            + m.stalls.atomic
            + m.stalls.shared
            + m.stalls.launch;
        assert!(
            (sum - m.work_cycles).abs() < 1e-9 * m.work_cycles.max(1.0),
            "bucket sum {sum} != work {}",
            m.work_cycles
        );
        assert!((m.work_cycles - out.cycles).abs() < 1e-12);
        assert!(m.stalls.compute > 0.0);
        assert!(
            m.stalls.divergence > 0.0,
            "uneven trip counts must idle lanes"
        );
        assert!(m.stalls.gmem > 0.0);
        assert!(m.stalls.atomic > 0.0);
        assert!((m.stalls.launch - CostModel::default().device_launch_issue_cycles).abs() < 1e-12);
        assert_eq!(m.stalls.barrier, 0.0, "barriers are charged by the block");
    }

    #[test]
    fn uniform_compute_has_no_divergence_stall() {
        let lanes: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Compute(4)]).collect();
        let (_, m) = run(&lanes);
        assert!((m.stalls.compute - m.work_cycles).abs() < 1e-12);
        assert_eq!(m.stalls.divergence, 0.0);
    }

    #[test]
    fn max_lane_model_attributes_slowest_lane() {
        let device = DeviceConfig::kepler_k20();
        let cost = CostModel {
            divergence: crate::cost::DivergenceModel::MaxLane,
            ..CostModel::default()
        };
        let mut metrics = KernelMetrics::default();
        let mut scratch = AlignScratch::default();
        let lanes: Vec<Vec<Op>> = (0..32u64)
            .map(|i| {
                let mut v = vec![Op::Compute(i as u32 + 1)];
                if i == 31 {
                    v.push(Op::GlobalRead { addr: 0, size: 4 });
                }
                v
            })
            .collect();
        let refs: Vec<&[Op]> = lanes.iter().map(|v| v.as_slice()).collect();
        let out = align_warp(&refs, &device, &cost, &mut metrics, &mut scratch);
        assert_eq!(metrics.stalls.divergence, 0.0);
        assert!(
            (metrics.stalls.total() - out.cycles).abs() < 1e-9,
            "maxlane buckets must sum to the slowest lane"
        );
        assert!(metrics.stalls.gmem > 0.0);
    }

    #[test]
    fn shared_bank_conflicts_cost_replays() {
        let conflict: Vec<Vec<Op>> = (0..32u32)
            .map(|i| vec![Op::SharedRead { addr: i * 128 }])
            .collect();
        let (out, m) = run(&conflict);
        let cost = CostModel::default();
        assert_eq!(m.shared_replays, 32);
        assert!((out.cycles - 32.0 * cost.shared_cycles).abs() < 1e-9);
    }
}
