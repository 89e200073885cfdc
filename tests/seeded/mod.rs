//! Seeded-bug kernels shared by the hazard-checker and elision-soundness
//! suites: one kernel per diagnostic kind, their race-free twins, and
//! generated shared-memory access plans with or without an injected race.

use npar::sim::{BlockCtx, GBuf, Kernel, KernelRef, LaunchConfig, Stream, ThreadCtx, ThreadKernel};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Every thread of the block stores to shared offset 0 in one segment.
pub struct SharedRaceKernel;
impl Kernel for SharedRaceKernel {
    fn name(&self) -> &str {
        "seeded-shared-race"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|t| t.shared_st(0));
    }
}

/// Every thread of every block stores to the same global element — the
/// per-block scans stay quiet; only the cross-block sweep catches it.
pub struct GlobalRaceKernel {
    pub buf: GBuf<u32>,
}
impl ThreadKernel for GlobalRaceKernel {
    fn name(&self) -> &str {
        "seeded-global-race"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.st(&self.buf, 0);
    }
}

/// Each thread stores to its own global element — the race-free twin, the
/// positive control for promotion.
pub struct DisjointWriteKernel {
    pub buf: GBuf<u32>,
}
impl ThreadKernel for DisjointWriteKernel {
    fn name(&self) -> &str {
        "disjoint-writes"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.st(&self.buf, t.global_id());
    }
}

/// The leader touches one shared word past the declared allocation.
pub struct OobKernel {
    pub declared: u32,
}
impl Kernel for OobKernel {
    fn name(&self) -> &str {
        "seeded-shared-oob"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let edge = self.declared;
        blk.leader(|t| t.shared_st(edge));
    }
}

/// Child grid that plainly writes the first `n` elements of a buffer.
pub struct ChildWriter {
    pub buf: GBuf<u32>,
    pub n: usize,
}
impl ThreadKernel for ChildWriter {
    fn name(&self) -> &str {
        "child-writer"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        if i < self.n {
            t.st(&self.buf, i);
        }
    }
}

/// Fire-and-forget parent: launches the child, then reads what the child
/// writes with only a plain barrier in between (no `sync_children`), or
/// with a proper join when `join` is set.
pub struct ForgetfulParent {
    pub child: KernelRef,
    pub buf: GBuf<u32>,
    pub join: bool,
}
impl Kernel for ForgetfulParent {
    fn name(&self) -> &str {
        "seeded-unjoined-read"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let cfg = LaunchConfig::new(1, 32);
        blk.leader(|t| t.launch(&self.child, cfg, Stream::Default));
        if self.join {
            blk.sync_children();
        } else {
            blk.sync();
        }
        blk.for_each_thread(|t| t.ld(&self.buf, 0));
    }
}

/// Launches a child grid of `block_dim`-thread blocks (seeded past the
/// device limit).
pub struct BadLauncher {
    pub child: KernelRef,
    pub block_dim: u32,
}
impl Kernel for BadLauncher {
    fn name(&self) -> &str {
        "seeded-bad-launch"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let cfg = LaunchConfig::new(1, self.block_dim);
        blk.leader(|t| t.launch(&self.child, cfg, Stream::Default));
    }
}

#[derive(Clone, Copy)]
pub enum PlanOp {
    W(u32),
    R(u32),
    A(u32),
}

/// Replays an explicit per-segment, per-lane shared-memory access plan —
/// identically in every block, so clean plans become elidable.
pub struct PlanKernel {
    pub plan: Vec<Vec<Vec<PlanOp>>>, // [segment][lane][ops]
}
impl Kernel for PlanKernel {
    fn name(&self) -> &str {
        "plan"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        for (s, seg) in self.plan.iter().enumerate() {
            if s > 0 {
                blk.sync();
            }
            blk.for_each_thread(|t| {
                for op in &seg[t.thread_idx() as usize] {
                    match *op {
                        PlanOp::W(a) => t.shared_st(a),
                        PlanOp::R(a) => t.shared_ld(a),
                        PlanOp::A(a) => t.shared_atomic(a),
                    }
                }
            });
        }
    }
}

pub const LANES: usize = 32;
/// Lane-private slots 0..32, injection offsets 32..40, a read-only word at
/// 41 and a shared atomic counter at 42 — 43 words of shared memory.
pub const PLAN_SHARED: u32 = 43 * 4;
const RO_WORD: u32 = 41 * 4;
const COUNTER_WORD: u32 = 42 * 4;

/// A plan that is race-free by construction: lanes touch only their own
/// slot, read the read-only word and hit the shared counter atomically.
pub fn race_free_plan(rng: &mut ChaCha8Rng, nsegs: usize) -> Vec<Vec<Vec<PlanOp>>> {
    (0..nsegs)
        .map(|_| {
            (0..LANES)
                .map(|lane| {
                    let own = lane as u32 * 4;
                    (0..rng.gen_range(0usize..4))
                        .map(|_| match rng.gen_range(0u32..5) {
                            0 => PlanOp::W(own),
                            1 => PlanOp::R(own),
                            2 => PlanOp::A(own),
                            3 => PlanOp::R(RO_WORD),
                            _ => PlanOp::A(COUNTER_WORD),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Inject one conflicting pair: a plain write by one lane and any access by
/// another lane to the same word within one segment.
pub fn inject_race(rng: &mut ChaCha8Rng, plan: &mut [Vec<Vec<PlanOp>>]) {
    let seg = rng.gen_range(0..plan.len());
    let l1 = rng.gen_range(0..LANES);
    let l2 = (l1 + 1 + rng.gen_range(0..LANES - 1)) % LANES;
    let addr = (LANES as u32 + rng.gen_range(0u32..8)) * 4;
    plan[seg][l1].push(PlanOp::W(addr));
    plan[seg][l2].push(match rng.gen_range(0u32..3) {
        0 => PlanOp::W(addr),
        1 => PlanOp::R(addr),
        _ => PlanOp::A(addr),
    });
}
