//! Per-thread instruction traces.
//!
//! While a kernel executes functionally, every simulated thread records the
//! sequence of instructions it issued as [`Op`]s. Timing never replays the
//! program — it replays these traces: the 32 lanes of a warp are aligned in
//! lockstep (see [`crate::warp`]) to derive divergence, coalescing and
//! serialization behaviour, exactly the quantities `nvprof` reports and the
//! paper analyzes.

/// One instruction issued by one simulated thread.
///
/// `Sync` and `SyncChildren` are *segment delimiters*: they must be issued
/// uniformly by every thread of a block (the CUDA requirement for
/// `__syncthreads`), which the block executor asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `n` back-to-back arithmetic instructions (run-length encoded so that
    /// large arithmetic bodies do not inflate trace memory).
    Compute(u32),
    /// Global-memory load of `size` bytes at `addr`.
    GlobalRead { addr: u64, size: u8 },
    /// Global-memory store of `size` bytes at `addr`.
    GlobalWrite { addr: u64, size: u8 },
    /// Shared-memory load at byte offset `addr` within the block's space.
    SharedRead { addr: u32 },
    /// Shared-memory store at byte offset `addr`.
    SharedWrite { addr: u32 },
    /// Atomic read-modify-write on global memory at `addr`.
    AtomicGlobal { addr: u64 },
    /// Atomic read-modify-write on shared memory at byte offset `addr`.
    AtomicShared { addr: u32 },
    /// Device-side kernel launch of grid `grid` (index into the engine's
    /// grid table). Launches by multiple lanes of one warp serialize.
    Launch { grid: u32 },
    /// Block-wide barrier (`__syncthreads`).
    Sync,
    /// Block-wide barrier that additionally waits for every child grid this
    /// block has launched so far (the template idiom for
    /// `cudaDeviceSynchronize` inside a parent kernel).
    SyncChildren,
}

impl Op {
    /// Whether this op delimits a barrier segment.
    pub(crate) fn is_delimiter(self) -> bool {
        matches!(self, Op::Sync | Op::SyncChildren)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delimiters() {
        assert!(Op::Sync.is_delimiter());
        assert!(Op::SyncChildren.is_delimiter());
        assert!(!Op::Compute(3).is_delimiter());
        assert!(!Op::GlobalRead { addr: 0, size: 4 }.is_delimiter());
    }

    #[test]
    fn op_is_small() {
        // Traces hold tens of millions of these; keep them at 16 bytes.
        assert!(std::mem::size_of::<Op>() <= 16);
    }
}
