//! Memory-system models: global-memory coalescing and shared-memory bank
//! conflicts.
//!
//! Coalescing follows the Kepler L1 model the paper profiles against: a warp
//! memory instruction is serviced in units of `mem_transaction_bytes`
//! (128-byte cache lines); the number of *distinct* lines touched by the
//! active lanes is the transaction count. `nvprof`'s `gld_efficiency` /
//! `gst_efficiency` are then requested bytes over transferred bytes —
//! fully-coalesced 4-byte accesses hit 100 %, a fully scattered warp hits
//! 32 lanes × 4 B / 32 lines × 128 B ≈ 3.1 %, which is exactly the range
//! Table I of the paper reports.

/// The cache lines one warp-wide global access touches, gathered lane by
/// lane while the aligner walks its live lanes. Reused across accesses:
/// [`LineSet::clear`] keeps the capacity.
#[derive(Debug, Default)]
pub(crate) struct LineSet {
    lines: Vec<u64>,
    /// Whether some line arrived below its predecessor. Coalesced and
    /// strided warps gather their lines in ascending order, so counting
    /// distinct lines usually needs no sort.
    unsorted: bool,
    /// Bytes the lanes asked for.
    pub requested_bytes: u64,
    /// Lanes that contributed an access.
    pub lanes: u32,
}

impl LineSet {
    /// Add one lane's access of `size` bytes at `addr` on lines of
    /// `1 << shift` bytes. A single lane access can straddle a line
    /// boundary, and then counts every line it touches.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64, size: u8, shift: u32) {
        self.requested_bytes += u64::from(size);
        self.lanes += 1;
        let first = addr >> shift;
        let last = (addr + u64::from(size).max(1) - 1) >> shift;
        if self.lines.last().is_some_and(|&prev| first < prev) {
            self.unsorted = true;
        }
        self.lines.extend(first..=last);
    }

    /// Distinct lines touched: the access's transaction count.
    pub(crate) fn transactions(&mut self) -> u64 {
        if self.unsorted {
            self.lines.sort_unstable();
            self.unsorted = false;
        }
        match self.lines.split_first() {
            None => 0,
            Some((_, rest)) => {
                1 + self.lines.iter().zip(rest).filter(|(a, b)| a != b).count() as u64
            }
        }
    }

    /// Forget every access, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.lines.clear();
        self.unsorted = false;
        self.requested_bytes = 0;
        self.lanes = 0;
    }
}

/// Lines a single lane's access touches on its own: the transaction count
/// of a one-lane issue group.
#[inline]
pub(crate) fn lines_spanned(addr: u64, size: u8, shift: u32) -> u64 {
    let first = addr >> shift;
    let last = (addr + u64::from(size).max(1) - 1) >> shift;
    last - first + 1
}

/// Shared-memory bank of byte offset `addr` (banks are 4-byte
/// interleaved).
#[inline]
pub(crate) fn bank(addr: u32, banks: u32) -> u32 {
    (addr / 4) % banks
}

/// Maximum number of entries sharing one value. Over the banks a warp's
/// shared access hits, this is its replay count (a conflict-free access
/// replays once); over the addresses of an atomic, its serialization
/// (lanes atomically updating the same address serialize). Zero for no
/// entries.
pub(crate) fn max_multiplicity<T: Ord + Copy>(vals: &mut [T]) -> u64 {
    if vals.len() <= 1 {
        return vals.len() as u64;
    }
    vals.sort_unstable();
    let mut max_mult = 1u64;
    let mut run = 1u64;
    for i in 1..vals.len() {
        if vals[i] == vals[i - 1] {
            run += 1;
            max_mult = max_mult.max(run);
        } else {
            run = 1;
        }
    }
    max_mult
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transactions and requested bytes of one access on 128-byte lines.
    fn co(accesses: &[(u64, u8)]) -> (u64, u64) {
        let mut set = LineSet::default();
        for &(addr, size) in accesses {
            set.push(addr, size, 7);
        }
        let tx = set.transactions();
        (tx, set.requested_bytes)
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
        assert_eq!(co(&accesses), (1, 128));
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_lane() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|i| (i * 4096, 4)).collect();
        assert_eq!(co(&accesses), (32, 128));
    }

    #[test]
    fn descending_and_interleaved_lines_are_counted_once() {
        let down: Vec<(u64, u8)> = (0..32).rev().map(|i| (i * 4096, 4)).collect();
        assert_eq!(co(&down).0, 32);
        let zigzag: Vec<(u64, u8)> = (0..32).map(|i| ((i % 2) * 4096, 4)).collect();
        assert_eq!(co(&zigzag).0, 2);
    }

    #[test]
    fn straddling_access_counts_both_lines() {
        assert_eq!(co(&[(126, 4)]).0, 2);
        assert_eq!(lines_spanned(126, 4, 7), 2);
        assert_eq!(lines_spanned(124, 4, 7), 1);
        // A line narrower than the access: every touched line counts.
        assert_eq!(lines_spanned(0, 8, 1), 4);
        let mut set = LineSet::default();
        set.push(0, 8, 1);
        assert_eq!(set.transactions(), 4);
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|_| (256, 4)).collect();
        assert_eq!(co(&accesses).0, 1);
    }

    #[test]
    fn empty_and_cleared_sets() {
        assert_eq!(co(&[]), (0, 0));
        let mut set = LineSet::default();
        set.push(4096, 4, 7);
        set.push(0, 4, 7);
        assert_eq!(set.transactions(), 2);
        set.clear();
        assert_eq!(
            (set.transactions(), set.requested_bytes, set.lanes),
            (0, 0, 0)
        );
        set.push(0, 4, 7);
        assert_eq!(
            (set.transactions(), set.requested_bytes, set.lanes),
            (1, 4, 1)
        );
    }

    #[test]
    fn bank_conflicts() {
        let replays = |addrs: &[u32]| {
            let mut banks: Vec<u32> = addrs.iter().map(|&a| bank(a, 32)).collect();
            max_multiplicity(&mut banks)
        };
        // 32 lanes, consecutive words: conflict-free.
        let free: Vec<u32> = (0..32).map(|i| i * 4).collect();
        assert_eq!(replays(&free), 1);
        // All lanes to the same bank (stride 32 words): 32-way conflict.
        let bad: Vec<u32> = (0..32).map(|i| i * 32 * 4).collect();
        assert_eq!(replays(&bad), 32);
        // Stride-2 words: 2-way conflict.
        let two: Vec<u32> = (0..32).map(|i| i * 8).collect();
        assert_eq!(replays(&two), 2);
        assert_eq!(replays(&[]), 0);
    }

    #[test]
    fn multiplicity() {
        assert_eq!(max_multiplicity::<u64>(&mut []), 0);
        assert_eq!(max_multiplicity(&mut [9u64]), 1);
        assert_eq!(max_multiplicity(&mut [1u64, 2, 3]), 1);
        assert_eq!(max_multiplicity(&mut [5u64, 5, 5, 2, 2]), 3);
        assert_eq!(max_multiplicity(&mut [7u32; 32]), 32);
    }
}
