//! Memory-audit ledger: peak arena bytes, peak sample bytes and process
//! peak-RSS, threaded through every engine's statistics.
//!
//! The ROADMAP north star is a million-user metro on one box; at that scale
//! "how much memory did this run actually need" is a first-class result,
//! not a profiler afterthought. Every engine therefore records a
//! [`MemoryLedger`] alongside its counters: the greedy core tracks the peak
//! footprint of its pair arena and of the samples its slots refer to, the
//! sharded engine sums the largest per-shard peaks, one per worker (a sound
//! bound — no more shards than workers run at once), and everything
//! captures the kernel's own high-water mark (`VmHWM`) at the end of the
//! run.

use crate::json_struct;

/// Peak memory accounting for one run (or one shard of a run).
///
/// All byte figures are *peaks over the run*, not final values: an arena
/// that grows to 2 GiB and is then compacted to 200 MiB reports 2 GiB.
/// `peak_rss_bytes` is process-wide (the kernel's `VmHWM`), so in a sharded
/// run every shard observes the same number; [`MemoryLedger::concurrent`]
/// takes the max rather than summing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    /// Peak bytes held by the pairwise-distance arena (pages, hulls,
    /// signatures, row minima, candidate lists) over the run.
    pub peak_arena_bytes: u64,
    /// Peak bytes of the samples the arena's slots refer to over the run,
    /// at `size_of::<Sample>()` (32) bytes per sample: input fingerprints,
    /// merged ones, and retired ones until the arena compacts them away.
    /// Input slots borrow the caller's fingerprints rather than copy them,
    /// but their samples still count, so the figure measures the working
    /// set of the run whoever owns it.
    pub peak_store_bytes: u64,
    /// Process peak resident-set size (`VmHWM` from `/proc/self/status`)
    /// captured at the end of the run; 0 on platforms without procfs.
    pub peak_rss_bytes: u64,
}

json_struct!(MemoryLedger {
    peak_arena_bytes,
    peak_store_bytes,
    peak_rss_bytes,
});

impl MemoryLedger {
    /// Records an arena footprint observation, keeping the maximum.
    pub fn observe_arena(&mut self, bytes: u64) {
        self.peak_arena_bytes = self.peak_arena_bytes.max(bytes);
    }

    /// Records a sample-bytes observation, keeping the maximum.
    pub fn observe_store(&mut self, bytes: u64) {
        self.peak_store_bytes = self.peak_store_bytes.max(bytes);
    }

    /// Captures the process high-water mark into `peak_rss_bytes`.
    pub fn capture_rss(&mut self) {
        self.peak_rss_bytes = self.peak_rss_bytes.max(process_peak_rss_bytes());
    }

    /// Folds the ledgers of runs that `workers` workers share out, at most
    /// `workers` at a time (the shards of a sharded run): the arena peak
    /// and the sample peak are each the sum of the `workers` largest, which
    /// bounds what the runs can hold at once; process RSS takes the max (it
    /// is already process-wide).
    pub fn concurrent(runs: &[MemoryLedger], workers: usize) -> MemoryLedger {
        let largest = |peak: fn(&MemoryLedger) -> u64| -> u64 {
            let mut peaks: Vec<u64> = runs.iter().map(peak).collect();
            peaks.sort_unstable_by(|a, b| b.cmp(a));
            peaks.iter().take(workers.max(1)).sum()
        };
        MemoryLedger {
            peak_arena_bytes: largest(|l| l.peak_arena_bytes),
            peak_store_bytes: largest(|l| l.peak_store_bytes),
            peak_rss_bytes: runs.iter().map(|l| l.peak_rss_bytes).max().unwrap_or(0),
        }
    }

    /// Folds another ledger into this one taking element-wise maxima: the
    /// right combination for *sequential* phases (stream epochs), whose
    /// footprints are released before the next observation rather than
    /// coexisting — summing them would overstate the bound by the epoch
    /// count.
    pub fn merge_max(&mut self, other: &MemoryLedger) {
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.peak_store_bytes = self.peak_store_bytes.max(other.peak_store_bytes);
        self.peak_rss_bytes = self.peak_rss_bytes.max(other.peak_rss_bytes);
    }
}

/// Reads the process peak resident-set size in bytes from the kernel's
/// `VmHWM` line in `/proc/self/status`. Returns 0 when procfs is absent
/// (non-Linux platforms) or unparsable, never errors.
pub fn process_peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .unwrap_or(0);
                return kib.saturating_mul(1024);
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_keeps_peaks() {
        let mut ledger = MemoryLedger::default();
        ledger.observe_arena(100);
        ledger.observe_arena(50);
        ledger.observe_store(1_000);
        ledger.observe_store(500);
        assert_eq!(ledger.peak_arena_bytes, 100);
        assert_eq!(ledger.peak_store_bytes, 1_000);
    }

    #[test]
    fn concurrent_sums_the_largest_peaks_per_worker_and_maxes_rss() {
        let run = |arena, store, rss| MemoryLedger {
            peak_arena_bytes: arena,
            peak_store_bytes: store,
            peak_rss_bytes: rss,
        };
        let runs = [
            run(10, 3, 5_000),
            run(7, 20, 9_000),
            run(2, 4, 1_000),
            run(9, 1, 2_000),
        ];
        // Two workers: the two largest arena peaks (10 + 9) and, on their
        // own, the two largest sample peaks (20 + 4).
        assert_eq!(MemoryLedger::concurrent(&runs, 2), run(19, 24, 9_000));
        assert_eq!(MemoryLedger::concurrent(&runs, 1), run(10, 20, 9_000));
        // More workers than runs: every run at once.
        assert_eq!(MemoryLedger::concurrent(&runs, 8), run(28, 28, 9_000));
        assert_eq!(MemoryLedger::concurrent(&[], 2), MemoryLedger::default());
    }

    #[test]
    fn rss_capture_is_nonzero_on_linux() {
        let rss = process_peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}
