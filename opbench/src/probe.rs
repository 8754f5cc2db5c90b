//! Host-noise diagnostics and the process memory high-water mark.
//!
//! Two fixed probes run with every benchmark run so a reader can tell host
//! drift from a regression: an ALU loop (core clock and steal time) and a
//! pointer chase over an 8 MiB ring (last-level cache and memory latency,
//! which swings far more than the ALU loop on a shared VM).

use std::hint::black_box;
use std::time::Instant;

/// What the two probes measured.
#[derive(Debug, Clone, Copy)]
pub struct HostNoise {
    /// Wall milliseconds of a fixed 50M-step integer mixing loop.
    pub alu_ms: f64,
    /// Mean nanoseconds per dependent load over an 8 MiB random ring.
    pub chase_ns: f64,
}

const ALU_STEPS: u64 = 50_000_000;
const CHASE_SLOTS: usize = 1 << 20; // 8 MiB of u64 indices
const CHASE_STEPS: usize = 4_000_000;

/// Runs both probes (about 0.1 s together).
pub fn host_noise() -> HostNoise {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    let alu_ms = started.elapsed().as_secs_f64() * 1e3;

    // Sattolo's shuffle with a fixed generator: one cycle through every
    // slot, so each load depends on the previous one and prefetchers
    // cannot guess the next address.
    let mut ring: Vec<u64> = (0..CHASE_SLOTS as u64).collect();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..CHASE_SLOTS).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let j = (rng % i as u64) as usize;
        ring.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..CHASE_SLOTS / 4 {
        at = ring[at] as usize; // warm the ring into cache and TLB
    }
    let started = Instant::now();
    for _ in 0..CHASE_STEPS {
        at = ring[black_box(at)] as usize;
    }
    black_box(at);
    let chase_ns = started.elapsed().as_secs_f64() * 1e9 / CHASE_STEPS as f64;
    HostNoise { alu_ms, chase_ns }
}

/// Resets the kernel's peak-RSS counter (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mib`] covers only what ran after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set since start or the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

/// Reads the all-CPU tick counters (`None` without procfs).
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTicks {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// Percent of all CPU time between two readings that the hypervisor gave
/// to other guests: the third host-noise diagnostic.
pub fn steal_pct(from: CpuTicks, to: CpuTicks) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        0.0
    } else {
        to.steal.saturating_sub(from.steal) as f64 * 100.0 / total as f64
    }
}
