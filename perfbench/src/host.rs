//! Process and host readings: peak resident memory and the memory-bound
//! probe that records how contended the host was during a run.

use std::time::Instant;

/// `VmHWM` (peak resident set) of process `pid` in MiB, from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak resident set of process `pid` to its current size, so
/// the next `peak_rss_mb` reading covers only what follows.
pub fn reset_peak_rss(pid: &str) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// A fixed pointer chase over an 8 MiB permutation (larger than common
/// last-level caches), in milliseconds. Its time tracks memory contention
/// from other processes on the host; it is a diagnostic, not a gated
/// metric.
pub fn memory_probe_ms() -> f64 {
    const SLOTS: usize = 1 << 20; // 8 MiB of u64
    const STEPS: usize = 1 << 21;
    // A single cycle through every slot (Sattolo's shuffle) with a fixed
    // LCG, so the access pattern is the same on every run.
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let started = Instant::now();
    let mut at = 0usize;
    for _ in 0..STEPS {
        at = next[at] as usize;
    }
    std::hint::black_box(at);
    started.elapsed().as_secs_f64() * 1e3
}
