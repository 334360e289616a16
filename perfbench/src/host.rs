//! Memory high-water mark and the host-speed drift reference (the rest of
//! the host fingerprint is `pinnsoc_bench::host_info`).

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process, MB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed single-thread integer loop owned by the benchmark, ms. Timed at
/// the start and end of every run so host speed drift is visible next to
/// the metrics; it is reported, never used to scale them.
pub fn reference_loop_ms() -> f64 {
    let start = Instant::now();
    let mut z = black_box(0x5EED_u64);
    for _ in 0..20_000_000u32 {
        z = crate::traffic::mix(z);
    }
    black_box(z);
    start.elapsed().as_secs_f64() * 1e3
}
