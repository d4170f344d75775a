//! The machine block of every result: core and thread counts, SIMD
//! dispatch level, peak resident memory and a STREAM-triad bandwidth
//! ceiling measured in the same run.

use rayon::prelude::*;
use std::time::Instant;

/// Elements per triad array: 448 MiB of f64 each, at least four times the
/// 105 MB last-level cache of the machine this benchmark was sized on.
const TRIAD_LEN: usize = 56 << 20;
const TRIAD_REPS: usize = 4;

pub struct Triad {
    /// Best of the timed rounds, counted as 24 bytes per element.
    pub gbps: f64,
    pub array_bytes: u64,
}

/// `a[i] = b[i] + q·c[i]` over three arrays far beyond the last-level
/// cache, on the same thread pool the workloads use.
pub fn stream_triad() -> Triad {
    const CHUNK: usize = 1 << 16;
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let q = 0.42f64;
    let mut best = 0.0f64;
    for _ in 0..TRIAD_REPS {
        let t = Instant::now();
        a.par_chunks_mut(CHUNK).enumerate().for_each(|(k, ab)| {
            let base = k * CHUNK;
            for (i, v) in ab.iter_mut().enumerate() {
                *v = b[base + i] + q * c[base + i];
            }
        });
        std::hint::black_box(&a);
        best = best.max((TRIAD_LEN * 24) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    assert_eq!(a[TRIAD_LEN - 1], 1.0 + q * 2.0, "triad produced a wrong value");
    Triad { gbps: best, array_bytes: (TRIAD_LEN * 8) as u64 }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Size of the last-level cache in bytes as the kernel reports it (0 when
/// unknown).
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else { break };
        let text = text.trim();
        let (digits, scale) = match text.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match text.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (text, 1),
            },
        };
        best = best.max(digits.parse::<u64>().unwrap_or(0) * scale);
    }
    best
}

/// Machine-wide `(stolen, total)` CPU jiffies from `/proc/stat`: time the
/// hypervisor ran something else while this guest had work. Its share
/// over a run explains timing noise from other tenants.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn simd_level() -> String {
    format!("{:?}", ls_kernels::simd::level()).to_lowercase()
}
