//! Order statistics and process measurements shared by the workloads.

use ddtr_serve::loadtest::percentile;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Whole nanoseconds of a duration, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `origin` to `at`.
pub fn offset_ns(origin: Instant, at: Instant) -> u64 {
    nanos(at.saturating_duration_since(origin))
}

/// Latency samples summarised the way every workload reports them: the
/// nearest-rank median and the highest nearest-rank percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples summarised.
    pub count: usize,
    /// Nearest-rank median, ms.
    pub p50_ms: f64,
    /// The tail percentile used for `tail_ms`.
    pub tail_pct: usize,
    /// Nearest-rank value at `tail_pct`, ms.
    pub tail_ms: f64,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile (50..=99) whose nearest rank leaves at
/// least [`TAIL_BEYOND`] of `n` samples beyond it; 50 when none does.
pub fn tail_percentile(n: usize) -> usize {
    (50..=99)
        .rev()
        .find(|&pct| {
            let rank = (pct * n).div_ceil(100).max(1);
            n.saturating_sub(rank) >= TAIL_BEYOND
        })
        .unwrap_or(50)
}

impl Latency {
    /// Summarises nanosecond samples (sorted internally).
    pub fn from_ns(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let tail_pct = tail_percentile(samples.len());
        Latency {
            count: samples.len(),
            p50_ms: percentile(&samples, 50) as f64 / 1e6,
            tail_pct,
            tail_ms: percentile(&samples, tail_pct) as f64 / 1e6,
        }
    }
}

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Work completed per second of timed wall time; 0 when nothing was
/// timed.
pub fn per_second(work: f64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        work * 1e9 / wall_ns as f64
    }
}

/// Times `count` set-ups of `workload`, each in a process of its own: from
/// spawning this executable with `--setup-only 1` to the moment it reports
/// `ready` — process start to the first timed operation. Each process is
/// waited for before the next starts.
///
/// # Errors
///
/// A process that could not start, failed, or never reported `ready`.
pub fn setup_samples(workload: &str, seed: u64, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--setup-only",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start a set-up process: {e}"))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            // A read error leaves `line` short of `ready`, reported below.
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let secs = start.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!(
                "set-up process ended with {status} before it was ready"
            ));
        }
        samples.push(secs);
    }
    Ok(samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A small deterministic generator (SplitMix64) for schedules and seeds:
/// the same workload seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the domain `tag` (distinct tags give
    /// independent streams from one workload seed).
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1500), 99);
        assert_eq!(tail_percentile(300), 96);
        assert_eq!(tail_percentile(5), 50);
    }

    #[test]
    fn per_second_divides_work_by_wall_time() {
        assert!((per_second(3.0, 1_500_000_000) - 2.0).abs() < 1e-12);
        assert_eq!(per_second(3.0, 0), 0.0);
    }
}
