//! Order statistics of wall-clock samples, the hypervisor's steal time,
//! and the process's peak memory.

use std::time::Instant;

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a tail value must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile that still has at least
/// [`TAIL_MIN_BEYOND`] samples above it, as `(value, percentile)`.
///
/// With `n` samples that is the `n - 10`-th smallest, whose percentile is
/// `100 (n - 11) / (n - 1)` in the nearest-rank convention. Below 21
/// samples that percentile falls under the median, which is no tail; the
/// median stands in and the percentile reads 50, so the caller can say so.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no values");
    let n = values.len();
    if n < 2 * TAIL_MIN_BEYOND + 1 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_MIN_BEYOND - 1;
    (v[rank], 100.0 * rank as f64 / (n - 1) as f64)
}

/// Ticks per second of the `/proc/stat` counters (Linux's `USER_HZ`, 100
/// on every architecture this benchmark builds for).
const USER_HZ: f64 = 100.0;

/// Cumulative steal time of this machine's CPUs, in seconds: time a
/// hypervisor spent running other guests while one of this machine's
/// virtual CPUs was ready to run. Reads 0 where the kernel reports no
/// steal column (bare metal, or no `/proc/stat`).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// A wall-clock stopwatch that also tracks the steal time elapsed since
/// it started.
///
/// On a virtual machine, wall time includes intervals in which the
/// hypervisor ran other tenants on this machine's CPUs. Those intervals
/// measure the neighbours, not the program, and they come and go over
/// seconds, so [`Stopwatch::elapsed`] also reports the time without them. The counter has
/// `1 / USER_HZ` resolution, so a single short interval can be off by
/// 10 ms; medians over many intervals are not.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    steal: f64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        let steal = steal_s();
        Self {
            wall: Instant::now(),
            steal,
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Seconds since the start as `(wall, net)`: `net` is the wall time
    /// less the steal time meanwhile, never below 0.
    pub fn elapsed(&self) -> (f64, f64) {
        let wall = self.wall_s();
        (wall, (wall - (steal_s() - self.steal)).max(0.0))
    }
}

/// The process's peak resident set size (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable or has no
/// `VmHWM` line (the benchmark needs Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 89.9).abs() < 0.1, "{pct}");
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (3.0, 50.0));
        let v: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&v), (10.0, 50.0));
        assert_eq!(tail(&v[..20]), (9.5, 50.0));
    }

    #[test]
    fn net_time_never_exceeds_wall_time() {
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (wall, net) = watch.elapsed();
        assert!(wall >= 0.02 && net <= wall, "{wall} {net}");
        assert!(steal_s() >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
