//! Statistics, load phases and process probes shared by the workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a window needs before its quantiles count: ten beyond the
/// 90th percentile.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// Latency samples tagged with the window (load segment) they fall in.
#[derive(Default)]
pub struct LatencyLog {
    pub samples: Vec<(usize, f64)>,
}

impl LatencyLog {
    pub fn push(&mut self, window: usize, latency_ms: f64) {
        self.samples.push((window, latency_ms));
    }

    /// `(p50, p90, p99, windows used)`: the [`interquartile_mean`] over
    /// windows of each window's quantiles, counting only windows not in
    /// `invalid` and holding at least [`MIN_WINDOW_SAMPLES`]. A short host
    /// stall then spoils one window instead of the run's tail, and a host
    /// that flips between a fast and a slow speed moves the figure in
    /// proportion to the time spent in each instead of jumping with the
    /// majority, as a median would. Falls back to one window over every
    /// valid sample when no window is large enough.
    pub fn windowed(&self, invalid: &[usize]) -> (f64, f64, f64, usize) {
        let mut by_window: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(w, l) in &self.samples {
            if !invalid.contains(&w) {
                by_window.entry(w).or_default().push(l);
            }
        }
        let qs = [0.50, 0.90, 0.99];
        let mut per_window: Vec<[f64; 3]> = Vec::new();
        for v in by_window
            .values_mut()
            .filter(|v| v.len() >= MIN_WINDOW_SAMPLES)
        {
            v.sort_by(f64::total_cmp);
            per_window.push(qs.map(|q| quantile(v, q)));
        }
        if per_window.is_empty() {
            let mut all: Vec<f64> = by_window.into_values().flatten().collect();
            if all.is_empty() {
                return (f64::NAN, f64::NAN, f64::NAN, 0);
            }
            all.sort_by(f64::total_cmp);
            let [a, b, c] = qs.map(|q| quantile(&all, q));
            return (a, b, c, 1);
        }
        let mid =
            |k: usize| interquartile_mean(&per_window.iter().map(|w| w[k]).collect::<Vec<_>>());
        (mid(0), mid(1), mid(2), per_window.len())
    }
}

/// Closed-loop segment on the calling thread: calls `op(i)` back to back
/// for `duration` (at least [`MIN_WINDOW_SAMPLES`] calls), logging each
/// call's latency under `window` and appending the segment's calls per
/// second to `rates`. `op` returns whether its output checked out.
/// Returns `(attempted, failed)`.
pub fn closed_loop_latency(
    log: &mut LatencyLog,
    rates: &mut Vec<f64>,
    window: usize,
    duration: Duration,
    mut op: impl FnMut(usize) -> bool,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < duration || (attempted as usize) < MIN_WINDOW_SAMPLES {
        let t0 = Instant::now();
        let ok = op(attempted as usize);
        log.push(window, t0.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        failed += u64::from(!ok);
    }
    rates.push(attempted as f64 / start.elapsed().as_secs_f64());
    (attempted, failed)
}

/// Mean of the values between the first and third quartile: robust to
/// a stalled window like a median, but not quantized to one window's
/// count.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let mid = &s[n / 4..n - n / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Closed-loop throughput segment: `threads` clients each call
/// `op(thread, round)` back to back for `duration`; `op` returns
/// `(operations completed, operations failed)`. Appends the completions
/// per second of each whole `window` to `rates` (aggregate them with
/// [`interquartile_mean`]); returns `(attempted, failed)`.
pub fn closed_loop_throughput(
    rates: &mut Vec<f64>,
    threads: usize,
    duration: Duration,
    window: Duration,
    op: impl Fn(usize, usize) -> (u64, u64) + Sync,
) -> (u64, u64) {
    let start = Instant::now();
    let n_windows = (duration.as_nanos() / window.as_nanos()).max(1) as usize;
    let per_thread: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                s.spawn(move || {
                    let mut counts = vec![0u64; n_windows];
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut round = 0usize;
                    while start.elapsed() < duration {
                        let (done, bad) = op(t, round);
                        round += 1;
                        attempted += done;
                        failed += bad;
                        let w = (start.elapsed().as_nanos() / window.as_nanos()) as usize;
                        if w < n_windows {
                            counts[w] += done;
                        }
                    }
                    (counts, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut totals = vec![0u64; n_windows];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (counts, a, f) in per_thread {
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        attempted += a;
        failed += f;
    }
    rates.extend(totals.iter().map(|&c| c as f64 / window.as_secs_f64()));
    (attempted, failed)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether two floats are the same bits.
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 0.0, 5.0, 6.0]),
            3.5
        );
    }

    #[test]
    fn windowed_quantiles_skip_invalid_and_small_windows() {
        let mut log = LatencyLog::default();
        for i in 0..MIN_WINDOW_SAMPLES {
            log.push(0, 1.0 + i as f64 * 1e-3);
            log.push(1, 100.0);
            log.push(2, 2.0 + i as f64 * 1e-3);
        }
        log.push(3, 1e6); // too few samples to count as a window
        let (p50, _, _, used) = log.windowed(&[1]);
        assert_eq!(used, 2);
        // Median of the two valid windows' p50s (nearest rank n/2).
        let mid = (MIN_WINDOW_SAMPLES / 2 - 1) as f64 * 1e-3;
        assert!((p50 - (1.5 + mid)).abs() < 1e-9, "{p50}");
    }
}
