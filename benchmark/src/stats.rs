//! Order statistics and process measurements.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The uncontended estimate of a host time: the mean of the fastest tenth
/// of its samples (at least the fastest three).
///
/// The shared VMs this runs on switch between an uncontended and a
/// contended speed, about 1.8x apart, every few seconds. The median of a
/// run's units then depends on how long the run happened to be contended;
/// the fastest tenth measures the uncontended mode, which any run of a few
/// seconds visits.
pub fn fast(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = (sorted.len() / 10).max(3).min(sorted.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method): `(q1, median, q3)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m % 4) as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Paces repeated set-ups through a run, so their samples see the same
/// mix of host speeds as the timed units do.
pub struct Pacer {
    next: Instant,
    every: Duration,
}

impl Pacer {
    /// First due `every_s` seconds from now.
    pub fn new(every_s: f64) -> Self {
        let every = Duration::from_secs_f64(every_s);
        Pacer {
            next: Instant::now() + every,
            every,
        }
    }

    /// Whether the next set-up is due (and if so, schedules the one after).
    pub fn due(&mut self) -> bool {
        let now = Instant::now();
        if now < self.next {
            return false;
        }
        self.next = now + self.every;
        true
    }
}

/// A deadline for the timed phase: true once `budget` has passed since
/// construction.
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// Starts the clock.
    pub fn new(seconds: f64) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    /// Whether the budget is spent.
    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(fast(&v), 5.5);
        assert_eq!(fast(&v[..5]), 2.0);
    }
}
