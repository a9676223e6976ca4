//! Order statistics, set-up timing, and process memory.

use std::time::Duration;

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile of `values` (`0 < p <= 1`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Which statistic summarizes the slow end of a workload's latencies:
/// p99 where at least ten samples lie beyond it, else the maximum, or
/// p90 where the slowest items are a group of near-equal ones whose
/// maximum would only pick out noise.
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    /// The largest sample.
    Max,
    /// The 90th percentile.
    P90,
    /// The 99th percentile.
    P99,
}

impl Tail {
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Tail::Max => values.iter().copied().fold(0.0, f64::max),
            Tail::P90 => percentile(values, 0.90),
            Tail::P99 => percentile(values, 0.99),
        }
    }
}

/// Run `setup` `reps` times and return the median of its times in
/// seconds together with the last repetition's result. `setup` times
/// its steps with [`crate::speed::time`] and returns their summed
/// corrected time. Set-up is repeated so that one disturbed repetition
/// does not decide `setup_s`.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (secs, out) = setup();
        times.push(secs);
        last = Some(out);
    }
    (
        median(&times),
        last.expect("at least one set-up repetition"),
    )
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(Tail::P99.of(&v), 990.0);
        assert_eq!(Tail::Max.of(&v), 1000.0);
    }
}
