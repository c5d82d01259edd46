//! The benchmark's own arithmetic: medians and spreads of repeated
//! samples, the tail percentile a sample count supports, and the
//! open-loop timing rules (latency from the due time, generator
//! lateness).

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's
/// steadiness check uses. A single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python's integer arithmetic verbatim, including its linear
    // extrapolation beyond the data for very small counts.
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; 0 for a zero
/// median (nothing to scale by).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, for `count` samples; `None` when even the
/// lowest rung has too few.
#[must_use]
pub fn tail_percentile(count: u64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| (count as f64) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100] of `values`; `NaN` when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len() as u64, p) as usize]
}

/// Nearest-rank percentile `p` of a multiset given as
/// `(value, multiplicity)` pairs; `NaN` when empty.
#[must_use]
pub fn weighted_percentile(pairs: &[(f64, u64)], p: f64) -> f64 {
    let mut v: Vec<(f64, u64)> = pairs.iter().copied().filter(|&(_, c)| c > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return f64::NAN;
    }
    let want = rank(total, p);
    let mut seen = 0u64;
    for &(x, c) in &v {
        seen += c;
        if seen > want {
            return x;
        }
    }
    v[v.len() - 1].0
}

/// 0-based index of the nearest-rank `p`-th percentile of `n` values.
fn rank(n: u64, p: f64) -> u64 {
    let r = (p / 100.0 * n as f64).ceil() as u64;
    r.clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// When slot `slot` of an open loop with `slot_s`-second slots was
/// due, in seconds after the schedule's origin.
#[must_use]
pub fn due_s(slot: u64, slot_s: f64) -> f64 {
    slot as f64 * slot_s
}

/// Latency of a verdict read at `read_s` for an offer of slot `slot`:
/// counted from when the slot was *due*, not from when the generator
/// got round to sending it, so a stalled generator's delay is charged
/// to every offer it held back.
#[must_use]
pub fn latency_from_due_s(slot: u64, slot_s: f64, read_s: f64) -> f64 {
    (read_s - due_s(slot, slot_s)).max(0.0)
}

/// How late the generator sent slot `slot`: send time minus due time,
/// never negative (it never sends early).
#[must_use]
pub fn lateness_s(slot: u64, slot_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s(slot, slot_s)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(500), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        // The multiset {1×98, 5×2}: p50 = 1, p99 = 5.
        let pairs = [(5.0, 2), (1.0, 98)];
        assert_eq!(weighted_percentile(&pairs, 50.0), 1.0);
        assert_eq!(weighted_percentile(&pairs, 98.0), 1.0);
        assert_eq!(weighted_percentile(&pairs, 99.0), 5.0);
        assert!(weighted_percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // 250 µs slots: slot 4 was due at 1 ms. A verdict read at
        // 1.3 ms took 0.3 ms, even if the generator only sent the
        // slot at 1.2 ms.
        let slot_s = 250e-6;
        assert!((due_s(4, slot_s) - 1e-3).abs() < 1e-15);
        assert!((latency_from_due_s(4, slot_s, 1.3e-3) - 0.3e-3).abs() < 1e-12);
        assert!((lateness_s(4, slot_s, 1.2e-3) - 0.2e-3).abs() < 1e-12);
        // Sending on time is zero lateness, never negative.
        assert_eq!(lateness_s(4, slot_s, 0.9e-3), 0.0);
        assert_eq!(latency_from_due_s(4, slot_s, 0.5e-3), 0.0);
    }
}
