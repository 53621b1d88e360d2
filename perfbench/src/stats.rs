//! Order statistics shared by every workload: medians, the tail rule
//! and failure accounting. Kept in one module so each rule is
//! defined (and tested) once.

/// Percentile of every reported tail. Fixed, not chosen from the
/// sample count: under a fixed `--seconds` the count follows the
/// program's speed, and a percentile that followed the count would let a
/// slowdown lower the percentile it is measured at.
pub const TAIL_PCT: f64 = 90.0;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The slack
/// keeps a product such as 0.999 × 10 000 that lands a hair above an
/// integer from rounding up past it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of ascending samples.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Fewest samples that leave [`TAIL_BEYOND`] beyond percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n >= rank(n, p) + TAIL_BEYOND)
        .expect("some n suffices")
}

/// A timing summary: median, tail at [`TAIL_PCT`], sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise unsorted samples with the tail at [`TAIL_PCT`]. Panics
    /// unless at least [`TAIL_BEYOND`] samples lie beyond it: a run too
    /// short for its tail is misconfigured.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        assert!(
            s.len() >= min_samples(TAIL_PCT),
            "{} samples leave fewer than {TAIL_BEYOND} beyond p{TAIL_PCT}",
            s.len()
        );
        Self {
            p50: median(&s),
            tail: percentile(&s, TAIL_PCT),
            n: s.len(),
        }
    }

    /// One human-readable line, e.g. `p50 12.1 / p90 15.3 over 300`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit} / p{TAIL_PCT} {:.3} {unit} over {} samples",
            self.p50, self.tail, self.n
        )
    }
}

/// Percentile `p` of a latency population in which `missing` further
/// operations never met the limit (refused, shed or late): they rank
/// above every measured latency, so the percentile is infinite once they
/// reach past it.
pub fn percentile_with_misses(latencies: &[f64], missing: usize, p: f64) -> f64 {
    let mut s = latencies.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() + missing;
    assert!(n > 0, "percentile of no operations");
    let r = rank(n, p);
    if r > s.len() {
        f64::INFINITY
    } else {
        s[r - 1]
    }
}

/// Failed operations over attempted ones.
pub fn fail_frac(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "no operation attempted");
    assert!(
        failed <= attempted,
        "{failed} failures out of {attempted} attempts"
    );
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_samples_leaves_ten_beyond() {
        for p in [50.0, 75.0, 90.0, 99.0, 99.9] {
            let n = min_samples(p);
            assert_eq!(n - rank(n, p), TAIL_BEYOND, "p{p}");
            assert!(n - 1 < rank(n - 1, p) + TAIL_BEYOND, "p{p}");
        }
    }

    #[test]
    fn fixed_tail_needs_ten_beyond() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(75.0), 40);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(99.9), 10_000);
        // enough samples for p99 still report p90
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail, 900.0);
    }

    #[test]
    #[should_panic(expected = "fewer than 10 beyond p90")]
    fn fixed_tail_rejects_too_few_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        Summary::of(&xs);
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.p50, s.tail, s.n), (50.0, 90.0, 100));
    }

    #[test]
    fn misses_rank_above_every_latency() {
        let lat: Vec<f64> = (1..=990).map(f64::from).collect();
        // 10 misses out of 1000: p99 is still a measured latency
        assert_eq!(percentile_with_misses(&lat, 10, 99.0), 990.0);
        // 11 misses push p99 past every measured latency
        let lat: Vec<f64> = (1..=989).map(f64::from).collect();
        assert_eq!(percentile_with_misses(&lat, 11, 99.0), f64::INFINITY);
        assert_eq!(percentile_with_misses(&lat, 11, 50.0), 500.0);
        assert_eq!(percentile_with_misses(&[], 3, 50.0), f64::INFINITY);
    }

    #[test]
    fn fail_frac_counts_against_attempts() {
        assert_eq!(fail_frac(200, 0), 0.0);
        assert_eq!(fail_frac(200, 3), 0.015);
    }

    #[test]
    #[should_panic(expected = "failures out of")]
    fn fail_frac_rejects_more_failures_than_attempts() {
        fail_frac(2, 3);
    }
}
