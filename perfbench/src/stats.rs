//! Order statistics of timing samples.

/// Run `f` call by call until the loop has taken at least `min_s`
/// seconds; the seconds of every call.  `f` is told the call's index.
///
/// Metrics take the median over every call of a run rather than the mean
/// of each loop, so a contended stretch of the host moves the figure only
/// when it covers most of the run.
pub fn timed_calls(min_s: f64, mut f: impl FnMut(usize)) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut calls = Vec::new();
    loop {
        let t = std::time::Instant::now();
        f(calls.len());
        calls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= min_s {
            return calls;
        }
    }
}

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `values`.
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it,
/// so a tail figure always rests on at least ten observations.  Values may
/// be `f64::INFINITY` (a failed request counts as missing every limit).
pub fn nearest_rank(values: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = values.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; at least {MIN_BEYOND} are required",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Overhead of traced passes over untraced ones: the median of the
/// per-pair fractions `traced / untraced - 1`, and their range.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Overhead {
    pub frac: f64,
    pub spread: f64,
    pub pairs: usize,
}

impl Overhead {
    /// From paired `(untraced, traced)` figures of the same work.
    pub fn of(pairs: &[(f64, f64)]) -> Self {
        let fracs: Vec<f64> = pairs.iter().map(|&(u, t)| t / u - 1.0).collect();
        let lo = fracs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = fracs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Overhead {
            frac: median(&fracs),
            spread: hi - lo,
            pairs: fracs.len(),
        }
    }

    /// Resolved when the overhead is positive and at least two pairs
    /// agree closer than the overhead itself; otherwise the figure is
    /// within the noise (tracing cannot make a pass faster).
    pub fn resolved(&self) -> bool {
        self.pairs >= 2 && self.frac > self.spread
    }

    /// One line for standard error.
    pub fn describe(&self) -> String {
        format!(
            "tracing overhead {:+.1}% over {} pairs, spread {:.1}%: {}",
            self.frac * 100.0,
            self.pairs,
            self.spread * 100.0,
            if self.resolved() {
                "resolved"
            } else {
                "unresolved, within the noise"
            }
        )
    }
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_calls_times_each_call_until_the_loop_is_long_enough() {
        let mut seen = Vec::new();
        let calls = timed_calls(0.02, |i| {
            seen.push(i);
            std::thread::sleep(std::time::Duration::from_millis(if i == 0 {
                12
            } else {
                2
            }));
        });
        // One slow call among fast ones: each is timed on its own, so the
        // median is the fast calls' time, not the loop's mean.
        assert_eq!(seen, (0..calls.len()).collect::<Vec<_>>());
        assert!(calls.len() >= 3 && calls.len() <= 6, "{calls:?}");
        assert!(calls[0] >= 0.012);
        assert!(calls.iter().sum::<f64>() >= 0.02);
        assert!(median(&calls) < 0.012);
    }

    #[test]
    fn nearest_rank_reports_its_sample_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = nearest_rank(&values, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(nearest_rank(&values, 50.0).unwrap().value, 500.0);
    }

    #[test]
    fn nearest_rank_refuses_a_thin_tail() {
        // 999 samples leave only 9 beyond p99.
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(nearest_rank(&values, 99.0).is_err());
        assert!(nearest_rank(&values, 98.0).is_ok());
        assert!(nearest_rank(&[], 50.0).is_err());
    }

    #[test]
    fn failures_sort_to_the_tail() {
        let mut values = vec![1.0; 990];
        values.extend([f64::INFINITY; 10]);
        assert_eq!(nearest_rank(&values, 99.0).unwrap().value, 1.0);
        values.push(f64::INFINITY);
        assert!(nearest_rank(&values, 99.0).unwrap().value.is_infinite());
    }

    #[test]
    fn overhead_is_resolved_only_beyond_its_spread() {
        let o = Overhead::of(&[(1.0, 1.10), (2.0, 2.22), (1.0, 1.12)]);
        assert!((o.frac - 0.11).abs() < 1e-12 && (o.spread - 0.02).abs() < 1e-12);
        assert_eq!(o.pairs, 3);
        assert!(o.resolved());
        assert!(!Overhead::of(&[(1.0, 1.05), (1.0, 0.97)]).resolved());
        assert!(!Overhead::of(&[(1.0, 0.90), (1.0, 0.91)]).resolved());
        // One pair has no spread to judge it by.
        assert!(!Overhead::of(&[(1.0, 1.5)]).resolved());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
