//! Summary statistics over the benchmark's own samples: percentiles,
//! means, ratios with their base, and span self time.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between the two closest ranks (the convention of NumPy's default
/// and of Python's `statistics.quantiles(method="inclusive")`).
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The median, over consecutive windows of `window` samples, of each
/// window's `p`-th percentile, and the number of windows. A tail
/// percentile read this way is not moved by one burst of outside
/// noise. With fewer than `window` samples the whole sample is one
/// window; a partial last window is dropped.
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64) -> Option<(f64, usize)> {
    if samples.len() < window.max(1) {
        return percentile(samples, p).map(|v| (v, 1));
    }
    let per_window: Vec<f64> =
        samples.chunks_exact(window).filter_map(|w| percentile(w, p)).collect();
    median(&per_window).map(|m| (m, per_window.len()))
}

/// Events per second as the median over consecutive `width`-second
/// windows of `[0, elapsed)`, and the number of windows. `events` are
/// `(seconds since start, count)`. A partial last window is dropped;
/// a run shorter than one window is one window of its own length.
pub fn windowed_rate(events: &[(f64, u64)], elapsed: f64, width: f64) -> Option<(f64, usize)> {
    if elapsed <= 0.0 || width <= 0.0 {
        return None;
    }
    let windows = (elapsed / width).floor() as usize;
    if windows == 0 {
        let total: u64 = events.iter().map(|e| e.1).sum();
        return Some((total as f64 / elapsed, 1));
    }
    let mut counts = vec![0u64; windows];
    for &(at, n) in events {
        let w = (at / width).floor();
        if w >= 0.0 && (w as usize) < windows {
            counts[w as usize] += n;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates).map(|m| (m, windows))
}

/// A ratio that keeps its base: `part / base`, undefined on an empty
/// base.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratio {
    /// Numerator count.
    pub part: u64,
    /// Denominator count.
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or `None` when the base is 0.
    pub fn value(&self) -> Option<f64> {
        (self.base > 0).then(|| self.part as f64 / self.base as f64)
    }

    /// `"0.9950 (995/1000)"`, or `"n/a (0/0)"`.
    pub fn describe(&self) -> String {
        match self.value() {
            Some(v) => format!("{v:.4} ({}/{})", self.part, self.base),
            None => format!("n/a ({}/{})", self.part, self.base),
        }
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap each other
/// or stick out of the parent; only the covered part of the parent is
/// subtracted, once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 99.0).unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_of_windows() {
        // Three windows of 4; one holds a burst of outliers.
        let xs = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 400.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(windowed_percentile(&xs, 4, 100.0), Some((4.0, 3)));
        // A partial last window is dropped.
        assert_eq!(windowed_percentile(&xs[..10], 4, 100.0), Some((202.0, 2)));
        // Fewer samples than a window: one window of everything.
        assert_eq!(windowed_percentile(&xs[..3], 4, 100.0), Some((3.0, 1)));
        assert_eq!(windowed_percentile(&[], 4, 50.0), None);
    }

    #[test]
    fn windowed_rate_takes_the_median_of_windows() {
        // 2.5 s: two full 1-s windows (10 and 30 events, a stall
        // between), the partial third dropped.
        let events = [(0.1, 4), (0.9, 6), (1.0, 10), (1.5, 20), (2.2, 99)];
        assert_eq!(windowed_rate(&events, 2.5, 1.0), Some((20.0, 2)));
        assert_eq!(windowed_rate(&events[..2], 0.5, 1.0), Some((20.0, 1)));
        assert_eq!(windowed_rate(&events, 0.0, 1.0), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio { part: 995, base: 1000 };
        assert_eq!(r.value(), Some(0.995));
        assert_eq!(r.describe(), "0.9950 (995/1000)");
        let empty = Ratio { part: 0, base: 0 };
        assert_eq!(empty.value(), None);
        assert_eq!(empty.describe(), "n/a (0/0)");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((10, 20), &[]), 10);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 60)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested child inside another child.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Fully covered, and empty parent.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
        assert_eq!(self_time((5, 5), &[(0, 10)]), 0);
    }
}
