//! Percentiles and the scheduled-time latency histogram.
//!
//! Every percentile in the benchmark is nearest-rank: the smallest sample
//! such that at least `q · n` samples are at or below it. That keeps the
//! reported value an actual observation and makes p99 of a small sample
//! its maximum, never an interpolation between two runs' worth of noise.

/// Nearest-rank index of quantile `q` in a sorted sample of `n` values.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an unsorted sample (sorted in place).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), q)]
}

/// Median by nearest rank (the lower middle value for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Latencies in whole microseconds, one bucket per microsecond up to a
/// fixed ceiling, so a run of ten million frames costs one increment per
/// frame and a fixed 16 MiB, not a growing sample vector.
pub struct LatencyHist {
    buckets: Vec<u32>,
    /// Samples at or above the ceiling.
    overflow: u64,
    count: u64,
}

/// Histogram ceiling: 2^22 µs, about 4.2 s.
const HIST_BUCKETS: usize = 1 << 22;

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            buckets: vec![0; HIST_BUCKETS],
            overflow: 0,
            count: 0,
        }
    }

    /// Records one latency, nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let us = (ns / 1_000) as usize;
        match self.buckets.get_mut(us) {
            Some(slot) => *slot += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples strictly above `limit_ns` (bucket resolution: a sample in
    /// the limit's own microsecond counts as within it).
    pub fn count_above_ns(&self, limit_ns: u64) -> u64 {
        let first = (limit_ns / 1_000) as usize + 1;
        let in_range: u64 = self
            .buckets
            .get(first..)
            .map_or(0, |tail| tail.iter().map(|&c| u64::from(c)).sum());
        in_range + self.overflow
    }

    /// Nearest-rank quantile in milliseconds, at microsecond resolution
    /// (the upper edge of the bucket holding the rank). `None` when empty
    /// or when the rank falls in the overflow.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = rank(self.count as usize, q) as u64 + 1;
        let mut seen = 0u64;
        for (us, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= target {
                return Some((us + 1) as f64 / 1e3);
            }
        }
        None
    }
}

/// Latency histograms of consecutive stretches of a run, by publish time.
/// A quantile is reported as the median over stretches of each stretch's
/// quantile: a stall or a slow spell of the host confined to one stretch
/// then moves the figure no more than any other single stretch does,
/// where in one histogram over the run it would own the whole tail.
pub struct Stretches {
    stretch_ns: u64,
    hists: Vec<LatencyHist>,
}

impl Stretches {
    /// Stretches of `stretch_ns` covering `0..total_ns`; publishes after
    /// the end fall in the last one.
    pub fn new(stretch_ns: u64, total_ns: u64) -> Self {
        let n = total_ns.div_ceil(stretch_ns).max(1) as usize;
        Stretches {
            stretch_ns,
            hists: (0..n).map(|_| LatencyHist::new()).collect(),
        }
    }

    /// Records one frame's latency, published `published_ns` after the
    /// epoch.
    #[inline]
    pub fn record_ns(&mut self, published_ns: u64, latency_ns: u64) {
        let i = ((published_ns / self.stretch_ns) as usize).min(self.hists.len() - 1);
        self.hists[i].record_ns(latency_ns);
    }

    pub fn count(&self) -> u64 {
        self.hists.iter().map(LatencyHist::count).sum()
    }

    pub fn count_above_ns(&self, limit_ns: u64) -> u64 {
        self.hists.iter().map(|h| h.count_above_ns(limit_ns)).sum()
    }

    /// Median over the non-empty stretches of their quantile `q`, ms;
    /// `None` when no stretch holds a frame or a rank overflowed.
    pub fn median_quantile_ms(&self, q: f64) -> Option<f64> {
        let mut per_stretch = self
            .hists
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_ms(q))
            .collect::<Option<Vec<f64>>>()?;
        (!per_stretch.is_empty()).then(|| median(&mut per_stretch))
    }
}

/// Latency of one frame against its schedule: from the instant it was
/// due to be sent to the instant the tick that published it returned,
/// both in nanoseconds since the run's epoch. A frame enqueued late (the
/// generator was busy ticking) is still charged from its due time, so a
/// stall shows up in every frame it delayed.
#[inline]
pub fn scheduled_latency_ns(due_ns: u64, published_ns: u64) -> u64 {
    published_ns.saturating_sub(due_ns)
}

/// Due time of frame `k` in an open-loop stream of `rate` frames per
/// second starting at the epoch (rounded up to the next nanosecond, so
/// [`frames_due_by`] of a frame's due time always counts that frame).
#[inline]
pub fn due_ns(k: u64, rate: u64) -> u64 {
    (u128::from(k) * 1_000_000_000).div_ceil(u128::from(rate)) as u64
}

/// Number of frames of a `rate`-per-second stream due at or before
/// `now_ns` (frame 0 is due at the epoch).
#[inline]
pub fn frames_due_by(now_ns: u64, rate: u64) -> u64 {
    (u128::from(now_ns) * u128::from(rate) / 1_000_000_000) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        // Small samples: p99 is the maximum, the median the lower middle.
        let mut small = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(percentile(&mut small, 0.99), 4.0);
        assert_eq!(median(&mut small), 2.0);
        let mut odd = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_nothing_panics() {
        percentile(&mut [], 0.5);
    }

    #[test]
    fn histogram_matches_sorted_sample() {
        let mut hist = LatencyHist::new();
        let mut raw = Vec::new();
        for i in 0..10_000u64 {
            // Spread over 0..~50 ms with whole-microsecond values.
            let us = (i * 7_919) % 50_000;
            hist.record_ns(us * 1_000 + 500);
            raw.push(us as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            let expect = (percentile(&mut raw.clone(), q) + 1.0) / 1e3;
            assert_eq!(hist.quantile_ms(q), Some(expect), "q = {q}");
        }
        assert_eq!(hist.count(), 10_000);
    }

    #[test]
    fn histogram_limit_counts_and_overflow() {
        let mut hist = LatencyHist::new();
        hist.record_ns(999);
        hist.record_ns(1_000_000);
        hist.record_ns(1_000_999);
        hist.record_ns(1_001_000);
        hist.record_ns(10_000_000_000);
        assert_eq!(hist.count_above_ns(1_000_000), 2);
        assert_eq!(hist.count_above_ns(0), 4);
        // The overflowed sample holds the top rank.
        assert_eq!(hist.quantile_ms(1.0), None);
        assert_eq!(hist.quantile_ms(0.5), Some(1.001));
        assert_eq!(LatencyHist::new().quantile_ms(0.5), None);
    }

    #[test]
    fn stretches_report_the_median_stretch() {
        let ms = 1_000_000;
        let mut s = Stretches::new(1_000 * ms, 3_000 * ms);
        // Stretch 0 and 2 at 10 ms, stretch 1 stalls at 500 ms; a publish
        // after the end lands in the last stretch.
        for (published, latency) in [(0, 10), (1_500, 500), (2_100, 10), (9_000, 12)] {
            for _ in 0..100 {
                s.record_ns(published * ms, latency * ms);
            }
        }
        assert_eq!(s.count(), 400);
        assert_eq!(s.count_above_ns(100 * ms), 100);
        assert_eq!(s.median_quantile_ms(0.99), Some(12.001));
        assert_eq!(s.median_quantile_ms(0.5), Some(10.001));
        assert_eq!(Stretches::new(ms, ms).median_quantile_ms(0.5), None);
    }

    #[test]
    fn scheduled_latency_charges_from_due_time() {
        let rate = 1_000_000;
        assert_eq!(due_ns(0, rate), 0);
        assert_eq!(due_ns(1_500, rate), 1_500_000);
        // A frame due at 1.5 ms, published by a tick returning at 100 ms.
        assert_eq!(
            scheduled_latency_ns(due_ns(1_500, rate), 100_000_000),
            98_500_000
        );
        // Clock reads never run backwards, but saturate rather than wrap.
        assert_eq!(scheduled_latency_ns(5, 3), 0);
    }

    #[test]
    fn frames_due_counts_the_epoch_frame() {
        let rate = 50_000;
        assert_eq!(frames_due_by(0, rate), 1);
        assert_eq!(frames_due_by(19_999, rate), 1);
        assert_eq!(frames_due_by(20_000, rate), 2);
        assert_eq!(frames_due_by(1_000_000_000, rate), 50_001);
        for rate in [3, 7, 50_000, 1_000_000] {
            for k in [0u64, 1, 2, 7, 49_999, 123_456] {
                // The instant a frame falls due counts it, and the
                // nanosecond before does not.
                let due = due_ns(k, rate);
                assert_eq!(frames_due_by(due, rate), k + 1);
                if k > 0 {
                    assert_eq!(frames_due_by(due - 1, rate), k);
                }
            }
        }
    }
}
