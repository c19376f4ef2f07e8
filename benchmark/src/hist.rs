//! Latency histogram and the two order statistics the benchmark
//! reports: a percentile that is only given when enough samples lie
//! beyond it, and the median of per-round rates.
//!
//! The histogram is log-linear (32 sub-buckets per power of two, so a
//! bucket is at most 3.1 % wide) and interpolates inside the bucket:
//! memory is constant whatever the op count, which keeps `peak_rss_mb`
//! independent of how many calls a run managed to make.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets needed to cover the whole `u64` nanosecond range.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics guide, section 1).
pub const MIN_BEYOND: u64 = 10;

/// Lower edge and width of bucket `idx`, in nanoseconds.
fn bucket_span(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    ((SUB + (idx & (SUB - 1))) << shift, 1 << shift)
}

/// Single-owner latency histogram (one per client thread and op kind).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Hist {
    /// The bucket a latency falls in.
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift as u64 + 1) << SUB_BITS) + ((ns >> shift) - SUB)) as usize
    }

    /// A histogram from per-bucket counts kept elsewhere (the tracer's
    /// per-thread cells).
    pub fn from_counts(counts: Vec<u64>) -> Hist {
        assert_eq!(counts.len(), BUCKETS);
        let total = counts.iter().sum();
        Hist { counts, total }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-quantile (`0 < p < 1`) in nanoseconds, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + MIN_BEYOND {
            return None;
        }
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (lo, width) = bucket_span(idx);
                let within = (rank - before) as f64 - 0.5;
                return Some(lo as f64 + width as f64 * within / c as f64);
            }
            before += c;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.total)
    }
}

/// Latencies of one leg, kept apart by the fifth of the leg they fell
/// in. A percentile is the median of the five groups' percentiles, so
/// a stretch of the run during which the host was slow moves it far
/// less than it moves the percentile of the pooled sample.
#[derive(Clone)]
pub struct Grouped(Vec<Hist>);

pub const GROUPS: usize = 5;

impl Default for Grouped {
    fn default() -> Self {
        Grouped(vec![Hist::default(); GROUPS])
    }
}

impl Grouped {
    /// The group of latencies that fall `done` of the way through the
    /// leg (a leg runs a little past its end: that is the last group).
    pub fn group_at(done: f64) -> usize {
        ((done * GROUPS as f64) as usize).min(GROUPS - 1)
    }

    #[inline]
    pub fn record(&mut self, group: usize, ns: u64) {
        self.0[group].record(ns);
    }

    pub fn merge(&mut self, other: &Grouped) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.merge(b);
        }
    }

    pub fn pooled(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.0 {
            all.merge(h);
        }
        all
    }

    /// The `p`-quantile in nanoseconds: the median over the groups when
    /// every group has [`MIN_BEYOND`] samples beyond it, else that of
    /// the pooled sample, else `None`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let per_group: Option<Vec<f64>> = self.0.iter().map(|h| h.percentile(p)).collect();
        match per_group {
            Some(mut each) => Some(median(&mut each)),
            None => self.pooled().percentile(p),
        }
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut prev_end = 0u64;
        for idx in 0..BUCKETS - 1 {
            let (lo, width) = bucket_span(idx);
            assert_eq!(lo, prev_end, "bucket {idx} starts where the last ended");
            assert_eq!(Hist::bucket_of(lo), idx);
            assert_eq!(Hist::bucket_of(lo + width - 1), idx);
            assert!(lo < SUB || (width as f64) / (lo as f64) <= 1.0 / SUB as f64);
            prev_end = lo + width;
        }
        assert_eq!(Hist::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentile_honours_the_ten_samples_beyond_rule() {
        let mut h = Hist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        // p99 of 1000 samples is rank 990: exactly ten samples beyond.
        assert!(h.percentile(0.99).is_some());
        let mut short = Hist::default();
        for ns in 1..=999 {
            short.record(ns);
        }
        assert!(short.percentile(0.99).is_none(), "only nine samples beyond rank 990");
        assert!(short.percentile(0.95).is_some());
    }

    #[test]
    fn grouped_percentile_is_the_median_group_and_degrades_gracefully() {
        let mut g = Grouped::default();
        for group in 0..GROUPS {
            // Group 3 is a stretch during which everything took 10x.
            let scale = if group == 3 { 10 } else { 1 };
            for i in 0..2000u64 {
                g.record(group, scale * (1000 + i));
            }
        }
        let clean = g.0[0].percentile(0.99).unwrap();
        assert_eq!(g.percentile(0.99), Some(clean));
        assert!(g.pooled().percentile(0.99).unwrap() > 5.0 * clean);
        assert_eq!((Grouped::group_at(0.0), Grouped::group_at(0.39)), (0, 1));
        assert_eq!((Grouped::group_at(1.0), Grouped::group_at(1.7)), (GROUPS - 1, GROUPS - 1));

        // 200 samples a group: no group supports p99, the pool (1000
        // samples, ten beyond rank 990) just does.
        let mut small = Grouped::default();
        for i in 0..1000u64 {
            small.record(Grouped::group_at(i as f64 / 1000.0), 100 + i);
        }
        assert!(small.pooled().percentile(0.99).is_some());
        assert_eq!(small.percentile(0.99), small.pooled().percentile(0.99));
        let mut tiny = Grouped::default();
        for i in 0..150u64 {
            tiny.record(0, i);
        }
        assert!(tiny.percentile(0.99).is_none() && tiny.percentile(0.9).is_some());
        assert!(Grouped::default().percentile(0.5).is_none());
    }

    #[test]
    fn percentile_is_close_to_the_exact_order_statistic() {
        let mut h = Hist::default();
        let mut exact: Vec<u64> = (0..100_000u64).map(|i| 300 + (i * 7919) % 50_000).collect();
        for &ns in &exact {
            h.record(ns);
        }
        exact.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let want = exact[(p * exact.len() as f64).ceil() as usize - 1] as f64;
            let got = h.percentile(p).unwrap();
            assert!((got - want).abs() / want < 0.02, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn from_counts_equals_recording() {
        let mut h = Hist::default();
        let mut counts = vec![0u64; BUCKETS];
        for ns in (0..5000u64).map(|i| i * i) {
            h.record(ns);
            counts[Hist::bucket_of(ns)] += 1;
        }
        let built = Hist::from_counts(counts);
        assert_eq!((built.count(), built.percentile(0.5)), (5000, h.percentile(0.5)));
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&mut [3.0, 1.0, 100.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
