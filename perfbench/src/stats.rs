//! Exact order statistics over collected samples.
//!
//! The engine's `LatencyHistogram` reports power-of-two bucket tops, so
//! its percentiles are only good to a factor of two. The benchmark keeps
//! every per-transaction sample instead and reads percentiles off the
//! sorted values.

/// A bag of samples (nanoseconds, or any other unit) with exact
/// nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Room for `n` samples, written once up front so that its pages are
    /// resident from the start: memory that does not grow with the number
    /// of samples a run happens to take.
    pub fn reserved(n: usize) -> Self {
        let mut values = Vec::with_capacity(n);
        values.resize(n, u64::MAX);
        values.clear();
        Samples {
            values,
            sorted: true,
        }
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// How many samples exceed `limit`.
    pub fn count_above(&self, limit: u64) -> usize {
        self.values.iter().filter(|&&v| v > limit).count()
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample
    /// with at least `q * n` samples at or below it. Always one of the
    /// samples, never an interpolation or a bucket bound. 0 when empty.
    pub fn percentile(&mut self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.values.is_empty() {
            return 0;
        }
        self.sort();
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }
}

impl Samples {
    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }
}

/// Samples filed by the fixed-length time slice they were taken in, so
/// that a run can report its typical slice: a stall, a rehash or a
/// burst of load from elsewhere on the host moves one or two slices and
/// not the median of twenty.
#[derive(Debug, Clone)]
pub struct Sliced {
    slice_ns: u64,
    slices: Vec<Samples>,
}

impl Sliced {
    /// `count` slices of `slice_ns` each, from offset 0, with room for
    /// `capacity` samples in all (see [`Samples::reserved`]).
    pub fn new(count: usize, slice_ns: u64, capacity: usize) -> Self {
        assert!(slice_ns > 0, "slices have a length");
        let per = capacity / count.max(1);
        Sliced {
            slice_ns,
            slices: (0..count).map(|_| Samples::reserved(per)).collect(),
        }
    }

    /// Samples in all slices.
    pub fn len(&self) -> usize {
        self.slices.iter().map(Samples::len).sum()
    }

    /// File `v`, taken `at_ns` after the first slice began. Samples past
    /// the last slice are dropped.
    pub fn push(&mut self, at_ns: u64, v: u64) {
        if let Some(s) = self.slices.get_mut((at_ns / self.slice_ns) as usize) {
            s.push(v);
        }
    }

    /// Merge another set taken over the same slices.
    pub fn extend(&mut self, other: Sliced) {
        assert_eq!(self.slice_ns, other.slice_ns, "same slice length");
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
    }

    /// Samples per second in each slice.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.slice_ns as f64 / 1e9;
        self.slices.iter().map(|s| s.len() as f64 / secs).collect()
    }

    /// The `q`-quantile of each slice (0 for an empty one).
    pub fn percentiles(&mut self, q: f64) -> Vec<f64> {
        self.slices
            .iter_mut()
            .map(|s| s.percentile(q) as f64)
            .collect()
    }

    /// The nearest-rank `q`-quantile over every sample of the slices
    /// `keep` marks, found without copying them into one bag: the
    /// smallest sample with at least `q * n` of them at or below it.
    /// 0 when those slices are empty.
    pub fn pooled_percentile(&mut self, keep: &[bool], q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        let mut kept: Vec<&mut Samples> = self
            .slices
            .iter_mut()
            .zip(keep)
            .filter(|&(_, &k)| k)
            .map(|(s, _)| s)
            .collect();
        kept.iter_mut().for_each(|s| s.sort());
        let n: usize = kept.iter().map(|s| s.len()).sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let at_or_below = |v: u64| -> usize {
            kept.iter()
                .map(|s| s.values.partition_point(|&x| x <= v))
                .sum()
        };
        let (mut lo, mut hi) = (
            0u64,
            kept.iter()
                .filter_map(|s| s.values.last())
                .copied()
                .max()
                .unwrap_or(0),
        );
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_or_below(mid) >= rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// Which of `slices` slices the host's hypervisor took little CPU from:
/// those whose steal is at most `allowance`, or at most the median
/// slice's when more than half exceed it. Every slice when `steal` does
/// not cover them all.
pub fn calm(steal: &[u64], slices: usize, allowance: u64) -> Vec<bool> {
    if steal.len() != slices {
        return vec![true; slices];
    }
    let steal: Vec<f64> = steal.iter().map(|&s| s as f64).collect();
    let cut = median(&steal).max(allowance as f64);
    steal.iter().map(|&s| s <= cut).collect()
}

/// The values `keep` marks.
pub fn kept(values: &[f64], keep: &[bool]) -> Vec<f64> {
    values
        .iter()
        .zip(keep)
        .filter(|&(_, &k)| k)
        .map(|(&v, _)| v)
        .collect()
}

/// The mean of the middle half of `values`: a quarter (rounded down) of
/// them is dropped from each end first. As robust to a few wild values
/// as the median, and smoother where the values come in steps, as tail
/// latencies on a 4 ms scheduler tick do. 0 when empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of a small set of measurements (the mean of the two middle
/// values for an even count). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[u64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let mut s = samples(&(1..=100).rev().collect::<Vec<_>>());
        assert_eq!(s.percentile(0.50), 50);
        assert_eq!(s.percentile(0.99), 99);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.001), 1);
    }

    #[test]
    fn percentiles_are_samples_not_bucket_tops() {
        // A power-of-two histogram would report 2048 (or 4096) here.
        let mut s = samples(&[1500, 1500, 1500, 3000]);
        assert_eq!(s.percentile(0.50), 1500);
        assert_eq!(s.percentile(0.75), 1500);
        assert_eq!(s.percentile(0.99), 3000);
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(Samples::default().percentile(0.5), 0);
        let mut one = samples(&[7]);
        assert_eq!(one.percentile(0.5), 7);
        assert_eq!(one.percentile(0.99), 7);
        let mut ten = samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(ten.percentile(0.5), 50);
        assert_eq!(ten.percentile(0.9), 90);
        assert_eq!(ten.percentile(0.91), 100);
    }

    #[test]
    fn push_after_percentile_resorts() {
        let mut s = samples(&[5, 1, 3]);
        assert_eq!(s.percentile(1.0), 5);
        s.push(0);
        assert_eq!(s.percentile(0.25), 0);
        assert_eq!(s.count_above(2), 2);
    }

    #[test]
    fn sliced_files_by_time_and_drops_the_overrun() {
        let mut s = Sliced::new(3, 500, 0);
        for (at, v) in [(0, 1), (499, 9), (500, 4), (1200, 7), (1499, 8), (1500, 99)] {
            s.push(at, v);
        }
        assert_eq!(s.rates(), vec![4e6, 2e6, 4e6]);
        assert_eq!(s.percentiles(0.5), vec![1.0, 4.0, 7.0]);
        assert_eq!(s.percentiles(1.0), vec![9.0, 4.0, 8.0]);
        let mut other = Sliced::new(3, 500, 0);
        other.push(600, 2);
        s.extend(other);
        assert_eq!(s.percentiles(1.0), vec![9.0, 4.0, 8.0]);
        assert_eq!(s.percentiles(0.5), vec![1.0, 2.0, 7.0]);
        assert_eq!(s.len(), 6);
        let both_ends = [true, false, true];
        assert_eq!(s.pooled_percentile(&both_ends, 0.25), 1);
        assert_eq!(s.pooled_percentile(&both_ends, 0.5), 7);
        assert_eq!(s.pooled_percentile(&both_ends, 0.75), 8);
        assert_eq!(s.pooled_percentile(&both_ends, 1.0), 9);
        assert_eq!(s.pooled_percentile(&[true; 3], 0.5), 4);
        assert_eq!(s.pooled_percentile(&[false; 3], 0.5), 0);
    }

    #[test]
    fn calm_keeps_the_slices_with_least_steal() {
        assert_eq!(calm(&[0, 5, 0, 9], 4, 0), vec![true, false, true, false]);
        assert_eq!(calm(&[0, 5, 0, 9], 4, 5), vec![true, true, true, false]);
        assert_eq!(calm(&[0, 0, 0], 3, 0), vec![true; 3]);
        assert_eq!(calm(&[4, 1, 2], 3, 1), vec![false, true, true]);
        assert_eq!(calm(&[9, 8, 7], 3, 1), vec![false, true, true]);
        assert_eq!(calm(&[7], 2, 0), vec![true; 2]);
        assert_eq!(kept(&[1.0, 2.0, 3.0], &[false, true, true]), vec![2.0, 3.0]);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), 2.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(
            interquartile_mean(&[9.0, 1.0, 5.0, 5.0, 6.0, 4.0, 0.0, 99.0]),
            5.0
        );
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
