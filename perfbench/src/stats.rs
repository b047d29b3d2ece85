//! The benchmark's arithmetic: fastest-of-k class timing, the percentile
//! rule, and the quartile spread the steadiness mode reports.

/// A percentile is reported only when at least this many classes lie
/// beyond it, so that it rests on a real tail rather than on one outlier.
pub const MIN_BEYOND: usize = 10;

/// Per-class fastest-of-k timing.
///
/// A workload is a fixed list of job classes visited round-robin; every
/// visit is one repeat. Host speed drifts for tens of seconds at a time, so
/// a class's time is its fastest repeat: the one that caught a quiet moment.
#[derive(Debug, Clone)]
pub struct Fastest {
    best: Vec<f64>,
    best_request: Vec<u64>,
    reps: Vec<u32>,
}

impl Fastest {
    /// An empty table for `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; classes],
            best_request: vec![0; classes],
            reps: vec![0; classes],
        }
    }

    /// Records one repeat of `class` that took `secs`, tagged with the
    /// trace request id of that repeat.
    pub fn record(&mut self, class: usize, secs: f64, request: u64) {
        self.reps[class] += 1;
        if secs < self.best[class] {
            self.best[class] = secs;
            self.best_request[class] = request;
        }
    }

    /// Each class's fastest time.
    pub fn times(&self) -> &[f64] {
        &self.best
    }

    /// The trace request id of each class's fastest repeat.
    pub fn best_requests(&self) -> &[u64] {
        &self.best_request
    }

    /// One undisturbed pass: the sum of the classes' fastest times.
    pub fn pass(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Fewest and most repeats any class got.
    pub fn k_range(&self) -> (u32, u32) {
        let lo = self.reps.iter().copied().min().unwrap_or(0);
        let hi = self.reps.iter().copied().max().unwrap_or(0);
        (lo, hi)
    }
}

/// Nearest-rank percentile `p` (in percent) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] values lie beyond its rank.
pub fn percentile(values: &[f64], p: usize) -> Option<f64> {
    let n = values.len();
    let rank = (p * n).div_ceil(100).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let ld = values.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The quartile spread of `values` as a share of their median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_each_class_minimum_and_its_request() {
        let mut f = Fastest::new(2);
        f.record(0, 0.30, 1);
        f.record(1, 0.50, 2);
        f.record(0, 0.20, 3);
        f.record(1, 0.70, 4);
        f.record(0, 0.25, 5);
        assert_eq!(f.times(), &[0.20, 0.50]);
        assert_eq!(f.best_requests(), &[3, 2]);
        assert!((f.pass() - 0.70).abs() < 1e-12);
        assert_eq!(f.k_range(), (2, 3));
    }

    #[test]
    fn percentile_needs_ten_values_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 50), Some(50.0));
        // 99 values: rank 90, only 9 beyond.
        assert_eq!(percentile(&v[..99], 90), None);
        // 108 classes, the paper-grid size: rank 98, 10 beyond.
        let w: Vec<f64> = (1..=108).map(f64::from).collect();
        assert_eq!(percentile(&w, 90), Some(98.0));
        assert_eq!(percentile(&w, 99), None);
        assert_eq!(percentile(&[], 50), None);
        // Order of the input does not matter.
        let mut r = w.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90), Some(98.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
