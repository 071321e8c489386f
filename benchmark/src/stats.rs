//! Order statistics: nearest-rank percentiles for latency samples, Python's
//! `statistics.quantiles(n=4)` quartiles for run-to-run spread, and the
//! window estimator that turns per-second values into one gated number.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); `0` for an
/// empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes them,
/// so `compare` reproduces the driver's spread. Fewer than two values yield
/// that value (or `0`) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median (mean of the middle two for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which way a metric improves; decides which quartile of the windows is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One value per measured window, reduced three ways.
///
/// Interference from outside the process (hypervisor stalls, a neighbour's
/// burst) only ever adds time, so the gated number is the quartile on the
/// *good* side: the lower quartile of a cost, the upper quartile of a rate.
/// The across-window median is printed beside it, ungated.
#[derive(Debug, Clone)]
pub struct Windows {
    pub values: Vec<f64>,
    pub better: Better,
}

impl Windows {
    pub fn new(values: Vec<f64>, better: Better) -> Self {
        Self { values, better }
    }

    /// The gated estimate: lower quartile of costs, upper quartile of rates.
    pub fn gated(&self) -> f64 {
        let [q1, _, q3] = quartiles(&self.values);
        match self.better {
            Better::Lower => q1,
            Better::Higher => q3,
        }
    }

    /// The value a tenth of the windows are better than (nearest rank): the
    /// estimate for a phase of many short windows, of which interference may
    /// spoil more than a quarter.
    pub fn best_decile(&self) -> f64 {
        let mut data = self.values.clone();
        data.sort_by(f64::total_cmp);
        if self.better == Better::Higher {
            data.reverse();
        }
        let rank = (data.len() as f64 * 0.1).ceil() as usize;
        data.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Share of windows more than twice as bad as the median window — a
    /// validity signal: a high share means the box was disturbed.
    pub fn slow_share(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let med = self.median();
        let slow = self
            .values
            .iter()
            .filter(|&&v| match self.better {
                Better::Lower => v > 2.0 * med,
                Better::Higher => v < med / 2.0,
            })
            .count();
        slow as f64 / self.values.len() as f64
    }
}

/// SplitMix64: the benchmark's own seeded generator (schedules, key draws,
/// permutations), so the library only ever receives generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never zero, so `ln` is finite).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` ≥ 1).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound.max(1))) >> 64) as u64
    }

    /// Exponential inter-arrival gap, in nanoseconds, of a Poisson process
    /// with `rate_per_s` arrivals per second.
    pub fn exp_gap_ns(&mut self, rate_per_s: f64) -> u64 {
        (-self.next_unit().ln() / rate_per_s * 1e9) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.next_below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s` (rank 0 hottest).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for k in 0..n.max(1) {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_estimator_ignores_injected_stalls() {
        // Twenty one-second windows of a 500 us p50; three of them hit by a
        // 100-400 ms stall. The mean moves by tens of percent, the gated
        // lower quartile and the slow-window share tell the real story.
        let mut values = vec![500.0; 20];
        for (i, v) in values.iter_mut().enumerate() {
            *v += (i % 5) as f64; // ordinary jitter
        }
        values[3] = 100_500.0;
        values[11] = 400_500.0;
        values[17] = 250_500.0;
        let w = Windows::new(values.clone(), Better::Lower);
        assert!((w.gated() - 500.0).abs() <= 2.0, "gated {}", w.gated());
        assert!((w.median() - 502.0).abs() <= 2.0);
        assert_eq!(w.slow_share(), 3.0 / 20.0);
        let mean = values.iter().sum::<f64>() / 20.0;
        assert!(mean > 30_000.0);
        // A rate takes the upper quartile instead.
        let rates = Windows::new(vec![100.0, 100.0, 99.0, 101.0, 20.0, 100.0], Better::Higher);
        assert!(rates.gated() >= 100.0);
        assert!((rates.slow_share() - 1.0 / 6.0).abs() < 1e-12);
        // Many short windows, most of them slowed: the best decile holds.
        let mut short = vec![120.0; 100];
        short[..30].iter_mut().for_each(|v| *v = 300.0);
        short[95..].iter_mut().for_each(|v| *v = 400.0); // catch-up bursts
        let short = Windows::new(short, Better::Higher);
        assert_eq!(short.gated(), 300.0);
        assert_eq!(short.best_decile(), 300.0);
        let mostly_slow: Vec<f64> = (0..100)
            .map(|i| if i < 12 { 300.0 } else { 120.0 })
            .collect();
        let mostly_slow = Windows::new(mostly_slow, Better::Higher);
        assert_eq!(mostly_slow.gated(), 120.0);
        assert_eq!(mostly_slow.best_decile(), 300.0);
        let costs = Windows::new((1..=20).map(f64::from).collect(), Better::Lower);
        assert_eq!(costs.best_decile(), 2.0);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 7);
            (0..1000)
                .map(|_| rng.exp_gap_ns(100_000.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // Mean gap of a 100 k/s process is 10 us.
        let gaps = draw(3);
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((8_500.0..11_500.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_seeded() {
        let zipf = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(5, 0);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        let hot = draws.iter().filter(|&&k| k < 8).count();
        assert!(hot > 5_000, "hot share too small: {hot}");
        assert!(draws.iter().all(|&k| k < 1024));
        let mut again = Rng::new(5, 0);
        assert_eq!(zipf.sample(&mut again), draws[0]);
    }
}
