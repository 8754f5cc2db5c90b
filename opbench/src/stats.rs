//! Order statistics with the benchmark's percentile rule: a percentile is
//! only reported where at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: the value, the level it was actually taken at
/// and the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// The level the value was taken at (lowered from the requested level
    /// when too few samples lie beyond it).
    pub level: f64,
    /// Samples in the population.
    pub n: usize,
    /// Samples ranked beyond the value.
    pub beyond: usize,
}

impl Pct {
    /// `p50 = 6.21 ms (n=335, 167 beyond)`, naming the lowered level when
    /// the requested one had too few samples beyond it.
    pub fn describe(&self, requested: f64, unit: &str) -> String {
        let level = if (self.level - requested).abs() < 1e-9 {
            format!("p{}", fmt_level(requested))
        } else {
            format!(
                "p{} (asked p{}, lowered to keep {MIN_BEYOND} beyond)",
                fmt_level(self.level),
                fmt_level(requested)
            )
        };
        format!(
            "{level} = {:.4} {unit} (n={}, {} beyond)",
            self.value, self.n, self.beyond
        )
    }
}

fn fmt_level(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("{}", p.round() as i64)
    } else {
        format!("{p:.1}")
    }
}

/// Nearest-rank percentile `q` of `samples`, lowered until at least
/// [`MIN_BEYOND`] samples rank beyond it. `None` when the population is
/// too small for any percentile to have that many samples beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - MIN_BEYOND);
    let level = if rank == wanted {
        q
    } else {
        rank as f64 / n as f64
    };
    Some(Pct {
        value: sorted[rank - 1],
        level,
        n,
        beyond: n - rank,
    })
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=335).map(f64::from).collect();
        let p95 = percentile(&xs, 0.95).unwrap();
        assert_eq!(p95.level, 0.95);
        assert_eq!(p95.value, 319.0);
        assert!(p95.beyond >= MIN_BEYOND);

        let few: Vec<f64> = (1..=48).map(f64::from).collect();
        let low = percentile(&few, 0.95).unwrap();
        assert_eq!(low.beyond, MIN_BEYOND);
        assert_eq!(low.value, 38.0);
        assert!(low.level < 0.95);

        assert!(percentile(&few[..10], 0.5).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
