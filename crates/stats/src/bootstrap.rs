//! Seeded bootstrap confidence intervals.
//!
//! The paper reports point medians/means for heavily skewed CPM samples
//! (Tables 5, 6, 10). Percentile-bootstrap intervals quantify how stable
//! those points are — used by the audit's robustness checks and the
//! ablation benches. Resampling is fully seeded for reproducibility.

use crate::error::StatsError;
use alexa_exec::par_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Resamples per parallel chunk. Fixed (never derived from the worker
/// count), so the chunk decomposition — and therefore every chunk's derived
/// RNG stream — is identical no matter how many threads execute it.
const CHUNK: usize = 256;

/// A two-sided confidence interval for a resampled statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub level: f64,
}

impl BootstrapCi {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Percentile bootstrap for an arbitrary statistic.
///
/// Degenerate inputs are typed errors: [`StatsError::EmptySample`] for an
/// empty sample, [`StatsError::ZeroResamples`] for a zero resample count,
/// and [`StatsError::InvalidLevel`] for a level outside the open interval
/// (0, 1) — a 0% interval is degenerate and a 100% interval is unbounded,
/// so both endpoints are excluded.
///
/// Resampling runs in fixed-size chunks, each with an RNG derived from
/// `(seed, chunk index)`, distributed over all available cores — the result
/// is identical to a sequential evaluation of the same chunks.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if resamples == 0 {
        return Err(StatsError::ZeroResamples);
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidLevel(level));
    }
    let estimate = statistic(xs);
    let chunks: Vec<usize> = (0..resamples.div_ceil(CHUNK)).collect();
    let chunked = par_map(None, chunks, |c, _| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x626f6f74 ^ ((c as u64 + 1) << 24));
        let count = CHUNK.min(resamples - c * CHUNK);
        let mut buf = vec![0.0; xs.len()];
        let mut stats = Vec::with_capacity(count);
        for _ in 0..count {
            for slot in buf.iter_mut() {
                *slot = xs[rng.gen_range(0..xs.len())];
            }
            stats.push(statistic(&buf));
        }
        stats
    });
    let mut stats: Vec<f64> = chunked.into_iter().flatten().collect();
    stats.sort_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::descriptive::quantile_sorted(&stats, alpha);
    let hi = crate::descriptive::quantile_sorted(&stats, 1.0 - alpha);
    Ok(BootstrapCi {
        estimate,
        lo,
        hi,
        level,
    })
}

/// Bootstrap CI for the sample median.
pub fn bootstrap_median_ci(
    xs: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
    bootstrap_ci(
        xs,
        |s| crate::descriptive::median(s).unwrap_or(f64::NAN),
        resamples,
        level,
        seed,
    )
}

/// Bootstrap CI for the sample mean.
pub fn bootstrap_mean_ci(
    xs: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
    bootstrap_ci(
        xs,
        |s| crate::descriptive::mean(s).unwrap_or(f64::NAN),
        resamples,
        level,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(-1.0..1.0f64) * 2.0).exp())
            .collect()
    }

    #[test]
    fn interval_brackets_estimate() {
        let xs = skewed_sample(200, 1);
        let ci = bootstrap_median_ci(&xs, 500, 0.95, 7).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        assert!(ci.contains(ci.estimate));
        assert!(ci.width() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let xs = skewed_sample(100, 2);
        let a = bootstrap_mean_ci(&xs, 300, 0.9, 11).unwrap();
        let b = bootstrap_mean_ci(&xs, 300, 0.9, 11).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&xs, 300, 0.9, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn higher_level_widens_interval() {
        let xs = skewed_sample(100, 3);
        let narrow = bootstrap_median_ci(&xs, 800, 0.80, 5).unwrap();
        let wide = bootstrap_median_ci(&xs, 800, 0.99, 5).unwrap();
        assert!(wide.width() >= narrow.width());
    }

    #[test]
    fn more_data_tightens_interval() {
        let small = bootstrap_mean_ci(&skewed_sample(30, 4), 500, 0.95, 5).unwrap();
        let large = bootstrap_mean_ci(&skewed_sample(3000, 4), 500, 0.95, 5).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        use crate::StatsError;
        assert_eq!(
            bootstrap_median_ci(&[], 100, 0.95, 1),
            Err(StatsError::EmptySample)
        );
        assert_eq!(
            bootstrap_median_ci(&[1.0], 0, 0.95, 1),
            Err(StatsError::ZeroResamples)
        );
        assert_eq!(
            bootstrap_median_ci(&[1.0], 100, 1.5, 1),
            Err(StatsError::InvalidLevel(1.5))
        );
        assert_eq!(
            bootstrap_median_ci(&[1.0], 100, 0.0, 1),
            Err(StatsError::InvalidLevel(0.0))
        );
        // Both endpoints of (0, 1) are excluded; interior values near them
        // are accepted.
        assert!(bootstrap_median_ci(&[1.0], 100, 1.0, 1).is_err());
        assert!(bootstrap_median_ci(&[1.0], 100, -0.5, 1).is_err());
        assert!(bootstrap_median_ci(&[1.0], 100, 0.0001, 1).is_ok());
        assert!(bootstrap_median_ci(&[1.0], 100, 0.9999, 1).is_ok());
    }

    #[test]
    fn chunked_resampling_spans_chunk_boundaries() {
        // Resample counts straddling the parallel chunk size must all be
        // deterministic and well-formed.
        let xs = skewed_sample(60, 9);
        for resamples in [1, 255, 256, 257, 1000] {
            let a = bootstrap_mean_ci(&xs, resamples, 0.9, 3).unwrap();
            let b = bootstrap_mean_ci(&xs, resamples, 0.9, 3).unwrap();
            assert_eq!(a, b, "{resamples} resamples not deterministic");
            assert!(a.lo <= a.hi);
        }
    }

    #[test]
    fn constant_sample_has_zero_width() {
        let xs = [3.0; 50];
        let ci = bootstrap_mean_ci(&xs, 200, 0.95, 1).unwrap();
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.estimate, 3.0);
    }
}
