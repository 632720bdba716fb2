//! Order statistics over timing samples.

/// How many samples must rank strictly above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of a sample set, reported with the percentile it sits at and
/// the count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail rank.
    pub value: f64,
    /// Nearest-rank percentile of that value, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
    /// Samples ranked strictly above the tail value.
    pub beyond: usize,
}

/// The highest nearest-rank percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it. With `n` samples that is the value at
/// rank `n - TAIL_BEYOND` (1-based), i.e. percentile `(n - 10) / n`.
///
/// `None` when there are too few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "10 samples leave none with 10 beyond");

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);

        // 100 samples: the 90th value has exactly 10 above it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("100 samples qualify");
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let above = hundred.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        // One more sample moves the tail rank up by one: the rule always
        // picks the highest rank that keeps ten samples beyond it.
        for n in 11..200usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs).expect("qualifies");
            let above = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(above, TAIL_BEYOND, "n = {n}");
        }
    }
}
