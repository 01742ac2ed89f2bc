//! Order statistics over latency samples.

/// The median (mean of the middle two for an even count); 0 for no
/// samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent of the sample count.
    pub percentile: f64,
    /// Samples above it in sorted order (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Samples in total (in its window, for a windowed tail).
    pub samples: usize,
    /// Windows the tail is the median of (1: the whole loop).
    pub windows: usize,
}

/// The tail of `samples`, or `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist (no value has enough beyond it).
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let index = n.checked_sub(TAIL_BEYOND + 1)?;
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
        windows: 1,
    })
}

/// Samples per tail window. A loop with more samples reports the median
/// of the tails of its consecutive windows of at least this many: a host
/// stall of a second or so then moves one window's tail, not the loop's.
pub const TAIL_WINDOW: usize = 1000;

/// The tail of a loop's samples, in completion order: the median (the
/// lower one for an even count) of the [`tail`]s of its consecutive
/// windows of at least [`TAIL_WINDOW`] samples, or of the whole loop when
/// it is shorter.
#[must_use]
pub fn windowed_tail(samples: &[f64]) -> Option<Tail> {
    let windows = (samples.len() / TAIL_WINDOW).max(1);
    let size = samples.len() / windows;
    let mut tails = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { samples.len() } else { (w + 1) * size };
            tail(&samples[w * size..end])
        })
        .collect::<Option<Vec<Tail>>>()?;
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Some(Tail { windows, ..tails[(windows - 1) / 2] })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=50: the 40th value has 41..=50 beyond it, at p80.
        let samples: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 40.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 50);
        assert!((t.percentile - 80.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (0.0, 10, 11));
    }

    #[test]
    fn tail_of_many_samples_is_a_high_percentile() {
        let samples: Vec<f64> = (0..10_000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 9989.0);
        assert!((t.percentile - 99.9).abs() < 1e-9);
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // Five windows of 1000; the second holds a stall of 20 slow
        // operations, which is the whole loop's tail.
        let mut samples = vec![1.0; 5000];
        samples[1000..1020].fill(100.0);
        assert_eq!(tail(&samples).unwrap().value, 100.0);
        let t = windowed_tail(&samples).unwrap();
        assert_eq!((t.value, t.windows, t.samples, t.beyond), (1.0, 5, 1000, 10));
    }

    #[test]
    fn windowed_tail_of_a_short_loop_is_its_tail() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(windowed_tail(&samples), tail(&samples));
        assert_eq!(windowed_tail(&samples[..10]), None);
    }
}
