//! Order statistics with the benchmark's percentile guard.
//!
//! A tail percentile read from too few samples lands on whichever sample
//! happens to sit at its rank, so it moves with the sample mix rather
//! than with the program. [`percentile`] therefore refuses any
//! percentile with fewer than [`MIN_BEYOND`] samples beyond its rank.

/// Samples that must lie strictly beyond a percentile's rank before it
/// may be reported.
pub const MIN_BEYOND: usize = 10;

/// A guarded percentile: its value plus the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the rank (at least [`MIN_BEYOND`]).
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank],
        samples: n,
        beyond,
    })
}

/// A percentile of a run's latencies, and what it was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPercentile {
    /// The reported value.
    pub value: f64,
    /// Passes pooled per reading: 0 when read over per-item medians.
    pub group: usize,
    /// The readings the value is the median of (one when per item).
    pub readings: Vec<Percentile>,
}

/// The `q`-quantile of a run's latencies, where every pass timed the same
/// items in the same order.
///
/// Each item's latency is first taken as its median over the passes, so
/// a burst of host noise that slows one item in one pass does not reach
/// the tail; the percentile is read over those per-item medians. When
/// the items are too few to carry the percentile, consecutive passes are
/// pooled in groups of the fewest passes that can, the percentile is read
/// per group, and the median over the groups is reported; passes left
/// over after the last full group are not used. The group size depends
/// only on the item count, so each reading always lands on the same rank
/// of the same number of samples, whatever the number of passes. `None`
/// when even all passes pooled cannot carry the percentile, or when the
/// passes disagree on the items.
pub fn run_percentile(passes: &[&[f64]], q: f64) -> Option<RunPercentile> {
    let items = passes.first()?.len();
    if passes.iter().any(|p| p.len() != items) {
        return None;
    }
    let medians: Vec<f64> = (0..items)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect::<Option<_>>()?;
    if let Some(p) = percentile(&medians, q) {
        return Some(RunPercentile {
            value: p.value,
            group: 0,
            readings: vec![p],
        });
    }
    let group = (2..=passes.len()).find(|&g| {
        let pooled: Vec<f64> = passes[..g].iter().flat_map(|p| p.iter().copied()).collect();
        percentile(&pooled, q).is_some()
    })?;
    let readings: Vec<Percentile> = passes
        .chunks_exact(group)
        .map(|c| {
            let pooled: Vec<f64> = c.iter().flat_map(|p| p.iter().copied()).collect();
            percentile(&pooled, q)
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = readings.iter().map(|p| p.value).collect();
    Some(RunPercentile {
        value: median(&values)?,
        group,
        readings,
    })
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        // 99 samples: rank 89 (0-based) leaves 9 beyond -> refused.
        assert_eq!(percentile(&ramp(99), 0.90), None);
        let p = percentile(&ramp(100), 0.90).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 10));
    }

    #[test]
    fn nine_class_p90_is_refused() {
        // One sample per corpus class cannot carry a p90 (or even a p50
        // with ten beyond it).
        assert_eq!(percentile(&ramp(9), 0.90), None);
        assert_eq!(percentile(&ramp(9), 0.50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.5).unwrap().value, 100.0);
    }

    #[test]
    fn run_percentile_reads_per_item_medians_when_items_suffice() {
        // 1200 items, 3 passes; one pass is twice as slow throughout.
        let fast = ramp(1200);
        let slow: Vec<f64> = fast.iter().map(|x| x * 2.0).collect();
        let p = run_percentile(&[&fast, &slow, &fast], 0.99).unwrap();
        assert_eq!(p.group, 0);
        assert_eq!(p.value, 1188.0);
        assert_eq!((p.readings[0].samples, p.readings[0].beyond), (1200, 12));
        let pooled: Vec<f64> = [fast.clone(), slow, fast].concat();
        assert!(percentile(&pooled, 0.99).unwrap().value > 2000.0);
    }

    #[test]
    fn run_percentile_pools_fixed_groups_when_items_are_too_few() {
        // 862 items leave 8 beyond a per-item p99; pairs of passes leave 17.
        let pass = ramp(862);
        for passes in [2, 3, 7, 8] {
            let all = vec![pass.as_slice(); passes];
            let p = run_percentile(&all, 0.99).unwrap();
            assert_eq!(p.group, 2);
            assert_eq!(p.readings.len(), passes / 2);
            assert!(p
                .readings
                .iter()
                .all(|r| r.samples == 1724 && r.beyond == 17));
            // The same rank of the same sample count at any pass count.
            assert_eq!(p.value, 854.0);
        }
        let p50 = run_percentile(&[&pass, &pass, &pass], 0.5).unwrap();
        assert_eq!(p50.group, 0);
    }

    #[test]
    fn run_percentile_refuses_what_pooling_cannot_carry() {
        let pass = ramp(300);
        assert_eq!(run_percentile(&[&pass, &pass], 0.99), None);
        assert_eq!(run_percentile(&[], 0.5), None);
        let short = ramp(299);
        assert_eq!(run_percentile(&[&pass, &short], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
