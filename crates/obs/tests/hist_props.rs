//! Property tests for the telemetry layer: histogram merge algebra,
//! percentile bounds, span-depth underflow tolerance, and a thread
//! sweep that pins histogram totals as thread-count invariant.

use nadroid_obs::{hist, span, Histogram, Recorder};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Mixed magnitudes: exact low buckets, mid-range, and huge values.
fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..3, 0u64..=u64::MAX), 0..200).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(kind, raw)| match kind {
                0 => raw % 64,
                1 => 64 + raw % 99_936,
                _ => raw,
            })
            .collect()
    })
}

proptest! {
    /// `merge` is associative and commutative, and merging equals
    /// recording the concatenated sample set — element-wise adds lose
    /// nothing beyond the resolution already paid at record time.
    #[test]
    fn merge_is_associative_commutative_and_exact(
        a in samples_strategy(),
        b in samples_strategy(),
        c in samples_strategy(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right, "merge must be associative");

        let mut ba = hb.clone();
        ba.merge(&ha);
        let mut ab = ha.clone();
        ab.merge(&hb);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist_of(&union), "merge equals union");
    }

    /// Percentiles are monotone in `p`, never undershoot the true order
    /// statistic, and overshoot it by at most one sub-bucket width
    /// (relative error `1/32`); `percentile(1.0)` is exactly the max.
    #[test]
    fn percentiles_are_monotone_and_tightly_bounded(
        raw in prop::collection::vec(0u64..=u64::MAX / 2, 1..200),
    ) {
        let h = hist_of(&raw);
        let mut samples = raw;
        samples.sort_unstable();

        let grid = [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];
        let readings: Vec<u64> = grid.iter().map(|&p| h.percentile(p)).collect();
        for w in readings.windows(2) {
            prop_assert!(w[0] <= w[1], "percentile must be monotone: {readings:?}");
        }
        prop_assert_eq!(readings[grid.len() - 1], *samples.last().unwrap());

        for (&p, &got) in grid.iter().zip(&readings) {
            #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
            #[allow(clippy::cast_possible_truncation)]
            let rank = ((p * samples.len() as f64).ceil() as usize).max(1);
            let truth = samples[rank - 1];
            prop_assert!(got >= truth, "p{p}: {got} undershoots {truth}");
            prop_assert!(
                got <= truth + truth / 32 + 1,
                "p{p}: {got} overshoots {truth} by more than a sub-bucket"
            );
        }
    }

    /// Derived scalars survive a merge exactly: count/total/min/max of
    /// the merged histogram equal those of the concatenated samples.
    #[test]
    fn merge_preserves_scalar_summaries(
        a in samples_strategy(),
        b in samples_strategy(),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged.count(), union.len() as u64);
        prop_assert_eq!(
            merged.total(),
            union.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
        );
        prop_assert_eq!(merged.max(), union.iter().max().copied().unwrap_or(0));
        prop_assert_eq!(
            merged.min(),
            if union.is_empty() { 0 } else { *union.iter().min().unwrap() }
        );
        let rebucketed: u64 = merged.buckets().map(|(_, _, c)| c).sum();
        prop_assert_eq!(rebucketed, merged.count(), "buckets account for every sample");
    }
}

/// A span held across its recorder's uninstall must not panic or
/// corrupt the depth counter of whatever is installed afterwards.
#[test]
fn span_outliving_its_install_does_not_underflow_depth() {
    let first = Recorder::new();
    let guard = first.install();
    let straggler = span("straggler");
    drop(guard); // uninstalls while `straggler` is still open
    drop(straggler); // depth saturates at 0 instead of underflowing

    // A fresh installation afterwards starts clean: its first span is
    // top-level (depth 0), so `busy()` counts it.
    let second = Recorder::new();
    {
        let _g = second.install();
        let _s = span("top");
    }
    let spans = second.spans();
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert_eq!(spans[0].depth, 0, "depth must restart at 0: {spans:?}");
}

/// Recording the same sample set from K threads (for several K) into
/// one shared recorder yields byte-identical histograms: totals are
/// thread-count invariant because histogram recording is a plain
/// element-wise accumulation under the registry lock.
#[test]
fn histogram_totals_are_thread_count_invariant() {
    let samples: Vec<u64> = (0..800u64).map(|i| i * i % 65_537).collect();
    let run = |threads: usize| -> Histogram {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let rec = rec.clone();
                let samples = &samples;
                scope.spawn(move || {
                    let _g = rec.install();
                    for v in samples.iter().skip(t).step_by(threads) {
                        hist("sweep", *v);
                    }
                });
            }
        });
        rec.histogram("sweep").expect("sweep histogram recorded")
    };

    let baseline = run(1);
    assert_eq!(baseline.count(), 800);
    for k in [2usize, 4, 8] {
        let h = run(k);
        assert_eq!(h, baseline, "K={k} must reproduce the K=1 histogram");
    }
}
