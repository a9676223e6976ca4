//! Property tests for the ledger's noise model: self-diff emptiness at
//! arbitrary thresholds, the histogram quantization bound, and JSONL
//! round-tripping of randomly populated records.

use nadroid_ledger::{
    diff, latency_changed, parse_record_line, AppPopulation, Kind, Population, Record, HIST_NOISE,
};
use nadroid_obs::Histogram;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Mixed magnitudes, capped at 2^45 — ledger values are JSON numbers
/// (f64), exact only below 2^53; the cap keeps even the histogram
/// *total* (a sum of up to 120 samples) inside that, and real
/// latencies are microseconds anyway.
fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..3, 0u64..1 << 45), 1..120).prop_map(|pairs| {
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

/// Random minimum effects from 0 to 1.99, zero included: self-diff
/// must stay empty under all of them because every rule pairs its
/// threshold with a strict direction guard.
fn min_effect_strategy() -> impl Strategy<Value = f64> {
    (0u64..200).prop_map(|me| me as f64 / 100.0)
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        prop::collection::vec((0u64..40, 0u64..1 << 50), 0..12),
        prop::collection::vec((0u64..40, 0u64..1_000_000_000), 0..12),
        prop::collection::vec((0u64..40, 0u64..10_000_000), 0..12),
        samples_strategy(),
        prop::collection::vec(
            (0u64..10, prop::collection::vec(0u64..1_000_000, 0..6)),
            0..4,
        ),
    )
        .prop_map(|(counters, times, percentiles, samples, apps)| {
            let mut r = Record::new(Kind::Suite);
            r.ts = 1_755_000_000;
            r.note = "prop".into();
            for (k, v) in counters {
                r.counters.insert(format!("c{k}"), v);
            }
            for (k, v) in times {
                r.times.insert(format!("t{k}"), v as f64 / 1e6);
            }
            for (k, v) in percentiles {
                r.percentiles.insert(format!("p{k}"), v);
            }
            r.hists.insert("lat_us".into(), hist_of(&samples));
            if !apps.is_empty() {
                let mut tallies = BTreeMap::new();
                tallies.insert("potential".into(), apps.len() as u64);
                r.population = Some(Population {
                    apps: apps
                        .into_iter()
                        .map(|(a, ids)| {
                            let ids: Vec<String> =
                                ids.into_iter().map(|i| format!("w:{i:016x}")).collect();
                            AppPopulation {
                                digest: nadroid_core::warning_population_digest(&ids),
                                app: format!("app{a}"),
                                ids,
                            }
                        })
                        .collect(),
                    tallies,
                });
            }
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `diff(a, a)` is empty for every record at every minimum effect,
    /// zero included.
    #[test]
    fn self_diff_is_empty_at_any_threshold(
        r in record_strategy(),
        min_effect in min_effect_strategy(),
    ) {
        let ds = diff(&r, &r, min_effect);
        prop_assert!(ds.is_empty(), "self-diff produced {ds:?} under min effect {min_effect}");
    }

    /// Two histograms of the same underlying latencies — one recorded
    /// verbatim, one with every sample inflated by at most the
    /// encoder's 1/32 relative quantization error — never flag a
    /// latency delta: the decoded percentiles stay within
    /// [`HIST_NOISE`], which the diff rule budgets for before any
    /// configured min effect.
    #[test]
    fn quantization_noise_never_flags(
        samples in samples_strategy(),
        me in 0u64..100,
    ) {
        let inflated: Vec<u64> = samples.iter().map(|&v| v + v / 32).collect();
        let (ha, hb) = (hist_of(&samples), hist_of(&inflated));
        let min_effect = me as f64 / 100.0;
        for p in [0.5, 0.9, 0.99, 1.0] {
            let (a, b) = (ha.percentile(p), hb.percentile(p));
            prop_assert!(
                !latency_changed(a, b, min_effect),
                "p{p}: {a} vs {b} flagged inside the {HIST_NOISE:.4} noise bound"
            );
        }
        // And through the full record diff: only the (expected) exact
        // count/total equality holds, so compare hists directly.
        let mut ra = Record::new(Kind::Suite);
        let mut rb = Record::new(Kind::Suite);
        ra.hists.insert("lat_us".into(), ha);
        rb.hists.insert("lat_us".into(), hb);
        let latency_deltas: Vec<_> = diff(&ra, &rb, min_effect)
            .into_iter()
            .filter(|d| d.key.starts_with("hists.lat_us.p"))
            .collect();
        prop_assert!(latency_deltas.is_empty(), "{latency_deltas:?}");
    }

    /// Every record survives the JSONL round trip bit-for-bit.
    #[test]
    fn records_round_trip_through_jsonl(r in record_strategy()) {
        let back = parse_record_line(&r.to_json_line()).expect("round trip");
        prop_assert_eq!(back, r);
    }
}
