//! Determinism regression suite: the serve-layer result cache assumes
//! that the same program under the same configuration always produces
//! the byte-identical outcome. Pin that end to end — warning-id sets,
//! filter verdicts, and the rendered provenance document.

use nadroid::core::{analyze, render_provenance_json, AnalysisConfig};
use nadroid::ir::parse_program;
use nadroid::serve::CacheKey;

const CONNECTBOT: &str = include_str!("../apps/connectbot.dsl");

#[test]
fn repeated_analyses_are_byte_identical_in_process() {
    let program = parse_program(CONNECTBOT).expect("parse connectbot");
    let config = AnalysisConfig::default();

    let first = analyze(&program, &config);
    let second = analyze(&program, &config);

    // Warning-id sets: same ids, same order.
    let ids = |a: &nadroid::core::Analysis<'_>| -> Vec<String> {
        a.warning_provenances()
            .iter()
            .map(|p| p.id.clone())
            .collect()
    };
    let first_ids = ids(&first);
    assert!(!first_ids.is_empty(), "connectbot plants warnings");
    assert_eq!(first_ids, ids(&second), "warning ids drift across runs");

    // Filter verdicts: every (id, pruned_by, audit verdict) triple.
    let verdicts = |a: &nadroid::core::Analysis<'_>| -> Vec<String> {
        a.warning_provenances()
            .iter()
            .map(|p| {
                let audit: Vec<String> = p
                    .audit
                    .iter()
                    .map(|v| format!("{:?}:{}:{}", v.kind, v.pruned, v.evidence))
                    .collect();
                format!("{} {:?} [{}]", p.id, p.pruned_by, audit.join(", "))
            })
            .collect()
    };
    assert_eq!(verdicts(&first), verdicts(&second), "filter verdicts drift");

    // The full provenance document — what the serve cache stores.
    assert_eq!(
        render_provenance_json(&first),
        render_provenance_json(&second),
        "provenance rendering drifts"
    );

    // And therefore the cache key is stable too.
    assert_eq!(
        CacheKey::of(CONNECTBOT, &config),
        CacheKey::of(CONNECTBOT, &config)
    );
}

/// The parallel analysis core's headline claim: thread count is
/// invisible in the output. Sweep 1/2/4/8 on an app big enough to cross
/// every parallel gate (K-9's ~213 planted clusters drive the chunked
/// detector scan and the filter pipeline) and require byte-identical
/// warning ids, filter verdicts, provenance JSON, and deterministic
/// counters; then sweep the same counts over the 1000-app fleet and
/// require equal suite-wide counters.
#[test]
fn thread_count_never_changes_the_output() {
    let rows = nadroid::corpus::table1_rows();
    let row = rows.iter().find(|r| r.name == "K-9").expect("K-9 row");
    let app = nadroid::corpus::generate(&nadroid::corpus::spec_for(row));

    let run = |threads: usize| {
        let config = AnalysisConfig {
            threads,
            ..AnalysisConfig::default()
        };
        let recorder = nadroid::obs::Recorder::new();
        let (ids, verdicts, provenance, summary) = {
            let _guard = recorder.install();
            let analysis = analyze(&app.program, &config);
            let provs = analysis.warning_provenances();
            let ids: Vec<String> = provs.iter().map(|p| p.id.clone()).collect();
            let verdicts: Vec<String> = provs
                .iter()
                .map(|p| format!("{} {:?}", p.id, p.pruned_by))
                .collect();
            (
                ids,
                verdicts,
                render_provenance_json(&analysis),
                analysis.summary(),
            )
        };
        let counters = (
            recorder.counter_value("detector.pairs_examined"),
            recorder.counter_value("pointsto.queue_pops"),
        );
        (ids, verdicts, provenance, summary, counters)
    };

    let baseline = run(1);
    assert!(!baseline.0.is_empty(), "K-9 plants warnings");
    assert!(baseline.4 .0 > 0, "pairs_examined recorded");
    assert!(baseline.4 .1 > 0, "queue_pops recorded");
    for threads in [2usize, 4, 8] {
        let swept = run(threads);
        assert_eq!(
            baseline.0, swept.0,
            "warning ids drift at threads={threads}"
        );
        assert_eq!(baseline.1, swept.1, "verdicts drift at threads={threads}");
        assert_eq!(
            baseline.2, swept.2,
            "provenance JSON drifts at threads={threads}"
        );
        assert_eq!(baseline.3, swept.3, "summary drifts at threads={threads}");
        assert_eq!(
            baseline.4, swept.4,
            "deterministic counters drift at threads={threads}"
        );
    }

    // The fleet on the default config. One recorder per thread count
    // sums the counters over every app.
    let fleet: Vec<_> = nadroid::corpus::scale_specs(1000)
        .iter()
        .map(nadroid::corpus::generate)
        .collect();
    let sweep = |threads: usize| {
        let config = AnalysisConfig {
            threads,
            ..AnalysisConfig::default()
        };
        let recorder = nadroid::obs::Recorder::new();
        let warnings: usize = {
            let _guard = recorder.install();
            fleet
                .iter()
                .map(|app| analyze(&app.program, &config).summary().after_unsound)
                .sum()
        };
        [
            recorder.counter_value("detector.pairs_examined"),
            recorder.counter_value("pointsto.queue_pops"),
            recorder.counter_value("filter.MHB.killed"),
            warnings as u64,
        ]
    };
    let fleet_baseline = sweep(1);
    assert!(
        fleet_baseline.iter().all(|&v| v > 0),
        "pairs examined, queue pops, MHB kills and survivors all recorded: {fleet_baseline:?}"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(
            fleet_baseline,
            sweep(threads),
            "fleet counters drift at threads={threads}"
        );
    }
}

/// The serve cache canonicalizes the thread count out of its key: a
/// result computed at one `--threads` must hit for any other.
#[test]
fn cache_keys_ignore_the_thread_count() {
    let one = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let eight = AnalysisConfig {
        threads: 8,
        ..AnalysisConfig::default()
    };
    assert_eq!(
        CacheKey::of(CONNECTBOT, &one),
        CacheKey::of(CONNECTBOT, &eight)
    );
    let k3 = AnalysisConfig {
        k: 3,
        ..AnalysisConfig::default()
    };
    assert_ne!(
        CacheKey::of(CONNECTBOT, &one),
        CacheKey::of(CONNECTBOT, &k3),
        "real config differences must still miss"
    );
}

/// Confirmation rides the same cacheable surface as provenance: the
/// verdicts, minimized witness schedules, explored-state counts, and
/// tallies must be byte-identical across reruns and at every inner
/// thread count. Two subjects: ConnectBot (confirmed verdicts with
/// witness schedules) and the corpus KissLauncher row (unconfirmed
/// verdicts, so the budget-exhaustion path is swept too).
#[test]
fn confirmation_verdicts_and_schedules_are_thread_invariant() {
    use nadroid::confirm::{confirm_survivors, render_confirm_json, ConfirmConfig};

    let connectbot = parse_program(CONNECTBOT).expect("parse connectbot");
    let rows = nadroid::corpus::table1_rows();
    let kiss = rows
        .iter()
        .find(|r| r.name == "KissLauncher")
        .expect("KissLauncher row");
    let kiss_app = nadroid::corpus::generate(&nadroid::corpus::spec_for(kiss));
    let cfg = ConfirmConfig::default();

    let run = |program: &nadroid::ir::Program, threads: usize| {
        nadroid::par::with_threads(threads, || {
            let config = AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            };
            let analysis = analyze(program, &config);
            let outcome = confirm_survivors(&analysis, &cfg);
            let tally = (
                outcome.tally.confirmed,
                outcome.tally.unconfirmed,
                outcome.tally.infeasible,
            );
            (tally, render_confirm_json(&analysis, &outcome))
        })
    };

    let cb_base = run(&connectbot, 1);
    assert!(
        cb_base.0 .0 >= 1,
        "connectbot confirms at least one warning"
    );
    assert!(cb_base.1.contains("\"schedule\": \""), "witness attached");
    let kiss_base = run(&kiss_app.program, 1);
    assert!(
        kiss_base.0 .1 >= 1,
        "kisslauncher exercises the unconfirmed path"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            cb_base,
            run(&connectbot, threads),
            "connectbot confirmation drifts at threads={threads}"
        );
        assert_eq!(
            kiss_base,
            run(&kiss_app.program, threads),
            "kisslauncher confirmation drifts at threads={threads}"
        );
    }
    // And a plain rerun at the baseline thread count.
    assert_eq!(cb_base, run(&connectbot, 1), "confirmation drifts on rerun");
}

#[test]
fn summaries_and_survivors_are_stable_across_configs() {
    let program = parse_program(CONNECTBOT).expect("parse connectbot");
    for k in [1u32, 2, 3] {
        let config = AnalysisConfig {
            k,
            ..AnalysisConfig::default()
        };
        let a = analyze(&program, &config);
        let b = analyze(&program, &config);
        assert_eq!(a.summary(), b.summary(), "summary drift at k={k}");
        assert_eq!(
            a.rendered_survivors(),
            b.rendered_survivors(),
            "survivor drift at k={k}"
        );
    }
}
