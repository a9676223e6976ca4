//! End-to-end integration tests on the paper's running examples:
//! Figure 1 (the three harmful UAFs), Figure 4 (the seven filter
//! examples), and the Table 3 DEvA comparison behaviours.

use nadroid::confirm::{confirm_survivors, pair_verdicts, ConfirmConfig};
use nadroid::core::{analyze, Analysis, AnalysisConfig, PairType, VerdictColumns};
use nadroid::corpus::paper;
use nadroid::deva::run_deva;
use nadroid::filters::FilterKind;

/// The survivors' verdicts over distinct pairs, as `nadroid-confirm`
/// gives them.
fn confirm(analysis: &Analysis<'_>) -> VerdictColumns {
    pair_verdicts(
        analysis,
        &confirm_survivors(analysis, &ConfirmConfig::default()),
    )
}

#[test]
fn figure1_connectbot_finds_and_confirms_both_uafs() {
    let program = paper::connectbot();
    let analysis = analyze(&program, &AnalysisConfig::default());
    let s = analysis.summary();
    assert_eq!(s.after_unsound, 2, "bound (EC-PC) and hostBridge (PC-PC)");

    let rendered = analysis.rendered_survivors();
    let types: Vec<PairType> = rendered.iter().map(|r| r.pair_type).collect();
    assert!(types.contains(&PairType::EcPc));
    assert!(types.contains(&PairType::PcPc));

    let v = confirm(&analysis);
    assert_eq!(v.harmful, 2, "both UAFs have NPE witnesses");
    assert!(v.fp.is_empty());
}

#[test]
fn figure1_firefox_finds_and_confirms_the_thread_uaf() {
    let program = paper::firefox();
    let analysis = analyze(&program, &AnalysisConfig::default());
    assert_eq!(analysis.summary().after_unsound, 1);
    let rendered = analysis.rendered_survivors();
    assert_eq!(rendered[0].pair_type, PairType::CNt);

    assert_eq!(confirm(&analysis).harmful, 1);
}

#[test]
fn figure4_gallery_is_fully_filtered() {
    let program = paper::figure4_gallery();
    let analysis = analyze(&program, &AnalysisConfig::default());
    let s = analysis.summary();
    assert_eq!(s.potential, 7, "one pair per example (a)-(g)");
    assert_eq!(s.after_unsound, 0, "all seven are pruned");

    // Attribution: the sound filters take (a), (b), (c); the unsound
    // ones take (d)-(g).
    assert_eq!(s.after_sound, 4);
    let filters = analysis.filters();
    let mut attributed = std::collections::BTreeMap::new();
    for o in analysis.sound_outcomes() {
        if let Some(f) = o.pruned_by {
            attributed.insert(o.warning.pair(), f);
        }
    }
    for o in analysis.unsound_outcomes() {
        if let Some(f) = o.pruned_by {
            attributed.entry(o.warning.pair()).or_insert(f);
        }
    }
    let mut by_filter: Vec<FilterKind> = attributed.values().copied().collect();
    by_filter.sort();
    by_filter.dedup();
    for expect in [
        FilterKind::Mhb,
        FilterKind::Ig,
        FilterKind::Ia,
        FilterKind::Rhb,
        FilterKind::Chb,
        FilterKind::Phb,
        FilterKind::Ur,
    ] {
        assert!(
            by_filter.contains(&expect),
            "{expect} must claim its example"
        );
    }
    let _ = filters;
}

#[test]
fn figure4_gallery_has_no_feasible_pair() {
    // The sound-filter examples (a)-(c) and the dynamically-safe unsound
    // ones (d)-(g) all have no (use, free) witness.
    let program = paper::figure4_gallery();
    let analysis = analyze(&program, &AnalysisConfig::default());
    for w in analysis.warnings() {
        let witness = nadroid::dynamic::explore(
            &program,
            nadroid::dynamic::Goal::Pair {
                use_instr: w.use_access.instr,
                free_instr: w.free_access.instr,
            },
            nadroid::dynamic::ExploreConfig::default(),
        );
        assert!(
            witness.is_none(),
            "gallery pair {} / {} must be benign",
            program.describe_instr(w.use_access.instr),
            program.describe_instr(w.free_access.instr)
        );
    }
}

#[test]
fn table3_deva_misses_figure1_and_overreports_ondestroy() {
    // DEvA misses the cross-class Figure 1 races entirely ...
    for program in [paper::connectbot(), paper::firefox()] {
        let deva = run_deva(&program);
        let analysis = analyze(&program, &AnalysisConfig::default());
        let nadroid_survivors: Vec<_> = analysis.survivors().iter().map(|w| w.pair()).collect();
        for pair in &nadroid_survivors {
            // hostBridge/jClient pairs: DEvA does not report them.
            let deva_has = deva.iter().any(|d| d.pair() == *pair);
            if program.name() == "FireFox" {
                assert!(!deva_has, "DEvA cannot see the thread-side free");
            }
        }
    }
    // ... while flagging lifecycle-ordered onDestroy anomalies that
    // nAdroid's MHB filter prunes.
    let music = paper::table3_music();
    let deva = run_deva(&music);
    assert_eq!(deva.len(), 5, "five onDestroy anomalies in the Music model");
    let analysis = analyze(&music, &AnalysisConfig::default());
    assert_eq!(
        analysis.summary().after_unsound,
        0,
        "nAdroid filters all of them"
    );
    let detected: Vec<_> = analysis.warnings().iter().map(|w| w.pair()).collect();
    for d in &deva {
        assert!(
            detected.contains(&d.pair()),
            "nAdroid detects everything DEvA detects"
        );
    }
}

#[test]
fn lineages_mention_posting_callbacks() {
    let program = paper::connectbot();
    let analysis = analyze(&program, &AnalysisConfig::default());
    let rendered = analysis.rendered_survivors();
    let pcpc = rendered
        .iter()
        .find(|r| r.pair_type == PairType::PcPc)
        .expect("hostBridge");
    assert!(
        pcpc.use_lineage.contains("onClick"),
        "the posted run's lineage goes through onClick: {}",
        pcpc.use_lineage
    );
}

#[test]
fn browser_fragment_case_is_detected_and_mhb_filtered() {
    // Table 3's last row: the paper's prototype could not model the
    // fragment and reported "Not detected"; with fragment support the
    // pair is detected and pruned by the sound MHB-Lifecycle filter —
    // the verdict the paper predicted "with proper implementation".
    let program = paper::browser_fragment();
    let deva = run_deva(&program);
    assert_eq!(deva.len(), 1, "DEvA reports the fragment anomaly");

    let analysis = analyze(&program, &AnalysisConfig::default());
    assert!(
        !analysis.warnings().is_empty(),
        "fragment callbacks are armed and detected"
    );
    assert_eq!(analysis.summary().after_unsound, 0);
    let pruner = analysis.sound_outcomes().iter().find_map(|o| o.pruned_by);
    assert_eq!(pruner, Some(FilterKind::Mhb));
}

#[test]
fn fragment_callbacks_follow_their_own_lifecycle_dynamically() {
    // A harmful fragment UAF (free in onPause, no re-allocation) is
    // witnessable through the fragment's lifecycle automaton.
    let program = nadroid::ir::parse_program(
        r#"
        app F
        activity Host { }
        fragment Frag in Host {
            field f: Frag
            cb onCreate { f = new Frag }
            cb onClick { use f }
            cb onPause { f = null }
        }
        manifest { main Host }
        "#,
    )
    .unwrap();
    let analysis = analyze(&program, &AnalysisConfig::default());
    assert_eq!(analysis.summary().after_unsound, 1);
    assert_eq!(
        confirm(&analysis).harmful,
        1,
        "fragment UAF has an NPE witness"
    );
}
