//! Suite-level integration tests: the 27-app Table 1 models and the
//! Table 2 injection study must reproduce the paper's aggregate shape.

use nadroid::core::{analyze, AnalysisConfig};
use nadroid::corpus::{generate, spec_for, table1_rows, table2_rows, Expectation, PatternKind};

/// Every suite app's pipeline output must equal its planted ground truth
/// (the per-pattern expectations are certified individually in the corpus
/// crate; this checks they stay independent when composed at scale).
#[test]
fn all_27_apps_match_planted_ground_truth() {
    for row in table1_rows() {
        let app = generate(&spec_for(&row));
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let s = analysis.summary();
        let detected = app.planted.iter().filter(|k| k.detected()).count();
        let surviving = app
            .planted
            .iter()
            .filter(|k| {
                matches!(
                    k.expectation(),
                    Expectation::Harmful(_) | Expectation::FalsePositive(_)
                )
            })
            .count();
        assert_eq!(s.potential, detected, "{}: potential pairs", row.name);
        assert_eq!(s.after_unsound, surviving, "{}: surviving pairs", row.name);
    }
}

/// FNV-1a digests of each app's `nadroid-confirm/1` document: every
/// survivor's verdict, reason, state count, minimized schedule and NPE
/// site. A change that moves one on purpose re-pins these and states
/// why; the failure message prints the full current table.
const CONFIRM_DIGESTS: [(&str, u64); 6] = [
    ("Aard", 0xb60e_caa0_187b_b460),
    ("ConnectBot", 0x959a_82f7_d45d_d9e4),
    ("QKSMS", 0xff74_3f52_97dd_7abd),
    ("MyTracks_2", 0x0217_11da_5bea_0a61),
    ("Dns66", 0xb86e_3b79_1247_c43d),
    ("KissLauncher", 0xa372_c97d_80d3_bf9a),
];

/// Table 1's harmful and FP-cause columns are measured by
/// `nadroid-confirm`; the planted labels are their oracle. This covers
/// a cheap subset (witness-heavy apps and budget-exhausting ones);
/// `confirm_bench` checks all 27.
#[test]
fn measured_verdicts_match_the_planted_labels() {
    use nadroid::confirm::{confirm_survivors, pair_verdicts, render_confirm_json, ConfirmConfig};
    use nadroid::ir::Fnv64;
    let mut digests = Vec::new();
    for (name, _) in CONFIRM_DIGESTS {
        let row = table1_rows().into_iter().find(|r| r.name == name).unwrap();
        let app = generate(&spec_for(&row));
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let outcome = confirm_survivors(&analysis, &ConfirmConfig::default());
        assert_eq!(
            pair_verdicts(&analysis, &outcome),
            app.planted_verdicts(),
            "{name}"
        );
        let json = render_confirm_json(&analysis, &outcome);
        digests.push((name, Fnv64::hash(json.as_bytes())));
    }
    if digests != CONFIRM_DIGESTS {
        let mut table = String::new();
        for (name, digest) in &digests {
            table.push_str(&format!("    (\"{name}\", {digest:#018x}),\n"));
        }
        panic!("confirmation documents drifted; the current digests are:\n{table}");
    }
}

#[test]
fn suite_totals_track_the_paper() {
    let mut potential = 0usize;
    let mut after_sound = 0usize;
    let mut after_unsound = 0usize;
    let mut harmful = 0usize;
    for row in table1_rows() {
        let app = generate(&spec_for(&row));
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let s = analysis.summary();
        potential += s.potential;
        after_sound += s.after_sound;
        after_unsound += s.after_unsound;
        harmful += app
            .planted
            .iter()
            .filter(|k| matches!(k.expectation(), Expectation::Harmful(_)))
            .count();
    }
    assert_eq!(harmful, 88, "the paper's 88 confirmed harmful UAFs");
    // Aggregate reductions (paper: sound 88%, combined 96%).
    let sound_reduction = 1.0 - after_sound as f64 / potential as f64;
    let combined = 1.0 - after_unsound as f64 / potential as f64;
    assert!(
        (0.75..=0.95).contains(&sound_reduction),
        "sound filters prune most pairs: {sound_reduction:.2}"
    );
    assert!(
        (0.90..=0.99).contains(&combined),
        "combined reduction ~96%: {combined:.2}"
    );
}

#[test]
fn table2_injection_outcomes_reproduce() {
    let mut injected = 0usize;
    let mut missed = 0usize;
    let mut pruned = 0usize;
    for row in table2_rows() {
        let app = generate(&row.spec());
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let detected: Vec<usize> = analysis
            .warnings()
            .iter()
            .filter_map(|w| cluster_of_field(&app.program, w.field))
            .collect();
        let survived: Vec<usize> = analysis
            .survivors()
            .iter()
            .filter_map(|w| cluster_of_field(&app.program, w.field))
            .collect();
        for (idx, kind) in app.planted.iter().enumerate() {
            let is_injection = kind.is_real_uaf() || *kind == PatternKind::MissedOpaque;
            if !is_injection {
                continue;
            }
            injected += 1;
            if !detected.contains(&idx) {
                missed += 1;
            } else if !survived.contains(&idx) {
                pruned += 1;
            }
        }
    }
    assert_eq!(injected, 28);
    assert_eq!(missed, 2, "the two framework-laundered UAFs (Mms)");
    assert_eq!(
        pruned, 3,
        "the three error-path finish() UAFs (Browser, Puzzles)"
    );
}

fn cluster_of_field(program: &nadroid::ir::Program, field: nadroid::ir::FieldId) -> Option<usize> {
    let name = program.field(field).name();
    let digits: String = name
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

#[test]
fn figure5_shares_are_near_the_paper() {
    use nadroid::filters::FilterKind;
    // Measure individual filter effectiveness over the test group.
    let apps: Vec<_> = table1_rows()
        .into_iter()
        .filter(|r| matches!(r.group, nadroid::corpus::AppGroup::Test))
        .map(|r| generate(&spec_for(&r)))
        .collect();
    let mut potential = 0usize;
    let mut pruned_by = std::collections::BTreeMap::new();
    for app in &apps {
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        potential += analysis.summary().potential;
        let filters = analysis.filters();
        for &k in FilterKind::sound() {
            let mut pairs: Vec<_> = analysis
                .warnings()
                .iter()
                .filter(|w| filters.prunes(k, w))
                .map(nadroid::detector::UafWarning::pair)
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            *pruned_by.entry(k).or_insert(0usize) += pairs.len();
        }
    }
    let share = |k| pruned_by.get(&k).copied().unwrap_or(0) as f64 / potential as f64 * 100.0;
    // Paper: MHB 21%, IG 66%, IA 13% (each ±7 points of slack for the
    // scaled models).
    assert!(
        (share(FilterKind::Mhb) - 21.0).abs() < 7.0,
        "MHB {:.1}",
        share(FilterKind::Mhb)
    );
    assert!(
        (share(FilterKind::Ig) - 66.0).abs() < 7.0,
        "IG {:.1}",
        share(FilterKind::Ig)
    );
    assert!(
        (share(FilterKind::Ia) - 13.0).abs() < 7.0,
        "IA {:.1}",
        share(FilterKind::Ia)
    );
}

/// Heavy sanity run at a larger scale exponent (ignored by default; run
/// with `cargo test --release -- --ignored` or set `NADROID_SCALE_EXP`).
#[test]
#[ignore = "heavy: runs K-9 at ~1.4k clusters"]
fn k9_at_larger_scale_stays_consistent() {
    std::env::set_var("NADROID_SCALE_EXP", "0.68");
    let rows = table1_rows();
    let row = rows.iter().find(|r| r.name == "K-9").unwrap();
    let app = generate(&spec_for(row));
    std::env::remove_var("NADROID_SCALE_EXP");
    let analysis = analyze(&app.program, &AnalysisConfig::default());
    let s = analysis.summary();
    let detected = app.planted.iter().filter(|k| k.detected()).count();
    assert_eq!(s.potential, detected, "ground truth holds at scale");
    assert!(s.potential > 1000, "scaled up: {}", s.potential);
}
