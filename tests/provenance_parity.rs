//! Provenance parity: the recorded racy-pair solve behind `explain`,
//! `analyze --provenance` and every serve cache miss must derive exactly
//! the detector's warnings, and its rendered documents must not drift.
//!
//! Checked on the 27 Table 1 apps plus the 6 refutation-study apps,
//! under the default configuration (no eager lockset pruning, so
//! `racyPair` and `detect` coincide).

use nadroid::core::{analyze, render_provenance_json, AnalysisConfig};
use nadroid::corpus::{generate, refute_specs, spec_for, table1_rows, AppSpec};
use nadroid::detector::derive_racy_pairs;
use nadroid::serve::cache::fnv64;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// FNV-1a digest of each app's `nadroid-provenance/4` document. A
/// change that alters provenance on purpose re-pins these and states
/// why; the failure message prints the full current table.
const PROVENANCE_DIGESTS: [(&str, u64); 33] = [
    ("ToDoList", 0x7cf8_6bec_7035_45c2),
    ("Zxing", 0xd286_a53e_10af_50b3),
    ("Music", 0x0f6d_71e4_6725_9bb9),
    ("MyTracks_1", 0x62dd_edb6_ed61_6805),
    ("Browser", 0x8112_145a_a9d9_1e6a),
    ("ConnectBot", 0xab8d_551d_623f_3e10),
    ("FireFox", 0xe8b2_9a33_0352_70b1),
    ("SoundRecorder", 0xfdb9_aefe_c751_03e9),
    ("Swiftnotes", 0x5274_8a16_3f73_57f8),
    ("PhotoAffix", 0x6a86_aa54_11ce_7f0f),
    ("MLManager", 0xb3a0_e1b2_fd09_8886),
    ("InstaMaterial", 0x42a9_a64f_83bb_f328),
    ("Tomdroid", 0xdd79_811b_0d5d_385b),
    ("SGT_Puzzles", 0xbc7c_8b31_40b9_c09b),
    ("Aard", 0x1810_0082_c7a2_b6fc),
    ("ClipStack", 0x2d8a_c3de_c3ed_fc48),
    ("KissLauncher", 0xbf0c_b61c_a8dd_b539),
    ("DashClock", 0x1c99_19d5_dd15_6a66),
    ("Dns66", 0xafba_747c_8116_1c1b),
    ("CleanMaster", 0x2add_9be4_46c6_dd5e),
    ("OmniNotes", 0x1979_aeed_5b7c_6c43),
    ("Solitaire", 0xf700_7392_7634_ce7f),
    ("Mms", 0x4f14_e7b4_22fb_503d),
    ("MyTracks_2", 0x66ee_a96d_31ba_15c8),
    ("MiMangaNu", 0x0e77_e20b_a9dc_6219),
    ("QKSMS", 0x62fc_ee5c_0e9d_8ea5),
    ("K-9", 0xfb2a_42ba_09d2_e9b5),
    ("RefuteDialogs", 0x6426_2ab6_2f87_315a),
    ("RefuteAlarms", 0x4143_a424_b2b1_a3bb),
    ("RefuteServices", 0x3eee_0cd6_9510_e259),
    ("RefuteFragments", 0x2072_2b62_0863_def0),
    ("RefuteStacks", 0x8680_853d_e74b_137c),
    ("RefuteMixed", 0xdfdc_f041_df4c_8bb4),
];

/// The 27 Table 1 apps, then the 6 refutation-study apps.
fn specs() -> Vec<AppSpec> {
    let mut specs: Vec<AppSpec> = table1_rows().iter().map(spec_for).collect();
    specs.extend(refute_specs());
    specs
}

#[test]
fn racy_pair_relation_equals_the_detector_warnings() {
    let config = AnalysisConfig::default();
    for spec in specs() {
        let app = generate(&spec);
        let analysis = analyze(&app.program, &config);
        let prov = derive_racy_pairs(
            &app.program,
            analysis.threads(),
            analysis.pts(),
            analysis.escape(),
            config.detector,
        );
        let derived: BTreeSet<Vec<u32>> = prov
            .db
            .tuples(prov.racy_pair)
            .map(<[u32]>::to_vec)
            .collect();
        let detected: BTreeSet<Vec<u32>> = analysis
            .warnings()
            .iter()
            .map(|w| {
                vec![
                    w.use_access.instr.raw(),
                    w.free_access.instr.raw(),
                    w.use_thread.raw(),
                    w.free_thread.raw(),
                ]
            })
            .collect();
        assert_eq!(derived, detected, "{}: racyPair != detect()", spec.name);
        for w in analysis.warnings() {
            assert!(
                prov.explain_warning(w).is_some(),
                "{}: a warning has no racyPair derivation",
                spec.name
            );
        }
    }
}

#[test]
fn provenance_documents_match_their_pinned_digests() {
    let config = AnalysisConfig::default();
    let mut actual = Vec::new();
    for spec in specs() {
        let app = generate(&spec);
        let analysis = analyze(&app.program, &config);
        actual.push((
            spec.name,
            fnv64(render_provenance_json(&analysis).as_bytes()),
        ));
    }
    let pinned: Vec<(String, u64)> = PROVENANCE_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    if actual != pinned {
        let mut table = String::new();
        for (name, digest) in &actual {
            let _ = writeln!(table, "    (\"{name}\", {digest:#018x}),");
        }
        panic!("provenance documents drifted; the current digests are:\n{table}");
    }
}
