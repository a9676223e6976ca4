//! Golden parity for the happens-before rewire: the `HbGraph`-backed
//! filters must reproduce the legacy per-filter logic *exactly* across
//! the whole 27-app Table 1 corpus — same Figure 5 tallies (rendered and
//! compared byte-for-byte), same surviving warning ids, same verdict on
//! every (warning, filter) pair. This is the CI gate that lets the
//! legacy code paths eventually retire.

use nadroid::core::{analyze, AnalysisConfig};
use nadroid::corpus::{generate, spec_for, table1_rows};
use nadroid::detector::{warning_id, UafWarning};
use nadroid::filters::{tally_outcomes, FilterKind, FilterOutcome, Filters};

/// Re-run a filter tier the way `Filters::pipeline` does, but with every
/// verdict answered by the legacy (pre-`HbGraph`) logic.
fn legacy_outcomes(
    filters: &Filters<'_>,
    warnings: &[UafWarning],
    kinds: &[FilterKind],
) -> Vec<FilterOutcome> {
    warnings
        .iter()
        .map(|w| {
            let all_pruning: Vec<FilterKind> = kinds
                .iter()
                .copied()
                .filter(|&k| filters.legacy_prunes(k, w))
                .collect();
            FilterOutcome {
                warning: w.clone(),
                pruned_by: all_pruning.first().copied(),
                all_pruning,
            }
        })
        .collect()
}

/// The predicate layer must be inert on the paper corpus: no Table 1
/// app calls a *disabling* API (no unbind/dismiss/unregister/cancel)
/// and none launches or hosts fragments, so the solved `disables` and
/// `predEdge` relations are empty, the only `enables` facts are the
/// Connection binds the service-lifecycle patterns always contained,
/// and the refuter never fires: no pair is refuted and the reported
/// population is the unsound survivors — the Figure 5 tallies and
/// surviving ids pinned by the other gates cannot move.
#[test]
fn paper_apps_have_no_predicate_facts_and_refutation_is_a_no_op() {
    let config = AnalysisConfig::default();
    for row in table1_rows() {
        let app = generate(&spec_for(&row));
        let analysis = analyze(&app.program, &config);
        let hb = analysis.hb();
        assert_eq!(
            hb.disables_count(),
            0,
            "{}: disables must be empty on the paper corpus",
            row.name
        );
        assert!(
            hb.pred_edges().is_empty(),
            "{}: no fragment or task-stack predicate edges on the paper corpus",
            row.name
        );
        for (e, c, site) in hb.enables_facts() {
            assert_eq!(
                site.api, "Context.bindService()",
                "{}: unexpected enabling API for enables({e:?}, {c:?})",
                row.name
            );
        }
        assert!(
            analysis.refutations().is_empty(),
            "{}: nothing to refute without predicate facts",
            row.name
        );
        let s = analysis.summary();
        assert_eq!(s.refuted, 0, "{}", row.name);
        assert_eq!(s.after_refutation, s.after_unsound, "{}", row.name);
    }
}

#[test]
fn hb_backed_filters_match_legacy_logic_on_all_27_apps() {
    let cfg = AnalysisConfig::default();
    for row in table1_rows() {
        let app = generate(&spec_for(&row));
        let analysis = analyze(&app.program, &cfg);
        let filters = analysis.filters();

        // Every (warning, filter) verdict, pointwise.
        for w in analysis.warnings() {
            for &k in FilterKind::all() {
                assert_eq!(
                    filters.prunes(k, w),
                    filters.legacy_prunes(k, w),
                    "{}: {k} disagrees on pair {:?}",
                    row.name,
                    w.pair()
                );
            }
        }

        // Figure 5 sound tallies, byte-identical.
        let legacy_sound = legacy_outcomes(&filters, analysis.warnings(), &cfg.sound_filters);
        assert_eq!(
            format!("{:?}", tally_outcomes(analysis.sound_outcomes(), &cfg.sound_filters)),
            format!("{:?}", tally_outcomes(&legacy_sound, &cfg.sound_filters)),
            "{}: sound Figure 5 tallies",
            row.name
        );

        // Figure 5 unsound tallies over the sound survivors.
        let legacy_survivors: Vec<UafWarning> = legacy_sound
            .iter()
            .filter(|o| o.survives())
            .map(|o| o.warning.clone())
            .collect();
        let legacy_unsound = legacy_outcomes(&filters, &legacy_survivors, &cfg.unsound_filters);
        assert_eq!(
            format!(
                "{:?}",
                tally_outcomes(analysis.unsound_outcomes(), &cfg.unsound_filters)
            ),
            format!("{:?}", tally_outcomes(&legacy_unsound, &cfg.unsound_filters)),
            "{}: unsound Figure 5 tallies",
            row.name
        );

        // Surviving warning ids, in order.
        let ids: Vec<String> = analysis
            .survivors()
            .iter()
            .map(|w| warning_id(&app.program, analysis.threads(), w))
            .collect();
        let legacy_ids: Vec<String> = legacy_unsound
            .iter()
            .filter(|o| o.survives())
            .map(|o| warning_id(&app.program, analysis.threads(), &o.warning))
            .collect();
        assert_eq!(ids, legacy_ids, "{}: surviving warning ids", row.name);
    }
}
