//! Evaluation corpus: the paper-example models, a pattern library with
//! certified expected outcomes, a seeded app generator, and the 27-app
//! suite calibrated to Table 1 (plus the 8-app Table 2 injection study).
//!
//! # Example
//!
//! ```
//! use nadroid_corpus::{generate, AppSpec, PatternKind};
//! use nadroid_core::{analyze, AnalysisConfig};
//!
//! let spec = AppSpec::new("Mini", 42)
//!     .with(PatternKind::HarmfulEcPc, 1)
//!     .with(PatternKind::Ig, 2);
//! let app = generate(&spec);
//! let analysis = analyze(&app.program, &AnalysisConfig::default());
//! let s = analysis.summary();
//! assert_eq!(s.potential, 3);
//! assert_eq!(s.after_unsound, 1); // only the harmful pattern survives
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod mutation;
pub mod paper;
mod patterns;
pub mod suite;

pub use generator::{distribute, generate, AppSpec, GeneratedApp};
pub use patterns::{Expectation, PatternKind};
pub use suite::{
    refute_specs, scale_specs, spec_for, table1_rows, table2_rows, AppGroup, InjectedRow, PaperRow,
};

#[cfg(test)]
mod certification {
    //! Per-pattern certification: every pattern, generated standalone,
    //! must produce exactly its declared expectation — statically (the
    //! pipeline's first-pruner attribution / survival / pair type) and
    //! dynamically (harmful patterns have a pair witness; sound-pruned
    //! patterns have none).

    use super::*;
    use nadroid_core::{analyze, classify_fp, classify_pair, AnalysisConfig};
    use nadroid_dynamic::{explore, ExploreConfig, Goal};

    fn single(kind: PatternKind) -> GeneratedApp {
        generate(&AppSpec::new(format!("Cert{kind:?}"), 1).with(kind, 1))
    }

    #[test]
    fn every_pattern_matches_its_static_expectation() {
        for &kind in PatternKind::all() {
            let app = single(kind);
            let analysis = analyze(&app.program, &AnalysisConfig::default());
            let summary = analysis.summary();
            match kind.expectation() {
                Expectation::Benign | Expectation::Undetected => {
                    assert_eq!(summary.potential, 0, "{kind:?}: no pair expected");
                }
                Expectation::PrunedBy(f) => {
                    assert_eq!(summary.potential, 1, "{kind:?}: one pair expected");
                    assert_eq!(summary.after_unsound, 0, "{kind:?}: pruned");
                    // Find the first pruner across both stages.
                    let first = analysis
                        .sound_outcomes()
                        .iter()
                        .find_map(|o| o.pruned_by)
                        .or_else(|| analysis.unsound_outcomes().iter().find_map(|o| o.pruned_by));
                    assert_eq!(first, Some(f), "{kind:?}: pruned by the declared filter");
                }
                Expectation::Harmful(ty) => {
                    assert_eq!(summary.after_unsound, 1, "{kind:?}: survives");
                    let survivor = analysis.survivors()[0];
                    assert_eq!(
                        classify_pair(analysis.threads(), survivor),
                        ty,
                        "{kind:?}: pair type"
                    );
                }
                Expectation::FalsePositive(cause) => {
                    assert_eq!(summary.after_unsound, 1, "{kind:?}: survives");
                    let survivor = analysis.survivors()[0];
                    assert_eq!(
                        classify_fp(&app.program, analysis.pts(), survivor),
                        cause,
                        "{kind:?}: FP cause"
                    );
                }
                Expectation::Refuted(reason) => {
                    assert_eq!(summary.potential, 1, "{kind:?}: one pair expected");
                    assert_eq!(summary.after_unsound, 1, "{kind:?}: survives §6");
                    assert_eq!(summary.refuted, 1, "{kind:?}: refuted");
                    assert_eq!(summary.after_refutation, 0, "{kind:?}: not reported");
                    assert!(analysis.survivors().is_empty(), "{kind:?}");
                    let (_, refutation) = &analysis.refutations()[0];
                    assert_eq!(refutation.reason, reason, "{kind:?}: reason");
                    assert!(!refutation.chain.is_empty(), "{kind:?}: chain recorded");
                }
            }
        }
    }

    #[test]
    fn harmful_patterns_have_dynamic_witnesses() {
        for &kind in PatternKind::all() {
            if !matches!(kind.expectation(), Expectation::Harmful(_)) {
                continue;
            }
            let app = single(kind);
            let analysis = analyze(&app.program, &AnalysisConfig::default());
            let survivor = analysis.survivors()[0];
            let witness = explore(
                &app.program,
                Goal::Pair {
                    use_instr: survivor.use_access.instr,
                    free_instr: survivor.free_access.instr,
                },
                ExploreConfig::default(),
            );
            assert!(witness.is_some(), "{kind:?}: survivor must be witnessable");
        }
    }

    #[test]
    fn sound_pruned_patterns_have_no_pair_witness() {
        // The paper's central soundness claim: the sound filters never
        // prune a feasible UAF.
        for kind in [
            PatternKind::Mhb,
            PatternKind::Ig,
            PatternKind::Ia,
            PatternKind::MhbIg,
            PatternKind::MhbIa,
        ] {
            let app = single(kind);
            let analysis = analyze(&app.program, &AnalysisConfig::default());
            assert!(!analysis.warnings().is_empty(), "{kind:?}: pair detected");
            for w in analysis.warnings() {
                let witness = explore(
                    &app.program,
                    Goal::Pair {
                        use_instr: w.use_access.instr,
                        free_instr: w.free_access.instr,
                    },
                    ExploreConfig::default(),
                );
                assert!(
                    witness.is_none(),
                    "{kind:?}: sound filter pruned a feasible UAF"
                );
            }
        }
    }

    #[test]
    fn refuted_patterns_have_no_pair_witness() {
        // The refuter's soundness claim: a refutation means *no* witness
        // exists, so the schedule explorer must agree.
        for &kind in PatternKind::all() {
            if !matches!(kind.expectation(), Expectation::Refuted(_)) {
                continue;
            }
            let app = single(kind);
            let analysis = analyze(&app.program, &AnalysisConfig::default());
            let (w, _) = &analysis.refutations()[0];
            let witness = explore(
                &app.program,
                Goal::Pair {
                    use_instr: w.use_access.instr,
                    free_instr: w.free_access.instr,
                },
                ExploreConfig::default(),
            );
            assert!(
                witness.is_none(),
                "{kind:?}: the refuter contradicted a feasible UAF"
            );
        }
    }

    #[test]
    fn refuted_patterns_compose_with_the_rest_of_the_corpus() {
        // Refutation stays cluster-local: planting refuted clusters next
        // to harmful and pruned ones changes nothing but its own tally.
        let spec = AppSpec::new("RefAdd", 13)
            .with(PatternKind::RefuteDialogDismiss, 1)
            .with(PatternKind::RefuteTaskStack, 2)
            .with(PatternKind::PredicateKeptSkipPath, 1)
            .with(PatternKind::HarmfulEcPc, 1)
            .with(PatternKind::Ig, 2)
            .with(PatternKind::Benign, 1);
        let app = generate(&spec);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let s = analysis.summary();
        assert_eq!(s.potential, 7);
        assert_eq!(s.after_sound, 5); // IG prunes its 2
        assert_eq!(s.after_unsound, 5);
        assert_eq!(s.refuted, 3); // the three Refute* clusters
        assert_eq!(s.after_refutation, 2); // kept control + HarmfulEcPc
    }

    #[test]
    fn chb_false_negative_is_pruned_yet_witnessable() {
        let app = single(PatternKind::ChbFalseNegative);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        assert_eq!(analysis.summary().after_unsound, 0, "CHB prunes it");
        let w = &analysis.warnings()[0];
        let witness = explore(
            &app.program,
            Goal::Pair {
                use_instr: w.use_access.instr,
                free_instr: w.free_access.instr,
            },
            ExploreConfig::default(),
        );
        assert!(witness.is_some(), "...but the UAF is real (§8.6)");
    }

    #[test]
    fn fp_patterns_have_no_witness() {
        for kind in [
            PatternKind::FpPath,
            PatternKind::FpPointsTo,
            PatternKind::FpUnreachable,
            PatternKind::FpMissingHb,
        ] {
            let app = single(kind);
            let analysis = analyze(&app.program, &AnalysisConfig::default());
            let survivors = analysis.survivors();
            assert_eq!(survivors.len(), 1, "{kind:?}");
            let witness = explore(
                &app.program,
                Goal::Pair {
                    use_instr: survivors[0].use_access.instr,
                    free_instr: survivors[0].free_access.instr,
                },
                ExploreConfig::default(),
            );
            assert!(
                witness.is_none(),
                "{kind:?}: false positives are not witnessable"
            );
        }
    }

    #[test]
    fn patterns_compose_additively() {
        // Clusters race on disjoint fields, so analysis results add up.
        let spec = AppSpec::new("Add", 9)
            .with(PatternKind::HarmfulEcPc, 2)
            .with(PatternKind::Ig, 3)
            .with(PatternKind::Phb, 1)
            .with(PatternKind::Benign, 2);
        let app = generate(&spec);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let s = analysis.summary();
        assert_eq!(s.potential, 6);
        assert_eq!(s.after_sound, 3); // IG prunes its 3
        assert_eq!(s.after_unsound, 2); // PHB prunes its 1
    }
}
