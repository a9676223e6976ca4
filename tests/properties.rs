//! Cross-crate property tests.
//!
//! The generator gives us an unbounded family of well-formed Android app
//! models, which makes it a natural proptest strategy: every invariant
//! here is checked against randomly composed apps.

use nadroid::core::{analyze, AnalysisConfig};
use nadroid::corpus::{
    generate, refute_specs, scale_specs, spec_for, table1_rows, AppSpec, PatternKind,
};
use nadroid::dynamic::{explore, ExploreConfig, Goal};
use nadroid::ir::{parse_program, print_program, ClassId, Op, Program};
use nadroid::threadify::{ThreadId, ThreadModel};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random multiset of patterns (small, to keep the dynamic
/// checks tractable).
fn spec_strategy(max_per_kind: usize) -> impl Strategy<Value = AppSpec> {
    let kinds = PatternKind::all();
    (
        proptest::collection::vec(0..=max_per_kind, kinds.len()),
        any::<u64>(),
    )
        .prop_map(move |(counts, seed)| {
            let mut spec = AppSpec::new("Prop", seed);
            for (i, &n) in counts.iter().enumerate() {
                spec = spec.with(kinds[i], n);
            }
            spec
        })
}

/// Manifest reachability of one component by a scan of the whole
/// program, the definition `Program::reachable_components` computes for
/// every class in one pass.
fn reference_component_reachable(p: &Program, component: ClassId) -> bool {
    let Some(main) = p.manifest().main_activity() else {
        return true;
    };
    if component == main || p.manifest().declared_receivers().contains(&component) {
        return true;
    }
    if !p.class(component).role().is_component() {
        return true;
    }
    p.instrs().into_iter().any(|(mid, i)| {
        p.outermost_class(p.method(mid).owner()) != component
            && matches!(
                i.op,
                Op::New { class, .. } | Op::LoadStatic { class, .. } if class == component
            )
    })
}

/// The LOC of Table 1 as defined: the non-blank lines of the canonical
/// printed form, counted by printing it.
fn printed_loc(p: &Program) -> usize {
    print_program(p)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// `Program::loc` equals the printed count on every corpus population:
/// the 27 Table 1 apps, the 1000-app scale corpus, the refutation apps,
/// and the hand-written `apps/*.dsl` models.
#[test]
fn loc_counts_the_nonblank_printed_lines_of_every_corpus_app() {
    let paper = table1_rows();
    let specs = paper
        .iter()
        .map(spec_for)
        .chain(scale_specs(1000))
        .chain(refute_specs());
    for spec in specs {
        let p = generate(&spec).program;
        assert_eq!(p.loc(), printed_loc(&p), "{}", p.name());
    }
    let apps = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/apps")).expect("apps/");
    for entry in apps {
        let path = entry.expect("readable dir entry").path();
        let text = std::fs::read_to_string(&path).expect("readable app");
        let p = parse_program(&text).expect("the hand-written apps parse");
        assert_eq!(p.loc(), printed_loc(&p), "{}", path.display());
    }
}

/// A relation over `ids` as rows: `rows[i][j]` is `rel(ids[i], ids[j])`.
fn rows(ids: &[ThreadId], rel: impl Fn(ThreadId, ThreadId) -> bool) -> Vec<Vec<bool>> {
    ids.iter()
        .map(|&a| ids.iter().map(|&b| rel(a, b)).collect())
        .collect()
}

/// Whether a relation given as rows is transitive: for every a→b, the
/// successors of b are successors of a.
fn is_transitive(rows: &[Vec<bool>]) -> bool {
    rows.iter().all(|succ_a| {
        succ_a
            .iter()
            .zip(rows)
            .all(|(&ab, succ_b)| !ab || succ_b.iter().zip(succ_a).all(|(&bc, &ac)| !bc || ac))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-pass reachability table equals the per-component scan on
    /// every class: with the generator's manifest, whose main activity
    /// references every cluster but the `FpUnreachable` ones, and with
    /// the manifest removed, when every class is reachable.
    #[test]
    fn reachable_components_match_the_per_component_scan(spec in spec_strategy(2)) {
        let app = generate(&spec);
        let printed = print_program(&app.program);
        let (classes, _) = printed
            .split_once("\nmanifest {")
            .expect("generated apps have a manifest");
        let bare = parse_program(classes).expect("the classes parse without the manifest");
        prop_assert!(app.program.manifest().main_activity().is_some());
        prop_assert!(bare.manifest().main_activity().is_none());
        for p in [&app.program, &bare] {
            let table = p.reachable_components();
            prop_assert_eq!(table.len(), p.class_ids().count());
            for c in p.class_ids() {
                let name = p.class(c).name();
                prop_assert_eq!(table[c.index()], reference_component_reachable(p, c), "{}", name);
                prop_assert_eq!(p.component_reachable(c), table[c.index()]);
            }
        }
    }

    /// The printer emits exactly the canonical DSL the parser accepts,
    /// and parsing it back reproduces the program.
    #[test]
    fn parse_print_round_trips(spec in spec_strategy(2)) {
        let app = generate(&spec);
        let printed = print_program(&app.program);
        let reparsed = parse_program(&printed).expect("canonical form parses");
        prop_assert_eq!(&app.program, &reparsed);
        prop_assert_eq!(print_program(&reparsed), printed);
    }

    /// `Program::loc` counts the printed form's non-blank lines without
    /// printing it.
    #[test]
    fn loc_counts_the_nonblank_printed_lines(spec in spec_strategy(2)) {
        let app = generate(&spec);
        prop_assert_eq!(app.program.loc(), printed_loc(&app.program));
    }

    /// The analysis pipeline is deterministic.
    #[test]
    fn analysis_is_deterministic(spec in spec_strategy(1)) {
        let app = generate(&spec);
        let a = analyze(&app.program, &AnalysisConfig::default());
        let b = analyze(&app.program, &AnalysisConfig::default());
        prop_assert_eq!(a.summary(), b.summary());
        prop_assert_eq!(a.warnings(), b.warnings());
    }

    /// Raising k never *adds* warning pairs (sensitivity only refines).
    #[test]
    fn sensitivity_is_monotone(spec in spec_strategy(1)) {
        let app = generate(&spec);
        let k0 = analyze(&app.program, &AnalysisConfig { k: 0, ..Default::default() });
        let k2 = analyze(&app.program, &AnalysisConfig::default());
        prop_assert!(k2.summary().potential <= k0.summary().potential);
    }

    /// The predicate-extended closure `predHb` is still a strict partial
    /// order — irreflexive, transitive, and a superset of `must_hb` —
    /// and the negative relation `mustNotHb` never intersects it, at
    /// every thread budget. The refutation filter is only sound if both
    /// invariants hold, so they are checked on randomly composed apps
    /// (the pattern pool includes the `Refute*` kinds, which plant
    /// enabling/disabling pairs, fragments, and task-stack launches).
    #[test]
    fn pred_hb_is_a_strict_partial_order_disjoint_from_must_not_hb(spec in spec_strategy(2)) {
        let app = generate(&spec);
        let threads = ThreadModel::build(&app.program);
        for budget in [1usize, 2, 4, 8] {
            let g = nadroid::par::with_threads(budget, || {
                nadroid::hb::HbGraph::build(&app.program, &threads)
            });
            let ids: Vec<_> = threads.threads().map(|(id, _)| id).collect();
            let pred = rows(&ids, |a, b| g.pred_must_hb(a, b));
            prop_assert!(is_transitive(&pred), "predHb must be transitive (K={budget})");
            for (i, &a) in ids.iter().enumerate() {
                prop_assert!(!pred[i][i], "predHb must be irreflexive (K={budget})");
                for (j, &b) in ids.iter().enumerate() {
                    if g.must_hb(a, b) {
                        prop_assert!(pred[i][j], "predHb must contain must_hb (K={budget})");
                    }
                    if pred[i][j] {
                        prop_assert!(!pred[j][i], "predHb must be asymmetric (K={budget})");
                    }
                    prop_assert!(
                        !(g.must_not_hb(a, b) && pred[i][j]),
                        "mustNotHb and predHb (hence mustHb) must be disjoint (K={budget})"
                    );
                }
            }
        }
    }

    /// `must_hb` is a strict partial order — irreflexive and transitive —
    /// and `mhp` is exactly its symmetric complement: two distinct
    /// threads may happen in parallel iff neither is must-ordered before
    /// the other, so the two relations never overlap.
    #[test]
    fn must_hb_is_a_strict_partial_order_disjoint_from_mhp(spec in spec_strategy(2)) {
        let app = generate(&spec);
        let threads = ThreadModel::build(&app.program);
        let g = nadroid::hb::HbGraph::build(&app.program, &threads);
        let ids: Vec<_> = threads.threads().map(|(id, _)| id).collect();
        let must = rows(&ids, |a, b| g.must_hb(a, b));
        prop_assert!(is_transitive(&must), "must_hb is transitive");
        for (i, &a) in ids.iter().enumerate() {
            prop_assert!(!must[i][i], "must_hb must be irreflexive");
            prop_assert!(!g.mhp(a, a), "a thread never races itself");
            for (j, &b) in ids.iter().enumerate() {
                if g.mhp(a, b) {
                    prop_assert!(g.mhp(b, a), "mhp is symmetric");
                    prop_assert!(!must[i][j] && !must[j][i], "mhp and must_hb are disjoint");
                } else if a != b {
                    prop_assert!(
                        must[i][j] || must[j][i],
                        "non-mhp distinct threads are must-ordered"
                    );
                }
            }
        }
    }

    /// The witness-path queries answer from the closure first, so they
    /// must agree with it: over every ordered pair of threads that appear
    /// in a warning, a path exists iff the closure orders the pair, and
    /// each hop of a path is a direct edge of the relation the closure
    /// is built from (must edges, plus `predEdge` for the `pred_` form).
    #[test]
    fn witness_paths_agree_with_the_closure(spec in spec_strategy(2)) {
        let app = generate(&spec);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        let g = analysis.hb();
        let must: BTreeSet<(ThreadId, ThreadId)> = g
            .edges()
            .iter()
            .filter(|e| e.kind.is_must())
            .map(|e| (e.src, e.dst))
            .collect();
        let mut pred = must.clone();
        pred.extend(g.pred_edges().iter().map(|e| (e.src, e.dst)));
        let ids: BTreeSet<ThreadId> = analysis
            .warnings()
            .iter()
            .flat_map(|w| [w.use_thread, w.free_thread])
            .collect();
        for &a in &ids {
            for &b in &ids {
                let paths = [
                    (g.must_hb_path(a, b), g.must_hb(a, b), &must),
                    (g.pred_must_hb_path(a, b), g.pred_must_hb(a, b), &pred),
                ];
                for (path, ordered, edges) in paths {
                    prop_assert_eq!(path.is_some(), ordered);
                    let Some(path) = path else { continue };
                    prop_assert_eq!(path.first(), Some(&a));
                    prop_assert_eq!(path.last(), Some(&b));
                    for hop in path.windows(2) {
                        prop_assert!(edges.contains(&(hop[0], hop[1])), "hop is not a direct edge");
                    }
                }
            }
        }
    }
}

proptest! {
    // Dynamic exploration is expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Soundness of the sound filters (the paper's central claim): no
    /// pair pruned by MHB/IG/IA has an NPE witness under the
    /// Android-semantics interpreter.
    #[test]
    fn sound_filters_never_prune_feasible_pairs(
        seed in any::<u64>(),
        mhb in 0usize..=1,
        ig in 0usize..=1,
        ia in 0usize..=1,
        harmful in 0usize..=1,
    ) {
        let spec = AppSpec::new("Sound", seed)
            .with(PatternKind::Mhb, mhb)
            .with(PatternKind::Ig, ig)
            .with(PatternKind::Ia, ia)
            .with(PatternKind::HarmfulEcPc, harmful);
        let app = generate(&spec);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        for outcome in analysis.sound_outcomes() {
            let Some(f) = outcome.pruned_by else { continue };
            prop_assert!(f.is_sound());
            let w = &outcome.warning;
            let witness = explore(
                &app.program,
                Goal::Pair { use_instr: w.use_access.instr, free_instr: w.free_access.instr },
                ExploreConfig::default(),
            );
            prop_assert!(witness.is_none(), "sound filter {f} pruned a feasible pair");
        }
    }
}
