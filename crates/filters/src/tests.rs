//! Filter tests: each Figure 4 example must be pruned by exactly the
//! filter the paper names, and the Figure 1 harmful cases must survive.

use super::*;
use nadroid_detector::{detect, DetectorOptions, UafWarning};
use nadroid_ir::parse_program;
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;

struct Setup {
    program: Program,
    threads: ThreadModel,
    pts: PointsTo,
    escape: Escape,
    hb: HbGraph,
    warnings: Vec<UafWarning>,
}

fn setup(src: &str) -> Setup {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
    let threads = ThreadModel::build(&program);
    let pts = PointsTo::run(&program, &threads, 2);
    let escape = Escape::compute(&program, &threads, &pts);
    let warnings = detect(
        &program,
        &threads,
        &pts,
        &escape,
        DetectorOptions::default(),
    );
    let hb = HbGraph::build(&program, &threads);
    Setup {
        program,
        threads,
        pts,
        escape,
        hb,
        warnings,
    }
}

impl Setup {
    fn filters(&self) -> Filters<'_> {
        Filters::with_hb(
            &self.program,
            &self.threads,
            &self.pts,
            &self.escape,
            &self.hb,
        )
    }

    /// Find the warning whose use is in `use_m` and free in `free_m`.
    fn warning(&self, use_m: &str, free_m: &str) -> &UafWarning {
        self.warnings
            .iter()
            .find(|w| {
                self.program.method(w.use_access.method).name() == use_m
                    && self.program.method(w.free_access.method).name() == free_m
            })
            .unwrap_or_else(|| {
                panic!(
                    "no warning use={use_m} free={free_m}; have: {:?}",
                    self.warnings
                        .iter()
                        .map(|w| (
                            self.program.method(w.use_access.method).name(),
                            self.program.method(w.free_access.method).name()
                        ))
                        .collect::<Vec<_>>()
                )
            })
    }
}

// --- Figure 4 (a): MHB-Service --------------------------------------------

const FIG4A: &str = r#"
    app Fig4a
    activity M {
        field f: M
        field src: M
        cb onCreate { bind this }
        fn getF { useret src }
        cb onServiceConnected { f = call getF  use f }
        cb onServiceDisconnected { f = null }
    }
"#;

#[test]
fn fig4a_pruned_by_mhb() {
    let s = setup(FIG4A);
    let w = s.warning("onServiceConnected", "onServiceDisconnected");
    let f = s.filters();
    assert!(
        f.prunes(FilterKind::Mhb, w),
        "MHB-Service prunes connected-before-disconnected"
    );
    // The MA filter also covers it (getter assumed non-null) — the paper
    // notes fine-grained filters overlap coarse ones.
    assert!(f.prunes(FilterKind::Ma, w));
    assert!(
        !f.prunes(FilterKind::Ia, w),
        "IA is sound: getters are not allocations"
    );
}

// --- Figure 4 (b): IG -------------------------------------------------------

const FIG4B: &str = r#"
    app Fig4b
    activity M {
        field f: M
        cb onClick { if f != null { use f } }
        cb onLongClick { f = null }
    }
"#;

#[test]
fn fig4b_pruned_by_ig() {
    let s = setup(FIG4B);
    let w = s.warning("onClick", "onLongClick");
    let f = s.filters();
    assert!(f.prunes(FilterKind::Ig, w), "guard + callback atomicity");
    assert!(!f.prunes(FilterKind::Mhb, w));
    assert!(!f.prunes(FilterKind::Ia, w));
    let outcome = &f.pipeline(vec![w.clone()], FilterKind::all())[0];
    assert_eq!(outcome.pruned_by, Some(FilterKind::Ig));
}

// --- Figure 4 (c): IA -------------------------------------------------------

const FIG4C: &str = r#"
    app Fig4c
    activity M {
        field f: M
        cb onClick { f = new M  use f }
        cb onLongClick { f = null }
    }
"#;

#[test]
fn fig4c_pruned_by_ia() {
    let s = setup(FIG4C);
    let w = s.warning("onClick", "onLongClick");
    let f = s.filters();
    assert!(f.prunes(FilterKind::Ia, w));
    assert!(!f.prunes(FilterKind::Ig, w));
    assert!(!f.prunes(FilterKind::Mhb, w));
}

// --- Figure 4 (d): RHB ------------------------------------------------------

const FIG4D: &str = r#"
    app Fig4d
    activity M {
        field f: M
        cb onResume { f = new M }
        cb onPause { f = null }
        cb onClick { use f }
    }
"#;

#[test]
fn fig4d_pruned_by_rhb() {
    let s = setup(FIG4D);
    let w = s.warning("onClick", "onPause");
    let f = s.filters();
    assert!(
        f.prunes(FilterKind::Rhb, w),
        "onResume re-allocates before UI use"
    );
    assert!(
        !f.prunes(FilterKind::Mhb, w),
        "no sound order between onPause and onClick"
    );
    assert!(!f.prunes(FilterKind::Ia, w));
}

#[test]
fn fig4d_without_resume_alloc_survives_rhb() {
    let s = setup(
        r#"
        app Fig4dHarm
        activity M {
            field f: M
            cb onResume { }
            cb onPause { f = null }
            cb onClick { use f }
        }
        "#,
    );
    let w = s.warning("onClick", "onPause");
    assert!(
        !s.filters().prunes(FilterKind::Rhb, w),
        "no allocation in onResume: keep"
    );
}

// --- Figure 4 (e): CHB ------------------------------------------------------

const FIG4E: &str = r#"
    app Fig4e
    activity M {
        field f: M
        cb onClick { finish  f = null }
        cb onLongClick { use f }
    }
"#;

#[test]
fn fig4e_pruned_by_chb() {
    let s = setup(FIG4E);
    let w = s.warning("onLongClick", "onClick");
    let f = s.filters();
    assert!(
        f.prunes(FilterKind::Chb, w),
        "finish() cancels future UI callbacks"
    );
    assert!(!f.prunes(FilterKind::Mhb, w));
    assert!(!f.prunes(FilterKind::Phb, w));
}

#[test]
fn chb_unbind_covers_connection_callbacks_only() {
    let s = setup(
        r#"
        app ChbUnbind
        activity M {
            field f: M
            cb onCreate { bind Conn }
            cb onClick { unbind this  f = null }
            cb onLongClick { use f }
        }
        connection Conn in M {
            cb onServiceConnected { use outer.f }
            cb onServiceDisconnected { }
        }
        "#,
    );
    let f = s.filters();
    // unbind `this` resolves to class M, not Conn, so neither pair is
    // covered by CHB through the unbind.
    let w1 = s.warning("onLongClick", "onClick");
    assert!(
        !f.prunes(FilterKind::Chb, w1),
        "unbind does not silence UI callbacks"
    );
    let w2 = s.warning("onServiceConnected", "onClick");
    assert!(
        !f.prunes(FilterKind::Chb, w2),
        "operand class M != connection class Conn"
    );
}

#[test]
fn chb_unbind_of_connection_class_prunes() {
    let s = setup(
        r#"
        app ChbUnbind2
        activity M {
            field f: M
            field conn: Conn
            cb onCreate { conn = new Conn  t2 = load this M.conn  bindservice t2 }
            cb onClick { t2 = load this M.conn  unbindservice t2  f = null }
        }
        connection Conn in M {
            cb onServiceConnected { use outer.f }
            cb onServiceDisconnected { }
        }
        "#,
    );
    let f = s.filters();
    let w = s.warning("onServiceConnected", "onClick");
    assert!(
        f.prunes(FilterKind::Chb, w),
        "unbindService(conn) silences Conn's callbacks"
    );
}

// --- Figure 4 (f): PHB ------------------------------------------------------

const FIG4F: &str = r#"
    app Fig4f
    activity M {
        field f: M
        cb onClick { send H  use f }
    }
    handler H in M {
        cb handleMessage { outer.f = null }
    }
"#;

#[test]
fn fig4f_pruned_by_phb() {
    let s = setup(FIG4F);
    let w = s.warning("onClick", "handleMessage");
    let f = s.filters();
    assert!(
        f.prunes(FilterKind::Phb, w),
        "poster's use precedes postee's free"
    );
    assert!(!f.prunes(FilterKind::Mhb, w));
    assert!(!f.prunes(FilterKind::Chb, w));
}

#[test]
fn phb_does_not_prune_reverse_direction() {
    // Free in the poster, use in the postee: free-then-use is exactly the
    // feasible UAF; PHB must keep it.
    let s = setup(
        r#"
        app PhbRev
        activity M {
            field f: M
            cb onClick { send H }
            cb onLongClick { f = null }
        }
        handler H in M {
            cb handleMessage { use outer.f }
        }
        "#,
    );
    let w = s.warning("handleMessage", "onLongClick");
    assert!(!s.filters().prunes(FilterKind::Phb, w));
}

// --- Figure 4 (g): UR -------------------------------------------------------

const FIG4G: &str = r#"
    app Fig4g
    activity M {
        field f: M
        fn getF { useret f }
        cb onClick { t1 = call M.getF(recv=this) }
        cb onLongClick { f = null }
    }
"#;

#[test]
fn fig4g_pruned_by_ur() {
    let s = setup(FIG4G);
    let w = s.warning("getF", "onLongClick");
    let f = s.filters();
    assert!(f.prunes(FilterKind::Ur, w), "return-only uses are benign");
    assert!(!f.prunes(FilterKind::Ig, w));
}

#[test]
fn ur_keeps_dereferencing_uses() {
    let s = setup(FIG4C);
    let w = s.warning("onClick", "onLongClick");
    assert!(!s.filters().prunes(FilterKind::Ur, w));
}

// --- TT ----------------------------------------------------------------------

const TT: &str = r#"
    app Tt
    activity M {
        field f: M
        cb onCreate { spawn W1  spawn W2 }
    }
    thread W1 in M { cb run { use outer.f } }
    thread W2 in M { cb run { outer.f = null } }
"#;

#[test]
fn thread_thread_pairs_pruned_by_tt() {
    let s = setup(TT);
    let f = s.filters();
    let w = s.warning("run", "run");
    assert!(f.prunes(FilterKind::Tt, w));
    assert!(!f.prunes(FilterKind::Ig, w));
}

#[test]
fn tt_keeps_callback_thread_pairs() {
    let s = setup(
        r#"
        app TtKeep
        activity M {
            field f: M
            cb onCreate { spawn W }
            cb onClick { use f }
        }
        thread W in M { cb run { outer.f = null } }
        "#,
    );
    let w = s.warning("onClick", "run");
    assert!(
        !s.filters().prunes(FilterKind::Tt, w),
        "C-NT pairs are the interesting ones"
    );
}

// --- Figure 1: the harmful cases survive everything -------------------------

const FIG1A: &str = r#"
    app Fig1a
    activity Console {
        field bound: Console
        cb onCreate { bind this }
        cb onServiceConnected { bound = new Console }
        cb onServiceDisconnected { bound = null }
        cb onCreateContextMenu { use bound }
    }
"#;

#[test]
fn fig1a_survives_all_filters() {
    let s = setup(FIG1A);
    let w = s.warning("onCreateContextMenu", "onServiceDisconnected");
    let f = s.filters();
    let outcome = &f.pipeline(vec![w.clone()], FilterKind::all())[0];
    assert!(
        outcome.survives(),
        "harmful EC-PC UAF must survive: {:?}",
        outcome.pruned_by
    );
}

const FIG1B: &str = r#"
    app Fig1b
    activity Console {
        field hostBridge: Console
        cb onCreate { bind this }
        cb onServiceConnected { hostBridge = new Console }
        cb onServiceDisconnected { hostBridge = null }
        cb onClick {
            if hostBridge != null { post R }
        }
    }
    runnable R in Console {
        cb run { use outer.hostBridge }
    }
"#;

#[test]
fn fig1b_survives_all_filters() {
    let s = setup(FIG1B);
    // The harmful pair: the posted run's use vs the disconnect's free.
    let w = s.warning("run", "onServiceDisconnected");
    let f = s.filters();
    let outcome = &f.pipeline(vec![w.clone()], FilterKind::all())[0];
    assert!(
        outcome.survives(),
        "the check in onClick does not protect the posted use: {:?}",
        outcome.pruned_by
    );
}

const FIG1C: &str = r#"
    app Fig1c
    activity Main {
        field jClient: Main
        cb onCreate { jClient = new Main }
        cb onResume { spawn W }
        cb onPause {
            if jClient != null { use jClient }
        }
    }
    thread W in Main {
        cb run { outer.jClient = null }
    }
"#;

#[test]
fn fig1c_survives_all_filters() {
    let s = setup(FIG1C);
    let w = s.warning("onPause", "run");
    let f = s.filters();
    assert!(
        !f.prunes(FilterKind::Ig, w),
        "if-guard is unsafe without atomicity"
    );
    let outcome = &f.pipeline(vec![w.clone()], FilterKind::all())[0];
    assert!(
        outcome.survives(),
        "C-NT UAF must survive: {:?}",
        outcome.pruned_by
    );
}

#[test]
fn fig1c_with_common_lock_is_pruned_by_ig() {
    let s = setup(
        r#"
        app Fig1cLocked
        activity Main {
            field jClient: Main
            field lock: Obj
            cb onCreate { jClient = new Main  lock = new Obj }
            cb onResume { spawn W }
            cb onPause {
                sync lock {
                    if jClient != null { use jClient }
                }
            }
        }
        thread W in Main {
            cb run {
                t1 = load this W.$outer
                t2 = load t1 Main.lock
                sync t2 {
                    free t1 Main.jClient
                }
            }
        }
        class Obj { }
        "#,
    );
    let w = s.warning("onPause", "run");
    assert!(
        s.filters().prunes(FilterKind::Ig, w),
        "guard plus a common lock restores check-to-use atomicity"
    );
}

// --- MHB details -------------------------------------------------------------

#[test]
fn mhb_lifecycle_prunes_oncreate_and_ondestroy_pairs() {
    let s = setup(
        r#"
        app Mhb
        activity M {
            field f: M
            cb onCreate { use f }
            cb onDestroy { f = null }
        }
        "#,
    );
    let w = s.warning("onCreate", "onDestroy");
    assert!(s.filters().prunes(FilterKind::Mhb, w));
}

#[test]
fn mhb_keeps_free_before_use_direction() {
    // Free in onCreate, use in onClick: the deterministic order is
    // free-then-use — a guaranteed NPE, not a false positive. MHB prunes
    // only use-MHB-free.
    let s = setup(
        r#"
        app MhbDir
        activity M {
            field f: M
            cb onCreate { f = null }
            cb onClick { use f }
        }
        "#,
    );
    let w = s.warning("onClick", "onCreate");
    assert!(!s.filters().prunes(FilterKind::Mhb, w));
}

#[test]
fn mhb_asynctask_orders_task_instance() {
    let s = setup(
        r#"
        app MhbTask
        activity M {
            field data: M
            cb onClick { execute T }
        }
        asynctask T in M {
            cb onPreExecute { outer.data = new M  use outer.data }
            cb doInBackground { }
            cb onPostExecute { outer.data = null }
        }
        "#,
    );
    let w = s.warning("onPreExecute", "onPostExecute");
    assert!(
        s.filters().prunes(FilterKind::Mhb, w),
        "pre must precede post"
    );
}

#[test]
fn mhb_asynctask_different_components_not_ordered() {
    // Same task class executed from two different activities: two task
    // instances with different origin sites; pre of one is not ordered
    // with post of the other.
    let s = setup(
        r#"
        app MhbTask2
        activity A { cb onClick { execute T } }
        activity B { cb onClick { execute T } }
        asynctask T {
            field d: T
            cb onPreExecute { use d }
            cb doInBackground { }
            cb onPostExecute { d = null }
        }
        "#,
    );
    let f = s.filters();
    let cross: Vec<&UafWarning> = s
        .warnings
        .iter()
        .filter(|w| {
            s.program.method(w.use_access.method).name() == "onPreExecute"
                && s.threads.thread(w.use_thread).origin_site()
                    != s.threads.thread(w.free_thread).origin_site()
        })
        .collect();
    assert!(!cross.is_empty(), "cross-instance pairs exist");
    for w in cross {
        assert!(
            !f.prunes(FilterKind::Mhb, w),
            "cross-instance AsyncTask pairs stay"
        );
    }
}

// --- §8.1 multi-looper refinement ---------------------------------------

const MULTI_LOOPER: &str = r#"
    app Ml
    activity M {
        field f: M
        cb onCreate { f = new M  send H }
        cb onClick { if f != null { use f } }
    }
    looperthread Worker { }
    handler H in M on Worker {
        cb handleMessage { outer.f = null }
    }
"#;

#[test]
fn ig_does_not_prune_across_loopers() {
    let s = setup(MULTI_LOOPER);
    let w = s.warning("onClick", "handleMessage");
    let f = s.filters();
    assert!(
        !f.prunes(FilterKind::Ig, w),
        "the guard gives no atomicity against a handler on another looper"
    );
    let outcome = &f.pipeline(vec![w.clone()], FilterKind::all())[0];
    assert!(
        outcome.survives(),
        "cross-looper guarded UAF must be reported"
    );
}

#[test]
fn ig_still_prunes_same_custom_looper_pairs() {
    // Both callbacks on the same worker looper are atomic again.
    let s = setup(
        r#"
        app Ml2
        activity M {
            field f: M
            cb onCreate { f = new M  send H1  send H2 }
        }
        looperthread Worker { }
        handler H1 in M on Worker {
            cb handleMessage { if outer.f != null { use outer.f } }
        }
        handler H2 in M on Worker {
            cb handleMessage { outer.f = null }
        }
        "#,
    );
    let w = s.warning("handleMessage", "handleMessage");
    assert!(
        s.filters().prunes(FilterKind::Ig, w),
        "same custom looper restores callback atomicity"
    );
}

// --- thread-level MHB query (used by the no-sleep client) -----------------

#[test]
fn mhb_edge_is_queryable_directly() {
    let s = setup(
        r#"
        app Mq
        activity M {
            field f: M
            cb onCreate { use f }
            cb onClick { }
            cb onDestroy { f = null }
        }
        "#,
    );
    let find = |name: &str| {
        s.threads
            .threads()
            .find(|(_, t)| t.root().is_some_and(|m| s.program.method(m).name() == name))
            .unwrap()
            .0
    };
    let create = find("onCreate");
    let click = find("onClick");
    let destroy = find("onDestroy");
    let mhb = |a, b| s.hb.mhb_edge(a, b).is_some();
    assert!(mhb(create, click));
    assert!(mhb(create, destroy));
    assert!(mhb(click, destroy));
    assert!(!mhb(destroy, create));
    assert!(!mhb(click, create));
}

#[test]
fn pipeline_attribution_uses_first_filter_in_order() {
    // A pair both MHB and IA would prune: MHB comes first in the
    // pipeline, and all_pruning records both (Figure 5's overlap data).
    let s = setup(
        r#"
        app O
        activity M {
            field f: M
            cb onCreate { f = new M  use f }
            cb onDestroy { f = null }
        }
        "#,
    );
    let w = s.warning("onCreate", "onDestroy");
    let outcome = &s.filters().pipeline(vec![w.clone()], FilterKind::all())[0];
    assert_eq!(outcome.pruned_by, Some(FilterKind::Mhb));
    assert!(outcome.all_pruning.contains(&FilterKind::Ia));
    assert!(outcome.all_pruning.len() >= 2);
}

// --- verdicts (audit trail) ------------------------------------------------

#[test]
fn verdicts_agree_with_prunes_for_every_filter() {
    // FilterVerdict.pruned is computed by prunes(), so the audit trail can
    // never drift from the Figure 5 tallies; pin the contract anyway.
    let s = setup(FIG4A);
    let f = s.filters();
    for w in &s.warnings {
        for &kind in FilterKind::all() {
            let v = f.verdict(kind, w);
            assert_eq!(v.kind, kind);
            assert_eq!(v.pruned, f.prunes(kind, w));
            assert!(!v.evidence.is_empty(), "{kind} produced empty evidence");
        }
    }
}

#[test]
fn mhb_verdict_names_the_edge() {
    let s = setup(FIG4A);
    let w = s.warning("onServiceConnected", "onServiceDisconnected");
    let v = s.filters().verdict(FilterKind::Mhb, w);
    assert!(v.pruned);
    assert!(
        v.evidence.contains("MHB-Service"),
        "evidence: {}",
        v.evidence
    );
}

#[test]
fn unpruned_mhb_verdict_explains_the_absence() {
    let s = setup(
        r#"
        app V
        activity M {
            field f: M
            cb onClick { use f }
            cb onPause { f = null }
        }
        "#,
    );
    let w = s.warning("onClick", "onPause");
    let v = s.filters().verdict(FilterKind::Mhb, w);
    assert!(!v.pruned);
    assert!(
        v.evidence.contains("no must-happens-before edge"),
        "evidence: {}",
        v.evidence
    );
}

#[test]
fn figure4_pruning_sets_are_pinned() {
    use FilterKind::*;
    // The exact pruning set of every Figure 4 warning, keyed by the
    // methods of its use and free: each example is pruned by the filter
    // the paper names, plus the overlaps it notes (MA over MHB and IA).
    let table: [(&str, &str, &str, &[FilterKind]); 7] = [
        (
            FIG4A,
            "onServiceConnected",
            "onServiceDisconnected",
            &[Mhb, Ma],
        ),
        (FIG4B, "onClick", "onLongClick", &[Ig]),
        (FIG4C, "onClick", "onLongClick", &[Ia, Ma]),
        (FIG4D, "onClick", "onPause", &[Rhb]),
        (FIG4E, "onLongClick", "onClick", &[Chb]),
        (FIG4F, "onClick", "handleMessage", &[Phb]),
        (FIG4G, "getF", "onLongClick", &[Ur]),
    ];
    for (src, use_m, free_m, expected) in table {
        let s = setup(src);
        assert_eq!(s.warnings.len(), 1, "one warning in {src}");
        let w = s.warning(use_m, free_m);
        let f = s.filters();
        let pruning: Vec<FilterKind> = FilterKind::all()
            .iter()
            .copied()
            .filter(|&k| f.prunes(k, w))
            .collect();
        assert_eq!(
            pruning, expected,
            "pruning set of {use_m}/{free_m} in {src}"
        );
    }
}

// --- predicate refutation filter ------------------------------------------

use refute::{RefutationReason, Refuter};

const DIALOG_DISMISS: &str = r#"
    app RDlg
    activity Main {
        field dlg: Dlg
        field f: Main
        cb onCreate { dlg = new Dlg  show dlg  f = new Main }
        cb onStop { dismiss dlg }
        cb onDestroy { f = null }
    }
    dialog Dlg in Main {
        cb onShow { use outer.f }
    }
"#;

#[test]
fn dialog_dismiss_refutes_the_survivor() {
    let s = setup(DIALOG_DISMISS);
    let w = s.warning("onShow", "onDestroy");
    let f = s.filters();
    // The §6 pipeline keeps this warning (the whole point of the
    // refutation layer)…
    let outcomes = f.pipeline(vec![w.clone()], FilterKind::all());
    assert!(
        outcomes[0].survives(),
        "pruned by {:?}",
        outcomes[0].pruned_by
    );
    // …and the refuter kills it with a Disabled contradiction chain.
    let r = Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .expect("refuted");
    assert_eq!(r.reason, RefutationReason::Disabled);
    let joined = r.chain.join("\n");
    assert!(joined.contains("dialog"), "chain: {joined}");
    assert!(joined.contains("Dialog.dismiss()"), "chain: {joined}");
    assert!(joined.contains("once-only onCreate"), "chain: {joined}");
}

#[test]
fn pause_only_dismiss_is_not_refuted() {
    // The stop-skip path (onCreate → onStart → onStop → onDestroy) never
    // pauses, so a dismiss in onPause proves nothing: the warning stands.
    let s = setup(
        r#"
        app RDlg
        activity Main {
            field dlg: Dlg
            field f: Main
            cb onCreate { dlg = new Dlg  show dlg  f = new Main }
            cb onPause { dismiss dlg }
            cb onDestroy { f = null }
        }
        dialog Dlg in Main {
            cb onShow { use outer.f }
        }
        "#,
    );
    let w = s.warning("onShow", "onDestroy");
    assert!(Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .is_none());
}

#[test]
fn late_disable_is_not_refuted() {
    // Free in onStop, dismiss only in onDestroy: the automaton orders the
    // free before the dismiss, so the dialog is still armed when the free
    // runs — harmful, and the refuter must keep it.
    let s = setup(
        r#"
        app RDlg
        activity Main {
            field dlg: Dlg
            field f: Main
            cb onCreate { dlg = new Dlg  show dlg  f = new Main }
            cb onStop { f = null }
            cb onDestroy { dismiss dlg }
        }
        dialog Dlg in Main {
            cb onShow { use outer.f }
        }
        "#,
    );
    let w = s.warning("onShow", "onStop");
    assert!(Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .is_none());
}

#[test]
fn fragment_detach_free_is_refuted_by_extended_order() {
    let s = setup(
        r#"
        app RFrag
        manifest { main Main }
        activity Main {
            field f: Main
            cb onCreate { f = new Main }
        }
        fragment Frag in Main {
            cb onCreateView { use Main.f }
            cb onDetach { Main.f = null }
        }
        "#,
    );
    let w = s.warning("onCreateView", "onDetach");
    let f = s.filters();
    let outcomes = f.pipeline(vec![w.clone()], FilterKind::all());
    assert!(
        outcomes[0].survives(),
        "pruned by {:?}",
        outcomes[0].pruned_by
    );
    let r = Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .expect("refuted");
    assert_eq!(r.reason, RefutationReason::ExtendedOrder);
    assert!(
        r.chain.join("\n").contains("fragment automaton"),
        "chain: {:?}",
        r.chain
    );
}

#[test]
fn task_stack_launch_is_refuted_by_extended_order() {
    let s = setup(
        r#"
        app RTask
        manifest { main Main }
        activity Main {
            field f: Main
            cb onCreate { f = new Main  use f  startactivity Second }
        }
        activity Second {
            cb onCreate { Main.f = null }
        }
        "#,
    );
    let w = s.warning("onCreate", "onCreate");
    let r = Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .expect("refuted");
    assert_eq!(r.reason, RefutationReason::ExtendedOrder);
    assert!(
        r.chain.join("\n").contains("task stack"),
        "chain: {:?}",
        r.chain
    );
}

#[test]
fn alarm_cancel_refutes_the_survivor() {
    let s = setup(
        r#"
        app RAlarm
        activity Main {
            field rcv: Rcv
            field f: Main
            cb onCreate { rcv = new Rcv  schedule rcv  f = new Main }
            cb onStop { cancelalarm rcv }
            cb onDestroy { f = null }
        }
        receiver Rcv {
            cb onAlarm { use Main.f }
        }
        "#,
    );
    let w = s.warning("onAlarm", "onDestroy");
    let r = Refuter::new(&s.program, &s.threads, &s.hb)
        .refute(w)
        .expect("refuted");
    assert_eq!(r.reason, RefutationReason::Disabled);
    assert!(
        r.chain.join("\n").contains("AlarmManager.cancel()"),
        "chain: {:?}",
        r.chain
    );
}

#[test]
fn paper_survivors_are_never_refuted() {
    // The refuter runs over §6 *survivors*; on the paper programs (which
    // use no summarized enable/disable pair beyond what MHB already
    // orders) it must be a strict no-op: every surviving warning stands.
    for src in [FIG4A, FIG4B, FIG4C, FIG4D, FIG4E, FIG4F, FIG4G] {
        let s = setup(src);
        let f = s.filters();
        let outcomes = f.pipeline(s.warnings.clone(), FilterKind::all());
        let r = Refuter::new(&s.program, &s.threads, &s.hb);
        for o in outcomes.iter().filter(|o| o.survives()) {
            assert!(
                r.refute(&o.warning).is_none(),
                "refuted a surviving paper warning in {src}: {:?}",
                o.warning.pair()
            );
        }
    }
}
