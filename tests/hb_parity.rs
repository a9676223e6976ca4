//! Golden parity for the happens-before filters: each HB-family filter
//! (MHB, RHB, CHB, PHB) is one `HbGraph` query, and its verdicts must
//! equal a per-pair statement of the §6 rules kept here as the
//! reference: the pre-graph ("legacy") filter logic, written against
//! the thread model's public API with its own may-allocation walk and
//! no call into `nadroid-hb`. Checked: the same verdict on every
//! (warning, filter) pair for all nine filters, the same Figure 5
//! tallies of both tiers (rendered and compared byte-for-byte), and the
//! same surviving warning ids. The graph's closures are checked too:
//! `mustHb`, `postHb` and `predHb` must equal a Datalog solve of the
//! rules that define them on every ordered thread pair. Run on the 27
//! Table 1 apps, the 6 refutation-study apps, the Figure 4 gallery, the
//! hand-written `apps/*.dsl` models and `HB_RULES`, whose warnings hinge
//! on rules no corpus app exercises.

use nadroid::android::{lifecycle, CallbackKind, CancelApi, PredicateFamily};
use nadroid::core::{analyze, AnalysisConfig};
use nadroid::corpus::paper::figure4_gallery;
use nadroid::corpus::{generate, refute_specs, spec_for, table1_rows};
use nadroid::datalog::{Database, RuleSet, Term};
use nadroid::detector::{warning_id, UafWarning};
use nadroid::filters::{tally_outcomes, FilterKind, FilterOutcome, Filters};
use nadroid::hb::{HbEdgeKind, HbGraph};
use nadroid::ir::{parse_program, FieldId, Local, MethodId, Op, Program};
use nadroid::threadify::resolve::SiteAction;
use nadroid::threadify::{own_methods, SpawnVia, ThreadId, ThreadKind, ThreadModel};
use std::collections::{BTreeMap, HashSet};

/// The §6 ordering rules stated pair by pair over the thread model.
/// The filters with no ordering component (IG, IA, MA, UR, TT) have one
/// implementation, [`Filters::prunes`], which the reference defers to.
struct Legacy<'a> {
    program: &'a Program,
    threads: &'a ThreadModel,
    filters: &'a Filters<'a>,
}

impl Legacy<'_> {
    fn prunes(&self, kind: FilterKind, w: &UafWarning) -> bool {
        match kind {
            FilterKind::Mhb => self.mhb(w.use_thread, w.free_thread),
            FilterKind::Rhb => self.rhb(w),
            FilterKind::Chb => self.chb(w),
            FilterKind::Phb => self.phb(w),
            FilterKind::Ig | FilterKind::Ia | FilterKind::Ma | FilterKind::Ur | FilterKind::Tt => {
                self.filters.prunes(kind, w)
            }
        }
    }

    /// The callback kind a thread behaves as for ordering purposes
    /// (`doInBackground` bodies take part in the AsyncTask order).
    fn kind(&self, t: ThreadId) -> Option<CallbackKind> {
        match self.threads.thread(t).kind() {
            ThreadKind::Callback(k) => Some(k),
            ThreadKind::TaskBody => Some(CallbackKind::DoInBackground),
            ThreadKind::DummyMain | ThreadKind::Native => None,
        }
    }

    fn same_component(&self, a: ThreadId, b: ThreadId) -> bool {
        let ca = self.threads.thread(a).component();
        ca.is_some() && ca == self.threads.thread(b).component()
    }

    fn same_class(&self, a: ThreadId, b: ThreadId) -> bool {
        let ca = self.threads.thread(a).class();
        ca.is_some() && ca == self.threads.thread(b).class()
    }

    /// MHB (§6.1.1): Service on the same connection class, AsyncTask on
    /// the same task instance (class and execute site), or Lifecycle on
    /// the same component.
    fn mhb(&self, first: ThreadId, second: ThreadId) -> bool {
        let (Some(uk), Some(fk)) = (self.kind(first), self.kind(second)) else {
            return false;
        };
        let same_task = self.same_class(first, second)
            && self.threads.thread(first).origin_site()
                == self.threads.thread(second).origin_site();
        (lifecycle::service_mhb(uk, fk) && self.same_class(first, second))
            || (lifecycle::asynctask_mhb(uk, fk) && same_task)
            || (lifecycle::lifecycle_mhb(uk, fk) && self.same_component(first, second))
    }

    /// RHB (§6.2.1): a UI-use / `onPause`-free pair of one component,
    /// where some `onResume` of that component may re-allocate the field.
    fn rhb(&self, w: &UafWarning) -> bool {
        let (Some(uk), Some(fk)) = (self.kind(w.use_thread), self.kind(w.free_thread)) else {
            return false;
        };
        if fk != CallbackKind::OnPause || !(uk.is_ui() || uk.is_system()) {
            return false;
        }
        if !self.same_component(w.use_thread, w.free_thread) {
            return false;
        }
        let component = self.threads.thread(w.use_thread).component();
        self.threads.threads().any(|(_, mt)| {
            mt.kind().callback_kind() == Some(CallbackKind::OnResume)
                && mt.component() == component
                && mt
                    .root()
                    .is_some_and(|root| may_alloc_field(self.program, root, w.use_access.field))
        })
    }

    /// CHB (§6.2.1): some site of the freeing callback invokes a
    /// cancellation API whose scope covers the use's callback family.
    fn chb(&self, w: &UafWarning) -> bool {
        let Some(uk) = self.kind(w.use_thread) else {
            return false;
        };
        let use_class = self.threads.thread(w.use_thread).class();
        self.threads
            .sites_of(w.free_thread)
            .iter()
            .any(|site| match site.action {
                SiteAction::Finish => {
                    CancelApi::Finish.scope().covers(uk)
                        && self.same_component(w.use_thread, w.free_thread)
                }
                SiteAction::Disable(PredicateFamily::Connection, c) => {
                    CancelApi::UnbindService.scope().covers(uk) && use_class == Some(c)
                }
                SiteAction::Disable(PredicateFamily::Receiver, c) => {
                    CancelApi::UnregisterReceiver.scope().covers(uk) && use_class == Some(c)
                }
                SiteAction::RemovePosts(c) => {
                    CancelApi::RemoveCallbacksAndMessages.scope().covers(uk) && use_class == Some(c)
                }
                _ => false,
            })
    }

    /// PHB (§6.2.1): the use's callback posted or sent the freeing one,
    /// and both run atomically on the same looper.
    fn phb(&self, w: &UafWarning) -> bool {
        let free = self.threads.thread(w.free_thread);
        free.parent() == Some(w.use_thread)
            && matches!(free.via(), SpawnVia::Post | SpawnVia::Send)
            && self.threads.atomic_pair(w.use_thread, w.free_thread)
    }
}

/// Whether any path through `method` (or a plain helper it calls)
/// stores a fresh allocation into `field`.
fn may_alloc_field(program: &Program, method: MethodId, field: FieldId) -> bool {
    own_methods(program, method).iter().any(|&m| {
        let mut fresh: HashSet<Local> = HashSet::new();
        let mut found = false;
        program
            .method(m)
            .body()
            .for_each_instr(&mut |i| match &i.op {
                Op::New { dst, .. } => {
                    fresh.insert(*dst);
                }
                Op::Move { dst, src } if fresh.contains(src) => {
                    fresh.insert(*dst);
                }
                Op::Store { field: f, src, .. } if *f == field && fresh.contains(src) => {
                    found = true;
                }
                _ => {}
            });
        found
    })
}

/// `mustHb`, `postHb` and `predHb` stated as Datalog rules and solved
/// over the graph's direct sound MHB edges and predicate edges, plus
/// the post and looper facts of the thread model:
///
/// ```text
/// mhbEdge(a, b) :- mhbService(a, b).   (and mhbAsyncTask, mhbLifecycle)
/// mustHb(a, b)  :- mhbEdge(a, b).
/// mustHb(a, c)  :- mustHb(a, b), mhbEdge(b, c).
/// postHb(a, b)  :- postEdge(a, b), sameLooper(a, b).
/// predHb(a, b)  :- mhbEdge(a, b).      predHb(a, b) :- predEdge(a, b).
/// predHb(a, c)  :- predHb(a, b), mhbEdge(b, c).
/// predHb(a, c)  :- predHb(a, b), predEdge(b, c).
/// ```
///
/// The graph must answer each relation exactly on every ordered pair.
fn check_closures(name: &str, threads: &ThreadModel, hb: &HbGraph) {
    let mut db = Database::new();
    let sound = [
        HbEdgeKind::MhbService,
        HbEdgeKind::MhbAsyncTask,
        HbEdgeKind::MhbLifecycle,
    ]
    .map(|kind| (kind, db.relation(kind.relation(), 2)));
    let post_edge = db.relation("postEdge", 2);
    let same_looper = db.relation("sameLooper", 2);
    let pred_edge = db.relation("predEdge", 2);
    let mhb_edge = db.relation("mhbEdge", 2);
    let must_hb = db.relation("mustHb", 2);
    let post_hb = db.relation("postHb", 2);
    let pred_hb = db.relation("predHb", 2);

    for e in hb.edges() {
        if let Some(&(_, rel)) = sound.iter().find(|(kind, _)| *kind == e.kind) {
            db.insert(rel, &[e.src.raw(), e.dst.raw()]);
        }
    }
    for (t, mt) in threads.threads() {
        let Some(u) = mt.parent() else { continue };
        if matches!(mt.via(), SpawnVia::Post | SpawnVia::Send) {
            db.insert(post_edge, &[u.raw(), t.raw()]);
            if threads.atomic_pair(u, t) {
                db.insert(same_looper, &[u.raw(), t.raw()]);
            }
        }
    }
    for e in hb.pred_edges() {
        db.insert(pred_edge, &[e.src.raw(), e.dst.raw()]);
    }

    let v = Term::var;
    let mut rules = RuleSet::new();
    for (_, rel) in sound {
        rules
            .add(mhb_edge, vec![v(0), v(1)])
            .when(rel, vec![v(0), v(1)]);
    }
    rules
        .add(must_hb, vec![v(0), v(1)])
        .when(mhb_edge, vec![v(0), v(1)]);
    rules
        .add(must_hb, vec![v(0), v(2)])
        .when(must_hb, vec![v(0), v(1)])
        .when(mhb_edge, vec![v(1), v(2)]);
    rules
        .add(post_hb, vec![v(0), v(1)])
        .when(post_edge, vec![v(0), v(1)])
        .when(same_looper, vec![v(0), v(1)]);
    for rel in [mhb_edge, pred_edge] {
        rules
            .add(pred_hb, vec![v(0), v(1)])
            .when(rel, vec![v(0), v(1)]);
        rules
            .add(pred_hb, vec![v(0), v(2)])
            .when(pred_hb, vec![v(0), v(1)])
            .when(rel, vec![v(1), v(2)]);
    }
    db.run(&rules);

    // Each solved relation as a dense n × n table, indexed by raw thread
    // id (`threads()` numbers the threads 0..n).
    let ids: Vec<ThreadId> = threads.threads().map(|(t, _)| t).collect();
    let n = ids.len();
    let table = |rel| {
        let mut holds = vec![false; n * n];
        for pair in db.tuples(rel) {
            holds[pair[0] as usize * n + pair[1] as usize] = true;
        }
        holds
    };
    let (must, post, pred) = (table(must_hb), table(post_hb), table(pred_hb));
    for &a in &ids {
        for &b in &ids {
            let pair = a.raw() as usize * n + b.raw() as usize;
            assert_eq!(hb.must_hb(a, b), must[pair], "{name}: mustHb({a}, {b})");
            assert_eq!(hb.post_hb(a, b), post[pair], "{name}: postHb({a}, {b})");
            assert_eq!(
                hb.pred_must_hb(a, b),
                pred[pair],
                "{name}: predHb({a}, {b})"
            );
        }
    }
}

/// Re-run a filter tier the way `Filters::pipeline` does, but with every
/// verdict answered by the reference.
fn legacy_outcomes(
    legacy: &Legacy<'_>,
    warnings: &[UafWarning],
    kinds: &[FilterKind],
) -> Vec<FilterOutcome> {
    warnings
        .iter()
        .map(|w| {
            let all_pruning: Vec<FilterKind> = kinds
                .iter()
                .copied()
                .filter(|&k| legacy.prunes(k, w))
                .collect();
            FilterOutcome {
                warning: w.clone(),
                pruned_by: all_pruning.first().copied(),
                all_pruning,
            }
        })
        .collect()
}

/// Analyze `program` and check the graph-backed filters against the
/// reference: every verdict, both Figure 5 tally tiers and the reported
/// ids, and the graph's closures against their Datalog solve. Returns
/// how many warnings each filter prunes individually.
fn check_parity(name: &str, program: &Program) -> BTreeMap<FilterKind, usize> {
    let cfg = AnalysisConfig::default();
    let analysis = analyze(program, &cfg);
    check_closures(name, analysis.threads(), analysis.hb());
    let filters = analysis.filters();
    let legacy = Legacy {
        program,
        threads: analysis.threads(),
        filters: &filters,
    };
    let mut pruned = BTreeMap::new();

    // Every (warning, filter) verdict, pointwise.
    for w in analysis.warnings() {
        for &k in FilterKind::all() {
            let verdict = filters.prunes(k, w);
            assert_eq!(
                verdict,
                legacy.prunes(k, w),
                "{name}: {k} disagrees on pair {:?}",
                w.pair()
            );
            *pruned.entry(k).or_insert(0) += usize::from(verdict);
        }
    }

    // Figure 5 sound tallies, byte-identical.
    let legacy_sound = legacy_outcomes(&legacy, analysis.warnings(), &cfg.sound_filters);
    assert_eq!(
        format!(
            "{:?}",
            tally_outcomes(analysis.sound_outcomes(), &cfg.sound_filters)
        ),
        format!("{:?}", tally_outcomes(&legacy_sound, &cfg.sound_filters)),
        "{name}: sound Figure 5 tallies"
    );

    // Figure 5 unsound tallies over the sound survivors.
    let legacy_survivors: Vec<UafWarning> = legacy_sound
        .iter()
        .filter(|o| o.survives())
        .map(|o| o.warning.clone())
        .collect();
    let legacy_unsound = legacy_outcomes(&legacy, &legacy_survivors, &cfg.unsound_filters);
    assert_eq!(
        format!(
            "{:?}",
            tally_outcomes(analysis.unsound_outcomes(), &cfg.unsound_filters)
        ),
        format!(
            "{:?}",
            tally_outcomes(&legacy_unsound, &cfg.unsound_filters)
        ),
        "{name}: unsound Figure 5 tallies"
    );

    // Reported warning ids, in order: the reference's unsound survivors
    // less the pairs the refuter (which reads no §6 rule) refuted.
    let ids: Vec<String> = analysis
        .survivors()
        .iter()
        .map(|w| warning_id(program, analysis.threads(), w))
        .collect();
    let legacy_ids: Vec<String> = legacy_unsound
        .iter()
        .filter(|o| o.survives() && analysis.refutation_of(&o.warning).is_none())
        .map(|o| warning_id(program, analysis.threads(), &o.warning))
        .collect();
    assert_eq!(ids, legacy_ids, "{name}: surviving warning ids");
    pruned
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
                site.family,
                PredicateFamily::Connection,
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
    let mut pruned: BTreeMap<FilterKind, usize> = BTreeMap::new();
    for row in table1_rows() {
        let app = generate(&spec_for(&row));
        for (k, n) in check_parity(row.name, &app.program) {
            *pruned.entry(k).or_insert(0) += n;
        }
    }
    // The comparison is not vacuous: each ordering rule fires.
    for k in [
        FilterKind::Mhb,
        FilterKind::Rhb,
        FilterKind::Chb,
        FilterKind::Phb,
    ] {
        assert!(pruned.get(&k).is_some_and(|&n| n > 0), "{k} never prunes");
    }
}

/// Shapes no corpus population holds, each a warning whose verdict a
/// single rule decides:
/// - `f`: a main-looper `onClick` sends to a handler on its own looper
///   thread (a post edge with no shared looper: PHB must not prune),
///   and `onDestroy` frees `f` after that `onClick` (MHB-Lifecycle's
///   X→onDestroy edge);
/// - `g`: used in `onCreate` and freed in `onClick` (the onCreate→X edge);
/// - `h`: `Closer` finishes *itself* and then unbinds a class of the
///   `Host` activity, whose `onClick` uses `h`; `finish()` covers only
///   its own component, and unbinding covers no UI callback, so CHB
///   must not prune.
///
/// `Host.onCreate` is also `Closer`'s only launch, so `predHb` orders it
/// before `Closer.onClick` two hops away: the task-stack edge, then
/// `Closer`'s lifecycle edge. No corpus app has a closure fact that is
/// not a direct edge.
const HB_RULES: &str = r#"
    app HbRules
    activity Host {
        field f: Host
        field g: Host
        field h: Host
        cb onCreate { f = new Host  h = new Host  g = new Host  use g  startactivity Closer }
        cb onClick { send Relay  use f  g = null  use h }
        cb onDestroy { f = null }
    }
    looperthread Worker { }
    handler Relay in Host on Worker {
        cb handleMessage { outer.f = null }
    }
    activity Closer {
        cb onCreate { }
        cb onClick { finish  unbind Host  Host.h = null }
    }
"#;

#[test]
fn hb_backed_filters_match_legacy_logic_beyond_table1() {
    for spec in refute_specs() {
        check_parity(&spec.name, &generate(&spec).program);
    }
    let rules = parse_program(HB_RULES).expect("the fixture parses");
    let pruned = check_parity("HbRules", &rules);
    assert!(
        pruned.get(&FilterKind::Mhb).is_some_and(|&n| n >= 2),
        "HbRules: {pruned:?}"
    );
    check_parity("Figure4", &figure4_gallery());
    let apps = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/apps")).expect("apps/");
    for entry in apps {
        let path = entry.expect("readable dir entry").path();
        let text = std::fs::read_to_string(&path).expect("readable app");
        let program = parse_program(&text).expect("the hand-written apps parse");
        check_parity(&path.display().to_string(), &program);
    }
}
