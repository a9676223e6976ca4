//! Provenance parity: the §5 racy-pair encoding, solved as Datalog,
//! must derive exactly the detector's warnings; the derivation tree
//! `explain`, `analyze --provenance` and every serve cache miss show for
//! each warning must hold in that solved encoding; and the rendered
//! documents must not drift.
//!
//! Checked on the 27 Table 1 apps plus the 6 refutation-study apps,
//! under the default configuration (no eager lockset pruning, so
//! `racyPair` and `detect` coincide).

use nadroid::core::{analyze, render_provenance_json, Analysis, AnalysisConfig, DerivationNode};
use nadroid::corpus::{generate, refute_specs, spec_for, table1_rows, AppSpec};
use nadroid::datalog::{Database, RelId, RuleSet, Term};
use nadroid::detector::{collect_accesses, AccessKind, UafWarning};
use nadroid::ir::{FieldId, Fnv64};
use nadroid::threadify::ThreadId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// The §5 detection as two Datalog rules over raw ids (instructions,
/// fields, objects, modeled threads), solved: the reference `detect()`
/// and every warning's derivation are checked against.
///
/// ```text
/// aliasedPair(u, f) :- useAt(u, fld), freeAt(f, fld),
///                      ptsUse(u, o), ptsFree(f, o), sharedObj(o).
/// racyPair(u, f, t1, t2) :- aliasedPair(u, f), runsOn(u, t1),
///                           runsOn(f, t2), distinctThreads(t1, t2).
/// ```
///
/// `sharedObj` holds the thread-escaping objects. `distinctThreads`
/// stands in for thread disequality, which the engine has no built-in
/// for. It holds the pairs `(t1, t2)`, `t1 ≠ t2`, where `t1` runs a use
/// and `t2` a free of one field: `aliasedPair` binds both sites to one
/// field, so these are the only thread pairs the `racyPair` body can
/// bind.
fn solve_racy_pairs(analysis: &Analysis<'_>) -> (Database, RuleSet) {
    let (threads, pts) = (analysis.threads(), analysis.pts());
    let mut db = Database::new();
    let use_at = db.relation("useAt", 2);
    let free_at = db.relation("freeAt", 2);
    let pts_use = db.relation("ptsUse", 2);
    let pts_free = db.relation("ptsFree", 2);
    let shared_obj = db.relation("sharedObj", 1);
    let runs_on = db.relation("runsOn", 2);
    let distinct_threads = db.relation("distinctThreads", 2);
    let aliased_pair = db.relation("aliasedPair", 2);
    let racy_pair = db.relation("racyPair", 4);

    // Per field, the threads running a use / a free of it.
    let mut use_threads: BTreeMap<FieldId, BTreeSet<ThreadId>> = BTreeMap::new();
    let mut free_threads: BTreeMap<FieldId, BTreeSet<ThreadId>> = BTreeMap::new();
    for a in collect_accesses(analysis.program()) {
        let (at, pt, by_field) = match a.kind {
            AccessKind::Use => (use_at, pts_use, &mut use_threads),
            AccessKind::Free => (free_at, pts_free, &mut free_threads),
        };
        db.insert(at, &[a.instr.raw(), a.field.raw()]);
        for &o in pts.pts(a.method, a.base) {
            db.insert(pt, &[a.instr.raw(), o.0]);
        }
        let on = threads.threads_of_method(a.method);
        for &t in on {
            db.insert(runs_on, &[a.instr.raw(), t.raw()]);
        }
        by_field.entry(a.field).or_default().extend(on);
    }
    for o in pts.objs().iter() {
        if analysis.escape().is_shared(o) {
            db.insert(shared_obj, &[o.0]);
        }
    }
    for (field, users) in &use_threads {
        let Some(freers) = free_threads.get(field) else {
            continue;
        };
        for &t1 in users {
            for &t2 in freers {
                if t1 != t2 {
                    db.insert(distinct_threads, &[t1.raw(), t2.raw()]);
                }
            }
        }
    }

    let v = Term::var;
    let mut rules = RuleSet::new();
    rules
        .add(aliased_pair, vec![v(0), v(2)])
        .when(use_at, vec![v(0), v(1)])
        .when(free_at, vec![v(2), v(1)])
        .when(pts_use, vec![v(0), v(3)])
        .when(pts_free, vec![v(2), v(3)])
        .when(shared_obj, vec![v(3)]);
    rules
        .add(racy_pair, vec![v(0), v(1), v(2), v(3)])
        .when(aliased_pair, vec![v(0), v(1)])
        .when(runs_on, vec![v(0), v(2)])
        .when(runs_on, vec![v(1), v(3)])
        .when(distinct_threads, vec![v(2), v(3)]);
    db.run(&rules);
    (db, rules)
}

fn racy_pair_tuple(w: &UafWarning) -> Vec<u32> {
    vec![
        w.use_access.instr.raw(),
        w.free_access.instr.raw(),
        w.use_thread.raw(),
        w.free_thread.raw(),
    ]
}

/// Rule `idx` as derivation nodes name it: `rule N: head :- body.`
/// with relation names and `vN` variables.
fn rule_text(db: &Database, rules: &RuleSet, idx: usize) -> String {
    let atom = |a: &nadroid::datalog::Atom| {
        let terms: Vec<String> = a
            .terms()
            .iter()
            .map(|t| match t {
                Term::Var(v) => format!("v{v}"),
                Term::Const(c) => c.to_string(),
            })
            .collect();
        format!("{}({})", db.name(a.rel()), terms.join(", "))
    };
    let rule = &rules.rules()[idx];
    let body: Vec<String> = rule.body().iter().map(atom).collect();
    format!("rule {idx}: {} :- {}.", atom(rule.head()), body.join(", "))
}

/// Check one derivation node against the solved encoding: its fact is in
/// its relation; a base fact is in a relation no rule derives; a derived
/// one names a rule of the encoding whose body its premises match, in
/// order, and whose head those premises instantiate to the fact.
fn check_derivation(
    db: &Database,
    rules: &RuleSet,
    rels: &HashMap<&str, RelId>,
    node: &DerivationNode,
) -> Result<(), String> {
    let rel = *rels
        .get(node.relation.as_str())
        .ok_or_else(|| format!("unknown relation in {}", node.fact))?;
    if !db.contains(rel, &node.tuple) {
        return Err(format!(
            "{} {:?} is not in its relation",
            node.fact, node.tuple
        ));
    }
    let Some(text) = &node.rule else {
        if rules.rules().iter().any(|r| r.head().rel() == rel) || !node.premises.is_empty() {
            return Err(format!("{} is not a base fact", node.fact));
        }
        return Ok(());
    };
    let idx = (0..rules.len())
        .find(|&i| rule_text(db, rules, i) == *text)
        .ok_or_else(|| format!("{} names no rule of the encoding: {text}", node.fact))?;
    let rule = &rules.rules()[idx];
    if rule.head().rel() != rel || rule.body().len() != node.premises.len() {
        return Err(format!("{} does not match the shape of {text}", node.fact));
    }
    let mut env: HashMap<u8, u32> = HashMap::new();
    for (atom, premise) in rule.body().iter().zip(&node.premises) {
        if db.name(atom.rel()) != premise.relation {
            return Err(format!("{} is out of place in {text}", premise.fact));
        }
        for (term, &value) in atom.terms().iter().zip(&premise.tuple) {
            let consistent = match *term {
                Term::Const(c) => c == value,
                Term::Var(v) => *env.entry(v).or_insert(value) == value,
            };
            if !consistent {
                return Err(format!("{} does not unify with {text}", premise.fact));
            }
        }
        check_derivation(db, rules, rels, premise)?;
    }
    let head: Vec<u32> = rule
        .head()
        .terms()
        .iter()
        .map(|t| match *t {
            Term::Const(c) => c,
            Term::Var(v) => env[&v],
        })
        .collect();
    if head != node.tuple {
        return Err(format!("the premises of {} derive {head:?}", node.fact));
    }
    Ok(())
}

#[test]
fn racy_pair_relation_equals_the_detector_warnings() {
    let config = AnalysisConfig::default();
    for spec in specs() {
        let app = generate(&spec);
        let analysis = analyze(&app.program, &config);
        let (db, rules) = solve_racy_pairs(&analysis);
        // Every relation of the encoding occurs in a rule.
        let rels: HashMap<&str, RelId> = rules
            .rules()
            .iter()
            .flat_map(|r| std::iter::once(r.head()).chain(r.body()))
            .map(|a| (db.name(a.rel()), a.rel()))
            .collect();
        let derived: BTreeSet<Vec<u32>> =
            db.tuples(rels["racyPair"]).map(<[u32]>::to_vec).collect();
        let detected: BTreeSet<Vec<u32>> =
            analysis.warnings().iter().map(racy_pair_tuple).collect();
        assert_eq!(derived, detected, "{}: racyPair != detect()", spec.name);
        for (w, wp) in analysis
            .warnings()
            .iter()
            .zip(analysis.warning_provenances())
        {
            let root = wp
                .derivation
                .as_ref()
                .unwrap_or_else(|| panic!("{}: {} has no derivation", spec.name, wp.id));
            assert_eq!(
                (root.relation.as_str(), &root.tuple),
                ("racyPair", &racy_pair_tuple(w)),
                "{}: {} is rooted elsewhere",
                spec.name,
                wp.id
            );
            if let Err(e) = check_derivation(&db, &rules, &rels, root) {
                panic!("{}: {}: {e}", spec.name, wp.id);
            }
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
            Fnv64::hash(render_provenance_json(&analysis).as_bytes()),
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
