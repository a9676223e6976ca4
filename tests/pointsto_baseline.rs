//! The k = 0 points-to baseline: a context-insensitive Andersen analysis
//! stated as four Datalog rules and solved by `nadroid-datalog`, the role
//! bddbddb played for Chord. The worklist solver behind [`PointsTo::run`]
//! must agree with it at k = 0 on every variable, on three hand-written
//! programs and on generated apps.

use nadroid::corpus::{generate, AppSpec, PatternKind};
use nadroid::datalog::{Database, RuleSet, Term};
use nadroid::ir::{parse_program, Callee, FieldId, Local, MethodId, Op, Program};
use nadroid::pointsto::{AllocKey, PointsTo};
use nadroid::threadify::{SpawnVia, ThreadModel};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Context-insensitive Andersen analysis solved on the Datalog engine.
///
/// Returns, for each (method, local), the set of allocation keys of the
/// objects it may point to — directly comparable with
/// [`PointsTo::run`] at `k = 0`.
fn datalog_baseline(
    program: &Program,
    threads: &ThreadModel,
) -> HashMap<(MethodId, Local), BTreeSet<AllocKey>> {
    // Dense variable numbering: locals plus a return pseudo-var per method.
    let mut base = Vec::new();
    let mut next = 0u32;
    for (_, m) in program.methods() {
        base.push(next);
        next += u32::from(m.num_locals()) + 1;
    }
    let var = |m: MethodId, l: Local| base[m.index()] + u32::from(l.0);
    let ret = |m: MethodId| base[m.index()] + u32::from(program.method(m).num_locals());

    // Object numbering: one per allocation key.
    let mut keys: Vec<AllocKey> = Vec::new();
    let mut key_ids: HashMap<AllocKey, u32> = HashMap::new();
    let obj = |k: AllocKey, keys: &mut Vec<AllocKey>, key_ids: &mut HashMap<AllocKey, u32>| {
        *key_ids.entry(k).or_insert_with(|| {
            keys.push(k);
            keys.len() as u32 - 1
        })
    };

    let mut db = Database::new();
    let r_alloc = db.relation("alloc", 2);
    let r_move = db.relation("move", 2);
    let r_load = db.relation("load", 3);
    let r_store = db.relation("store", 3);
    let r_vp = db.relation("vP", 2);
    let r_hp = db.relation("hP", 3);

    let field = FieldId::raw;
    for (mid, i) in program.instrs() {
        match &i.op {
            Op::New { dst, .. } => {
                let o = obj(AllocKey::Site(i.id), &mut keys, &mut key_ids);
                db.insert(r_alloc, &[var(mid, *dst), o]);
            }
            Op::LoadStatic { dst, class } => {
                let o = obj(AllocKey::Singleton(*class), &mut keys, &mut key_ids);
                db.insert(r_alloc, &[var(mid, *dst), o]);
            }
            Op::Move { dst, src } => {
                db.insert(r_move, &[var(mid, *dst), var(mid, *src)]);
            }
            Op::Load {
                dst,
                base: b,
                field: f,
            } => {
                db.insert(r_load, &[var(mid, *dst), var(mid, *b), field(*f)]);
            }
            Op::Store {
                base: b,
                field: f,
                src,
            } => {
                db.insert(r_store, &[var(mid, *b), field(*f), var(mid, *src)]);
            }
            Op::Invoke {
                dst,
                callee: Callee::Method(callee),
                recv,
                args,
            } => {
                if let Some(r) = recv {
                    db.insert(r_move, &[var(*callee, Local::THIS), var(mid, *r)]);
                }
                let nparams = program.method(*callee).param_count();
                for (i, a) in args.iter().enumerate() {
                    if (i as u16) < nparams {
                        db.insert(r_move, &[var(*callee, Local(i as u16 + 1)), var(mid, *a)]);
                    }
                }
                if let Some(d) = dst {
                    db.insert(r_move, &[var(mid, *d), ret(*callee)]);
                }
            }
            Op::Return { val: Some(v) } => {
                db.insert(r_move, &[ret(mid), var(mid, *v)]);
            }
            _ => {}
        }
    }

    // Thread-root receiver bindings, as in the solver.
    for (_, t) in threads.threads() {
        let Some(root) = t.root() else { continue };
        match t.via() {
            SpawnVia::Component | SpawnVia::Manifest => {
                if let Some(c) = t.class() {
                    let o = obj(AllocKey::Singleton(c), &mut keys, &mut key_ids);
                    db.insert(r_alloc, &[var(root, Local::THIS), o]);
                }
            }
            SpawnVia::Root => {}
            _ => {
                if let Some(site) = t.origin_site() {
                    let m = program.instr_method(site);
                    if let Op::Android(a) = &program.instr(site).op {
                        if let Some(operand) = a.operand() {
                            db.insert(r_move, &[var(root, Local::THIS), var(m, operand)]);
                        }
                    }
                }
            }
        }
    }

    let v = Term::var;
    let mut rules = RuleSet::new();
    rules
        .add(r_vp, vec![v(0), v(1)])
        .when(r_alloc, vec![v(0), v(1)]);
    rules
        .add(r_vp, vec![v(0), v(2)])
        .when(r_move, vec![v(0), v(1)])
        .when(r_vp, vec![v(1), v(2)]);
    rules
        .add(r_hp, vec![v(3), v(1), v(4)])
        .when(r_store, vec![v(0), v(1), v(2)])
        .when(r_vp, vec![v(0), v(3)])
        .when(r_vp, vec![v(2), v(4)]);
    rules
        .add(r_vp, vec![v(0), v(4)])
        .when(r_load, vec![v(0), v(1), v(2)])
        .when(r_vp, vec![v(1), v(3)])
        .when(r_hp, vec![v(3), v(2), v(4)]);
    db.run(&rules);

    // Invert the variable numbering.
    let mut var_of: HashMap<u32, (MethodId, Local)> = HashMap::new();
    for (mid, m) in program.methods() {
        for l in 0..m.num_locals() {
            var_of.insert(var(mid, Local(l)), (mid, Local(l)));
        }
    }
    let mut out: HashMap<(MethodId, Local), BTreeSet<AllocKey>> = HashMap::new();
    for t in db.tuples(r_vp) {
        if let Some(&ml) = var_of.get(&t[0]) {
            out.entry(ml).or_default().insert(keys[t[1] as usize]);
        }
    }
    out
}

/// Assert that the solver at k = 0 and the baseline give every
/// (method, local) of `program` the same allocation keys.
fn check_k0(program: &Program) {
    let threads = ThreadModel::build(program);
    let pts = PointsTo::run(program, &threads, 0);
    let baseline = datalog_baseline(program, &threads);
    for (mid, m) in program.methods() {
        for l in 0..m.num_locals() {
            let solver_keys: BTreeSet<AllocKey> = pts
                .pts(mid, Local(l))
                .iter()
                .map(|&o| pts.objs().key(o))
                .collect();
            let base_keys = baseline.get(&(mid, Local(l))).cloned().unwrap_or_default();
            assert_eq!(
                solver_keys,
                base_keys,
                "k=0 solver vs datalog at {}.{} local {}",
                program.class(m.owner()).name(),
                m.name(),
                l
            );
        }
    }
}

const FIELD_FLOW: &str = r#"
    app F
    activity Main {
        field a: Helper
        field b: Helper
        cb onCreate { a = new Helper  b = a }
        cb onClick  { use a }
        cb onPause  { use b }
    }
    class Helper { }
"#;

const FACTORY: &str = r#"
    app K
    activity A1 {
        field p: Prod
        cb onCreate { p = call make }
        fn make(params=0, locals=2) {
            t1 = new Prod
            return t1
        }
    }
    activity A2 {
        field p: Prod
        cb onCreate { p = call make }
        fn make(params=0, locals=2) {
            t1 = new Prod
            return t1
        }
    }
    class Prod { }
"#;

const SHARED_FACTORY: &str = r#"
    app K2
    activity A1 {
        field fac: Factory
        field p: Prod
        cb onCreate {
            fac = new Factory
            t3 = load this A1.fac
            t4 = call Factory.make(recv=t3)
            store this A1.p = t4
        }
        cb onClick { use p }
    }
    activity A2 {
        field fac: Factory
        field p: Prod
        cb onCreate {
            fac = new Factory
            t3 = load this A2.fac
            t4 = call Factory.make(recv=t3)
            store this A2.p = t4
        }
        cb onClick { use p }
    }
    class Factory {
        fn make(params=0, locals=2) {
            t1 = new Prod
            return t1
        }
    }
    class Prod { }
"#;

#[test]
fn worklist_k0_matches_datalog_baseline() {
    for src in [FIELD_FLOW, SHARED_FACTORY, FACTORY] {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        check_k0(&p);
    }
}

/// Strategy: a random multiset of patterns, at most one of each kind.
fn spec_strategy() -> impl Strategy<Value = AppSpec> {
    let kinds = PatternKind::all();
    (
        proptest::collection::vec(0..=1usize, kinds.len()),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The context-sensitive worklist solver at k = 0 agrees with the
    /// Datalog baseline on every variable of every generated program.
    #[test]
    fn solver_matches_datalog_baseline(spec in spec_strategy()) {
        check_k0(&generate(&spec).program);
    }
}
