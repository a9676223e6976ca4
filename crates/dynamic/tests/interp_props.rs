//! Interpreter invariants under random schedules: the world never
//! panics, monitors balance when tasks go idle, counters stay sane, and
//! stepping is deterministic. The search's state fingerprint, its
//! dispatch check and the witness minimizer are pinned to the
//! definitions they shortcut, and the search order to one order per
//! program.

use nadroid_android::CallbackKind;
use nadroid_corpus::{generate, spec_for, table1_rows, AppSpec, PatternKind};
use nadroid_dynamic::{
    decode_schedule, explore, explore_guided, fingerprint, minimize_schedule, replay, Event,
    Exploration, ExploreConfig, Goal, HeapRef, Npe, Prov, Step, TaskId, Value, World,
};
use nadroid_ir::{parse_program, ClassId, FieldId, InstrId, MethodId, Program};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::{DefaultHasher, Entry, HashMap};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

fn spec_strategy() -> impl Strategy<Value = AppSpec> {
    let kinds = PatternKind::all();
    (
        proptest::collection::vec(0usize..=1, kinds.len()),
        any::<u64>(),
    )
        .prop_map(move |(counts, seed)| {
            let mut spec = AppSpec::new("Interp", seed);
            for (i, &n) in counts.iter().enumerate() {
                spec = spec.with(kinds[i], n);
            }
            spec
        })
}

/// The delta debugger as written before its prefix checkpoint, kept as
/// the reference: every candidate replays from a fresh world.
fn reference_minimize(program: &Program, schedule: &[Step], npe: &Npe) -> Vec<Step> {
    let reproduces = |candidate: &[Step]| replay(program, candidate).npe.as_ref() == Some(npe);
    let mut current: Vec<Step> = schedule.to_vec();
    if !reproduces(&current) {
        return current;
    }
    loop {
        let before = current.len();
        let mut chunk = (current.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i + chunk <= current.len() {
                let mut candidate = current.clone();
                candidate.drain(i..i + chunk);
                if reproduces(&candidate) {
                    current = candidate;
                } else {
                    i += 1;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        if current.len() == before {
            break;
        }
    }
    current
}

/// What a world offers the search and what a later NPE would be
/// attributed to: its enabled steps, the frees behind its heap nulls,
/// and the provenance of every frame's locals.
type Observed = (
    Vec<Step>,
    Vec<(HeapRef, FieldId, InstrId)>,
    Vec<Vec<Vec<Prov>>>,
);

fn observe(world: &World<'_>) -> Observed {
    let mut writers: Vec<_> = world.heap.null_writers().collect();
    writers.sort_unstable();
    let provenance = world
        .tasks
        .iter()
        .map(|t| t.frames.iter().map(|f| f.provenance.clone()).collect())
        .collect();
    (world.enabled_steps(), writers, provenance)
}

/// Random walks from fresh worlds: any two NPE-free worlds with equal
/// fingerprints must be observed equal. NPE worlds are left out because
/// the search never fingerprints them.
fn check_fingerprint_contract(program: &Program, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen: HashMap<u64, Observed> = HashMap::new();
    for _ in 0..32 {
        let mut world = World::new(program);
        for _ in 0..80 {
            if world.npe.is_some() {
                break;
            }
            let observed = observe(&world);
            let step = observed.0.choose(&mut rng).cloned();
            match seen.entry(fingerprint(&world)) {
                Entry::Occupied(e) => assert_eq!(e.get(), &observed),
                Entry::Vacant(e) => {
                    e.insert(observed);
                }
            }
            let Some(step) = step else {
                break;
            };
            world.step(&step);
        }
    }
}

/// The fingerprint as it hashed the whole world before it skipped what
/// no schedule changes, kept as the reference: every object including
/// the untouched singletons, with each program field read through
/// `load`; the frees behind the nulls, sorted; every lifecycle and
/// service state; every queue; the sorted monitors and wake locks.
fn reference_fingerprint(w: &World<'_>) -> u64 {
    let program = w.program();
    let mut h = DefaultHasher::new();
    let mut writers = Vec::new();
    for r in 0..w.heap.len() as u32 {
        let obj = HeapRef(r);
        w.heap.class_of(obj).raw().hash(&mut h);
        let mut fields: BTreeMap<u32, i64> = BTreeMap::new();
        for f in program.field_ids() {
            match w.heap.load(obj, f) {
                Value::Obj(o) => {
                    fields.insert(f.raw(), i64::from(o.0));
                }
                Value::Null => {
                    if let Some(i) = w.heap.null_writer(obj, f) {
                        writers.push((r, f.raw(), i.raw()));
                    }
                }
            }
        }
        fields.hash(&mut h);
    }
    writers.sort_unstable();
    writers.hash(&mut h);
    for t in &w.tasks {
        t.done.hash(&mut h);
        for f in &t.frames {
            f.method.raw().hash(&mut h);
            f.pc.hash(&mut h);
            for v in &f.locals {
                match v {
                    Value::Null => (-1i64).hash(&mut h),
                    Value::Obj(o) => i64::from(o.0).hash(&mut h),
                }
            }
            for p in &f.provenance {
                p.loaded_from.map(InstrId::raw).hash(&mut h);
                p.freed_by.map(InstrId::raw).hash(&mut h);
            }
            let budget: BTreeMap<usize, u32> = f.loop_budget.iter().copied().collect();
            budget.hash(&mut h);
        }
    }
    for (q, queue) in w.posts.iter().enumerate() {
        q.hash(&mut h);
        for p in queue {
            p.target.0.hash(&mut h);
            p.method.raw().hash(&mut h);
        }
    }
    let mut lcs: Vec<(u32, u8)> = w
        .lifecycles
        .iter()
        .map(|(c, l)| (c.raw(), l.state() as u8))
        .collect();
    lcs.sort_unstable();
    lcs.hash(&mut h);
    let mut fin: Vec<u32> = w.finished.iter().map(|c| c.raw()).collect();
    fin.sort_unstable();
    fin.hash(&mut h);
    for (c, s) in &w.connections {
        c.0.hash(&mut h);
        (*s as u8).hash(&mut h);
    }
    for r in &w.receivers {
        r.0.hash(&mut h);
    }
    w.shown.hash(&mut h);
    w.alarms.hash(&mut h);
    let mut launched: Vec<u32> = w.launched.iter().map(|c| c.raw()).collect();
    launched.sort_unstable();
    launched.hash(&mut h);
    for (l, m) in &w.listeners {
        l.0.hash(&mut h);
        m.raw().hash(&mut h);
    }
    for a in &w.async_runs {
        a.obj.0.hash(&mut h);
        (a.phase as u8).hash(&mut h);
    }
    let mut mons: Vec<(u32, u32, u32)> = w
        .monitors
        .iter()
        .map(|(r, (t, d))| (r.0, t.0, *d))
        .collect();
    mons.sort_unstable();
    mons.hash(&mut h);
    let mut wl: Vec<(u32, u32)> = w.wakelocks.iter().map(|(r, n)| (r.0, *n)).collect();
    wl.sort_unstable();
    wl.hash(&mut h);
    let mut svc: Vec<(u32, u8)> = w
        .services
        .iter()
        .map(|(c, s)| (c.raw(), *s as u8))
        .collect();
    svc.sort_unstable();
    svc.hash(&mut h);
    h.finish()
}

/// Random walks from fresh worlds: the fingerprint and the reference
/// partition the NPE-free worlds they visit the same way, so the search
/// merges exactly the states it merged before.
fn check_reference_equivalence(program: &Program, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut by_fingerprint: HashMap<u64, u64> = HashMap::new();
    let mut by_reference: HashMap<u64, u64> = HashMap::new();
    for _ in 0..16 {
        let mut world = World::new(program);
        for _ in 0..60 {
            if world.npe.is_some() {
                break;
            }
            let (fp, reference) = (fingerprint(&world), reference_fingerprint(&world));
            assert_eq!(*by_fingerprint.entry(fp).or_insert(reference), reference);
            assert_eq!(*by_reference.entry(reference).or_insert(fp), fp);
            let Some(step) = world.enabled_steps().choose(&mut rng).cloned() else {
                break;
            };
            world.step(&step);
        }
    }
}

/// The dispatch check as it was written before it checked each event
/// against its own rule, kept as the oracle: a custom looper's dequeue
/// is checked on its own, and every other event must be among the
/// enabled events of an idle main looper.
fn reference_dispatchable(world: &World<'_>, e: &Event) -> bool {
    if let Event::DequeuePost { looper } = e {
        if looper.0 != 0 {
            let Some(t) = world.tasks.get(looper.0 as usize) else {
                return false;
            };
            return t.is_looper
                && t.frames.is_empty()
                && world
                    .posts
                    .get(looper.0 as usize)
                    .is_some_and(|q| !q.is_empty());
        }
    }
    world.looper_idle() && world.enabled_events().contains(e)
}

/// Events to offer `world`'s dispatch check: every one enabled now or
/// earlier in the walk (`seen` holds both), and perturbations — another object as
/// target, a method of another class, stale task-post indices,
/// connections in the wrong state, random lifecycle events, and ids out
/// of range.
fn dispatch_probes(world: &World<'_>, seen: &[Event], rng: &mut impl Rng) -> Vec<Event> {
    let program = world.program();
    let objects = world.heap.len() as u32;
    let methods = program.method_ids().count() as u32;
    let classes = program.class_ids().count() as u32;
    let lifecycle_kinds: Vec<CallbackKind> = CallbackKind::all()
        .iter()
        .copied()
        .filter(|k| k.is_lifecycle())
        .collect();
    let mut probes: Vec<Event> = seen.to_vec();
    for e in probes.clone() {
        if let Event::Entry { target, method } = e {
            probes.push(Event::Entry {
                target: HeapRef(rng.gen_range(0..objects + 2)),
                method,
            });
            probes.push(Event::Entry {
                target,
                method: MethodId::from_raw(rng.gen_range(0..methods + 2)),
            });
        }
    }
    for &(conn, _) in &world.connections {
        probes.push(Event::ServiceConnect { conn });
        probes.push(Event::ServiceDisconnect { conn });
    }
    for run in 0..world.async_runs.len() + 2 {
        probes.push(Event::TaskPost { run });
    }
    for _ in 0..4 {
        probes.push(Event::Lifecycle {
            activity: ClassId::from_raw(rng.gen_range(0..classes + 2)),
            kind: *lifecycle_kinds.choose(rng).expect("lifecycle kinds"),
        });
        probes.push(Event::Entry {
            target: HeapRef(rng.gen_range(0..objects + 2)),
            method: MethodId::from_raw(rng.gen_range(0..methods + 2)),
        });
        probes.push(Event::ServiceConnect {
            conn: HeapRef(rng.gen_range(0..objects + 2)),
        });
        probes.push(Event::Broadcast {
            receiver: HeapRef(rng.gen_range(0..objects + 2)),
        });
        probes.push(Event::DequeuePost {
            looper: TaskId(rng.gen_range(0..world.tasks.len() as u32 + 2)),
        });
    }
    probes.extend([
        Event::Lifecycle {
            activity: ClassId::from_raw(u32::MAX),
            kind: CallbackKind::OnCreate,
        },
        Event::Entry {
            target: HeapRef(u32::MAX),
            method: MethodId::from_raw(0),
        },
        Event::Entry {
            target: HeapRef(0),
            method: MethodId::from_raw(u32::MAX),
        },
        Event::DequeuePost {
            looper: TaskId(u32::MAX),
        },
        Event::ServiceConnect {
            conn: HeapRef(u32::MAX),
        },
        Event::ServiceDisconnect {
            conn: HeapRef(u32::MAX),
        },
        Event::Broadcast {
            receiver: HeapRef(u32::MAX),
        },
        Event::TaskPost { run: usize::MAX },
    ]);
    probes
}

/// Random walks that offer every probe to a clone of each world:
/// enabled events are accepted, and every probe is accepted exactly
/// when the reference accepts it. Each walk's trace equals the lines
/// the interpreter used to push while stepping: one per dispatch that
/// passed the check, then the NPE.
fn check_dispatch_against_reference(program: &Program, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..8 {
        let mut world = World::new(program);
        let mut pushed: Vec<String> = Vec::new();
        let mut seen: Vec<Event> = Vec::new();
        for _ in 0..60 {
            if world.npe.is_some() {
                break;
            }
            let enabled = world.enabled_steps();
            for step in &enabled {
                if let Step::Dispatch(e) = step {
                    if !seen.contains(e) {
                        seen.push(e.clone());
                    }
                }
            }
            for e in dispatch_probes(&world, &seen, &mut rng) {
                let expected = reference_dispatchable(&world, &e);
                let step = Step::Dispatch(e);
                let accepted = world.clone().step(&step);
                assert!(
                    accepted || !enabled.contains(&step),
                    "enabled {step:?} rejected"
                );
                assert_eq!(accepted, expected, "{step:?}");
            }
            let Some(step) = enabled.choose(&mut rng).cloned() else {
                break;
            };
            let before = world.schedule.len();
            world.step(&step);
            if let (Step::Dispatch(e), true) = (&step, world.schedule.len() > before) {
                pushed.push(format!("dispatch {e}"));
            }
            if let Some(npe) = &world.npe {
                pushed.push(format!("NPE at {} in task {}", npe.at, npe.task.0));
            }
        }
        assert_eq!(world.trace(), pushed);
    }
}

/// Both arms of `onLongClick` null `f`: the states after it differ only
/// in which free wrote the null.
#[test]
fn fingerprints_tell_apart_frees_of_the_same_field() {
    let program = parse_program(
        r#"
        app TwoFrees
        activity Main {
            field f: Main
            cb onCreate { f = new Main }
            cb onClick { use f }
            cb onLongClick { if ? { f = null } else { f = null } }
        }
        "#,
    )
    .unwrap();
    for seed in 0..8 {
        check_fingerprint_contract(&program, seed);
    }
}

/// Four activities, two services and two custom loopers, so every
/// component table the enabled-step order walks has several entries,
/// and one of each event source: a service connection, a dialog, a
/// listener, an AsyncTask, a receiver and an alarm, a thread and a
/// handler.
const MANY_COMPONENTS: &str = r#"
    app Many
    activity A {
        field f: A
        field conn: Conn
        field dlg: Dlg
        field task: Task
        cb onCreate {
            f = new A  conn = new Conn  bind conn  dlg = new Dlg  show dlg
            listen setOnClickListener Lst
        }
        cb onStart { task = new Task  execute task  register Rcv }
        cb onClick { use f  send H }
        cb onLongClick { if ? { f = null } else { dismiss dlg } }
        cb onStop { unregister Rcv  unbind conn }
    }
    activity B {
        field g: B
        field alarm: Rcv
        cb onCreate { g = new B  alarm = new Rcv  schedule alarm }
        cb onClick { spawn W  finish }
        cb onPause { cancelalarm alarm }
    }
    activity C { cb onStart { }  cb onLongClick { } }
    activity D { cb onResume { } }
    service S { cb onStartCommand { } }
    service T { cb onStartCommand { } }
    connection Conn in A {
        cb onServiceConnected { outer.f = new A }
        cb onServiceDisconnected { outer.f = null }
    }
    dialog Dlg in A { cb onShow { use outer.f } }
    listener Lst in A { cb onClick { use outer.f } }
    asynctask Task in A {
        cb onPreExecute { }
        cb doInBackground { outer.f = null }
        cb onPostExecute { use outer.f }
    }
    receiver Rcv { cb onReceive { }  cb onAlarm { } }
    thread W in B { cb run { outer.g = null } }
    handler H in A on L1 { cb handleMessage { use outer.f } }
    looperthread L1 { }
    looperthread L2 { }
"#;

/// The fingerprint keeps its contract and merges exactly the worlds the
/// reference merges on every event source, when two worlds differ only
/// in which free wrote a null, and when they differ only in the class of
/// an object allocated after startup.
#[test]
fn fingerprints_partition_fixed_programs_like_the_reference() {
    let two_classes = parse_program(
        r#"
        app TwoClasses
        activity Main {
            field f
            cb onClick { f = new X }
            cb onLongClick { f = new Y }
        }
        class X { }
        class Y { }
        "#,
    )
    .unwrap();
    let two_frees = parse_program(
        r#"
        app TwoFrees
        activity Main {
            field f: Main
            cb onCreate { f = new Main }
            cb onClick { use f }
            cb onLongClick { if ? { f = null } else { f = null } }
        }
        "#,
    )
    .unwrap();
    let many = parse_program(MANY_COMPONENTS).unwrap();
    for seed in 0..8 {
        check_reference_equivalence(&two_classes, seed);
        check_reference_equivalence(&two_frees, seed);
        check_reference_equivalence(&many, seed);
        check_fingerprint_contract(&many, seed);
    }
}

/// The dispatch check agrees with the reference on every event source.
#[test]
fn dispatch_matches_the_reference_on_every_event_source() {
    let program = parse_program(MANY_COMPONENTS).unwrap();
    for seed in 0..8 {
        check_dispatch_against_reference(&program, seed);
    }
}

/// Every world of a program offers its steps in one order, however many
/// times `World::new` ran: the search breaks priority ties by it.
#[test]
fn fresh_worlds_enumerate_steps_in_one_order() {
    let program = parse_program(MANY_COMPONENTS).unwrap();
    let mut worlds: Vec<World<'_>> = (0..8).map(|_| World::new(&program)).collect();
    for _ in 0..16 {
        let steps = worlds[0].enabled_steps();
        for w in &worlds[1..] {
            assert_eq!(w.enabled_steps(), steps);
        }
        let Some(step) = steps.last() else {
            break;
        };
        for w in &mut worlds {
            assert!(w.step(step));
        }
    }
}

/// Repeated unguided searches on two generated corpus apps find the same
/// witness after the same number of states.
#[test]
fn repeated_unguided_searches_agree() {
    for name in ["Aard", "ConnectBot"] {
        let row = table1_rows()
            .into_iter()
            .find(|r| r.name == name)
            .expect("corpus row");
        let app = generate(&spec_for(&row));
        let search =
            || match explore_guided(&app.program, Goal::AnyNpe, ExploreConfig::default(), None) {
                Exploration::Witness(w) => (w.schedule, w.states_explored),
                Exploration::Exhausted { .. } => panic!("{name}: no witness"),
            };
        let first = search();
        for _ in 0..4 {
            assert_eq!(search(), first, "{name}");
        }
    }
}

/// A schedule decoded against another program names tasks, classes,
/// objects, methods, loopers and runs that do not exist: replay stops at
/// the first such step, without panicking. (`C` and `D` have no
/// `onCreate`, so the looper stays idle and every event is checked.)
#[test]
fn replay_stops_at_out_of_range_ids() {
    let program = parse_program(MANY_COMPONENTS).unwrap();
    let c = program.class_by_name("C").unwrap().raw();
    let d = program.class_by_name("D").unwrap().raw();
    for token in [
        "a99.0",
        "l4000000000.onCreate",
        "e4000000000.0",
        "e0.4000000000",
        "q99",
        "c4000000000",
        "d4000000000",
        "b4000000000",
        "t4000000000",
    ] {
        let schedule = decode_schedule(&format!("l{c}.onCreate {token} l{d}.onCreate")).unwrap();
        let world = replay(&program, &schedule);
        assert_eq!(world.schedule, schedule[..1], "{token}");
        assert!(world.npe.is_none(), "{token}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The state fingerprint keeps every piece of state the search's
    /// goal and successors depend on.
    #[test]
    fn equal_fingerprints_mean_equal_steps_and_attribution(
        spec in spec_strategy(),
        walk_seed in any::<u64>(),
    ) {
        let app = generate(&spec);
        check_fingerprint_contract(&app.program, walk_seed);
    }

    /// The fingerprint merges exactly the worlds the whole-world
    /// reference merges.
    #[test]
    fn fingerprints_partition_worlds_like_the_reference(
        spec in spec_strategy(),
        walk_seed in any::<u64>(),
    ) {
        let app = generate(&spec);
        check_reference_equivalence(&app.program, walk_seed);
    }

    /// The dispatch check accepts every enabled event and, for perturbed
    /// events, exactly what the enumeration-based reference accepts; the
    /// trace is the lines stepping used to push.
    #[test]
    fn dispatch_accepts_exactly_the_enabled_events(
        spec in spec_strategy(),
        walk_seed in any::<u64>(),
    ) {
        let app = generate(&spec);
        check_dispatch_against_reference(&app.program, walk_seed);
    }

    /// The checkpointed minimizer returns exactly what replaying every
    /// candidate from a fresh world returns.
    #[test]
    fn minimizer_matches_the_fresh_replay_reference(spec in spec_strategy()) {
        let app = generate(&spec);
        let cfg = ExploreConfig { max_states: 5_000, ..ExploreConfig::default() };
        if let Some(w) = explore(&app.program, Goal::AnyNpe, cfg) {
            let min = minimize_schedule(&app.program, &w.schedule, &w.npe);
            prop_assert_eq!(&min, &reference_minimize(&app.program, &w.schedule, &w.npe));
            prop_assert_eq!(replay(&app.program, &min).npe.as_ref(), Some(&w.npe));
        }
    }

    /// Random schedules on random generated apps never panic, and the
    /// world's invariants hold throughout.
    #[test]
    fn random_schedules_preserve_invariants(spec in spec_strategy(), sched_seed in any::<u64>()) {
        let app = generate(&spec);
        let mut world = World::new(&app.program);
        let mut rng = rand::rngs::StdRng::seed_from_u64(sched_seed);
        for _ in 0..300 {
            if world.npe.is_some() {
                break;
            }
            let steps = world.enabled_steps();
            if world.events >= 10 && steps.iter().all(|s| matches!(s, Step::Dispatch(_))) {
                break;
            }
            let Some(step) = steps.choose(&mut rng).cloned() else { break };
            world.step(&step);

            // Invariants:
            // 1. Monitors are only held by live tasks with frames.
            for (owner, depth) in world.monitors.values() {
                prop_assert!(*depth > 0);
                let t = &world.tasks[owner.0 as usize];
                prop_assert!(
                    !t.frames.is_empty(),
                    "a task without frames cannot hold a monitor"
                );
            }
            // 2. Idle loopers have no leftover monitors owned by them.
            for (i, t) in world.tasks.iter().enumerate() {
                if t.is_looper && t.frames.is_empty() {
                    prop_assert!(
                        !world
                            .monitors
                            .values()
                            .any(|(o, _)| o.0 as usize == i),
                        "looper {i} finished its callback holding a lock"
                    );
                }
            }
            // 3. Counters are monotone and bounded.
            prop_assert!(world.events <= world.steps);
        }
    }

    /// Stepping is deterministic: replaying the recorded schedule yields
    /// an identical final state.
    #[test]
    fn schedules_replay_identically(spec in spec_strategy(), sched_seed in any::<u64>()) {
        let app = generate(&spec);
        let mut world = World::new(&app.program);
        let mut rng = rand::rngs::StdRng::seed_from_u64(sched_seed);
        for _ in 0..150 {
            if world.npe.is_some() {
                break;
            }
            let steps = world.enabled_steps();
            let Some(step) = steps.choose(&mut rng).cloned() else { break };
            world.step(&step);
        }
        let replayed = nadroid_dynamic::replay(&app.program, &world.schedule);
        prop_assert_eq!(&replayed.npe, &world.npe);
        prop_assert_eq!(replayed.steps, world.steps);
        prop_assert_eq!(replayed.events, world.events);
        prop_assert_eq!(replayed.heap.len(), world.heap.len());
        prop_assert_eq!(&replayed.trace(), &world.trace());
    }
}
