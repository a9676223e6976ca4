//! Interpreter invariants under random schedules: the world never
//! panics, monitors balance when tasks go idle, counters stay sane, and
//! stepping is deterministic. The search's state fingerprint and the
//! witness minimizer are pinned to the definitions they shortcut.

use nadroid_corpus::{generate, AppSpec, PatternKind};
use nadroid_dynamic::{
    explore, fingerprint, minimize_schedule, replay, ExploreConfig, Goal, HeapRef, Npe, Prov, Step,
    World,
};
use nadroid_ir::{parse_program, FieldId, InstrId, Program};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::hash_map::{Entry, HashMap};

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

/// Random walks from one initial world (its clones share the hash maps'
/// iteration order, which `enabled_steps` follows): any two NPE-free
/// worlds with equal fingerprints must be observed equal. NPE worlds
/// are left out because the search never fingerprints them.
fn check_fingerprint_contract(program: &Program, seed: u64) {
    let initial = World::new(program);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen: HashMap<u64, Observed> = HashMap::new();
    for _ in 0..32 {
        let mut world = initial.clone();
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
        prop_assert_eq!(&replayed.trace, &world.trace);
    }
}
