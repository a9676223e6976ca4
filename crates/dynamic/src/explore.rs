//! Bounded schedule exploration: search for `NullPointerException`
//! witnesses.
//!
//! §7 of the paper validates potential UAF warnings by manually
//! constructing schedules that trigger an NPE. This module automates that
//! search over the interpreter: a depth-first exploration of event
//! dispatch orders, thread interleavings, and opaque-branch resolutions,
//! bounded by step/event budgets and deduplicated by state fingerprints.

use crate::world::{Npe, ServiceState, Step, World};
use nadroid_android::lifecycle::LifecycleState;
use nadroid_ir::{InstrId, Program};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum framework events dispatched along one path.
    pub max_events: usize,
    /// Maximum micro-steps along one path.
    pub max_steps: usize,
    /// Global budget of explored states.
    pub max_states: usize,
    /// Loop unrolling bound.
    pub max_loop_iters: u32,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_events: 8,
            max_steps: 400,
            max_states: 200_000,
            max_loop_iters: 1,
        }
    }
}

/// A schedule that triggers an NPE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The NPE.
    pub npe: Npe,
    /// The exact step sequence; [`replay`] reproduces the NPE from it,
    /// and the replayed world's [`World::trace`] renders it.
    pub schedule: Vec<Step>,
    /// States explored before the witness was found.
    pub states_explored: usize,
}

/// The goal of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Any `NullPointerException`.
    AnyNpe,
    /// An NPE whose null value was loaded by the given use instruction
    /// (matches a static warning's use site), or thrown at it.
    AtUse(InstrId),
    /// An NPE attributable to a specific warning: the null was loaded by
    /// `use_instr` and written by `free_instr`.
    Pair {
        /// The warning's use (`Load`) instruction.
        use_instr: InstrId,
        /// The warning's free (`StoreNull`) instruction.
        free_instr: InstrId,
    },
}

impl Goal {
    fn matches(self, npe: &Npe) -> bool {
        match self {
            Goal::AnyNpe => true,
            Goal::AtUse(u) => npe.loaded_from == Some(u) || npe.at == u,
            Goal::Pair {
                use_instr,
                free_instr,
            } => npe.loaded_from == Some(use_instr) && npe.freed_by == Some(free_instr),
        }
    }
}

/// A scheduling guide for [`explore_guided`], which scores each enabled
/// step once: higher scores are explored first, ties in the
/// interpreter's deterministic enabled-step order. The confirm subsystem
/// derives guides from a warning's happens-before evidence; an unguided
/// search scores every step 0, which is plain [`explore`].
pub trait Guide {
    /// The step's exploration priority, or `None` to reject it.
    /// Rejecting a step restricts the search space, so an exhausted
    /// guided search is never a completeness proof (see
    /// [`Exploration::Exhausted`]).
    fn score(&self, world: &World<'_>, step: &Step) -> Option<i32>;
}

/// How a bounded search ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exploration {
    /// A schedule matching the goal was found.
    Witness(Witness),
    /// The search frontier drained without a witness.
    Exhausted {
        /// States explored before the frontier drained.
        states: usize,
        /// Whether the enumeration covered the *entire* bounded state
        /// space: no path was cut by `max_steps`/`max_events`, the
        /// `max_states` budget was never reached, and no step was
        /// rejected by a [`Guide`]. When `true`, no schedule within the
        /// model's loop/choice bounds can reach the goal — the
        /// infeasibility proof `nadroid-confirm` relies on. When
        /// `false`, the absence of a witness is inconclusive.
        complete: bool,
    },
}

/// Search for an NPE witness under the given bounds.
#[must_use]
pub fn explore(program: &Program, goal: Goal, cfg: ExploreConfig) -> Option<Witness> {
    match explore_guided(program, goal, cfg, None) {
        Exploration::Witness(w) => Some(w),
        Exploration::Exhausted { .. } => None,
    }
}

/// Search for an NPE witness under the given bounds, optionally guided,
/// reporting whether an exhausted search covered the whole bounded
/// state space (the verdict [`nadroid-confirm`] distinguishes
/// *infeasible* from *unconfirmed* with).
///
/// The search is a depth-first exploration with state-fingerprint
/// deduplication; with a guide, successors are pushed in ascending
/// priority order so the highest-priority step is explored first.
/// Everything is deterministic: no randomness, no clocks, and one
/// enabled-step order per program (tasks by index, then each event
/// source with its components in class order), so a search repeats its
/// states, witness and state count in every world and every process.
#[must_use]
pub fn explore_guided(
    program: &Program,
    goal: Goal,
    cfg: ExploreConfig,
    guide: Option<&dyn Guide>,
) -> Exploration {
    let is_goal = |w: &World<'_>| w.npe.as_ref().is_some_and(|npe| goal.matches(npe));
    match search(program, cfg, guide, is_goal) {
        Search::Found { world, states } => Exploration::Witness(Witness {
            npe: world.npe.expect("a goal world holds its NPE"),
            schedule: world.schedule,
            states_explored: states,
        }),
        Search::Exhausted { states, complete } => Exploration::Exhausted { states, complete },
    }
}

/// How [`search`] ended: the first goal world, or the
/// [`Exploration::Exhausted`] statistics.
enum Search<'p> {
    Found {
        world: Box<World<'p>>,
        states: usize,
    },
    Exhausted {
        states: usize,
        complete: bool,
    },
}

/// The one schedule-search kernel behind [`explore_guided`] and
/// [`explore_no_sleep`]: a depth-first walk from the initial world with
/// state-fingerprint deduplication, stopping at the first world that
/// satisfies `is_goal`. A world holding an NPE is terminal — it never
/// steps further, and is returned only when it is itself the goal.
fn search<'p>(
    program: &'p Program,
    cfg: ExploreConfig,
    guide: Option<&dyn Guide>,
    is_goal: impl Fn(&World<'p>) -> bool,
) -> Search<'p> {
    let mut initial = World::new(program);
    initial.max_loop_iters = cfg.max_loop_iters;
    let mut stack: Vec<World<'p>> = vec![initial];
    let mut visited: HashSet<u64> = HashSet::new();
    let mut states = 0usize;
    // Stays true only while every reachable step was actually taken:
    // any budget cut or guide rejection makes exhaustion inconclusive.
    let mut complete = true;
    // The admitted steps of the state being expanded, with their
    // priorities, in enabled-step order; reused across states.
    let mut successors: Vec<(i32, Step)> = Vec::new();

    while let Some(world) = stack.pop() {
        if states >= cfg.max_states {
            return Search::Exhausted {
                states,
                complete: false,
            };
        }
        states += 1;
        if is_goal(&world) {
            return Search::Found {
                world: Box::new(world),
                states,
            };
        }
        // A world holding an NPE enables no step, so it ends here.
        if world.steps >= cfg.max_steps {
            world.each_step(|_| complete = false);
            continue;
        }
        world.each_step(|step| {
            if matches!(step, Step::Dispatch(_)) && world.events >= cfg.max_events {
                complete = false;
                return;
            }
            match guide.map_or(Some(0), |g| g.score(&world, &step)) {
                Some(priority) => successors.push((priority, step)),
                None => complete = false,
            }
        });
        // Ascending (priority, enabled-step index), as the sort is
        // stable: the stack pops the highest-priority successor first,
        // and priority ties keep the unguided pop order (descending
        // enabled-step index).
        successors.sort_by_key(|&(priority, _)| priority);
        for (_, step) in successors.drain(..) {
            let mut next = world.clone();
            if !next.step(&step) {
                continue;
            }
            // Check NPEs eagerly: a throwing state has the same heap and
            // frame shape as its parent, so it must not be deduplicated.
            if next.npe.is_some() {
                if is_goal(&next) {
                    return Search::Found {
                        world: Box::new(next),
                        states,
                    };
                }
                continue;
            }
            let fp = fingerprint(&next);
            if visited.insert(fp) {
                stack.push(next);
            }
        }
    }
    Search::Exhausted { states, complete }
}

/// Convenience: search for any NPE with default bounds.
#[must_use]
pub fn find_any_npe(program: &Program) -> Option<Witness> {
    explore(program, Goal::AnyNpe, ExploreConfig::default())
}

/// Convenience: search for an NPE at a specific use site with default
/// bounds.
#[must_use]
pub fn find_npe_at_use(program: &Program, use_instr: InstrId) -> Option<Witness> {
    explore(program, Goal::AtUse(use_instr), ExploreConfig::default())
}

/// Deterministically replay a step sequence (e.g. a [`Witness`]
/// schedule) and return the final world — the reproduction workflow the
/// paper performs by hand in §7.
#[must_use]
pub fn replay<'p>(program: &'p Program, schedule: &[Step]) -> World<'p> {
    let mut world = World::new(program);
    for step in schedule {
        if !world.step(step) {
            break;
        }
    }
    world
}

/// Minimize a witness schedule by delta-debugging: try dropping
/// progressively smaller blocks of steps (halving from half the
/// schedule down to single steps), keeping a drop when the replay still
/// ends in the same NPE, and iterate the whole cycle to a fixpoint.
/// Block deletion matters: two steps can be individually load-bearing
/// for each other (e.g. a post and its dequeue) yet jointly removable,
/// which single-step passes alone never discover.
///
/// A pass never re-runs the prefix it has already settled: a kept
/// deletion at `i` leaves `current[..i]` unchanged and a rejected one
/// extends it by `current[i]`, so the pass keeps the world after that
/// prefix and replays only each candidate's suffix from a clone of it.
/// The outcome is exactly that of replaying every candidate from a
/// fresh world.
///
/// Every deletion pass re-validates the surviving schedule from the
/// initial world before the next pass runs, so the result provably
/// reproduces the witness; a schedule that does not reproduce the NPE
/// in the first place is returned unchanged. The function is
/// idempotent: `minimize_schedule` of its own output is a fixpoint.
#[must_use]
pub fn minimize_schedule(program: &Program, schedule: &[Step], npe: &Npe) -> Vec<Step> {
    let initial = World::new(program);
    // Whether running `suffix` from `start` ends in the witness NPE,
    // with [`replay`]'s rule of stopping at the first step that fails.
    let reproduces_from = |start: &World<'_>, suffix: &[Step]| {
        let mut world = start.clone();
        for step in suffix {
            if !world.step(step) {
                break;
            }
        }
        world.npe.as_ref() == Some(npe)
    };
    let mut current: Vec<Step> = schedule.to_vec();
    if !reproduces_from(&initial, &current) {
        debug_assert!(
            false,
            "minimize_schedule: schedule does not reproduce the NPE"
        );
        return current;
    }
    loop {
        let before = current.len();
        let mut chunk = (current.len() / 2).max(1);
        loop {
            let mut i = 0;
            // The world after `current[..i]`. `current` reproduces the
            // NPE, so each prefix step before the NPE succeeds and each
            // one after it is a no-op, as it is in a full replay.
            let mut prefix = initial.clone();
            while i + chunk <= current.len() {
                if reproduces_from(&prefix, &current[i + chunk..]) {
                    current.drain(i..i + chunk);
                } else {
                    prefix.step(&current[i]);
                    i += 1;
                }
            }
            // Re-validate after the pass: only reproducing candidates
            // are ever kept, so this can't fire — but the minimizer's
            // contract is that every pass ends on a verified witness.
            assert!(
                reproduces_from(&initial, &current),
                "minimize_schedule: deletion pass invalidated the witness"
            );
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

/// A stable fingerprint of the scheduling-relevant state (heap and the
/// frees that wrote its nulls, frames with the provenance of their
/// locals, queues, component states) — progress counters and traces
/// excluded so that converging schedules deduplicate. Two worlds with
/// equal fingerprints enable the same steps and attribute every future
/// NPE to the same (use, free) pair. Public so external search drivers
/// (the confirm subsystem) share the explorer's deduplication.
///
/// It hashes only what a schedule can change: the objects allocated
/// after [`World::new`] (the singletons before them are fixed by the
/// program), the set and freed field slots, and the lifecycle and
/// service states that differ from the initial one. Variable-length
/// sections are length-prefixed, so the cost follows what the schedule
/// touched, not the program's component count.
#[must_use]
pub fn fingerprint(w: &World<'_>) -> u64 {
    let mut h = DefaultHasher::new();
    // Heap: the classes of the objects allocated since startup, then
    // each set slot with its value and the free that wrote its null.
    let classes = w.heap.classes();
    classes.len().hash(&mut h);
    classes[w.initial_objects()..].hash(&mut h);
    w.heap.slots().hash(&mut h);
    // Tasks.
    w.tasks.len().hash(&mut h);
    for t in &w.tasks {
        t.done.hash(&mut h);
        t.frames.len().hash(&mut h);
        for f in &t.frames {
            f.method.hash(&mut h);
            f.pc.hash(&mut h);
            f.locals.hash(&mut h);
            f.provenance.hash(&mut h);
            f.loop_budget.hash(&mut h);
        }
    }
    // Queues, one per looper; a post's sequence number only names it
    // in the event log.
    for q in &w.posts {
        q.len().hash(&mut h);
        for p in q {
            (p.target, p.method).hash(&mut h);
        }
    }
    // Component states that left their initial state, by table index;
    // the table length ends each list (no index equals it).
    for (i, (_, lc)) in w.lifecycles.iter().enumerate() {
        if lc.state() != LifecycleState::Fresh {
            (i, lc.state() as u8).hash(&mut h);
        }
    }
    w.lifecycles.len().hash(&mut h);
    for (i, &(_, s)) in w.services.iter().enumerate() {
        if s != ServiceState::Fresh {
            (i, s as u8).hash(&mut h);
        }
    }
    w.services.len().hash(&mut h);
    w.finished.hash(&mut h);
    w.connections.hash(&mut h);
    w.receivers.hash(&mut h);
    // Shown dialogs and armed alarms in delivery order (the order
    // `enabled_steps` offers their callbacks in).
    w.shown.hash(&mut h);
    w.alarms.hash(&mut h);
    w.launched.hash(&mut h);
    w.listeners.hash(&mut h);
    w.async_runs.hash(&mut h);
    w.monitors.hash(&mut h);
    w.wakelocks.hash(&mut h);
    h.finish()
}

/// Search for a **no-sleep witness** (§9's energy-bug client): a schedule
/// that leaves the app backgrounded and idle with a wake lock still held.
#[must_use]
pub fn explore_no_sleep(program: &Program, cfg: ExploreConfig) -> Option<Vec<String>> {
    let is_goal = |w: &World<'_>| w.npe.is_none() && w.holds_wakelock() && w.quiescent_background();
    match search(program, cfg, None, is_goal) {
        Search::Found { world, .. } => {
            let mut trace = world.trace();
            trace.push("QUIESCENT with wake lock held".to_owned());
            Some(trace)
        }
        Search::Exhausted { .. } => None,
    }
}
