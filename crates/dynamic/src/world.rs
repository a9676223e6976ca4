//! The small-step execution state: looper, threads, component lifecycles,
//! and framework event dispatch.
//!
//! The model follows the Android concurrency semantics the paper relies
//! on (§2.1): event callbacks run to completion, one at a time, on the
//! looper; native threads and AsyncTask bodies interleave with the looper
//! at instruction granularity; posted work is FIFO; lifecycle events obey
//! the [`nadroid_android::lifecycle::Lifecycle`] automaton; UI events are
//! only delivered to a resumed, unfinished activity.

use crate::machine::{CodeCache, FlatOp, Frame, Heap, HeapRef, Prov, Value};
use nadroid_android::lifecycle::{Lifecycle, LifecycleState};
use nadroid_android::{CallbackKind, ClassRole, PredicateFamily};
use nadroid_ir::{AndroidOp, Callee, ClassId, Cond, InstrId, Local, MethodId, Op, Program};
use nadroid_threadify::callback_method;
use nadroid_threadify::resolve::{Scanner, SiteAction};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Identifier of a task (0 = the looper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The looper task.
    pub const LOOPER: TaskId = TaskId(0);
}

/// A schedulable unit: the looper or a background thread.
#[derive(Debug, Clone)]
pub struct Task {
    /// Call stack (empty = idle/finished).
    pub frames: Vec<Frame>,
    /// Whether the task has terminated (threads only).
    pub done: bool,
    /// Whether this task is a looper (processes queued callbacks
    /// atomically). Task 0 is the main looper; further looper tasks come
    /// from `LooperThread` classes (`HandlerThread`).
    pub is_looper: bool,
}

/// A pending looper delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingPost {
    /// Receiver object.
    pub target: HeapRef,
    /// Callback method to run.
    pub method: MethodId,
    /// Trace identity of the post (for the causal post edge).
    pub seq: u32,
}

/// AsyncTask protocol state for one executed task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    /// `onPreExecute` queued/running.
    Pre,
    /// Body thread running.
    Body,
    /// Body finished, `onPostExecute` pending.
    Post,
    /// Protocol complete.
    Done,
}

/// One executed AsyncTask instance.
#[derive(Debug, Clone, Hash)]
pub struct AsyncRun {
    /// The task object.
    pub obj: HeapRef,
    /// Protocol phase.
    pub phase: TaskPhase,
}

/// A structured trace event for offline (CAFA-style) race detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A callback or thread body began on a task (opens a segment).
    SegmentBegin {
        /// The executing task.
        task: TaskId,
        /// The root method.
        method: MethodId,
        /// The receiver object.
        target: Option<HeapRef>,
    },
    /// The current segment of a task ended.
    SegmentEnd {
        /// The executing task.
        task: TaskId,
    },
    /// A field read (`getfield`).
    Use {
        /// The executing task.
        task: TaskId,
        /// The load instruction.
        instr: InstrId,
        /// The base object.
        obj: HeapRef,
        /// The field.
        field: nadroid_ir::FieldId,
    },
    /// A field free (`putfield null`).
    Free {
        /// The executing task.
        task: TaskId,
        /// The store instruction.
        instr: InstrId,
        /// The base object.
        obj: HeapRef,
        /// The field.
        field: nadroid_ir::FieldId,
    },
    /// Work was enqueued on a looper (the causal post edge).
    PostEnqueue {
        /// The enqueuing task.
        from: TaskId,
        /// Sequence number identifying the post.
        seq: u32,
    },
    /// Enqueued work began executing.
    PostDequeue {
        /// Sequence number of the post.
        seq: u32,
    },
    /// A thread was spawned (the causal fork edge).
    Spawn {
        /// The spawning task.
        from: TaskId,
        /// The new task.
        child: TaskId,
    },
}

/// A recorded `NullPointerException`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Npe {
    /// The instruction that threw.
    pub at: InstrId,
    /// The load instruction that produced the null value, when the NPE
    /// came from dereferencing a loaded field (this is what matches a
    /// static warning's use site).
    pub loaded_from: Option<InstrId>,
    /// The free instruction that wrote the null, when it came from an
    /// explicit `putfield null` (this is what matches a static warning's
    /// free site).
    pub freed_by: Option<InstrId>,
    /// The task that threw.
    pub task: TaskId,
}

/// A schedulable step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Advance a task by one instruction (resolving a pending choice to
    /// "fall through" (`false`) or "jump" (`true`)).
    Advance {
        /// The task to step.
        task: TaskId,
        /// Resolution for a [`FlatOp::Choice`] at the pc, if one is there.
        choice: bool,
    },
    /// Dispatch a framework event on the idle looper.
    Dispatch(Event),
}

/// A framework event the environment may deliver when the looper is idle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lifecycle transition of an activity.
    Lifecycle {
        /// The activity class.
        activity: ClassId,
        /// The lifecycle callback.
        kind: CallbackKind,
    },
    /// A UI/system entry callback on an armed target.
    Entry {
        /// The receiver object.
        target: HeapRef,
        /// The callback method.
        method: MethodId,
    },
    /// Deliver the head of a looper's post queue.
    DequeuePost {
        /// The looper task to deliver on.
        looper: TaskId,
    },
    /// The framework connects a bound service connection.
    ServiceConnect {
        /// The connection object.
        conn: HeapRef,
    },
    /// The framework disconnects a connected connection.
    ServiceDisconnect {
        /// The connection object.
        conn: HeapRef,
    },
    /// A broadcast delivered to a registered receiver.
    Broadcast {
        /// The receiver object.
        receiver: HeapRef,
    },
    /// Run the pending `onPostExecute` of a finished AsyncTask.
    TaskPost {
        /// Index into the async-run table.
        run: usize,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Lifecycle { activity, kind } => write!(f, "lifecycle({activity}, {kind})"),
            Event::Entry { method, .. } => write!(f, "entry({method})"),
            Event::DequeuePost { looper } => write!(f, "dequeue-post({})", looper.0),
            Event::ServiceConnect { conn } => write!(f, "connect({})", conn.0),
            Event::ServiceDisconnect { conn } => write!(f, "disconnect({})", conn.0),
            Event::Broadcast { receiver } => write!(f, "broadcast({})", receiver.0),
            Event::TaskPost { run } => write!(f, "task-post({run})"),
        }
    }
}

/// Lifecycle state of a started service component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Not yet created by the framework.
    Fresh,
    /// `onCreate` ran; the service accepts commands and binds.
    Created,
    /// `onDestroy` ran (terminal).
    Destroyed,
}

/// Service-connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// Bound, never connected yet.
    Bound,
    /// Currently connected.
    Connected,
    /// Disconnected (may reconnect while still bound).
    Disconnected,
}

/// What [`World::new`] fixes for a whole run, shared by every clone:
/// the component singletons and looper tasks, indexed by class, and the
/// launch-gated activities.
struct Layout {
    /// The singleton of each component class (and hosted fragment).
    singletons: Vec<Option<HeapRef>>,
    /// The looper task of each `LooperThread` class, in class order.
    loopers: Vec<(ClassId, TaskId)>,
    /// Activities that are only reachable through an explicit
    /// `startActivity` launch (statically targeted by a launch site
    /// somewhere in the program): their lifecycles stay dormant until a
    /// launch actually executes.
    launch_gated: Vec<ClassId>,
    /// Number of objects allocated at startup: the singletons.
    initial_objects: usize,
    /// Number of methods in the program.
    methods: usize,
}

/// The whole execution state. `World` is cloneable so the explorer can
/// branch. Component state is kept in class order, so every world of a
/// program enumerates its enabled steps in the same order.
#[derive(Clone)]
pub struct World<'p> {
    program: &'p Program,
    cache: Rc<std::cell::RefCell<CodeCache>>,
    layout: Rc<Layout>,
    /// The heap; its first objects are the component singletons.
    pub heap: Heap,
    /// Tasks; index 0 is the main looper; `LooperThread` classes get
    /// their own looper tasks at startup.
    pub tasks: Vec<Task>,
    /// FIFO post queue of each looper task, indexed by task (the loopers
    /// are the first tasks).
    pub posts: Vec<VecDeque<PendingPost>>,
    /// Activity and fragment lifecycles, in class order.
    pub lifecycles: Vec<(ClassId, Lifecycle)>,
    /// Finished activities (no further UI/lifecycle), in class order.
    pub finished: Vec<ClassId>,
    /// Bound service connections.
    pub connections: Vec<(HeapRef, ConnState)>,
    /// Lifecycle state of each service component, in class order.
    pub services: Vec<(ClassId, ServiceState)>,
    /// Registered broadcast receivers.
    pub receivers: Vec<HeapRef>,
    /// Currently shown dialogs (`Dialog.show()` adds, `dismiss()` removes).
    pub shown: Vec<HeapRef>,
    /// Armed alarm targets (`AlarmManager.set` adds, `cancel` removes).
    pub alarms: Vec<HeapRef>,
    /// Launch-gated activities that have been started at runtime, in
    /// class order.
    pub launched: Vec<ClassId>,
    /// Imperatively armed listeners: (object, callback).
    pub listeners: Vec<(HeapRef, MethodId)>,
    /// Executed AsyncTask instances.
    pub async_runs: Vec<AsyncRun>,
    /// Held monitors: lock object -> (task, depth).
    pub monitors: BTreeMap<HeapRef, (TaskId, u32)>,
    /// Held wake locks: lock object -> acquire depth (no-sleep client).
    pub wakelocks: BTreeMap<HeapRef, u32>,
    /// First NPE observed, if any.
    pub npe: Option<Npe>,
    /// Total micro-steps taken.
    pub steps: usize,
    /// Events dispatched.
    pub events: usize,
    /// The exact steps taken (for deterministic replay of witnesses).
    pub schedule: Vec<Step>,
    /// Structured event log for offline race detection (populated only
    /// when [`World::record_events`] is set).
    pub events_log: Vec<TraceEvent>,
    /// Whether to populate `events_log`.
    pub record_events: bool,
    /// Next post sequence number (trace identity of enqueued work).
    pub next_post_seq: u32,
    /// Per-frame loop iteration bound.
    pub max_loop_iters: u32,
}

impl fmt::Debug for World<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("steps", &self.steps)
            .field("events", &self.events)
            .field("npe", &self.npe)
            .finish_non_exhaustive()
    }
}

/// The entry of `class` in a class-ordered table.
fn by_class<T>(table: &[(ClassId, T)], class: ClassId) -> Option<&T> {
    table
        .binary_search_by_key(&class, |&(c, _)| c)
        .ok()
        .map(|i| &table[i].1)
}

/// Insert `class` into a sorted class list unless it is there already.
fn insert_class(list: &mut Vec<ClassId>, class: ClassId) {
    if let Err(i) = list.binary_search(&class) {
        list.insert(i, class);
    }
}

/// The lifecycle callback a service in `state` takes next: the framework
/// creates a service once and destroys it once (the MHB-Lifecycle order
/// for services).
fn service_transition(state: ServiceState) -> Option<CallbackKind> {
    match state {
        ServiceState::Fresh => Some(CallbackKind::OnCreate),
        ServiceState::Created => Some(CallbackKind::OnDestroy),
        ServiceState::Destroyed => None,
    }
}

impl<'p> World<'p> {
    /// A fresh world: singletons for every component class, activities in
    /// their initial lifecycle state, manifest receivers registered.
    #[must_use]
    pub fn new(program: &'p Program) -> World<'p> {
        let mut heap = Heap::new();
        let mut singletons = Vec::new();
        let mut lifecycles = Vec::new();
        let mut services = Vec::new();
        let reachable = program.reachable_components();
        for (cid, class) in program.classes() {
            let mut singleton = None;
            if class.role().is_component() {
                singleton = Some(heap.alloc(cid));
                // Only activities an intent can reach are ever started —
                // unreachable components keep a singleton (for static
                // accesses) but receive no events.
                if class.role() == ClassRole::Activity && reachable[cid.index()] {
                    lifecycles.push((cid, Lifecycle::new()));
                }
                if class.role() == ClassRole::Service {
                    services.push((cid, ServiceState::Fresh));
                }
            } else if class.role() == ClassRole::Fragment && class.outer().is_some() {
                // Fragments are framework-instantiated alongside their
                // host activity and follow their own lifecycle automaton.
                let host = program.outermost_class(cid);
                if program.class(host).role() == ClassRole::Activity && reachable[host.index()] {
                    singleton = Some(heap.alloc(cid));
                    lifecycles.push((cid, Lifecycle::new()));
                }
            }
            singletons.push(singleton);
        }
        let receivers = program
            .manifest()
            .declared_receivers()
            .iter()
            .filter_map(|c| singletons.get(c.index()).copied().flatten())
            .collect();
        // Activities statically targeted by a launch site wait for the
        // launch; all other activities behave as before (started by an
        // external intent at any time). The main activity is never gated.
        // Only a method holding a `startActivity` can have a launch site,
        // so only those pay for the reaching-definition walk.
        let mut launch_gated: Vec<ClassId> = Vec::new();
        let mut scanner = Scanner::default();
        for m in program.method_ids() {
            let mut launches = false;
            program.method(m).body().for_each_instr(&mut |i| {
                launches |= matches!(i.op, Op::Android(AndroidOp::StartActivity { .. }));
            });
            if !launches {
                continue;
            }
            for site in scanner.scan(program, m).sites {
                if let SiteAction::Enable(PredicateFamily::Task, c) = site.action {
                    if program.class(c).role() == ClassRole::Activity
                        && program.manifest().main_activity() != Some(c)
                        && !launch_gated.contains(&c)
                    {
                        launch_gated.push(c);
                    }
                }
            }
        }
        let looper = || Task {
            frames: Vec::new(),
            done: false,
            is_looper: true,
        };
        let mut tasks = vec![looper()];
        let mut loopers = Vec::new();
        for (cid, class) in program.classes() {
            if class.role() == ClassRole::LooperThread {
                loopers.push((cid, TaskId(tasks.len() as u32)));
                tasks.push(looper());
            }
        }
        World {
            program,
            cache: Rc::new(std::cell::RefCell::new(CodeCache::new())),
            layout: Rc::new(Layout {
                singletons,
                loopers,
                launch_gated,
                initial_objects: heap.len(),
                methods: program.method_ids().count(),
            }),
            heap,
            posts: vec![VecDeque::new(); tasks.len()],
            tasks,
            lifecycles,
            finished: Vec::new(),
            connections: Vec::new(),
            services,
            receivers,
            shown: Vec::new(),
            alarms: Vec::new(),
            launched: Vec::new(),
            listeners: Vec::new(),
            async_runs: Vec::new(),
            monitors: BTreeMap::new(),
            wakelocks: BTreeMap::new(),
            npe: None,
            steps: 0,
            events: 0,
            schedule: Vec::new(),
            events_log: Vec::new(),
            record_events: false,
            next_post_seq: 0,
            max_loop_iters: 1,
        }
    }

    /// The component singleton of `class`, if it has one.
    fn singleton(&self, class: ClassId) -> Option<HeapRef> {
        self.layout.singletons.get(class.index()).copied().flatten()
    }

    /// Number of objects [`World::new`] allocated: the singletons, a
    /// prefix of the heap fixed by the program.
    pub(crate) fn initial_objects(&self) -> usize {
        self.layout.initial_objects
    }

    /// The human-readable schedule trace: one `dispatch <event>` line per
    /// dispatched event, then the throw site of the NPE, if any.
    #[must_use]
    pub fn trace(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .schedule
            .iter()
            .filter_map(|step| match step {
                Step::Dispatch(e) => Some(format!("dispatch {e}")),
                Step::Advance { .. } => None,
            })
            .collect();
        if let Some(npe) = &self.npe {
            lines.push(format!("NPE at {} in task {}", npe.at, npe.task.0));
        }
        lines
    }

    /// The program under execution.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Whether the system is deadlocked: a cycle in the wait-for graph
    /// (task blocked on a monitor → the task holding that monitor).
    #[must_use]
    pub fn deadlocked(&self) -> bool {
        // blocked task -> owner of the monitor it waits on.
        let mut waits: HashMap<u32, u32> = HashMap::new();
        for i in 0..self.tasks.len() as u32 {
            let t = &self.tasks[i as usize];
            if t.frames.is_empty() || t.done {
                continue;
            }
            let tid = TaskId(i);
            if !self.blocked_on_monitor(tid) {
                continue;
            }
            let f = t.frames.last().expect("frames checked non-empty");
            if let Some(FlatOp::MonitorEnter { lock }) = f.code.ops.get(f.pc) {
                if let Value::Obj(r) = f.get(*lock) {
                    if let Some((owner, _)) = self.monitors.get(&r) {
                        waits.insert(i, owner.0);
                    }
                }
            }
        }
        // Cycle detection by walking the (functional) wait-for graph.
        for &start in waits.keys() {
            let mut seen = vec![start];
            let mut cur = start;
            while let Some(&next) = waits.get(&cur) {
                if seen.contains(&next) {
                    return true;
                }
                seen.push(next);
                cur = next;
            }
        }
        false
    }

    /// Whether any wake lock is currently held.
    #[must_use]
    pub fn holds_wakelock(&self) -> bool {
        !self.wakelocks.is_empty()
    }

    /// Whether the app is "backgrounded": no activity resumed, no task
    /// running, and no pending work — the state where a held wake lock is
    /// a no-sleep bug.
    #[must_use]
    pub fn quiescent_background(&self) -> bool {
        let any_resumed = self
            .lifecycles
            .iter()
            .any(|(_, lc)| lc.state() == LifecycleState::Resumed);
        let any_running = self.tasks.iter().any(|t| !t.frames.is_empty() && !t.done);
        let any_pending = self.posts.iter().any(|q| !q.is_empty());
        !any_resumed && !any_running && !any_pending
    }

    /// Whether the main looper has no active callback.
    #[must_use]
    pub fn looper_idle(&self) -> bool {
        self.tasks[0].frames.is_empty()
    }

    /// The looper task a callback on `class` runs on (its declared
    /// `HandlerThread` looper, or the main looper).
    fn looper_for_class(&self, class: ClassId) -> TaskId {
        self.program
            .class(class)
            .looper()
            .and_then(|l| by_class(&self.layout.loopers, l).copied())
            .unwrap_or(TaskId::LOOPER)
    }

    // --- step enumeration ---------------------------------------------------

    /// All steps currently enabled, in [`World::each_step`]'s order.
    #[must_use]
    pub fn enabled_steps(&self) -> Vec<Step> {
        let mut out = Vec::new();
        self.each_step(|step| out.push(step));
        out
    }

    /// Emit every enabled step, in a fixed order: task advances by task
    /// index, then the main looper's events when it is idle, then each
    /// idle custom looper's dequeue. A world holding an NPE enables none.
    pub(crate) fn each_step(&self, mut emit: impl FnMut(Step)) {
        if self.npe.is_some() {
            return;
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.frames.is_empty() || t.done {
                continue;
            }
            let tid = TaskId(i as u32);
            if self.blocked_on_monitor(tid) {
                continue;
            }
            let at_choice = self.at_choice(tid);
            if !at_choice || self.choice_false_allowed(tid) {
                emit(Step::Advance {
                    task: tid,
                    choice: false,
                });
            }
            if at_choice {
                emit(Step::Advance {
                    task: tid,
                    choice: true,
                });
            }
        }
        if self.looper_idle() {
            self.each_event(|e| emit(Step::Dispatch(e)));
        }
        // Custom loopers drain their own queues when idle (the main
        // looper's queue is one of its events, gated on it being idle).
        for looper in 1..self.posts.len() {
            let looper = TaskId(looper as u32);
            if self.dequeue_enabled(looper) {
                emit(Step::Dispatch(Event::DequeuePost { looper }));
            }
        }
    }

    fn at_choice(&self, tid: TaskId) -> bool {
        let t = &self.tasks[tid.0 as usize];
        let f = t.frames.last().expect("task has frames");
        matches!(f.code.ops.get(f.pc), Some(FlatOp::Choice { .. }))
    }

    /// Falling through a `Choice` (into a loop body or then-arm) is
    /// allowed only `max_loop_iters` times per choice site per frame,
    /// which bounds loop unrolling; jumping out is always allowed.
    fn choice_false_allowed(&self, tid: TaskId) -> bool {
        let f = self.tasks[tid.0 as usize].frames.last().expect("frames");
        f.loop_iters(f.pc) < self.max_loop_iters
    }

    fn blocked_on_monitor(&self, tid: TaskId) -> bool {
        let t = &self.tasks[tid.0 as usize];
        let Some(f) = t.frames.last() else {
            return false;
        };
        let Some(FlatOp::MonitorEnter { lock }) = f.code.ops.get(f.pc) else {
            return false;
        };
        match f.get(*lock) {
            Value::Null => false, // NPE will be raised on step
            Value::Obj(r) => {
                matches!(self.monitors.get(&r), Some((owner, _)) if *owner != tid)
            }
        }
    }

    /// Framework events currently deliverable.
    #[must_use]
    pub fn enabled_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.each_event(|e| out.push(e));
        out
    }

    /// Emit every deliverable framework event, in a fixed order: each
    /// source in turn, components in class order. Each source's rule is
    /// one predicate that [`World::dispatchable`] asks as well.
    fn each_event(&self, mut emit: impl FnMut(Event)) {
        // Lifecycle transitions of unfinished activities (and fragments,
        // whose events stop with their finished host).
        for &(activity, ref lc) in &self.lifecycles {
            if self.lifecycle_live(activity) {
                for &kind in lc.legal_events() {
                    emit(Event::Lifecycle { activity, kind });
                }
            }
        }
        // UI/system callbacks declared on resumed activities/fragments.
        for &(act, ref lc) in &self.lifecycles {
            if !self.takes_ui_events(act, lc) {
                continue;
            }
            let Some(target) = self.singleton(act) else {
                continue;
            };
            for &method in self.program.class(act).methods() {
                if self.activity_entry(method) {
                    emit(Event::Entry { target, method });
                }
            }
        }
        // Service lifecycle and entry callbacks: the framework creates a
        // service on demand, delivers commands/binds while it lives, and
        // destroys it once.
        for &(svc, state) in &self.services {
            let Some(target) = self.singleton(svc) else {
                continue;
            };
            if state == ServiceState::Created {
                for &method in self.program.class(svc).methods() {
                    if self.service_entry(method) {
                        emit(Event::Entry { target, method });
                    }
                }
            }
            if let Some(kind) = service_transition(state) {
                emit(Event::Lifecycle {
                    activity: svc,
                    kind,
                });
            }
        }
        // Imperatively armed listeners (gated on their governing activity
        // still accepting UI events, when resolvable).
        for &(target, method) in &self.listeners {
            if self.listener_enabled(target) {
                emit(Event::Entry { target, method });
            }
        }
        // Posted work on the main looper.
        if self.dequeue_enabled(TaskId::LOOPER) {
            emit(Event::DequeuePost {
                looper: TaskId::LOOPER,
            });
        }
        // Service connections.
        for &(conn, state) in &self.connections {
            if let Some(e) = self.connection_event(conn, state) {
                emit(e);
            }
        }
        // Broadcasts.
        for &receiver in &self.receivers {
            if self.takes_broadcasts(receiver) {
                emit(Event::Broadcast { receiver });
            }
        }
        // Shown dialogs deliver onShow while shown; dismissal silences
        // them (onDismiss delivery is modeled statically only).
        for &target in &self.shown {
            if let Some(method) = self.callback_of(target, CallbackKind::OnShow) {
                emit(Event::Entry { target, method });
            }
        }
        // Armed alarm targets deliver onAlarm until cancelled.
        for &target in &self.alarms {
            if let Some(method) = self.callback_of(target, CallbackKind::OnAlarm) {
                emit(Event::Entry { target, method });
            }
        }
        // Finished AsyncTasks' onPostExecute.
        for (run, r) in self.async_runs.iter().enumerate() {
            if r.phase == TaskPhase::Post {
                emit(Event::TaskPost { run });
            }
        }
    }

    /// Whether an activity's (or hosted fragment's) lifecycle takes
    /// events: neither it nor its host is finished, and it is not
    /// waiting for a launch.
    fn lifecycle_live(&self, act: ClassId) -> bool {
        !self.finished.contains(&act)
            && !self.finished.contains(&self.program.outermost_class(act))
            && !self.launch_dormant(act)
    }

    /// Whether an activity or fragment takes UI events: live and resumed.
    fn takes_ui_events(&self, act: ClassId, lc: &Lifecycle) -> bool {
        lc.state() == LifecycleState::Resumed && self.lifecycle_live(act)
    }

    /// Whether `m` is an entry a resumed activity or fragment takes: a
    /// UI or system callback.
    fn activity_entry(&self, m: MethodId) -> bool {
        self.program
            .method(m)
            .callback()
            .is_some_and(|k| k.is_ui() || k.is_system())
    }

    /// Whether `m` is an entry a created service takes: a system
    /// callback.
    fn service_entry(&self, m: MethodId) -> bool {
        self.program
            .method(m)
            .callback()
            .is_some_and(CallbackKind::is_system)
    }

    /// Whether an activity's (or hosted fragment's) lifecycle is dormant
    /// pending an explicit `startActivity` launch.
    fn launch_dormant(&self, act: ClassId) -> bool {
        let host = self.program.outermost_class(act);
        self.layout.launch_gated.contains(&host) && self.launched.binary_search(&host).is_err()
    }

    fn listener_enabled(&self, target: HeapRef) -> bool {
        // A listener armed by an activity stops firing once that activity
        // is finished; approximate the governing activity by the outer
        // chain of the listener's class.
        let outer = self.program.outermost_class(self.heap.class_of(target));
        if self.program.class(outer).role() == ClassRole::Activity {
            !self.finished.contains(&outer)
                && by_class(&self.lifecycles, outer).is_some_and(Lifecycle::accepts_ui_events)
        } else {
            true
        }
    }

    /// Whether a looper is idle with work queued.
    fn dequeue_enabled(&self, looper: TaskId) -> bool {
        let i = looper.0 as usize;
        self.tasks
            .get(i)
            .is_some_and(|t| t.is_looper && t.frames.is_empty())
            && self.posts.get(i).is_some_and(|q| !q.is_empty())
    }

    /// The event a connection in `state` takes next, if its class has
    /// the callback: connect when bound, disconnect when connected. A
    /// crashed service connection stays disconnected: the paper's sound
    /// MHB-Service order (connected strictly before disconnected)
    /// relies on no reconnection.
    fn connection_event(&self, conn: HeapRef, state: ConnState) -> Option<Event> {
        let (kind, event) = match state {
            ConnState::Bound => (
                CallbackKind::OnServiceConnected,
                Event::ServiceConnect { conn },
            ),
            ConnState::Connected => (
                CallbackKind::OnServiceDisconnected,
                Event::ServiceDisconnect { conn },
            ),
            ConnState::Disconnected => return None,
        };
        self.callback_of(conn, kind).map(|_| event)
    }

    /// Whether a registered receiver's class handles broadcasts.
    fn takes_broadcasts(&self, receiver: HeapRef) -> bool {
        self.callback_of(receiver, CallbackKind::OnReceive)
            .is_some()
    }

    /// The `kind` callback of an object's class.
    fn callback_of(&self, obj: HeapRef, kind: CallbackKind) -> Option<MethodId> {
        callback_method(self.program, self.heap.class_of(obj), kind)
    }

    // --- step application -----------------------------------------------------

    /// Apply one step. Returns `false` when the step was not applicable
    /// (stale after cloning).
    pub fn step(&mut self, step: &Step) -> bool {
        if self.npe.is_some() {
            return false;
        }
        match step {
            Step::Advance { task, choice } => {
                // Same validation as for dispatches below: a minimized
                // schedule may have dropped the step that created this
                // task, making the advance stale rather than a crash.
                if self.tasks.get(task.0 as usize).is_none() {
                    return false;
                }
                self.steps += 1;
                self.schedule.push(step.clone());
                self.advance(*task, *choice)
            }
            Step::Dispatch(e) => {
                // Validate against the framework rules, so replayed or
                // minimized schedules cannot smuggle in illegal events
                // (e.g. a disconnect before any connect).
                if !self.dispatchable(e) {
                    return false;
                }
                self.steps += 1;
                self.events += 1;
                self.schedule.push(step.clone());
                self.dispatch(e)
            }
        }
    }

    /// Whether an event may legally be dispatched right now: exactly when
    /// [`World::enabled_steps`] offers it. Ids out of range for the
    /// program or the heap (a schedule decoded against another program)
    /// answer `false`.
    fn dispatchable(&self, e: &Event) -> bool {
        match *e {
            Event::DequeuePost { looper } => self.dequeue_enabled(looper),
            _ if !self.looper_idle() => false,
            Event::Lifecycle { activity, kind } => {
                if let Some(&state) = by_class(&self.services, activity) {
                    service_transition(state) == Some(kind)
                } else {
                    by_class(&self.lifecycles, activity).is_some_and(|lc| {
                        lc.legal_events().contains(&kind) && self.lifecycle_live(activity)
                    })
                }
            }
            Event::Entry { target, method } => self.entry_enabled(target, method),
            Event::ServiceConnect { conn } | Event::ServiceDisconnect { conn } => {
                self.connections
                    .iter()
                    .find(|&&(c, _)| c == conn)
                    .and_then(|&(_, state)| self.connection_event(conn, state))
                    .as_ref()
                    == Some(e)
            }
            Event::Broadcast { receiver } => {
                self.receivers.contains(&receiver) && self.takes_broadcasts(receiver)
            }
            Event::TaskPost { run } => self
                .async_runs
                .get(run)
                .is_some_and(|r| r.phase == TaskPhase::Post),
        }
    }

    /// Whether any source of entry events offers `method` on `target`: a
    /// resumed activity or fragment, a created service, an armed
    /// listener, a shown dialog or an armed alarm.
    fn entry_enabled(&self, target: HeapRef, method: MethodId) -> bool {
        if target.0 as usize >= self.heap.len() || method.index() >= self.layout.methods {
            return false;
        }
        let class = self.heap.class_of(target);
        let component = self.singleton(class) == Some(target)
            && self.program.method(method).owner() == class
            && (by_class(&self.lifecycles, class)
                .is_some_and(|lc| self.takes_ui_events(class, lc) && self.activity_entry(method))
                || by_class(&self.services, class) == Some(&ServiceState::Created)
                    && self.service_entry(method));
        component
            || self.listeners.contains(&(target, method)) && self.listener_enabled(target)
            || self.shown.contains(&target)
                && self.callback_of(target, CallbackKind::OnShow) == Some(method)
            || self.alarms.contains(&target)
                && self.callback_of(target, CallbackKind::OnAlarm) == Some(method)
    }

    fn dispatch(&mut self, e: &Event) -> bool {
        match *e {
            Event::Lifecycle { activity, kind } => {
                if let Ok(i) = self.services.binary_search_by_key(&activity, |&(c, _)| c) {
                    // Service lifecycle: Fresh -> Created -> Destroyed.
                    let state = &mut self.services[i].1;
                    *state = match (*state, kind) {
                        (ServiceState::Fresh, CallbackKind::OnCreate) => ServiceState::Created,
                        (ServiceState::Created, CallbackKind::OnDestroy) => ServiceState::Destroyed,
                        _ => return false,
                    };
                } else {
                    let Ok(i) = self.lifecycles.binary_search_by_key(&activity, |&(c, _)| c) else {
                        return false;
                    };
                    if self.lifecycles[i].1.fire(kind).is_err() {
                        return false;
                    }
                }
                if let (Some(m), Some(this)) = (
                    callback_method(self.program, activity, kind),
                    self.singleton(activity),
                ) {
                    self.push_looper_frame(m, Value::Obj(this));
                }
                true
            }
            Event::Entry { target, method } => {
                self.push_looper_frame(method, Value::Obj(target));
                true
            }
            Event::DequeuePost { looper } => {
                let Some(p) = self.posts[looper.0 as usize].pop_front() else {
                    return false;
                };
                if self.record_events {
                    self.events_log.push(TraceEvent::PostDequeue { seq: p.seq });
                }
                self.push_frame_on(looper, p.method, Value::Obj(p.target));
                true
            }
            Event::ServiceConnect { conn } | Event::ServiceDisconnect { conn } => {
                let (state, kind) = match e {
                    Event::ServiceConnect { .. } => {
                        (ConnState::Connected, CallbackKind::OnServiceConnected)
                    }
                    _ => (ConnState::Disconnected, CallbackKind::OnServiceDisconnected),
                };
                let Some(slot) = self.connections.iter_mut().find(|(c, _)| *c == conn) else {
                    return false;
                };
                slot.1 = state;
                if let Some(m) = self.callback_of(conn, kind) {
                    self.push_looper_frame(m, Value::Obj(conn));
                }
                true
            }
            Event::Broadcast { receiver } => {
                if let Some(m) = self.callback_of(receiver, CallbackKind::OnReceive) {
                    self.push_looper_frame(m, Value::Obj(receiver));
                }
                true
            }
            Event::TaskPost { run } => {
                let r = &mut self.async_runs[run];
                r.phase = TaskPhase::Done;
                let obj = r.obj;
                if let Some(m) = self.callback_of(obj, CallbackKind::OnPostExecute) {
                    self.push_looper_frame(m, Value::Obj(obj));
                }
                true
            }
        }
    }

    fn push_looper_frame(&mut self, method: MethodId, this: Value) {
        self.push_frame_on(TaskId::LOOPER, method, this);
    }

    fn push_frame_on(&mut self, task: TaskId, method: MethodId, this: Value) {
        if self.record_events && self.tasks[task.0 as usize].frames.is_empty() {
            self.events_log.push(TraceEvent::SegmentBegin {
                task,
                method,
                target: this.as_ref(),
            });
        }
        let frame = Frame::new(self.program, &mut self.cache.borrow_mut(), method, this);
        self.tasks[task.0 as usize].frames.push(frame);
    }

    /// Enqueue a post on the looper governing the receiver's class,
    /// recording the causal post edge from the enqueuing task.
    fn enqueue_post_from(&mut self, from: TaskId, target: HeapRef, method: MethodId) {
        let looper = self.looper_for_class(self.heap.class_of(target));
        let seq = self.next_post_seq;
        self.next_post_seq += 1;
        if self.record_events {
            self.events_log.push(TraceEvent::PostEnqueue { from, seq });
        }
        self.posts[looper.0 as usize].push_back(PendingPost {
            target,
            method,
            seq,
        });
    }

    fn spawn_thread(&mut self, from: TaskId, method: MethodId, this: Value) -> TaskId {
        let frame = Frame::new(self.program, &mut self.cache.borrow_mut(), method, this);
        self.tasks.push(Task {
            frames: vec![frame],
            done: false,
            is_looper: false,
        });
        let child = TaskId(self.tasks.len() as u32 - 1);
        if self.record_events {
            self.events_log.push(TraceEvent::Spawn { from, child });
            self.events_log.push(TraceEvent::SegmentBegin {
                task: child,
                method,
                target: this.as_ref(),
            });
        }
        child
    }

    /// Advance a task by one flattened op.
    #[allow(clippy::too_many_lines)]
    fn advance(&mut self, tid: TaskId, choice: bool) -> bool {
        let ti = tid.0 as usize;
        let Some(frame) = self.tasks[ti].frames.last() else {
            return false;
        };
        let code = Rc::clone(&frame.code);
        let Some(op) = code.ops.get(frame.pc) else {
            // Method end without explicit return.
            self.pop_frame(tid, None);
            return true;
        };
        match *op {
            FlatOp::Jump { target } => {
                self.frame_mut(tid).pc = target;
            }
            FlatOp::Choice { target } => {
                let f = self.frame_mut(tid);
                if choice {
                    f.pc = target;
                } else {
                    // Entering a loop body consumes budget; pure if-choices
                    // have jump targets *after* their pc, loops jump back.
                    f.enter_loop(f.pc);
                    f.pc += 1;
                }
            }
            FlatOp::BranchIfNot { cond, target } => {
                let taken = self.eval_cond(tid, cond);
                if self.npe.is_some() {
                    return true;
                }
                let f = self.frame_mut(tid);
                if taken {
                    f.pc += 1;
                } else {
                    f.pc = target;
                }
            }
            FlatOp::MonitorEnter { lock } => {
                let v = self.frame(tid).get(lock);
                match v {
                    Value::Null => self.raise_npe(tid, Prov::default()),
                    Value::Obj(r) => match self.monitors.get_mut(&r) {
                        Some((owner, depth)) if *owner == tid => {
                            *depth += 1;
                            self.frame_mut(tid).pc += 1;
                        }
                        Some(_) => return false, // blocked; caller filters
                        None => {
                            self.monitors.insert(r, (tid, 1));
                            self.frame_mut(tid).pc += 1;
                        }
                    },
                }
            }
            FlatOp::MonitorExit { lock } => {
                if let Value::Obj(r) = self.frame(tid).get(lock) {
                    if let Some((owner, depth)) = self.monitors.get_mut(&r) {
                        if *owner == tid {
                            *depth -= 1;
                            if *depth == 0 {
                                self.monitors.remove(&r);
                            }
                        }
                    }
                }
                self.frame_mut(tid).pc += 1;
            }
            FlatOp::Instr(id, ref op) => {
                self.exec(tid, id, op);
            }
        }
        true
    }

    fn frame(&self, tid: TaskId) -> &Frame {
        self.tasks[tid.0 as usize]
            .frames
            .last()
            .expect("active frame")
    }

    fn frame_mut(&mut self, tid: TaskId) -> &mut Frame {
        self.tasks[tid.0 as usize]
            .frames
            .last_mut()
            .expect("active frame")
    }

    fn raise_npe(&mut self, tid: TaskId, prov: Prov) {
        let frame = self.frame(tid);
        let at = match frame.code.ops.get(frame.pc) {
            Some(FlatOp::Instr(id, _)) => *id,
            _ => InstrId::from_raw(u32::MAX),
        };
        self.npe = Some(Npe {
            at,
            loaded_from: prov.loaded_from,
            freed_by: prov.freed_by,
            task: tid,
        });
    }

    fn eval_cond(&mut self, tid: TaskId, cond: Cond) -> bool {
        match cond {
            Cond::NotNull { base, field } | Cond::IsNull { base, field } => {
                let b = self.frame(tid).get(base);
                let Some(r) = b.as_ref() else {
                    self.raise_npe(tid, self.frame(tid).provenance_of(base));
                    return false;
                };
                let non_null = self.heap.load(r, field) != Value::Null;
                match cond {
                    Cond::NotNull { .. } => non_null,
                    _ => !non_null,
                }
            }
            Cond::Opaque => unreachable!("opaque conditions become Choice ops"),
        }
    }

    fn pop_frame(&mut self, tid: TaskId, ret: Option<(Value, Prov)>) {
        let ti = tid.0 as usize;
        if self.record_events && self.tasks[ti].frames.len() == 1 {
            self.events_log.push(TraceEvent::SegmentEnd { task: tid });
        }
        let finished = self.tasks[ti].frames.pop().expect("frame to pop");
        if let Some(caller) = self.tasks[ti].frames.last_mut() {
            if let Some(dst) = finished.ret_dst {
                let (v, prov) = ret.unwrap_or((Value::Null, Prov::default()));
                caller.set(dst, v, prov);
            }
            caller.pc += 1;
        } else if self.tasks[ti].is_looper {
            // A looper callback finished: if it was an onPreExecute, the
            // AsyncTask body may now start (framework protocol order).
            let this = finished.get(Local::THIS);
            if let Some(r) = this.as_ref() {
                if let Some(i) = self
                    .async_runs
                    .iter()
                    .position(|a| a.obj == r && a.phase == TaskPhase::Pre)
                {
                    let class = self.heap.class_of(r);
                    let pre = callback_method(self.program, class, CallbackKind::OnPreExecute);
                    if pre == Some(finished.method) {
                        if let Some(body) =
                            callback_method(self.program, class, CallbackKind::DoInBackground)
                        {
                            self.spawn_thread(tid, body, Value::Obj(r));
                            self.async_runs[i].phase = TaskPhase::Body;
                        } else {
                            self.async_runs[i].phase = TaskPhase::Post;
                        }
                    }
                }
            }
        } else {
            // A thread's root frame returned: check AsyncTask protocol.
            self.tasks[ti].done = true;
            let this = finished.get(Local::THIS);
            if let Some(r) = this.as_ref() {
                if let Some(run) = self.async_runs.iter_mut().find(|a| a.obj == r) {
                    if run.phase == TaskPhase::Body {
                        run.phase = TaskPhase::Post;
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, tid: TaskId, id: InstrId, op: &Op) {
        match op {
            Op::New { dst, class } => {
                let r = self.heap.alloc(*class);
                let f = self.frame_mut(tid);
                f.set(*dst, Value::Obj(r), Prov::default());
                f.pc += 1;
            }
            Op::LoadStatic { dst, class } => {
                let v = self.singleton(*class).map_or(Value::Null, Value::Obj);
                let f = self.frame_mut(tid);
                f.set(*dst, v, Prov::default());
                f.pc += 1;
            }
            Op::Load { dst, base, field } => {
                let b = self.frame(tid).get(*base);
                let Some(r) = b.as_ref() else {
                    self.raise_npe(tid, self.frame(tid).provenance_of(*base));
                    return;
                };
                if self.record_events {
                    self.events_log.push(TraceEvent::Use {
                        task: tid,
                        instr: id,
                        obj: r,
                        field: *field,
                    });
                }
                let v = self.heap.load(r, *field);
                let freed_by = if v == Value::Null {
                    self.heap.null_writer(r, *field)
                } else {
                    None
                };
                let f = self.frame_mut(tid);
                f.set(
                    *dst,
                    v,
                    Prov {
                        loaded_from: Some(id),
                        freed_by,
                    },
                );
                f.pc += 1;
            }
            Op::Store { base, field, src } => {
                let b = self.frame(tid).get(*base);
                let Some(r) = b.as_ref() else {
                    self.raise_npe(tid, self.frame(tid).provenance_of(*base));
                    return;
                };
                let v = self.frame(tid).get(*src);
                self.heap.store(r, *field, v);
                self.frame_mut(tid).pc += 1;
            }
            Op::StoreNull { base, field } => {
                let b = self.frame(tid).get(*base);
                let Some(r) = b.as_ref() else {
                    self.raise_npe(tid, self.frame(tid).provenance_of(*base));
                    return;
                };
                if self.record_events {
                    self.events_log.push(TraceEvent::Free {
                        task: tid,
                        instr: id,
                        obj: r,
                        field: *field,
                    });
                }
                self.heap.store_null(r, *field, id);
                self.frame_mut(tid).pc += 1;
            }
            Op::Move { dst, src } => {
                let f = self.frame_mut(tid);
                let v = f.get(*src);
                let prov = f.provenance_of(*src);
                f.set(*dst, v, prov);
                f.pc += 1;
            }
            Op::Null { dst } => {
                let f = self.frame_mut(tid);
                f.set(*dst, Value::Null, Prov::default());
                f.pc += 1;
            }
            Op::Invoke {
                dst,
                callee,
                recv,
                args,
            } => {
                // Dereference the receiver.
                let mut this = Value::Null;
                if let Some(r) = recv {
                    let v = self.frame(tid).get(*r);
                    if v == Value::Null {
                        let prov = self.frame(tid).provenance_of(*r);
                        self.raise_npe(tid, prov);
                        return;
                    }
                    this = v;
                }
                match callee {
                    Callee::Opaque => {
                        // Unanalyzed code: returns null, no effect.
                        let f = self.frame_mut(tid);
                        if let Some(d) = dst {
                            f.set(*d, Value::Null, Prov::default());
                        }
                        f.pc += 1;
                    }
                    Callee::Method(m) => {
                        let mut callee_frame =
                            Frame::new(self.program, &mut self.cache.borrow_mut(), *m, this);
                        let nparams = self.program.method(*m).param_count();
                        for (i, a) in args.iter().enumerate() {
                            if (i as u16) < nparams {
                                let v = self.frame(tid).get(*a);
                                let prov = self.frame(tid).provenance_of(*a);
                                callee_frame.set(Local(i as u16 + 1), v, prov);
                            }
                        }
                        callee_frame.ret_dst = *dst;
                        self.tasks[tid.0 as usize].frames.push(callee_frame);
                    }
                }
            }
            Op::Return { val } => {
                let ret = val.map(|v| {
                    let f = self.frame(tid);
                    (f.get(v), f.provenance_of(v))
                });
                self.pop_frame(tid, ret);
            }
            Op::Android(a) => {
                self.exec_android(tid, *a);
            }
        }
    }

    fn operand_obj(&mut self, tid: TaskId, l: Local) -> Option<HeapRef> {
        let v = self.frame(tid).get(l);
        match v.as_ref() {
            Some(r) => Some(r),
            None => {
                let prov = self.frame(tid).provenance_of(l);
                self.raise_npe(tid, prov);
                None
            }
        }
    }

    fn exec_android(&mut self, tid: TaskId, a: AndroidOp) {
        match a {
            AndroidOp::Post { runnable } => {
                let Some(r) = self.operand_obj(tid, runnable) else {
                    return;
                };
                if let Some(m) =
                    callback_method(self.program, self.heap.class_of(r), CallbackKind::PostedRun)
                {
                    self.enqueue_post_from(tid, r, m);
                }
            }
            AndroidOp::SendMessage { handler } => {
                let Some(r) = self.operand_obj(tid, handler) else {
                    return;
                };
                if let Some(m) = callback_method(
                    self.program,
                    self.heap.class_of(r),
                    CallbackKind::HandleMessage,
                ) {
                    self.enqueue_post_from(tid, r, m);
                }
            }
            AndroidOp::BindService { connection } => {
                let Some(r) = self.operand_obj(tid, connection) else {
                    return;
                };
                if !self.connections.iter().any(|(c, _)| *c == r) {
                    self.connections.push((r, ConnState::Bound));
                }
            }
            AndroidOp::UnbindService { connection } => {
                let Some(r) = self.operand_obj(tid, connection) else {
                    return;
                };
                self.connections.retain(|(c, _)| *c != r);
            }
            AndroidOp::RegisterReceiver { receiver } => {
                let Some(r) = self.operand_obj(tid, receiver) else {
                    return;
                };
                if !self.receivers.contains(&r) {
                    self.receivers.push(r);
                }
            }
            AndroidOp::UnregisterReceiver { receiver } => {
                let Some(r) = self.operand_obj(tid, receiver) else {
                    return;
                };
                self.receivers.retain(|x| *x != r);
            }
            AndroidOp::Execute { task } => {
                let Some(r) = self.operand_obj(tid, task) else {
                    return;
                };
                let class = self.heap.class_of(r);
                if let Some(pre) = callback_method(self.program, class, CallbackKind::OnPreExecute)
                {
                    // The body starts only after onPreExecute completes.
                    self.enqueue_post_from(tid, r, pre);
                    self.async_runs.push(AsyncRun {
                        obj: r,
                        phase: TaskPhase::Pre,
                    });
                } else if let Some(body) =
                    callback_method(self.program, class, CallbackKind::DoInBackground)
                {
                    self.spawn_thread(tid, body, Value::Obj(r));
                    self.async_runs.push(AsyncRun {
                        obj: r,
                        phase: TaskPhase::Body,
                    });
                } else {
                    self.async_runs.push(AsyncRun {
                        obj: r,
                        phase: TaskPhase::Post,
                    });
                }
            }
            AndroidOp::PublishProgress => {
                let this = self.frame(tid).get(Local::THIS);
                if let Some(r) = this.as_ref() {
                    if let Some(m) = callback_method(
                        self.program,
                        self.heap.class_of(r),
                        CallbackKind::OnProgressUpdate,
                    ) {
                        self.enqueue_post_from(tid, r, m);
                    }
                }
            }
            AndroidOp::Start { thread } => {
                let Some(r) = self.operand_obj(tid, thread) else {
                    return;
                };
                if let Some(m) =
                    callback_method(self.program, self.heap.class_of(r), CallbackKind::ThreadRun)
                {
                    self.spawn_thread(tid, m, Value::Obj(r));
                }
            }
            AndroidOp::Finish => {
                // Finish the governing activity of the current frame.
                let this = self.frame(tid).get(Local::THIS);
                if let Some(r) = this.as_ref() {
                    let outer = self.program.outermost_class(self.heap.class_of(r));
                    if self.program.class(outer).role() == ClassRole::Activity {
                        insert_class(&mut self.finished, outer);
                    }
                }
            }
            AndroidOp::RemoveCallbacksAndMessages { handler } => {
                let Some(r) = self.operand_obj(tid, handler) else {
                    return;
                };
                for q in &mut self.posts {
                    q.retain(|p| p.target != r);
                }
            }
            AndroidOp::AcquireWakeLock { lock } => {
                let Some(r) = self.operand_obj(tid, lock) else {
                    return;
                };
                *self.wakelocks.entry(r).or_insert(0) += 1;
            }
            AndroidOp::ReleaseWakeLock { lock } => {
                let Some(r) = self.operand_obj(tid, lock) else {
                    return;
                };
                if let Some(n) = self.wakelocks.get_mut(&r) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        self.wakelocks.remove(&r);
                    }
                }
            }
            AndroidOp::ShowDialog { dialog } => {
                let Some(r) = self.operand_obj(tid, dialog) else {
                    return;
                };
                if !self.shown.contains(&r) {
                    self.shown.push(r);
                }
            }
            AndroidOp::DismissDialog { dialog } => {
                let Some(r) = self.operand_obj(tid, dialog) else {
                    return;
                };
                self.shown.retain(|x| *x != r);
            }
            AndroidOp::ScheduleAlarm { target } => {
                let Some(r) = self.operand_obj(tid, target) else {
                    return;
                };
                if !self.alarms.contains(&r) {
                    self.alarms.push(r);
                }
            }
            AndroidOp::CancelAlarm { target } => {
                let Some(r) = self.operand_obj(tid, target) else {
                    return;
                };
                self.alarms.retain(|x| *x != r);
            }
            AndroidOp::StartActivity { activity } => {
                let Some(r) = self.operand_obj(tid, activity) else {
                    return;
                };
                let class = self.heap.class_of(r);
                if self.layout.launch_gated.contains(&class) {
                    insert_class(&mut self.launched, class);
                }
            }
            AndroidOp::RegisterListener { listener, .. } => {
                let Some(r) = self.operand_obj(tid, listener) else {
                    return;
                };
                let class = self.heap.class_of(r);
                for &m in self.program.class(class).methods() {
                    if let Some(k) = self.program.method(m).callback() {
                        if k.is_ui() || k.is_system() {
                            self.listeners.push((r, m));
                        }
                    }
                }
            }
        }
        if self.npe.is_none() {
            self.frame_mut(tid).pc += 1;
        }
    }
}
