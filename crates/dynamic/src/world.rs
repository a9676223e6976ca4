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
use nadroid_android::lifecycle::Lifecycle;
use nadroid_android::{CallbackKind, ClassRole};
use nadroid_ir::{AndroidOp, Callee, ClassId, Cond, InstrId, Local, MethodId, Op, Program};
use nadroid_threadify::callback_method;
use std::collections::{HashMap, VecDeque};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Bound, never connected yet.
    Bound,
    /// Currently connected.
    Connected,
    /// Disconnected (may reconnect while still bound).
    Disconnected,
}

/// The whole execution state. `World` is cloneable so the explorer can
/// branch.
#[derive(Clone)]
pub struct World<'p> {
    program: &'p Program,
    cache: Rc<std::cell::RefCell<CodeCache>>,
    /// The heap.
    pub heap: Heap,
    /// Component singletons.
    pub singletons: HashMap<ClassId, HeapRef>,
    /// Tasks; index 0 is the main looper; `LooperThread` classes get
    /// their own looper tasks at startup.
    pub tasks: Vec<Task>,
    /// FIFO post queue per looper task (keyed by the task index).
    pub posts: HashMap<u32, VecDeque<PendingPost>>,
    /// Looper task of each `LooperThread` class.
    pub looper_tasks: HashMap<ClassId, TaskId>,
    /// Activity lifecycles.
    pub lifecycles: HashMap<ClassId, Lifecycle>,
    /// Finished activities (no further UI/lifecycle).
    pub finished: Vec<ClassId>,
    /// Bound service connections.
    pub connections: Vec<(HeapRef, ConnState)>,
    /// Lifecycle state of each service component.
    pub services: HashMap<ClassId, ServiceState>,
    /// Registered broadcast receivers.
    pub receivers: Vec<HeapRef>,
    /// Currently shown dialogs (`Dialog.show()` adds, `dismiss()` removes).
    pub shown: Vec<HeapRef>,
    /// Armed alarm targets (`AlarmManager.set` adds, `cancel` removes).
    pub alarms: Vec<HeapRef>,
    /// Activities that are only reachable through an explicit
    /// `startActivity` launch (statically targeted by a launch site
    /// somewhere in the program): their lifecycles stay dormant until a
    /// launch actually executes.
    pub launch_gated: Vec<ClassId>,
    /// Launch-gated activities that have been started at runtime.
    pub launched: Vec<ClassId>,
    /// Imperatively armed listeners: (object, callback).
    pub listeners: Vec<(HeapRef, MethodId)>,
    /// Executed AsyncTask instances.
    pub async_runs: Vec<AsyncRun>,
    /// Held monitors: lock object -> (task, depth).
    pub monitors: HashMap<HeapRef, (TaskId, u32)>,
    /// Held wake locks: lock object -> acquire depth (no-sleep client).
    pub wakelocks: HashMap<HeapRef, u32>,
    /// First NPE observed, if any.
    pub npe: Option<Npe>,
    /// Total micro-steps taken.
    pub steps: usize,
    /// Events dispatched.
    pub events: usize,
    /// Human-readable schedule trace.
    pub trace: Vec<String>,
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

impl<'p> World<'p> {
    /// A fresh world: singletons for every component class, activities in
    /// their initial lifecycle state, manifest receivers registered.
    #[must_use]
    pub fn new(program: &'p Program) -> World<'p> {
        let mut heap = Heap::new();
        let mut singletons = HashMap::new();
        let mut lifecycles = HashMap::new();
        let reachable = program.reachable_components();
        for (cid, class) in program.classes() {
            if class.role().is_component() {
                let r = heap.alloc(cid);
                singletons.insert(cid, r);
                // Only activities an intent can reach are ever started —
                // unreachable components keep a singleton (for static
                // accesses) but receive no events.
                if class.role() == ClassRole::Activity && reachable[cid.index()] {
                    lifecycles.insert(cid, Lifecycle::new());
                }
            } else if class.role() == ClassRole::Fragment && class.outer().is_some() {
                // Fragments are framework-instantiated alongside their
                // host activity and follow their own lifecycle automaton.
                let host = program.outermost_class(cid);
                if program.class(host).role() == ClassRole::Activity && reachable[host.index()] {
                    let r = heap.alloc(cid);
                    singletons.insert(cid, r);
                    lifecycles.insert(cid, Lifecycle::new());
                }
            }
        }
        let services: HashMap<ClassId, ServiceState> = program
            .classes()
            .filter(|(_, c)| c.role() == ClassRole::Service)
            .map(|(cid, _)| (cid, ServiceState::Fresh))
            .collect();
        let receivers = program
            .manifest()
            .declared_receivers()
            .iter()
            .filter_map(|c| singletons.get(c).copied())
            .collect();
        // Activities statically targeted by a launch site wait for the
        // launch; all other activities behave as before (started by an
        // external intent at any time). The main activity is never gated.
        let mut launch_gated: Vec<ClassId> = Vec::new();
        for m in program.method_ids() {
            for site in nadroid_threadify::resolve::scan_method(program, m).sites {
                if let nadroid_threadify::resolve::SiteAction::Launch(c) = site.action {
                    if program.class(c).role() == ClassRole::Activity
                        && program.manifest().main_activity() != Some(c)
                        && !launch_gated.contains(&c)
                    {
                        launch_gated.push(c);
                    }
                }
            }
        }
        let mut tasks = vec![Task {
            frames: Vec::new(),
            done: false,
            is_looper: true,
        }];
        let mut posts = HashMap::new();
        posts.insert(0u32, VecDeque::new());
        let mut looper_tasks = HashMap::new();
        for (cid, class) in program.classes() {
            if class.role() == ClassRole::LooperThread {
                let id = TaskId(tasks.len() as u32);
                tasks.push(Task {
                    frames: Vec::new(),
                    done: false,
                    is_looper: true,
                });
                posts.insert(id.0, VecDeque::new());
                looper_tasks.insert(cid, id);
            }
        }
        World {
            program,
            cache: Rc::new(std::cell::RefCell::new(CodeCache::new())),
            heap,
            singletons,
            tasks,
            posts,
            looper_tasks,
            lifecycles,
            finished: Vec::new(),
            connections: Vec::new(),
            services,
            receivers,
            shown: Vec::new(),
            alarms: Vec::new(),
            launch_gated,
            launched: Vec::new(),
            listeners: Vec::new(),
            async_runs: Vec::new(),
            monitors: HashMap::new(),
            wakelocks: HashMap::new(),
            npe: None,
            steps: 0,
            events: 0,
            trace: Vec::new(),
            schedule: Vec::new(),
            events_log: Vec::new(),
            record_events: false,
            next_post_seq: 0,
            max_loop_iters: 1,
        }
    }

    /// The program under execution.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Whether execution is over: NPE observed, or nothing can ever run.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.npe.is_some()
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
        let any_resumed = self.lifecycles.values().any(|lc| {
            matches!(
                lc.state(),
                nadroid_android::lifecycle::LifecycleState::Resumed
            )
        });
        let any_running = self.tasks.iter().any(|t| !t.frames.is_empty() && !t.done);
        let any_pending = self.posts.values().any(|q| !q.is_empty());
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
            .and_then(|l| self.looper_tasks.get(&l).copied())
            .unwrap_or(TaskId::LOOPER)
    }

    // --- step enumeration ---------------------------------------------------

    /// All steps currently enabled.
    #[must_use]
    pub fn enabled_steps(&self) -> Vec<Step> {
        let mut out = Vec::new();
        if self.npe.is_some() {
            return out;
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.frames.is_empty() || t.done {
                continue;
            }
            let tid = TaskId(i as u32);
            if self.blocked_on_monitor(tid) {
                continue;
            }
            if self.at_choice(tid) {
                if self.choice_false_allowed(tid) {
                    out.push(Step::Advance {
                        task: tid,
                        choice: false,
                    });
                }
                out.push(Step::Advance {
                    task: tid,
                    choice: true,
                });
            } else {
                out.push(Step::Advance {
                    task: tid,
                    choice: false,
                });
            }
        }
        if self.looper_idle() {
            for e in self.enabled_events() {
                out.push(Step::Dispatch(e));
            }
        }
        // Custom loopers drain their own queues when idle.
        for (&task_idx, queue) in &self.posts {
            if task_idx == 0 {
                continue; // folded into enabled_events (main-looper gating)
            }
            let t = &self.tasks[task_idx as usize];
            if t.frames.is_empty() && !queue.is_empty() {
                out.push(Step::Dispatch(Event::DequeuePost {
                    looper: TaskId(task_idx),
                }));
            }
        }
        out
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
        f.loop_budget.get(&f.pc).copied().unwrap_or(0) < self.max_loop_iters
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
        // Lifecycle transitions of unfinished activities (and fragments,
        // whose events stop with their finished host).
        for (&act, lc) in &self.lifecycles {
            if self.finished.contains(&act)
                || self.finished.contains(&self.program.outermost_class(act))
                || self.launch_dormant(act)
            {
                continue;
            }
            for kind in lc.legal_events() {
                if callback_method(self.program, act, kind).is_some() || kind_needed(lc, kind) {
                    out.push(Event::Lifecycle {
                        activity: act,
                        kind,
                    });
                }
            }
        }
        // UI/system callbacks declared on resumed activities/fragments.
        for (&act, lc) in &self.lifecycles {
            if self.finished.contains(&act)
                || self.finished.contains(&self.program.outermost_class(act))
                || self.launch_dormant(act)
                || !matches!(
                    lc.state(),
                    nadroid_android::lifecycle::LifecycleState::Resumed
                )
            {
                continue;
            }
            let Some(&target) = self.singletons.get(&act) else {
                continue;
            };
            for &m in self.program.class(act).methods() {
                if let Some(k) = self.program.method(m).callback() {
                    if k.is_ui() || k.is_system() {
                        out.push(Event::Entry { target, method: m });
                    }
                }
            }
        }
        // Service lifecycle and entry callbacks: the framework creates a
        // service on demand, delivers commands/binds while it lives, and
        // destroys it once (the MHB-Lifecycle order for services).
        for (&svc, &state) in &self.services {
            let Some(&target) = self.singletons.get(&svc) else {
                continue;
            };
            match state {
                ServiceState::Fresh => {
                    out.push(Event::Lifecycle {
                        activity: svc,
                        kind: CallbackKind::OnCreate,
                    });
                }
                ServiceState::Created => {
                    for &m in self.program.class(svc).methods() {
                        if let Some(k) = self.program.method(m).callback() {
                            if k.is_system() {
                                out.push(Event::Entry { target, method: m });
                            }
                        }
                    }
                    out.push(Event::Lifecycle {
                        activity: svc,
                        kind: CallbackKind::OnDestroy,
                    });
                }
                ServiceState::Destroyed => {}
            }
        }
        // Imperatively armed listeners (gated on their governing activity
        // still accepting UI events, when resolvable).
        for &(target, method) in &self.listeners {
            if self.listener_enabled(target) {
                out.push(Event::Entry { target, method });
            }
        }
        // Posted work on the main looper.
        if self.posts.get(&0).is_some_and(|q| !q.is_empty()) {
            out.push(Event::DequeuePost {
                looper: TaskId::LOOPER,
            });
        }
        // Service connections.
        for &(conn, state) in &self.connections {
            match state {
                ConnState::Bound => {
                    if self
                        .conn_method(conn, CallbackKind::OnServiceConnected)
                        .is_some()
                    {
                        out.push(Event::ServiceConnect { conn });
                    }
                }
                ConnState::Connected => {
                    if self
                        .conn_method(conn, CallbackKind::OnServiceDisconnected)
                        .is_some()
                    {
                        out.push(Event::ServiceDisconnect { conn });
                    }
                }
                // A crashed service connection stays disconnected: the
                // paper's sound MHB-Service order (connected strictly
                // before disconnected) relies on no reconnection.
                ConnState::Disconnected => {}
            }
        }
        // Broadcasts.
        for &r in &self.receivers {
            if callback_method(self.program, self.heap.class_of(r), CallbackKind::OnReceive)
                .is_some()
            {
                out.push(Event::Broadcast { receiver: r });
            }
        }
        // Shown dialogs deliver onShow while shown; dismissal silences
        // them (onDismiss delivery is modeled statically only).
        for &d in &self.shown {
            if let Some(m) = callback_method(self.program, self.heap.class_of(d), CallbackKind::OnShow)
            {
                out.push(Event::Entry { target: d, method: m });
            }
        }
        // Armed alarm targets deliver onAlarm until cancelled.
        for &a in &self.alarms {
            if let Some(m) =
                callback_method(self.program, self.heap.class_of(a), CallbackKind::OnAlarm)
            {
                out.push(Event::Entry { target: a, method: m });
            }
        }
        // Finished AsyncTasks' onPostExecute.
        for (i, run) in self.async_runs.iter().enumerate() {
            if run.phase == TaskPhase::Post {
                out.push(Event::TaskPost { run: i });
            }
        }
        out
    }

    /// Whether an activity's (or hosted fragment's) lifecycle is dormant
    /// pending an explicit `startActivity` launch.
    fn launch_dormant(&self, act: ClassId) -> bool {
        let host = self.program.outermost_class(act);
        self.launch_gated.contains(&host) && !self.launched.contains(&host)
    }

    fn listener_enabled(&self, target: HeapRef) -> bool {
        // A listener armed by an activity stops firing once that activity
        // is finished; approximate the governing activity by the outer
        // chain of the listener's class.
        let outer = self.program.outermost_class(self.heap.class_of(target));
        if self.program.class(outer).role() == ClassRole::Activity {
            !self.finished.contains(&outer)
                && self
                    .lifecycles
                    .get(&outer)
                    .is_some_and(nadroid_android::lifecycle::Lifecycle::accepts_ui_events)
        } else {
            true
        }
    }

    fn conn_method(&self, conn: HeapRef, kind: CallbackKind) -> Option<MethodId> {
        callback_method(self.program, self.heap.class_of(conn), kind)
    }

    // --- step application -----------------------------------------------------

    /// Apply one step. Returns `false` when the step was not applicable
    /// (stale after cloning).
    pub fn step(&mut self, step: &Step) -> bool {
        if self.npe.is_some() {
            return false;
        }
        self.steps += 1;
        self.schedule.push(step.clone());
        match step {
            Step::Advance { task, choice } => {
                // Same validation as for dispatches below: a minimized
                // schedule may have dropped the step that created this
                // task, making the advance stale rather than a crash.
                if self.tasks.get(task.0 as usize).is_none() {
                    self.steps -= 1;
                    self.schedule.pop();
                    return false;
                }
                self.advance(*task, *choice)
            }
            Step::Dispatch(e) => {
                // Validate against the framework rules, so replayed or
                // minimized schedules cannot smuggle in illegal events
                // (e.g. a disconnect before any connect).
                if !self.dispatchable(e) {
                    self.steps -= 1;
                    self.schedule.pop();
                    return false;
                }
                self.events += 1;
                self.trace.push(format!("dispatch {e}"));
                self.dispatch(e.clone())
            }
        }
    }

    /// Whether an event may legally be dispatched right now — the same
    /// conditions [`World::enabled_steps`] enumerates under.
    fn dispatchable(&self, e: &Event) -> bool {
        if let Event::DequeuePost { looper } = e {
            if looper.0 != 0 {
                let Some(t) = self.tasks.get(looper.0 as usize) else {
                    return false;
                };
                return t.is_looper
                    && t.frames.is_empty()
                    && self.posts.get(&looper.0).is_some_and(|q| !q.is_empty());
            }
        }
        self.looper_idle() && self.enabled_events().contains(e)
    }

    fn dispatch(&mut self, e: Event) -> bool {
        match e {
            Event::Lifecycle { activity, kind } => {
                // Service lifecycle: Fresh -> Created -> Destroyed.
                if let Some(state) = self.services.get_mut(&activity) {
                    let ok = match (*state, kind) {
                        (ServiceState::Fresh, CallbackKind::OnCreate) => {
                            *state = ServiceState::Created;
                            true
                        }
                        (ServiceState::Created, CallbackKind::OnDestroy) => {
                            *state = ServiceState::Destroyed;
                            true
                        }
                        _ => false,
                    };
                    if !ok {
                        return false;
                    }
                    if let Some(m) = callback_method(self.program, activity, kind) {
                        let this = Value::Obj(self.singletons[&activity]);
                        self.push_looper_frame(m, this);
                    }
                    return true;
                }
                let Some(lc) = self.lifecycles.get_mut(&activity) else {
                    return false;
                };
                if lc.fire(kind).is_err() {
                    return false;
                }
                if let Some(m) = callback_method(self.program, activity, kind) {
                    let this = Value::Obj(self.singletons[&activity]);
                    self.push_looper_frame(m, this);
                }
                true
            }
            Event::Entry { target, method } => {
                self.push_looper_frame(method, Value::Obj(target));
                true
            }
            Event::DequeuePost { looper } => {
                let Some(p) = self.posts.get_mut(&looper.0).and_then(VecDeque::pop_front) else {
                    return false;
                };
                if self.record_events {
                    self.events_log.push(TraceEvent::PostDequeue { seq: p.seq });
                }
                self.push_frame_on(looper, p.method, Value::Obj(p.target));
                true
            }
            Event::ServiceConnect { conn } => {
                let Some(slot) = self.connections.iter_mut().find(|(c, _)| *c == conn) else {
                    return false;
                };
                slot.1 = ConnState::Connected;
                if let Some(m) = self.conn_method(conn, CallbackKind::OnServiceConnected) {
                    self.push_looper_frame(m, Value::Obj(conn));
                }
                true
            }
            Event::ServiceDisconnect { conn } => {
                let Some(slot) = self.connections.iter_mut().find(|(c, _)| *c == conn) else {
                    return false;
                };
                slot.1 = ConnState::Disconnected;
                if let Some(m) = self.conn_method(conn, CallbackKind::OnServiceDisconnected) {
                    self.push_looper_frame(m, Value::Obj(conn));
                }
                true
            }
            Event::Broadcast { receiver } => {
                let class = self.heap.class_of(receiver);
                if let Some(m) = callback_method(self.program, class, CallbackKind::OnReceive) {
                    self.push_looper_frame(m, Value::Obj(receiver));
                }
                true
            }
            Event::TaskPost { run } => {
                let Some(r) = self.async_runs.get_mut(run) else {
                    return false;
                };
                if r.phase != TaskPhase::Post {
                    return false;
                }
                r.phase = TaskPhase::Done;
                let obj = r.obj;
                let class = self.heap.class_of(obj);
                if let Some(m) = callback_method(self.program, class, CallbackKind::OnPostExecute) {
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
        self.posts
            .entry(looper.0)
            .or_default()
            .push_back(PendingPost {
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
        let Some(op) = frame.code.ops.get(frame.pc).cloned() else {
            // Method end without explicit return.
            self.pop_frame(tid, None);
            return true;
        };
        match op {
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
                    let head = f.pc;
                    let budget = f.loop_budget.entry(head).or_insert(0);
                    *budget += 1;
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
            FlatOp::Instr(id, op) => {
                self.exec(tid, id, &op);
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
        self.trace.push(format!("NPE at {at} in task {}", tid.0));
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
                let v = self
                    .singletons
                    .get(class)
                    .map_or(Value::Null, |&r| Value::Obj(r));
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
                    if self.program.class(outer).role() == ClassRole::Activity
                        && !self.finished.contains(&outer)
                    {
                        self.finished.push(outer);
                    }
                }
            }
            AndroidOp::RemoveCallbacksAndMessages { handler } => {
                let Some(r) = self.operand_obj(tid, handler) else {
                    return;
                };
                for q in self.posts.values_mut() {
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
                if self.launch_gated.contains(&class) && !self.launched.contains(&class) {
                    self.launched.push(class);
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

/// Lifecycle transitions are worth dispatching even without a callback
/// body (they gate UI events).
fn kind_needed(_lc: &Lifecycle, _kind: CallbackKind) -> bool {
    true
}
