//! Dynamic validation substrate: an Android-semantics interpreter and a
//! bounded schedule explorer (§7 of the paper, automated).
//!
//! The paper validates potential UAF warnings by manually perturbing
//! event and thread schedules on a device until a
//! `NullPointerException` fires. This crate automates exactly that over
//! the IR: [`World`] is a small-step interpreter of the hybrid
//! concurrency model (looper callbacks are atomic; native threads and
//! AsyncTask bodies interleave at instruction granularity; lifecycle
//! events obey the framework automaton; posts are FIFO), and
//! [`explore`] searches schedules for an NPE attributable to a specific
//! (use, free) pair.
//!
//! # Example
//!
//! ```
//! use nadroid_ir::parse_program;
//! use nadroid_dynamic::{find_any_npe, replay};
//!
//! let p = parse_program(
//!     r#"
//!     app Crash
//!     activity Main {
//!         field svc: Main
//!         cb onCreate { bind this }
//!         cb onServiceConnected    { svc = new Main }
//!         cb onServiceDisconnected { svc = null }
//!         cb onCreateContextMenu   { use svc }
//!     }
//!     "#,
//! ).unwrap();
//! let witness = find_any_npe(&p).expect("the ConnectBot UAF is reachable");
//! assert!(!replay(&p, &witness.schedule).trace().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cafa;
mod explore;
mod machine;
mod schedule;
mod world;

pub use explore::{
    explore, explore_guided, explore_no_sleep, find_any_npe, find_npe_at_use, fingerprint,
    minimize_schedule, replay, Exploration, ExploreConfig, Goal, Guide, Witness,
};
pub use machine::{flatten, CodeCache, FlatBody, FlatOp, Frame, Heap, HeapRef, Prov, Value};
pub use schedule::{decode_schedule, encode_schedule};
pub use world::{
    AsyncRun, ConnState, Event, Npe, PendingPost, ServiceState, Step, Task, TaskId, TaskPhase,
    TraceEvent, World,
};

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::{parse_program, Op, Program};

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The first Load of the named field in the named method.
    fn use_site(p: &Program, class: &str, method: &str, field: &str) -> nadroid_ir::InstrId {
        let c = p.class_by_name(class).unwrap();
        let m = p.method_by_name(c, method).unwrap();
        let mut found = None;
        p.method(m).body().for_each_instr(&mut |i| {
            if let Op::Load { field: f, .. } = i.op {
                if found.is_none() && p.field(f).name() == field {
                    found = Some(i.id);
                }
            }
        });
        found.expect("use site")
    }

    #[test]
    fn fig1a_npe_witnessed_at_the_warned_use() {
        let p = parse(
            r#"
            app Fig1a
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
        );
        let use_i = use_site(&p, "Console", "onCreateContextMenu", "bound");
        let w = find_npe_at_use(&p, use_i).expect("witness");
        assert_eq!(w.npe.loaded_from, Some(use_i));
        assert!(
            w.npe.freed_by.is_some(),
            "null written by the disconnect free"
        );
    }

    #[test]
    fn fig1b_posted_use_races_with_disconnect() {
        let p = parse(
            r#"
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
            "#,
        );
        let use_i = use_site(&p, "R", "run", "hostBridge");
        let w = find_npe_at_use(&p, use_i).expect("witness despite the if-guard");
        assert_eq!(w.npe.loaded_from, Some(use_i));
    }

    #[test]
    fn fig1c_thread_free_preempts_guarded_use() {
        let p = parse(
            r#"
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
            "#,
        );
        let use_i = use_site(&p, "Main", "onPause", "jClient");
        let w = find_npe_at_use(&p, use_i).expect("thread frees between the check and the use");
        assert_eq!(w.npe.loaded_from, Some(use_i));
    }

    #[test]
    fn guarded_atomic_pair_has_no_witness() {
        // Figure 4(b): guard + callback atomicity is genuinely safe.
        let p = parse(
            r#"
            app Fig4b
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { if f != null { use f } }
                cb onLongClick { f = null }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn rhb_pattern_is_dynamically_safe() {
        // Figure 4(d): onClick requires the activity resumed, and
        // onResume re-allocates, so the free in onPause cannot reach the
        // use.
        let p = parse(
            r#"
            app Fig4d
            activity M {
                field f: M
                cb onResume { f = new M }
                cb onPause { f = null }
                cb onClick { use f }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn chb_false_negative_shape_is_witnessable() {
        // Table 2 / §8.6: finish() on one path only — CHB prunes, but the
        // path without finish still yields the UAF.
        let p = parse(
            r#"
            app ChbFn
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick {
                    if ? { finish }
                    f = null
                }
                cb onLongClick { use f }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onLongClick", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_some(),
            "UAF feasible on the no-finish path"
        );
    }

    #[test]
    fn finish_stops_ui_events() {
        // Unconditional finish in the freeing callback: the use cannot
        // follow, so no witness.
        let p = parse(
            r#"
            app Chb
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { finish  f = null }
                cb onLongClick { use f }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onLongClick", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn mhb_service_order_is_respected() {
        // Figure 4(a)-like: the use in onServiceConnected always precedes
        // the free in onServiceDisconnected (with an allocation first, so
        // no initial-null NPE muddies the check).
        let p = parse(
            r#"
            app Mhb
            activity M {
                field f: M
                cb onCreate { bind this }
                cb onServiceConnected { f = new M  use f }
                cb onServiceDisconnected { f = null }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onServiceConnected", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn asynctask_protocol_order() {
        let p = parse(
            r#"
            app Task
            activity M {
                cb onClick { execute T }
            }
            asynctask T in M {
                field d: T
                cb onPreExecute { d = new T }
                cb doInBackground { use d  publish }
                cb onProgressUpdate { use d }
                cb onPostExecute { d = null }
            }
            "#,
        );
        // The body's use always follows onPreExecute's allocation and
        // precedes onPostExecute's free.
        let body_use = use_site(&p, "T", "doInBackground", "d");
        assert!(find_npe_at_use(&p, body_use).is_none());
    }

    #[test]
    fn lock_mutual_exclusion_prevents_preemption() {
        let p = parse(
            r#"
            app Locked
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
        let use_i = use_site(&p, "Main", "onPause", "jClient");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "common lock restores atomicity"
        );
    }

    #[test]
    fn posts_are_fifo() {
        let p = parse(
            r#"
            app Fifo
            activity M {
                field f: M
                cb onCreate { post A  post B }
            }
            runnable A in M { cb run { outer.f = new M } }
            runnable B in M { cb run { use outer.f } }
            "#,
        );
        // A (alloc) always dequeues before B (use): no NPE.
        let use_i = use_site(&p, "B", "run", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn unregister_stops_broadcasts() {
        // The receiver frees; after unregistering, no further broadcasts
        // can deliver, so a use that only the receiver's free could break
        // stays safe once the guard window is closed... here we check the
        // mechanism directly: with an immediate unregister, the free
        // never runs, so no pair witness exists.
        let p = parse(
            r#"
            app U
            activity M {
                field f: M
                field r: R
                cb onCreate {
                    f = new M
                    r = new R
                    t2 = load this M.r
                    registerreceiver t2
                    t3 = load this M.r
                    unregisterreceiver t3
                }
                cb onClick { use f }
            }
            receiver R { cb onReceive { M.f = null } }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "onReceive can never fire"
        );
    }

    #[test]
    fn removeposts_drops_pending_work() {
        let p = parse(
            r#"
            app RP
            activity M {
                field f: M
                field h: H
                cb onCreate {
                    f = new M
                    h = new H
                    t2 = load this M.h
                    send t2
                    t3 = load this M.h
                    removeposts t3
                }
                cb onClick { use f }
            }
            handler H in M { cb handleMessage { outer.f = null } }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "the pending free was removed"
        );
    }

    #[test]
    fn dismissed_dialog_cannot_fire_onshow_after_destroy() {
        // onStop must execute before onDestroy (automaton dominator), and
        // the unconditional dismiss there silences onShow before the free
        // can run — the shape the predicate refutation filter certifies.
        let p = parse(
            r#"
            app Dlg
            activity M {
                field f: M
                field dlg: D
                cb onCreate { f = new M  dlg = new D  show dlg }
                cb onStop { dismiss dlg }
                cb onDestroy { f = null }
            }
            dialog D in M { cb onShow { use outer.f } }
            "#,
        );
        let use_i = use_site(&p, "D", "onShow", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "dismiss-by-onStop precedes every path to the free"
        );
    }

    #[test]
    fn pause_only_dismiss_leaks_the_dialog() {
        // Control: onPause is NOT on every path to onDestroy (the
        // automaton allows onCreate -> onStart -> onStop -> onDestroy),
        // so a dismiss placed only there leaves a leaked shown dialog.
        let p = parse(
            r#"
            app DlgK
            activity M {
                field f: M
                field dlg: D
                cb onCreate { f = new M  dlg = new D  show dlg }
                cb onPause { dismiss dlg }
                cb onDestroy { f = null }
            }
            dialog D in M { cb onShow { use outer.f } }
            "#,
        );
        let use_i = use_site(&p, "D", "onShow", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_some(),
            "the skip path onStart -> onStop never dismisses"
        );
    }

    #[test]
    fn cancelled_alarm_cannot_fire() {
        let p = parse(
            r#"
            app Alm
            activity M {
                field f: M
                field r: R
                cb onCreate { f = new M  r = new R  t3 = load this M.r  schedule t3 }
                cb onStop { t1 = load this M.r  cancelalarm t1 }
                cb onDestroy { f = null }
            }
            receiver R { cb onAlarm { use M.f } }
            "#,
        );
        let use_i = use_site(&p, "R", "onAlarm", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "cancel-by-onStop precedes every path to the free"
        );
    }

    #[test]
    fn launch_gated_activity_waits_for_startactivity() {
        // B's onCreate frees M.f, but B only starts after M.onCreate's
        // launch site — which follows the use. Without the gate the free
        // could preempt the use.
        let p = parse(
            r#"
            app TS
            activity M {
                field f: M
                cb onCreate { f = new M  use f  startactivity B }
            }
            activity B { cb onCreate { M.f = null } }
            "#,
        );
        let use_i = use_site(&p, "M", "onCreate", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_none(),
            "B.onCreate cannot run before the launch"
        );

        // Control: with no launch site (and no manifest restricting
        // reachability), B is not gated and its onCreate may run first
        // (external intent), breaking a later use.
        let p = parse(
            r#"
            app TSK
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
            }
            activity B { cb onCreate { M.f = null } }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(
            find_npe_at_use(&p, use_i).is_some(),
            "an unlaunched, ungated activity still receives lifecycle events"
        );
    }

    #[test]
    fn cross_looper_handler_breaks_guard_atomicity() {
        // The §8.1 multi-looper refinement, dynamically: a handler on a
        // custom looper can free between the main-looper check and use.
        let p = parse(
            r#"
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
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        let w = find_npe_at_use(&p, use_i).expect("cross-looper preemption witnesses the UAF");
        assert!(w.npe.freed_by.is_some());
    }

    #[test]
    fn same_looper_handler_keeps_guard_atomicity() {
        // Control for the test above: the same handler on the *main*
        // looper cannot interleave with the guarded use.
        let p = parse(
            r#"
            app Sl
            activity M {
                field f: M
                cb onCreate { f = new M  send H }
                cb onClick { if f != null { use f } }
            }
            handler H in M {
                cb handleMessage { outer.f = null }
            }
            "#,
        );
        let use_i = use_site(&p, "M", "onClick", "f");
        assert!(find_npe_at_use(&p, use_i).is_none());
    }

    #[test]
    fn listener_fires_only_after_registration() {
        let p = parse(
            r#"
            app L
            activity M {
                field f: M
                cb onCreate { f = new M  listen setOnClickListener CL }
                cb onPause { f = null }
            }
            listener CL in M {
                cb onClick { use outer.f }
            }
            "#,
        );
        // pause frees, then a resume + listener click hits the null.
        let use_i = use_site(&p, "CL", "onClick", "f");
        assert!(find_npe_at_use(&p, use_i).is_some());
    }

    #[test]
    fn no_sleep_witness_found_for_unreleased_wakelock() {
        let p = parse(
            r#"
            app Ns2
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onClick { t1 = load this M.wl  acquire t1 }
            }
            class Wl { }
            "#,
        );
        let w = explore_no_sleep(&p, ExploreConfig::default())
            .expect("backgrounded with the lock held");
        assert!(w.last().is_some_and(|l| l.contains("QUIESCENT")));
    }

    #[test]
    fn balanced_wakelock_has_no_witness() {
        let p = parse(
            r#"
            app NsOk
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onClick {
                    t1 = load this M.wl
                    acquire t1
                    release t1
                }
            }
            class Wl { }
            "#,
        );
        assert!(explore_no_sleep(&p, ExploreConfig::default()).is_none());
    }

    #[test]
    fn minimized_witness_still_reproduces() {
        let p = parse(
            r#"
            app Min
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
        );
        let use_i = use_site(&p, "Console", "onCreateContextMenu", "bound");
        let w = find_npe_at_use(&p, use_i).expect("witness");
        let min = minimize_schedule(&p, &w.schedule, &w.npe);
        assert!(min.len() <= w.schedule.len());
        let world = replay(&p, &min);
        assert_eq!(
            world.npe.as_ref(),
            Some(&w.npe),
            "minimized schedule reproduces"
        );
        // The minimal schedule must keep the essentials: create (to
        // bind), disconnect (to free), and the context-menu use.
        assert!(min.iter().any(|s| matches!(s, Step::Dispatch(_))));
    }

    #[test]
    fn minimization_is_idempotent() {
        // Shrink-idempotence: minimizing an already-minimal schedule
        // changes nothing, and the pass structure (block deletions,
        // single-step fixpoint) converges to the same result when run
        // again. A second app with a posted free exercises schedules
        // whose steps are pairwise dependent (post + dequeue).
        for src in [
            r#"
            app Idem1
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
            r#"
            app Idem2
            activity Main {
                field data: Obj
                cb onCreate { data = new Obj  post Killer }
                cb onClick { use data }
            }
            runnable Killer in Main {
                cb run { outer.data = null }
            }
            class Obj { }
            "#,
        ] {
            let p = parse(src);
            let w = find_any_npe(&p).expect("witness");
            let once = minimize_schedule(&p, &w.schedule, &w.npe);
            let twice = minimize_schedule(&p, &once, &w.npe);
            assert_eq!(once, twice, "minimize(minimize(s)) == minimize(s)");
            assert_eq!(replay(&p, &once).npe.as_ref(), Some(&w.npe));
        }
    }

    #[test]
    fn guided_exploration_matches_plain_exploration_when_unguided() {
        let p = parse(
            r#"
            app G
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
        );
        let cfg = ExploreConfig::default();
        let plain = explore(&p, Goal::AnyNpe, cfg).expect("witness");
        match explore_guided(&p, Goal::AnyNpe, cfg, None) {
            Exploration::Witness(w) => {
                assert_eq!(w.schedule, plain.schedule, "identical search order");
                assert_eq!(w.states_explored, plain.states_explored);
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_search_reports_completeness() {
        // An app with no free at all: the explorer drains the entire
        // bounded state space and proves it (complete = true).
        let p = parse(
            r#"
            app NoBug
            activity Main {
                field data: Obj
                cb onCreate { data = new Obj }
                cb onClick { use data }
            }
            class Obj { }
            "#,
        );
        match explore_guided(&p, Goal::AnyNpe, ExploreConfig::default(), None) {
            Exploration::Exhausted { states, complete } => {
                assert!(complete, "small state space fully enumerated");
                assert!(states > 0);
            }
            Exploration::Witness(w) => panic!("no NPE exists: {w:?}"),
        }
        // The same search under a starved state budget is inconclusive.
        let starved = ExploreConfig {
            max_states: 2,
            ..ExploreConfig::default()
        };
        match explore_guided(&p, Goal::AnyNpe, starved, None) {
            Exploration::Exhausted { complete, .. } => {
                assert!(!complete, "budget cut must void the proof");
            }
            Exploration::Witness(w) => panic!("no NPE exists: {w:?}"),
        }
    }

    #[test]
    fn witness_schedules_replay_deterministically() {
        let p = parse(
            r#"
            app R
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
        );
        let use_i = use_site(&p, "Console", "onCreateContextMenu", "bound");
        let w = find_npe_at_use(&p, use_i).expect("witness");
        let world = replay(&p, &w.schedule);
        assert_eq!(
            world.npe.as_ref(),
            Some(&w.npe),
            "replay reproduces the same NPE"
        );
    }

    #[test]
    fn lock_order_inversion_deadlocks() {
        // Two threads acquiring two locks in opposite orders; a guided
        // schedule wedges both, and the wait-for cycle is reported.
        let p = parse(
            r#"
            app D
            activity M {
                field a: Obj
                field b: Obj
                cb onCreate { a = new Obj  b = new Obj  spawn W1  spawn W2 }
            }
            thread W1 in M {
                cb run {
                    t1 = load this W1.$outer
                    t2 = load t1 M.a
                    t3 = load t1 M.b
                    sync t2 { sync t3 { } }
                }
            }
            thread W2 in M {
                cb run {
                    t1 = load this W2.$outer
                    t2 = load t1 M.a
                    t3 = load t1 M.b
                    sync t3 { sync t2 { } }
                }
            }
            class Obj { }
            "#,
        );
        let mut w = World::new(&p);
        // Dispatch onCreate and run the looper callback to completion.
        let create = w
            .enabled_steps()
            .into_iter()
            .find(|s| matches!(s, Step::Dispatch(_)))
            .expect("onCreate");
        w.step(&create);
        while !w.tasks[0].frames.is_empty() {
            w.step(&Step::Advance {
                task: TaskId(0),
                choice: false,
            });
        }
        assert_eq!(w.tasks.len(), 3, "both worker threads spawned");
        assert!(!w.deadlocked());
        // Each worker: 3 loads + its first monitor-enter.
        for _ in 0..4 {
            assert!(w.step(&Step::Advance {
                task: TaskId(1),
                choice: false
            }));
        }
        for _ in 0..4 {
            assert!(w.step(&Step::Advance {
                task: TaskId(2),
                choice: false
            }));
        }
        // Both now block on the other's lock: refused steps, wait cycle.
        assert!(!w.step(&Step::Advance {
            task: TaskId(1),
            choice: false
        }));
        assert!(!w.step(&Step::Advance {
            task: TaskId(2),
            choice: false
        }));
        assert!(w.deadlocked(), "wait-for cycle detected");
        // Blocked tasks are not offered as enabled steps.
        assert!(w
            .enabled_steps()
            .iter()
            .all(|s| !matches!(s, Step::Advance { task, .. } if task.0 != 0)));
    }

    #[test]
    fn service_lifecycle_orders_create_and_destroy() {
        // Music's MediaPlayServ shape: use in onStartCommand, free in
        // onDestroy — the service lifecycle orders them, no witness.
        let p = parse(
            r#"
            app Svc
            activity Main { }
            service Player {
                field mPlayer: Player
                cb onCreate { mPlayer = new Player }
                cb onStartCommand { use mPlayer }
                cb onDestroy { mPlayer = null }
            }
            manifest { main Main }
            "#,
        );
        let use_i = use_site(&p, "Player", "onStartCommand", "mPlayer");
        assert!(find_npe_at_use(&p, use_i).is_none(), "destroy is terminal");
    }

    #[test]
    fn service_free_in_oncreate_is_witnessable() {
        let p = parse(
            r#"
            app Svc2
            activity Main { }
            service S {
                field f: S
                cb onCreate { f = null }
                cb onStartCommand { use f }
            }
            manifest { main Main }
            "#,
        );
        let use_i = use_site(&p, "S", "onStartCommand", "f");
        let w = find_npe_at_use(&p, use_i).expect("create frees, command uses");
        assert!(w.npe.freed_by.is_some());
    }

    #[test]
    fn trace_records_dispatches() {
        let p = parse(
            r#"
            app T
            activity M {
                field f: M
                cb onPause { f = null }
                cb onClick { use f }
            }
            "#,
        );
        let w = find_any_npe(&p).expect("unguarded use of never-initialized field");
        let trace = replay(&p, &w.schedule).trace();
        assert!(trace.iter().any(|l| l.contains("dispatch")));
        assert!(trace.last().is_some_and(|l| l.contains("NPE")));
    }
}
