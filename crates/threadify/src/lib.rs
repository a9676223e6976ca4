//! Threadification: modeling Android event callbacks as threads (§4).
//!
//! nAdroid's key insight is that single-threaded ordering violations
//! between unordered event callbacks become ordinary multi-threaded
//! ordering violations once every callback is modeled as a thread:
//!
//! - **Entry Callbacks** (lifecycle, UI, system) are modeled as children
//!   of a *dummy main* thread, because the Android runtime invokes them;
//! - **Posted Callbacks** (Handler posts/messages, service-connection and
//!   receiver callbacks, AsyncTask callbacks) are modeled as children of
//!   the callback or thread that posted/registered them, preserving the
//!   poster/postee causal order;
//! - native threads and `doInBackground` bodies stay genuine threads.
//!
//! [`ThreadModel::build`] performs the transformation; the resulting
//! forest carries the lineage (§7's callback/thread sequences), the
//! per-thread Android intrinsic sites (consumed by the happens-before
//! filters), and the EC/PC/T counts of Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod model;
pub mod resolve;

pub use build::{callback_method, own_methods, ThreadModel};
pub use model::{ModeledThread, SpawnVia, ThreadId, ThreadKind};

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_android::{CallbackClass, CallbackKind};
    use nadroid_ir::parse_program;

    fn model(src: &str) -> (nadroid_ir::Program, ThreadModel) {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        let m = ThreadModel::build(&p);
        (p, m)
    }

    #[test]
    fn figure3_shape() {
        // The running example of Figure 3: lifecycle + UI ECs, handler
        // posts, service binding, receiver registration, and an AsyncTask.
        let (_p, m) = model(
            r#"
            app Fig3
            activity Main {
                field h: H
                cb onCreate { bind Conn }
                cb onStart { }
                cb onResume { register Recv }
                cb onClick { send H  post R }
                cb onLocationChanged { execute Task }
            }
            handler H in Main { cb handleMessage { } }
            runnable R in Main { cb run { } }
            connection Conn in Main {
                cb onServiceConnected { }
                cb onServiceDisconnected { }
            }
            receiver Recv { cb onReceive { } }
            asynctask Task in Main {
                cb onPreExecute { }
                cb doInBackground { publish }
                cb onProgressUpdate { }
                cb onPostExecute { }
            }
            "#,
        );
        // dummy(1) + 5 ECs + handleMessage/run/conn×2/onReceive (5 PCs)
        // + task body + 3 task callbacks = 15
        assert_eq!(m.len(), 15);

        // ECs are children of the dummy main.
        for (_, t) in m.threads() {
            if t.via() == SpawnVia::Component {
                assert_eq!(t.parent(), Some(ThreadId::DUMMY_MAIN));
            }
        }
        // Posted callbacks are children of their poster.
        let (send_id, send) = m
            .threads()
            .find(|(_, t)| t.via() == SpawnVia::Send)
            .expect("handleMessage thread");
        let poster = m.thread(send.parent().unwrap());
        assert_eq!(poster.kind().callback_kind(), Some(CallbackKind::OnClick));
        assert!(m.is_ancestor(ThreadId::DUMMY_MAIN, send_id));

        // AsyncTask: looper-side callbacks hang off the task body.
        let (body_id, _) = m
            .threads()
            .find(|(_, t)| t.kind() == ThreadKind::TaskBody)
            .expect("task body");
        let task_cbs: Vec<_> = m
            .threads()
            .filter(|(_, t)| t.via() == SpawnVia::TaskCallback)
            .collect();
        assert_eq!(task_cbs.len(), 3);
        for (_, t) in task_cbs {
            assert_eq!(t.parent(), Some(body_id));
        }
        // Counts: 5 ECs; PCs = handleMessage, run, conn*2, onReceive, 3 task cbs = 8.
        assert_eq!(m.entry_callback_count(), 5);
        assert_eq!(m.posted_callback_count(), 8);
        // Threads: dummy main + task body.
        assert_eq!(m.thread_count(), 2);
    }

    /// Every family, read from its table row: an enabler site spawns the
    /// gated kinds its target class declares, in `gated_kinds()` order,
    /// as children of the enabling callback; disabler and launch sites
    /// spawn nothing.
    #[test]
    fn enabler_sites_arm_their_family_gated_kinds() {
        use crate::resolve::SiteAction;
        use nadroid_android::PredicateFamily;
        for &family in PredicateFamily::all() {
            let (target, enable, disable) = match family {
                PredicateFamily::Connection => ("connection T in Main", "bind", "unbind"),
                PredicateFamily::Receiver => ("receiver T", "register", "unregister"),
                PredicateFamily::Dialog => ("dialog T in Main", "show", "dismiss"),
                PredicateFamily::Alarm => ("receiver T", "schedule", "cancelalarm"),
                PredicateFamily::Task => ("activity T", "startactivity", ""),
            };
            // Declared in reverse, so the spawn order can only come from
            // the table.
            let cbs: String = family
                .gated_kinds()
                .iter()
                .rev()
                .map(|k| format!("cb {k} {{ }}\n"))
                .collect();
            let stop = if disable.is_empty() {
                String::new()
            } else {
                format!("cb onStop {{ {disable} T }}")
            };
            let (_p, m) = model(&format!(
                "app P\nactivity Main {{ cb onCreate {{ {enable} T }}\n{stop} }}\n{target} {{\n{cbs}}}"
            ));
            let mut enablers = 0;
            for (t, _) in m.threads() {
                for site in m.sites_of(t) {
                    let children: Vec<CallbackKind> = m
                        .threads()
                        .filter(|(_, c)| c.origin_site() == Some(site.instr))
                        .map(|(_, c)| {
                            assert_eq!(c.parent(), Some(t), "{family}");
                            assert_eq!(c.via(), SpawnVia::Enable(family), "{family}");
                            c.kind().callback_kind().expect("a callback")
                        })
                        .collect();
                    let expected: &[CallbackKind] = match site.action {
                        SiteAction::Enable(f, _) => {
                            assert_eq!(f, family);
                            enablers += 1;
                            if f == PredicateFamily::Task {
                                &[]
                            } else {
                                f.gated_kinds()
                            }
                        }
                        SiteAction::Disable(f, _) => {
                            assert_eq!(f, family);
                            &[]
                        }
                        other => panic!("{family}: unexpected site {other:?}"),
                    };
                    assert_eq!(children, expected, "{family}: {:?}", site.action);
                }
            }
            assert_eq!(enablers, 1, "{family}");
        }
    }

    #[test]
    fn fragment_lifecycle_callbacks_are_component_armed() {
        let (_p, m) = model(
            r#"
            app F
            activity Host { cb onCreate { } }
            fragment Frag in Host {
                cb onAttach { }
                cb onCreateView { }
                cb onDestroyView { }
                cb onDetach { }
            }
            "#,
        );
        let frag_cbs: Vec<_> = m
            .threads()
            .filter(|(_, t)| {
                t.kind()
                    .callback_kind()
                    .is_some_and(CallbackKind::is_fragment_lifecycle)
            })
            .collect();
        assert_eq!(frag_cbs.len(), 4);
        for (_, t) in frag_cbs {
            assert_eq!(t.via(), SpawnVia::Component);
            assert_eq!(t.parent(), Some(ThreadId::DUMMY_MAIN));
        }
    }

    #[test]
    fn listener_registrations_are_entry_children_of_main() {
        let (_p, m) = model(
            r#"
            app L
            activity Main {
                cb onCreate { listen setOnClickListener ClickL }
            }
            listener ClickL in Main { cb onClick { } }
            "#,
        );
        let (_, t) = m
            .threads()
            .find(|(_, t)| t.via() == SpawnVia::Listener)
            .expect("listener");
        assert_eq!(t.parent(), Some(ThreadId::DUMMY_MAIN));
        assert_eq!(t.kind().callback_class(), Some(CallbackClass::Entry));
    }

    #[test]
    fn native_threads_and_reachability() {
        let (p, m) = model(
            r#"
            app N
            activity Main {
                cb onClick { call helper }
                fn helper { spawn W }
            }
            thread W in Main { cb run { } }
            "#,
        );
        let (wid, w) = m
            .threads()
            .find(|(_, t)| t.kind() == ThreadKind::Native)
            .expect("native");
        // Spawn inside a plain helper is attributed to the calling callback.
        let parent = m.thread(w.parent().unwrap());
        assert_eq!(parent.kind().callback_kind(), Some(CallbackKind::OnClick));
        assert!(!m.thread(wid).kind().on_looper());
        // helper belongs to the onClick thread's methods.
        let main = p.class_by_name("Main").unwrap();
        let helper = p.method_by_name(main, "helper").unwrap();
        assert_eq!(m.threads_of_method(helper).len(), 1);
    }

    #[test]
    fn self_posting_runnable_is_cycle_cut() {
        let (_p, m) = model(
            r#"
            app C
            activity Main { cb onCreate { post R } }
            runnable R in Main { cb run { post R } }
            "#,
        );
        // dummy, onCreate, one run thread — re-post of the same root is cut.
        assert_eq!(m.len(), 3);
    }

    /// A spawn is one thread per (root, parent, origin site): two posts of
    /// one runnable are two threads, and one registration site reached
    /// from two callbacks is one listener thread.
    #[test]
    fn spawns_dedup_by_root_parent_and_site() {
        let (_p, m) = model(
            r#"
            app D
            activity Main {
                cb onClick { post R  post R }
                cb onCreate { call reg }
                cb onResume { call reg }
                fn reg { listen setOnClickListener L }
            }
            runnable R in Main { cb run { } }
            listener L in Main { cb onClick { } }
            "#,
        );
        let count = |via| m.threads().filter(|(_, t)| t.via() == via).count();
        assert_eq!(count(SpawnVia::Post), 2);
        assert_eq!(count(SpawnVia::Listener), 1);
    }

    #[test]
    fn manifest_receiver_is_armed() {
        let (_p, m) = model(
            r#"
            app M
            activity Main { }
            receiver R { cb onReceive { } }
            manifest { main Main receiver R }
            "#,
        );
        let (_, t) = m
            .threads()
            .find(|(_, t)| t.via() == SpawnVia::Manifest)
            .expect("receiver");
        assert_eq!(t.kind().callback_kind(), Some(CallbackKind::OnReceive));
    }

    #[test]
    fn components_resolve_through_outer_chain() {
        let (p, m) = model(
            r#"
            app O
            activity Main {
                cb onClick { post R }
            }
            runnable R in Main { cb run { } }
            "#,
        );
        let main = p.class_by_name("Main").unwrap();
        for (_, t) in m.threads() {
            if t.root().is_some() {
                assert_eq!(t.component(), Some(main), "{t:?}");
            }
        }
    }

    #[test]
    fn atomicity_pairs() {
        let (_p, m) = model(
            r#"
            app A
            activity Main {
                cb onClick { }
                cb onPause { spawn W }
            }
            thread W in Main { cb run { } }
            "#,
        );
        let click = m
            .threads()
            .find(|(_, t)| t.kind().callback_kind() == Some(CallbackKind::OnClick))
            .unwrap()
            .0;
        let pause = m
            .threads()
            .find(|(_, t)| t.kind().callback_kind() == Some(CallbackKind::OnPause))
            .unwrap()
            .0;
        let w = m
            .threads()
            .find(|(_, t)| t.kind() == ThreadKind::Native)
            .unwrap()
            .0;
        assert!(m.atomic_pair(click, pause));
        assert!(!m.atomic_pair(click, w));
    }

    #[test]
    fn custom_loopers_break_cross_looper_atomicity() {
        let (p, m) = model(
            r#"
            app Loopers
            activity Main {
                cb onClick { send H }
                cb onPause { }
            }
            looperthread Worker { }
            handler H in Main on Worker {
                cb handleMessage { }
            }
            "#,
        );
        let worker = p.class_by_name("Worker").unwrap();
        let click = m
            .threads()
            .find(|(_, t)| t.kind().callback_kind() == Some(CallbackKind::OnClick))
            .unwrap()
            .0;
        let pause = m
            .threads()
            .find(|(_, t)| t.kind().callback_kind() == Some(CallbackKind::OnPause))
            .unwrap()
            .0;
        let (hm_id, hm) = m
            .threads()
            .find(|(_, t)| t.kind().callback_kind() == Some(CallbackKind::HandleMessage))
            .unwrap();
        assert_eq!(hm.looper(), Some(worker));
        assert!(m.atomic_pair(click, pause), "both on the main looper");
        assert!(!m.atomic_pair(click, hm_id), "different loopers interleave");
    }

    #[test]
    fn dot_export_has_nodes_and_edges() {
        let (p, m) = model(
            r#"
            app D
            activity Main { cb onClick { post R  spawn W } }
            runnable R in Main { cb run { } }
            thread W in Main { cb run { } }
            "#,
        );
        let dot = m.to_dot(&p);
        assert!(dot.starts_with("digraph threadification {"));
        assert!(dot.contains("doubleoctagon"), "dummy main node: {dot}");
        assert!(dot.contains("Main.onClick"), "{dot}");
        assert!(dot.contains("label=\"Post\""), "post edge: {dot}");
        assert!(dot.contains("label=\"Spawn\""), "spawn edge: {dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn lineage_strings_read_top_down() {
        let (p, m) = model(
            r#"
            app L
            activity Main { cb onClick { post R } }
            runnable R in Main { cb run { } }
            "#,
        );
        let run = m
            .threads()
            .find(|(_, t)| t.via() == SpawnVia::Post)
            .unwrap()
            .0;
        assert_eq!(m.lineage_string(&p, run), "main > Main.onClick > R.run");
    }
}
