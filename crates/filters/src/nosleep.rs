//! The no-sleep energy-bug client (§9).
//!
//! The paper notes that nAdroid's machinery "can be applied to other
//! concurrency bugs such as no-sleep bugs [Pathak et al.] and energy
//! bugs where racy API calls lead to ordering violations". This module
//! is that client: a wake-lock `acquire` is safe only when a `release`
//! of the same lock is *ordered after* it — later in the same callback,
//! or in a callback the sound must-happens-before relation places
//! strictly after. An acquire with no ordered release can leave the
//! device awake after the app is backgrounded.

use nadroid_hb::HbGraph;
use nadroid_ir::{AndroidOp, InstrId, Local, MethodId, Op, Program};
use nadroid_pointsto::PointsTo;
use nadroid_threadify::{ThreadId, ThreadModel};

/// A wake-lock API site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeSite {
    /// The acquire/release instruction.
    pub instr: InstrId,
    /// Its method.
    pub method: MethodId,
    /// The lock operand.
    pub lock: Local,
    /// Threads executing the site.
    pub threads: Vec<ThreadId>,
}

/// A no-sleep warning: an acquire with no release ordered after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSleepWarning {
    /// The unbalanced acquire.
    pub acquire: WakeSite,
    /// Releases of the same lock that exist but are *unordered* with the
    /// acquire (racy API calls, as §9 phrases it). Empty means no release
    /// exists at all.
    pub unordered_releases: Vec<WakeSite>,
}

/// Detect no-sleep bugs: for every acquire, look for a release of an
/// aliased lock that is ordered after it — syntactically later in the
/// same method (callbacks run to completion), or in a thread a direct
/// sound MHB edge of `hb` places strictly after the acquiring one.
#[must_use]
pub fn detect_no_sleep(
    program: &Program,
    threads: &ThreadModel,
    pts: &PointsTo,
    hb: &HbGraph,
) -> Vec<NoSleepWarning> {
    let (acquires, releases) = collect_sites(program, threads);
    let mut out = Vec::new();
    for a in &acquires {
        let aliased: Vec<&WakeSite> = releases
            .iter()
            .filter(|r| pts.may_alias((a.method, a.lock), (r.method, r.lock)))
            .collect();
        let ordered = aliased.iter().any(|r| {
            // Same method, later in program order: callbacks and thread
            // bodies run to completion, so the release always follows.
            if r.method == a.method && r.instr > a.instr {
                return true;
            }
            // A release in a callback the acquire's callback must precede.
            a.threads
                .iter()
                .any(|&ta| r.threads.iter().any(|&tr| hb.mhb_edge(ta, tr).is_some()))
        });
        if !ordered {
            out.push(NoSleepWarning {
                acquire: a.clone(),
                unordered_releases: aliased.into_iter().cloned().collect(),
            });
        }
    }
    out
}

fn collect_sites(program: &Program, threads: &ThreadModel) -> (Vec<WakeSite>, Vec<WakeSite>) {
    let mut acquires = Vec::new();
    let mut releases = Vec::new();
    for (mid, i) in program.instrs() {
        let (lock, is_acquire) = match i.op {
            Op::Android(AndroidOp::AcquireWakeLock { lock }) => (lock, true),
            Op::Android(AndroidOp::ReleaseWakeLock { lock }) => (lock, false),
            _ => continue,
        };
        let site = WakeSite {
            instr: i.id,
            method: mid,
            lock,
            threads: threads.threads_of_method(mid).to_vec(),
        };
        if is_acquire {
            acquires.push(site);
        } else {
            releases.push(site);
        }
    }
    (acquires, releases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::parse_program;

    fn run(src: &str) -> Vec<NoSleepWarning> {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        let t = ThreadModel::build(&p);
        let pts = PointsTo::run(&p, &t, 2);
        let hb = HbGraph::build(&p, &t);
        detect_no_sleep(&p, &t, &pts, &hb)
    }

    #[test]
    fn balanced_same_callback_is_safe() {
        let w = run(r#"
            app Ns
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
            "#);
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn acquire_without_any_release_is_reported() {
        let w = run(r#"
            app Ns
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onClick { t1 = load this M.wl  acquire t1 }
            }
            class Wl { }
            "#);
        assert_eq!(w.len(), 1);
        assert!(w[0].unordered_releases.is_empty());
    }

    #[test]
    fn unordered_release_is_reported_as_racy() {
        // The classic no-sleep race: acquire in onResume, release in
        // onPause — but the acquire may also run *after* the release
        // (pause then resume), leaving the lock held in background.
        let w = run(r#"
            app Ns
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onResume { t1 = load this M.wl  acquire t1 }
                cb onPause { t1 = load this M.wl  release t1 }
            }
            class Wl { }
            "#);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w[0].unordered_releases.len(),
            1,
            "the racy release is reported"
        );
    }

    #[test]
    fn mhb_ordered_release_is_safe() {
        // Release in onDestroy: every callback must precede it, so the
        // acquire is always balanced before the process ends.
        let w = run(r#"
            app Ns
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onResume { t1 = load this M.wl  acquire t1 }
                cb onDestroy { t1 = load this M.wl  release t1 }
            }
            class Wl { }
            "#);
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn asynctask_protocol_orders_release() {
        // Acquire in onPreExecute, release in onPostExecute: the task
        // protocol orders them soundly.
        let w = run(r#"
            app Ns
            activity M {
                field wl: Wl
                cb onCreate { wl = new Wl }
                cb onClick { execute T }
            }
            asynctask T in M {
                cb onPreExecute {
                    t1 = load this T.$outer
                    t2 = load t1 M.wl
                    acquire t2
                }
                cb doInBackground { }
                cb onPostExecute {
                    t1 = load this T.$outer
                    t2 = load t1 M.wl
                    release t2
                }
            }
            class Wl { }
            "#);
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn different_locks_do_not_balance() {
        let w = run(r#"
            app Ns
            activity M {
                field a: Wl
                field b: Wl
                cb onCreate { a = new Wl  b = new Wl }
                cb onClick {
                    t1 = load this M.a
                    acquire t1
                    t2 = load this M.b
                    release t2
                }
            }
            class Wl { }
            "#);
        assert_eq!(w.len(), 1, "releasing an unrelated lock does not help");
    }
}
