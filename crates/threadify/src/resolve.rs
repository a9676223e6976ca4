//! Syntactic resolution of Android-intrinsic operands.
//!
//! Thread-model construction needs to know which class a posted `Runnable`, bound
//! `ServiceConnection`, executed `AsyncTask`, ... belongs to. nAdroid
//! discovers entry points by scanning the APK before any whole-program
//! analysis runs; equivalently, this module resolves each intrinsic's
//! operand with a simple intra-method reaching-definition walk:
//! allocations, static component loads, moves, and declared field types.

use nadroid_android::listeners::RegistrationApi;
use nadroid_android::PredicateFamily;
use nadroid_ir::{AndroidOp, Block, ClassId, InstrId, Local, MethodId, Op, Program, Stmt};
use std::collections::HashMap;

/// What an Android intrinsic site does, with its operand class resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteAction {
    /// `post(runnable)` of the given Runnable class.
    Post(ClassId),
    /// `sendMessage` to a handler of the given class.
    Send(ClassId),
    /// A summarized family's enabler API (`bindService`) on the given class.
    Enable(PredicateFamily, ClassId),
    /// A summarized family's disabler API (`unbindService`) on the given
    /// class.
    Disable(PredicateFamily, ClassId),
    /// `execute()` of the given AsyncTask class.
    Execute(ClassId),
    /// `start()` of the given Thread class.
    Spawn(ClassId),
    /// A listener registration arming callbacks on the given class.
    Listen(RegistrationApi, ClassId),
    /// `removeCallbacksAndMessages` on a handler of the given class.
    RemovePosts(ClassId),
    /// `Activity.finish()` (no operand; the enclosing component governs).
    Finish,
    /// `publishProgress()` inside `doInBackground`.
    Publish,
}

/// A resolved Android intrinsic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The intrinsic instruction.
    pub instr: InstrId,
    /// The method containing it.
    pub method: MethodId,
    /// The resolved action.
    pub action: SiteAction,
}

/// Outcome of scanning one method for intrinsic sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteScan {
    /// Sites whose operand class resolved.
    pub sites: Vec<Site>,
    /// Intrinsic instructions whose operand class could not be resolved
    /// syntactically (diagnostic; such sites are skipped, a modeling
    /// limitation the paper shares for reflective registrations).
    pub unresolved: Vec<InstrId>,
}

/// Scan a method for Android intrinsic sites, resolving operand classes
/// with an intra-method reaching-definition walk.
#[must_use]
pub fn scan_method(program: &Program, method: MethodId) -> SiteScan {
    let m = program.method(method);
    let mut env: HashMap<Local, ClassId> = HashMap::new();
    env.insert(Local::THIS, m.owner());
    let mut out = SiteScan::default();
    scan_block(program, method, m.body(), &mut env, &mut out);
    out
}

fn scan_block(
    program: &Program,
    method: MethodId,
    block: &Block,
    env: &mut HashMap<Local, ClassId>,
    out: &mut SiteScan,
) {
    for stmt in block {
        match stmt {
            Stmt::Instr(i) => {
                scan_instr(program, method, i.id, &i.op, env, out);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                // Scope bindings per arm so one arm's defs don't leak into
                // the other; the post-if environment keeps only defs agreed
                // on by entry (conservative and deterministic).
                let snapshot = env.clone();
                scan_block(program, method, then_blk, env, out);
                *env = snapshot.clone();
                scan_block(program, method, else_blk, env, out);
                *env = snapshot;
            }
            Stmt::Loop { body } => {
                let snapshot = env.clone();
                scan_block(program, method, body, env, out);
                *env = snapshot;
            }
            Stmt::Sync { body, .. } => {
                scan_block(program, method, body, env, out);
            }
        }
    }
}

fn scan_instr(
    program: &Program,
    method: MethodId,
    id: InstrId,
    op: &Op,
    env: &mut HashMap<Local, ClassId>,
    out: &mut SiteScan,
) {
    match op {
        Op::New { dst, class } | Op::LoadStatic { dst, class } => {
            env.insert(*dst, *class);
        }
        Op::Move { dst, src } => {
            match env.get(src).copied() {
                Some(c) => env.insert(*dst, c),
                None => env.remove(dst),
            };
        }
        Op::Load { dst, field, .. } => {
            match program.field(*field).ty() {
                Some(c) => env.insert(*dst, c),
                None => env.remove(dst),
            };
        }
        Op::Null { dst } => {
            env.remove(dst);
        }
        Op::Invoke { dst: Some(dst), .. } => {
            env.remove(dst);
        }
        Op::Android(a) => {
            use PredicateFamily::{Alarm, Connection, Dialog, Receiver, Task};
            let resolved = |l: &Local| env.get(l).copied();
            let enable = |f, l| resolved(l).map(|c| SiteAction::Enable(f, c));
            let disable = |f, l| resolved(l).map(|c| SiteAction::Disable(f, c));
            let action = match a {
                AndroidOp::Post { runnable } => resolved(runnable).map(SiteAction::Post),
                AndroidOp::SendMessage { handler } => resolved(handler).map(SiteAction::Send),
                AndroidOp::BindService { connection } => enable(Connection, connection),
                AndroidOp::UnbindService { connection } => disable(Connection, connection),
                AndroidOp::RegisterReceiver { receiver } => enable(Receiver, receiver),
                AndroidOp::UnregisterReceiver { receiver } => disable(Receiver, receiver),
                AndroidOp::ShowDialog { dialog } => enable(Dialog, dialog),
                AndroidOp::DismissDialog { dialog } => disable(Dialog, dialog),
                AndroidOp::ScheduleAlarm { target } => enable(Alarm, target),
                AndroidOp::CancelAlarm { target } => disable(Alarm, target),
                AndroidOp::StartActivity { activity } => enable(Task, activity),
                AndroidOp::Execute { task } => resolved(task).map(SiteAction::Execute),
                AndroidOp::Start { thread } => resolved(thread).map(SiteAction::Spawn),
                AndroidOp::RegisterListener { api, listener } => {
                    resolved(listener).map(|c| SiteAction::Listen(*api, c))
                }
                AndroidOp::RemoveCallbacksAndMessages { handler } => {
                    resolved(handler).map(SiteAction::RemovePosts)
                }
                AndroidOp::Finish => Some(SiteAction::Finish),
                AndroidOp::PublishProgress => Some(SiteAction::Publish),
                // Wake-lock ops arm no callbacks and cancel nothing; the
                // no-sleep client scans them directly.
                AndroidOp::AcquireWakeLock { .. } | AndroidOp::ReleaseWakeLock { .. } => {
                    return;
                }
            };
            match action {
                Some(action) => out.sites.push(Site {
                    instr: id,
                    method,
                    action,
                }),
                None => out.unresolved.push(id),
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_android::{CallbackKind, ClassRole};
    use nadroid_ir::ProgramBuilder;

    #[test]
    fn resolves_fresh_allocations() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let run = b.add_class("R", ClassRole::Runnable);
        let mut m = b.method(act, "onClick");
        m.post_new(run);
        let mid = m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        let scan = scan_method(&p, mid);
        assert_eq!(scan.sites.len(), 1);
        assert_eq!(scan.sites[0].action, SiteAction::Post(run));
        assert!(scan.unresolved.is_empty());
    }

    #[test]
    fn resolves_this_operand() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let mut m = b.method(act, "onCreate");
        m.bind_self();
        let mid = m.finish_callback(CallbackKind::OnCreate);
        let p = b.build();
        let scan = scan_method(&p, mid);
        assert_eq!(
            scan.sites[0].action,
            SiteAction::Enable(PredicateFamily::Connection, act)
        );
    }

    #[test]
    fn resolves_field_loads_by_declared_type() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let h = b.add_class("H", ClassRole::Handler);
        let f = b.add_field(act, "handler", Some(h));
        let g = b.add_field(act, "untyped", None);
        let mut m = b.method(act, "onClick");
        let t = m.new_local();
        m.load(t, Local::THIS, f);
        m.android(nadroid_ir::AndroidOp::SendMessage { handler: t });
        let u = m.new_local();
        m.load(u, Local::THIS, g);
        m.android(nadroid_ir::AndroidOp::SendMessage { handler: u });
        let mid = m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        let scan = scan_method(&p, mid);
        assert_eq!(scan.sites.len(), 1);
        assert_eq!(scan.sites[0].action, SiteAction::Send(h));
        assert_eq!(scan.unresolved.len(), 1);
    }

    #[test]
    fn branch_arms_do_not_leak_definitions() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let run = b.add_class("R", ClassRole::Runnable);
        let mut m = b.method(act, "onClick");
        let t = m.new_local();
        m.if_opaque(
            |m| {
                m.new_obj(t, run);
            },
            |m| {
                // t is not defined here; posting it is unresolved.
                m.android(nadroid_ir::AndroidOp::Post { runnable: t });
            },
        );
        let mid = m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        let scan = scan_method(&p, mid);
        assert!(scan.sites.is_empty());
        assert_eq!(scan.unresolved.len(), 1);
    }

    #[test]
    fn moves_propagate() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let th = b.add_class("W", ClassRole::Thread);
        let mut m = b.method(act, "onClick");
        let t = m.new_local();
        m.new_obj(t, th);
        let u = m.new_local();
        m.mov(u, t);
        m.android(nadroid_ir::AndroidOp::Start { thread: u });
        let mid = m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        let scan = scan_method(&p, mid);
        assert_eq!(scan.sites[0].action, SiteAction::Spawn(th));
    }
}
