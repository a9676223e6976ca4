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

/// Scans methods for Android intrinsic sites, resolving operand classes
/// with an intra-method reaching-definition walk. Its environment maps
/// each local to the class it is known to hold, in a vector indexed by
/// local, and logs every change so that a branch rolls back in time
/// proportional to the bindings it made, never to the method's local
/// count. A scan leaves the environment empty, so one scanner serves any
/// number of scans.
#[derive(Debug, Default)]
pub struct Scanner {
    /// The class each local holds, by [`Local::index`]; `None` past the
    /// end.
    env: Vec<Option<ClassId>>,
    /// Each change to `env`, with the binding it replaced.
    undo: Vec<(Local, Option<ClassId>)>,
}

impl Scanner {
    /// Scan one method for its intrinsic sites.
    #[must_use]
    pub fn scan(&mut self, program: &Program, method: MethodId) -> SiteScan {
        let m = program.method(method);
        let mut out = SiteScan::default();
        self.bind(Local::THIS, Some(m.owner()));
        self.scan_block(program, method, m.body(), &mut out);
        self.roll_back(0);
        out
    }

    fn get(&self, l: Local) -> Option<ClassId> {
        self.env.get(l.index()).copied().flatten()
    }

    fn bind(&mut self, l: Local, class: Option<ClassId>) {
        let i = l.index();
        if i >= self.env.len() {
            if class.is_none() {
                return;
            }
            self.env.resize(i + 1, None);
        }
        let old = std::mem::replace(&mut self.env[i], class);
        if old != class {
            self.undo.push((l, old));
        }
    }

    /// Undo every change logged after the first `mark` ones.
    fn roll_back(&mut self, mark: usize) {
        for (l, old) in self.undo.drain(mark..).rev() {
            self.env[l.index()] = old;
        }
    }

    fn scan_block(
        &mut self,
        program: &Program,
        method: MethodId,
        block: &Block,
        out: &mut SiteScan,
    ) {
        for stmt in block {
            match stmt {
                Stmt::Instr(i) => {
                    self.scan_instr(program, method, i.id, &i.op, out);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    // Scope bindings per arm so one arm's defs don't leak
                    // into the other; the post-if environment keeps only
                    // defs agreed on by entry (conservative and
                    // deterministic).
                    let mark = self.undo.len();
                    self.scan_block(program, method, then_blk, out);
                    self.roll_back(mark);
                    self.scan_block(program, method, else_blk, out);
                    self.roll_back(mark);
                }
                Stmt::Loop { body } => {
                    let mark = self.undo.len();
                    self.scan_block(program, method, body, out);
                    self.roll_back(mark);
                }
                Stmt::Sync { body, .. } => {
                    self.scan_block(program, method, body, out);
                }
            }
        }
    }

    fn scan_instr(
        &mut self,
        program: &Program,
        method: MethodId,
        id: InstrId,
        op: &Op,
        out: &mut SiteScan,
    ) {
        match op {
            Op::New { dst, class } | Op::LoadStatic { dst, class } => {
                self.bind(*dst, Some(*class));
            }
            Op::Move { dst, src } => {
                self.bind(*dst, self.get(*src));
            }
            Op::Load { dst, field, .. } => {
                self.bind(*dst, program.field(*field).ty());
            }
            Op::Null { dst } | Op::Invoke { dst: Some(dst), .. } => {
                self.bind(*dst, None);
            }
            Op::Android(a) => {
                use PredicateFamily::{Alarm, Connection, Dialog, Receiver, Task};
                let resolved = |l: &Local| self.get(*l);
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
                    // Wake-lock ops arm no callbacks and cancel nothing;
                    // the no-sleep client scans them directly.
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
        let scan = Scanner::default().scan(&p, mid);
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
        let scan = Scanner::default().scan(&p, mid);
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
        let scan = Scanner::default().scan(&p, mid);
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
        let scan = Scanner::default().scan(&p, mid);
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
        let scan = Scanner::default().scan(&p, mid);
        assert_eq!(scan.sites[0].action, SiteAction::Spawn(th));
    }

    /// One scanner serves many methods: what a scan binds, in a branch
    /// or at the top, is gone before the next scan starts.
    #[test]
    fn a_reused_scanner_starts_each_scan_empty() {
        let mut b = ProgramBuilder::new("R");
        let act = b.add_class("A", ClassRole::Activity);
        let run = b.add_class("R", ClassRole::Runnable);
        let mut m = b.method(act, "onClick");
        let (t, u) = (m.new_local(), m.new_local());
        m.new_obj(t, run);
        m.if_opaque(
            |m| {
                m.new_obj(u, run);
            },
            |_| {},
        );
        m.android(nadroid_ir::AndroidOp::Post { runnable: t });
        let first = m.finish_callback(CallbackKind::OnClick);
        // The same two slots, never bound in this method.
        let mut m = b.method(act, "onPause");
        let (t, u) = (m.new_local(), m.new_local());
        m.android(nadroid_ir::AndroidOp::Post { runnable: t });
        m.android(nadroid_ir::AndroidOp::Post { runnable: u });
        let second = m.finish_callback(CallbackKind::OnPause);
        let p = b.build();
        let mut scanner = Scanner::default();
        assert_eq!(scanner.scan(&p, first).sites.len(), 1);
        assert_eq!(scanner.scan(&p, second).unresolved.len(), 2);
        assert!(scanner.undo.is_empty());
        assert!(scanner.env.iter().all(Option::is_none));
    }
}
