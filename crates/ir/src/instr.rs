//! Instructions, operations, conditions, and statements of the IR.
//!
//! The IR is a structured, three-address representation at the granularity
//! nAdroid reads out of Dalvik bytecode:
//!
//! - a **use** is a [`Op::Load`] (`getfield`);
//! - a **free** is a [`Op::StoreNull`] (`putfield null`);
//! - Android framework interactions are explicit [`AndroidOp`] intrinsics;
//! - control flow is structured ([`Stmt::If`], [`Stmt::Loop`],
//!   [`Stmt::Sync`]), which keeps the if-guard and intra-allocation
//!   dataflow analyses direct.

use crate::ids::{ClassId, FieldId, InstrId, Local, MethodId};
use nadroid_android::listeners::RegistrationApi;

/// The target of an [`Op::Invoke`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A call to an application method, statically resolved.
    Method(MethodId),
    /// A call into unanalyzed code (the Android framework or a library).
    ///
    /// Opaque calls are the IR's model for code outside the analysis scope;
    /// values passed to them may flow anywhere the framework pleases, which
    /// is the source of the false negatives the paper reports in §8.6
    /// (the `IBinder` case in `Mms`).
    Opaque,
}

/// An Android framework intrinsic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AndroidOp {
    /// `handler.post(runnable)` / `View.post` / `runOnUiThread`: enqueue a
    /// `Runnable` whose `run` executes later on the receiving looper.
    Post {
        /// Local holding the `Runnable` instance.
        runnable: Local,
    },
    /// `handler.sendMessage(msg)`: the handler's `handleMessage` runs later
    /// on the receiving looper.
    SendMessage {
        /// Local holding the `Handler` instance.
        handler: Local,
    },
    /// `bindService(intent, conn, flags)`: arms `onServiceConnected` /
    /// `onServiceDisconnected` on the connection object.
    BindService {
        /// Local holding the `ServiceConnection` instance.
        connection: Local,
    },
    /// `unbindService(conn)`: cancels the connection's callbacks.
    UnbindService {
        /// Local holding the `ServiceConnection` instance.
        connection: Local,
    },
    /// `registerReceiver(r, filter)`: arms `onReceive` on the receiver.
    RegisterReceiver {
        /// Local holding the `BroadcastReceiver` instance.
        receiver: Local,
    },
    /// `unregisterReceiver(r)`: cancels the receiver's deliveries.
    UnregisterReceiver {
        /// Local holding the `BroadcastReceiver` instance.
        receiver: Local,
    },
    /// `task.execute(...)`: runs the AsyncTask protocol
    /// (`onPreExecute` → `doInBackground` → `onPostExecute`).
    Execute {
        /// Local holding the `AsyncTask` instance.
        task: Local,
    },
    /// `publishProgress(...)` inside `doInBackground`: posts
    /// `onProgressUpdate` to the parent looper.
    PublishProgress,
    /// `thread.start()`: spawns a native thread running the target's `run`.
    Start {
        /// Local holding the `Thread` instance.
        thread: Local,
    },
    /// `Activity.finish()`: closes the activity (CHB source).
    Finish,
    /// `handler.removeCallbacksAndMessages(null)` (CHB source).
    RemoveCallbacksAndMessages {
        /// Local holding the `Handler` instance.
        handler: Local,
    },
    /// A FlowDroid-table listener registration, e.g. `setOnClickListener`.
    RegisterListener {
        /// Which registration API was called.
        api: RegistrationApi,
        /// Local holding the listener instance.
        listener: Local,
    },
    /// `PowerManager.WakeLock.acquire()` — keeps the device awake. The
    /// no-sleep-bug client (§9) reports acquires with no ordered release.
    AcquireWakeLock {
        /// Local holding the wake-lock object.
        lock: Local,
    },
    /// `PowerManager.WakeLock.release()`.
    ReleaseWakeLock {
        /// Local holding the wake-lock object.
        lock: Local,
    },
    /// `dialog.show()`: arms the dialog's callbacks (`onShow`, ...) —
    /// the enabling half of the Dialog predicate pair.
    ShowDialog {
        /// Local holding the dialog instance.
        dialog: Local,
    },
    /// `dialog.dismiss()`: silences the dialog's callbacks — the
    /// disabling half of the Dialog predicate pair.
    DismissDialog {
        /// Local holding the dialog instance.
        dialog: Local,
    },
    /// `AlarmManager.set(..., intent)`: arms the target's `onAlarm`
    /// delivery — the enabling half of the Alarm predicate pair.
    ScheduleAlarm {
        /// Local holding the alarm-target instance.
        target: Local,
    },
    /// `AlarmManager.cancel(intent)`: silences the target's `onAlarm`
    /// delivery — the disabling half of the Alarm predicate pair.
    CancelAlarm {
        /// Local holding the alarm-target instance.
        target: Local,
    },
    /// `Context.startActivity(intent)`: launches another activity,
    /// enabling the target's lifecycle callback family (the
    /// multi-activity task-stack model).
    StartActivity {
        /// Local holding an instance identifying the target activity
        /// class.
        activity: Local,
    },
}

impl AndroidOp {
    /// The operand local of the intrinsic, if it has one.
    #[must_use]
    pub fn operand(&self) -> Option<Local> {
        match *self {
            AndroidOp::Post { runnable } => Some(runnable),
            AndroidOp::SendMessage { handler } => Some(handler),
            AndroidOp::BindService { connection } => Some(connection),
            AndroidOp::UnbindService { connection } => Some(connection),
            AndroidOp::RegisterReceiver { receiver } => Some(receiver),
            AndroidOp::UnregisterReceiver { receiver } => Some(receiver),
            AndroidOp::Execute { task } => Some(task),
            AndroidOp::Start { thread } => Some(thread),
            AndroidOp::RemoveCallbacksAndMessages { handler } => Some(handler),
            AndroidOp::RegisterListener { listener, .. } => Some(listener),
            AndroidOp::AcquireWakeLock { lock } | AndroidOp::ReleaseWakeLock { lock } => Some(lock),
            AndroidOp::ShowDialog { dialog } | AndroidOp::DismissDialog { dialog } => Some(dialog),
            AndroidOp::ScheduleAlarm { target } | AndroidOp::CancelAlarm { target } => Some(target),
            AndroidOp::StartActivity { activity } => Some(activity),
            AndroidOp::PublishProgress | AndroidOp::Finish => None,
        }
    }
}

/// A three-address operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = new C`: heap allocation. The instruction's [`InstrId`] is the
    /// allocation site used by the points-to abstraction.
    New {
        /// Destination local.
        dst: Local,
        /// The class being instantiated.
        class: ClassId,
    },
    /// `dst = the framework singleton instance of component class C`.
    ///
    /// Android instantiates components itself; cross-class accesses to a
    /// component's fields go through this op.
    LoadStatic {
        /// Destination local.
        dst: Local,
        /// The component class.
        class: ClassId,
    },
    /// `dst = base.field` — a **use** (`getfield`).
    Load {
        /// Destination local.
        dst: Local,
        /// Local holding the base object.
        base: Local,
        /// The field read.
        field: FieldId,
    },
    /// `base.field = src` (`putfield`).
    Store {
        /// Local holding the base object.
        base: Local,
        /// The field written.
        field: FieldId,
        /// Local holding the stored value.
        src: Local,
    },
    /// `base.field = null` — a **free** (`putfield null`).
    StoreNull {
        /// Local holding the base object.
        base: Local,
        /// The field nulled.
        field: FieldId,
    },
    /// `dst = src`: local move.
    Move {
        /// Destination local.
        dst: Local,
        /// Source local.
        src: Local,
    },
    /// `dst = null`.
    Null {
        /// Destination local.
        dst: Local,
    },
    /// Method invocation. A non-`None` `recv` models `recv.m(...)`, which
    /// dereferences the receiver (NPE if null).
    Invoke {
        /// Local receiving the return value, if used.
        dst: Option<Local>,
        /// The call target.
        callee: Callee,
        /// Receiver local (dereferenced), if an instance call.
        recv: Option<Local>,
        /// Argument locals.
        args: Vec<Local>,
    },
    /// Return from the method, optionally with a value.
    Return {
        /// Returned local, if any.
        val: Option<Local>,
    },
    /// An Android framework intrinsic.
    Android(AndroidOp),
}

impl Op {
    /// The local this op defines, if any.
    #[must_use]
    pub fn def(&self) -> Option<Local> {
        match *self {
            Op::New { dst, .. }
            | Op::LoadStatic { dst, .. }
            | Op::Load { dst, .. }
            | Op::Move { dst, .. }
            | Op::Null { dst } => Some(dst),
            Op::Invoke { dst, .. } => dst,
            _ => None,
        }
    }

    /// The locals this op reads, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = Local> + '_ {
        let (first, second, rest): (Option<Local>, Option<Local>, &[Local]) = match self {
            Op::New { .. } | Op::LoadStatic { .. } | Op::Null { .. } => (None, None, &[]),
            Op::Load { base, .. } | Op::StoreNull { base, .. } => (Some(*base), None, &[]),
            Op::Store { base, src, .. } => (Some(*base), Some(*src), &[]),
            Op::Move { src, .. } => (Some(*src), None, &[]),
            Op::Invoke { recv, args, .. } => (*recv, None, args),
            Op::Return { val } => (*val, None, &[]),
            Op::Android(a) => (a.operand(), None, &[]),
        };
        first.into_iter().chain(second).chain(rest.iter().copied())
    }
}

/// A numbered instruction: an [`Op`] with its program-wide [`InstrId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Program-wide unique id (also the allocation site for `New`).
    pub id: InstrId,
    /// The operation.
    pub op: Op,
}

/// A branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `base.field != null` — the if-guard pattern (IG filter).
    NotNull {
        /// Local holding the base object.
        base: Local,
        /// The field checked.
        field: FieldId,
    },
    /// `base.field == null`.
    IsNull {
        /// Local holding the base object.
        base: Local,
        /// The field checked.
        field: FieldId,
    },
    /// An opaque condition the analysis cannot interpret
    /// (path-insensitivity source, §8.5).
    Opaque,
}

impl Cond {
    /// The negation of the condition (opaque stays opaque).
    #[must_use]
    pub fn negate(self) -> Cond {
        match self {
            Cond::NotNull { base, field } => Cond::IsNull { base, field },
            Cond::IsNull { base, field } => Cond::NotNull { base, field },
            Cond::Opaque => Cond::Opaque,
        }
    }
}

/// A structured statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A straight-line instruction.
    Instr(Instr),
    /// A two-armed conditional.
    If {
        /// The branch condition.
        cond: Cond,
        /// Statements executed when the condition holds.
        then_blk: Block,
        /// Statements executed otherwise (may be empty).
        else_blk: Block,
    },
    /// A loop with an opaque exit condition (executes zero or more times).
    Loop {
        /// The loop body.
        body: Block,
    },
    /// A `synchronized (lock) { ... }` region.
    Sync {
        /// Local holding the lock object.
        lock: Local,
        /// The protected statements.
        body: Block,
    },
}

/// A sequence of statements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the block contains no statements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of top-level statements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterate over the top-level statements.
    pub fn iter(&self) -> std::slice::Iter<'_, Stmt> {
        self.0.iter()
    }

    /// Visit every instruction in the block, depth-first, in program order.
    pub fn for_each_instr<'a>(&'a self, f: &mut impl FnMut(&'a Instr)) {
        for stmt in &self.0 {
            match stmt {
                Stmt::Instr(i) => f(i),
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    then_blk.for_each_instr(f);
                    else_blk.for_each_instr(f);
                }
                Stmt::Loop { body } | Stmt::Sync { body, .. } => body.for_each_instr(f),
            }
        }
    }

    /// Count of instructions in the block, including nested ones.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        let mut n = 0;
        self.for_each_instr(&mut |_| n += 1);
        n
    }
}

impl<'a> IntoIterator for &'a Block {
    type Item = &'a Stmt;
    type IntoIter = std::slice::Iter<'a, Stmt>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<T: IntoIterator<Item = Stmt>>(iter: T) -> Self {
        Block(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instr(id: u32, op: Op) -> Instr {
        Instr {
            id: InstrId::from_raw(id),
            op,
        }
    }

    #[test]
    fn def_use_sets() {
        let ld = Op::Load {
            dst: Local(2),
            base: Local::THIS,
            field: FieldId::from_raw(0),
        };
        assert_eq!(ld.def(), Some(Local(2)));
        assert!(ld.uses().eq([Local::THIS]));

        let inv = Op::Invoke {
            dst: None,
            callee: Callee::Opaque,
            recv: Some(Local(2)),
            args: vec![Local(3)],
        };
        assert_eq!(inv.def(), None);
        assert!(inv.uses().eq([Local(2), Local(3)]));
    }

    #[test]
    fn cond_negation_round_trips() {
        let c = Cond::NotNull {
            base: Local::THIS,
            field: FieldId::from_raw(1),
        };
        assert_eq!(c.negate().negate(), c);
        assert_eq!(Cond::Opaque.negate(), Cond::Opaque);
    }

    #[test]
    fn nested_instr_walk_is_in_order() {
        let blk = Block(vec![
            Stmt::Instr(instr(0, Op::Null { dst: Local(1) })),
            Stmt::If {
                cond: Cond::Opaque,
                then_blk: Block(vec![Stmt::Instr(instr(1, Op::Null { dst: Local(2) }))]),
                else_blk: Block(vec![Stmt::Instr(instr(2, Op::Null { dst: Local(3) }))]),
            },
            Stmt::Sync {
                lock: Local(1),
                body: Block(vec![Stmt::Instr(instr(3, Op::Null { dst: Local(4) }))]),
            },
        ]);
        let mut ids = Vec::new();
        blk.for_each_instr(&mut |i| ids.push(i.id.raw()));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(blk.instr_count(), 4);
    }

    #[test]
    fn android_operands() {
        assert_eq!(AndroidOp::Finish.operand(), None);
        assert_eq!(
            AndroidOp::Post { runnable: Local(5) }.operand(),
            Some(Local(5))
        );
    }
}
