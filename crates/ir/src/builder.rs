//! Programmatic construction of IR programs.
//!
//! [`ProgramBuilder`] owns the arenas; [`MethodBuilder`] emits instructions
//! into one method body, with helpers for the common Android patterns
//! (allocate-into-field, use, free, post, bind, spawn, ...).
//!
//! # Example
//!
//! ```
//! use nadroid_ir::{ProgramBuilder, Local};
//! use nadroid_android::{CallbackKind, ClassRole};
//!
//! let mut b = ProgramBuilder::new("ConnectBotMini");
//! let act = b.add_class("ConsoleActivity", ClassRole::Activity);
//! let bound = b.add_field(act, "bound", None);
//!
//! let mut m = b.method(act, "onServiceDisconnected");
//! m.free_field(bound);
//! m.finish_callback(CallbackKind::OnServiceDisconnected);
//!
//! let mut m = b.method(act, "onCreateContextMenu");
//! m.use_field(bound);
//! m.finish_callback(CallbackKind::OnCreateContextMenu);
//!
//! let program = b.build();
//! assert_eq!(program.instr_count(), 3); // free, load, deref
//! ```

use crate::ids::{ClassId, FieldId, InstrId, Local, MethodId};
use crate::instr::{AndroidOp, Block, Callee, Cond, Instr, Op, Stmt};
use crate::program::{Class, Field, Manifest, Method, Program, OUTER_FIELD};
use nadroid_android::{CallbackKind, ClassRole};
use std::collections::HashSet;

/// Incremental builder for a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    classes: Vec<Class>,
    /// The names in `classes`, for the duplicate check.
    class_names: HashSet<String>,
    fields: Vec<Field>,
    methods: Vec<MethodSlot>,
    manifest: Manifest,
    next_instr: u32,
    instr_owner: Vec<MethodId>,
    /// Each class's `$outer` field once it has one, by class index, so
    /// [`ProgramBuilder::outer_field`] never scans a class's fields.
    outer_fields: Vec<Option<FieldId>>,
    /// The block stack of the last finished body, empty, kept for the
    /// next body.
    spare_blocks: Vec<Vec<Stmt>>,
}

/// A method arena slot: declared (id reserved, body pending) or built.
#[derive(Debug)]
enum MethodSlot {
    Declared { name: String, owner: ClassId },
    Built(Method),
}

impl ProgramBuilder {
    /// Start building a program with the given application name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a top-level class.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name already exists.
    pub fn add_class(&mut self, name: impl Into<String>, role: ClassRole) -> ClassId {
        self.add_class_inner(name.into(), role, None)
    }

    /// Add an inner class lexically nested in `outer`.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name already exists or `outer` is
    /// not a class of this builder.
    pub fn add_inner_class(
        &mut self,
        name: impl Into<String>,
        role: ClassRole,
        outer: ClassId,
    ) -> ClassId {
        assert!(
            outer.index() < self.classes.len(),
            "unknown outer class {outer}"
        );
        self.add_class_inner(name.into(), role, Some(outer))
    }

    fn add_class_inner(
        &mut self,
        name: String,
        role: ClassRole,
        outer: Option<ClassId>,
    ) -> ClassId {
        assert!(
            self.class_names.insert(name.clone()),
            "duplicate class name {name:?}"
        );
        self.push_class(name, role, outer)
    }

    /// Add a top-level class whose name the caller has already checked
    /// to be unique, as the parser's name table does, so the builder
    /// keeps no copy of it. Its member lists are sized for `fields` and
    /// `methods` members.
    pub(crate) fn add_unique_class(
        &mut self,
        name: &str,
        role: ClassRole,
        fields: usize,
        methods: usize,
    ) -> ClassId {
        let id = self.push_class(name.to_owned(), role, None);
        let class = &mut self.classes[id.index()];
        class.fields.reserve_exact(fields);
        class.methods.reserve_exact(methods);
        id
    }

    fn push_class(&mut self, name: String, role: ClassRole, outer: Option<ClassId>) -> ClassId {
        let id = ClassId::from_raw(self.classes.len() as u32);
        self.classes.push(Class {
            name,
            role,
            outer,
            looper: None,
            fields: Vec::new(),
            methods: Vec::new(),
        });
        self.outer_fields.push(None);
        id
    }

    /// Size the arenas for this many more classes, fields, methods and
    /// instructions.
    pub(crate) fn reserve(&mut self, classes: usize, fields: usize, methods: usize, instrs: usize) {
        self.classes.reserve_exact(classes);
        self.outer_fields.reserve_exact(classes);
        self.fields.reserve_exact(fields);
        self.methods.reserve_exact(methods);
        self.instr_owner.reserve_exact(instrs);
    }

    /// Set the lexical `outer` link of an existing class (used by the
    /// parser, which may see an inner class before its outer).
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown.
    pub fn set_outer(&mut self, inner: ClassId, outer: ClassId) {
        assert!(inner.index() < self.classes.len(), "unknown class {inner}");
        assert!(outer.index() < self.classes.len(), "unknown class {outer}");
        self.classes[inner.index()].outer = Some(outer);
    }

    /// Declare that a class's callbacks run on a custom looper — a class
    /// with the `LooperThread` role (Android's `HandlerThread`).
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown or `looper` is not a `LooperThread`.
    pub fn set_looper(&mut self, class: ClassId, looper: ClassId) {
        assert!(class.index() < self.classes.len(), "unknown class {class}");
        assert!(
            looper.index() < self.classes.len(),
            "unknown class {looper}"
        );
        assert_eq!(
            self.classes[looper.index()].role,
            ClassRole::LooperThread,
            "`on` target must be a looperthread class"
        );
        self.classes[class.index()].looper = Some(looper);
    }

    /// Add a reference-typed field to a class.
    ///
    /// # Panics
    ///
    /// Panics if the owner is unknown or already declares a field with the
    /// same name.
    pub fn add_field(
        &mut self,
        owner: ClassId,
        name: impl Into<String>,
        ty: Option<ClassId>,
    ) -> FieldId {
        let name = name.into();
        assert!(owner.index() < self.classes.len(), "unknown class {owner}");
        assert!(
            !self.classes[owner.index()]
                .fields
                .iter()
                .any(|&f| self.fields[f.index()].name == name),
            "duplicate field {name:?} on class {owner}"
        );
        self.add_unique_field(owner, name, ty)
    }

    /// Add a field whose name the caller has already checked to be new on
    /// `owner`, as the parser's name table does.
    pub(crate) fn add_unique_field(
        &mut self,
        owner: ClassId,
        name: String,
        ty: Option<ClassId>,
    ) -> FieldId {
        let id = FieldId::from_raw(self.fields.len() as u32);
        if name == OUTER_FIELD {
            self.outer_fields[owner.index()] = Some(id);
        }
        self.fields.push(Field { name, owner, ty });
        self.classes[owner.index()].fields.push(id);
        id
    }

    /// Get or create the implicit `$outer` back-reference field of a class.
    ///
    /// # Panics
    ///
    /// Panics if the class is unknown.
    pub fn outer_field(&mut self, class: ClassId) -> FieldId {
        assert!(class.index() < self.classes.len(), "unknown class {class}");
        match self.outer_fields[class.index()] {
            Some(f) => f,
            None => self.add_unique_field(class, OUTER_FIELD.to_owned(), None),
        }
    }

    /// Reserve a method id on `owner` without building its body yet, so
    /// call sites in other methods can reference it (the parser uses this
    /// for forward references). Build the body later with
    /// [`ProgramBuilder::body`].
    ///
    /// # Panics
    ///
    /// Panics if the owner is unknown or already declares a method with
    /// the same name.
    pub fn declare_method(&mut self, owner: ClassId, name: impl Into<String>) -> MethodId {
        let name = name.into();
        assert!(owner.index() < self.classes.len(), "unknown class {owner}");
        assert!(
            self.classes[owner.index()]
                .methods
                .iter()
                .all(|&m| self.method_name(m) != name),
            "duplicate method {name:?} on class {owner}"
        );
        self.declare_unique_method(owner, name)
    }

    /// Declare a method whose name the caller has already checked to be
    /// new on `owner`, as the parser's name table does.
    pub(crate) fn declare_unique_method(&mut self, owner: ClassId, name: String) -> MethodId {
        let id = MethodId::from_raw(self.methods.len() as u32);
        self.methods.push(MethodSlot::Declared { name, owner });
        self.classes[owner.index()].methods.push(id);
        id
    }

    fn method_name(&self, id: MethodId) -> &str {
        match &self.methods[id.index()] {
            MethodSlot::Declared { name, .. } => name,
            MethodSlot::Built(m) => &m.name,
        }
    }

    /// Begin building the body of a previously declared method.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the body was already built.
    pub fn body(&mut self, id: MethodId) -> MethodBuilder<'_> {
        let MethodSlot::Declared { owner, .. } = self.methods[id.index()] else {
            panic!("method {id} already has a body");
        };
        let mut blocks = std::mem::take(&mut self.spare_blocks);
        blocks.push(Vec::new());
        MethodBuilder {
            program: self,
            id,
            owner,
            param_count: 0,
            next_local: 1,
            blocks,
        }
    }

    /// Declare a method and begin building its body in one step. The
    /// returned [`MethodBuilder`] must be finished with
    /// [`MethodBuilder::finish`] or [`MethodBuilder::finish_callback`].
    ///
    /// # Panics
    ///
    /// Panics if the owner is unknown or already declares a method with
    /// the same name.
    pub fn method(&mut self, owner: ClassId, name: impl Into<String>) -> MethodBuilder<'_> {
        let id = self.declare_method(owner, name);
        self.body(id)
    }

    /// Declare the launcher activity in the manifest.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is unknown or not an Activity.
    pub fn set_main_activity(&mut self, activity: ClassId) {
        assert!(
            activity.index() < self.classes.len(),
            "unknown class {activity}"
        );
        assert_eq!(
            self.classes[activity.index()].role,
            ClassRole::Activity,
            "main activity must have the Activity role"
        );
        self.manifest.main_activity = Some(activity);
    }

    /// Declare a receiver in the manifest (armed without imperative
    /// registration).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is unknown or not a Receiver.
    pub fn declare_receiver(&mut self, receiver: ClassId) {
        assert!(
            receiver.index() < self.classes.len(),
            "unknown class {receiver}"
        );
        assert_eq!(
            self.classes[receiver.index()].role,
            ClassRole::Receiver,
            "declared receiver must have the Receiver role"
        );
        self.manifest.declared_receivers.push(receiver);
    }

    /// Finish and return the program.
    ///
    /// # Panics
    ///
    /// Panics if any started method was not finished.
    #[must_use]
    pub fn build(self) -> Program {
        let methods: Vec<Method> = self
            .methods
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                MethodSlot::Built(m) => m,
                MethodSlot::Declared { name, .. } => {
                    panic!("method m{i} ({name:?}) was declared but never built")
                }
            })
            .collect();
        Program {
            name: self.name,
            classes: self.classes,
            fields: self.fields,
            methods,
            manifest: self.manifest,
            instr_owner: self.instr_owner,
        }
    }

    fn alloc_instr(&mut self, owner: MethodId) -> InstrId {
        let id = InstrId::from_raw(self.next_instr);
        self.next_instr += 1;
        self.instr_owner.push(owner);
        id
    }
}

/// Builder for one method body. Created by [`ProgramBuilder::method`].
#[derive(Debug)]
pub struct MethodBuilder<'p> {
    program: &'p mut ProgramBuilder,
    id: MethodId,
    owner: ClassId,
    param_count: u16,
    /// Local slots in use so far. Wider than `Local`'s `u16` so that a
    /// body past the limit is counted, not wrapped: [`Self::num_locals`]
    /// reports it and `finish` rejects it.
    next_local: u32,
    /// Stack of open blocks; the innermost is last.
    blocks: Vec<Vec<Stmt>>,
}

impl<'p> MethodBuilder<'p> {
    /// The id the method will have once finished.
    #[must_use]
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// The declaring class.
    #[must_use]
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// Declare `n` reference parameters (must be called before emitting
    /// instructions that allocate temporaries). Returns their locals.
    ///
    /// # Panics
    ///
    /// Panics if temporaries were already allocated.
    pub fn params(&mut self, n: u16) -> Vec<Local> {
        assert_eq!(self.next_local, 1, "declare parameters before temporaries");
        self.param_count = n;
        self.next_local = u32::from(n) + 1;
        (1..=n).map(Local).collect()
    }

    /// Allocate a fresh temporary local. Past the `u16` limit the
    /// returned slot is a placeholder: the count keeps growing and
    /// `finish` rejects the method.
    pub fn new_local(&mut self) -> Local {
        let l = Local(u16::try_from(self.next_local).unwrap_or(u16::MAX));
        self.next_local += 1;
        l
    }

    /// Size the innermost open block for `n` more statements (the parser
    /// sizes each root block from its statement count).
    pub(crate) fn reserve_stmts(&mut self, n: usize) {
        self.blocks
            .last_mut()
            .expect("block stack is never empty")
            .reserve_exact(n);
    }

    /// The number of local slots the body uses so far, `this` and the
    /// parameters included. A method may have at most `u16::MAX`; the
    /// parser checks this before finishing a body.
    pub(crate) fn num_locals(&self) -> u32 {
        self.next_local
    }

    fn emit(&mut self, op: Op) -> InstrId {
        // Keep the local count ahead of every referenced slot, so bodies
        // written with explicit `tN` locals (the parser's canonical form)
        // still produce a consistent `num_locals`.
        for l in op.def().into_iter().chain(op.uses()) {
            self.note_local(l);
        }
        let id = self.program.alloc_instr(self.id);
        self.blocks
            .last_mut()
            .expect("block stack is never empty")
            .push(Stmt::Instr(Instr { id, op }));
        id
    }

    fn note_local(&mut self, l: Local) {
        self.next_local = self.next_local.max(u32::from(l.0) + 1);
    }

    // --- raw instruction emitters -----------------------------------------

    /// Emit `dst = new class`.
    pub fn new_obj(&mut self, dst: Local, class: ClassId) -> InstrId {
        self.emit(Op::New { dst, class })
    }

    /// Emit `dst = static instance of component class`.
    pub fn load_static(&mut self, dst: Local, class: ClassId) -> InstrId {
        self.emit(Op::LoadStatic { dst, class })
    }

    /// Emit `dst = base.field` (a use).
    pub fn load(&mut self, dst: Local, base: Local, field: FieldId) -> InstrId {
        self.emit(Op::Load { dst, base, field })
    }

    /// Emit `base.field = src`.
    pub fn store(&mut self, base: Local, field: FieldId, src: Local) -> InstrId {
        self.emit(Op::Store { base, field, src })
    }

    /// Emit `base.field = null` (a free).
    pub fn store_null(&mut self, base: Local, field: FieldId) -> InstrId {
        self.emit(Op::StoreNull { base, field })
    }

    /// Emit `dst = src`.
    pub fn mov(&mut self, dst: Local, src: Local) -> InstrId {
        self.emit(Op::Move { dst, src })
    }

    /// Emit `dst = null`.
    pub fn null(&mut self, dst: Local) -> InstrId {
        self.emit(Op::Null { dst })
    }

    /// Emit an invocation of an application method.
    pub fn invoke(
        &mut self,
        dst: Option<Local>,
        callee: MethodId,
        recv: Option<Local>,
        args: Vec<Local>,
    ) -> InstrId {
        self.emit(Op::Invoke {
            dst,
            callee: Callee::Method(callee),
            recv,
            args,
        })
    }

    /// Emit a call into unanalyzed (framework/library) code.
    pub fn invoke_opaque(
        &mut self,
        dst: Option<Local>,
        recv: Option<Local>,
        args: Vec<Local>,
    ) -> InstrId {
        self.emit(Op::Invoke {
            dst,
            callee: Callee::Opaque,
            recv,
            args,
        })
    }

    /// Emit a dereference of `local`: an opaque instance call on it,
    /// throwing NPE at runtime if the value is null.
    pub fn deref(&mut self, local: Local) -> InstrId {
        self.invoke_opaque(None, Some(local), vec![])
    }

    /// Emit `return [val]`.
    pub fn ret(&mut self, val: Option<Local>) -> InstrId {
        self.emit(Op::Return { val })
    }

    /// Emit an Android intrinsic.
    pub fn android(&mut self, op: AndroidOp) -> InstrId {
        self.emit(Op::Android(op))
    }

    // --- structured statements --------------------------------------------

    /// Emit `if (cond) { then } else { else }` with builder closures.
    pub fn if_cond(
        &mut self,
        cond: Cond,
        then_blk: impl FnOnce(&mut Self),
        else_blk: impl FnOnce(&mut Self),
    ) {
        let r: Result<(), std::convert::Infallible> = self.try_if_cond(
            cond,
            |m| {
                then_blk(m);
                Ok(())
            },
            |m| {
                else_blk(m);
                Ok(())
            },
        );
        match r {
            Ok(()) => {}
        }
    }

    /// Fallible variant of [`MethodBuilder::if_cond`]: either closure may
    /// abort block construction with an error (used by the parser).
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by a closure; the partially
    /// built arms are still attached so the builder stays balanced.
    pub fn try_if_cond<E>(
        &mut self,
        cond: Cond,
        then_blk: impl FnOnce(&mut Self) -> Result<(), E>,
        else_blk: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        match cond {
            Cond::NotNull { base, .. } | Cond::IsNull { base, .. } => self.note_local(base),
            Cond::Opaque => {}
        }
        self.blocks.push(Vec::new());
        let r1 = then_blk(self);
        let t = Block(self.blocks.pop().expect("then block"));
        self.blocks.push(Vec::new());
        let r2 = if r1.is_ok() { else_blk(self) } else { Ok(()) };
        let e = Block(self.blocks.pop().expect("else block"));
        self.blocks
            .last_mut()
            .expect("block stack is never empty")
            .push(Stmt::If {
                cond,
                then_blk: t,
                else_blk: e,
            });
        r1.and(r2)
    }

    /// Emit `if (base.field != null) { then }` — the if-guard pattern.
    pub fn if_not_null(&mut self, base: Local, field: FieldId, then_blk: impl FnOnce(&mut Self)) {
        self.if_cond(Cond::NotNull { base, field }, then_blk, |_| {});
    }

    /// Emit an opaque-condition branch.
    pub fn if_opaque(
        &mut self,
        then_blk: impl FnOnce(&mut Self),
        else_blk: impl FnOnce(&mut Self),
    ) {
        self.if_cond(Cond::Opaque, then_blk, else_blk);
    }

    /// Emit a loop with an opaque exit condition.
    pub fn loop_(&mut self, body: impl FnOnce(&mut Self)) {
        let r: Result<(), std::convert::Infallible> = self.try_loop(|m| {
            body(m);
            Ok(())
        });
        match r {
            Ok(()) => {}
        }
    }

    /// Fallible variant of [`MethodBuilder::loop_`].
    ///
    /// # Errors
    ///
    /// Propagates the closure's error; the partial body stays attached.
    pub fn try_loop<E>(&mut self, body: impl FnOnce(&mut Self) -> Result<(), E>) -> Result<(), E> {
        self.blocks.push(Vec::new());
        let r = body(self);
        let b = Block(self.blocks.pop().expect("loop block"));
        self.blocks
            .last_mut()
            .expect("block stack is never empty")
            .push(Stmt::Loop { body: b });
        r
    }

    /// Emit `synchronized (lock) { body }`.
    pub fn sync(&mut self, lock: Local, body: impl FnOnce(&mut Self)) {
        let r: Result<(), std::convert::Infallible> = self.try_sync(lock, |m| {
            body(m);
            Ok(())
        });
        match r {
            Ok(()) => {}
        }
    }

    /// Fallible variant of [`MethodBuilder::sync`].
    ///
    /// # Errors
    ///
    /// Propagates the closure's error; the partial body stays attached.
    pub fn try_sync<E>(
        &mut self,
        lock: Local,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.note_local(lock);
        self.blocks.push(Vec::new());
        let r = body(self);
        let b = Block(self.blocks.pop().expect("sync block"));
        self.blocks
            .last_mut()
            .expect("block stack is never empty")
            .push(Stmt::Sync { lock, body: b });
        r
    }

    // --- Android-pattern sugar ---------------------------------------------

    /// `this.field = new class`, returning the temp holding the object.
    pub fn alloc_field(&mut self, field: FieldId, class: ClassId) -> Local {
        let t = self.new_local();
        self.new_obj(t, class);
        self.store(Local::THIS, field, t);
        t
    }

    /// Load `this.field` and dereference it — the harmful-use pattern.
    /// Returns the temp holding the loaded value.
    pub fn use_field(&mut self, field: FieldId) -> Local {
        let t = self.new_local();
        self.load(t, Local::THIS, field);
        self.deref(t);
        t
    }

    /// `this.field = null`.
    pub fn free_field(&mut self, field: FieldId) {
        self.store_null(Local::THIS, field);
    }

    /// Create an instance of a class, wiring its `$outer` back-reference to
    /// `this` when the class is a framework helper (Runnable, Handler,
    /// AsyncTask, Thread, ServiceConnection, Listener) — the IR's model of
    /// Java inner-class capture. Returns the temp holding the instance.
    pub fn new_wired(&mut self, class: ClassId) -> Local {
        let t = self.new_local();
        self.new_obj(t, class);
        if self.program.classes[class.index()]
            .role
            .is_framework_helper()
        {
            let f = self.program.outer_field(class);
            self.store(t, f, Local::THIS);
        }
        t
    }

    /// Raise the number of reserved local slots to at least `n`
    /// (used by the parser when a method header declares `locals=N`).
    pub fn reserve_locals(&mut self, n: u16) {
        self.next_local = self.next_local.max(u32::from(n));
    }

    /// `post(new R())` with `$outer` wiring.
    pub fn post_new(&mut self, runnable: ClassId) -> Local {
        let t = self.new_wired(runnable);
        self.android(AndroidOp::Post { runnable: t });
        t
    }

    /// `bindService` with `this` as the connection (the enclosing class
    /// implements `ServiceConnection`).
    pub fn bind_self(&mut self) {
        self.android(AndroidOp::BindService {
            connection: Local::THIS,
        });
    }

    // --- termination --------------------------------------------------------

    /// Finish the method as a plain (non-callback) method.
    ///
    /// # Panics
    ///
    /// Panics if called inside an open nested block, or if the body
    /// uses more than `u16::MAX` local slots.
    pub fn finish(self) -> MethodId {
        self.finish_inner(None)
    }

    /// Finish the method as a framework callback of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if called inside an open nested block, or if the body
    /// uses more than `u16::MAX` local slots.
    pub fn finish_callback(self, kind: CallbackKind) -> MethodId {
        self.finish_inner(Some(kind))
    }

    fn finish_inner(mut self, callback: Option<CallbackKind>) -> MethodId {
        let MethodSlot::Declared { name, .. } = &mut self.program.methods[self.id.index()] else {
            unreachable!("`body` hands out a builder only for a declared method");
        };
        let name = std::mem::take(name);
        assert_eq!(self.blocks.len(), 1, "unbalanced nested blocks in {name}");
        let num_locals = u16::try_from(self.next_local)
            .unwrap_or_else(|_| panic!("too many locals in {name}: {}", self.next_local));
        let body = Block(self.blocks.pop().expect("root block"));
        self.program.spare_blocks = std::mem::take(&mut self.blocks);
        let method = Method {
            name,
            owner: self.owner,
            callback,
            param_count: self.param_count,
            num_locals,
            body,
        };
        self.program.methods[self.id.index()] = MethodSlot::Built(method);
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_structured_bodies() {
        let mut b = ProgramBuilder::new("T");
        let c = b.add_class("A", ClassRole::Activity);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "onClick");
        m.if_not_null(Local::THIS, f, |m| {
            m.use_field(f);
        });
        let mid = m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        let body = p.method(mid).body();
        assert_eq!(body.len(), 1);
        match &body.0[0] {
            Stmt::If {
                cond: Cond::NotNull { .. },
                then_blk,
                else_blk,
            } => {
                assert_eq!(then_blk.instr_count(), 2);
                assert!(else_blk.is_empty());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn new_wired_links_outer() {
        let mut b = ProgramBuilder::new("T");
        let act = b.add_class("A", ClassRole::Activity);
        let run = b.add_class("R", ClassRole::Runnable);
        let mut m = b.method(act, "onClick");
        m.post_new(run);
        m.finish_callback(CallbackKind::OnClick);
        let p = b.build();
        // new R; store R.$outer = this; post
        assert_eq!(p.instr_count(), 3);
        let outer = p
            .field_by_name(run, OUTER_FIELD)
            .expect("outer field created");
        assert_eq!(p.field(outer).owner(), run);
    }

    #[test]
    fn instr_ids_are_dense_and_owned() {
        let mut b = ProgramBuilder::new("T");
        let c = b.add_class("A", ClassRole::Activity);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "m1");
        m.use_field(f);
        let m1 = m.finish();
        let mut m = b.method(c, "m2");
        m.free_field(f);
        let m2 = m.finish();
        let p = b.build();
        assert_eq!(p.instr_count(), 3);
        assert_eq!(p.instr_method(InstrId::from_raw(0)), m1);
        assert_eq!(p.instr_method(InstrId::from_raw(2)), m2);
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn duplicate_class_panics() {
        let mut b = ProgramBuilder::new("T");
        b.add_class("A", ClassRole::Activity);
        b.add_class("A", ClassRole::Service);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_blocks_panics() {
        let mut b = ProgramBuilder::new("T");
        let c = b.add_class("A", ClassRole::Activity);
        let mut m = b.method(c, "bad");
        m.blocks.push(Vec::new()); // simulate an unbalanced open block
        let _ = m.finish();
    }

    #[test]
    fn params_come_before_temps() {
        let mut b = ProgramBuilder::new("T");
        let c = b.add_class("A", ClassRole::Plain);
        let mut m = b.method(c, "f");
        let ps = m.params(2);
        assert_eq!(ps, vec![Local(1), Local(2)]);
        assert_eq!(m.new_local(), Local(3));
        m.ret(None);
        m.finish();
        let _ = b.build();
    }
}
