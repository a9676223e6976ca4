//! The program model: arenas of classes, fields, and methods, plus the
//! manifest.

use crate::ids::{ClassId, FieldId, InstrId, Local, MethodId};
use crate::instr::{Block, Instr, Op, Stmt};
use nadroid_android::{CallbackKind, ClassRole};

/// The name of the implicit field that links a framework-helper object
/// (Runnable, Handler, AsyncTask, Thread, Listener, ...) back to the
/// instance of the class that created it — the IR's model of Java's
/// captured outer-class reference.
pub const OUTER_FIELD: &str = "$outer";

/// A class of the analyzed application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Class {
    pub(crate) name: String,
    pub(crate) role: ClassRole,
    pub(crate) outer: Option<ClassId>,
    pub(crate) looper: Option<ClassId>,
    pub(crate) fields: Vec<FieldId>,
    pub(crate) methods: Vec<MethodId>,
}

impl Class {
    /// The class name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The framework role of the class.
    #[must_use]
    pub fn role(&self) -> ClassRole {
        self.role
    }

    /// The lexically enclosing class, if this is an inner class.
    ///
    /// DEvA's read/write-set analysis is restricted to a class and its
    /// inner classes; this link is what makes that restriction expressible.
    #[must_use]
    pub fn outer(&self) -> Option<ClassId> {
        self.outer
    }

    /// The custom looper this class's callbacks run on, when declared
    /// (`handler H in M on Worker`): a `LooperThread` class. `None` means
    /// the main looper.
    #[must_use]
    pub fn looper(&self) -> Option<ClassId> {
        self.looper
    }

    /// Ids of the fields declared by this class.
    #[must_use]
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// Ids of the methods declared by this class.
    #[must_use]
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }
}

/// A reference-typed instance field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub(crate) name: String,
    pub(crate) owner: ClassId,
    pub(crate) ty: Option<ClassId>,
}

impl Field {
    /// The field name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class declaring the field.
    #[must_use]
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// The declared reference type, when it is an application class.
    #[must_use]
    pub fn ty(&self) -> Option<ClassId> {
        self.ty
    }
}

/// A method body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    pub(crate) name: String,
    pub(crate) owner: ClassId,
    pub(crate) callback: Option<CallbackKind>,
    pub(crate) param_count: u16,
    pub(crate) num_locals: u16,
    pub(crate) body: Block,
}

impl Method {
    /// The method name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declaring class.
    #[must_use]
    pub fn owner(&self) -> ClassId {
        self.owner
    }

    /// The callback kind, if this method is a framework callback.
    #[must_use]
    pub fn callback(&self) -> Option<CallbackKind> {
        self.callback
    }

    /// Number of reference parameters (locals `1..=param_count`).
    #[must_use]
    pub fn param_count(&self) -> u16 {
        self.param_count
    }

    /// Total number of local slots used by the body.
    #[must_use]
    pub fn num_locals(&self) -> u16 {
        self.num_locals
    }

    /// The structured body.
    #[must_use]
    pub fn body(&self) -> &Block {
        &self.body
    }

    /// If the body is exactly `t = this.f; return t`, the field `f`.
    ///
    /// Getter detection feeds the unsound maybe-allocation (MA) and
    /// used-for-return (UR) filters.
    #[must_use]
    pub fn getter_of(&self) -> Option<FieldId> {
        let stmts = &self.body.0;
        if stmts.len() != 2 {
            return None;
        }
        let (crate::instr::Stmt::Instr(a), crate::instr::Stmt::Instr(b)) = (&stmts[0], &stmts[1])
        else {
            return None;
        };
        match (&a.op, &b.op) {
            (
                Op::Load {
                    dst,
                    base: Local::THIS,
                    field,
                },
                Op::Return { val: Some(v) },
            ) if v == dst => Some(*field),
            _ => None,
        }
    }
}

/// The application manifest: declared components and the main activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    pub(crate) main_activity: Option<ClassId>,
    pub(crate) declared_receivers: Vec<ClassId>,
}

impl Manifest {
    /// The launcher activity, if declared.
    #[must_use]
    pub fn main_activity(&self) -> Option<ClassId> {
        self.main_activity
    }

    /// Receivers declared in the manifest (armed from process start,
    /// without an imperative `registerReceiver`).
    #[must_use]
    pub fn declared_receivers(&self) -> &[ClassId] {
        &self.declared_receivers
    }
}

/// A complete application model.
///
/// Construct programs with [`crate::ProgramBuilder`] or by parsing the
/// textual DSL with [`crate::parse_program`].
///
/// # Example
///
/// ```
/// use nadroid_ir::parse_program;
///
/// let program = parse_program(
///     r#"
///     app Demo
///     activity Main {
///         field svc: Main
///         onCreate { svc = new Main }
///         onClick  { use svc }
///         onDestroy { svc = null }
///     }
///     "#,
/// )?;
/// assert_eq!(program.name(), "Demo");
/// assert_eq!(program.classes().count(), 1);
/// # Ok::<(), nadroid_ir::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) classes: Vec<Class>,
    pub(crate) fields: Vec<Field>,
    pub(crate) methods: Vec<Method>,
    pub(crate) manifest: Manifest,
    /// Map from instruction id to its enclosing method.
    pub(crate) instr_owner: Vec<MethodId>,
}

impl Program {
    /// The application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Look up a class by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Look up a field by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Look up a method by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Iterate over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId::from_raw)
    }

    /// Iterate over all classes with their ids.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &Class)> + '_ {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId::from_raw(i as u32), c))
    }

    /// Iterate over all field ids.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len() as u32).map(FieldId::from_raw)
    }

    /// Iterate over all fields with their ids.
    pub fn fields(&self) -> impl Iterator<Item = (FieldId, &Field)> + '_ {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldId::from_raw(i as u32), f))
    }

    /// Iterate over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len() as u32).map(MethodId::from_raw)
    }

    /// Iterate over all methods with their ids.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &Method)> + '_ {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId::from_raw(i as u32), m))
    }

    /// Total number of instructions in the program.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.instr_owner.len()
    }

    /// The method containing an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn instr_method(&self, id: InstrId) -> MethodId {
        self.instr_owner[id.index()]
    }

    /// Find a class by name.
    #[must_use]
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes()
            .find(|(_, c)| c.name == name)
            .map(|(id, _)| id)
    }

    /// Find a field by owner class and name.
    #[must_use]
    pub fn field_by_name(&self, owner: ClassId, name: &str) -> Option<FieldId> {
        self.class(owner)
            .fields
            .iter()
            .copied()
            .find(|&f| self.field(f).name == name)
    }

    /// Find a method by owner class and name.
    #[must_use]
    pub fn method_by_name(&self, owner: ClassId, name: &str) -> Option<MethodId> {
        self.class(owner)
            .methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == name)
    }

    /// Find the instruction with the given id by walking its method body.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn instr(&self, id: InstrId) -> &Instr {
        let m = self.instr_method(id);
        let mut found = None;
        self.method(m).body.for_each_instr(&mut |i| {
            if i.id == id {
                found = Some(i);
            }
        });
        found.expect("instr_owner table inconsistent with method body")
    }

    /// Iterate over every instruction in the program together with its
    /// enclosing method, in (method, program-order) order.
    pub fn instrs(&self) -> Vec<(MethodId, &Instr)> {
        let mut out = Vec::with_capacity(self.instr_count());
        for (mid, m) in self.methods() {
            m.body.for_each_instr(&mut |i| out.push((mid, i)));
        }
        out
    }

    /// The top-level class for DEvA's *intra-class* scope: follows `outer`
    /// links to the outermost enclosing class.
    #[must_use]
    pub fn outermost_class(&self, mut id: ClassId) -> ClassId {
        while let Some(o) = self.class(id).outer {
            id = o;
        }
        id
    }

    /// A printable, human-oriented location string for an instruction:
    /// `Class.method#instr`.
    #[must_use]
    pub fn describe_instr(&self, id: InstrId) -> String {
        let m = self.instr_method(id);
        let method = self.method(m);
        let class = self.class(method.owner);
        format!("{}.{}#{}", class.name, method.name, id.raw())
    }

    /// Whether a component is reachable from the manifest; see
    /// [`Program::reachable_components`], which answers for every class
    /// in one pass.
    #[must_use]
    pub fn component_reachable(&self, component: ClassId) -> bool {
        self.reachable_components()[component.index()]
    }

    /// Manifest reachability of every class, indexed by class id. A
    /// component is reachable when it is the main activity, a declared
    /// receiver, or referenced (`new` or a static access) from another
    /// class's code, or when the program declares no manifest at all
    /// (then everything is assumed reachable). Non-components are always
    /// reachable. This drives both the §8.5 "not reachable"
    /// false-positive bucket and the dynamic interpreter's event
    /// enablement. One pass over the program's instructions.
    #[must_use]
    pub fn reachable_components(&self) -> Vec<bool> {
        let Some(main) = self.manifest.main_activity else {
            return vec![true; self.classes.len()];
        };
        let mut reachable: Vec<bool> = self
            .classes
            .iter()
            .map(|c| !c.role().is_component())
            .collect();
        reachable[main.index()] = true;
        for r in &self.manifest.declared_receivers {
            reachable[r.index()] = true;
        }
        for m in &self.methods {
            let from = self.outermost_class(m.owner);
            m.body.for_each_instr(&mut |i| {
                if let crate::instr::Op::New { class, .. }
                | crate::instr::Op::LoadStatic { class, .. } = i.op
                {
                    if class != from {
                        reachable[class.index()] = true;
                    }
                }
            });
        }
        reachable
    }

    /// Approximate source-lines-of-code metric: the number of non-blank
    /// lines of the canonical printed form (used for the LOC column of
    /// Table 1), counted from the structure without printing.
    #[must_use]
    pub fn loc(&self) -> usize {
        // Each `{` ends a header line and each `}` has a line of its own:
        // a class or the manifest counts 2 plus a line per entry, an
        // `if`, `loop` or `sync` 2 plus its body, and a non-empty `else`
        // 1 (`} else {`) plus its block. A method with an empty body
        // prints `{ }` on its header line.
        fn block(b: &Block) -> usize {
            b.0.iter()
                .map(|s| match s {
                    Stmt::Instr(_) => 1,
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => 2 + block(then_blk) + usize::from(!else_blk.is_empty()) + block(else_blk),
                    Stmt::Loop { body } | Stmt::Sync { body, .. } => 2 + block(body),
                })
                .sum()
        }
        let classes: usize = self.classes.iter().map(|c| 2 + c.fields.len()).sum();
        let methods: usize = self
            .methods
            .iter()
            .map(|m| 1 + usize::from(!m.body.is_empty()) + block(&m.body))
            .sum();
        let m = &self.manifest;
        let entries = usize::from(m.main_activity.is_some()) + m.declared_receivers.len();
        let manifest = if entries == 0 { 0 } else { 2 + entries };
        1 + classes + methods + manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("Tiny");
        let act = b.add_class("Main", ClassRole::Activity);
        let f = b.add_field(act, "svc", None);
        let mut m = b.method(act, "onCreate");
        let t = m.new_local();
        m.new_obj(t, act);
        m.store(Local::THIS, f, t);
        m.finish_callback(CallbackKind::OnCreate);
        b.set_main_activity(act);
        b.build()
    }

    #[test]
    fn lookups_by_name() {
        let p = tiny();
        let act = p.class_by_name("Main").unwrap();
        assert_eq!(p.class(act).name(), "Main");
        assert!(p.field_by_name(act, "svc").is_some());
        assert!(p.method_by_name(act, "onCreate").is_some());
        assert!(p.class_by_name("Nope").is_none());
    }

    #[test]
    fn instr_owner_table() {
        let p = tiny();
        assert_eq!(p.instr_count(), 2);
        let act = p.class_by_name("Main").unwrap();
        let m = p.method_by_name(act, "onCreate").unwrap();
        for (mid, i) in p.instrs() {
            assert_eq!(mid, m);
            assert_eq!(p.instr_method(i.id), m);
            assert_eq!(p.instr(i.id), i);
        }
    }

    #[test]
    fn describe_instr_is_readable() {
        let p = tiny();
        let desc = p.describe_instr(InstrId::from_raw(0));
        assert!(desc.starts_with("Main.onCreate#"), "{desc}");
    }

    #[test]
    fn getter_detection() {
        let mut b = ProgramBuilder::new("G");
        let c = b.add_class("C", ClassRole::Plain);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "getX");
        let t = m.new_local();
        m.load(t, Local::THIS, f);
        m.ret(Some(t));
        let getter = m.finish();
        let mut m2 = b.method(c, "notGetter");
        let t2 = m2.new_local();
        m2.load(t2, Local::THIS, f);
        m2.deref(t2);
        m2.ret(None);
        let other = m2.finish();
        let p = b.build();
        assert_eq!(p.method(getter).getter_of(), Some(f));
        assert_eq!(p.method(other).getter_of(), None);
    }

    #[test]
    fn outermost_follows_chain() {
        let mut b = ProgramBuilder::new("O");
        let outer = b.add_class("Outer", ClassRole::Activity);
        let inner = b.add_inner_class("Inner", ClassRole::Runnable, outer);
        let inner2 = b.add_inner_class("Inner2", ClassRole::Runnable, inner);
        let p = b.build();
        assert_eq!(p.outermost_class(inner2), outer);
        assert_eq!(p.outermost_class(outer), outer);
    }
}
