//! Runtime representation: heap, flattened code, frames, and tasks.

use nadroid_ir::{Block, ClassId, Cond, FieldId, InstrId, Local, MethodId, Op, Program, Stmt};
use std::collections::HashMap;
use std::rc::Rc;

/// A reference into the interpreter heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapRef(pub u32);

/// A runtime reference value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Value {
    /// The null reference.
    #[default]
    Null,
    /// A heap object.
    Obj(HeapRef),
}

impl Value {
    /// The heap reference, if non-null.
    #[must_use]
    pub fn as_ref(self) -> Option<HeapRef> {
        match self {
            Value::Null => None,
            Value::Obj(r) => Some(r),
        }
    }
}

/// One set field slot: a field that holds a reference, or that an
/// explicit free (`putfield null`) nulled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Slot {
    /// The object.
    pub obj: HeapRef,
    /// The field.
    pub field: FieldId,
    /// The field's value (`Null` only for a freed field).
    pub value: Value,
    /// The free instruction that wrote the null, for a freed field.
    pub freed_by: Option<InstrId>,
}

/// The interpreter heap: the class of every object, and the set field
/// slots in (object, field) order. A field with no slot reads as null:
/// it was never written, or a plain store overwrote it with null. Equal
/// heaps therefore have equal slot vectors, and a clone is two copies
/// however many objects the heap holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Heap {
    classes: Vec<ClassId>,
    slots: Vec<Slot>,
}

impl Heap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh object of `class`.
    pub fn alloc(&mut self, class: ClassId) -> HeapRef {
        let r = HeapRef(self.classes.len() as u32);
        self.classes.push(class);
        r
    }

    /// The index of `r.field`'s slot, or where it would be inserted.
    fn find(&self, r: HeapRef, field: FieldId) -> Result<usize, usize> {
        self.slots
            .binary_search_by(|s| (s.obj, s.field).cmp(&(r, field)))
    }

    fn set(&mut self, slot: Slot) {
        match self.find(slot.obj, slot.field) {
            Ok(i) => self.slots[i] = slot,
            Err(i) => self.slots.insert(i, slot),
        }
    }

    /// Read a field (unset fields are null).
    #[must_use]
    pub fn load(&self, r: HeapRef, field: FieldId) -> Value {
        self.find(r, field)
            .map_or(Value::Null, |i| self.slots[i].value)
    }

    /// Write a field.
    pub fn store(&mut self, r: HeapRef, field: FieldId, v: Value) {
        if v == Value::Null {
            if let Ok(i) = self.find(r, field) {
                self.slots.remove(i);
            }
        } else {
            self.set(Slot {
                obj: r,
                field,
                value: v,
                freed_by: None,
            });
        }
    }

    /// Write null into a field, recording the freeing instruction.
    pub fn store_null(&mut self, r: HeapRef, field: FieldId, writer: InstrId) {
        self.set(Slot {
            obj: r,
            field,
            value: Value::Null,
            freed_by: Some(writer),
        });
    }

    /// The free instruction that wrote the current null in `r.field`,
    /// if the null came from an explicit `putfield null`.
    #[must_use]
    pub fn null_writer(&self, r: HeapRef, field: FieldId) -> Option<InstrId> {
        self.find(r, field)
            .ok()
            .and_then(|i| self.slots[i].freed_by)
    }

    /// Every explicitly freed field holding its null, with the free
    /// instruction that wrote it, in (object, field) order.
    pub fn null_writers(&self) -> impl Iterator<Item = (HeapRef, FieldId, InstrId)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.freed_by.map(|writer| (s.obj, s.field, writer)))
    }

    /// Every set field slot, in (object, field) order.
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The class of every object, indexed by [`HeapRef`].
    pub(crate) fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    /// The class of an object.
    #[must_use]
    pub fn class_of(&self, r: HeapRef) -> ClassId {
        self.classes[r.0 as usize]
    }

    /// Number of live objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Flattened executable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatOp {
    /// A straight-line IR instruction.
    Instr(InstrId, Op),
    /// Fall through when `cond` holds, else jump to `target`.
    BranchIfNot {
        /// The evaluable condition.
        cond: Cond,
        /// Jump target when the condition is false.
        target: usize,
    },
    /// A scheduler-resolved branch (opaque condition / loop continuation):
    /// either falls through or jumps to `target`.
    Choice {
        /// Jump target for the "other" resolution.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: usize,
    },
    /// Acquire the lock object held in the local.
    MonitorEnter {
        /// Local holding the lock object.
        lock: Local,
    },
    /// Release the lock object held in the local.
    MonitorExit {
        /// Local holding the lock object.
        lock: Local,
    },
}

/// A method body compiled to a flat instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatBody {
    /// The operations.
    pub ops: Vec<FlatOp>,
}

/// Flatten a structured body:
///
/// - `If` with an evaluable null-check becomes [`FlatOp::BranchIfNot`];
/// - `If` with an opaque condition becomes [`FlatOp::Choice`];
/// - `Loop` becomes a [`FlatOp::Choice`] exit guard plus a back jump
///   (iteration counts are then bounded by the explorer);
/// - `Sync` brackets its body with monitor ops.
#[must_use]
pub fn flatten(body: &Block) -> FlatBody {
    let mut ops = Vec::new();
    flatten_block(body, &mut ops);
    FlatBody { ops }
}

fn flatten_block(block: &Block, ops: &mut Vec<FlatOp>) {
    for stmt in block {
        match stmt {
            Stmt::Instr(i) => ops.push(FlatOp::Instr(i.id, i.op.clone())),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let branch_at = ops.len();
                ops.push(FlatOp::Jump { target: 0 }); // placeholder
                flatten_block(then_blk, ops);
                if else_blk.is_empty() {
                    let after = ops.len();
                    ops[branch_at] = match cond {
                        Cond::Opaque => FlatOp::Choice { target: after },
                        c => FlatOp::BranchIfNot {
                            cond: *c,
                            target: after,
                        },
                    };
                } else {
                    let jump_at = ops.len();
                    ops.push(FlatOp::Jump { target: 0 }); // placeholder
                    let else_start = ops.len();
                    flatten_block(else_blk, ops);
                    let after = ops.len();
                    ops[branch_at] = match cond {
                        Cond::Opaque => FlatOp::Choice { target: else_start },
                        c => FlatOp::BranchIfNot {
                            cond: *c,
                            target: else_start,
                        },
                    };
                    ops[jump_at] = FlatOp::Jump { target: after };
                }
            }
            Stmt::Loop { body } => {
                let head = ops.len();
                ops.push(FlatOp::Jump { target: 0 }); // placeholder choice
                flatten_block(body, ops);
                ops.push(FlatOp::Jump { target: head });
                let after = ops.len();
                ops[head] = FlatOp::Choice { target: after };
            }
            Stmt::Sync { lock, body } => {
                ops.push(FlatOp::MonitorEnter { lock: *lock });
                flatten_block(body, ops);
                ops.push(FlatOp::MonitorExit { lock: *lock });
            }
        }
    }
}

/// Cache of flattened method bodies.
#[derive(Debug, Default)]
pub struct CodeCache {
    bodies: HashMap<MethodId, Rc<FlatBody>>,
}

impl CodeCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or flatten) the body of a method.
    pub fn body(&mut self, program: &Program, m: MethodId) -> Rc<FlatBody> {
        self.bodies
            .entry(m)
            .or_insert_with(|| Rc::new(flatten(program.method(m).body())))
            .clone()
    }
}

/// Value provenance: the load that produced a local's value and, when
/// the value is an explicitly freed null, the free that wrote it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Prov {
    /// The `Load` instruction the value came from.
    pub loaded_from: Option<InstrId>,
    /// The `StoreNull` that wrote the null that was loaded.
    pub freed_by: Option<InstrId>,
}

/// One activation frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Flattened code.
    pub code: Rc<FlatBody>,
    /// Program counter into `code.ops`.
    pub pc: usize,
    /// Local slots (slot 0 = `this`).
    pub locals: Vec<Value>,
    /// Where each local's current value came from (used to attribute
    /// NPEs to static use sites and to the frees that wrote the null).
    pub provenance: Vec<Prov>,
    /// Destination local in the *caller* for the return value.
    pub ret_dst: Option<Local>,
    /// Loop iterations entered per loop head, in pc order (the world
    /// bounds them by its `MAX_LOOP_ITERS`).
    pub loop_budget: Vec<(usize, u32)>,
}

impl Frame {
    /// Fresh frame for `method` with `this` bound.
    #[must_use]
    pub fn new(program: &Program, cache: &mut CodeCache, method: MethodId, this: Value) -> Frame {
        let m = program.method(method);
        let n = m.num_locals().max(1) as usize;
        let mut locals = vec![Value::Null; n];
        locals[0] = this;
        Frame {
            method,
            code: cache.body(program, method),
            pc: 0,
            locals,
            provenance: vec![Prov::default(); n],
            ret_dst: None,
            loop_budget: Vec::new(),
        }
    }

    /// Read a local.
    #[must_use]
    pub fn get(&self, l: Local) -> Value {
        self.locals.get(l.index()).copied().unwrap_or(Value::Null)
    }

    /// Write a local with provenance.
    pub fn set(&mut self, l: Local, v: Value, prov: Prov) {
        if l.index() < self.locals.len() {
            self.locals[l.index()] = v;
            self.provenance[l.index()] = prov;
        }
    }

    /// The provenance of a local's current value.
    #[must_use]
    pub fn provenance_of(&self, l: Local) -> Prov {
        self.provenance.get(l.index()).copied().unwrap_or_default()
    }

    /// Iterations entered so far at the loop head (or choice) at `pc`.
    pub(crate) fn loop_iters(&self, pc: usize) -> u32 {
        self.loop_budget
            .binary_search_by_key(&pc, |&(head, _)| head)
            .map_or(0, |i| self.loop_budget[i].1)
    }

    /// Count one more iteration entered at the loop head at `pc`.
    pub(crate) fn enter_loop(&mut self, pc: usize) {
        match self
            .loop_budget
            .binary_search_by_key(&pc, |&(head, _)| head)
        {
            Ok(i) => self.loop_budget[i].1 += 1,
            Err(i) => self.loop_budget.insert(i, (pc, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_android::ClassRole;
    use nadroid_ir::ProgramBuilder;

    #[test]
    fn flattening_if_else() {
        let mut b = ProgramBuilder::new("F");
        let c = b.add_class("C", ClassRole::Plain);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "m");
        m.if_cond(
            Cond::NotNull {
                base: Local::THIS,
                field: f,
            },
            |m| {
                m.use_field(f);
            },
            |m| {
                m.free_field(f);
            },
        );
        m.ret(None);
        let mid = m.finish();
        let p = b.build();
        let flat = flatten(p.method(mid).body());
        // branch, load, deref, jump, free, return
        assert_eq!(flat.ops.len(), 6);
        assert!(matches!(flat.ops[0], FlatOp::BranchIfNot { target: 4, .. }));
        assert!(matches!(flat.ops[3], FlatOp::Jump { target: 5 }));
    }

    #[test]
    fn flattening_loop_has_bounded_shape() {
        let mut b = ProgramBuilder::new("F");
        let c = b.add_class("C", ClassRole::Plain);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "m");
        m.loop_(|m| {
            m.free_field(f);
        });
        let mid = m.finish();
        let p = b.build();
        let flat = flatten(p.method(mid).body());
        // choice(exit), free, jump-back
        assert_eq!(flat.ops.len(), 3);
        assert!(matches!(flat.ops[0], FlatOp::Choice { target: 3 }));
        assert!(matches!(flat.ops[2], FlatOp::Jump { target: 0 }));
    }

    #[test]
    fn flattening_sync_brackets() {
        let mut b = ProgramBuilder::new("F");
        let c = b.add_class("C", ClassRole::Plain);
        let f = b.add_field(c, "x", None);
        let mut m = b.method(c, "m");
        let lock = m.new_local();
        m.sync(lock, |m| {
            m.free_field(f);
        });
        let mid = m.finish();
        let p = b.build();
        let flat = flatten(p.method(mid).body());
        assert!(matches!(flat.ops[0], FlatOp::MonitorEnter { .. }));
        assert!(matches!(flat.ops[2], FlatOp::MonitorExit { .. }));
    }

    #[test]
    fn heap_roundtrip() {
        let mut h = Heap::new();
        let c = ClassId::from_raw(0);
        let f = FieldId::from_raw(0);
        let a = h.alloc(c);
        assert_eq!(h.load(a, f), Value::Null);
        let b2 = h.alloc(c);
        h.store(a, f, Value::Obj(b2));
        assert_eq!(h.load(a, f), Value::Obj(b2));
        assert_eq!(h.class_of(a), c);
    }

    #[test]
    fn heap_slots_hold_only_references_and_frees_in_order() {
        let mut h = Heap::new();
        let c = ClassId::from_raw(0);
        let (f, g) = (FieldId::from_raw(0), FieldId::from_raw(1));
        let free = InstrId::from_raw(7);
        let (a, b) = (h.alloc(c), h.alloc(c));
        h.store(b, f, Value::Obj(a));
        h.store_null(a, g, free);
        h.store(a, f, Value::Obj(b));
        let order: Vec<_> = h.slots().iter().map(|s| (s.obj, s.field)).collect();
        assert_eq!(order, [(a, f), (a, g), (b, f)]);
        assert_eq!(h.null_writer(a, g), Some(free));
        // A plain store of null unsets the field; a reference clears the
        // free that wrote the old null.
        h.store(b, f, Value::Null);
        h.store(a, g, Value::Obj(a));
        assert_eq!(h.load(b, f), Value::Null);
        assert_eq!(h.null_writer(a, g), None);
        assert_eq!(h.slots().len(), 2);
        assert_eq!(h.null_writers().count(), 0);
    }
}
