//! Runtime representation: heap, flattened code, frames, and tasks.

use nadroid_ir::{Block, ClassId, Cond, FieldId, InstrId, Local, MethodId, Op, Program, Stmt};
use std::collections::HashMap;
use std::rc::Rc;

/// A reference into the interpreter heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapRef(pub u32);

/// A runtime reference value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// One heap object: its class and reference fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapObj {
    /// The object's class.
    pub class: ClassId,
    /// Field values (unset fields read as null).
    pub fields: HashMap<FieldId, Value>,
}

/// The interpreter heap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Heap {
    objects: Vec<HeapObj>,
    /// Which free instruction wrote the current null in a field, for
    /// attributing NPEs to specific (use, free) pairs.
    null_writers: HashMap<(u32, FieldId), InstrId>,
}

impl Heap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh object of `class`.
    pub fn alloc(&mut self, class: ClassId) -> HeapRef {
        let r = HeapRef(self.objects.len() as u32);
        self.objects.push(HeapObj {
            class,
            fields: HashMap::new(),
        });
        r
    }

    /// Read a field (unset fields are null).
    #[must_use]
    pub fn load(&self, r: HeapRef, field: FieldId) -> Value {
        self.objects[r.0 as usize]
            .fields
            .get(&field)
            .copied()
            .unwrap_or(Value::Null)
    }

    /// Write a field.
    pub fn store(&mut self, r: HeapRef, field: FieldId, v: Value) {
        self.objects[r.0 as usize].fields.insert(field, v);
        self.null_writers.remove(&(r.0, field));
    }

    /// Write null into a field, recording the freeing instruction.
    pub fn store_null(&mut self, r: HeapRef, field: FieldId, writer: InstrId) {
        self.objects[r.0 as usize].fields.insert(field, Value::Null);
        self.null_writers.insert((r.0, field), writer);
    }

    /// The free instruction that wrote the current null in `r.field`,
    /// if the null came from an explicit `putfield null`.
    #[must_use]
    pub fn null_writer(&self, r: HeapRef, field: FieldId) -> Option<InstrId> {
        self.null_writers.get(&(r.0, field)).copied()
    }

    /// Every explicitly freed field holding its null, with the free
    /// instruction that wrote it, in no particular order.
    pub fn null_writers(&self) -> impl Iterator<Item = (HeapRef, FieldId, InstrId)> + '_ {
        self.null_writers
            .iter()
            .map(|(&(r, field), &writer)| (HeapRef(r), field, writer))
    }

    /// Every object, indexed by [`HeapRef`].
    #[must_use]
    pub fn objects(&self) -> &[HeapObj] {
        &self.objects
    }

    /// The class of an object.
    #[must_use]
    pub fn class_of(&self, r: HeapRef) -> ClassId {
        self.objects[r.0 as usize].class
    }

    /// Number of live objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Remaining loop iterations allowed per loop head (explorer bound).
    pub loop_budget: HashMap<usize, u32>,
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
            loop_budget: HashMap::new(),
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
}
