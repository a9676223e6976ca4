//! The context-sensitive inclusion-constraint solver.
//!
//! Implements k-object-sensitivity as in Chord (§5, following Milanova et
//! al.): a method is analyzed once per *receiver-object context* — the
//! allocation chain of its receiver truncated to length `k` — and objects
//! are named by their allocation site extended with the allocating
//! context. Contexts are discovered on the fly while the inclusion
//! constraints propagate (pure Datalog cannot create contexts
//! existentially, which is why bddbddb pre-materializes domains; this
//! solver creates them during the fixpoint instead).
//!
//! The solver keeps its state in index tables. Each propagation node
//! owns its points-to set (in insertion order), its copy-edge successors
//! and its load, store and invoke use lists, all in one `Vec` indexed by
//! `NodeId`. Membership of a (node, object) fact and of a (from, to)
//! edge is one probe in an integer-keyed set, and nodes and
//! (method, context) clones are found through integer-keyed maps. No
//! table is sized by a method's declared local count.

use crate::tables::{AllocKey, ObjId, ObjTable};
use nadroid_ir::{Callee, ClassId, Local, MethodId, Op, Program};
use nadroid_obs as obs;
use nadroid_threadify::{SpawnVia, ThreadModel};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// An interned receiver context: an allocation chain of length ≤ k.
#[derive(Debug, Clone, Copy)]
struct CtxId(u32);

/// A propagation node: a context-cloned variable or return value, or a
/// heap cell.
#[derive(Debug, Clone, Copy)]
enum NodeKey {
    Var { method: MethodId, local: Local },
    Ret,
    Heap { obj: ObjId, field: u32 },
}

#[derive(Debug, Clone, Copy)]
struct NodeId(u32);

/// One propagation node and everything that fires when its points-to
/// set grows. Every list is append-only.
#[derive(Debug)]
struct Node {
    key: NodeKey,
    /// The points-to set, in insertion order; membership is in
    /// [`Solver::facts`].
    pts: Vec<ObjId>,
    /// Copy edges (subset constraints) out of the node.
    succ: Vec<NodeId>,
    /// Loads with this node as base: (field, dst node).
    loads: Vec<(u32, NodeId)>,
    /// Stores with this node as base: (field, src node).
    stores: Vec<(u32, NodeId)>,
    /// Invoke sites with this node as receiver.
    invokes: Vec<InvokeUse>,
}

impl Node {
    fn new(key: NodeKey) -> Node {
        Node {
            key,
            pts: Vec::new(),
            succ: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            invokes: Vec::new(),
        }
    }
}

/// The node `table` holds under `key`, added to `nodes` as a fresh node
/// named `name` if absent.
fn node_in(table: &mut IntMap<NodeId>, nodes: &mut Vec<Node>, key: u64, name: NodeKey) -> NodeId {
    let next = NodeId(nodes.len() as u32);
    let id = *table.entry(key).or_insert(next);
    if id.0 == next.0 {
        nodes.push(Node::new(name));
    }
    id
}

/// One (method, context) clone: its return node once some `return` or
/// call site needs it, and whether its body has been expanded.
#[derive(Debug)]
struct MethodClone {
    method: MethodId,
    ctx: CtxId,
    ret: Option<NodeId>,
    expanded: bool,
}

#[derive(Debug, Clone)]
struct InvokeUse {
    callee: MethodId,
    /// Shared so re-dispatching the use for each new receiver object is a
    /// refcount bump, not a fresh argument-vector allocation.
    args: Rc<[NodeId]>,
    dst: Option<NodeId>,
}

/// The hasher of the solver's integer-keyed tables. Every key is one
/// `u64` packed from ids the solver or the IR hands out densely and from
/// 16-bit local slots, so an input program cannot pick keys that
/// collide, and a multiply that folds the high half into the low half
/// spreads them across buckets at a fraction of SipHash's cost.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;
type IntSet = HashSet<u64, BuildHasherDefault<IntHasher>>;

/// Two 32-bit ids as one integer key.
fn pack(hi: u32, lo: u32) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

/// Solver output: the object table and every non-empty points-to fact
/// merged over contexts, each list sorted and free of duplicates.
#[derive(Debug)]
pub(crate) struct Solution {
    pub objs: ObjTable,
    /// (method, local, object) facts.
    pub vars: Vec<(MethodId, Local, ObjId)>,
    /// (object, field, object) heap facts.
    pub heap: Vec<(ObjId, u32, ObjId)>,
}

pub(crate) fn solve(program: &Program, threads: &ThreadModel, k: u32) -> Solution {
    Solver::new(program, threads, k).run()
}

struct Solver<'p> {
    program: &'p Program,
    threads: &'p ThreadModel,
    k: usize,
    objs: ObjTable,
    /// Receiver contexts by id, and their ids by chain.
    ctxs: Vec<Vec<AllocKey>>,
    ctx_ids: HashMap<Vec<AllocKey>, CtxId>,
    /// Each object's receiver context, interned on its first use as a
    /// receiver.
    obj_ctx: Vec<Option<CtxId>>,
    /// Each component class's singleton object, once created.
    singletons: IntMap<ObjId>,
    nodes: Vec<Node>,
    /// (method, context) clones by id, and their ids by packed key.
    clones: Vec<MethodClone>,
    clone_ids: IntMap<u32>,
    /// Var nodes by (clone, local) and heap nodes by (object, field).
    var_nodes: IntMap<NodeId>,
    heap_nodes: IntMap<NodeId>,
    /// Membership of (node, object) facts and of (from, to) copy edges.
    facts: IntSet,
    edges: IntSet,
    /// pending (node, obj) facts.
    queue: VecDeque<(NodeId, ObjId)>,
    /// thread-root subscriptions on (method, local): objects arriving at
    /// any context clone of that variable seed the root's receiver.
    root_subs: IntMap<Vec<MethodId>>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, threads: &'p ThreadModel, k: u32) -> Self {
        // Room for about one node, fact and edge per instruction, so a
        // small program solves without regrowing its tables.
        let n = program.instr_count();
        Solver {
            program,
            threads,
            k: k as usize,
            objs: ObjTable::new(),
            ctxs: Vec::new(),
            ctx_ids: HashMap::new(),
            obj_ctx: Vec::new(),
            singletons: IntMap::default(),
            nodes: Vec::with_capacity(n),
            clones: Vec::new(),
            clone_ids: IntMap::default(),
            var_nodes: IntMap::with_capacity_and_hasher(n, Default::default()),
            heap_nodes: IntMap::default(),
            facts: IntSet::with_capacity_and_hasher(n, Default::default()),
            edges: IntSet::with_capacity_and_hasher(n, Default::default()),
            queue: VecDeque::new(),
            root_subs: IntMap::default(),
        }
    }

    fn ctx(&mut self, chain: Vec<AllocKey>) -> CtxId {
        if let Some(&c) = self.ctx_ids.get(&chain) {
            return c;
        }
        let id = CtxId(self.ctxs.len() as u32);
        self.ctx_ids.insert(chain.clone(), id);
        self.ctxs.push(chain);
        id
    }

    /// The receiver context for a callee invoked on object `o`: the
    /// object's chain truncated to k.
    fn ctx_of_obj(&mut self, o: ObjId) -> CtxId {
        let i = o.0 as usize;
        if let Some(Some(c)) = self.obj_ctx.get(i) {
            return *c;
        }
        let chain: Vec<AllocKey> = self.objs.chain(o).iter().copied().take(self.k).collect();
        let c = self.ctx(chain);
        if self.obj_ctx.len() <= i {
            self.obj_ctx.resize(i + 1, None);
        }
        self.obj_ctx[i] = Some(c);
        c
    }

    fn clone_of(&mut self, method: MethodId, ctx: CtxId) -> usize {
        let next = self.clones.len() as u32;
        let id = *self
            .clone_ids
            .entry(pack(method.raw(), ctx.0))
            .or_insert(next);
        if id == next {
            self.clones.push(MethodClone {
                method,
                ctx,
                ret: None,
                expanded: false,
            });
        }
        id as usize
    }

    fn var(&mut self, clone: usize, local: Local) -> NodeId {
        let method = self.clones[clone].method;
        let key = (clone as u64) << 16 | u64::from(local.0);
        node_in(
            &mut self.var_nodes,
            &mut self.nodes,
            key,
            NodeKey::Var { method, local },
        )
    }

    fn ret(&mut self, clone: usize) -> NodeId {
        if let Some(n) = self.clones[clone].ret {
            return n;
        }
        let n = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(NodeKey::Ret));
        self.clones[clone].ret = Some(n);
        n
    }

    fn heap(&mut self, obj: ObjId, field: u32) -> NodeId {
        node_in(
            &mut self.heap_nodes,
            &mut self.nodes,
            pack(obj.0, field),
            NodeKey::Heap { obj, field },
        )
    }

    fn add_obj(&mut self, node: NodeId, obj: ObjId) {
        if self.facts.insert(pack(node.0, obj.0)) {
            self.nodes[node.0 as usize].pts.push(obj);
            self.queue.push_back((node, obj));
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.edges.insert(pack(from.0, to.0)) {
            return;
        }
        self.nodes[from.0 as usize].succ.push(to);
        for i in 0..self.nodes[from.0 as usize].pts.len() {
            let o = self.nodes[from.0 as usize].pts[i];
            self.add_obj(to, o);
        }
    }

    fn singleton_obj(&mut self, class: ClassId) -> ObjId {
        let objs = &mut self.objs;
        *self
            .singletons
            .entry(u64::from(class.raw()))
            .or_insert_with(|| objs.push(vec![AllocKey::Singleton(class)], Some(class)))
    }

    fn run(mut self) -> Solution {
        self.seed_thread_roots();
        let (pops, max_worklist) = self.propagate();
        if obs::recording() {
            obs::counter("pointsto.queue_pops", pops);
            obs::gauge_max("pointsto.max_worklist", max_worklist as u64);
            obs::counter("pointsto.nodes", self.nodes.len() as u64);
            obs::counter("pointsto.contexts", self.ctxs.len() as u64);
            obs::counter("pointsto.copy_edges", self.edges.len() as u64);
            let expanded = self.clones.iter().filter(|c| c.expanded).count();
            obs::counter("pointsto.reached_method_contexts", expanded as u64);
            obs::counter("pointsto.objects", self.objs.len() as u64);
        }
        self.finish()
    }

    fn seed_thread_roots(&mut self) {
        // Collect seeds first to avoid borrowing `self.threads` across
        // mutations.
        let mut singleton_roots: Vec<(MethodId, ClassId)> = Vec::new();
        let mut posted_roots: Vec<(MethodId, MethodId, Local)> = Vec::new();
        for (_, t) in self.threads.threads() {
            let Some(root) = t.root() else { continue };
            match t.via() {
                SpawnVia::Component | SpawnVia::Manifest => {
                    if let Some(c) = t.class() {
                        singleton_roots.push((root, c));
                    }
                }
                SpawnVia::Root => {}
                _ => {
                    if let Some(site) = t.origin_site() {
                        let m = self.program.instr_method(site);
                        if let Op::Android(a) = &self.program.instr(site).op {
                            if let Some(operand) = a.operand() {
                                posted_roots.push((root, m, operand));
                            }
                        }
                    }
                }
            }
        }
        for (root, class) in singleton_roots {
            let o = self.singleton_obj(class);
            self.spawn_method(root, o);
        }
        for (root, m, operand) in posted_roots {
            self.root_subs
                .entry(pack(m.raw(), u32::from(operand.0)))
                .or_default()
                .push(root);
        }
    }

    /// Reach `method` with receiver object `recv`: expand its body under
    /// the receiver's context and bind `this`.
    fn spawn_method(&mut self, method: MethodId, recv: ObjId) {
        let ctx = self.ctx_of_obj(recv);
        let clone = self.clone_of(method, ctx);
        let this = self.var(clone, Local::THIS);
        self.expand(clone);
        self.add_obj(this, recv);
    }

    /// Generate the constraint graph of one (method, context) clone.
    fn expand(&mut self, clone: usize) {
        if self.clones[clone].expanded {
            return;
        }
        self.clones[clone].expanded = true;
        let ctx = self.clones[clone].ctx;
        // Copy the `&'p Program` reference out of `self` so the body
        // borrow is independent of the `&mut self` the closure needs —
        // the old `body().clone()` here showed up in profiles, paid once
        // per (method, context) clone.
        let program = self.program;
        let body = program.method(self.clones[clone].method).body();
        body.for_each_instr(&mut |i| match &i.op {
            Op::New { dst, class } => {
                // A context holds at most k keys, so the chain holds at
                // most k + 1. The clone is expanded once and distinct
                // contexts have distinct chains, so the object is new.
                let ctx_chain = &self.ctxs[ctx.0 as usize];
                let mut chain = Vec::with_capacity(1 + ctx_chain.len());
                chain.push(AllocKey::Site(i.id));
                chain.extend_from_slice(ctx_chain);
                let o = self.objs.push(chain, Some(*class));
                let d = self.var(clone, *dst);
                self.add_obj(d, o);
            }
            Op::LoadStatic { dst, class } => {
                let o = self.singleton_obj(*class);
                let d = self.var(clone, *dst);
                self.add_obj(d, o);
            }
            Op::Move { dst, src } => {
                let s = self.var(clone, *src);
                let d = self.var(clone, *dst);
                self.add_edge(s, d);
            }
            Op::Load { dst, base, field } => {
                let b = self.var(clone, *base);
                let d = self.var(clone, *dst);
                let field = field.raw();
                self.nodes[b.0 as usize].loads.push((field, d));
                // The objects already at `b`; later ones arrive through
                // the load use.
                for j in 0..self.nodes[b.0 as usize].pts.len() {
                    let o = self.nodes[b.0 as usize].pts[j];
                    let h = self.heap(o, field);
                    self.add_edge(h, d);
                }
            }
            Op::Store { base, field, src } => {
                let b = self.var(clone, *base);
                let s = self.var(clone, *src);
                let field = field.raw();
                self.nodes[b.0 as usize].stores.push((field, s));
                for j in 0..self.nodes[b.0 as usize].pts.len() {
                    let o = self.nodes[b.0 as usize].pts[j];
                    let h = self.heap(o, field);
                    self.add_edge(s, h);
                }
            }
            Op::Invoke {
                dst,
                callee: Callee::Method(callee),
                recv,
                args,
            } => {
                let arg_nodes: Rc<[NodeId]> = args.iter().map(|a| self.var(clone, *a)).collect();
                let dst_node = dst.map(|d| self.var(clone, d));
                match recv {
                    Some(r) => {
                        let rn = self.var(clone, *r);
                        self.nodes[rn.0 as usize].invokes.push(InvokeUse {
                            callee: *callee,
                            args: Rc::clone(&arg_nodes),
                            dst: dst_node,
                        });
                        for j in 0..self.nodes[rn.0 as usize].pts.len() {
                            let o = self.nodes[rn.0 as usize].pts[j];
                            self.bind_call(*callee, o, &arg_nodes, dst_node);
                        }
                    }
                    None => {
                        // Static-style call: single empty context.
                        let empty = self.ctx(Vec::new());
                        let callee_clone = self.clone_of(*callee, empty);
                        self.expand(callee_clone);
                        self.wire_call(callee_clone, &arg_nodes, dst_node);
                    }
                }
            }
            Op::Return { val: Some(v) } => {
                let s = self.var(clone, *v);
                let r = self.ret(clone);
                self.add_edge(s, r);
            }
            _ => {}
        });
    }

    /// Bind one receiver object at a virtual call: expand the callee in
    /// the object's context, seed `this`, and wire args/return.
    fn bind_call(
        &mut self,
        callee: MethodId,
        recv_obj: ObjId,
        args: &[NodeId],
        dst: Option<NodeId>,
    ) {
        let cctx = self.ctx_of_obj(recv_obj);
        let clone = self.clone_of(callee, cctx);
        self.expand(clone);
        let this = self.var(clone, Local::THIS);
        self.add_obj(this, recv_obj);
        self.wire_call(clone, args, dst);
    }

    fn wire_call(&mut self, clone: usize, args: &[NodeId], dst: Option<NodeId>) {
        let nparams = self.program.method(self.clones[clone].method).param_count();
        for (p, &a) in (1..=nparams).zip(args) {
            let p = self.var(clone, Local(p));
            self.add_edge(a, p);
        }
        if let Some(d) = dst {
            let r = self.ret(clone);
            self.add_edge(r, d);
        }
    }

    /// Returns (queue pops, max observed worklist length) — cheap local
    /// tallies so the hot loop carries no recorder lookups.
    fn propagate(&mut self) -> (u64, usize) {
        let mut pops = 0u64;
        let mut max_worklist = self.queue.len();
        // Cooperative cancellation: once before draining (so an
        // already-expired deadline never pays for even a small fixpoint)
        // and then once per 512-pop batch — cheap enough to be invisible
        // in profiles, frequent enough that a deadline or Ctrl-C stops
        // the solve promptly instead of finishing the fixpoint.
        obs::cancel::checkpoint();
        // The node's lists are append-only (handlers may grow them
        // mid-iteration via `expand`), so index loops that re-check the
        // length each step are both borrow-safe and allocation-free;
        // processing entries appended mid-loop is harmless because
        // `bind_call`/`add_edge`/`add_obj` are idempotent.
        while let Some((node, obj)) = self.queue.pop_front() {
            pops += 1;
            if pops & 0x1FF == 0 {
                obs::cancel::checkpoint();
            }
            max_worklist = max_worklist.max(self.queue.len() + 1);
            let n = node.0 as usize;
            // Copy edges.
            let mut i = 0;
            while let Some(&s) = self.nodes[n].succ.get(i) {
                self.add_obj(s, obj);
                i += 1;
            }
            // Loads with this node as base.
            let mut i = 0;
            while let Some(&(field, dst)) = self.nodes[n].loads.get(i) {
                let h = self.heap(obj, field);
                self.add_edge(h, dst);
                i += 1;
            }
            // Stores with this node as base.
            let mut i = 0;
            while let Some(&(field, src)) = self.nodes[n].stores.get(i) {
                let h = self.heap(obj, field);
                self.add_edge(src, h);
                i += 1;
            }
            // Virtual calls with this node as receiver. The `InvokeUse`
            // clone is a refcount bump on the shared argument slice.
            let mut i = 0;
            while let Some(u) = self.nodes[n].invokes.get(i).cloned() {
                self.bind_call(u.callee, obj, &u.args, u.dst);
                i += 1;
            }
            // Thread-root subscriptions on this variable.
            if let NodeKey::Var { method, local } = self.nodes[n].key {
                let key = pack(method.raw(), u32::from(local.0));
                let mut i = 0;
                while let Some(&root) = self.root_subs.get(&key).and_then(|roots| roots.get(i)) {
                    self.spawn_method(root, obj);
                    i += 1;
                }
            }
        }
        (pops, max_worklist)
    }

    fn finish(self) -> Solution {
        let mut vars = Vec::new();
        let mut heap = Vec::new();
        for node in &self.nodes {
            match node.key {
                NodeKey::Var { method, local } => {
                    vars.extend(node.pts.iter().map(|&o| (method, local, o)));
                }
                NodeKey::Ret => {}
                NodeKey::Heap { obj, field } => {
                    heap.extend(node.pts.iter().map(|&o| (obj, field, o)));
                }
            }
        }
        vars.sort_unstable();
        vars.dedup();
        heap.sort_unstable();
        Solution {
            objs: self.objs,
            vars,
            heap,
        }
    }
}
