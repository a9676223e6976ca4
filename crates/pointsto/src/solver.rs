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

use crate::tables::{AllocKey, ObjId, ObjTable};
use nadroid_ir::{Callee, ClassId, Local, MethodId, Op, Program};
use nadroid_obs as obs;
use nadroid_threadify::{SpawnVia, ThreadModel};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// An interned receiver context: an allocation chain of length ≤ k.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CtxId(u32);

/// A propagation node: a context-cloned variable or a heap cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    Var {
        method: MethodId,
        local: Local,
        ctx: CtxId,
    },
    Ret {
        method: MethodId,
        ctx: CtxId,
    },
    Heap {
        obj: ObjId,
        field: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeId(u32);

#[derive(Debug, Default)]
struct Interner {
    ctxs: Vec<Vec<AllocKey>>,
    ctx_ids: HashMap<Vec<AllocKey>, CtxId>,
    nodes: Vec<NodeKey>,
    node_ids: HashMap<NodeKey, NodeId>,
}

impl Interner {
    fn ctx(&mut self, chain: Vec<AllocKey>) -> CtxId {
        if let Some(&c) = self.ctx_ids.get(&chain) {
            return c;
        }
        let id = CtxId(self.ctxs.len() as u32);
        self.ctx_ids.insert(chain.clone(), id);
        self.ctxs.push(chain);
        id
    }

    fn ctx_chain(&self, c: CtxId) -> &[AllocKey] {
        &self.ctxs[c.0 as usize]
    }

    fn node(&mut self, key: NodeKey) -> NodeId {
        if let Some(&n) = self.node_ids.get(&key) {
            return n;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.node_ids.insert(key, id);
        self.nodes.push(key);
        id
    }
}

/// Solver output: merged (context-insensitive view) points-to sets plus
/// the object table.
#[derive(Debug)]
pub(crate) struct Solution {
    pub objs: ObjTable,
    /// (method, local) -> objects, merged over contexts.
    pub var_pts: HashMap<(MethodId, Local), Vec<ObjId>>,
    /// (obj, field) -> objects.
    pub heap: HashMap<(ObjId, u32), Vec<ObjId>>,
}

pub(crate) fn solve(program: &Program, threads: &ThreadModel, k: u32) -> Solution {
    Solver::new(program, threads, k).run()
}

struct Solver<'p> {
    program: &'p Program,
    threads: &'p ThreadModel,
    k: usize,
    intern: Interner,
    objs: ObjTable,
    /// pts per node.
    pts: Vec<HashSet<ObjId>>,
    /// copy edges (subset constraints) out of each node.
    succ: Vec<Vec<NodeId>>,
    /// membership mirror of `succ`, so edge insertion is O(1) instead of
    /// an O(degree) scan of the successor list.
    edge_set: HashSet<(NodeId, NodeId)>,
    /// pending (node, obj) facts.
    queue: VecDeque<(NodeId, ObjId)>,
    /// (method, ctx) pairs already expanded.
    reached: HashSet<(MethodId, CtxId)>,
    /// Dynamic behaviors triggered when a node's pts grows:
    /// loads with this node as base: (field, dst node).
    load_uses: HashMap<NodeId, Vec<(u32, NodeId)>>,
    /// stores with this node as base: (field, src node).
    store_uses: HashMap<NodeId, Vec<(u32, NodeId)>>,
    /// invoke sites with this node as receiver:
    /// (callee, args nodes, param count, dst node).
    invoke_uses: HashMap<NodeId, Vec<InvokeUse>>,
    /// thread-root subscriptions on (method, local): objects arriving at
    /// any context clone of that variable seed the root's receiver.
    root_subs: HashMap<(MethodId, Local), Vec<MethodId>>,
}

#[derive(Debug, Clone)]
struct InvokeUse {
    callee: MethodId,
    /// Shared so re-dispatching the use for each new receiver object is a
    /// refcount bump, not a fresh argument-vector allocation.
    args: Rc<[NodeId]>,
    dst: Option<NodeId>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, threads: &'p ThreadModel, k: u32) -> Self {
        Solver {
            program,
            threads,
            k: k as usize,
            intern: Interner::default(),
            objs: ObjTable::new(),
            pts: Vec::new(),
            succ: Vec::new(),
            edge_set: HashSet::new(),
            queue: VecDeque::new(),
            reached: HashSet::new(),
            load_uses: HashMap::new(),
            store_uses: HashMap::new(),
            invoke_uses: HashMap::new(),
            root_subs: HashMap::new(),
        }
    }

    fn node(&mut self, key: NodeKey) -> NodeId {
        let id = self.intern.node(key);
        while self.pts.len() <= id.0 as usize {
            self.pts.push(HashSet::new());
            self.succ.push(Vec::new());
        }
        id
    }

    fn add_obj(&mut self, node: NodeId, obj: ObjId) {
        if self.pts[node.0 as usize].insert(obj) {
            self.queue.push_back((node, obj));
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.edge_set.insert((from, to)) {
            return;
        }
        self.succ[from.0 as usize].push(to);
        let existing: Vec<ObjId> = self.pts[from.0 as usize].iter().copied().collect();
        for o in existing {
            self.add_obj(to, o);
        }
    }

    fn singleton_obj(&mut self, class: ClassId) -> ObjId {
        self.objs
            .intern(vec![AllocKey::Singleton(class)], Some(class))
    }

    /// The receiver context for a callee invoked on object `o`: the
    /// object's chain truncated to k.
    fn ctx_of_obj(&mut self, o: ObjId) -> CtxId {
        let chain: Vec<AllocKey> = self.objs.chain(o).iter().copied().take(self.k).collect();
        self.intern.ctx(chain)
    }

    fn run(mut self) -> Solution {
        self.seed_thread_roots();
        let (pops, max_worklist) = self.propagate();
        if obs::recording() {
            obs::counter("pointsto.queue_pops", pops);
            obs::gauge_max("pointsto.max_worklist", max_worklist as u64);
            obs::counter("pointsto.nodes", self.intern.nodes.len() as u64);
            obs::counter("pointsto.contexts", self.intern.ctxs.len() as u64);
            obs::counter("pointsto.copy_edges", self.edge_set.len() as u64);
            obs::counter(
                "pointsto.reached_method_contexts",
                self.reached.len() as u64,
            );
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
            self.root_subs.entry((m, operand)).or_default().push(root);
        }
    }

    /// Reach `method` with receiver object `recv`: expand its body under
    /// the receiver's context and bind `this`.
    fn spawn_method(&mut self, method: MethodId, recv: ObjId) {
        let ctx = self.ctx_of_obj(recv);
        let this = self.node(NodeKey::Var {
            method,
            local: Local::THIS,
            ctx,
        });
        self.expand(method, ctx);
        self.add_obj(this, recv);
    }

    /// Generate the constraint graph of one (method, context) clone.
    fn expand(&mut self, method: MethodId, ctx: CtxId) {
        if !self.reached.insert((method, ctx)) {
            return;
        }
        let var = |s: &mut Self, l: Local| {
            s.node(NodeKey::Var {
                method,
                local: l,
                ctx,
            })
        };
        // Copy the `&'p Program` reference out of `self` so the body
        // borrow is independent of the `&mut self` the closure needs —
        // the old `body().clone()` here showed up in profiles, paid once
        // per (method, context) clone.
        let program = self.program;
        let body = program.method(method).body();
        body.for_each_instr(&mut |i| match &i.op {
            Op::New { dst, class } => {
                let mut chain = vec![AllocKey::Site(i.id)];
                chain.extend(self.intern.ctx_chain(ctx).to_vec());
                chain.truncate(self.k + 1);
                let o = self.objs.intern(chain, Some(*class));
                let d = var(self, *dst);
                self.add_obj(d, o);
            }
            Op::LoadStatic { dst, class } => {
                let o = self.singleton_obj(*class);
                let d = var(self, *dst);
                self.add_obj(d, o);
            }
            Op::Move { dst, src } => {
                let s = var(self, *src);
                let d = var(self, *dst);
                self.add_edge(s, d);
            }
            Op::Load { dst, base, field } => {
                let b = var(self, *base);
                let d = var(self, *dst);
                self.load_uses.entry(b).or_default().push((field.raw(), d));
                let existing: Vec<ObjId> = self.pts[b.0 as usize].iter().copied().collect();
                for o in existing {
                    let h = self.node(NodeKey::Heap {
                        obj: o,
                        field: field.raw(),
                    });
                    self.add_edge(h, d);
                }
            }
            Op::Store { base, field, src } => {
                let b = var(self, *base);
                let s = var(self, *src);
                self.store_uses.entry(b).or_default().push((field.raw(), s));
                let existing: Vec<ObjId> = self.pts[b.0 as usize].iter().copied().collect();
                for o in existing {
                    let h = self.node(NodeKey::Heap {
                        obj: o,
                        field: field.raw(),
                    });
                    self.add_edge(s, h);
                }
            }
            Op::Invoke {
                dst,
                callee: Callee::Method(callee),
                recv,
                args,
            } => {
                let arg_nodes: Rc<[NodeId]> = args.iter().map(|a| var(self, *a)).collect();
                let dst_node = dst.map(|d| var(self, d));
                match recv {
                    Some(r) => {
                        let rn = var(self, *r);
                        let u = InvokeUse {
                            callee: *callee,
                            args: arg_nodes,
                            dst: dst_node,
                        };
                        self.invoke_uses.entry(rn).or_default().push(u.clone());
                        let existing: Vec<ObjId> =
                            self.pts[rn.0 as usize].iter().copied().collect();
                        for o in existing {
                            self.bind_call(u.callee, o, rn, &u.args, u.dst);
                        }
                    }
                    None => {
                        // Static-style call: single empty context.
                        let empty = self.intern.ctx(Vec::new());
                        self.expand(*callee, empty);
                        self.wire_call(*callee, empty, &arg_nodes, dst_node);
                    }
                }
            }
            Op::Return { val: Some(v) } => {
                let s = var(self, *v);
                let r = self.node(NodeKey::Ret { method, ctx });
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
        _recv_node: NodeId,
        args: &[NodeId],
        dst: Option<NodeId>,
    ) {
        let cctx = self.ctx_of_obj(recv_obj);
        self.expand(callee, cctx);
        let this = self.node(NodeKey::Var {
            method: callee,
            local: Local::THIS,
            ctx: cctx,
        });
        self.add_obj(this, recv_obj);
        self.wire_call(callee, cctx, args, dst);
    }

    fn wire_call(&mut self, callee: MethodId, cctx: CtxId, args: &[NodeId], dst: Option<NodeId>) {
        let nparams = self.program.method(callee).param_count();
        for (i, &a) in args.iter().enumerate() {
            if (i as u16) < nparams {
                let p = self.node(NodeKey::Var {
                    method: callee,
                    local: Local(i as u16 + 1),
                    ctx: cctx,
                });
                self.add_edge(a, p);
            }
        }
        if let Some(d) = dst {
            let r = self.node(NodeKey::Ret {
                method: callee,
                ctx: cctx,
            });
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
        // Every per-event `.clone()` of a use list in this loop used to be
        // a heap allocation on the solver's hottest path. The lists are
        // append-only (handlers may grow them mid-iteration via `expand`),
        // so index loops that re-check the length each step are both
        // borrow-safe and allocation-free; processing entries appended
        // mid-loop is harmless because `bind_call`/`add_edge`/`add_obj`
        // are idempotent.
        //
        // The drain proceeds in *epochs*: the items queued at epoch start
        // form the frontier, and a parallel read-only plan pass
        // pre-computes, for each frontier item, which snapshot copy-edge
        // targets still need its object inserted. The apply loop below
        // then pops items in exact FIFO order — pops, max_worklist,
        // checkpoint cadence, and every mutation (hence ObjId interning
        // order) are identical to the sequential drain; the plan only
        // lets it skip membership probes that were already satisfied at
        // the snapshot (pts sets only grow, so a satisfied probe stays a
        // no-op). See docs/parallelism.md for the determinism argument.
        while !self.queue.is_empty() {
            let frontier = self.queue.len();
            let plan = self.plan_epoch(frontier);
            for f in 0..frontier {
                let (node, obj) = self.queue.pop_front().expect("frontier item queued");
                pops += 1;
                if pops & 0x1FF == 0 {
                    obs::cancel::checkpoint();
                }
                max_worklist = max_worklist.max(self.queue.len() + 1);
                // Copy edges. With a plan, entries up to the snapshot
                // length are replaced by the pre-filtered target list;
                // entries appended to `succ[node]` since the snapshot
                // (by earlier items of this epoch) are walked live, as
                // the sequential loop would.
                let mut i = 0;
                if let Some(plan) = &plan {
                    let (snap_len, need_insert) = &plan[f];
                    for &s in need_insert {
                        self.add_obj(s, obj);
                    }
                    i = *snap_len;
                }
                while i < self.succ[node.0 as usize].len() {
                    let s = self.succ[node.0 as usize][i];
                    self.add_obj(s, obj);
                    i += 1;
                }
                // Loads with this node as base.
                let mut i = 0;
                while let Some(&(field, dst)) =
                    self.load_uses.get(&node).and_then(|uses| uses.get(i))
                {
                    let h = self.node(NodeKey::Heap { obj, field });
                    self.add_edge(h, dst);
                    i += 1;
                }
                // Stores with this node as base.
                let mut i = 0;
                while let Some(&(field, src)) =
                    self.store_uses.get(&node).and_then(|uses| uses.get(i))
                {
                    let h = self.node(NodeKey::Heap { obj, field });
                    self.add_edge(src, h);
                    i += 1;
                }
                // Virtual calls with this node as receiver. The `InvokeUse`
                // clone is a refcount bump on the shared argument slice.
                let mut i = 0;
                while let Some(u) = self
                    .invoke_uses
                    .get(&node)
                    .and_then(|uses| uses.get(i))
                    .cloned()
                {
                    self.bind_call(u.callee, obj, node, &u.args, u.dst);
                    i += 1;
                }
                // Thread-root subscriptions on this variable.
                if let NodeKey::Var { method, local, .. } = self.intern.nodes[node.0 as usize] {
                    let mut i = 0;
                    while let Some(&root) = self
                        .root_subs
                        .get(&(method, local))
                        .and_then(|roots| roots.get(i))
                    {
                        self.spawn_method(root, obj);
                        i += 1;
                    }
                }
            }
        }
        (pops, max_worklist)
    }

    /// Parallel read-only pre-pass over the current epoch's frontier.
    ///
    /// For each of the first `frontier` queued `(node, obj)` items, records
    /// the snapshot length of `succ[node]` and the subset of those snapshot
    /// targets whose points-to set does not yet contain `obj`. The apply
    /// loop inserts exactly that subset (same order as a sequential scan)
    /// and skips the satisfied targets — a pure no-op elision, because
    /// points-to sets only grow, so a target satisfied at the snapshot is
    /// still satisfied when its item is popped.
    ///
    /// Returns `None` when planning cannot pay for itself: a single
    /// ambient thread, or a frontier too small to amortise the pass.
    fn plan_epoch(&self, frontier: usize) -> Option<Vec<(usize, Vec<NodeId>)>> {
        const PLAN_MIN_FRONTIER: usize = 256;
        const PLAN_GRAIN: usize = 128;
        if nadroid_par::current() <= 1 || frontier < PLAN_MIN_FRONTIER {
            return None;
        }
        let (queue, succ, pts) = (&self.queue, &self.succ, &self.pts);
        let chunks = nadroid_par::map_chunks(frontier, PLAN_GRAIN, |range| {
            range
                .map(|f| {
                    let (node, obj) = queue[f];
                    let targets = &succ[node.0 as usize];
                    let need: Vec<NodeId> = targets
                        .iter()
                        .copied()
                        .filter(|s| !pts[s.0 as usize].contains(&obj))
                        .collect();
                    (targets.len(), need)
                })
                .collect::<Vec<_>>()
        });
        Some(chunks.into_iter().flatten().collect())
    }

    fn finish(self) -> Solution {
        let mut var_pts: HashMap<(MethodId, Local), Vec<ObjId>> = HashMap::new();
        let mut heap: HashMap<(ObjId, u32), Vec<ObjId>> = HashMap::new();
        for (i, key) in self.intern.nodes.iter().enumerate() {
            let set = &self.pts[i];
            if set.is_empty() {
                continue;
            }
            match *key {
                NodeKey::Var { method, local, .. } => match var_pts.entry((method, local)) {
                    Entry::Occupied(mut e) => e.get_mut().extend(set.iter().copied()),
                    Entry::Vacant(e) => {
                        e.insert(set.iter().copied().collect());
                    }
                },
                NodeKey::Ret { .. } => {}
                NodeKey::Heap { obj, field } => match heap.entry((obj, field)) {
                    Entry::Occupied(mut e) => e.get_mut().extend(set.iter().copied()),
                    Entry::Vacant(e) => {
                        e.insert(set.iter().copied().collect());
                    }
                },
            }
        }
        for v in var_pts.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        for v in heap.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        Solution {
            objs: self.objs,
            var_pts,
            heap,
        }
    }
}
