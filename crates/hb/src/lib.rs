//! The unified callback happens-before graph.
//!
//! The §6 filters MHB, RHB, CHB and PHB are happens-before facts. This
//! crate is the only library code that states their rules: it
//! materializes *all* of that ordering knowledge once over the
//! threadified program, as one table of direct edges per ordered
//! thread pair. Each edge carries its relation label:
//!
//! | edge kind | relation | meaning |
//! |---|---|---|
//! | [`HbEdgeKind::MhbService`] | `mhbService(u, f)` | §6.1.1 MHB-Service edge (same connection class) |
//! | [`HbEdgeKind::MhbAsyncTask`] | `mhbAsyncTask(u, f)` | §6.1.1 MHB-AsyncTask edge (same task instance) |
//! | [`HbEdgeKind::MhbLifecycle`] | `mhbLifecycle(u, f)` | §6.1.1 MHB-Lifecycle edge (same component) |
//! | [`HbEdgeKind::Post`] | `postEdge(u, f)` | `f` was posted/sent by `u` (PHB raw edge) |
//! | [`HbEdgeKind::Cancel`] | `cancelEdge(u, f)` | `f` may cancel `u`'s callback family (CHB) |
//! | [`HbEdgeKind::Reentry`] | `reentryEdge(u, f, fld)` | `onResume` may re-allocate `fld` (RHB) |
//!
//! The table also marks each post edge whose two threads serialize on
//! one looper: that is `postHb(u, f)`, the PHB relation. Two closures
//! are computed once at build, by one breadth-first search over
//! successor lists:
//!
//! | closure | over the edges | queries |
//! |---|---|---|
//! | `mustHb` | the three sound MHB kinds | [`HbGraph::must_hb`], [`HbGraph::mhp`], [`HbGraph::must_hb_path`] |
//! | `predHb` | those plus the predicate-derived `predEdge`s | [`HbGraph::pred_must_hb`], [`HbGraph::pred_must_hb_path`] |
//!
//! The filter crate queries this graph; the detector does not: §5
//! leaves MHP out of detection, so ordering is the filters' job.
//!
//! Each HB-family filter is one query of the *direct* edges
//! (`tests/hb_parity.rs` checks them against a per-pair statement of
//! the §6 rules that lives in the test, and checks `postHb` and both
//! closures against a Datalog solve of the rules that define them);
//! `mustHb` is their sound transitive extension, and is what MHP
//! queries are defined over:
//! `mhp(a, b) = a ≠ b ∧ ¬mustHb(a, b) ∧ ¬mustHb(b, a)`.
//!
//! The predicate facts (`enables`, `disables`, `predEdge`, `mustNotHb`
//! and `unreachable`) compile the [`nadroid_android::predicates`]
//! summaries and the extended lifecycle automata (see [`predicate`]).
//! They are consumed only by the sound refutation filter: `mustHb`,
//! `mhp` and the §6 filter queries never read them, and on programs
//! that use none of the summarized APIs they are all empty and `predHb`
//! equals `mustHb` (the 27-app parity gate pins this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod predicate;

pub use predicate::{MustNotProv, PredEdge, PredEdgeKind, PredicateSite};

use nadroid_android::lifecycle;
use nadroid_android::{CallbackKind, CancelApi};
use nadroid_ir::{ClassId, FieldId, InstrId, Local, Op, Program};
use nadroid_threadify::resolve::SiteAction;
use nadroid_threadify::{SpawnVia, ThreadId, ThreadKind, ThreadModel};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;

/// The provenance label of one direct happens-before edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HbEdgeKind {
    /// §6.1.1 MHB-Service: `onServiceConnected` before
    /// `onServiceDisconnected` on the same connection class.
    MhbService,
    /// §6.1.1 MHB-AsyncTask: the AsyncTask callback DAG, same task
    /// instance (class + execute site).
    MhbAsyncTask,
    /// §6.1.1 MHB-Lifecycle: `onCreate` first / `onDestroy` last, same
    /// component.
    MhbLifecycle,
    /// §6.2.1 PHB raw edge: the source callback posted/sent the target.
    Post,
    /// §6.2.1 CHB: the target callback may invoke this cancellation API,
    /// silencing the source's callback family.
    Cancel(CancelApi),
    /// §6.2.1 RHB: `onResume` of the shared component may re-allocate
    /// this field before the source's next UI use.
    Reentry(FieldId),
}

impl HbEdgeKind {
    /// Whether the edge belongs to a *sound* must-happens-before relation
    /// (only those feed the `mustHb` closure).
    #[must_use]
    pub fn is_must(self) -> bool {
        matches!(
            self,
            HbEdgeKind::MhbService | HbEdgeKind::MhbAsyncTask | HbEdgeKind::MhbLifecycle
        )
    }

    /// The relation the edge belongs to, by the name the §6 rules give
    /// it (provenance and refutation text print it).
    #[must_use]
    pub fn relation(self) -> &'static str {
        match self {
            HbEdgeKind::MhbService => "mhbService",
            HbEdgeKind::MhbAsyncTask => "mhbAsyncTask",
            HbEdgeKind::MhbLifecycle => "mhbLifecycle",
            HbEdgeKind::Post => "postEdge",
            HbEdgeKind::Cancel(_) => "cancelEdge",
            HbEdgeKind::Reentry(_) => "reentryEdge",
        }
    }
}

/// One direct happens-before edge with its provenance label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbEdge {
    /// The earlier (or silenced, for cancel edges) thread.
    pub src: ThreadId,
    /// The later (or cancelling) thread.
    pub dst: ThreadId,
    /// Why the edge exists.
    pub kind: HbEdgeKind,
}

/// One ordered thread pair's entry in the direct-edge table.
#[derive(Debug)]
struct PairEdges {
    /// The pair's run of [`HbGraph::edges`].
    run: Range<usize>,
    /// A post edge whose two threads share a looper (`postHb`).
    post_hb: bool,
}

/// Successor lists indexed by [`ThreadId::index`]: the edges one
/// closure runs over, each list in edge order.
pub(crate) type Successors = Vec<Vec<ThreadId>>;

/// The materialized happens-before graph of one threadified program.
///
/// Built once per analysis by [`HbGraph::build`]; queries are lookups
/// into the per-pair edge table and the two closures, plus small side
/// maps for the predicate facts' provenance.
#[derive(Debug)]
pub struct HbGraph {
    /// Every direct edge, in (src, dst) order with the per-pair kind
    /// order post, cancel, service, asynctask, lifecycle, reentry.
    edges: Vec<HbEdge>,
    /// The direct-edge table: each ordered pair with an edge.
    pairs: HashMap<(ThreadId, ThreadId), PairEdges>,
    /// Successors through the sound MHB edges.
    must_succ: Successors,
    /// Successors through the sound MHB edges, then the `predEdge`s.
    pred_succ: Successors,
    /// `mustHb`: the transitive closure of `must_succ`.
    must_hb: HashSet<(ThreadId, ThreadId)>,
    /// `predHb`: the transitive closure of `pred_succ`.
    pred_hb: HashSet<(ThreadId, ThreadId)>,
    /// Per-pair provenance of the `enables` facts.
    enables_prov: BTreeMap<(u32, u32), PredicateSite>,
    /// Per-pair provenance of the `disables` facts.
    disables_prov: BTreeMap<(u32, u32), PredicateSite>,
    /// Predicate-derived direct must edges, in deterministic order.
    pred_edges: Vec<PredEdge>,
    /// Per-pair provenance of the `mustNotHb` facts (first derivation
    /// wins — the evidence the refutation filter renders).
    must_not: BTreeMap<(u32, u32), MustNotProv>,
    /// Gated callbacks provably never delivered at all: a `mustNotHb`
    /// candidate that would contradict `predHb` is demoted here, keeping
    /// `mustNotHb` disjoint from every must relation.
    unreachable_cbs: BTreeMap<u32, MustNotProv>,
}

impl HbGraph {
    /// Materialize the happens-before relation of a threadified program:
    /// extract direct edges from per-relation candidate buckets (class /
    /// component / task instance / cancel-site target — near-linear in
    /// the thread count, never the full pair square), then compute the
    /// `mustHb` and `predHb` transitive closures.
    ///
    /// With a recorder installed, the two closures run in an `hb.closure`
    /// span, and the build emits the `hb.edges` and `hb.predicate_edges`
    /// counters.
    #[must_use]
    pub fn build(program: &Program, threads: &ThreadModel) -> HbGraph {
        let resume_fields = resume_alloc_fields(program, threads);

        // Direct-edge facts per ordered pair. Keyed by (src, dst) so the
        // flattened `edges` vector keeps the (src, dst) scan order, with
        // the per-pair kind order fixed below.
        #[derive(Default)]
        struct PairFacts {
            post: bool,
            post_hb: bool,
            cancel: Option<CancelApi>,
            service: bool,
            asynctask: bool,
            lifecycle: bool,
            reentry: Vec<FieldId>,
        }
        let mut pairs: BTreeMap<(ThreadId, ThreadId), PairFacts> = BTreeMap::new();

        // One linear pass builds candidate buckets; each relation then
        // enumerates only pairs sharing its qualifying key (class,
        // component, task instance, cancel-site target) — never all n²
        // thread pairs. Class-keyed buckets are indexed by
        // `ClassId::index`, so they iterate in ascending class order.
        type Members = Vec<(ThreadId, CallbackKind)>;
        let n_classes = program.class_ids().count();
        let mut service_conn: Vec<Vec<ThreadId>> = vec![Vec::new(); n_classes];
        let mut service_disc: Vec<Vec<ThreadId>> = vec![Vec::new(); n_classes];
        let mut tasks: BTreeMap<(ClassId, Option<InstrId>), Members> = BTreeMap::new();
        let mut lifecycle_members: Vec<Members> = vec![Vec::new(); n_classes];
        let mut by_class: Vec<Vec<ThreadId>> = vec![Vec::new(); n_classes];
        let mut by_component: Vec<Vec<ThreadId>> = vec![Vec::new(); n_classes];
        let mut pausers: Vec<(ThreadId, ClassId)> = Vec::new();

        for (t, mt) in threads.threads() {
            // Post edges come straight off the spawn tree; postHb holds
            // where the poster and the posted share a looper.
            if let Some(u) = mt.parent() {
                if matches!(mt.via(), SpawnVia::Post | SpawnVia::Send) {
                    let facts = pairs.entry((u, t)).or_default();
                    facts.post = true;
                    facts.post_hb = threads.atomic_pair(u, t);
                }
            }
            let Some(k) = effective_kind(threads, t) else {
                continue;
            };
            if let Some(c) = mt.class() {
                by_class[c.index()].push(t);
                match k {
                    CallbackKind::OnServiceConnected => service_conn[c.index()].push(t),
                    CallbackKind::OnServiceDisconnected => service_disc[c.index()].push(t),
                    CallbackKind::OnPreExecute
                    | CallbackKind::DoInBackground
                    | CallbackKind::OnProgressUpdate
                    | CallbackKind::OnPostExecute => {
                        tasks.entry((c, mt.origin_site())).or_default().push((t, k));
                    }
                    _ => {}
                }
            }
            if let Some(c) = mt.component() {
                by_component[c.index()].push(t);
                if k.is_lifecycle() || k.is_ui() || k.is_system() {
                    lifecycle_members[c.index()].push((t, k));
                }
                if k == CallbackKind::OnPause {
                    pausers.push((t, c));
                }
            }
        }

        // MHB-Service: connected before disconnected, same connection class.
        for (conns, discs) in service_conn.iter().zip(&service_disc) {
            for &u in conns {
                for &f in discs {
                    pairs.entry((u, f)).or_default().service = true;
                }
            }
        }
        // MHB-AsyncTask: the callback DAG of one task instance
        // (class + execute site).
        for members in tasks.values() {
            for &(u, uk) in members {
                for &(f, fk) in members {
                    if u != f && lifecycle::asynctask_mhb(uk, fk) {
                        pairs.entry((u, f)).or_default().asynctask = true;
                    }
                }
            }
        }
        // MHB-Lifecycle: only onCreate-first / onDestroy-last pairs hold,
        // so pivot on those members instead of all member pairs.
        for members in &lifecycle_members {
            for &(s, sk) in members {
                if sk != CallbackKind::OnCreate && sk != CallbackKind::OnDestroy {
                    continue;
                }
                for &(o, ok) in members {
                    if s == o {
                        continue;
                    }
                    if lifecycle::lifecycle_mhb(sk, ok) {
                        pairs.entry((s, o)).or_default().lifecycle = true;
                    }
                    if lifecycle::lifecycle_mhb(ok, sk) {
                        pairs.entry((o, s)).or_default().lifecycle = true;
                    }
                }
            }
        }
        // CHB: candidate users are bounded by each cancel site's target —
        // the canceller's component for `finish()`, the named class for
        // unbind/unregister/removeCallbacks.
        for (f, _) in threads.threads() {
            let mut cands: BTreeSet<ThreadId> = BTreeSet::new();
            for site in threads.sites_of(f) {
                let users = match cancel_site(site.action) {
                    Some((_, Some(c))) => Some(&by_class[c.index()]),
                    Some((_, None)) => threads
                        .thread(f)
                        .component()
                        .map(|c| &by_component[c.index()]),
                    None => None,
                };
                cands.extend(users.into_iter().flatten().copied());
            }
            for u in cands {
                if u == f {
                    continue;
                }
                if let Some(api) = cancel_pair(threads, u, f) {
                    pairs.entry((u, f)).or_default().cancel = Some(api);
                }
            }
        }
        // RHB: an `onResume` of the shared component may re-allocate.
        for &(f, comp) in &pausers {
            let Some(fields) = resume_fields.get(&comp) else {
                continue;
            };
            if fields.is_empty() {
                continue;
            }
            for &u in &by_component[comp.index()] {
                if u == f {
                    continue;
                }
                let Some(uk) = effective_kind(threads, u) else {
                    continue;
                };
                if !(uk.is_ui() || uk.is_system()) {
                    continue;
                }
                pairs.entry((u, f)).or_default().reentry = fields.iter().copied().collect();
            }
        }

        // Flatten in (src, dst) order with the canonical per-pair kind
        // order (post, cancel, service, asynctask, lifecycle, reentry),
        // indexing each pair's run and its sound successors.
        let mut edges = Vec::new();
        let mut table = HashMap::with_capacity(pairs.len());
        let mut must_succ: Successors = vec![Vec::new(); threads.len()];
        for ((src, dst), facts) in pairs {
            let start = edges.len();
            let mut push = |kind: HbEdgeKind| edges.push(HbEdge { src, dst, kind });
            if facts.post {
                push(HbEdgeKind::Post);
            }
            if let Some(api) = facts.cancel {
                push(HbEdgeKind::Cancel(api));
            }
            if facts.service {
                push(HbEdgeKind::MhbService);
            }
            if facts.asynctask {
                push(HbEdgeKind::MhbAsyncTask);
            }
            if facts.lifecycle {
                push(HbEdgeKind::MhbLifecycle);
            }
            for fld in facts.reentry {
                push(HbEdgeKind::Reentry(fld));
            }
            if facts.service || facts.asynctask || facts.lifecycle {
                must_succ[src.index()].push(dst);
            }
            let pair = PairEdges {
                run: start..edges.len(),
                post_hb: facts.post_hb,
            };
            table.insert((src, dst), pair);
        }

        // Predicate summaries and extended automata: compiled from the
        // same thread model into their own facts, plus the successor
        // lists of `predHb`. The §6 edges above are identical with or
        // without them.
        let facts = predicate::compute(program, threads, &must_succ);
        let mut enables_prov = BTreeMap::new();
        for &(e, c, site) in &facts.enables {
            enables_prov.entry((e.raw(), c.raw())).or_insert(site);
        }
        let mut disables_prov = BTreeMap::new();
        for &(d, c, site) in &facts.disables {
            disables_prov.entry((d.raw(), c.raw())).or_insert(site);
        }

        let (must_hb, pred_hb) = {
            let _s = nadroid_obs::span("hb.closure");
            (closure(&must_succ), closure(&facts.succ))
        };

        // mustNotHb needs predHb for its disjointness guard.
        let mut must_not: BTreeMap<(u32, u32), MustNotProv> = BTreeMap::new();
        let mut unreachable_cbs: BTreeMap<u32, MustNotProv> = BTreeMap::new();
        for (f, c, prov) in facts.must_not {
            if pred_hb.contains(&(f, c)) {
                // `c` only ever runs after `f`, yet never runs after `f`:
                // it never runs at all. Demoting (instead of emitting
                // both) keeps mustNotHb ∩ predHb = ∅.
                unreachable_cbs.entry(c.raw()).or_insert(prov);
            } else {
                must_not.entry((f.raw(), c.raw())).or_insert(prov);
            }
        }

        let graph = HbGraph {
            edges,
            pairs: table,
            must_succ,
            pred_succ: facts.succ,
            must_hb,
            pred_hb,
            enables_prov,
            disables_prov,
            pred_edges: facts.edges,
            must_not,
            unreachable_cbs,
        };
        emit_metrics(graph.edges.len(), graph.predicate_fact_count());
        graph
    }

    /// The direct edges of one ordered pair, in the per-pair kind order.
    fn between(&self, a: ThreadId, b: ThreadId) -> &[HbEdge] {
        self.pairs
            .get(&(a, b))
            .map_or(&[], |p| &self.edges[p.run.clone()])
    }

    /// Whether every execution orders callbacks of `a` strictly before
    /// callbacks of `b` — the transitive closure of the three sound MHB
    /// relations.
    #[must_use]
    pub fn must_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.must_hb.contains(&(a, b))
    }

    /// The direct sound MHB edge from `a` to `b` — the §6.1.1 MHB filter
    /// and the no-sleep client's ordering — labeled with the
    /// highest-priority relation that produces it (Service, then
    /// AsyncTask, then Lifecycle, the per-pair kind order).
    #[must_use]
    pub fn mhb_edge(&self, a: ThreadId, b: ThreadId) -> Option<HbEdgeKind> {
        self.between(a, b)
            .iter()
            .map(|e| e.kind)
            .find(|k| k.is_must())
    }

    /// May-happen-in-parallel: distinct threads with no sound ordering in
    /// either direction. Disjoint from [`HbGraph::must_hb`] by
    /// construction (the property suite pins this).
    #[must_use]
    pub fn mhp(&self, a: ThreadId, b: ThreadId) -> bool {
        a != b && !self.must_hb(a, b) && !self.must_hb(b, a)
    }

    /// Whether `a` posted/sent `b` on a shared looper (the PHB relation:
    /// the atomic post completes before the posted callback runs).
    #[must_use]
    pub fn post_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.pairs.get(&(a, b)).is_some_and(|p| p.post_hb)
    }

    /// The cancellation API through which `b` may silence `a`'s callback
    /// family, if any — the first matching cancel site of `b`, in site
    /// order (the CHB evidence string depends on this order).
    #[must_use]
    pub fn cancel_hb(&self, a: ThreadId, b: ThreadId) -> Option<CancelApi> {
        self.between(a, b).iter().find_map(|e| match e.kind {
            HbEdgeKind::Cancel(api) => Some(api),
            _ => None,
        })
    }

    /// Whether an `onResume` of the shared component may re-allocate
    /// `field` between `b`'s free (`onPause`) and `a`'s next UI use —
    /// the RHB relation.
    #[must_use]
    pub fn reentry_hb(&self, a: ThreadId, b: ThreadId, field: FieldId) -> bool {
        self.between(a, b)
            .iter()
            .any(|e| e.kind == HbEdgeKind::Reentry(field))
    }

    /// All direct edges, in deterministic (src, dst) scan order.
    #[must_use]
    pub fn edges(&self) -> &[HbEdge] {
        &self.edges
    }

    /// The direct edges between one ordered thread pair.
    #[must_use]
    pub fn edges_between(&self, a: ThreadId, b: ThreadId) -> Vec<HbEdge> {
        self.between(a, b).to_vec()
    }

    /// A shortest witness path `a = t0 → t1 → … → tk = b` through the
    /// direct sound MHB edges, when `must_hb(a, b)` holds — the per-edge
    /// provenance behind a closure fact. The closure answers first: a
    /// pair it does not order returns `None` without walking the graph.
    #[must_use]
    pub fn must_hb_path(&self, a: ThreadId, b: ThreadId) -> Option<Vec<ThreadId>> {
        (a != b && self.must_hb(a, b)).then(|| shortest_path(&self.must_succ, a, b))
    }

    /// Whether the predicate-extended sound closure orders `a` strictly
    /// before `b`: the transitive closure of `mhbEdge ∪ predEdge`. A
    /// superset of [`HbGraph::must_hb`]; still a strict partial order
    /// (the predicate edges are cycle-guarded at construction).
    #[must_use]
    pub fn pred_must_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.pred_hb.contains(&(a, b))
    }

    /// Whether `b` is provably *never* delivered after `a` completes —
    /// the predicate summaries' negative ordering fact. Disjoint from
    /// [`HbGraph::pred_must_hb`] (and hence [`HbGraph::must_hb`]) by
    /// construction.
    #[must_use]
    pub fn must_not_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.must_not.contains_key(&(a.raw(), b.raw()))
    }

    /// The contradiction chain behind a `mustNotHb(a, b)` fact.
    #[must_use]
    pub fn must_not_prov(&self, a: ThreadId, b: ThreadId) -> Option<&MustNotProv> {
        self.must_not.get(&(a.raw(), b.raw()))
    }

    /// The provenance of an `enables(a, b)` fact: the summarized API call
    /// in `a` that arms gated callback `b`.
    #[must_use]
    pub fn enables(&self, a: ThreadId, b: ThreadId) -> Option<&PredicateSite> {
        self.enables_prov.get(&(a.raw(), b.raw()))
    }

    /// The provenance of a `disables(a, b)` fact: the summarized API call
    /// in `a` that silences gated callback `b`.
    #[must_use]
    pub fn disables(&self, a: ThreadId, b: ThreadId) -> Option<&PredicateSite> {
        self.disables_prov.get(&(a.raw(), b.raw()))
    }

    /// All predicate-derived direct must edges, in deterministic order.
    #[must_use]
    pub fn pred_edges(&self) -> &[PredEdge] {
        &self.pred_edges
    }

    /// All `enables` facts with provenance, in deterministic order.
    pub fn enables_facts(&self) -> impl Iterator<Item = (ThreadId, ThreadId, &PredicateSite)> {
        self.enables_prov
            .iter()
            .map(|(&(e, c), site)| (ThreadId::from_raw(e), ThreadId::from_raw(c), site))
    }

    /// Number of `disables` facts.
    #[must_use]
    pub fn disables_count(&self) -> usize {
        self.disables_prov.len()
    }

    /// Whether gated callback `c` is provably never delivered at all (a
    /// `mustNotHb` candidate demoted by the disjointness guard).
    #[must_use]
    pub fn unreachable_cb(&self, c: ThreadId) -> bool {
        self.unreachable_cbs.contains_key(&c.raw())
    }

    /// The contradiction chain behind an `unreachable(c)` fact.
    #[must_use]
    pub fn unreachable_prov(&self, c: ThreadId) -> Option<&MustNotProv> {
        self.unreachable_cbs.get(&c.raw())
    }

    /// Total predicate fact count (`enables` + `disables` + `predEdge`)
    /// — the `hb.predicate_edges` counter's value.
    #[must_use]
    pub fn predicate_fact_count(&self) -> usize {
        self.enables_prov.len() + self.disables_prov.len() + self.pred_edges.len()
    }

    /// A shortest witness path through the direct sound MHB edges *plus*
    /// the predicate-derived edges, when [`HbGraph::pred_must_hb`] holds
    /// — the per-edge provenance behind a predicate-extended closure
    /// fact. Like [`HbGraph::must_hb_path`], it asks the closure first.
    #[must_use]
    pub fn pred_must_hb_path(&self, a: ThreadId, b: ThreadId) -> Option<Vec<ThreadId>> {
        (a != b && self.pred_must_hb(a, b)).then(|| shortest_path(&self.pred_succ, a, b))
    }
}

/// Breadth-first search over `succ` from `from`, each successor list in
/// order, stopping as soon as `to` is reached (with `None`, it reaches
/// everything). Returns each reached thread with the thread it was
/// first reached from, in discovery order; `from` itself is reached
/// only through a cycle.
pub(crate) fn bfs(
    succ: &[Vec<ThreadId>],
    from: ThreadId,
    to: Option<ThreadId>,
) -> Vec<(ThreadId, ThreadId)> {
    let mut seen = vec![false; succ.len()];
    let mut reached = Vec::new();
    let mut at = from;
    let mut next = 0;
    loop {
        for &t in &succ[at.index()] {
            if !std::mem::replace(&mut seen[t.index()], true) {
                reached.push((t, at));
                if Some(t) == to {
                    return reached;
                }
            }
        }
        let Some(&(t, _)) = reached.get(next) else {
            return reached;
        };
        at = t;
        next += 1;
    }
}

/// The transitive closure of `succ`: every `(a, b)` with a path of one
/// or more edges from `a` to `b`.
fn closure(succ: &[Vec<ThreadId>]) -> HashSet<(ThreadId, ThreadId)> {
    let mut out = HashSet::new();
    for (i, list) in succ.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let from = ThreadId::from_raw(u32::try_from(i).expect("thread index fits u32"));
        out.extend(bfs(succ, from, None).into_iter().map(|(t, _)| (from, t)));
    }
    out
}

/// The shortest path `a → … → b` over `succ` for `b` reachable from
/// `a ≠ b`, ties broken by successor order.
fn shortest_path(succ: &[Vec<ThreadId>], a: ThreadId, b: ThreadId) -> Vec<ThreadId> {
    let parent: HashMap<ThreadId, ThreadId> = bfs(succ, a, Some(b)).into_iter().collect();
    let mut path = vec![b];
    let mut cur = b;
    while cur != a {
        cur = parent[&cur];
        path.push(cur);
    }
    path.reverse();
    path
}

fn emit_metrics(edge_count: usize, predicate_facts: usize) {
    if nadroid_obs::recording() {
        nadroid_obs::counter("hb.edges", edge_count as u64);
        nadroid_obs::counter("hb.predicate_edges", predicate_facts as u64);
    }
}

/// The callback kind a modeled thread behaves as for ordering purposes
/// (`doInBackground` bodies participate in the AsyncTask order).
pub(crate) fn effective_kind(threads: &ThreadModel, t: ThreadId) -> Option<CallbackKind> {
    match threads.thread(t).kind() {
        ThreadKind::Callback(k) => Some(k),
        ThreadKind::TaskBody => Some(CallbackKind::DoInBackground),
        ThreadKind::DummyMain | ThreadKind::Native => None,
    }
}

fn same_component(threads: &ThreadModel, a: ThreadId, b: ThreadId) -> bool {
    let ca = threads.thread(a).component();
    ca.is_some() && ca == threads.thread(b).component()
}

/// The cancellation API a site calls and the class whose callbacks it
/// silences: `None` for `finish()`, which silences the canceller's own
/// component.
fn cancel_site(action: SiteAction) -> Option<(CancelApi, Option<ClassId>)> {
    match action {
        SiteAction::Finish => Some((CancelApi::Finish, None)),
        SiteAction::Disable(family, c) => CancelApi::disabling(family).map(|api| (api, Some(c))),
        SiteAction::RemovePosts(c) => Some((CancelApi::RemoveCallbacksAndMessages, Some(c))),
        _ => None,
    }
}

/// The first cancellation site of `f` (in site order) whose scope covers
/// `u`'s callback family — the CHB edge label.
fn cancel_pair(threads: &ThreadModel, u: ThreadId, f: ThreadId) -> Option<CancelApi> {
    let uk = effective_kind(threads, u)?;
    let use_class = threads.thread(u).class();
    threads.sites_of(f).iter().find_map(|site| {
        let (api, target) = cancel_site(site.action)?;
        let covered = api.scope().covers(uk)
            && target.map_or(same_component(threads, u, f), |c| use_class == Some(c));
        covered.then_some(api)
    })
}

/// Per component: the fields some `onResume` callback of that component
/// may store a fresh allocation into — the RHB edge labels.
fn resume_alloc_fields(
    program: &Program,
    threads: &ThreadModel,
) -> BTreeMap<nadroid_ir::ClassId, BTreeSet<FieldId>> {
    let mut out: BTreeMap<nadroid_ir::ClassId, BTreeSet<FieldId>> = BTreeMap::new();
    for (_, mt) in threads.threads() {
        if mt.kind().callback_kind() != Some(CallbackKind::OnResume) {
            continue;
        }
        let (Some(component), Some(root)) = (mt.component(), mt.root()) else {
            continue;
        };
        let entry = out.entry(component).or_default();
        entry.extend(alloc_fields(program, root));
    }
    out
}

/// The may-allocation analysis behind the RHB edges: every field some
/// path through `method` (or a plain helper it calls) stores a fresh
/// allocation into, in one pass over each body.
fn alloc_fields(program: &Program, method: nadroid_ir::MethodId) -> BTreeSet<FieldId> {
    let mut found = BTreeSet::new();
    for &m in &nadroid_threadify::own_methods(program, method) {
        let mut fresh: HashSet<Local> = HashSet::new();
        program
            .method(m)
            .body()
            .for_each_instr(&mut |i| match &i.op {
                Op::New { dst, .. } => {
                    fresh.insert(*dst);
                }
                Op::Move { dst, src } if fresh.contains(src) => {
                    fresh.insert(*dst);
                }
                Op::Store { field, src, .. } if fresh.contains(src) => {
                    found.insert(*field);
                }
                _ => {}
            });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_android::PredicateFamily;
    use nadroid_ir::parse_program;

    fn build(src: &str) -> (Program, ThreadModel, HbGraph) {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        let t = ThreadModel::build(&p);
        let g = HbGraph::build(&p, &t);
        (p, t, g)
    }

    fn thread_of(t: &ThreadModel, kind: CallbackKind) -> ThreadId {
        t.threads()
            .find(|(_, mt)| mt.kind().callback_kind() == Some(kind))
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no {kind:?} thread"))
    }

    const LIFECYCLE: &str = r#"
        app L
        activity Main {
            field f: Main
            cb onCreate { f = new Main }
            cb onClick { use f }
            cb onDestroy { f = null }
        }
    "#;

    #[test]
    fn lifecycle_edges_and_closure() {
        let (_p, t, g) = build(LIFECYCLE);
        let create = thread_of(&t, CallbackKind::OnCreate);
        let click = thread_of(&t, CallbackKind::OnClick);
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        assert_eq!(g.mhb_edge(create, click), Some(HbEdgeKind::MhbLifecycle));
        assert_eq!(g.mhb_edge(click, destroy), Some(HbEdgeKind::MhbLifecycle));
        assert!(g.must_hb(create, destroy), "closure: onCreate ≺ onDestroy");
        assert!(!g.must_hb(destroy, create));
        assert!(!g.mhp(create, destroy));
        let path = g.must_hb_path(create, destroy).expect("witness path");
        assert_eq!(path.first(), Some(&create));
        assert_eq!(path.last(), Some(&destroy));
        assert!(path.len() >= 2);
    }

    #[test]
    fn must_hb_is_irreflexive_here() {
        let (_p, t, g) = build(LIFECYCLE);
        for (id, _) in t.threads() {
            assert!(!g.must_hb(id, id), "mustHb must be irreflexive");
            assert!(!g.mhp(id, id), "a thread never races itself");
        }
    }

    #[test]
    fn service_edge_has_priority_over_lifecycle() {
        let (_p, t, g) = build(
            r#"
            app S
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
            }
            "#,
        );
        let con = thread_of(&t, CallbackKind::OnServiceConnected);
        let dis = thread_of(&t, CallbackKind::OnServiceDisconnected);
        assert_eq!(g.mhb_edge(con, dis), Some(HbEdgeKind::MhbService));
        assert!(g.must_hb(con, dis));
    }

    #[test]
    fn post_edges_require_a_shared_looper_for_post_hb() {
        let (_p, t, g) = build(
            r#"
            app P
            activity Main {
                field f: Main
                cb onClick { post R  use f }
            }
            runnable R in Main {
                cb run { outer.f = null }
            }
            "#,
        );
        let click = thread_of(&t, CallbackKind::OnClick);
        let posted = t
            .threads()
            .find(|(_, mt)| mt.parent() == Some(click))
            .map(|(id, _)| id)
            .expect("posted thread");
        assert!(g.post_hb(click, posted), "posted on the shared main looper");
        assert!(g
            .edges_between(click, posted)
            .iter()
            .any(|e| e.kind == HbEdgeKind::Post));
    }

    #[test]
    fn cancel_edges_record_the_api() {
        let (_p, t, g) = build(
            r#"
            app C
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { use bound }
                cb onDestroy { unbind this }
            }
            "#,
        );
        let con = thread_of(&t, CallbackKind::OnServiceConnected);
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        assert_eq!(g.cancel_hb(con, destroy), Some(CancelApi::UnbindService));
        assert!(!g.post_hb(con, destroy), "a cancellation is not a post");
        assert!(g
            .edges_between(con, destroy)
            .iter()
            .any(|e| e.kind == HbEdgeKind::Cancel(CancelApi::UnbindService)));
    }

    #[test]
    fn reentry_edges_carry_the_field() {
        // RHB needs only a *may*-allocation: an `onResume` that allocates
        // `f` on one branch yields the edge just as an unconditional one.
        for resume in ["f = new Main", "if ? { f = new Main } else { }"] {
            let (p, t, g) = build(&format!(
                r#"
                app R
                activity Main {{
                    field f: Main
                    cb onResume {{ {resume} }}
                    cb onClick {{ use f }}
                    cb onPause {{ f = null }}
                }}
                "#
            ));
            let click = thread_of(&t, CallbackKind::OnClick);
            let pause = thread_of(&t, CallbackKind::OnPause);
            let c = p.class_by_name("Main").unwrap();
            let f = p.field_by_name(c, "f").unwrap();
            assert!(g.reentry_hb(click, pause, f), "{resume}");
            assert!(
                g.edges_between(click, pause)
                    .iter()
                    .any(|e| e.kind == HbEdgeKind::Reentry(f)),
                "{resume}"
            );
        }
    }

    #[test]
    fn mhp_is_symmetric_and_disjoint_from_must_hb() {
        let (_p, t, g) = build(LIFECYCLE);
        let ids: Vec<ThreadId> = t.threads().map(|(id, _)| id).collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(g.mhp(a, b), g.mhp(b, a), "mhp is symmetric");
                if g.must_hb(a, b) {
                    assert!(!g.mhp(a, b), "mustHb and mhp are disjoint");
                }
            }
        }
    }

    #[test]
    fn hb_edges_counter_counts_the_direct_edges() {
        let rec = nadroid_obs::Recorder::new();
        let (_p, _t, g) = {
            let _installed = rec.install();
            build(LIFECYCLE)
        };
        assert!(!g.edges().is_empty());
        assert_eq!(rec.counter_value("hb.edges"), g.edges().len() as u64);
    }

    #[test]
    fn predicate_relations_empty_without_summarized_apis() {
        // The paper corpus uses none of the summarized enable/disable
        // pairs; on such programs every predicate relation must be empty
        // and predHb must coincide with mustHb (the parity gate depends
        // on this).
        let (_p, t, g) = build(LIFECYCLE);
        assert_eq!(g.predicate_fact_count(), 0);
        assert!(g.pred_edges().is_empty());
        let ids: Vec<ThreadId> = t.threads().map(|(id, _)| id).collect();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(g.pred_must_hb(a, b), g.must_hb(a, b), "{a}->{b}");
                assert!(!g.must_not_hb(a, b));
            }
            assert!(!g.unreachable_cb(a));
        }
    }

    const DIALOG: &str = r#"
        app D
        activity Main {
            field dlg: Dlg
            field f: Main
            cb onCreate { dlg = new Dlg  show dlg  f = new Main }
            cb onStop { dismiss dlg }
            cb onDestroy { f = null }
        }
        dialog Dlg in Main {
            cb onShow { use outer.f }
        }
    "#;

    #[test]
    fn dialog_summary_yields_enables_disables_and_must_not() {
        let (_p, t, g) = build(DIALOG);
        let create = thread_of(&t, CallbackKind::OnCreate);
        let stop = thread_of(&t, CallbackKind::OnStop);
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        let show = thread_of(&t, CallbackKind::OnShow);
        let en = g.enables(create, show).expect("show arms onShow");
        assert_eq!(en.family, PredicateFamily::Dialog);
        let dis = g.disables(stop, show).expect("dismiss silences onShow");
        assert_eq!(dis.family, PredicateFamily::Dialog);
        assert_ne!(en.site, dis.site, "show, then dismiss");
        // onStop dominates onDestroy, the show sits once-only in
        // onCreate: onShow can never run after onDestroy.
        assert!(g.must_not_hb(destroy, show));
        match g.must_not_prov(destroy, show) {
            Some(MustNotProv::Disabled {
                family, disabler, ..
            }) => {
                assert_eq!(family.name(), "dialog");
                assert_eq!(*disabler, stop);
            }
            other => panic!("unexpected provenance {other:?}"),
        }
        // The negative fact stays disjoint from every must relation.
        assert!(!g.pred_must_hb(destroy, show));
        assert!(!g.must_hb(destroy, show));
        // The §6 closure is untouched by the predicate facts.
        assert!(g.must_hb(create, destroy));
        assert!(!g.must_hb(destroy, show));
    }

    #[test]
    fn conditional_disabler_yields_no_must_not() {
        let (_p, t, g) = build(
            r#"
            app D
            activity Main {
                field dlg: Dlg
                field f: Main
                cb onCreate { dlg = new Dlg  show dlg  f = new Main }
                cb onStop { if ? { dismiss dlg } }
                cb onDestroy { f = null }
            }
            dialog Dlg in Main {
                cb onShow { use outer.f }
            }
            "#,
        );
        let stop = thread_of(&t, CallbackKind::OnStop);
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        let show = thread_of(&t, CallbackKind::OnShow);
        assert!(g.disables(stop, show).is_some(), "fact still recorded");
        assert!(
            !g.must_not_hb(destroy, show),
            "a branch-guarded dismiss may never execute"
        );
    }

    #[test]
    fn pause_disabler_yields_no_must_not_for_destroy() {
        // onPause does not dominate onDestroy (the stop-skip path), so a
        // dismiss there proves nothing about post-destroy deliveries.
        let (_p, t, g) = build(
            r#"
            app D
            activity Main {
                field dlg: Dlg
                field f: Main
                cb onCreate { dlg = new Dlg  show dlg  f = new Main }
                cb onPause { dismiss dlg }
                cb onDestroy { f = null }
            }
            dialog Dlg in Main {
                cb onShow { use outer.f }
            }
            "#,
        );
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        let show = thread_of(&t, CallbackKind::OnShow);
        assert!(!g.must_not_hb(destroy, show));
    }

    #[test]
    fn reenabling_callback_defeats_the_dominator_argument() {
        // A second show in onClick means the family can be re-armed
        // after onStop's dismiss: no mustNotHb.
        let (_p, t, g) = build(
            r#"
            app D
            activity Main {
                field dlg: Dlg
                field f: Main
                cb onCreate { dlg = new Dlg  show dlg  f = new Main }
                cb onClick { show dlg }
                cb onStop { dismiss dlg }
                cb onDestroy { f = null }
            }
            dialog Dlg in Main {
                cb onShow { use outer.f }
            }
            "#,
        );
        let destroy = thread_of(&t, CallbackKind::OnDestroy);
        let show = thread_of(&t, CallbackKind::OnShow);
        assert!(!g.must_not_hb(destroy, show));
    }

    #[test]
    fn fragment_edges_feed_pred_hb_but_not_must_hb() {
        let (_p, t, g) = build(
            r#"
            app F
            manifest { main Main }
            activity Main {
                field f: Main
                cb onCreate { f = new Main }
            }
            fragment Frag in Main {
                cb onAttach { use Main.f }
                cb onCreateView { use Main.f }
                cb onDetach { Main.f = null }
            }
            "#,
        );
        let attach = thread_of(&t, CallbackKind::OnAttach);
        let view = thread_of(&t, CallbackKind::OnCreateView);
        let detach = thread_of(&t, CallbackKind::OnDetach);
        assert!(g.pred_must_hb(attach, view), "attach first");
        assert!(g.pred_must_hb(view, detach), "detach last");
        assert!(g.pred_must_hb(attach, detach), "closure");
        assert!(!g.must_hb(attach, view), "mustHb untouched");
        assert!(
            g.pred_edges()
                .iter()
                .all(|e| e.kind == PredEdgeKind::Fragment),
            "only fragment edges here"
        );
        // Terminal detach: nothing of the instance runs after it.
        assert!(g.must_not_hb(detach, view));
        assert!(g.must_not_hb(detach, attach));
        assert!(matches!(
            g.must_not_prov(detach, view),
            Some(MustNotProv::FragmentTerminal { .. })
        ));
        let path = g.pred_must_hb_path(attach, detach).expect("witness");
        assert_eq!(path.first(), Some(&attach));
        assert_eq!(path.last(), Some(&detach));
    }

    #[test]
    fn unique_launch_from_oncreate_orders_the_task_stack() {
        let (_p, t, g) = build(
            r#"
            app T
            manifest { main Main }
            activity Main {
                field f: Main
                cb onCreate { f = new Main  use f  startactivity Second }
            }
            activity Second {
                cb onCreate { Main.f = null }
            }
            "#,
        );
        let launcher = thread_of(&t, CallbackKind::OnCreate);
        let second = t
            .threads()
            .find(|(id, mt)| {
                mt.kind().callback_kind() == Some(CallbackKind::OnCreate) && *id != launcher
            })
            .map(|(id, _)| id)
            .expect("second onCreate");
        assert!(g.pred_must_hb(launcher, second), "launcher before target");
        assert!(!g.must_hb(launcher, second), "mustHb untouched");
        assert!(g
            .pred_edges()
            .iter()
            .any(|e| matches!(e.kind, PredEdgeKind::TaskStack { .. })));
        assert!(g.enables(launcher, second).is_some(), "launch arms target");
    }

    #[test]
    fn repeatable_launcher_gets_no_task_edge() {
        // A launch from onClick may run after the target's onCreate; only
        // once-only launcher callbacks produce the edge.
        let (_p, _t, g) = build(
            r#"
            app T
            manifest { main Main }
            activity Main {
                cb onClick { startactivity Second }
            }
            activity Second {
                field f: Second
                cb onCreate { f = new Second }
            }
            "#,
        );
        assert!(g
            .pred_edges()
            .iter()
            .all(|e| !matches!(e.kind, PredEdgeKind::TaskStack { .. })));
    }

    #[test]
    fn mutual_launches_stay_acyclic() {
        // Adversarial: two non-main activities launch each other from
        // their onCreate. The cycle guard must drop one edge so predHb
        // remains a strict partial order.
        let (_p, t, g) = build(
            r#"
            app T
            manifest { main Root }
            activity Root {
                cb onCreate { startactivity A }
            }
            activity A {
                cb onCreate { startactivity B }
            }
            activity B {
                cb onCreate { startactivity A }
            }
            "#,
        );
        let ids: Vec<ThreadId> = t.threads().map(|(id, _)| id).collect();
        for &a in &ids {
            assert!(!g.pred_must_hb(a, a), "predHb must stay irreflexive");
            for &b in &ids {
                assert!(
                    !(g.pred_must_hb(a, b) && g.pred_must_hb(b, a)),
                    "predHb must stay asymmetric"
                );
            }
        }
    }
}
