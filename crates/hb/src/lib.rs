//! The unified callback happens-before graph.
//!
//! The §6 filters MHB, RHB, CHB and PHB are happens-before facts. This
//! crate is the only library code that states their rules: it
//! materializes *all* of that ordering knowledge once, as explicit
//! Datalog relations over the threadified program:
//!
//! | relation | arity | meaning |
//! |---|---|---|
//! | `mhbService(u, f)` | 2 | §6.1.1 MHB-Service edge (same connection class) |
//! | `mhbAsyncTask(u, f)` | 2 | §6.1.1 MHB-AsyncTask edge (same task instance) |
//! | `mhbLifecycle(u, f)` | 2 | §6.1.1 MHB-Lifecycle edge (same component) |
//! | `postEdge(u, f)` | 2 | `f` was posted/sent by `u` (PHB raw edge) |
//! | `sameLooper(a, b)` | 2 | a post pair serializing on one looper (materialized only where `postEdge` holds — the `postHb` join is its sole consumer) |
//! | `cancelEdge(u, f)` | 2 | `f` may cancel `u`'s callback family (CHB) |
//! | `reentryEdge(u, f, fld)` | 3 | `onResume` may re-allocate `fld` (RHB) |
//! | `mhbEdge(a, b)` | 2 | union of the three sound MHB relations |
//! | `mustHb(a, b)` | 2 | transitive closure of `mhbEdge` |
//! | `postHb(a, b)` | 2 | `postEdge` restricted to a shared looper |
//! | `enables(e, c)` | 2 | `e` holds a summarized API call arming gated callback `c` |
//! | `disables(d, c)` | 2 | `d` holds a summarized API call silencing gated callback `c` |
//! | `predEdge(a, b)` | 2 | predicate-derived must edge (fragment order, task stack) |
//! | `predHb(a, b)` | 2 | transitive closure of `mhbEdge ∪ predEdge` |
//! | `mustNotHb(f, c)` | 2 | `c` is never delivered after `f` completes |
//! | `unreachable(c)` | 1 | `c` can never be delivered at all (demoted `mustNotHb`) |
//!
//! The closure is computed once by the indexed-join engine
//! (`nadroid-datalog`) and exposed through the compact [`HbGraph`] query
//! API: [`HbGraph::must_hb`], [`HbGraph::may_hb`], [`HbGraph::mhp`], and
//! per-edge provenance ([`HbGraph::edges_between`],
//! [`HbGraph::must_hb_path`]). The filter crate queries this graph; the
//! detector uses [`HbGraph::must_hb`] for its opt-in MHP pre-prune.
//!
//! Each HB-family filter is one query of the *direct* edge relations
//! (`tests/hb_parity.rs` checks them against a per-pair statement of
//! the §6 rules that lives in the test); `mustHb` is their sound
//! transitive extension, and is what MHP queries are defined over:
//! `mhp(a, b) = a ≠ b ∧ ¬mustHb(a, b) ∧ ¬mustHb(b, a)`.
//!
//! The predicate relations (`enables`/`disables`/`predEdge`/`predHb`/
//! `mustNotHb`) compile the [`nadroid_android::predicates`] summaries and
//! the extended lifecycle automata into the same database (see
//! [`predicate`]). They are consumed only by the sound refutation filter:
//! `mustHb`, `mhp` and the §6 filter queries never read them, and on
//! programs that use none of the summarized APIs all five relations are
//! empty (the 27-app parity gate pins this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod predicate;

pub use predicate::{MustNotProv, PredEdge, PredEdgeKind, PredicateSite};

use nadroid_android::lifecycle;
use nadroid_android::{CallbackKind, CancelApi};
use nadroid_datalog::{Database, RelId, RuleSet, Term};
use nadroid_ir::{ClassId, FieldId, InstrId, Local, Op, Program};
use nadroid_threadify::resolve::SiteAction;
use nadroid_threadify::{SpawnVia, ThreadId, ThreadKind, ThreadModel};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::time::{Duration, Instant};

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

    /// The relation name, as it appears in the Datalog database.
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

/// The materialized happens-before graph of one threadified program.
///
/// Built once per analysis by [`HbGraph::build`]; queries are hash
/// lookups into the solved Datalog database plus small side maps for
/// edge provenance.
#[derive(Debug)]
pub struct HbGraph {
    db: Database,
    must_hb: RelId,
    post_hb: RelId,
    mhb_service: RelId,
    mhb_asynctask: RelId,
    mhb_lifecycle: RelId,
    /// First matching cancellation API per (use, free) pair, in the free
    /// thread's site order — the CHB evidence the audit trail renders.
    cancel: BTreeMap<(u32, u32), CancelApi>,
    /// Fields an `onResume` of the shared component may re-allocate, per
    /// (use, free) pair — the RHB edge labels.
    reentry: BTreeMap<(u32, u32), BTreeSet<FieldId>>,
    edges: Vec<HbEdge>,
    /// Predicate-extended closure relation (`mhbEdge ∪ predEdge`)⁺.
    pred_hb: RelId,
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
    /// `mustHb` transitive closure with the indexed-join engine.
    ///
    /// With a recorder installed, emits the `hb.edges`,
    /// `hb.closure_micros` and `hb.predicate_edges` counters.
    #[must_use]
    pub fn build(program: &Program, threads: &ThreadModel) -> HbGraph {
        let mut db = Database::new();
        let mhb_service = db.relation("mhbService", 2);
        let mhb_asynctask = db.relation("mhbAsyncTask", 2);
        let mhb_lifecycle = db.relation("mhbLifecycle", 2);
        let post_edge = db.relation("postEdge", 2);
        let same_looper = db.relation("sameLooper", 2);
        let cancel_edge = db.relation("cancelEdge", 2);
        let reentry_edge = db.relation("reentryEdge", 3);
        let mhb_edge = db.relation("mhbEdge", 2);
        let must_hb = db.relation("mustHb", 2);
        let post_hb = db.relation("postHb", 2);
        let enables = db.relation("enables", 2);
        let disables = db.relation("disables", 2);
        let pred_edge = db.relation("predEdge", 2);
        let pred_hb = db.relation("predHb", 2);
        let must_not_hb = db.relation("mustNotHb", 2);
        let unreachable = db.relation("unreachable", 1);

        let resume_fields = resume_alloc_fields(program, threads);
        let mut cancel = BTreeMap::new();
        let mut reentry: BTreeMap<(u32, u32), BTreeSet<FieldId>> = BTreeMap::new();

        // Direct-edge facts per ordered pair. Keyed by (src, dst) so the
        // flattened `edges` vector keeps the (src, dst) scan order, with
        // the per-pair kind order fixed below.
        #[derive(Default)]
        struct PairFacts {
            post: bool,
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
        // thread pairs.
        type KindBucket<K> = BTreeMap<K, Vec<(ThreadId, CallbackKind)>>;
        let mut service_conn: BTreeMap<ClassId, Vec<ThreadId>> = BTreeMap::new();
        let mut service_disc: BTreeMap<ClassId, Vec<ThreadId>> = BTreeMap::new();
        let mut tasks: KindBucket<(ClassId, Option<InstrId>)> = BTreeMap::new();
        let mut lifecycle_members: KindBucket<ClassId> = BTreeMap::new();
        let mut by_class: BTreeMap<ClassId, Vec<ThreadId>> = BTreeMap::new();
        let mut by_component: BTreeMap<ClassId, Vec<ThreadId>> = BTreeMap::new();
        let mut pausers: Vec<(ThreadId, ClassId)> = Vec::new();
        let mut cancelers: Vec<ThreadId> = Vec::new();

        for (t, mt) in threads.threads() {
            // postEdge comes straight off the spawn tree; sameLooper is
            // materialized only where postEdge holds, since the postHb
            // join is its sole consumer (unrestricted it is quadratic in
            // main-looper callbacks).
            if let Some(u) = mt.parent() {
                if matches!(mt.via(), SpawnVia::Post | SpawnVia::Send) {
                    db.insert(post_edge, &[u.raw(), t.raw()]);
                    if threads.atomic_pair(u, t) {
                        db.insert(same_looper, &[u.raw(), t.raw()]);
                    }
                    pairs.entry((u, t)).or_default().post = true;
                }
            }
            if threads.sites_of(t).iter().any(|s| {
                matches!(
                    s.action,
                    SiteAction::Finish
                        | SiteAction::Unbind(_)
                        | SiteAction::Unregister(_)
                        | SiteAction::RemovePosts(_)
                )
            }) {
                cancelers.push(t);
            }
            let Some(k) = effective_kind(threads, t) else {
                continue;
            };
            if let Some(c) = mt.class() {
                by_class.entry(c).or_default().push(t);
                match k {
                    CallbackKind::OnServiceConnected => service_conn.entry(c).or_default().push(t),
                    CallbackKind::OnServiceDisconnected => {
                        service_disc.entry(c).or_default().push(t);
                    }
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
                by_component.entry(c).or_default().push(t);
                if k.is_lifecycle() || k.is_ui() || k.is_system() {
                    lifecycle_members.entry(c).or_default().push((t, k));
                }
                if k == CallbackKind::OnPause {
                    pausers.push((t, c));
                }
            }
        }

        // MHB-Service: connected before disconnected, same connection class.
        for (c, conns) in &service_conn {
            let Some(discs) = service_disc.get(c) else { continue };
            for &u in conns {
                for &f in discs {
                    db.insert(mhb_service, &[u.raw(), f.raw()]);
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
                        db.insert(mhb_asynctask, &[u.raw(), f.raw()]);
                        pairs.entry((u, f)).or_default().asynctask = true;
                    }
                }
            }
        }
        // MHB-Lifecycle: only onCreate-first / onDestroy-last pairs hold,
        // so pivot on those members instead of all member pairs.
        for members in lifecycle_members.values() {
            for &(s, sk) in members {
                if sk != CallbackKind::OnCreate && sk != CallbackKind::OnDestroy {
                    continue;
                }
                for &(o, ok) in members {
                    if s == o {
                        continue;
                    }
                    if lifecycle::lifecycle_mhb(sk, ok) {
                        db.insert(mhb_lifecycle, &[s.raw(), o.raw()]);
                        pairs.entry((s, o)).or_default().lifecycle = true;
                    }
                    if lifecycle::lifecycle_mhb(ok, sk) {
                        db.insert(mhb_lifecycle, &[o.raw(), s.raw()]);
                        pairs.entry((o, s)).or_default().lifecycle = true;
                    }
                }
            }
        }
        // CHB: candidate users are bounded by each cancel site's target —
        // the canceller's component for `finish()`, the named class for
        // unbind/unregister/removeCallbacks.
        for &f in &cancelers {
            let mut cands: BTreeSet<ThreadId> = BTreeSet::new();
            for site in threads.sites_of(f) {
                match site.action {
                    SiteAction::Finish => {
                        if let Some(c) = threads.thread(f).component() {
                            cands.extend(by_component.get(&c).into_iter().flatten().copied());
                        }
                    }
                    SiteAction::Unbind(c)
                    | SiteAction::Unregister(c)
                    | SiteAction::RemovePosts(c) => {
                        cands.extend(by_class.get(&c).into_iter().flatten().copied());
                    }
                    _ => {}
                }
            }
            for u in cands {
                if u == f {
                    continue;
                }
                if let Some(api) = cancel_pair(threads, u, f) {
                    db.insert(cancel_edge, &[u.raw(), f.raw()]);
                    cancel.insert((u.raw(), f.raw()), api);
                    pairs.entry((u, f)).or_default().cancel = Some(api);
                }
            }
        }
        // RHB: an `onResume` of the shared component may re-allocate.
        for &(f, comp) in &pausers {
            let Some(fields) = resume_fields.get(&comp) else { continue };
            if fields.is_empty() {
                continue;
            }
            for &u in by_component.get(&comp).into_iter().flatten() {
                if u == f {
                    continue;
                }
                let Some(uk) = effective_kind(threads, u) else { continue };
                if !(uk.is_ui() || uk.is_system()) {
                    continue;
                }
                for &fld in fields {
                    db.insert(reentry_edge, &[u.raw(), f.raw(), fld.raw()]);
                }
                pairs.entry((u, f)).or_default().reentry = fields.iter().copied().collect();
                reentry.insert((u.raw(), f.raw()), fields.clone());
            }
        }

        // Flatten in (src, dst) order with the canonical per-pair kind
        // order (post, cancel, service, asynctask, lifecycle, reentry).
        let mut edges = Vec::new();
        for (&(src, dst), facts) in &pairs {
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
            for &fld in &facts.reentry {
                push(HbEdgeKind::Reentry(fld));
            }
        }

        // Predicate summaries and extended automata: compiled from the
        // same thread model, fed into their own relations. The §6 facts
        // above are byte-identical with or without them.
        let must_direct: Vec<(ThreadId, ThreadId)> = edges
            .iter()
            .filter(|e| e.kind.is_must())
            .map(|e| (e.src, e.dst))
            .collect();
        let facts = predicate::compute(program, threads, &must_direct);
        let mut enables_prov = BTreeMap::new();
        for &(e, c, site) in &facts.enables {
            db.insert(enables, &[e.raw(), c.raw()]);
            enables_prov.entry((e.raw(), c.raw())).or_insert(site);
        }
        let mut disables_prov = BTreeMap::new();
        for &(d, c, site) in &facts.disables {
            db.insert(disables, &[d.raw(), c.raw()]);
            disables_prov.entry((d.raw(), c.raw())).or_insert(site);
        }
        for e in &facts.edges {
            db.insert(pred_edge, &[e.src.raw(), e.dst.raw()]);
        }
        let pred_edges = facts.edges;

        let v = Term::var;
        let mut rules = RuleSet::new();
        for rel in [mhb_service, mhb_asynctask, mhb_lifecycle] {
            rules.add(mhb_edge, vec![v(0), v(1)]).when(rel, vec![v(0), v(1)]);
        }
        rules.add(must_hb, vec![v(0), v(1)]).when(mhb_edge, vec![v(0), v(1)]);
        rules
            .add(must_hb, vec![v(0), v(2)])
            .when(must_hb, vec![v(0), v(1)])
            .when(mhb_edge, vec![v(1), v(2)]);
        rules
            .add(post_hb, vec![v(0), v(1)])
            .when(post_edge, vec![v(0), v(1)])
            .when(same_looper, vec![v(0), v(1)]);
        // predHb: the predicate-extended sound closure. `predEdge` is
        // cycle-guarded at construction, so this stays a strict partial
        // order extending `mustHb`.
        for rel in [mhb_edge, pred_edge] {
            rules.add(pred_hb, vec![v(0), v(1)]).when(rel, vec![v(0), v(1)]);
            rules
                .add(pred_hb, vec![v(0), v(2)])
                .when(pred_hb, vec![v(0), v(1)])
                .when(rel, vec![v(1), v(2)]);
        }
        let t0 = Instant::now();
        db.run(&rules);
        let closure = t0.elapsed();

        // mustNotHb needs the solved predHb for its disjointness guard,
        // so its facts land after the solve (no rule consumes them).
        let mut must_not: BTreeMap<(u32, u32), MustNotProv> = BTreeMap::new();
        let mut unreachable_cbs: BTreeMap<u32, MustNotProv> = BTreeMap::new();
        for (f, c, prov) in facts.must_not {
            if db.contains(pred_hb, &[f.raw(), c.raw()]) {
                // `c` only ever runs after `f`, yet never runs after `f`:
                // it never runs at all. Demoting (instead of emitting
                // both) keeps mustNotHb ∩ predHb = ∅.
                db.insert(unreachable, &[c.raw()]);
                unreachable_cbs.entry(c.raw()).or_insert(prov);
            } else {
                db.insert(must_not_hb, &[f.raw(), c.raw()]);
                must_not.entry((f.raw(), c.raw())).or_insert(prov);
            }
        }

        let predicate_facts = enables_prov.len() + disables_prov.len() + pred_edges.len();
        emit_metrics(edges.len(), closure, predicate_facts);

        HbGraph {
            db,
            must_hb,
            post_hb,
            mhb_service,
            mhb_asynctask,
            mhb_lifecycle,
            cancel,
            reentry,
            edges,
            pred_hb,
            enables_prov,
            disables_prov,
            pred_edges,
            must_not,
            unreachable_cbs,
        }
    }

    /// Whether every execution orders callbacks of `a` strictly before
    /// callbacks of `b` — the transitive closure of the three sound MHB
    /// relations.
    #[must_use]
    pub fn must_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.db.contains(self.must_hb, &[a.raw(), b.raw()])
    }

    /// The direct sound MHB edge from `a` to `b` — the §6.1.1 MHB filter
    /// and the no-sleep client's ordering — labeled with the
    /// highest-priority relation that produces it (Service, then
    /// AsyncTask, then Lifecycle).
    #[must_use]
    pub fn mhb_edge(&self, a: ThreadId, b: ThreadId) -> Option<HbEdgeKind> {
        let key = [a.raw(), b.raw()];
        if self.db.contains(self.mhb_service, &key) {
            Some(HbEdgeKind::MhbService)
        } else if self.db.contains(self.mhb_asynctask, &key) {
            Some(HbEdgeKind::MhbAsyncTask)
        } else if self.db.contains(self.mhb_lifecycle, &key) {
            Some(HbEdgeKind::MhbLifecycle)
        } else {
            None
        }
    }

    /// Whether some *unsound* ordering evidence (§6.2.1's mayHB family)
    /// suggests `a` completes before `b`: a post on a shared looper, a
    /// cancellation of `a`'s family by `b`, or an `onResume` re-entry
    /// edge.
    #[must_use]
    pub fn may_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.post_hb(a, b) || self.cancel_hb(a, b).is_some() || self.reentry.contains_key(&(a.raw(), b.raw()))
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
        self.db.contains(self.post_hb, &[a.raw(), b.raw()])
    }

    /// The cancellation API through which `b` may silence `a`'s callback
    /// family, if any — the first matching cancel site of `b`, in site
    /// order (the CHB evidence string depends on this order).
    #[must_use]
    pub fn cancel_hb(&self, a: ThreadId, b: ThreadId) -> Option<CancelApi> {
        self.cancel.get(&(a.raw(), b.raw())).copied()
    }

    /// Whether an `onResume` of the shared component may re-allocate
    /// `field` between `b`'s free (`onPause`) and `a`'s next UI use —
    /// the RHB relation.
    #[must_use]
    pub fn reentry_hb(&self, a: ThreadId, b: ThreadId, field: FieldId) -> bool {
        self.reentry
            .get(&(a.raw(), b.raw()))
            .is_some_and(|fields| fields.contains(&field))
    }

    /// All direct edges, in deterministic (src, dst) scan order.
    #[must_use]
    pub fn edges(&self) -> &[HbEdge] {
        &self.edges
    }

    /// The direct edges between one ordered thread pair.
    #[must_use]
    pub fn edges_between(&self, a: ThreadId, b: ThreadId) -> Vec<HbEdge> {
        self.edges
            .iter()
            .filter(|e| e.src == a && e.dst == b)
            .copied()
            .collect()
    }

    /// A shortest witness path `a = t0 → t1 → … → tk = b` through the
    /// direct sound MHB edges, when `must_hb(a, b)` holds — the per-edge
    /// provenance behind a closure fact. The closure answers first: a
    /// pair it does not order returns `None` without walking the graph.
    #[must_use]
    pub fn must_hb_path(&self, a: ThreadId, b: ThreadId) -> Option<Vec<ThreadId>> {
        if a == b || !self.must_hb(a, b) {
            return None;
        }
        shortest_path(a, b, self.must_edges())
    }

    /// Whether the predicate-extended sound closure orders `a` strictly
    /// before `b`: the transitive closure of `mhbEdge ∪ predEdge`. A
    /// superset of [`HbGraph::must_hb`]; still a strict partial order
    /// (the predicate edges are cycle-guarded at construction).
    #[must_use]
    pub fn pred_must_hb(&self, a: ThreadId, b: ThreadId) -> bool {
        self.db.contains(self.pred_hb, &[a.raw(), b.raw()])
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

    /// All solved `enables` facts with provenance, in deterministic
    /// order.
    pub fn enables_facts(&self) -> impl Iterator<Item = (ThreadId, ThreadId, &PredicateSite)> {
        self.enables_prov
            .iter()
            .map(|(&(e, c), site)| (ThreadId::from_raw(e), ThreadId::from_raw(c), site))
    }

    /// Number of solved `disables` facts.
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
        if a == b || !self.pred_must_hb(a, b) {
            return None;
        }
        let pred = self.pred_edges.iter().map(|e| (e.src, e.dst));
        shortest_path(a, b, self.must_edges().chain(pred))
    }

    /// The direct sound MHB edges as `(src, dst)` pairs, in edge order.
    fn must_edges(&self) -> impl Iterator<Item = (ThreadId, ThreadId)> + '_ {
        self.edges
            .iter()
            .filter(|e| e.kind.is_must())
            .map(|e| (e.src, e.dst))
    }

    /// Number of direct edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// A breadth-first shortest path `a → … → b` over `edges`, ties broken
/// by edge order; `None` when `b` is unreachable from `a`.
fn shortest_path(
    a: ThreadId,
    b: ThreadId,
    edges: impl Iterator<Item = (ThreadId, ThreadId)>,
) -> Option<Vec<ThreadId>> {
    let mut succ: BTreeMap<ThreadId, Vec<ThreadId>> = BTreeMap::new();
    for (src, dst) in edges {
        succ.entry(src).or_default().push(dst);
    }
    let mut prev: BTreeMap<ThreadId, ThreadId> = BTreeMap::new();
    let mut queue = VecDeque::from([a]);
    let mut seen = HashSet::from([a]);
    while let Some(t) = queue.pop_front() {
        if t == b {
            let mut path = vec![b];
            let mut cur = b;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in succ.get(&t).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, t);
                queue.push_back(next);
            }
        }
    }
    None
}

fn emit_metrics(edge_count: usize, closure: Duration, predicate_facts: usize) {
    if nadroid_obs::recording() {
        nadroid_obs::counter("hb.edges", edge_count as u64);
        #[allow(clippy::cast_possible_truncation)]
        nadroid_obs::counter("hb.closure_micros", closure.as_micros() as u64);
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

/// The first cancellation site of `f` (in site order) whose scope covers
/// `u`'s callback family — the CHB edge label.
fn cancel_pair(threads: &ThreadModel, u: ThreadId, f: ThreadId) -> Option<CancelApi> {
    let uk = effective_kind(threads, u)?;
    let use_class = threads.thread(u).class();
    threads.sites_of(f).iter().find_map(|site| {
        let api = match site.action {
            SiteAction::Finish => Some(CancelApi::Finish),
            SiteAction::Unbind(c) if use_class == Some(c) => Some(CancelApi::UnbindService),
            SiteAction::Unregister(c) if use_class == Some(c) => {
                Some(CancelApi::UnregisterReceiver)
            }
            SiteAction::RemovePosts(c) if use_class == Some(c) => {
                Some(CancelApi::RemoveCallbacksAndMessages)
            }
            _ => None,
        }?;
        let covered = api.scope().covers(uk)
            && (api != CancelApi::Finish || same_component(threads, u, f));
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
        assert!(g.may_hb(con, destroy));
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
    fn edge_count_matches_edges() {
        let (_p, _t, g) = build(LIFECYCLE);
        assert_eq!(g.edge_count(), g.edges().len());
        assert!(g.edge_count() > 0);
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
        assert_eq!(en.api, "Dialog.show()");
        let dis = g.disables(stop, show).expect("dismiss silences onShow");
        assert_eq!(dis.api, "Dialog.dismiss()");
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
