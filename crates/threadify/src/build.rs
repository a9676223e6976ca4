//! Construction of the threadification forest (§4 of the paper).

use crate::model::{ModeledThread, SpawnVia, ThreadId, ThreadKind};
use crate::resolve::{Scanner, Site, SiteAction};
use nadroid_android::{CallbackClass, CallbackKind, PredicateFamily};
use nadroid_ir::{Callee, ClassId, InstrId, MethodId, Op, Program};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// The threadified view of a program: a forest of modeled threads rooted
/// at the dummy main, plus the resolved Android-intrinsic sites of each
/// thread.
///
/// # Example
///
/// ```
/// use nadroid_ir::parse_program;
/// use nadroid_threadify::{ThreadModel, ThreadId};
///
/// let p = parse_program(
///     r#"
///     app Demo
///     activity Main {
///         cb onCreate { post Work }
///     }
///     runnable Work in Main { cb run { } }
///     "#,
/// ).unwrap();
/// let model = ThreadModel::build(&p);
/// // dummy main, onCreate (EC), run (PC)
/// assert_eq!(model.len(), 3);
/// let run = model.threads().find(|(_, t)| t.via() == nadroid_threadify::SpawnVia::Post).unwrap();
/// // the posted callback is a child of the posting callback, not of main
/// assert_ne!(run.1.parent(), Some(ThreadId::DUMMY_MAIN));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadModel {
    threads: Vec<ModeledThread>,
    /// Methods executed by each thread: the root plus plain (non-callback)
    /// methods reachable through invokes.
    methods: Vec<Vec<MethodId>>,
    /// Android intrinsic sites attributable to each thread.
    sites: Vec<Vec<Site>>,
    /// Threads executing each method, by [`MethodId::index`].
    by_method: Vec<Vec<ThreadId>>,
    /// Intrinsic sites whose operand class could not be resolved.
    unresolved_sites: Vec<InstrId>,
}

impl ThreadModel {
    /// Threadify a program: model event callbacks as threads per §4.
    #[must_use]
    pub fn build(program: &Program) -> ThreadModel {
        Builder::new(program).run()
    }

    /// Number of modeled threads (including the dummy main).
    #[must_use]
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the model contains only the dummy main.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.threads.len() <= 1
    }

    /// Look up a modeled thread.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a thread of this model.
    #[must_use]
    pub fn thread(&self, id: ThreadId) -> &ModeledThread {
        &self.threads[id.index()]
    }

    /// Iterate all modeled threads with their ids.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, &ModeledThread)> + '_ {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| (ThreadId(i as u32), t))
    }

    /// Methods executed by a thread (root plus plain helpers).
    #[must_use]
    pub fn methods_of(&self, id: ThreadId) -> &[MethodId] {
        &self.methods[id.index()]
    }

    /// Android intrinsic sites executed by a thread.
    #[must_use]
    pub fn sites_of(&self, id: ThreadId) -> &[Site] {
        &self.sites[id.index()]
    }

    /// Threads that execute a method (possibly several when a helper is
    /// shared).
    #[must_use]
    pub fn threads_of_method(&self, m: MethodId) -> &[ThreadId] {
        self.by_method.get(m.index()).map_or(&[], Vec::as_slice)
    }

    /// Intrinsic sites skipped because their operand class did not resolve.
    #[must_use]
    pub fn unresolved_sites(&self) -> &[InstrId] {
        &self.unresolved_sites
    }

    /// The lineage of a thread: itself, its parent, ... up to the dummy
    /// main.
    #[must_use]
    pub fn lineage(&self, id: ThreadId) -> Vec<ThreadId> {
        let mut out = vec![id];
        let mut cur = id;
        while let Some(p) = self.threads[cur.index()].parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Whether `ancestor` appears in the lineage of `t` (reflexive).
    #[must_use]
    pub fn is_ancestor(&self, ancestor: ThreadId, t: ThreadId) -> bool {
        self.lineage(t).contains(&ancestor)
    }

    /// Whether two modeled threads are atomic with respect to each other:
    /// both are event callbacks on the *same* looper, so their bodies
    /// cannot interleave at instruction granularity. Callbacks on a
    /// custom `HandlerThread` looper are not atomic with main-looper
    /// callbacks — the §8.1 multi-looper refinement (the paper's
    /// prototype assumed a single looper; the IG/IA filters downgrade
    /// automatically for cross-looper pairs here).
    #[must_use]
    pub fn atomic_pair(&self, a: ThreadId, b: ThreadId) -> bool {
        let ta = self.thread(a);
        let tb = self.thread(b);
        ta.kind().on_looper() && tb.kind().on_looper() && ta.looper() == tb.looper()
    }

    /// A human-readable lineage string
    /// (`main > onClick > run`), used by the §7 report.
    #[must_use]
    pub fn lineage_string(&self, program: &Program, id: ThreadId) -> String {
        let mut names: Vec<String> = self
            .lineage(id)
            .into_iter()
            .map(|t| self.describe(program, t))
            .collect();
        names.reverse();
        names.join(" > ")
    }

    /// Short description of one thread (`Main.onClick` or `main`).
    #[must_use]
    pub fn describe(&self, program: &Program, id: ThreadId) -> String {
        let t = self.thread(id);
        match (t.class, t.root) {
            (Some(c), Some(m)) => {
                format!("{}.{}", program.class(c).name(), program.method(m).name())
            }
            _ => "main".to_owned(),
        }
    }

    /// Static number of Entry Callbacks (Table 1's EC column): modeled
    /// callback threads classified EC, counted per distinct root method.
    #[must_use]
    pub fn entry_callback_count(&self) -> usize {
        self.count_class(CallbackClass::Entry)
    }

    /// Static number of Posted Callbacks (Table 1's PC column).
    #[must_use]
    pub fn posted_callback_count(&self) -> usize {
        self.count_class(CallbackClass::Posted)
    }

    fn count_class(&self, class: CallbackClass) -> usize {
        let mut roots: Vec<MethodId> = self
            .threads
            .iter()
            .filter(|t| t.kind.callback_class() == Some(class))
            .filter_map(|t| t.root)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Render the threadification forest in Graphviz DOT format: one
    /// node per modeled thread (labelled with its class.method, kind, and
    /// looper), edges from parent to child annotated with the spawn
    /// mechanism. Useful for inspecting what §4 produced.
    #[must_use]
    pub fn to_dot(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph threadification {\n  rankdir=TB;\n");
        for (id, t) in self.threads() {
            let label = self.describe(program, id);
            let shape = match t.kind() {
                ThreadKind::DummyMain => "doubleoctagon",
                ThreadKind::Callback(_) => "box",
                ThreadKind::TaskBody | ThreadKind::Native => "ellipse",
            };
            let looper = match t.looper() {
                Some(l) => format!("\\non {}", program.class(l).name()),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  t{} [label=\"{label}{looper}\", shape={shape}];",
                id.raw()
            );
        }
        for (id, t) in self.threads() {
            if let Some(p) = t.parent() {
                let _ = writeln!(
                    out,
                    "  t{} -> t{} [label=\"{:?}\"];",
                    p.raw(),
                    id.raw(),
                    t.via()
                );
            }
        }
        out.push_str("}\n");
        out
    }

    /// Static number of threads (Table 1's T column): the dummy UI main
    /// thread, AsyncTask `doInBackground` bodies, and native threads,
    /// counted per distinct root method (plus the dummy main).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        let mut roots: Vec<MethodId> = self
            .threads
            .iter()
            .filter(|t| matches!(t.kind, ThreadKind::TaskBody | ThreadKind::Native))
            .filter_map(|t| t.root)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        1 + roots.len()
    }
}

struct Builder<'p> {
    program: &'p Program,
    threads: Vec<ModeledThread>,
    methods: Vec<Vec<MethodId>>,
    sites: Vec<Vec<Site>>,
    by_method: Vec<Vec<ThreadId>>,
    unresolved: Vec<InstrId>,
    queue: VecDeque<ThreadId>,
    /// Each thread by its (root, parent, origin site) triple, the key
    /// under which `spawn` deduplicates.
    by_key: HashMap<(MethodId, ThreadId, Option<InstrId>), ThreadId>,
    scanner: Scanner,
}

impl<'p> Builder<'p> {
    fn new(program: &'p Program) -> Self {
        let dummy = ModeledThread {
            kind: ThreadKind::DummyMain,
            root: None,
            class: None,
            parent: None,
            component: None,
            origin_site: None,
            via: SpawnVia::Root,
            looper: None,
        };
        Builder {
            program,
            threads: vec![dummy],
            methods: vec![Vec::new()],
            sites: vec![Vec::new()],
            by_method: vec![Vec::new(); program.method_ids().count()],
            unresolved: Vec::new(),
            queue: VecDeque::new(),
            by_key: HashMap::new(),
            scanner: Scanner::default(),
        }
    }

    fn run(mut self) -> ThreadModel {
        self.arm_components();
        self.arm_manifest_receivers();
        while let Some(t) = self.queue.pop_front() {
            self.process(t);
        }
        ThreadModel {
            threads: self.threads,
            methods: self.methods,
            sites: self.sites,
            by_method: self.by_method,
            unresolved_sites: self.unresolved,
        }
    }

    /// Lifecycle, UI, and system callbacks declared directly on component
    /// classes — and on fragments hosted by them — are armed by the
    /// framework: children of the dummy main (§4.1). Fragment modeling
    /// extends the paper's prototype, which skipped them (§8.1).
    fn arm_components(&mut self) {
        for (cid, class) in self.program.classes() {
            let armed = class.role().is_component()
                || (class.role() == nadroid_android::ClassRole::Fragment
                    && class.outer().is_some());
            if !armed {
                continue;
            }
            for &m in class.methods() {
                let Some(k) = self.program.method(m).callback() else {
                    continue;
                };
                if k.is_lifecycle() || k.is_ui() || k.is_system() || k.is_fragment_lifecycle() {
                    self.spawn(
                        ThreadKind::Callback(k),
                        m,
                        cid,
                        ThreadId::DUMMY_MAIN,
                        SpawnVia::Component,
                        None,
                    );
                }
            }
        }
    }

    /// Receivers declared in the manifest are registered from process
    /// start: the receiver family's gated callbacks are armed.
    fn arm_manifest_receivers(&mut self) {
        for &r in self.program.manifest().declared_receivers() {
            for &k in PredicateFamily::Receiver.gated_kinds() {
                if let Some(m) = callback_method(self.program, r, k) {
                    self.spawn(
                        ThreadKind::Callback(k),
                        m,
                        r,
                        ThreadId::DUMMY_MAIN,
                        SpawnVia::Manifest,
                        None,
                    );
                }
            }
        }
    }

    /// Scan a thread's methods for intrinsic sites and spawn the modeled
    /// threads they arm (§4.2), recursively via the worklist.
    fn process(&mut self, t: ThreadId) {
        // Spawning pushes new threads' method lists, never this one's.
        for i in 0..self.methods[t.index()].len() {
            let m = self.methods[t.index()][i];
            let scan = self.scanner.scan(self.program, m);
            self.unresolved.extend_from_slice(&scan.unresolved);
            for site in &scan.sites {
                self.handle_site(t, site);
            }
            self.sites[t.index()].extend(scan.sites);
        }
    }

    fn handle_site(&mut self, t: ThreadId, site: &Site) {
        let p = self.program;
        let at = |class: ClassId, kind: CallbackKind| callback_method(p, class, kind);
        match site.action {
            SiteAction::Post(c) => {
                if let Some(m) = at(c, CallbackKind::PostedRun) {
                    self.spawn(
                        ThreadKind::Callback(CallbackKind::PostedRun),
                        m,
                        c,
                        t,
                        SpawnVia::Post,
                        Some(site.instr),
                    );
                }
            }
            SiteAction::Send(c) => {
                if let Some(m) = at(c, CallbackKind::HandleMessage) {
                    self.spawn(
                        ThreadKind::Callback(CallbackKind::HandleMessage),
                        m,
                        c,
                        t,
                        SpawnVia::Send,
                        Some(site.instr),
                    );
                }
            }
            SiteAction::Execute(c) => {
                // Figure 3(e): the task body is a child of the executor;
                // the looper-side callbacks are children of the task body.
                let body = at(c, CallbackKind::DoInBackground).and_then(|m| {
                    self.spawn(
                        ThreadKind::TaskBody,
                        m,
                        c,
                        t,
                        SpawnVia::Execute,
                        Some(site.instr),
                    )
                });
                let anchor = body.unwrap_or(t);
                for k in [
                    CallbackKind::OnPreExecute,
                    CallbackKind::OnProgressUpdate,
                    CallbackKind::OnPostExecute,
                ] {
                    if let Some(m) = at(c, k) {
                        self.spawn(
                            ThreadKind::Callback(k),
                            m,
                            c,
                            anchor,
                            SpawnVia::TaskCallback,
                            Some(site.instr),
                        );
                    }
                }
            }
            SiteAction::Spawn(c) => {
                if let Some(m) = at(c, CallbackKind::ThreadRun) {
                    self.spawn(
                        ThreadKind::Native,
                        m,
                        c,
                        t,
                        SpawnVia::Spawn,
                        Some(site.instr),
                    );
                }
            }
            SiteAction::Listen(api, c) => {
                // §4.1: imperatively registered UI/system listeners are
                // still entry callbacks — children of the dummy main.
                let k = api.armed_callback();
                if let Some(m) = at(c, k) {
                    self.spawn(
                        ThreadKind::Callback(k),
                        m,
                        c,
                        ThreadId::DUMMY_MAIN,
                        SpawnVia::Listener,
                        Some(site.instr),
                    );
                }
            }
            // Launch sites arm nothing: the target activity's lifecycle
            // callbacks are already component-armed, and the predicate HB
            // layer reads launch sites directly to derive task-stack edges.
            SiteAction::Enable(PredicateFamily::Task, _) => {}
            // A summarized enabler arms the family's gated callbacks that
            // its target class declares, as children of the enabler.
            SiteAction::Enable(family, c) => {
                for &k in family.gated_kinds() {
                    if let Some(m) = at(c, k) {
                        self.spawn(
                            ThreadKind::Callback(k),
                            m,
                            c,
                            t,
                            SpawnVia::Enable(family),
                            Some(site.instr),
                        );
                    }
                }
            }
            // Cancellation, disabler and publish sites arm no threads; the
            // HB and filter layers read them from `sites_of`.
            SiteAction::Disable(..)
            | SiteAction::RemovePosts(_)
            | SiteAction::Finish
            | SiteAction::Publish => {}
        }
    }

    fn spawn(
        &mut self,
        kind: ThreadKind,
        root: MethodId,
        class: ClassId,
        parent: ThreadId,
        via: SpawnVia,
        origin_site: Option<InstrId>,
    ) -> Option<ThreadId> {
        // Cycle cut: a thread whose root already appears in its ancestor
        // chain would recurse forever (e.g. a runnable re-posting itself).
        let mut cur = Some(parent);
        while let Some(c) = cur {
            if self.threads[c.index()].root == Some(root) {
                return None;
            }
            cur = self.threads[c.index()].parent;
        }
        // Dedup: the same (root, parent, origin) triple is one thread.
        let id = ThreadId(self.threads.len() as u32);
        match self.by_key.entry((root, parent, origin_site)) {
            Entry::Occupied(e) => return Some(*e.get()),
            Entry::Vacant(e) => e.insert(id),
        };
        let component = self.component_of(class, parent);
        let looper = if kind.on_looper() {
            self.program.class(class).looper()
        } else {
            None
        };
        self.threads.push(ModeledThread {
            kind,
            root: Some(root),
            class: Some(class),
            parent: Some(parent),
            component,
            origin_site,
            via,
            looper,
        });
        let own = own_methods(self.program, root);
        for &m in &own {
            self.by_method[m.index()].push(id);
        }
        self.methods.push(own);
        self.sites.push(Vec::new());
        self.queue.push_back(id);
        Some(id)
    }

    /// The component governing a callback: the outermost enclosing class
    /// if it is a component, otherwise the parent thread's component.
    fn component_of(&self, class: ClassId, parent: ThreadId) -> Option<ClassId> {
        let outer = self.program.outermost_class(class);
        if self.program.class(outer).role().is_component() {
            Some(outer)
        } else {
            self.threads[parent.index()].component
        }
    }
}

/// The method implementing `kind` on `class`, if declared.
#[must_use]
pub fn callback_method(program: &Program, class: ClassId, kind: CallbackKind) -> Option<MethodId> {
    program
        .class(class)
        .methods()
        .iter()
        .copied()
        .find(|&m| program.method(m).callback() == Some(kind))
}

/// The methods a thread rooted at `root` executes: `root` plus all plain
/// (non-callback) methods transitively reachable through invokes.
#[must_use]
pub fn own_methods(program: &Program, root: MethodId) -> Vec<MethodId> {
    let mut seen = vec![root];
    let mut stack = vec![root];
    while let Some(m) = stack.pop() {
        program.method(m).body().for_each_instr(&mut |i| {
            if let Op::Invoke {
                callee: Callee::Method(callee),
                ..
            } = i.op
            {
                if program.method(callee).callback().is_none() && !seen.contains(&callee) {
                    seen.push(callee);
                    stack.push(callee);
                }
            }
        });
    }
    seen
}
