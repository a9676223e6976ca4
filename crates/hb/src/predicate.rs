//! Predicate callback summaries compiled into happens-before facts.
//!
//! This module turns the [`PredicateFamily`] enabling/disabling API
//! summaries and the extended lifecycle automata (fragment attach/detach,
//! multi-activity task stack) into four kinds of fact:
//!
//! | fact | meaning |
//! |---|---|
//! | `enables(e, c)` | thread `e` contains an API call arming gated callback `c` |
//! | `disables(d, c)` | thread `d` contains an API call silencing gated callback `c` |
//! | `predEdge(a, b)` | a predicate-derived must-HB edge (fragment order, task stack) |
//! | `mustNotHb(f, c)` | `c` is never delivered after `f` completes |
//!
//! `predEdge` feeds the predicate-extended closure `predHb` (a strict
//! extension of `mustHb`; `mustHb` itself is untouched). `mustNotHb`
//! is derived by a dominator argument over the activity automaton:
//!
//! 1. every enabler of the family sits in the component's `onCreate`
//!    (once-only, and a dominator of every other lifecycle callback), and
//! 2. some *unconditional* disabler sits in a callback `d` that the
//!    automaton guarantees executes before `f` does
//!    ([`lifecycle::must_precede_execution`]),
//!
//! so by the time `f` runs, the family has been disabled and — the
//! enabler being once-only — can never be re-armed. Fragment `onDetach`
//! is terminal in the fragment automaton, which yields the analogous
//! fact without any disabler API.

use crate::{bfs, effective_kind, Successors};
use nadroid_android::fragment::fragment_mhb;
use nadroid_android::predicates::PredicateFamily;
use nadroid_android::{lifecycle, CallbackKind, ClassRole};
use nadroid_ir::{Block, ClassId, InstrId, MethodId, Program, Stmt};
use nadroid_threadify::resolve::SiteAction;
use nadroid_threadify::{ThreadId, ThreadModel};
use std::collections::{BTreeMap, BTreeSet};

/// Provenance of one `enables`/`disables` fact: which summarized family's
/// enabler or disabler API, at which instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateSite {
    /// The summarized family the API belongs to.
    pub family: PredicateFamily,
    /// The call instruction.
    pub site: InstrId,
}

/// Why a `predEdge` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredEdgeKind {
    /// Fragment automaton order: `onAttach` first / `onDetach` last on
    /// the same fragment class.
    Fragment,
    /// Task-stack order: the launcher callback completes (looper
    /// atomicity) before the launched activity's `onCreate` runs. Only
    /// emitted for a launch-gated target with a unique launch site in a
    /// once-only looper callback.
    TaskStack {
        /// The unique `startActivity` call.
        launch_site: InstrId,
    },
}

/// One predicate-derived must-HB edge with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredEdge {
    /// The earlier thread.
    pub src: ThreadId,
    /// The later thread.
    pub dst: ThreadId,
    /// Why the edge exists.
    pub kind: PredEdgeKind,
}

/// Why a `mustNotHb(f, c)` fact holds — the contradiction chain the
/// refutation filter records as audit evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MustNotProv {
    /// The family was disabled before `f` could run and can never be
    /// re-armed (enablers are once-only and dominated by the disabler).
    Disabled {
        /// The summarized family.
        family: PredicateFamily,
        /// Every thread holding an enabler site (all in `onCreate`).
        enablers: Vec<ThreadId>,
        /// The thread holding the unconditional disabler.
        disabler: ThreadId,
        /// The disabling call instruction.
        disable_site: InstrId,
    },
    /// `f` is a fragment `onDetach`, terminal in the fragment automaton:
    /// no callback of the instance runs after it.
    FragmentTerminal {
        /// The detach thread itself.
        detach: ThreadId,
    },
}

/// The raw predicate facts of one threadified program, pre-closure.
#[derive(Debug, Default)]
pub(crate) struct PredicateFacts {
    /// `(enabler thread, gated thread, provenance)`, deduped per pair.
    pub enables: Vec<(ThreadId, ThreadId, PredicateSite)>,
    /// `(disabler thread, gated thread, provenance)`, deduped per pair.
    pub disables: Vec<(ThreadId, ThreadId, PredicateSite)>,
    /// Predicate-derived must-HB edges, cycle-guarded.
    pub edges: Vec<PredEdge>,
    /// The successor lists `predHb` closes over: the sound MHB edges,
    /// then `edges` in order.
    pub succ: Successors,
    /// Candidate `mustNotHb(f, c)` facts with provenance. The builder
    /// demotes a candidate to an `unreachable(c)` fact when `predHb(f, c)`
    /// also holds (keeping `mustNotHb` disjoint from every must relation).
    pub must_not: Vec<(ThreadId, ThreadId, MustNotProv)>,
}

/// One summarized API occurrence.
struct ApiSite {
    thread: ThreadId,
    site: InstrId,
    /// Site sits at the top level of the thread's root method body
    /// (executes on every run of the callback).
    unconditional: bool,
}

/// Compute all predicate facts. `must_succ` holds the successors
/// through the direct sound MHB edges; extended with each predicate
/// edge as it is found, it is the task-stack cycle guard's graph, so
/// `predHb` stays a strict partial order even for adversarial
/// mutual-launch programs.
pub(crate) fn compute(
    program: &Program,
    threads: &ThreadModel,
    must_succ: &Successors,
) -> PredicateFacts {
    let mut enabler_sites: BTreeMap<(PredicateFamily, ClassId), Vec<ApiSite>> = BTreeMap::new();
    let mut disabler_sites: BTreeMap<(PredicateFamily, ClassId), Vec<ApiSite>> = BTreeMap::new();
    let mut gated: BTreeMap<(PredicateFamily, ClassId), Vec<ThreadId>> = BTreeMap::new();
    let mut fragment_members: BTreeMap<ClassId, Vec<(ThreadId, CallbackKind)>> = BTreeMap::new();
    let mut lifecycle_members: BTreeMap<ClassId, Vec<(ThreadId, CallbackKind)>> = BTreeMap::new();
    let mut toplevel: BTreeMap<MethodId, BTreeSet<InstrId>> = BTreeMap::new();

    for (t, mt) in threads.threads() {
        let kind = effective_kind(threads, t);
        if let (Some(k), Some(c)) = (kind, mt.class()) {
            if k.is_fragment_lifecycle() {
                fragment_members.entry(c).or_default().push((t, k));
            }
            if let Some(fam) = PredicateFamily::of_kind(k) {
                gated.entry((fam, c)).or_default().push(t);
            }
        }
        if let (Some(k), Some(comp)) = (kind, mt.component()) {
            if k.is_lifecycle() {
                lifecycle_members.entry(comp).or_default().push((t, k));
            }
        }
        for site in threads.sites_of(t) {
            let (fam, class, enabler) = match site.action {
                SiteAction::Enable(fam, c) => (fam, c, true),
                SiteAction::Disable(fam, c) => (fam, c, false),
                _ => continue,
            };
            let unconditional = mt.root() == Some(site.method)
                && toplevel
                    .entry(site.method)
                    .or_insert_with(|| {
                        let mut out = BTreeSet::new();
                        toplevel_instrs(program.method(site.method).body(), &mut out);
                        out
                    })
                    .contains(&site.instr);
            let api = ApiSite {
                thread: t,
                site: site.instr,
                unconditional,
            };
            if enabler {
                enabler_sites.entry((fam, class)).or_default().push(api);
            } else {
                disabler_sites.entry((fam, class)).or_default().push(api);
            }
        }
    }
    // A launch gates a launch-gated target's whole lifecycle (enable-only:
    // there is no "un-launch").
    for &(fam, target) in enabler_sites.keys() {
        if fam == PredicateFamily::Task && launch_gated(program, target) {
            let members = lifecycle_members.get(&target).into_iter().flatten();
            gated.insert((fam, target), members.map(|&(t, _)| t).collect());
        }
    }

    let mut facts = PredicateFacts::default();

    // enables / disables facts, deduped per (api thread, gated thread)
    // pair — the first site in scan order is the provenance.
    let fact_list = |sites: &BTreeMap<(PredicateFamily, ClassId), Vec<ApiSite>>| {
        let mut out: Vec<(ThreadId, ThreadId, PredicateSite)> = Vec::new();
        let mut seen: BTreeSet<(ThreadId, ThreadId)> = BTreeSet::new();
        for (&(fam, class), occurrences) in sites {
            let Some(gs) = gated.get(&(fam, class)) else {
                continue;
            };
            for occ in occurrences {
                for &g in gs {
                    if seen.insert((occ.thread, g)) {
                        let site = PredicateSite {
                            family: fam,
                            site: occ.site,
                        };
                        out.push((occ.thread, g, site));
                    }
                }
            }
        }
        out
    };
    facts.enables = fact_list(&enabler_sites);
    facts.disables = fact_list(&disabler_sites);

    // predEdge (fragment order): onAttach-first / onDetach-last pairs on
    // the same fragment class — the Dexteroid-style automaton's sound
    // kind-level facts, kept out of the paper-pinned MHB-Lifecycle.
    for members in fragment_members.values() {
        for &(a, ak) in members {
            for &(b, bk) in members {
                if a != b && fragment_mhb(ak, bk) {
                    facts.edges.push(PredEdge {
                        src: a,
                        dst: b,
                        kind: PredEdgeKind::Fragment,
                    });
                }
            }
        }
    }

    // predEdge (task stack): the launcher callback atomically completes
    // before the launched activity's onCreate. Sound only when the
    // target cannot start any other way (launch-gated, unique site) and
    // the launcher runs at most once on a looper (else a later launcher
    // execution could follow the target's onCreate). A reachability
    // guard keeps adversarial mutual-launch programs acyclic.
    let mut succ = must_succ.clone();
    for e in &facts.edges {
        succ[e.src.index()].push(e.dst);
    }
    for (&(fam, target), occurrences) in &enabler_sites {
        if fam != PredicateFamily::Task || occurrences.len() != 1 || !launch_gated(program, target)
        {
            continue;
        }
        let occ = &occurrences[0];
        let mt = threads.thread(occ.thread);
        let once_looper = effective_kind(threads, occ.thread).is_some_and(lifecycle::once_only)
            && mt.kind().on_looper();
        if !once_looper {
            continue;
        }
        let Some(members) = lifecycle_members.get(&target) else {
            continue;
        };
        for &(dst, dk) in members {
            if dk != CallbackKind::OnCreate || dst == occ.thread {
                continue;
            }
            if bfs(&succ, dst, Some(occ.thread))
                .iter()
                .any(|&(t, _)| t == occ.thread)
            {
                continue; // would close a cycle: skip, predHb stays strict
            }
            succ[occ.thread.index()].push(dst);
            facts.edges.push(PredEdge {
                src: occ.thread,
                dst,
                kind: PredEdgeKind::TaskStack {
                    launch_site: occ.site,
                },
            });
        }
    }
    facts.succ = succ;

    // mustNotHb (family disabled): enablers all once-only in onCreate,
    // some unconditional disabler in a callback the automaton proves
    // executes before f does.
    for (&(fam, class), dsites) in &disabler_sites {
        let Some(gs) = gated.get(&(fam, class)) else {
            continue;
        };
        let Some(ens) = enabler_sites.get(&(fam, class)) else {
            continue;
        };
        if ens.is_empty() {
            continue;
        }
        for d in dsites.iter().filter(|d| d.unconditional) {
            let Some(dk) = effective_kind(threads, d.thread) else {
                continue;
            };
            let Some(comp) = threads.thread(d.thread).component() else {
                continue;
            };
            let all_enablers_dominated = ens.iter().all(|e| {
                effective_kind(threads, e.thread) == Some(CallbackKind::OnCreate)
                    && threads.thread(e.thread).component() == Some(comp)
                    && lifecycle::must_precede_execution(CallbackKind::OnCreate, dk)
            });
            if !all_enablers_dominated {
                continue;
            }
            let prov = || MustNotProv::Disabled {
                family: fam,
                enablers: ens.iter().map(|e| e.thread).collect(),
                disabler: d.thread,
                disable_site: d.site,
            };
            for &(f, fk) in lifecycle_members.get(&comp).into_iter().flatten() {
                if !lifecycle::must_precede_execution(dk, fk) {
                    continue;
                }
                for &g in gs {
                    if g != f {
                        facts.must_not.push((f, g, prov()));
                    }
                }
            }
        }
    }

    // mustNotHb (fragment terminal): nothing of the instance runs after
    // onDetach.
    for members in fragment_members.values() {
        for &(f, fk) in members {
            if fk != CallbackKind::OnDetach {
                continue;
            }
            for &(g, _) in members {
                if g != f {
                    facts
                        .must_not
                        .push((f, g, MustNotProv::FragmentTerminal { detach: f }));
                }
            }
        }
    }

    facts
}

/// Whether an activity can only start through an explicit launch: it is
/// statically targeted by some `startActivity` site and is not the
/// manifest main (mirrors the dynamic interpreter's launch gating).
fn launch_gated(program: &Program, target: ClassId) -> bool {
    program.class(target).role() == ClassRole::Activity
        && program.manifest().main_activity() != Some(target)
}

/// Instructions that execute on *every* run of the body: top-level
/// statements, descending through `sync` blocks (always entered) but not
/// into conditionals or loops.
fn toplevel_instrs(block: &Block, out: &mut BTreeSet<InstrId>) {
    for stmt in block {
        match stmt {
            Stmt::Instr(i) => {
                out.insert(i.id);
            }
            Stmt::Sync { body, .. } => toplevel_instrs(body, out),
            Stmt::If { .. } | Stmt::Loop { .. } => {}
        }
    }
}
