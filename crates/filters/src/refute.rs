//! The sound reachability-refutation filter.
//!
//! Runs *after* the §6 pipeline, over surviving warnings only. A warning
//! is refuted when every callback-sequence witness it could have is
//! contradicted by the predicate-extended happens-before knowledge:
//!
//! 1. **Extended order** — `predHb(use, free)` holds: the fragment
//!    automaton or the task-stack model orders the use callback strictly
//!    before the free callback in every execution, exactly like the MHB
//!    filter but over the predicate-extended closure.
//! 2. **Family disabled** — `mustNotHb(free, use)` holds: the use's
//!    callback family is provably disabled (and never re-armable) by the
//!    time the freeing callback has completed, so no witness can deliver
//!    the use after the free. Requires the two endpoints to serialize on
//!    one looper, so "never delivered after" implies "never executes
//!    after".
//! 3. **Unreachable callback** — `unreachable(use)` holds: the use's
//!    callback can never be delivered at all (its family is disabled on
//!    every path that could reach it), so there is no witness, period.
//!
//! All three rest only on *sound* facts (automaton dominators, once-only
//! enablers, unconditional disabler sites), so unlike the §6.2 filters a
//! refutation never discards a feasible UAF. Each refutation carries the
//! full contradiction chain, which the provenance sidecar records under
//! the `nadroid-provenance/4` schema and `nadroid explain` renders.

use nadroid_detector::UafWarning;
use nadroid_hb::{HbGraph, MustNotProv, PredEdgeKind};
use nadroid_ir::Program;
use nadroid_threadify::{ThreadId, ThreadModel};

/// Which contradiction refuted the warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RefutationReason {
    /// `predHb(use, free)`: the predicate-extended closure orders the
    /// use strictly before the free.
    ExtendedOrder,
    /// `mustNotHb(free, use)`: the use's callback family is disabled
    /// before the free can run and can never be re-armed.
    Disabled,
    /// `unreachable(use)`: the use's callback is never delivered at all.
    Unreachable,
}

impl RefutationReason {
    /// Every reason, in the order `refute` tries them.
    pub const ALL: [RefutationReason; 3] = [
        RefutationReason::Unreachable,
        RefutationReason::ExtendedOrder,
        RefutationReason::Disabled,
    ];

    /// Short machine-readable name, used in provenance records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RefutationReason::ExtendedOrder => "extended-order",
            RefutationReason::Disabled => "disabled",
            RefutationReason::Unreachable => "unreachable",
        }
    }

    /// Parse a wire name back; `None` for anything else.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "extended-order" => Some(RefutationReason::ExtendedOrder),
            "disabled" => Some(RefutationReason::Disabled),
            "unreachable" => Some(RefutationReason::Unreachable),
            _ => None,
        }
    }
}

/// A successful refutation: the reason plus the ordered contradiction
/// chain (each step one human-readable fact, ending in the
/// contradiction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refutation {
    /// Which contradiction applied.
    pub reason: RefutationReason,
    /// The ordered evidence steps.
    pub chain: Vec<String>,
}

/// The refutation engine, bound to one analyzed program.
#[derive(Debug)]
pub struct Refuter<'a> {
    program: &'a Program,
    threads: &'a ThreadModel,
    hb: &'a HbGraph,
}

impl<'a> Refuter<'a> {
    /// Bind to the program, its thread model, and the materialized HB
    /// graph (which already holds the solved predicate relations).
    #[must_use]
    pub fn new(program: &'a Program, threads: &'a ThreadModel, hb: &'a HbGraph) -> Self {
        Refuter {
            program,
            threads,
            hb,
        }
    }

    /// Attempt to refute a surviving warning. `None` means no sound
    /// contradiction was found and the warning stands.
    #[must_use]
    pub fn refute(&self, w: &UafWarning) -> Option<Refutation> {
        self.unreachable(w)
            .or_else(|| self.extended_order(w))
            .or_else(|| self.disabled(w))
    }

    fn lineage(&self, t: ThreadId) -> String {
        self.threads.lineage_string(self.program, t)
    }

    /// Reason 3: the use's callback is never delivered at all.
    fn unreachable(&self, w: &UafWarning) -> Option<Refutation> {
        if !self.hb.unreachable_cb(w.use_thread) {
            return None;
        }
        let mut chain = vec![format!(
            "any witness must deliver [{}] at least once",
            self.lineage(w.use_thread)
        )];
        if let Some(prov) = self.hb.unreachable_prov(w.use_thread) {
            chain.extend(self.must_not_steps(prov, w.use_thread));
        }
        chain.push(format!(
            "but the predicate-extended order also requires [{}] to run strictly after \
             the callback that disables it on every path — the callback is never \
             delivered at all; no witness exists",
            self.lineage(w.use_thread)
        ));
        Some(Refutation {
            reason: RefutationReason::Unreachable,
            chain,
        })
    }

    /// Reason 1: the predicate-extended closure orders use before free.
    fn extended_order(&self, w: &UafWarning) -> Option<Refutation> {
        if !self.hb.pred_must_hb(w.use_thread, w.free_thread) {
            return None;
        }
        let mut chain = vec![format!(
            "any witness must run [{}]'s use after [{}]'s free",
            self.lineage(w.use_thread),
            self.lineage(w.free_thread)
        )];
        if let Some(path) = self.hb.pred_must_hb_path(w.use_thread, w.free_thread) {
            for pair in path.windows(2) {
                chain.push(self.hop_step(pair[0], pair[1]));
            }
        }
        chain.push(
            "so the use completes strictly before the free in every execution — \
             no witness exists"
                .into(),
        );
        Some(Refutation {
            reason: RefutationReason::ExtendedOrder,
            chain,
        })
    }

    /// One hop of an extended-order witness path, labeled by its edge.
    fn hop_step(&self, a: ThreadId, b: ThreadId) -> String {
        let la = self.lineage(a);
        let lb = self.lineage(b);
        if let Some(kind) = self.hb.mhb_edge(a, b) {
            return format!("[{la}] precedes [{lb}] ({} edge)", kind.relation());
        }
        for e in self.hb.pred_edges() {
            if e.src == a && e.dst == b {
                return match e.kind {
                    PredEdgeKind::Fragment => format!(
                        "[{la}] precedes [{lb}] (fragment automaton: onAttach first, \
                         onDetach last)"
                    ),
                    PredEdgeKind::TaskStack { .. } => format!(
                        "[{la}] precedes [{lb}] (task stack: the unique startActivity \
                         launch completes before the target's onCreate)"
                    ),
                };
            }
        }
        format!("[{la}] precedes [{lb}]")
    }

    /// Reason 2: the family is disabled before the free can run.
    fn disabled(&self, w: &UafWarning) -> Option<Refutation> {
        let prov = self.hb.must_not_prov(w.free_thread, w.use_thread)?;
        // "never delivered after" implies "never executes after" only when
        // the endpoints serialize on one looper.
        if !self.threads.atomic_pair(w.use_thread, w.free_thread) {
            return None;
        }
        let mut chain = vec![format!(
            "any witness must deliver [{}] after [{}] has completed",
            self.lineage(w.use_thread),
            self.lineage(w.free_thread)
        )];
        chain.extend(self.must_not_steps(prov, w.use_thread));
        chain.push(format!(
            "both callbacks serialize on one looper, so [{}] can never run its use \
             after [{}]'s free — no witness exists",
            self.lineage(w.use_thread),
            self.lineage(w.free_thread)
        ));
        Some(Refutation {
            reason: RefutationReason::Disabled,
            chain,
        })
    }

    /// The shared middle of a `mustNotHb` contradiction chain.
    fn must_not_steps(&self, prov: &MustNotProv, gated: ThreadId) -> Vec<String> {
        match prov {
            MustNotProv::Disabled {
                family,
                enablers,
                disabler,
                disable_site,
            } => {
                let enabler_list = enablers
                    .iter()
                    .map(|&e| format!("[{}]", self.lineage(e)))
                    .collect::<Vec<_>>()
                    .join(", ");
                vec![
                    format!(
                        "[{}] is gated by the {} family: it is only deliverable while \
                         {} has armed it",
                        self.lineage(gated),
                        family.name(),
                        family.enabler_api(),
                    ),
                    format!(
                        "every {} enabler sits in a once-only onCreate: {enabler_list}",
                        family.name()
                    ),
                    format!(
                        "an unconditional {} in [{}] (instr {}) executes before the \
                         free on every automaton path (lifecycle dominator), and the \
                         once-only enabler can never re-arm the family afterwards",
                        family.disabler_api().unwrap_or("disabler"),
                        self.lineage(*disabler),
                        disable_site.raw(),
                    ),
                ]
            }
            MustNotProv::FragmentTerminal { detach } => vec![format!(
                "[{}] is terminal in the fragment automaton: no callback of the \
                 fragment instance is delivered after onDetach",
                self.lineage(*detach)
            )],
        }
    }
}
