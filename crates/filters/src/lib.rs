//! The sound and unsound false-positive filters of §6.
//!
//! nAdroid prunes potential UAF warnings with filters derived from the
//! Android concurrency model and its happens-before relation:
//!
//! | Filter | Kind | Rule |
//! |---|---|---|
//! | MHB | sound | use must-happen-before free (Service, AsyncTask, Lifecycle) |
//! | IG | sound | use guarded by a null check, under atomicity or a common lock |
//! | IA | sound | must-allocation before the use in the same callback |
//! | RHB | unsound | `onResume` may re-allocate before a UI-use / `onPause`-free pair |
//! | CHB | unsound | the freeing callback may cancel the use's callback family |
//! | PHB | unsound | the use's callback posted the freeing callback |
//! | MA | unsound | IA with custom getters assumed non-null |
//! | UR | unsound | the use only flows to return/argument positions |
//! | TT | unsound | both endpoints are native (non-looper) threads |
//!
//! Filters are independent, composable passes: [`Filters::prunes`]
//! answers one filter for one warning (Figure 5 measures them
//! individually), and [`Filters::pipeline`] applies a sequence with
//! first-pruner attribution (the Table 1 columns).
//!
//! The HB-family filters (MHB, RHB, CHB, PHB) are each one query of the
//! materialized happens-before graph ([`nadroid_hb::HbGraph`]), the only
//! library code that states §6's ordering rules. The parity suite
//! (`tests/hb_parity.rs`) checks [`Filters::prunes`] against its own
//! per-pair statement of those rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod nosleep;
pub mod refute;

use nadroid_android::CancelApi;
use nadroid_detector::{common_must_lock, UafWarning, UseConsumption};
use nadroid_hb::{HbEdgeKind, HbGraph};
use nadroid_ir::Program;
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::{ThreadId, ThreadModel};
use std::fmt;

/// The nine filters of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FilterKind {
    /// Must-happens-before (sound, §6.1.1).
    Mhb,
    /// If-guard (sound, §6.1.2).
    Ig,
    /// Intra-allocation (sound, §6.1.3).
    Ia,
    /// Resume-happens-before (unsound, §6.2.1).
    Rhb,
    /// Cancel-happens-before (unsound, §6.2.1).
    Chb,
    /// Post-happens-before (unsound, §6.2.1).
    Phb,
    /// Maybe-allocation (unsound, §6.2.2).
    Ma,
    /// Used-for-return (unsound, §6.2.3).
    Ur,
    /// Thread-thread (unsound, §6.2.4).
    Tt,
}

impl FilterKind {
    /// All filters in pipeline order (sound first, as in §8.3).
    #[must_use]
    pub fn all() -> &'static [FilterKind] {
        use FilterKind::*;
        &[Mhb, Ig, Ia, Rhb, Chb, Phb, Ma, Ur, Tt]
    }

    /// The sound filters.
    #[must_use]
    pub fn sound() -> &'static [FilterKind] {
        use FilterKind::*;
        &[Mhb, Ig, Ia]
    }

    /// The unsound filters.
    #[must_use]
    pub fn unsound() -> &'static [FilterKind] {
        use FilterKind::*;
        &[Rhb, Chb, Phb, Ma, Ur, Tt]
    }

    /// The may-happens-before family (RHB + CHB + PHB), reported jointly
    /// as "mayHB" in Figure 5(b).
    #[must_use]
    pub fn may_hb() -> &'static [FilterKind] {
        use FilterKind::*;
        &[Rhb, Chb, Phb]
    }

    /// Whether the filter is sound (never prunes a feasible UAF).
    #[must_use]
    pub fn is_sound(self) -> bool {
        matches!(self, FilterKind::Mhb | FilterKind::Ig | FilterKind::Ia)
    }

    /// Short display name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Mhb => "MHB",
            FilterKind::Ig => "IG",
            FilterKind::Ia => "IA",
            FilterKind::Rhb => "RHB",
            FilterKind::Chb => "CHB",
            FilterKind::Phb => "PHB",
            FilterKind::Ma => "MA",
            FilterKind::Ur => "UR",
            FilterKind::Tt => "TT",
        }
    }
}

impl fmt::Display for FilterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of running a filter pipeline over one warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOutcome {
    /// The warning.
    pub warning: UafWarning,
    /// The first filter (in pipeline order) that pruned it, if any.
    pub pruned_by: Option<FilterKind>,
    /// Every filter in the pipeline that would prune it individually
    /// (Figure 5 overlap analysis).
    pub all_pruning: Vec<FilterKind>,
}

impl FilterOutcome {
    /// Whether the warning survived the pipeline.
    #[must_use]
    pub fn survives(&self) -> bool {
        self.pruned_by.is_none()
    }
}

/// Per-filter examined/killed counts at distinct (use, free)-pair
/// granularity — one Figure 5 bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterTally {
    /// The filter.
    pub kind: FilterKind,
    /// Distinct pairs the filter was evaluated on (the base population).
    pub examined: usize,
    /// Distinct pairs the filter prunes on its own.
    pub killed: usize,
}

/// Tally each filter in `kinds` over a set of pipeline outcomes. The
/// outcomes must come from a [`Filters::pipeline`] run with the same
/// `kinds` (their `all_pruning` records exactly those filters).
///
/// This is the single accounting used by both the analysis-time metric
/// counters and the Figure 5 driver, so the two agree by construction.
#[must_use]
pub fn tally_outcomes(outcomes: &[FilterOutcome], kinds: &[FilterKind]) -> Vec<FilterTally> {
    let examined = distinct_pairs_of(outcomes, |_| true);
    kinds
        .iter()
        .map(|&kind| FilterTally {
            kind,
            examined,
            killed: distinct_pairs_of(outcomes, |o| o.all_pruning.contains(&kind)),
        })
        .collect()
}

/// Distinct pairs pruned by *any* of `kinds` — Figure 5(b) reports the
/// RHB/CHB/PHB family jointly as "mayHB" through this.
#[must_use]
pub fn distinct_killed_by_any(outcomes: &[FilterOutcome], kinds: &[FilterKind]) -> usize {
    distinct_pairs_of(outcomes, |o| {
        kinds.iter().any(|k| o.all_pruning.contains(k))
    })
}

/// Emit `filter.<NAME>.examined` / `filter.<NAME>.killed` counters for a
/// pipeline run into the installed [`nadroid_obs`] recorder (no-op when
/// none is installed). When `kinds` contains the whole mayHB family, a
/// joint `filter.mayHB.killed` counter is emitted too, matching Figure
/// 5(b)'s folded bar.
pub fn record_tallies(outcomes: &[FilterOutcome], kinds: &[FilterKind]) {
    if !nadroid_obs::recording() {
        return;
    }
    for t in tally_outcomes(outcomes, kinds) {
        nadroid_obs::counter(
            &format!("filter.{}.examined", t.kind.name()),
            t.examined as u64,
        );
        nadroid_obs::counter(&format!("filter.{}.killed", t.kind.name()), t.killed as u64);
    }
    if FilterKind::may_hb().iter().all(|k| kinds.contains(k)) {
        nadroid_obs::counter(
            "filter.mayHB.killed",
            distinct_killed_by_any(outcomes, FilterKind::may_hb()) as u64,
        );
    }
}

fn distinct_pairs_of(
    outcomes: &[FilterOutcome],
    mut keep: impl FnMut(&FilterOutcome) -> bool,
) -> usize {
    let mut pairs: Vec<_> = outcomes
        .iter()
        .filter(|o| keep(o))
        .map(|o| o.warning.pair())
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.len()
}

/// One filter's examination of one warning, with concrete evidence for
/// the verdict — the audit-trail unit behind `nadroid explain`.
///
/// `pruned` always equals [`Filters::prunes`] for the same inputs (it is
/// computed by that call), so the audit agrees with Figure 5 tallies by
/// construction; `evidence` re-derives the human-readable *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterVerdict {
    /// The filter that examined the warning.
    pub kind: FilterKind,
    /// Whether it prunes the warning when applied individually.
    pub pruned: bool,
    /// Concrete evidence for the verdict (MHB edge, guard/lockset,
    /// allocation witness, cancel site, …).
    pub evidence: String,
}

/// Filter engine bound to one analyzed program.
#[derive(Debug)]
pub struct Filters<'a> {
    program: &'a Program,
    threads: &'a ThreadModel,
    pts: &'a PointsTo,
    hb: &'a HbGraph,
}

impl<'a> Filters<'a> {
    /// Bind the filter engine to analysis results and the
    /// happens-before graph the caller built for them
    /// ([`HbGraph::build`]). The analysis pipeline builds the graph once
    /// and shares it with the refuter.
    #[must_use]
    pub fn with_hb(
        program: &'a Program,
        threads: &'a ThreadModel,
        pts: &'a PointsTo,
        escape: &'a Escape,
        hb: &'a HbGraph,
    ) -> Self {
        let _ = escape; // reserved: escape-aware refinements
        Filters {
            program,
            threads,
            pts,
            hb,
        }
    }

    /// Whether `kind` prunes `w` when applied individually.
    #[must_use]
    pub fn prunes(&self, kind: FilterKind, w: &UafWarning) -> bool {
        match kind {
            FilterKind::Mhb => self.mhb(w),
            FilterKind::Ig => self.ig(w),
            FilterKind::Ia => self.ia(w),
            FilterKind::Rhb => self.rhb(w),
            FilterKind::Chb => self.chb(w),
            FilterKind::Phb => self.phb(w),
            FilterKind::Ma => self.ma(w),
            FilterKind::Ur => self.ur(w),
            FilterKind::Tt => self.tt(w),
        }
    }

    /// Examine one warning with one filter and report the verdict with
    /// concrete evidence. The `pruned` bit is [`Filters::prunes`] itself.
    #[must_use]
    pub fn verdict(&self, kind: FilterKind, w: &UafWarning) -> FilterVerdict {
        let pruned = self.prunes(kind, w);
        let evidence = match kind {
            FilterKind::Mhb => self.mhb_evidence(w, pruned),
            FilterKind::Ig => self.ig_evidence(w, pruned),
            FilterKind::Ia => self.alloc_evidence(w, pruned, false),
            FilterKind::Rhb => self.rhb_evidence(w, pruned),
            FilterKind::Chb => self.chb_evidence(w, pruned),
            FilterKind::Phb => self.phb_evidence(w, pruned),
            FilterKind::Ma => self.alloc_evidence(w, pruned, true),
            FilterKind::Ur => self.ur_evidence(w),
            FilterKind::Tt => self.tt_evidence(w),
        };
        FilterVerdict {
            kind,
            pruned,
            evidence,
        }
    }

    /// Apply a filter sequence to each warning, recording the first
    /// pruner and the full set of agreeing filters.
    ///
    /// Each warning's verdicts are independent reads of the shared
    /// program/HB/points-to state, so the warning list is partitioned
    /// into contiguous chunks mapped in parallel and re-concatenated in
    /// warning-index order — the outcome vector is identical at any
    /// thread count.
    #[must_use]
    pub fn pipeline(&self, warnings: Vec<UafWarning>, kinds: &[FilterKind]) -> Vec<FilterOutcome> {
        const CHUNK_WARNINGS: usize = 32;
        let chunks = nadroid_par::map_chunks(warnings.len(), CHUNK_WARNINGS, |range| {
            warnings[range]
                .iter()
                .map(|w| {
                    kinds
                        .iter()
                        .copied()
                        .filter(|&k| self.prunes(k, w))
                        .collect::<Vec<FilterKind>>()
                })
                .collect::<Vec<_>>()
        });
        warnings
            .into_iter()
            .zip(chunks.into_iter().flatten())
            .map(|(warning, all_pruning)| FilterOutcome {
                pruned_by: all_pruning.first().copied(),
                all_pruning,
                warning,
            })
            .collect()
    }

    // --- helpers -----------------------------------------------------------

    /// Whether the two endpoints of a warning execute atomically with
    /// respect to each other (both are looper callbacks).
    fn atomic(&self, w: &UafWarning) -> bool {
        self.threads.atomic_pair(w.use_thread, w.free_thread)
    }

    /// Guard/allocation filters require atomicity; for concurrent pairs
    /// they still apply under a common must-lock (§6.1.2).
    fn atomically_protected(&self, w: &UafWarning) -> bool {
        self.atomic(w) || common_must_lock(self.pts, &w.use_access, &w.free_access)
    }

    /// Whether the guard base matches the use base (same local, or equal
    /// non-empty points-to sets).
    fn guarded(&self, w: &UafWarning) -> bool {
        let u = &w.use_access;
        if u.ctx.guarded_non_null(u.base, u.field) {
            return true;
        }
        u.ctx.guards.iter().any(|g| {
            g.non_null && g.field == u.field && {
                let a = self.pts.pts(u.method, g.base);
                let b = self.pts.pts(u.method, u.base);
                !a.is_empty() && a == b
            }
        })
    }

    // --- sound filters ------------------------------------------------------

    /// MHB (§6.1.1): prune when the use must happen before the free —
    /// a direct Service, AsyncTask or Lifecycle edge of the graph (the
    /// transitive extension is [`HbGraph::must_hb`]).
    fn mhb(&self, w: &UafWarning) -> bool {
        self.hb.mhb_edge(w.use_thread, w.free_thread).is_some()
    }

    /// IG (§6.1.2): the use is null-checked, and check-to-use atomicity
    /// holds (same looper, or a common lock for concurrent pairs).
    fn ig(&self, w: &UafWarning) -> bool {
        self.guarded(w) && self.atomically_protected(w)
    }

    /// IA (§6.1.3): a must-allocation dominates the use inside its
    /// (atomic) callback.
    fn ia(&self, w: &UafWarning) -> bool {
        self.atomically_protected(w)
            && dataflow::must_alloc_before(
                self.program,
                self.pts,
                w.use_access.method,
                w.use_access.instr,
                w.use_access.base,
                w.use_access.field,
                dataflow::AllocSources { getters: false },
            )
    }

    // --- unsound filters -----------------------------------------------------

    /// RHB (§6.2.1): UI-use / `onPause`-free pairs are pruned when
    /// `onResume` of the same component may re-allocate the field —
    /// the graph's re-entry edges.
    fn rhb(&self, w: &UafWarning) -> bool {
        self.hb
            .reentry_hb(w.use_thread, w.free_thread, w.use_access.field)
    }

    /// CHB (§6.2.1): the freeing callback may invoke a cancellation API
    /// silencing the use's callback family, so the use must precede the
    /// free — the graph's cancel edges.
    fn chb(&self, w: &UafWarning) -> bool {
        self.hb.cancel_hb(w.use_thread, w.free_thread).is_some()
    }

    /// PHB (§6.2.1): the use's callback posted the freeing callback on
    /// the same looper, so the (atomic) use completes before the free
    /// runs — the graph's looper-restricted post edges.
    fn phb(&self, w: &UafWarning) -> bool {
        self.hb.post_hb(w.use_thread, w.free_thread)
    }

    /// MA (§6.2.2): IA with custom getters assumed to never return null.
    fn ma(&self, w: &UafWarning) -> bool {
        self.atomically_protected(w)
            && dataflow::must_alloc_before(
                self.program,
                self.pts,
                w.use_access.method,
                w.use_access.instr,
                w.use_access.base,
                w.use_access.field,
                dataflow::AllocSources { getters: true },
            )
    }

    /// UR (§6.2.3): the loaded value only flows to return/argument
    /// positions (or nowhere), so the use is commonly benign.
    fn ur(&self, w: &UafWarning) -> bool {
        matches!(
            w.use_access.consumption,
            UseConsumption::ReturnOrArgOnly | UseConsumption::Unused
        )
    }

    /// TT (§6.2.4): both endpoints are native (non-looper) threads.
    fn tt(&self, w: &UafWarning) -> bool {
        !self.threads.thread(w.use_thread).kind().on_looper()
            && !self.threads.thread(w.free_thread).kind().on_looper()
    }

    // --- evidence (audit trail) ---------------------------------------------

    fn lineage(&self, t: ThreadId) -> String {
        self.threads.lineage_string(self.program, t)
    }

    fn field_name(&self, w: &UafWarning) -> String {
        let f = self.program.field(w.field);
        format!("{}.{}", self.program.class(f.owner()).name(), f.name())
    }

    /// Why check-to-use atomicity holds (only valid when it does).
    fn protection_reason(&self, w: &UafWarning) -> &'static str {
        if self.atomic(w) {
            "both endpoints run atomically on the same looper"
        } else {
            "a common must-lock covers both endpoints"
        }
    }

    fn mhb_evidence(&self, w: &UafWarning, pruned: bool) -> String {
        let u = self.lineage(w.use_thread);
        let f = self.lineage(w.free_thread);
        if !pruned {
            return format!("no must-happens-before edge orders [{u}] before [{f}]");
        }
        // The graph's direct edge, labeled by the first relation that
        // holds in the order Service, AsyncTask, Lifecycle.
        let relation = match self.hb.mhb_edge(w.use_thread, w.free_thread) {
            Some(HbEdgeKind::MhbService) => "MHB-Service edge (same connection class)",
            Some(HbEdgeKind::MhbAsyncTask) => "MHB-AsyncTask edge (same task instance)",
            Some(HbEdgeKind::MhbLifecycle) => "MHB-Lifecycle edge (same component)",
            _ => "must-happens-before edge",
        };
        format!("{relation}: [{u}] completes before [{f}] in every execution")
    }

    fn ig_evidence(&self, w: &UafWarning, pruned: bool) -> String {
        let field = self.field_name(w);
        if pruned {
            format!(
                "a non-null check on {field} dominates the use, and {}",
                self.protection_reason(w)
            )
        } else if !self.guarded(w) {
            format!("no non-null check on {field} dominates the use")
        } else {
            format!(
                "a non-null check on {field} dominates the use, but without atomicity \
                 or a common lock the field may be freed between check and use"
            )
        }
    }

    /// Shared IA/MA evidence; `getters` selects the MA allocation sources.
    fn alloc_evidence(&self, w: &UafWarning, pruned: bool, getters: bool) -> String {
        let field = self.field_name(w);
        let sources = if getters {
            "must-allocation (or custom getter assumed non-null)"
        } else {
            "must-allocation"
        };
        if pruned {
            format!(
                "a {sources} of {field} dominates the use in its callback, and {}",
                self.protection_reason(w)
            )
        } else if !self.atomically_protected(w) {
            "the pair is neither atomic nor commonly locked, so a dominating \
             allocation cannot protect the use"
                .into()
        } else {
            format!("no {sources} of {field} dominates the use inside its callback")
        }
    }

    fn rhb_evidence(&self, w: &UafWarning, pruned: bool) -> String {
        if pruned {
            format!(
                "onPause frees {}, but onResume of the same component may \
                 re-allocate it before the next UI use",
                self.field_name(w)
            )
        } else {
            "not a UI-use / onPause-free pair with an onResume re-allocation \
             in the same component"
                .into()
        }
    }

    fn chb_evidence(&self, w: &UafWarning, pruned: bool) -> String {
        if !pruned {
            return "the freeing callback invokes no cancellation API covering \
                    the use's callback family"
                .into();
        }
        // The graph's cancel edge records the first matching cancel site
        // in the free thread's site order.
        let api = self
            .hb
            .cancel_hb(w.use_thread, w.free_thread)
            .map_or("a cancellation API", CancelApi::api_name);
        format!(
            "the freeing callback calls {api}, silencing [{}]'s callback family",
            self.lineage(w.use_thread)
        )
    }

    fn phb_evidence(&self, w: &UafWarning, pruned: bool) -> String {
        if pruned {
            format!(
                "the freeing callback was posted by the use's callback [{}] and \
                 both run atomically on the same looper",
                self.lineage(w.use_thread)
            )
        } else {
            "the freeing callback was not posted by the use's callback on a \
             shared looper"
                .into()
        }
    }

    fn ur_evidence(&self, w: &UafWarning) -> String {
        match w.use_access.consumption {
            UseConsumption::ReturnOrArgOnly => {
                "the loaded value flows only to return/argument positions".into()
            }
            UseConsumption::Unused => "the loaded value is never consumed".into(),
            UseConsumption::Dereferenced => {
                "the loaded value is dereferenced, so a null would throw".into()
            }
        }
    }

    fn tt_evidence(&self, w: &UafWarning) -> String {
        let side = |t: ThreadId| {
            if self.threads.thread(t).kind().on_looper() {
                "a looper callback"
            } else {
                "a native thread"
            }
        };
        format!(
            "use runs on {} [{}], free runs on {} [{}]",
            side(w.use_thread),
            self.lineage(w.use_thread),
            side(w.free_thread),
            self.lineage(w.free_thread)
        )
    }
}

#[cfg(test)]
mod tests;
