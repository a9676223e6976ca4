//! The pattern library: every concurrency idiom the evaluation plants.
//!
//! Each [`PatternKind`] expands to a self-contained cluster of classes
//! (one activity plus helpers) racing on its own fields, so a generated
//! app's analysis outcome is the disjoint union of its patterns'
//! outcomes. The expected outcome of every pattern is certified by the
//! corpus test suite: the static pipeline must attribute it to the
//! expected filter (or survive), and the schedule explorer must agree on
//! harmfulness.

use nadroid_core::{FpCause, PairType};
use nadroid_filters::refute::RefutationReason;
use nadroid_filters::FilterKind;

/// What the pipeline is expected to do with a pattern's warning pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Pruned by this filter (first pruner in pipeline order).
    PrunedBy(FilterKind),
    /// Survives all filters as a true harmful UAF of the given type.
    Harmful(PairType),
    /// Survives all filters but is a false positive of the given cause.
    FalsePositive(FpCause),
    /// Survives the §6 pipeline but the reachability-refutation filter
    /// contradicts every witness for the given reason.
    Refuted(RefutationReason),
    /// Not detected at all (the §8.6 unanalyzed-code false negative).
    Undetected,
    /// No warning pair (pure noise).
    Benign,
}

/// A plantable concurrency pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PatternKind {
    // --- harmful survivors, by Table 1 pair type ---
    /// Unordered UI use vs lifecycle free (EC-EC).
    HarmfulEcEc,
    /// Figure 1(a): UI use vs service-disconnect free (EC-PC).
    HarmfulEcPc,
    /// Figure 1(b): posted use vs service-disconnect free (PC-PC).
    HarmfulPcPc,
    /// Callback use vs free in a thread it spawned (C-RT).
    HarmfulCRt,
    /// Figure 1(c): guarded callback use vs unrelated-thread free (C-NT).
    HarmfulCNt,
    // --- pruned by sound filters ---
    /// Figure 4(a)-style lifecycle order (MHB).
    Mhb,
    /// Figure 4(b): guarded atomic use (IG).
    Ig,
    /// Figure 4(c): allocation before use (IA).
    Ia,
    /// MHB and IG both apply (guarded use in `onCreate`).
    MhbIg,
    /// MHB and IA both apply (allocation in `onCreate`).
    MhbIa,
    // --- pruned by unsound filters ---
    /// Figure 4(d): `onResume` re-allocates (RHB).
    Rhb,
    /// Figure 4(e): `finish()` cancels the use family (CHB).
    Chb,
    /// Figure 4(f): poster's use precedes postee's free (PHB).
    Phb,
    /// Figure 4(a) getter idiom (MA).
    Ma,
    /// Figure 4(g): return-only use (UR).
    Ur,
    /// MA and UR both apply (getter result passed as argument).
    MaUr,
    /// Thread-thread race (TT).
    Tt,
    // --- surviving false positives, by §8.5 cause ---
    /// Flag-guarded free immediately re-allocated (path insensitivity).
    FpPath,
    /// Same-site allocations merged by the heap abstraction (points-to).
    FpPointsTo,
    /// Both accesses in a component no intent reaches (not reachable).
    FpUnreachable,
    /// FIFO post order the static analysis misses (missing HB).
    FpMissingHb,
    /// A guarded use racing a free on a *different looper* (the §8.1
    /// multi-looper refinement: the guard gives no atomicity across
    /// loopers, so IG must not prune).
    HarmfulMultiLooper,
    // --- refuted by the predicate-aware reachability filter ---
    /// Dialog shown in `onCreate`, dismissed in `onStop` before the
    /// `onDestroy` free: the Dialog family is disabled (mustNotHb).
    RefuteDialogDismiss,
    /// Alarm scheduled in `onCreate`, cancelled in `onStop` before the
    /// `onDestroy` free: the Alarm family is disabled.
    RefuteAlarmCancel,
    /// Receiver registered in `onCreate`, unregistered in `onStop`
    /// before the `onDestroy` free: the Receiver family is disabled.
    RefuteReceiverUnregister,
    /// Service bound in `onCreate`, unbound in `onStop` before the
    /// `onDestroy` free: the Connection family is disabled.
    RefuteBindUnbind,
    /// Fragment use in `onCreateView`, free in its own `onDetach`: the
    /// fragment automaton orders use before free (predHb).
    RefuteFragmentLifecycle,
    /// Use before a unique `startActivity`; the launched target frees:
    /// the task-stack model orders use before free (predHb).
    RefuteTaskStack,
    // --- predicate-near controls the refuter must keep ---
    /// Dialog dismissed only in `onPause`: the skip path
    /// (`onStop` -> `onDestroy` without `onPause`) leaves the family
    /// armed, so the warning stands and is a real UAF.
    PredicateKeptSkipPath,
    /// Free in `onStop` but dismiss only in `onDestroy`: the disabler
    /// does not precede the free, so the warning stands.
    PredicateKeptLateDisable,
    // --- §8.6 false-negative shapes ---
    /// Object laundered through the framework (missed by detection).
    MissedOpaque,
    /// `finish()` on an error path only (pruned by the unsound CHB).
    ChbFalseNegative,
    // --- noise ---
    /// A benign activity with self-contained state.
    Benign,
}

impl PatternKind {
    /// All pattern kinds.
    #[must_use]
    pub fn all() -> &'static [PatternKind] {
        use PatternKind::*;
        &[
            HarmfulEcEc,
            HarmfulEcPc,
            HarmfulPcPc,
            HarmfulCRt,
            HarmfulCNt,
            Mhb,
            Ig,
            Ia,
            MhbIg,
            MhbIa,
            Rhb,
            Chb,
            Phb,
            Ma,
            Ur,
            MaUr,
            Tt,
            FpPath,
            FpPointsTo,
            FpUnreachable,
            FpMissingHb,
            HarmfulMultiLooper,
            RefuteDialogDismiss,
            RefuteAlarmCancel,
            RefuteReceiverUnregister,
            RefuteBindUnbind,
            RefuteFragmentLifecycle,
            RefuteTaskStack,
            PredicateKeptSkipPath,
            PredicateKeptLateDisable,
            MissedOpaque,
            ChbFalseNegative,
            Benign,
        ]
    }

    /// The certified expected pipeline outcome.
    #[must_use]
    pub fn expectation(self) -> Expectation {
        use Expectation::*;
        use PatternKind::*;
        match self {
            HarmfulEcEc => Harmful(PairType::EcEc),
            HarmfulEcPc => Harmful(PairType::EcPc),
            HarmfulPcPc => Harmful(PairType::PcPc),
            HarmfulCRt => Harmful(PairType::CRt),
            HarmfulCNt => Harmful(PairType::CNt),
            HarmfulMultiLooper => Harmful(PairType::EcPc),
            Mhb | MhbIg | MhbIa => PrunedBy(FilterKind::Mhb),
            Ig => PrunedBy(FilterKind::Ig),
            Ia => PrunedBy(FilterKind::Ia),
            Rhb => PrunedBy(FilterKind::Rhb),
            Chb | ChbFalseNegative => PrunedBy(FilterKind::Chb),
            Phb => PrunedBy(FilterKind::Phb),
            Ma | MaUr => PrunedBy(FilterKind::Ma),
            Ur => PrunedBy(FilterKind::Ur),
            Tt => PrunedBy(FilterKind::Tt),
            FpPath => FalsePositive(FpCause::PathInsensitivity),
            FpPointsTo => FalsePositive(FpCause::PointsTo),
            FpUnreachable => FalsePositive(FpCause::NotReachable),
            FpMissingHb => FalsePositive(FpCause::MissingHappensBefore),
            RefuteDialogDismiss
            | RefuteAlarmCancel
            | RefuteReceiverUnregister
            | RefuteBindUnbind => Refuted(RefutationReason::Disabled),
            RefuteFragmentLifecycle | RefuteTaskStack => Refuted(RefutationReason::ExtendedOrder),
            PredicateKeptSkipPath | PredicateKeptLateDisable => Harmful(PairType::EcPc),
            MissedOpaque => Undetected,
            PatternKind::Benign => Expectation::Benign,
        }
    }

    /// Whether the pattern contributes a warning pair before filtering.
    #[must_use]
    pub fn detected(self) -> bool {
        !matches!(
            self.expectation(),
            Expectation::Undetected | Expectation::Benign
        )
    }

    /// Whether the pattern is a real (dynamically witnessable) UAF.
    ///
    /// `ChbFalseNegative` is real *and* pruned — the §8.6 unsound-filter
    /// false negative.
    #[must_use]
    pub fn is_real_uaf(self) -> bool {
        matches!(
            self,
            PatternKind::HarmfulEcEc
                | PatternKind::HarmfulEcPc
                | PatternKind::HarmfulPcPc
                | PatternKind::HarmfulCRt
                | PatternKind::HarmfulCNt
                | PatternKind::HarmfulMultiLooper
                | PatternKind::PredicateKeptSkipPath
                | PatternKind::PredicateKeptLateDisable
                | PatternKind::ChbFalseNegative
        )
    }

    /// DSL source of one instance of this pattern, with `n` making all
    /// declared names unique within the app.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn dsl(self, n: usize) -> String {
        match self {
            PatternKind::HarmfulEcEc => format!(
                r"
                activity EcEc{n} {{
                    field f{n}: EcEc{n}
                    cb onCreate {{ f{n} = new EcEc{n} }}
                    cb onClick {{ use f{n} }}
                    cb onPause {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::HarmfulEcPc => format!(
                r"
                activity EcPc{n} {{
                    field f{n}: EcPc{n}
                    cb onCreate {{ bind this }}
                    cb onServiceConnected {{ f{n} = new EcPc{n} }}
                    cb onServiceDisconnected {{ f{n} = null }}
                    cb onCreateContextMenu {{ use f{n} }}
                }}
                "
            ),
            PatternKind::HarmfulPcPc => format!(
                r"
                activity PcPc{n} {{
                    field f{n}: PcPc{n}
                    cb onCreate {{ bind this }}
                    cb onServiceConnected {{ f{n} = new PcPc{n} }}
                    cb onServiceDisconnected {{ f{n} = null }}
                    cb onClick {{ if f{n} != null {{ post PcPcR{n} }} }}
                }}
                runnable PcPcR{n} in PcPc{n} {{
                    cb run {{ use outer.f{n} }}
                }}
                "
            ),
            PatternKind::HarmfulCRt => format!(
                r"
                activity CRt{n} {{
                    field f{n}: CRt{n}
                    cb onCreate {{ f{n} = new CRt{n} }}
                    cb onClick {{ spawn CRtW{n}  use f{n} }}
                }}
                thread CRtW{n} in CRt{n} {{
                    cb run {{ outer.f{n} = null }}
                }}
                "
            ),
            PatternKind::HarmfulCNt => format!(
                r"
                activity CNt{n} {{
                    field f{n}: CNt{n}
                    cb onCreate {{ f{n} = new CNt{n} }}
                    cb onResume {{ spawn CNtW{n} }}
                    cb onPause {{ if f{n} != null {{ use f{n} }} }}
                }}
                thread CNtW{n} in CNt{n} {{
                    cb run {{ outer.f{n} = null }}
                }}
                "
            ),
            PatternKind::Mhb => format!(
                r"
                activity Mhb{n} {{
                    field f{n}: Mhb{n}
                    cb onCreate {{ bind this  f{n} = new Mhb{n} }}
                    cb onServiceConnected {{ use f{n} }}
                    cb onServiceDisconnected {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::Ig => format!(
                r"
                activity Ig{n} {{
                    field f{n}: Ig{n}
                    cb onClick {{ if f{n} != null {{ use f{n} }} }}
                    cb onLongClick {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::Ia => format!(
                r"
                activity Ia{n} {{
                    field f{n}: Ia{n}
                    cb onClick {{ f{n} = new Ia{n}  use f{n} }}
                    cb onLongClick {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::MhbIg => format!(
                r"
                activity MhbIg{n} {{
                    field f{n}: MhbIg{n}
                    cb onCreate {{ if f{n} != null {{ use f{n} }} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::MhbIa => format!(
                r"
                activity MhbIa{n} {{
                    field f{n}: MhbIa{n}
                    cb onCreate {{ f{n} = new MhbIa{n}  use f{n} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::Rhb => format!(
                r"
                activity Rhb{n} {{
                    field f{n}: Rhb{n}
                    cb onResume {{ f{n} = new Rhb{n} }}
                    cb onPause {{ f{n} = null }}
                    cb onClick {{ use f{n} }}
                }}
                "
            ),
            PatternKind::Chb => format!(
                r"
                activity Chb{n} {{
                    field f{n}: Chb{n}
                    cb onCreate {{ f{n} = new Chb{n} }}
                    cb onClick {{ finish  f{n} = null }}
                    cb onLongClick {{ use f{n} }}
                }}
                "
            ),
            PatternKind::Phb => format!(
                r"
                activity Phb{n} {{
                    field f{n}: Phb{n}
                    cb onClick {{ send PhbH{n}  use f{n} }}
                    cb onCreate {{ f{n} = new Phb{n} }}
                }}
                handler PhbH{n} in Phb{n} {{
                    cb handleMessage {{ outer.f{n} = null }}
                }}
                "
            ),
            PatternKind::Ma => format!(
                r"
                activity Ma{n} {{
                    field f{n}: Ma{n}
                    field src{n}: Ma{n}
                    fn getF{n} {{ useret src{n} }}
                    cb onClick {{ f{n} = call getF{n}  use f{n} }}
                    cb onLongClick {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::Ur => format!(
                r"
                activity Ur{n} {{
                    field f{n}: Ur{n}
                    fn getF{n} {{ useret f{n} }}
                    cb onClick {{ t1 = call Ur{n}.getF{n}(recv=this) }}
                    cb onLongClick {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::MaUr => format!(
                r"
                activity MaUr{n} {{
                    field f{n}: MaUr{n}
                    field src{n}: MaUr{n}
                    fn getF{n} {{ useret src{n} }}
                    cb onClick {{ f{n} = call getF{n}  usearg f{n} }}
                    cb onLongClick {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::Tt => format!(
                r"
                activity Tt{n} {{
                    field f{n}: Tt{n}
                    cb onCreate {{ f{n} = new Tt{n}  spawn TtA{n}  spawn TtB{n} }}
                }}
                thread TtA{n} in Tt{n} {{ cb run {{ use outer.f{n} }} }}
                thread TtB{n} in Tt{n} {{ cb run {{ outer.f{n} = null }} }}
                "
            ),
            PatternKind::FpPath => format!(
                r"
                activity FpP{n} {{
                    field f{n}: FpP{n}
                    cb onCreate {{ f{n} = new FpP{n} }}
                    cb onClick {{ if ? {{ }} else {{ use f{n} }} }}
                    cb onLongClick {{ if ? {{ f{n} = null  f{n} = new FpP{n} }} else {{ }} }}
                }}
                "
            ),
            PatternKind::FpPointsTo => format!(
                r"
                activity FpQ{n} {{
                    field first{n}: FpQh{n}
                    field cur{n}: FpQh{n}
                    cb onCreate {{
                        first{n} = new FpQh{n}
                        cur{n} = first{n}
                        cur{n} = new FpQh{n}
                        t3 = load this FpQ{n}.cur{n}
                        t4 = new FpQ{n}
                        store t3 FpQh{n}.v{n} = t4
                    }}
                    cb onClick {{
                        t3 = load this FpQ{n}.cur{n}
                        t4 = load t3 FpQh{n}.v{n}
                        call opaque(recv=t4)
                    }}
                    cb onPause {{
                        t3 = load this FpQ{n}.first{n}
                        free t3 FpQh{n}.v{n}
                    }}
                }}
                class FpQh{n} {{ field v{n}: FpQ{n} }}
                "
            ),
            PatternKind::FpUnreachable => format!(
                r"
                activity FpU{n} {{
                    field f{n}: FpU{n}
                    cb onCreate {{ f{n} = new FpU{n} }}
                    cb onClick {{ use f{n} }}
                    cb onStop {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::FpMissingHb => format!(
                r"
                activity FpH{n} {{
                    field f{n}: FpH{n}
                    cb onCreate {{ f{n} = new FpH{n}  post FpHa{n}  post FpHb{n} }}
                }}
                runnable FpHa{n} in FpH{n} {{ cb run {{ use outer.f{n} }} }}
                runnable FpHb{n} in FpH{n} {{ cb run {{ outer.f{n} = null }} }}
                "
            ),
            PatternKind::HarmfulMultiLooper => format!(
                r"
                activity Ml{n} {{
                    field f{n}: Ml{n}
                    cb onCreate {{ f{n} = new Ml{n}  send MlH{n} }}
                    cb onClick {{ if f{n} != null {{ use f{n} }} }}
                }}
                looperthread MlL{n} {{ }}
                handler MlH{n} in Ml{n} on MlL{n} {{
                    cb handleMessage {{ outer.f{n} = null }}
                }}
                "
            ),
            PatternKind::RefuteDialogDismiss => format!(
                r"
                activity Rdd{n} {{
                    field dlg{n}: RddD{n}
                    field f{n}: Rdd{n}
                    cb onCreate {{ dlg{n} = new RddD{n}  show dlg{n}  f{n} = new Rdd{n} }}
                    cb onStop {{ dismiss dlg{n} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                dialog RddD{n} in Rdd{n} {{
                    cb onShow {{ use outer.f{n} }}
                }}
                "
            ),
            PatternKind::RefuteAlarmCancel => format!(
                r"
                activity Rac{n} {{
                    field rcv{n}: RacR{n}
                    field f{n}: Rac{n}
                    cb onCreate {{ rcv{n} = new RacR{n}  schedule rcv{n}  f{n} = new Rac{n} }}
                    cb onStop {{ cancelalarm rcv{n} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                receiver RacR{n} {{
                    cb onAlarm {{ use Rac{n}.f{n} }}
                }}
                "
            ),
            PatternKind::RefuteReceiverUnregister => format!(
                r"
                activity Rru{n} {{
                    field rcv{n}: RruR{n}
                    field f{n}: Rru{n}
                    cb onCreate {{ rcv{n} = new RruR{n}  register rcv{n}  f{n} = new Rru{n} }}
                    cb onStop {{ unregister rcv{n} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                receiver RruR{n} {{
                    cb onReceive {{ use Rru{n}.f{n} }}
                }}
                "
            ),
            PatternKind::RefuteBindUnbind => format!(
                r"
                activity Rbu{n} {{
                    field f{n}: Rbu{n}
                    cb onCreate {{ bind this  f{n} = new Rbu{n} }}
                    cb onServiceConnected {{ use f{n} }}
                    cb onStop {{ unbind this }}
                    cb onDestroy {{ f{n} = null }}
                }}
                "
            ),
            PatternKind::RefuteFragmentLifecycle => format!(
                r"
                activity Rfl{n} {{
                    field f{n}: Rfl{n}
                    cb onCreate {{ f{n} = new Rfl{n} }}
                }}
                fragment RflF{n} in Rfl{n} {{
                    cb onCreateView {{ use Rfl{n}.f{n} }}
                    cb onDetach {{ Rfl{n}.f{n} = null }}
                }}
                "
            ),
            PatternKind::RefuteTaskStack => format!(
                r"
                activity Rts{n} {{
                    field f{n}: Rts{n}
                    cb onCreate {{ if ? {{ f{n} = new Rts{n} }}  use f{n}  startactivity RtsT{n} }}
                }}
                activity RtsT{n} {{
                    cb onCreate {{ Rts{n}.f{n} = null }}
                }}
                "
            ),
            PatternKind::PredicateKeptSkipPath => format!(
                r"
                activity Pks{n} {{
                    field dlg{n}: PksD{n}
                    field f{n}: Pks{n}
                    cb onCreate {{ dlg{n} = new PksD{n}  show dlg{n}  f{n} = new Pks{n} }}
                    cb onPause {{ dismiss dlg{n} }}
                    cb onDestroy {{ f{n} = null }}
                }}
                dialog PksD{n} in Pks{n} {{
                    cb onShow {{ use outer.f{n} }}
                }}
                "
            ),
            PatternKind::PredicateKeptLateDisable => format!(
                r"
                activity Pkl{n} {{
                    field dlg{n}: PklD{n}
                    field f{n}: Pkl{n}
                    cb onCreate {{ dlg{n} = new PklD{n}  show dlg{n}  f{n} = new Pkl{n} }}
                    cb onStop {{ f{n} = null }}
                    cb onDestroy {{ dismiss dlg{n} }}
                }}
                dialog PklD{n} in Pkl{n} {{
                    cb onShow {{ use outer.f{n} }}
                }}
                "
            ),
            PatternKind::MissedOpaque => format!(
                r"
                activity Mo{n} {{
                    field h{n}: Moh{n}
                    cb onCreate {{
                        t1 = new Moh{n}
                        call opaque(t1)
                    }}
                    cb onClick {{
                        t1 = call opaque()
                        t2 = load t1 Moh{n}.v{n}
                        call opaque(recv=t2)
                    }}
                    cb onPause {{
                        t1 = call opaque()
                        free t1 Moh{n}.v{n}
                    }}
                }}
                class Moh{n} {{ field v{n}: Mo{n} }}
                "
            ),
            PatternKind::ChbFalseNegative => format!(
                r"
                activity Cf{n} {{
                    field f{n}: Cf{n}
                    cb onCreate {{ f{n} = new Cf{n} }}
                    cb onClick {{
                        if ? {{ finish }}
                        f{n} = null
                    }}
                    cb onLongClick {{ use f{n} }}
                }}
                "
            ),
            PatternKind::Benign => format!(
                r"
                activity Noise{n} {{
                    field a{n}: Noise{n}
                    field b{n}: Noise{n}
                    fn helper{n} {{ a{n} = new Noise{n} }}
                    cb onCreate {{ call helper{n}  b{n} = new Noise{n} }}
                    cb onClick {{ use a{n}  use b{n} }}
                    cb onResume {{ a{n} = new Noise{n} }}
                }}
                "
            ),
        }
    }
}
