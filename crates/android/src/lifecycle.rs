//! The Activity lifecycle automaton and the sound must-happens-before
//! (MHB) relations of §6.1.
//!
//! The automaton is used in two places:
//!
//! 1. Statically, [`lifecycle_mhb`], [`service_mhb`] and [`asynctask_mhb`]
//!    implement the paper's three *sound* MHB rules (same-component /
//!    same-task qualification is applied by the filter layer, which knows
//!    the threadified origins).
//! 2. Dynamically, [`LifecycleState`] and [`Lifecycle`] drive the event-loop
//!    interpreter: only framework-legal lifecycle event sequences are
//!    explored when searching for UAF witnesses.

use crate::automaton::{self, Automaton};
use crate::fragment::FragmentLifecycle;
use crate::CallbackKind;

/// States of the Activity lifecycle automaton.
///
/// The transition structure follows the Android developer documentation:
/// there is a *back edge* from `Paused`/`Stopped` back to `Resumed`/`Started`
/// (the "back button" cycle the paper highlights in §6.1.1), which is
/// exactly why `onResume`/`onPause` carry no sound MHB relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LifecycleState {
    /// Before `onCreate` has run.
    #[default]
    Fresh,
    /// After `onCreate`.
    Created,
    /// After `onStart` (visible).
    Started,
    /// After `onResume` (foreground).
    Resumed,
    /// After `onPause` (partially obscured).
    Paused,
    /// After `onStop` (hidden).
    Stopped,
    /// After `onDestroy` (terminal).
    Destroyed,
}

/// A running Activity's lifecycle, as a stepped automaton.
///
/// # Example
///
/// ```
/// use nadroid_android::lifecycle::{Lifecycle, LifecycleState};
/// use nadroid_android::CallbackKind;
///
/// let mut lc = Lifecycle::new();
/// assert_eq!(lc.state(), LifecycleState::Fresh);
/// assert!(lc.fire(CallbackKind::OnCreate).is_ok());
/// assert!(lc.fire(CallbackKind::OnResume).is_err()); // must onStart first
/// assert!(lc.fire(CallbackKind::OnStart).is_ok());
/// assert!(lc.fire(CallbackKind::OnResume).is_ok());
/// // the back-button cycle:
/// assert!(lc.fire(CallbackKind::OnPause).is_ok());
/// assert!(lc.fire(CallbackKind::OnResume).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lifecycle {
    state: LifecycleState,
}

/// Error returned by [`Lifecycle::fire`] for a framework-illegal transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The state the automaton was in.
    pub from: LifecycleState,
    /// The lifecycle callback that was attempted.
    pub event: CallbackKind,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal lifecycle transition: {} in state {:?}",
            self.event, self.from
        )
    }
}

impl std::error::Error for IllegalTransition {}

impl Lifecycle {
    /// A fresh, not-yet-created lifecycle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Lifecycle callbacks legal in the current state, in the order the
    /// framework would consider them.
    #[must_use]
    pub fn legal_events(&self) -> &'static [CallbackKind] {
        use CallbackKind::*;
        use LifecycleState::*;
        match self.state {
            Fresh => &[OnCreate],
            Created => &[OnStart],
            Started => &[OnResume, OnStop],
            Resumed => &[OnPause],
            Paused => &[OnResume, OnStop],
            Stopped => &[OnRestart, OnDestroy],
            Destroyed => &[],
        }
    }

    /// Whether UI / system callbacks may currently be delivered.
    ///
    /// The interpreter allows UI events between `onCreate` and `onDestroy`
    /// when the activity is at least started (visible).
    #[must_use]
    pub fn accepts_ui_events(&self) -> bool {
        matches!(
            self.state,
            LifecycleState::Started | LifecycleState::Resumed | LifecycleState::Paused
        )
    }

    /// Fire a lifecycle callback, advancing the automaton.
    ///
    /// # Errors
    ///
    /// Returns [`IllegalTransition`] if the callback is not legal in the
    /// current state (e.g. `onResume` before `onStart`).
    pub fn fire(&mut self, event: CallbackKind) -> Result<LifecycleState, IllegalTransition> {
        use CallbackKind::*;
        use LifecycleState::*;
        let next = match (self.state, event) {
            (Fresh, OnCreate) => Created,
            (Created, OnStart) => Started,
            (Started, OnResume) => Resumed,
            (Started, OnStop) => Stopped,
            (Resumed, OnPause) => Paused,
            (Paused, OnResume) => Resumed,
            (Paused, OnStop) => Stopped,
            (Stopped, OnRestart) => Created, // onRestart is followed by onStart
            (Stopped, OnDestroy) => Destroyed,
            (from, event) => return Err(IllegalTransition { from, event }),
        };
        self.state = next;
        Ok(next)
    }

    /// Whether the activity has been destroyed (terminal state).
    #[must_use]
    pub fn is_destroyed(&self) -> bool {
        self.state == LifecycleState::Destroyed
    }
}

impl Automaton for Lifecycle {
    fn events(&self) -> &'static [CallbackKind] {
        self.legal_events()
    }

    fn step(&mut self, event: CallbackKind) {
        self.fire(event).expect("a legal event");
    }
}

/// The sound MHB-Lifecycle relation (§6.1.1).
///
/// `onCreate` must happen before every other callback of the same
/// component, and every callback must happen before `onDestroy`. No other
/// lifecycle pair is ordered, because the back-button edge makes
/// `onPause`/`onResume`-style pairs circular.
///
/// Both arguments must execute on the *same component*; the filter layer is
/// responsible for that qualification.
#[must_use]
pub fn lifecycle_mhb(first: CallbackKind, second: CallbackKind) -> bool {
    if first == second {
        return false;
    }
    let relevant = |k: CallbackKind| k.is_lifecycle() || k.is_ui() || k.is_system();
    if !relevant(first) || !relevant(second) {
        return false;
    }
    (first == CallbackKind::OnCreate && second != CallbackKind::OnCreate)
        || (second == CallbackKind::OnDestroy && first != CallbackKind::OnDestroy)
}

/// The sound MHB-Service relation (§6.1.1): `onServiceConnected` must happen
/// before `onServiceDisconnected` on the same connection.
#[must_use]
pub fn service_mhb(first: CallbackKind, second: CallbackKind) -> bool {
    first == CallbackKind::OnServiceConnected && second == CallbackKind::OnServiceDisconnected
}

/// The sound MHB-AsyncTask relation (§6.1.1) for callbacks of the *same
/// task instance*:
///
/// - `onPreExecute` before `doInBackground`, `onProgressUpdate`,
///   `onPostExecute`;
/// - `doInBackground` and `onProgressUpdate` before `onPostExecute`.
#[must_use]
pub fn asynctask_mhb(first: CallbackKind, second: CallbackKind) -> bool {
    use CallbackKind::*;
    match first {
        OnPreExecute => matches!(second, DoInBackground | OnProgressUpdate | OnPostExecute),
        DoInBackground | OnProgressUpdate => second == OnPostExecute,
        _ => false,
    }
}

/// Combined kind-level MHB check: true if *any* of the three sound MHB
/// relations orders `first` before `second`. The caller must ensure the two
/// callbacks belong to the same component / connection / task instance.
#[must_use]
pub fn any_mhb(first: CallbackKind, second: CallbackKind) -> bool {
    lifecycle_mhb(first, second) || service_mhb(first, second) || asynctask_mhb(first, second)
}

/// The lifecycle *dominator* relation: `first` must already have executed
/// (at least once) on every automaton path that reaches a delivery of
/// `second`. Strictly stronger than [`lifecycle_mhb`] for the pairs it
/// claims, and the soundness backbone of the predicate refutation filter:
/// a disabling API call sitting unconditionally in `first` is guaranteed
/// to have run by the time `second` runs.
///
/// Read off the automaton. Notably `onPause` does *not* dominate
/// `onDestroy` (the legal path `onCreate → onStart → onStop → onDestroy`
/// skips it), while `onStop` does: `Stopped` is the only state from
/// which `onDestroy` is legal, and `onStop` is its only entry.
#[must_use]
pub fn must_precede_execution(first: CallbackKind, second: CallbackKind) -> bool {
    automaton::dominates::<Lifecycle>(first, second)
}

/// Whether a callback kind is delivered *at most once* per component
/// instance under its automaton: `onCreate` and `onDestroy` for
/// activities (`Fresh` is never re-entered, `Destroyed` is terminal),
/// `onAttach` and `onDetach` for fragments. Once-only enablers cannot
/// re-arm a family after its disabler has run, which is what lets the
/// refutation filter treat a dominated disabler as final.
#[must_use]
pub fn once_only(kind: CallbackKind) -> bool {
    automaton::never_after::<Lifecycle>(kind, kind)
        || automaton::never_after::<FragmentLifecycle>(kind, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use CallbackKind::*;

    #[test]
    fn oncreate_precedes_everything() {
        for &k in CallbackKind::all() {
            if k != OnCreate && (k.is_lifecycle() || k.is_ui() || k.is_system()) {
                assert!(lifecycle_mhb(OnCreate, k), "onCreate MHB {k}");
            }
        }
    }

    #[test]
    fn everything_precedes_ondestroy() {
        for &k in CallbackKind::all() {
            if k != OnDestroy && (k.is_lifecycle() || k.is_ui() || k.is_system()) {
                assert!(lifecycle_mhb(k, OnDestroy), "{k} MHB onDestroy");
            }
        }
    }

    #[test]
    fn resume_pause_not_ordered() {
        assert!(!lifecycle_mhb(OnResume, OnPause));
        assert!(!lifecycle_mhb(OnPause, OnResume));
        assert!(!lifecycle_mhb(OnPause, OnClick));
        assert!(!lifecycle_mhb(OnClick, OnPause));
    }

    #[test]
    fn posted_callbacks_not_lifecycle_ordered() {
        assert!(!lifecycle_mhb(OnCreate, HandleMessage));
        assert!(!lifecycle_mhb(PostedRun, OnDestroy));
    }

    #[test]
    fn service_order() {
        assert!(service_mhb(OnServiceConnected, OnServiceDisconnected));
        assert!(!service_mhb(OnServiceDisconnected, OnServiceConnected));
    }

    #[test]
    fn asynctask_order() {
        assert!(asynctask_mhb(OnPreExecute, DoInBackground));
        assert!(asynctask_mhb(OnPreExecute, OnPostExecute));
        assert!(asynctask_mhb(DoInBackground, OnPostExecute));
        assert!(asynctask_mhb(OnProgressUpdate, OnPostExecute));
        assert!(!asynctask_mhb(DoInBackground, OnProgressUpdate));
        assert!(!asynctask_mhb(OnPostExecute, OnPreExecute));
    }

    #[test]
    fn automaton_happy_path() {
        let mut lc = Lifecycle::new();
        for e in [
            OnCreate, OnStart, OnResume, OnPause, OnStop, OnRestart, OnStart, OnResume,
        ] {
            lc.fire(e).unwrap_or_else(|err| panic!("{err}"));
        }
        assert_eq!(lc.state(), LifecycleState::Resumed);
    }

    #[test]
    fn automaton_rejects_skips() {
        let mut lc = Lifecycle::new();
        assert!(lc.fire(OnResume).is_err());
        lc.fire(OnCreate).unwrap();
        assert!(lc.fire(OnDestroy).is_err()); // must stop first
    }

    #[test]
    fn destroy_is_terminal() {
        let mut lc = Lifecycle::new();
        for e in [OnCreate, OnStart, OnStop, OnDestroy] {
            lc.fire(e).unwrap();
        }
        assert!(lc.is_destroyed());
        assert!(lc.legal_events().is_empty());
        assert!(!lc.accepts_ui_events());
    }

    /// The dominators the automaton gives, pinned: each lifecycle kind's
    /// list of kinds that must already have executed before it.
    #[test]
    fn dominators_are_pinned() {
        let dominators = |second: CallbackKind| -> &'static [CallbackKind] {
            match second {
                OnStart => &[OnCreate],
                OnResume | OnStop => &[OnCreate, OnStart],
                OnPause => &[OnCreate, OnStart, OnResume],
                OnRestart | OnDestroy => &[OnCreate, OnStart, OnStop],
                _ => &[],
            }
        };
        for &first in CallbackKind::all() {
            for &second in CallbackKind::all() {
                assert_eq!(
                    must_precede_execution(first, second),
                    dominators(second).contains(&first),
                    "{first} must-precede {second}"
                );
            }
        }
    }

    #[test]
    fn dominators_imply_lifecycle_mhb_only_for_oncreate_pairs() {
        // must_precede_execution is a different (stronger, execution-
        // counting) relation: onStop dominates onDestroy yet carries no
        // paper MHB edge. Only the onCreate-first facts overlap.
        assert!(must_precede_execution(OnStop, OnDestroy));
        assert!(lifecycle_mhb(OnStop, OnDestroy), "onDestroy-last overlaps");
        assert!(must_precede_execution(OnStart, OnStop));
        assert!(!lifecycle_mhb(OnStart, OnStop), "no paper edge here");
        assert!(
            !must_precede_execution(OnPause, OnDestroy),
            "the skip path onCreate→onStart→onStop→onDestroy never pauses"
        );
    }

    #[test]
    fn once_only_kinds() {
        for &k in CallbackKind::all() {
            let expected = matches!(k, OnCreate | OnDestroy | OnAttach | OnDetach);
            assert_eq!(once_only(k), expected, "{k}");
        }
        assert!(!once_only(OnCreateView), "back stack recreates views");
    }

    #[test]
    fn ui_events_only_when_visible() {
        let mut lc = Lifecycle::new();
        assert!(!lc.accepts_ui_events());
        lc.fire(OnCreate).unwrap();
        assert!(!lc.accepts_ui_events());
        lc.fire(OnStart).unwrap();
        assert!(lc.accepts_ui_events());
    }
}
