//! The extended Fragment lifecycle automaton (Dexteroid-style
//! reverse-engineered model).
//!
//! The paper's prototype skipped fragments entirely (§8.1); this module
//! models the fragment lifecycle the way [`crate::lifecycle`] models the
//! activity lifecycle, but keeps its ordering facts *out* of the
//! paper-pinned MHB-Lifecycle relation: fragment edges are emitted into
//! the predicate-extended happens-before relations, so the 27-app paper
//! populations are untouched while new corpus patterns exercise them.
//!
//! The sound kind-level facts mirror the activity treatment: `onAttach`
//! is strictly first and `onDetach` strictly last for a fragment
//! instance. `onCreateView` / `onDestroyView` may cycle via the back
//! stack, so they carry no mutual order — except that any `onCreateView`
//! still precedes `onDetach` and follows `onAttach`.

use crate::automaton::{self, Automaton};
use crate::CallbackKind;

/// States of the fragment lifecycle automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FragmentState {
    /// Before `onAttach`.
    #[default]
    Fresh,
    /// After `onAttach`, before a view exists.
    Attached,
    /// After `onCreateView` (view hierarchy live).
    ViewCreated,
    /// After `onDestroyView` (view torn down, instance retained — the
    /// back-stack state from which `onCreateView` may run again).
    ViewDestroyed,
    /// After `onDetach` (terminal).
    Detached,
}

/// A running fragment's lifecycle, as a stepped automaton.
///
/// # Example
///
/// ```
/// use nadroid_android::fragment::{FragmentLifecycle, FragmentState};
/// use nadroid_android::CallbackKind;
///
/// let mut f = FragmentLifecycle::new();
/// assert!(f.fire(CallbackKind::OnAttach).is_ok());
/// assert!(f.fire(CallbackKind::OnCreateView).is_ok());
/// // the back-stack cycle:
/// assert!(f.fire(CallbackKind::OnDestroyView).is_ok());
/// assert!(f.fire(CallbackKind::OnCreateView).is_ok());
/// assert!(f.fire(CallbackKind::OnDetach).is_err()); // view still live
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentLifecycle {
    state: FragmentState,
}

impl FragmentLifecycle {
    /// A fresh, not-yet-attached fragment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> FragmentState {
        self.state
    }

    /// Fragment callbacks legal in the current state.
    #[must_use]
    pub fn legal_events(&self) -> &'static [CallbackKind] {
        use CallbackKind::*;
        use FragmentState::*;
        match self.state {
            Fresh => &[OnAttach],
            Attached => &[OnCreateView, OnDetach],
            ViewCreated => &[OnDestroyView],
            ViewDestroyed => &[OnCreateView, OnDetach],
            Detached => &[],
        }
    }

    /// Fire a fragment lifecycle callback, advancing the automaton.
    ///
    /// # Errors
    ///
    /// Returns the illegal `(state, event)` pair when the callback is not
    /// legal in the current state.
    pub fn fire(
        &mut self,
        event: CallbackKind,
    ) -> Result<FragmentState, (FragmentState, CallbackKind)> {
        use CallbackKind::*;
        use FragmentState::*;
        let next = match (self.state, event) {
            (Fresh, OnAttach) => Attached,
            (Attached | ViewDestroyed, OnCreateView) => ViewCreated,
            (ViewCreated, OnDestroyView) => ViewDestroyed,
            (Attached | ViewDestroyed, OnDetach) => Detached,
            (from, event) => return Err((from, event)),
        };
        self.state = next;
        Ok(next)
    }

    /// Whether the fragment has been detached (terminal state).
    #[must_use]
    pub fn is_detached(&self) -> bool {
        self.state == FragmentState::Detached
    }
}

impl Automaton for FragmentLifecycle {
    fn events(&self) -> &'static [CallbackKind] {
        self.legal_events()
    }

    fn step(&mut self, event: CallbackKind) {
        self.fire(event).expect("a legal event");
    }
}

/// The sound fragment-lifecycle must-happens-before relation.
///
/// `onAttach` precedes every other fragment callback of the same fragment
/// instance, and every fragment callback precedes `onDetach`. The
/// `onCreateView`/`onDestroyView` pair cycles via the back stack, so it
/// carries no order of its own.
///
/// Read off the automaton. Both arguments must execute on the *same
/// fragment class*; the HB layer applies that qualification.
#[must_use]
pub fn fragment_mhb(first: CallbackKind, second: CallbackKind) -> bool {
    first != second && automaton::never_after::<FragmentLifecycle>(first, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use CallbackKind::*;

    #[test]
    fn attach_first_detach_last() {
        for &k in CallbackKind::all() {
            if !k.is_fragment_lifecycle() {
                assert!(!fragment_mhb(OnAttach, k), "{k}: non-fragment kind");
                continue;
            }
            if k != OnAttach {
                assert!(fragment_mhb(OnAttach, k), "onAttach MHB {k}");
            }
            if k != OnDetach {
                assert!(fragment_mhb(k, OnDetach), "{k} MHB onDetach");
            }
        }
    }

    #[test]
    fn view_pair_not_ordered() {
        assert!(!fragment_mhb(OnCreateView, OnDestroyView));
        assert!(!fragment_mhb(OnDestroyView, OnCreateView));
    }

    #[test]
    fn irreflexive() {
        for &k in CallbackKind::all() {
            assert!(!fragment_mhb(k, k), "{k}");
        }
    }

    #[test]
    fn automaton_back_stack_cycle() {
        let mut f = FragmentLifecycle::new();
        for e in [OnAttach, OnCreateView, OnDestroyView, OnCreateView] {
            f.fire(e).unwrap_or_else(|(s, e)| panic!("{e} in {s:?}"));
        }
        assert_eq!(f.state(), FragmentState::ViewCreated);
        assert!(f.fire(OnDetach).is_err());
        f.fire(OnDestroyView).unwrap();
        f.fire(OnDetach).unwrap();
        assert!(f.is_detached());
        assert!(f.legal_events().is_empty());
    }

    #[test]
    fn automaton_rejects_reattach() {
        let mut f = FragmentLifecycle::new();
        f.fire(OnAttach).unwrap();
        assert!(f.fire(OnAttach).is_err());
        f.fire(OnDetach).unwrap();
        assert!(f.fire(OnAttach).is_err(), "detach is terminal");
    }
}
