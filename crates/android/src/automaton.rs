//! Kind-level orders read off a lifecycle automaton's state graph, so
//! that no hand table restates what the automaton says.

use crate::CallbackKind;

/// A lifecycle automaton stepped by callback kind; `Default` is its
/// initial state.
pub(crate) trait Automaton: Clone + Default + PartialEq {
    /// Callbacks legal in the current state.
    fn events(&self) -> &'static [CallbackKind];
    /// Fire a legal callback.
    fn step(&mut self, event: CallbackKind);
}

fn after<A: Automaton>(state: &A, event: CallbackKind) -> A {
    let mut next = state.clone();
    next.step(event);
    next
}

/// The states reachable from `from` without firing `avoid`.
fn reachable<A: Automaton>(from: A, avoid: Option<CallbackKind>) -> Vec<A> {
    let mut seen = vec![from];
    let mut i = 0;
    while i < seen.len() {
        for &e in seen[i].events() {
            let next = after(&seen[i], e);
            if Some(e) != avoid && !seen.contains(&next) {
                seen.push(next);
            }
        }
        i += 1;
    }
    seen
}

/// Whether some path from `from` that never fires `avoid` delivers `kind`.
fn delivers<A: Automaton>(from: A, avoid: Option<CallbackKind>, kind: CallbackKind) -> bool {
    reachable(from, avoid)
        .iter()
        .any(|s| s.events().contains(&kind))
}

/// Whether `first` has executed on every path that delivers `second`.
pub(crate) fn dominates<A: Automaton>(first: CallbackKind, second: CallbackKind) -> bool {
    let root = A::default;
    first != second && delivers(root(), None, second) && !delivers(root(), Some(first), second)
}

/// Whether both kinds are delivered and no path delivers `first` after
/// a delivery of `second`; for one kind, whether it is delivered at
/// most once.
pub(crate) fn never_after<A: Automaton>(first: CallbackKind, second: CallbackKind) -> bool {
    let states = reachable(A::default(), None);
    let legal = |k: CallbackKind| states.iter().filter(move |s| s.events().contains(&k));
    legal(first).next().is_some()
        && legal(second).next().is_some()
        && legal(second).all(|s| !delivers(after(s, second), None, first))
}
