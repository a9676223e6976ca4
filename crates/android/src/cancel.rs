//! Cancellation APIs and the scopes they silence — the basis of the
//! unsound cancel-happens-before (CHB) filter (§6.2.1).
//!
//! Android lets an application cancel future callback deliveries:
//! `Activity.finish()` stops all further UI/lifecycle callbacks of the
//! activity, `unbindService` stops service-connection callbacks,
//! `unregisterReceiver` stops broadcast deliveries, and
//! `Handler.removeCallbacksAndMessages` drops pending posts. A callback
//! that cancels a family of callbacks must happen *after* any remaining
//! delivery of that family — the CHB order.

use crate::{CallbackKind, PredicateFamily};
use std::fmt;

/// A framework cancellation API call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CancelApi {
    /// `Activity.finish()`: closes the activity; no further UI or lifecycle
    /// callbacks (other than the teardown sequence) are delivered.
    Finish,
    /// `Context.unbindService(conn)`: no further `onServiceConnected` /
    /// `onServiceDisconnected` on the connection.
    UnbindService,
    /// `Context.unregisterReceiver(r)`: no further `onReceive`.
    UnregisterReceiver,
    /// `Handler.removeCallbacksAndMessages(null)`: drops pending posted
    /// runnables and messages of the handler.
    RemoveCallbacksAndMessages,
}

/// The family of callbacks a cancellation API silences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CancelScope {
    /// UI and system entry callbacks of the finished activity.
    UiOfActivity,
    /// The gated callbacks of a summarized predicate family, which its
    /// disabler silences: the unbound connection's, the unregistered
    /// receiver's.
    Family(PredicateFamily),
    /// Pending posted runnables / messages of the handler.
    HandlerPosts,
}

impl CancelApi {
    /// The scope this API cancels.
    #[must_use]
    pub fn scope(self) -> CancelScope {
        match self {
            CancelApi::Finish => CancelScope::UiOfActivity,
            CancelApi::UnbindService => CancelScope::Family(PredicateFamily::Connection),
            CancelApi::UnregisterReceiver => CancelScope::Family(PredicateFamily::Receiver),
            CancelApi::RemoveCallbacksAndMessages => CancelScope::HandlerPosts,
        }
    }

    /// All cancellation APIs.
    #[must_use]
    pub fn all() -> &'static [CancelApi] {
        &[
            CancelApi::Finish,
            CancelApi::UnbindService,
            CancelApi::UnregisterReceiver,
            CancelApi::RemoveCallbacksAndMessages,
        ]
    }

    /// The cancellation API that is `family`'s disabler, if CHB covers
    /// that family.
    #[must_use]
    pub fn disabling(family: PredicateFamily) -> Option<CancelApi> {
        CancelApi::all()
            .iter()
            .copied()
            .find(|a| a.scope() == CancelScope::Family(family))
    }

    /// The framework API's qualified name (`Context.unbindService()`).
    #[must_use]
    pub fn api_name(self) -> &'static str {
        match self.scope() {
            CancelScope::UiOfActivity => "Activity.finish()",
            CancelScope::Family(f) => f.disabler_api().expect("a cancelled family has a disabler"),
            CancelScope::HandlerPosts => "Handler.removeCallbacksAndMessages()",
        }
    }

    /// The Android method name of the API (`unbindService`).
    #[must_use]
    pub fn method_name(self) -> &'static str {
        let api = self.api_name();
        &api[api.find('.').map_or(0, |i| i + 1)..api.len() - "()".len()]
    }
}

impl fmt::Display for CancelApi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.method_name())
    }
}

impl CancelScope {
    /// Whether a callback kind falls inside this cancellation scope, i.e.
    /// whether the cancel silences future deliveries of that kind.
    ///
    /// The component-identity qualification (same activity, same
    /// connection, same handler) is the responsibility of the filter layer.
    #[must_use]
    pub fn covers(self, kind: CallbackKind) -> bool {
        match self {
            CancelScope::UiOfActivity => kind.is_ui() || kind.is_system() || kind.is_lifecycle(),
            CancelScope::Family(f) => f.gated_kinds().contains(&kind),
            CancelScope::HandlerPosts => {
                matches!(kind, CallbackKind::HandleMessage | CallbackKind::PostedRun)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_covers_ui_not_posts() {
        let s = CancelApi::Finish.scope();
        assert!(s.covers(CallbackKind::OnClick));
        assert!(s.covers(CallbackKind::OnResume));
        assert!(!s.covers(CallbackKind::HandleMessage));
        assert!(!s.covers(CallbackKind::OnReceive));
    }

    #[test]
    fn unbind_covers_connection_callbacks() {
        let s = CancelApi::UnbindService.scope();
        assert!(s.covers(CallbackKind::OnServiceConnected));
        assert!(s.covers(CallbackKind::OnServiceDisconnected));
        assert!(!s.covers(CallbackKind::OnClick));
    }

    #[test]
    fn remove_callbacks_covers_handler_posts() {
        let s = CancelApi::RemoveCallbacksAndMessages.scope();
        assert!(s.covers(CallbackKind::HandleMessage));
        assert!(s.covers(CallbackKind::PostedRun));
        assert!(!s.covers(CallbackKind::OnClick));
    }

    #[test]
    fn family_disablers_are_the_unbind_and_unregister_apis() {
        assert_eq!(
            CancelApi::disabling(PredicateFamily::Connection),
            Some(CancelApi::UnbindService)
        );
        assert_eq!(
            CancelApi::disabling(PredicateFamily::Receiver),
            Some(CancelApi::UnregisterReceiver)
        );
        for f in [
            PredicateFamily::Dialog,
            PredicateFamily::Alarm,
            PredicateFamily::Task,
        ] {
            assert_eq!(CancelApi::disabling(f), None, "{f}: not a CHB cancel");
        }
        assert_eq!(
            CancelApi::UnregisterReceiver.api_name(),
            "Context.unregisterReceiver()"
        );
        let methods: Vec<&str> = CancelApi::all().iter().map(|a| a.method_name()).collect();
        assert_eq!(
            methods,
            [
                "finish",
                "unbindService",
                "unregisterReceiver",
                "removeCallbacksAndMessages"
            ]
        );
    }

    #[test]
    fn every_api_has_distinct_scope() {
        let mut scopes: Vec<_> = CancelApi::all().iter().map(|a| a.scope()).collect();
        scopes.sort();
        scopes.dedup();
        assert_eq!(scopes.len(), CancelApi::all().len());
    }
}
