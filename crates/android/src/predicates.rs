//! Predicate callback summaries: enabling/disabling API pairs between
//! framework callbacks (Perez & Le, "Generating Predicate Callback
//! Summaries for the Android Framework").
//!
//! Each summarized *family* ties a pair of framework APIs to the callback
//! kinds whose future deliveries they arm and silence:
//!
//! | family       | enabler             | disabler               | callbacks |
//! |--------------|---------------------|------------------------|-----------|
//! | Connection   | `bindService`       | `unbindService`        | `onServiceConnected`, `onServiceDisconnected` |
//! | Receiver     | `registerReceiver`  | `unregisterReceiver`   | `onReceive` |
//! | Dialog       | `Dialog.show`       | `Dialog.dismiss`       | `onShow`, `onDismiss` |
//! | Alarm        | `AlarmManager.set`  | `AlarmManager.cancel`  | `onAlarm` |
//! | Task         | `startActivity`     | — (one-way)            | launched activity's lifecycle |
//!
//! The HB layer compiles these summaries into `enables(cb_a, cb_b)` /
//! `disables(cb_a, cb_b)` facts with per-edge provenance, from which it
//! derives new must-HB edges for the predicate-extended closure and
//! `mustNotHb` facts consumed by the sound refutation filter. The summaries deliberately exclude `Activity.finish()` — that
//! is the (unsound) CHB filter's domain, and keeping it out guarantees
//! the predicate relations stay empty on the 27 paper apps.

use crate::CallbackKind;
use std::fmt;

/// A summarized enabling/disabling API family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredicateFamily {
    /// `bindService` / `unbindService` arming a `ServiceConnection`.
    Connection,
    /// `registerReceiver` / `unregisterReceiver` arming a receiver.
    Receiver,
    /// `Dialog.show()` / `Dialog.dismiss()` arming dialog callbacks.
    Dialog,
    /// `AlarmManager.set…()` / `AlarmManager.cancel()` arming an alarm
    /// delivery.
    Alarm,
    /// `startActivity` launching another activity's lifecycle family
    /// (enable-only: there is no framework API that "un-launches").
    Task,
}

impl PredicateFamily {
    /// All summarized families.
    #[must_use]
    pub fn all() -> &'static [PredicateFamily] {
        &[
            PredicateFamily::Connection,
            PredicateFamily::Receiver,
            PredicateFamily::Dialog,
            PredicateFamily::Alarm,
            PredicateFamily::Task,
        ]
    }

    /// Short lower-case name used in provenance records and evidence.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PredicateFamily::Connection => "connection",
            PredicateFamily::Receiver => "receiver",
            PredicateFamily::Dialog => "dialog",
            PredicateFamily::Alarm => "alarm",
            PredicateFamily::Task => "task",
        }
    }

    /// The framework API that arms the family's callbacks.
    #[must_use]
    pub fn enabler_api(self) -> &'static str {
        match self {
            PredicateFamily::Connection => "Context.bindService()",
            PredicateFamily::Receiver => "Context.registerReceiver()",
            PredicateFamily::Dialog => "Dialog.show()",
            PredicateFamily::Alarm => "AlarmManager.set()",
            PredicateFamily::Task => "Context.startActivity()",
        }
    }

    /// The framework API that silences the family's callbacks, or `None`
    /// for enable-only families.
    #[must_use]
    pub fn disabler_api(self) -> Option<&'static str> {
        match self {
            PredicateFamily::Connection => Some("Context.unbindService()"),
            PredicateFamily::Receiver => Some("Context.unregisterReceiver()"),
            PredicateFamily::Dialog => Some("Dialog.dismiss()"),
            PredicateFamily::Alarm => Some("AlarmManager.cancel()"),
            PredicateFamily::Task => None,
        }
    }

    /// The callback kinds whose deliveries the family's APIs gate on the
    /// *target class* of the API call. The `Task` family gates the
    /// launched activity's whole lifecycle; the HB layer resolves that
    /// against the target's declared callbacks.
    #[must_use]
    pub fn gated_kinds(self) -> &'static [CallbackKind] {
        match self {
            PredicateFamily::Connection => &[
                CallbackKind::OnServiceConnected,
                CallbackKind::OnServiceDisconnected,
            ],
            PredicateFamily::Receiver => &[CallbackKind::OnReceive],
            PredicateFamily::Dialog => &[CallbackKind::OnShow, CallbackKind::OnDismiss],
            PredicateFamily::Alarm => &[CallbackKind::OnAlarm],
            PredicateFamily::Task => &[
                CallbackKind::OnCreate,
                CallbackKind::OnStart,
                CallbackKind::OnRestart,
                CallbackKind::OnResume,
                CallbackKind::OnPause,
                CallbackKind::OnStop,
                CallbackKind::OnDestroy,
            ],
        }
    }

    /// The family a callback kind is gated by, when the kind is *only*
    /// deliverable through a summarized enabler: the family whose
    /// [`PredicateFamily::gated_kinds`] list it. Activity lifecycle kinds
    /// return `None`: they are gated by `Task` launches only for
    /// launch-gated target classes, which the HB layer decides with the
    /// whole program in view.
    #[must_use]
    pub fn of_kind(kind: CallbackKind) -> Option<PredicateFamily> {
        PredicateFamily::all()
            .iter()
            .copied()
            .find(|&f| f != PredicateFamily::Task && f.gated_kinds().contains(&kind))
    }
}

impl fmt::Display for PredicateFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_with_disabler_has_gated_kinds() {
        for &f in PredicateFamily::all() {
            assert!(!f.gated_kinds().is_empty(), "{f}");
            if f.disabler_api().is_some() {
                for &k in f.gated_kinds() {
                    assert_eq!(PredicateFamily::of_kind(k), Some(f), "{f}/{k}");
                }
            }
        }
    }

    #[test]
    fn lifecycle_kinds_are_not_statically_family_gated() {
        // Activity lifecycle callbacks belong to the Task family only for
        // launch-gated classes — a whole-program property, so the
        // kind-level map must not claim them.
        for &k in CallbackKind::all() {
            if k.is_lifecycle() || k.is_ui() || k.is_fragment_lifecycle() {
                assert_eq!(PredicateFamily::of_kind(k), None, "{k}");
            }
        }
    }

    #[test]
    fn finish_is_not_a_summarized_disabler() {
        // finish() stays the CHB filter's domain; no family names it.
        for &f in PredicateFamily::all() {
            assert_ne!(f.disabler_api(), Some("Activity.finish()"));
        }
    }
}
