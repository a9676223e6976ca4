//! The event-callback taxonomy of the Android concurrency model.

use std::fmt;

/// High-level classification of a callback used by the report stage (§7 of
/// the paper): Entry Callbacks are externally invoked by the Android
/// runtime, Posted Callbacks are internally triggered by other callbacks
/// or threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CallbackClass {
    /// Entry Callback (EC): lifecycle, UI, and other system-triggered
    /// callbacks invoked directly by the Android runtime.
    Entry,
    /// Posted Callback (PC): Handler, Service/Receiver, and AsyncTask
    /// callbacks triggered from within the application.
    Posted,
}

impl fmt::Display for CallbackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CallbackClass::Entry => "EC",
            CallbackClass::Posted => "PC",
        })
    }
}

/// The kind of an event callback method.
///
/// This mirrors the callback families that nAdroid's threadification (§4)
/// distinguishes:
///
/// - **Lifecycle** callbacks of Activities/Services (`onCreate` ...);
/// - **UI / system** entry callbacks (`onClick`, `onLocationChanged` ...);
/// - **Handler** deliveries (`handleMessage`, posted `run`);
/// - **Service / Receiver** posted callbacks (`onServiceConnected` ...);
/// - **AsyncTask** callbacks (`onPreExecute`, `doInBackground` ...);
/// - **Native thread** bodies (`Thread.run`).
///
/// # Example
///
/// ```
/// use nadroid_android::{CallbackClass, CallbackKind};
///
/// assert_eq!(CallbackKind::OnClick.class(), Some(CallbackClass::Entry));
/// assert_eq!(CallbackKind::HandleMessage.class(), Some(CallbackClass::Posted));
/// // A thread body is not an event callback at all.
/// assert_eq!(CallbackKind::ThreadRun.class(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum CallbackKind {
    // --- Activity lifecycle (Entry) ---
    /// `Activity.onCreate`: first lifecycle callback.
    OnCreate,
    /// `Activity.onStart`.
    OnStart,
    /// `Activity.onRestart`.
    OnRestart,
    /// `Activity.onResume`.
    OnResume,
    /// `Activity.onPause`.
    OnPause,
    /// `Activity.onStop`.
    OnStop,
    /// `Activity.onDestroy`: final lifecycle callback.
    OnDestroy,

    // --- UI entry callbacks (Entry) ---
    /// `View.OnClickListener.onClick`.
    OnClick,
    /// `View.OnLongClickListener.onLongClick`.
    OnLongClick,
    /// `View.OnTouchListener.onTouch`.
    OnTouch,
    /// `View.OnKeyListener.onKey`.
    OnKey,
    /// `AdapterView.OnItemSelectedListener.onItemSelected`.
    OnItemSelected,
    /// `Activity.onCreateContextMenu`.
    OnCreateContextMenu,
    /// `Activity.onCreateOptionsMenu`.
    OnCreateOptionsMenu,
    /// `Activity.onOptionsItemSelected`.
    OnOptionsItemSelected,
    /// `Activity.onActivityResult` (posted back by the framework, but
    /// delivered as an entry callback on the UI looper).
    OnActivityResult,
    /// `Activity.onRetainNonConfigurationInstance`.
    OnRetainNonConfigurationInstance,

    // --- System entry callbacks (Entry) ---
    /// `LocationListener.onLocationChanged`.
    OnLocationChanged,
    /// `SensorEventListener.onSensorChanged`.
    OnSensorChanged,
    /// `Service.onBind`.
    OnBind,
    /// `Service.onStartCommand`.
    OnStartCommand,

    // --- Fragment lifecycle (Entry, Dexteroid-style extended model) ---
    /// `Fragment.onAttach`: first fragment lifecycle callback.
    OnAttach,
    /// `Fragment.onCreateView`.
    OnCreateView,
    /// `Fragment.onDestroyView`.
    OnDestroyView,
    /// `Fragment.onDetach`: final fragment lifecycle callback.
    OnDetach,

    // --- Service / Receiver posted callbacks (Posted) ---
    /// `ServiceConnection.onServiceConnected`.
    OnServiceConnected,
    /// `ServiceConnection.onServiceDisconnected`.
    OnServiceDisconnected,
    /// `BroadcastReceiver.onReceive`.
    OnReceive,
    /// `DialogInterface.OnShowListener.onShow`: delivered while the
    /// owning dialog is shown (enabled by `show()`, disabled by
    /// `dismiss()`).
    OnShow,
    /// `DialogInterface.OnDismissListener.onDismiss`.
    OnDismiss,
    /// Alarm delivery (`AlarmManager` firing a scheduled receiver):
    /// enabled by `AlarmManager.set…()`, disabled by
    /// `AlarmManager.cancel()`.
    OnAlarm,

    // --- Handler posted callbacks (Posted) ---
    /// `Handler.handleMessage`: target of `sendMessage`.
    HandleMessage,
    /// `Runnable.run` posted to a looper via `Handler.post`,
    /// `View.post`, or `Activity.runOnUiThread`.
    PostedRun,

    // --- AsyncTask callbacks ---
    /// `AsyncTask.onPreExecute` (looper side, Posted).
    OnPreExecute,
    /// `AsyncTask.doInBackground` (pool thread — not an event callback).
    DoInBackground,
    /// `AsyncTask.onProgressUpdate` (looper side, Posted).
    OnProgressUpdate,
    /// `AsyncTask.onPostExecute` (looper side, Posted).
    OnPostExecute,

    // --- Native thread body (not an event callback) ---
    /// `Thread.run` of a native `java.lang.Thread`.
    ThreadRun,
}

impl CallbackKind {
    /// All callback kinds, for exhaustive tests and corpus generation.
    #[must_use]
    pub fn all() -> &'static [CallbackKind] {
        use CallbackKind::*;
        &[
            OnCreate,
            OnStart,
            OnRestart,
            OnResume,
            OnPause,
            OnStop,
            OnDestroy,
            OnClick,
            OnLongClick,
            OnTouch,
            OnKey,
            OnItemSelected,
            OnCreateContextMenu,
            OnCreateOptionsMenu,
            OnOptionsItemSelected,
            OnActivityResult,
            OnRetainNonConfigurationInstance,
            OnLocationChanged,
            OnSensorChanged,
            OnBind,
            OnStartCommand,
            OnAttach,
            OnCreateView,
            OnDestroyView,
            OnDetach,
            OnServiceConnected,
            OnServiceDisconnected,
            OnReceive,
            OnShow,
            OnDismiss,
            OnAlarm,
            HandleMessage,
            PostedRun,
            OnPreExecute,
            DoInBackground,
            OnProgressUpdate,
            OnPostExecute,
            ThreadRun,
        ]
    }

    /// Whether this is an Activity/Service lifecycle callback.
    #[must_use]
    pub fn is_lifecycle(self) -> bool {
        use CallbackKind::*;
        matches!(
            self,
            OnCreate | OnStart | OnRestart | OnResume | OnPause | OnStop | OnDestroy
        )
    }

    /// Whether this is a UI-interaction entry callback.
    #[must_use]
    pub fn is_ui(self) -> bool {
        use CallbackKind::*;
        matches!(
            self,
            OnClick
                | OnLongClick
                | OnTouch
                | OnKey
                | OnItemSelected
                | OnCreateContextMenu
                | OnCreateOptionsMenu
                | OnOptionsItemSelected
                | OnActivityResult
                | OnRetainNonConfigurationInstance
        )
    }

    /// Whether this is a sensor/system entry callback.
    #[must_use]
    pub fn is_system(self) -> bool {
        use CallbackKind::*;
        matches!(
            self,
            OnLocationChanged | OnSensorChanged | OnBind | OnStartCommand
        )
    }

    /// Whether this is a Fragment lifecycle callback of the extended
    /// (Dexteroid-style) model. Deliberately *not* part of
    /// [`CallbackKind::is_lifecycle`]: the paper-pinned MHB-Lifecycle
    /// relation is untouched, and fragment ordering flows through the
    /// predicate-extended edge relations instead.
    #[must_use]
    pub fn is_fragment_lifecycle(self) -> bool {
        use CallbackKind::*;
        matches!(self, OnAttach | OnCreateView | OnDestroyView | OnDetach)
    }

    /// Whether this kind executes on a looper thread at all.
    ///
    /// Everything except `doInBackground` and native `Thread.run` executes
    /// as an atomic event callback on a looper thread.
    #[must_use]
    pub fn runs_on_looper(self) -> bool {
        !matches!(self, CallbackKind::DoInBackground | CallbackKind::ThreadRun)
    }

    /// The Entry/Posted classification of §7, or `None` for bodies that are
    /// not event callbacks (`doInBackground`, `Thread.run`).
    #[must_use]
    pub fn class(self) -> Option<CallbackClass> {
        use CallbackKind::*;
        match self {
            DoInBackground | ThreadRun => None,
            OnServiceConnected
            | OnServiceDisconnected
            | OnReceive
            | OnShow
            | OnDismiss
            | OnAlarm
            | HandleMessage
            | PostedRun
            | OnPreExecute
            | OnProgressUpdate
            | OnPostExecute => Some(CallbackClass::Posted),
            _ => Some(CallbackClass::Entry),
        }
    }

    /// The method name the Android framework uses for this callback, also
    /// used by the IR's textual DSL.
    #[must_use]
    pub fn method_name(self) -> &'static str {
        use CallbackKind::*;
        match self {
            OnCreate => "onCreate",
            OnStart => "onStart",
            OnRestart => "onRestart",
            OnResume => "onResume",
            OnPause => "onPause",
            OnStop => "onStop",
            OnDestroy => "onDestroy",
            OnClick => "onClick",
            OnLongClick => "onLongClick",
            OnTouch => "onTouch",
            OnKey => "onKey",
            OnItemSelected => "onItemSelected",
            OnCreateContextMenu => "onCreateContextMenu",
            OnCreateOptionsMenu => "onCreateOptionsMenu",
            OnOptionsItemSelected => "onOptionsItemSelected",
            OnActivityResult => "onActivityResult",
            OnRetainNonConfigurationInstance => "onRetainNonConfigurationInstance",
            OnLocationChanged => "onLocationChanged",
            OnSensorChanged => "onSensorChanged",
            OnBind => "onBind",
            OnStartCommand => "onStartCommand",
            OnAttach => "onAttach",
            OnCreateView => "onCreateView",
            OnDestroyView => "onDestroyView",
            OnDetach => "onDetach",
            OnServiceConnected => "onServiceConnected",
            OnServiceDisconnected => "onServiceDisconnected",
            OnReceive => "onReceive",
            OnShow => "onShow",
            OnDismiss => "onDismiss",
            OnAlarm => "onAlarm",
            HandleMessage => "handleMessage",
            PostedRun => "run",
            OnPreExecute => "onPreExecute",
            DoInBackground => "doInBackground",
            OnProgressUpdate => "onProgressUpdate",
            OnPostExecute => "onPostExecute",
            ThreadRun => "run",
        }
    }

    /// Resolve a method name *in the context of a class role* back to a
    /// callback kind. The role disambiguates `run` (posted `Runnable.run`
    /// vs native `Thread.run`).
    #[must_use]
    pub fn from_method_name(name: &str, role: crate::ClassRole) -> Option<CallbackKind> {
        if name == "run" {
            return match role {
                crate::ClassRole::Thread => Some(CallbackKind::ThreadRun),
                crate::ClassRole::Runnable => Some(CallbackKind::PostedRun),
                _ => None,
            };
        }
        CallbackKind::all().iter().copied().find(|k| {
            k.method_name() == name
                && !matches!(k, CallbackKind::PostedRun | CallbackKind::ThreadRun)
        })
    }
}

impl fmt::Display for CallbackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.method_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassRole;

    #[test]
    fn every_kind_has_a_class_or_is_thread_body() {
        for &k in CallbackKind::all() {
            if k.class().is_none() {
                assert!(matches!(
                    k,
                    CallbackKind::DoInBackground | CallbackKind::ThreadRun
                ));
            }
        }
    }

    #[test]
    fn lifecycle_kinds_are_entry() {
        for &k in CallbackKind::all() {
            if k.is_lifecycle() {
                assert_eq!(k.class(), Some(CallbackClass::Entry), "{k}");
            }
        }
    }

    #[test]
    fn ui_kinds_are_entry() {
        for &k in CallbackKind::all() {
            if k.is_ui() {
                assert_eq!(k.class(), Some(CallbackClass::Entry), "{k}");
            }
        }
    }

    #[test]
    fn run_disambiguates_by_role() {
        assert_eq!(
            CallbackKind::from_method_name("run", ClassRole::Thread),
            Some(CallbackKind::ThreadRun)
        );
        assert_eq!(
            CallbackKind::from_method_name("run", ClassRole::Runnable),
            Some(CallbackKind::PostedRun)
        );
        assert_eq!(
            CallbackKind::from_method_name("run", ClassRole::Activity),
            None
        );
    }

    #[test]
    fn method_name_resolution_round_trips() {
        for &k in CallbackKind::all() {
            let role = match k {
                CallbackKind::ThreadRun => ClassRole::Thread,
                CallbackKind::PostedRun => ClassRole::Runnable,
                _ => ClassRole::Activity,
            };
            assert_eq!(
                CallbackKind::from_method_name(k.method_name(), role),
                Some(k)
            );
        }
    }

    #[test]
    fn fragment_kinds_are_entry_but_not_activity_lifecycle() {
        for &k in CallbackKind::all() {
            if k.is_fragment_lifecycle() {
                assert_eq!(k.class(), Some(CallbackClass::Entry), "{k}");
                assert!(!k.is_lifecycle(), "{k} must not join MHB-Lifecycle");
                assert!(!k.is_ui(), "{k}");
                assert!(!k.is_system(), "{k}");
            }
        }
    }

    #[test]
    fn predicate_kinds_are_posted() {
        for k in [
            CallbackKind::OnShow,
            CallbackKind::OnDismiss,
            CallbackKind::OnAlarm,
        ] {
            assert_eq!(k.class(), Some(CallbackClass::Posted), "{k}");
            assert!(!k.is_ui() && !k.is_system() && !k.is_lifecycle(), "{k}");
        }
    }

    #[test]
    fn looper_execution() {
        assert!(CallbackKind::OnClick.runs_on_looper());
        assert!(CallbackKind::OnPostExecute.runs_on_looper());
        assert!(!CallbackKind::DoInBackground.runs_on_looper());
        assert!(!CallbackKind::ThreadRun.runs_on_looper());
    }
}
