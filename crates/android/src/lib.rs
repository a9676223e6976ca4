//! Android framework vocabulary and concurrency-model semantics.
//!
//! This crate is the bottom layer of the nAdroid-rs stack. It defines the
//! *framework-side* concepts that the rest of the pipeline reasons about:
//!
//! - [`ClassRole`]: what kind of framework entity a class plays
//!   (Activity, Service, Runnable, Handler, AsyncTask, ...).
//! - [`CallbackKind`]: the taxonomy of event callbacks the Android runtime
//!   or the application itself may invoke (lifecycle, UI, system, posted,
//!   AsyncTask, ...), together with the Entry-Callback / Posted-Callback
//!   split from §7 of the paper.
//! - [`lifecycle`]: the Activity lifecycle automaton and the *sound*
//!   must-happens-before (MHB) relations of §6.1 of the paper.
//! - [`cancel`]: the cancellation APIs behind the unsound
//!   cancel-happens-before (CHB) filter of §6.2.
//! - [`listeners`]: the FlowDroid-style registration-API table used to
//!   discover imperatively registered entry callbacks.
//! - [`fragment`]: the extended (Dexteroid-style) Fragment lifecycle
//!   automaton, feeding the predicate-extended HB relations.
//! - [`predicates`]: the Perez-&-Le-style summary table of
//!   enabling/disabling API pairs behind the `enables`/`disables`
//!   relations and the sound refutation filter.
//!
//! Nothing in this crate depends on the program IR; it is pure framework
//! modelling, mirroring how nAdroid encodes Android rules separately from
//! the analyzed bytecode.
//!
//! # Example
//!
//! ```
//! use nadroid_android::{CallbackKind, lifecycle};
//!
//! // onCreate must happen before any UI callback ...
//! assert!(lifecycle::lifecycle_mhb(CallbackKind::OnCreate, CallbackKind::OnClick));
//! // ... but onResume/onPause cycle via the back button, so no MHB there.
//! assert!(!lifecycle::lifecycle_mhb(CallbackKind::OnResume, CallbackKind::OnPause));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod fragment;
pub mod lifecycle;
pub mod listeners;
pub mod predicates;

mod automaton;
mod callback;
mod role;

pub use callback::{CallbackClass, CallbackKind};
pub use cancel::{CancelApi, CancelScope};
pub use predicates::PredicateFamily;
pub use role::ClassRole;
