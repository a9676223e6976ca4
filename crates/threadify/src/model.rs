//! The thread model produced by threadification.

use nadroid_android::{CallbackClass, CallbackKind, PredicateFamily};
use nadroid_ir::{ClassId, InstrId, MethodId};
use std::fmt;

/// Identifier of a modeled thread in a [`crate::ThreadModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// The dummy main (initial UI looper) thread is always thread 0.
    pub const DUMMY_MAIN: ThreadId = ThreadId(0);

    /// Raw index, usable as a Datalog term.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Construct from a raw index (inverse of [`ThreadId::raw`]).
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        ThreadId(raw)
    }

    /// Arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// What a modeled thread stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadKind {
    /// The dummy main thread representing the initial looper (§3).
    DummyMain,
    /// An event callback modeled as a thread (§4). Carries its callback
    /// kind; entry vs posted classification follows from the kind.
    Callback(CallbackKind),
    /// An `AsyncTask.doInBackground` body (runs on a pool thread).
    TaskBody,
    /// A native `java.lang.Thread` body.
    Native,
}

impl ThreadKind {
    /// Whether this modeled thread executes atomically on a looper thread
    /// (event callbacks do; task bodies and native threads do not).
    #[must_use]
    pub fn on_looper(self) -> bool {
        match self {
            ThreadKind::DummyMain => true,
            ThreadKind::Callback(k) => k.runs_on_looper(),
            ThreadKind::TaskBody | ThreadKind::Native => false,
        }
    }

    /// The §7 Entry/Posted classification, when this is an event callback.
    #[must_use]
    pub fn callback_class(self) -> Option<CallbackClass> {
        match self {
            ThreadKind::Callback(k) => k.class(),
            _ => None,
        }
    }

    /// The callback kind, when this is an event callback.
    #[must_use]
    pub fn callback_kind(self) -> Option<CallbackKind> {
        match self {
            ThreadKind::Callback(k) => Some(k),
            _ => None,
        }
    }
}

/// How a modeled thread came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpawnVia {
    /// The dummy main itself.
    Root,
    /// An entry callback declared on a component class (lifecycle, UI,
    /// system callbacks the framework arms by default).
    Component,
    /// A receiver declared in the manifest.
    Manifest,
    /// A listener registered imperatively (FlowDroid table).
    Listener,
    /// `Handler.post` / `View.post` / `runOnUiThread`.
    Post,
    /// `Handler.sendMessage`.
    Send,
    /// The enabler API of a summarized family, arming one of the
    /// family's gated callbacks (`bindService` arms `onServiceConnected`).
    Enable(PredicateFamily),
    /// `AsyncTask.execute` (the `doInBackground` body).
    Execute,
    /// A looper-side AsyncTask callback (`onPreExecute`,
    /// `onProgressUpdate`, `onPostExecute`) of an executed task.
    TaskCallback,
    /// `Thread.start`.
    Spawn,
}

/// One modeled thread: a node of the threadification forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeledThread {
    pub(crate) kind: ThreadKind,
    pub(crate) root: Option<MethodId>,
    pub(crate) class: Option<ClassId>,
    pub(crate) parent: Option<ThreadId>,
    pub(crate) component: Option<ClassId>,
    pub(crate) origin_site: Option<InstrId>,
    pub(crate) via: SpawnVia,
    pub(crate) looper: Option<ClassId>,
}

impl ModeledThread {
    /// What this thread stands for.
    #[must_use]
    pub fn kind(&self) -> ThreadKind {
        self.kind
    }

    /// The body (root) method the thread executes; `None` only for the
    /// dummy main.
    #[must_use]
    pub fn root(&self) -> Option<MethodId> {
        self.root
    }

    /// The class declaring the root method.
    #[must_use]
    pub fn class(&self) -> Option<ClassId> {
        self.class
    }

    /// The creating thread (poster for PCs, dummy main for ECs); `None`
    /// only for the dummy main itself.
    #[must_use]
    pub fn parent(&self) -> Option<ThreadId> {
        self.parent
    }

    /// The governing component class (the Activity/Service/Receiver whose
    /// lifecycle scopes this callback), when resolvable. Used by the MHB,
    /// RHB, and CHB filters to require same-component pairs.
    #[must_use]
    pub fn component(&self) -> Option<ClassId> {
        self.component
    }

    /// The registration/post/spawn instruction that armed this thread
    /// (`None` for the dummy main, manifest-armed, and component-declared
    /// callbacks).
    #[must_use]
    pub fn origin_site(&self) -> Option<InstrId> {
        self.origin_site
    }

    /// How the thread came to exist.
    #[must_use]
    pub fn via(&self) -> SpawnVia {
        self.via
    }

    /// The looper this callback runs on: `None` is the main looper; a
    /// `Some` names the `LooperThread` class the callback's class was
    /// declared `on`. Only meaningful when the kind runs on a looper.
    #[must_use]
    pub fn looper(&self) -> Option<ClassId> {
        self.looper
    }
}
