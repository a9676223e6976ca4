//! Cooperative cancellation for long-running analysis loops.
//!
//! This rides in `nadroid-obs` because it is the one dependency-free
//! substrate crate every compute layer (the points-to solver above all)
//! already links; like the recorder, a token is *installed* on a thread
//! and consulted through a cheap thread-local check. The points-to
//! solver holds the analysis path's checkpoints, so a cancelled
//! analysis unwinds there first.
//!
//! A [`CancelToken`] carries a manual flag plus an optional deadline.
//! Hot loops call [`checkpoint`] once per worklist drain batch; when the
//! installed token has been cancelled (or its deadline has passed) the
//! checkpoint unwinds the analysis with a [`Cancelled`] panic payload,
//! which the driver catches with `std::panic::catch_unwind` and turns
//! into a structured timeout. With no token installed, [`checkpoint`]
//! is a thread-local read and a branch.
//!
//! ```
//! use nadroid_obs::cancel::{self, CancelToken, Cancelled};
//!
//! let token = CancelToken::new();
//! token.cancel();
//! let hit = std::panic::catch_unwind(|| {
//!     let _scope = token.install();
//!     cancel::checkpoint(); // unwinds here
//! });
//! let payload = hit.unwrap_err();
//! assert!(payload.downcast_ref::<Cancelled>().is_some());
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// The panic payload used to unwind a cancelled analysis. Catch with
/// `catch_unwind` and test via [`was_cancelled`] (or `downcast_ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("analysis cancelled")
    }
}

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    // An opaque caller label (the serving layer threads its request id
    // through here) so a cancellation observed deep in a solver loop
    // can be attributed to the request that carried the deadline.
    tag: Option<String>,
}

/// A cancellation token: a manual flag plus an optional wall-clock
/// deadline. Cheap to clone; clones share the flag.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that additionally fires once `budget` has elapsed.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Self::build(Some(Instant::now() + budget), None)
    }

    /// [`CancelToken::new`], carrying a caller label (e.g. a request
    /// id) readable via [`CancelToken::tag`].
    #[must_use]
    pub fn tagged(tag: &str) -> Self {
        Self::build(None, Some(tag.to_owned()))
    }

    /// [`CancelToken::with_deadline`], carrying a caller label.
    #[must_use]
    pub fn with_deadline_tagged(budget: Duration, tag: &str) -> Self {
        Self::build(Some(Instant::now() + budget), Some(tag.to_owned()))
    }

    fn build(deadline: Option<Instant>, tag: Option<String>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline,
                tag,
            }),
        }
    }

    /// The caller label this token carries, if any. Clones share it.
    #[must_use]
    pub fn tag(&self) -> Option<&str> {
        self.inner.tag.as_deref()
    }

    /// Request cancellation (thread-safe; from any clone).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired — manually or by deadline.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Install this token for the current thread. Checkpoints consult
    /// the most recently installed token until the scope drops.
    #[must_use]
    pub fn install(&self) -> CancelScope {
        INSTALLED.with(|stack| stack.borrow_mut().push(self.inner.clone()));
        CancelScope { _priv: () }
    }
}

thread_local! {
    static INSTALLED: RefCell<Vec<Arc<TokenInner>>> = const { RefCell::new(Vec::new()) };
}

/// The token installed on the current thread, if any. Scoped worker
/// pools use this to re-install the spawning thread's token on their
/// workers, so [`checkpoint`] keeps firing inside parallel regions.
#[must_use]
pub fn current_token() -> Option<CancelToken> {
    INSTALLED.with(|stack| {
        stack.borrow().last().map(|inner| CancelToken {
            inner: inner.clone(),
        })
    })
}

/// Guard returned by [`CancelToken::install`]; uninstalls on drop.
#[derive(Debug)]
pub struct CancelScope {
    _priv: (),
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        INSTALLED.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Whether the current thread's installed token (if any) has fired.
#[must_use]
pub fn should_stop() -> bool {
    INSTALLED.with(|stack| {
        stack.borrow().last().is_some_and(|t| {
            t.flag.load(Ordering::Relaxed) || t.deadline.is_some_and(|d| Instant::now() >= d)
        })
    })
}

/// The cooperative cancellation hook: call once per worklist drain
/// batch. Unwinds with a [`Cancelled`] payload when the installed token
/// has fired; a no-op (one thread-local read) otherwise.
///
/// # Panics
///
/// Panics with [`Cancelled`] when the current thread's token has fired
/// — by design; catch at the analysis boundary with `catch_unwind`.
pub fn checkpoint() {
    if should_stop() {
        std::panic::panic_any(Cancelled);
    }
}

/// Whether a `catch_unwind` payload is a cancellation unwind.
#[must_use]
pub fn was_cancelled(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<Cancelled>().is_some()
}

/// Install a process-wide panic-hook filter that silences the default
/// "thread panicked" stderr report for [`Cancelled`] unwinds (they are
/// control flow, not failures). Idempotent; other panics still reach
/// the previously installed hook.
pub fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_inert_without_a_token() {
        assert!(!should_stop());
        checkpoint(); // must not panic
    }

    #[test]
    fn manual_cancel_unwinds_with_the_marker_payload() {
        install_quiet_hook();
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        let err = std::panic::catch_unwind(|| {
            let _scope = token.install();
            checkpoint();
        })
        .unwrap_err();
        assert!(was_cancelled(&*err));
        // The scope unwound: the thread is clean again.
        assert!(!should_stop());
        checkpoint();
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        install_quiet_hook();
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.is_cancelled());
        let _scope = token.install();
        assert!(should_stop());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let _scope = token.install();
        assert!(!should_stop());
        checkpoint();
    }

    #[test]
    fn tags_ride_the_token_through_install_and_clone() {
        let token = CancelToken::with_deadline_tagged(Duration::from_secs(3600), "r0000002a");
        assert_eq!(token.tag(), Some("r0000002a"));
        assert_eq!(token.clone().tag(), Some("r0000002a"));
        let _scope = token.install();
        let seen = current_token().expect("installed token visible");
        assert_eq!(seen.tag(), Some("r0000002a"));
        assert!(CancelToken::tagged("x").tag() == Some("x"));
        assert!(CancelToken::new().tag().is_none());
    }

    #[test]
    fn tokens_nest_and_clones_share_the_flag() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let _og = outer.install();
        {
            let _ig = inner.install();
            inner.clone().cancel();
            assert!(should_stop(), "innermost token governs");
        }
        assert!(!should_stop(), "outer token untouched after scope drop");
    }
}
