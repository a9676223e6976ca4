//! Structured tracing and pipeline metrics for nAdroid-rs.
//!
//! The paper's evaluation (§8, Table 1, Figure 5) is an observability
//! exercise: per-app pipeline counts, per-filter kill rates, and phase
//! timing. This crate is the dependency-free substrate every layer of
//! the pipeline reports through:
//!
//! - **Spans** ([`span`]): RAII scopes with wall timing and thread-safe
//!   nesting. Each thread that [`Recorder::install`]s a recorder gets
//!   its own nesting stack, so parallel suite drivers trace cleanly.
//! - **Metrics** ([`counter`], [`gauge`], [`hist`]): named monotonic
//!   counters, last-write-wins gauges, and log-bucketed online
//!   latency histograms ([`hist::Histogram`]) in a per-recorder
//!   registry.
//! - **Exporters** (on [`Recorder`]): Chrome `trace_event` JSON (load in
//!   `chrome://tracing` or Perfetto), a flat JSON run-report, and a
//!   human-readable `--stats` text tree.
//!
//! Instrumentation is *scoped*, not global: nothing is recorded on a
//! thread until a [`Recorder`] is installed there, so the uninstalled
//! fast path is one thread-local check.
//!
//! # Example
//!
//! ```
//! use nadroid_obs as obs;
//!
//! let rec = obs::Recorder::new();
//! {
//!     let _g = rec.install();
//!     let _phase = obs::span("detection");
//!     {
//!         let _sub = obs::span("pointsto");
//!         obs::counter("pointsto.queue_pops", 42);
//!     }
//! }
//! assert_eq!(rec.counter_value("pointsto.queue_pops"), 42);
//! let trace = rec.chrome_trace();
//! assert!(trace.contains("\"traceEvents\""));
//! ```
//!
//! # Timing semantics
//!
//! Spans record **wall** time of their scope on the thread that opened
//! them. The exporters derive **cpu** (busy) time as the sum of
//! top-level span durations across threads — for compute-bound phases
//! run on scoped threads (the suite drivers) this is the summed
//! per-thread busy time, which is why suite aggregates are labeled
//! `cpu_secs` and can legitimately exceed the suite's `wall_secs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod export;
pub mod hist;

pub use export::SpanAgg;
pub use hist::Histogram;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One completed span, in recorder-relative microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dot-separated, see `docs/observability.md`).
    pub name: String,
    /// Recorder-scoped thread number (install order).
    pub tid: u32,
    /// Nesting depth at open time (0 = top level for its thread).
    pub depth: u32,
    /// Start offset from the recorder's epoch, microseconds.
    pub start_us: u64,
    /// Wall duration, microseconds.
    pub dur_us: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
    next_tid: AtomicU32,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            next_tid: AtomicU32::new(0),
        }
    }
}

/// A handle to one run's worth of spans and metrics. Cheap to clone;
/// clones share the same storage. Data is collected only on threads
/// where [`Recorder::install`] is active.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder. Its epoch (trace time zero) is now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Inner::new()),
        }
    }

    /// Install this recorder as the current thread's collection target.
    /// Returns a guard; collection stops (and any previously installed
    /// recorder is restored) when the guard drops. Each installation
    /// gets a distinct `tid` in install order.
    ///
    /// Spans opened under an installation must not outlive its guard.
    #[must_use]
    pub fn install(&self) -> Installed {
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        local::install(self.inner.clone(), tid);
        Installed { _priv: () }
    }

    /// Wall time since the recorder's epoch.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// All completed spans, sorted by (thread, start, depth).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.spans.lock().expect("obs spans lock").clone();
        spans.sort_by_key(|s| (s.tid, s.start_us, s.depth));
        spans
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .expect("obs counters lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.inner
            .gauges
            .lock()
            .expect("obs gauges lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The summed wall time of every span named `name` (zero when none
    /// closed).
    #[must_use]
    pub fn span_total(&self, name: &str) -> Duration {
        let us = self
            .inner
            .spans
            .lock()
            .expect("obs spans lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum();
        Duration::from_micros(us)
    }

    /// Set the named gauge on this recorder, whichever recorder the
    /// calling thread has installed (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        set_gauge(&self.inner, name, value);
    }

    /// The value of one counter (0 when never bumped).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .expect("obs counters lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All histograms, sorted by name (snapshots — cheap, constant
    /// size per histogram).
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .hists
            .lock()
            .expect("obs hists lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// A snapshot of one histogram, if any sample was recorded into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .hists
            .lock()
            .expect("obs hists lock")
            .get(name)
            .cloned()
    }

    /// Fold another recorder into this one: counters add, gauges keep
    /// the max, histograms merge exactly, and spans are copied over.
    /// Each copied span is rebased to this recorder's epoch, and each of
    /// the other recorder's threads gets a fresh tid here, so its spans
    /// nest as they did and never interleave with a thread of this
    /// recorder. The serving layer records every request into a recorder
    /// of its own, whose span tree a slow request serializes alone, and
    /// then merges it into the server's shared recorder.
    pub fn merge_from(&self, other: &Recorder) {
        // The other epoch's offset from this one, in µs: one of the two
        // saturating differences is zero.
        let (mine, their) = (self.inner.epoch, other.inner.epoch);
        let shift = their.saturating_duration_since(mine).as_micros() as i128
            - mine.saturating_duration_since(their).as_micros() as i128;
        let theirs = other.inner.spans.lock().expect("obs spans lock").clone();
        {
            let mut tids: BTreeMap<u32, u32> = BTreeMap::new();
            let mut spans = self.inner.spans.lock().expect("obs spans lock");
            for s in theirs {
                let tid = *tids
                    .entry(s.tid)
                    .or_insert_with(|| self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
                let start_us = u64::try_from(i128::from(s.start_us) + shift).unwrap_or(0);
                spans.push(SpanRecord { tid, start_us, ..s });
            }
        }
        {
            let mut c = self.inner.counters.lock().expect("obs counters lock");
            for (k, v) in other.counters() {
                *c.entry(k).or_insert(0) += v;
            }
        }
        {
            let mut g = self.inner.gauges.lock().expect("obs gauges lock");
            for (k, v) in other.gauges() {
                let e = g.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        let mut h = self.inner.hists.lock().expect("obs hists lock");
        for (k, v) in other.histograms() {
            h.entry(k).or_default().merge(&v);
        }
    }
}

/// The recorder installed on the current thread, if any. Scoped worker
/// pools use this to re-install the spawning thread's collection target
/// on their workers, so counters bumped inside parallel regions land in
/// the same registry they would have sequentially (counter merges are
/// additive, so totals are exact at any thread count).
#[must_use]
pub fn current_recorder() -> Option<Recorder> {
    local::current().map(|inner| Recorder { inner })
}

/// Guard returned by [`Recorder::install`]; uninstalls on drop.
#[derive(Debug)]
pub struct Installed {
    _priv: (),
}

impl Drop for Installed {
    fn drop(&mut self) {
        local::uninstall();
    }
}

/// An open span; records itself into the recorder on drop. Obtained
/// from [`span`] / [`span_lazy`]; inert when no recorder is installed.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    name: String,
    tid: u32,
    depth: u32,
    start_us: u64,
}

impl Span {
    /// An inert span (records nothing). Useful as an explicit disabled
    /// arm where [`span`] would be called conditionally.
    pub fn none() -> Span {
        Span { active: None }
    }

    /// Whether this span is actually recording.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.active.take() {
            local::span_closed();
            // Duration is the difference of two epoch-relative truncated
            // offsets (not an independently truncated elapsed): quantized
            // span ends then stay monotone, so a child's `ts + dur` never
            // exceeds its parent's in the exported trace.
            #[allow(clippy::cast_possible_truncation)]
            let end_us = s.inner.epoch.elapsed().as_micros() as u64;
            let dur_us = end_us.saturating_sub(s.start_us);
            s.inner
                .spans
                .lock()
                .expect("obs spans lock")
                .push(SpanRecord {
                    name: s.name,
                    tid: s.tid,
                    depth: s.depth,
                    start_us: s.start_us,
                    dur_us,
                });
        }
    }
}

/// Whether the current thread has a recorder installed. Use to guard
/// expensive metric computation (string formatting, distinct counts).
#[must_use]
pub fn recording() -> bool {
    local::current().is_some()
}

/// Open a span named `name` on the current thread. The name is copied
/// only when a recorder is installed.
pub fn span(name: &str) -> Span {
    span_lazy(|| name.to_owned())
}

/// Open a span whose name is computed only when a recorder is
/// installed — use on hot paths where the name is formatted.
pub fn span_lazy<F: FnOnce() -> String>(name: F) -> Span {
    let Some((inner, tid, depth)) = local::span_opened() else {
        return Span::none();
    };
    #[allow(clippy::cast_possible_truncation)]
    let start_us = inner.epoch.elapsed().as_micros() as u64;
    Span {
        active: Some(ActiveSpan {
            name: name(),
            tid,
            depth,
            start_us,
            inner,
        }),
    }
}

/// Add `delta` to the named monotonic counter of the current thread's
/// recorder (no-op when none is installed).
pub fn counter(name: &str, delta: u64) {
    if let Some(inner) = local::current() {
        let mut c = inner.counters.lock().expect("obs counters lock");
        *c.entry(name.to_owned()).or_insert(0) += delta;
    }
}

/// Set the named gauge to `value` (last write wins; no-op when no
/// recorder is installed).
pub fn gauge(name: &str, value: u64) {
    if let Some(inner) = local::current() {
        set_gauge(&inner, name, value);
    }
}

fn set_gauge(inner: &Inner, name: &str, value: u64) {
    let mut g = inner.gauges.lock().expect("obs gauges lock");
    g.insert(name.to_owned(), value);
}

/// Record one sample into the named histogram of the current thread's
/// recorder (no-op when none is installed). The serving layer feeds
/// request latencies and phase times in microseconds through this.
pub fn hist(name: &str, value: u64) {
    if let Some(inner) = local::current() {
        let mut h = inner.hists.lock().expect("obs hists lock");
        h.entry(name.to_owned()).or_default().record(value);
    }
}

/// Raise the named gauge to at least `value` (no-op when no recorder is
/// installed). Useful for high-water marks fed from several scopes.
pub fn gauge_max(name: &str, value: u64) {
    if let Some(inner) = local::current() {
        let mut g = inner.gauges.lock().expect("obs gauges lock");
        let e = g.entry(name.to_owned()).or_insert(0);
        *e = (*e).max(value);
    }
}

/// The per-thread stack of installed recorders.
mod local {
    use super::Inner;
    use std::cell::{Cell, RefCell};
    use std::sync::Arc;

    struct ThreadCtx {
        inner: Arc<Inner>,
        tid: u32,
        depth: Cell<u32>,
    }

    thread_local! {
        static CURRENT: RefCell<Vec<ThreadCtx>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn install(inner: Arc<Inner>, tid: u32) {
        CURRENT.with(|c| {
            c.borrow_mut().push(ThreadCtx {
                inner,
                tid,
                depth: Cell::new(0),
            });
        });
    }

    pub(super) fn uninstall() {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }

    pub(super) fn current() -> Option<Arc<Inner>> {
        CURRENT.with(|c| c.borrow().last().map(|ctx| ctx.inner.clone()))
    }

    /// Reserve a (recorder, tid, depth) slot for a new span and bump the
    /// thread's nesting depth.
    pub(super) fn span_opened() -> Option<(Arc<Inner>, u32, u32)> {
        CURRENT.with(|c| {
            c.borrow().last().map(|ctx| {
                let depth = ctx.depth.get();
                ctx.depth.set(depth + 1);
                (ctx.inner.clone(), ctx.tid, depth)
            })
        })
    }

    pub(super) fn span_closed() {
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow().last() {
                ctx.depth.set(ctx.depth.get().saturating_sub(1));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_recorded_without_an_install() {
        let rec = Recorder::new();
        {
            let _s = span("orphan");
            counter("orphan.count", 3);
            hist("orphan.h", 7);
        }
        assert!(rec.spans().is_empty());
        assert!(rec.counters().is_empty());
        assert!(rec.histograms().is_empty());
        assert!(!recording());
    }

    #[test]
    fn hist_records_into_the_installed_recorder() {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            for v in [10u64, 20, 30] {
                hist("lat", v);
            }
        }
        let h = rec.histogram("lat").expect("histogram recorded");
        assert_eq!((h.count(), h.max(), h.total()), (3, 30, 60));
        assert!(rec.histogram("other").is_none());
    }

    #[test]
    fn merge_from_folds_metrics_and_rebased_spans() {
        let shared = Recorder::new();
        {
            let _g = shared.install();
            let _s = span("worker");
            counter("c", 1);
            gauge_max("g", 5);
            hist("h", 100);
        }
        std::thread::sleep(Duration::from_millis(2));
        let per_request = Recorder::new();
        {
            let _g = per_request.install();
            let _s = span("request");
            let _inner = span("analyze");
            counter("c", 2);
            gauge_max("g", 3);
            hist("h", 200);
        }
        shared.merge_from(&per_request);
        assert_eq!(shared.counter_value("c"), 3);
        let gauges: std::collections::HashMap<String, u64> = shared.gauges().into_iter().collect();
        assert_eq!(gauges["g"], 5, "gauge merge keeps the max");
        let h = shared.histogram("h").unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, 100, 200));

        let spans = shared.spans();
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let (worker, request, analyze) = (find("worker"), find("request"), find("analyze"));
        assert_eq!(spans.len(), 3);
        assert_ne!(
            request.tid, worker.tid,
            "the request's thread is renumbered"
        );
        assert_eq!(analyze.tid, request.tid, "one thread stays one thread");
        assert_eq!((request.depth, analyze.depth), (0, 1), "nesting is kept");
        let original = &per_request.spans()[0];
        assert!(
            request.start_us >= original.start_us + 2_000,
            "rebased to the older epoch: {} vs {}",
            request.start_us,
            original.start_us
        );
        assert_eq!(request.dur_us, original.dur_us);
        // The donor is untouched.
        assert_eq!(per_request.spans().len(), 2);
        assert_eq!(per_request.counter_value("c"), 2);
        // A second recorder's threads get tids of their own too.
        shared.merge_from(&per_request);
        let tids: std::collections::HashSet<u32> = shared.spans().iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn span_total_sums_one_name_and_set_gauge_needs_no_install() {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            for _ in 0..3 {
                let _s = span("phase");
            }
            let _other = span("other");
        }
        let sum: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == "phase")
            .map(|s| s.dur_us)
            .sum();
        assert_eq!(rec.span_total("phase"), Duration::from_micros(sum));
        assert_eq!(rec.span_total("absent"), Duration::ZERO);
        rec.set_gauge("bytes", 9);
        rec.set_gauge("bytes", 4);
        assert_eq!(rec.gauges(), vec![("bytes".to_owned(), 4)]);
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            assert!(recording());
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
                assert!(_c.is_recording());
            }
            let _d = span("d");
        }
        let spans = rec.spans();
        let by_name: std::collections::HashMap<&str, u32> =
            spans.iter().map(|s| (s.name.as_str(), s.depth)).collect();
        assert_eq!(by_name["a"], 0);
        assert_eq!(by_name["b"], 1);
        assert_eq!(by_name["c"], 2);
        assert_eq!(by_name["d"], 1, "depth recovers after siblings close");
    }

    #[test]
    fn nesting_is_thread_safe_under_scoped_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _g = rec.install();
                    let _outer = span_lazy(|| format!("outer{t}"));
                    for i in 0..10 {
                        let _inner = span_lazy(|| format!("inner{t}.{i}"));
                        counter("spans.inner", 1);
                    }
                });
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 8 * 11);
        assert_eq!(rec.counter_value("spans.inner"), 80);
        // Every thread's stack nested independently: each inner span is
        // depth 1 and starts at or after its thread's outer span.
        for s in &spans {
            if s.name.starts_with("inner") {
                assert_eq!(s.depth, 1);
                let outer = spans
                    .iter()
                    .find(|o| o.tid == s.tid && o.depth == 0)
                    .expect("outer span on same tid");
                assert!(outer.start_us <= s.start_us);
            }
        }
        let tids: std::collections::HashSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 8, "one tid per installation");
    }

    #[test]
    fn counters_are_atomic_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _g = rec.install();
                    for _ in 0..1000 {
                        counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter_value("hits"), 16_000);
    }

    #[test]
    fn gauges_set_and_max() {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            gauge("g", 5);
            gauge("g", 3);
            gauge_max("m", 7);
            gauge_max("m", 2);
        }
        let gauges: std::collections::HashMap<String, u64> = rec.gauges().into_iter().collect();
        assert_eq!(gauges["g"], 3, "gauge is last-write-wins");
        assert_eq!(gauges["m"], 7, "gauge_max keeps the high-water mark");
    }

    #[test]
    fn install_restores_previous_recorder() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _og = outer.install();
        counter("c", 1);
        {
            let _ig = inner.install();
            counter("c", 10);
        }
        counter("c", 1);
        assert_eq!(outer.counter_value("c"), 2);
        assert_eq!(inner.counter_value("c"), 10);
    }
}
