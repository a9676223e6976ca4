//! Deterministic scoped work-pool for intra-analysis parallelism.
//!
//! Every parallel region in the pipeline is a *chunked index-range map*:
//! the input is an index range `0..len`, split into fixed-size chunks
//! whose boundaries depend only on `(len, grain)` — never on the thread
//! count — and a pure-per-chunk function maps each chunk to a result.
//! [`map_chunks`] runs the chunks on a scoped worker pool and returns
//! the per-chunk results **in chunk-index order**, so the concatenation
//! of the results is byte-identical to a sequential left-to-right scan
//! at any thread count. That ordered-merge invariant is what lets the
//! detector and the filter pipeline parallelize without perturbing
//! warning ids, Figure 5 tallies, or obs counters (see
//! `docs/parallelism.md`).
//!
//! The thread count is *ambient*: [`with_threads`] installs it for a
//! scope (the pipeline wraps each analysis in
//! `with_threads(config.threads, ..)`), and [`map_chunks`] reads it via
//! [`current`]. With one thread — the default — every region runs
//! inline on the calling thread with no pool, no locks, and no spawns.
//!
//! Workers re-install the calling thread's obs recorder and cancel
//! token, so counters bumped inside a parallel region aggregate exactly
//! into the same registry, and `cancel::checkpoint` keeps firing. A
//! panicking chunk (including the cooperative-cancellation unwind) is
//! caught per chunk and re-raised on the calling thread with the
//! lowest-index chunk's payload, preserving the `Cancelled` contract
//! through the pool.
//!
//! ```
//! use nadroid_par as par;
//!
//! let squares = par::with_threads(4, || {
//!     par::map_chunks(10, 3, |r| r.map(|i| i * i).collect::<Vec<_>>())
//! });
//! let flat: Vec<usize> = squares.into_iter().flatten().collect();
//! assert_eq!(flat, (0..10).map(|i| i * i).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nadroid_obs as obs;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The largest thread budget a user may ask for, by a `--threads` flag
/// or the `NADROID_THREADS` default. [`map_chunks`] spawns up to that
/// many OS threads per parallel region, so the bound keeps a typo from
/// requesting thousands.
pub const MAX_THREADS: usize = 256;

thread_local! {
    // The ambient thread budget for parallel regions opened from this
    // thread. 1 (sequential) until a `with_threads` scope raises it.
    static AMBIENT: Cell<usize> = const { Cell::new(1) };
}

/// The current thread's ambient parallelism budget (≥ 1).
#[must_use]
pub fn current() -> usize {
    AMBIENT.with(|c| c.get().max(1))
}

/// Run `f` with the ambient thread budget set to `n` (clamped to ≥ 1).
/// The previous budget is restored when `f` returns or unwinds, so
/// scopes nest.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|c| c.set(self.0));
        }
    }
    let prev = AMBIENT.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Map the index range `0..len` over fixed-size chunks of `grain`
/// indices, in parallel up to the ambient thread budget, and return the
/// per-chunk results in chunk-index order.
///
/// Chunk boundaries depend only on `(len, grain)`, so the returned
/// vector — and therefore any order-respecting merge of it — is
/// identical at every thread count. `f` must be pure up to its chunk
/// (it may read shared state and bump obs counters, both of which
/// aggregate exactly).
///
/// With an ambient budget of 1, or when the range fits in one chunk,
/// `f` runs inline on the calling thread.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index panicking chunk on the
/// calling thread (worker panics never leak into `std::thread::scope`'s
/// own abort path).
pub fn map_chunks<R, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let grain = grain.max(1);
    let n_chunks = len.div_ceil(grain);
    let chunk_range = |c: usize| c * grain..((c + 1) * grain).min(len);
    let workers = current().min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks).map(|c| f(chunk_range(c))).collect();
    }

    type Payload = Box<dyn std::any::Any + Send + 'static>;
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, Result<R, Payload>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    // Captured once on the calling thread; each worker re-installs them
    // so instrumentation and cancellation behave as if inline.
    let recorder = obs::current_recorder();
    let token = obs::cancel::current_token();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _rec = recorder.as_ref().map(obs::Recorder::install);
                let _tok = token.as_ref().map(obs::cancel::CancelToken::install);
                loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| f(chunk_range(c))));
                    let failed = out.is_err();
                    results.lock().expect("par results lock").push((c, out));
                    if failed {
                        // Stop handing out further chunks; in-flight
                        // chunks on other workers still finish (or are
                        // caught) before the scope joins.
                        poisoned.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let mut results = results.into_inner().expect("par results lock");
    results.sort_by_key(|(c, _)| *c);
    // Deterministic error selection: the lowest-index failed chunk wins,
    // which keeps the cancellation payload (and any diagnostic panic)
    // stable across schedules.
    if let Some(pos) = results.iter().position(|(_, r)| r.is_err()) {
        let (_, failed) = results.swap_remove(pos);
        match failed {
            Err(payload) => resume_unwind(payload),
            Ok(_) => unreachable!("position() found an Err"),
        }
    }
    results
        .into_iter()
        .map(|(_, r)| r.expect("errors re-raised above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_budget_defaults_to_one_and_nests() {
        assert_eq!(current(), 1);
        with_threads(4, || {
            assert_eq!(current(), 4);
            with_threads(2, || assert_eq!(current(), 2));
            assert_eq!(current(), 4, "inner scope restores");
        });
        assert_eq!(current(), 1);
        with_threads(0, || assert_eq!(current(), 1, "clamped to ≥ 1"));
    }

    #[test]
    fn chunk_results_merge_in_index_order_at_every_thread_count() {
        let sequential: Vec<usize> = (0..1000).map(|i| i * 7).collect();
        for threads in [1, 2, 4, 8] {
            let chunks = with_threads(threads, || {
                map_chunks(1000, 37, |r| r.map(|i| i * 7).collect::<Vec<_>>())
            });
            assert_eq!(chunks.len(), 1000usize.div_ceil(37));
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_chunk_ranges_run_inline() {
        assert!(map_chunks(0, 8, |r| r.len()).is_empty());
        let one = with_threads(8, || map_chunks(5, 100, |r| r.collect::<Vec<_>>()));
        assert_eq!(one, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn counters_aggregate_exactly_across_thread_counts() {
        let expect = 10_000u64;
        for threads in [1, 2, 4, 8] {
            let rec = obs::Recorder::new();
            {
                let _g = rec.install();
                with_threads(threads, || {
                    map_chunks(expect as usize, 64, |r| {
                        obs::counter("par.items", r.len() as u64);
                    })
                });
            }
            assert_eq!(rec.counter_value("par.items"), expect, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller() {
        obs::cancel::install_quiet_hook();
        for threads in [1, 4] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                with_threads(threads, || {
                    map_chunks(100, 10, |r| {
                        assert!(!r.contains(&55), "chunk bug");
                    })
                })
            }))
            .unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(msg.contains("chunk bug"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn cancellation_unwinds_through_the_pool() {
        obs::cancel::install_quiet_hook();
        let token = obs::cancel::CancelToken::new();
        token.cancel();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _scope = token.install();
            with_threads(4, || map_chunks(1000, 10, |_r| obs::cancel::checkpoint()))
        }))
        .unwrap_err();
        assert!(obs::cancel::was_cancelled(&*err));
    }

    #[test]
    fn shared_read_only_state_is_visible_to_workers() {
        let table: Vec<u64> = (0..4096).map(|i| i * i).collect();
        let sums = with_threads(4, || {
            map_chunks(table.len(), 256, |r| r.map(|i| table[i]).sum::<u64>())
        });
        assert_eq!(sums.iter().sum::<u64>(), table.iter().sum::<u64>());
    }
}
