//! Host-speed correction.
//!
//! The small shared hosts this benchmark runs on change speed by up to
//! twice, in periods of tens of milliseconds to minutes, as other
//! tenants come and go. A median over a run follows how much of the run
//! fell in slow periods, so raw times of the same code differ from run
//! to run by more than any useful bound.
//!
//! So the benchmark keeps measuring the host's speed with a fixed piece
//! of reference work. [`time`] runs it right before and right after
//! each operation; and every [`INTERVAL_US`] of CPU time the process
//! uses, a profiling-timer signal interrupts whichever of its threads
//! is running, and the handler runs it too, so that a long operation is
//! also sampled while it runs. The host's speed during an operation is
//! the mean of these reference times, and [`time`] scales the
//! operation's time towards the speed at which the reference work takes
//! [`NOMINAL_S`], by [`TRACKING`]. The process is pinned to one CPU
//! ([`pin_to_this_cpu`]), so every sample measures the CPU the
//! operations run on.
//!
//! The reference work hashes, sorts and formats strings, as the
//! program's parsing and analysis do, so both slow down alike. It
//! shares no code with the program and works in buffers of its own that
//! it never grows after start-up, so a change to the program, or to the
//! heap the program leaves behind, does not change it, and the signal
//! handler never allocates.

use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark's host-speed correction needs Linux");

/// The reference work's time at full speed on the 2-vCPU Xeon host the
/// README's numbers come from. Corrected times are the times the
/// operations take on a host that runs the reference work in this time.
pub const NOMINAL_S: f64 = 20e-6;

/// How far the operations follow the reference work when the host slows:
/// an operation's time is scaled by the reference's speed to this power.
/// In ten-seed sweeps on that host, the workloads' times grew with the
/// reference time to powers from 0.6 (`serve_mixed`, whose provenance
/// derivation is memory-heavy) to 1.1 (`confirm_witness`). With the
/// power in between, a host that moves from quiet to 1.5 times slower
/// moves no workload's corrected times by more than about 13%; with
/// the full power 1, `serve_mixed`'s would move by 18%.
const TRACKING: f64 = 0.8;

/// Process CPU time between two samples.
const INTERVAL_US: i64 = 4_000;

/// Samples kept: over four minutes at one per interval, longer than
/// any run.
const RING: usize = 1 << 16;

/// A fragment of the program's input language for the reference work.
const TEXT: &str = "class Main extends Activity { field handler; field dialog; \
    method onCreate() { h = new Handler; this.handler = h; d = this.dialog; \
    call d.show(); post h Main$1.run; } method onDestroy() { n = null; \
    this.dialog = n; call this.finish(); } }";

/// The reference work's buffers. Every run fills them to the same
/// sizes, so after the first runs the work allocates nothing.
#[derive(Default)]
struct Scratch {
    counts: HashMap<(&'static str, u64), u32>,
    sorted: Vec<((&'static str, u64), u32)>,
    out: String,
}

/// The reference work: count the words of [`TEXT`] under `salt`-varied
/// keys in a hash map, sort them, and render them.
#[inline(never)]
fn reference_work(salt: u64, s: &mut Scratch) -> usize {
    s.counts.clear();
    for rep in 0..6 {
        let words = TEXT
            .split(|c: char| !c.is_alphanumeric() && c != '$')
            .filter(|w| !w.is_empty());
        for word in words {
            *s.counts.entry((word, (salt + rep) % 3)).or_default() += 1;
        }
    }
    s.sorted.clear();
    s.sorted.extend(s.counts.iter().map(|(k, n)| (*k, *n)));
    s.sorted.sort_unstable();
    s.out.clear();
    for (i, ((word, key), n)) in s.sorted.iter().enumerate() {
        let _ = write!(s.out, "{word}{key}:{n}:{i},");
    }
    s.out.len()
}

/// The reference time in ns: the faster of two back-to-back runs of
/// the reference work, so that neither the caches the last code left
/// behind nor an interrupt decide it.
fn reference_ns(salt: u64, scratch: &mut Scratch) -> u64 {
    (0..2)
        .map(|_| {
            let start = Instant::now();
            black_box(reference_work(black_box(salt), scratch));
            start.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// The signal handler's buffers.
struct HandlerScratch(UnsafeCell<Option<Scratch>>);

// SAFETY: only `start_sampling` (before it first releases `BUSY`) and the signal
// handler (while it holds `BUSY`) touch the cell, so no two threads
// touch it at once.
unsafe impl Sync for HandlerScratch {}

static SCRATCH: HandlerScratch = HandlerScratch(UnsafeCell::new(None));
/// Held while the handler runs, and until `start_sampling` has filled
/// [`SCRATCH`]; a tick that finds it held takes no sample.
static BUSY: AtomicBool = AtomicBool::new(true);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// When each sample was taken, in ns since [`EPOCH`], and the
/// reference time it measured, in ns. Slot `i % RING` holds sample `i`.
static AT: [AtomicU64; RING] = [const { AtomicU64::new(0) }; RING];
static TOOK: [AtomicU64; RING] = [const { AtomicU64::new(0) }; RING];
/// Samples taken so far; each is written before this count covers it.
static TAKEN: AtomicUsize = AtomicUsize::new(0);

/// Take one sample. Only async-signal-safe work happens here: atomics,
/// the clock, and the reference work in its full-grown buffers.
extern "C" fn on_tick(_signal: i32) {
    if BUSY.swap(true, Ordering::Acquire) {
        return;
    }
    // SAFETY: this handler holds `BUSY`, so nothing else touches the
    // cell, and `start_sampling` filled it before it first released
    // `BUSY`.
    let scratch = unsafe { (*SCRATCH.0.get()).as_mut() };
    if let (Some(scratch), Some(epoch)) = (scratch, EPOCH.get()) {
        let at = epoch.elapsed().as_nanos() as u64;
        let took = reference_ns(at, scratch);
        let i = TAKEN.load(Ordering::Relaxed);
        AT[i % RING].store(at, Ordering::Relaxed);
        TOOK[i % RING].store(took, Ordering::Relaxed);
        TAKEN.store(i + 1, Ordering::Release);
    }
    BUSY.store(false, Ordering::Release);
}

/// `setitimer`'s `struct itimerval`.
#[repr(C)]
struct ITimerVal {
    interval: [i64; 2],
    value: [i64; 2],
}

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Start sampling, once per process, and wait for the first samples.
/// Should the calls fail, no sample comes, and [`slowdown`] says so.
fn start_sampling() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        let epoch = *EPOCH.get_or_init(Instant::now);
        let mut scratch = Scratch::default();
        reference_work(0, &mut scratch);
        // SAFETY: `BUSY` has been held since the process started, so no
        // handler touches the cell.
        unsafe { *SCRATCH.0.get() = Some(scratch) };
        BUSY.store(false, Ordering::Release);
        let every = [0, INTERVAL_US];
        let timer = ITimerVal {
            interval: every,
            value: every,
        };
        // SAFETY: `on_tick` is async-signal-safe; glibc's `signal`
        // installs it with `SA_RESTART`, so interrupted system calls
        // resume. The timer value is read during the call only.
        unsafe {
            signal(SIGPROF, on_tick);
            setitimer(ITIMER_PROF, &timer, std::ptr::null_mut());
        }
        // Ticks come with CPU time, so spin for the first two.
        while TAKEN.load(Ordering::Acquire) < 2 && epoch.elapsed() < Duration::from_millis(500) {
            black_box(epoch.elapsed());
        }
    });
}

/// Keep this process, and every thread it starts from now on, on the
/// CPU it runs on: every sample then measures the CPU the operations
/// run on, and no hand-off between threads waits for another CPU to
/// wake. Returns that CPU, or `None` if the call failed.
pub fn pin_to_this_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a whole `cpu_set_t` (1024 bits), its size is the
    // size passed, and the call only reads it while it lives.
    let done = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (done == 0).then_some(cpu)
}

/// The summed reference times, in ns, and the count of the samples
/// taken from `from` to `to` (ns since [`EPOCH`]).
fn samples_between(from: u64, to: u64) -> (u64, u64) {
    let taken = TAKEN.load(Ordering::Acquire);
    let (mut sum, mut count) = (0, 0);
    for i in (taken.saturating_sub(RING)..taken).rev() {
        let at = AT[i % RING].load(Ordering::Relaxed);
        if at < from {
            break;
        }
        if at <= to {
            sum += TOOK[i % RING].load(Ordering::Relaxed);
            count += 1;
        }
    }
    (sum, count)
}

thread_local! {
    /// This thread's buffers for the probes around its operations, and
    /// the reference time in ns its latest probe measured (0 before the
    /// first).
    static PROBE: RefCell<(Scratch, u64)> = RefCell::new((Scratch::default(), 0));
}

/// Run the reference work between two operations of this thread and
/// return its time in ns; with `fresh` false, reuse the latest probe's.
fn probe(fresh: bool) -> u64 {
    PROBE.with_borrow_mut(|(scratch, last)| {
        if fresh || *last == 0 {
            *last = reference_ns(*last, scratch);
        }
        *last
    })
}

/// An operation's time: as the clock read it, and corrected to nominal
/// host speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub raw: Duration,
    /// Seconds at nominal host speed.
    pub secs: f64,
}

/// Run `op` and time it.
pub fn time<R>(op: impl FnOnce() -> R) -> (Timed, R) {
    start_sampling();
    let epoch = *EPOCH.get().expect("set when sampling started");
    let before = probe(false);
    let start = Instant::now();
    let out = op();
    let raw = start.elapsed();
    let after = probe(true);
    let from = start.duration_since(epoch).as_nanos() as u64;
    let (during, count) = samples_between(from, from + raw.as_nanos() as u64);
    let mean_ns = (before + after + during) as f64 / (2 + count) as f64;
    let speed = (NOMINAL_S * 1e9 / mean_ns).powf(TRACKING);
    let timed = Timed {
        raw,
        secs: raw.as_secs_f64() * speed,
    };
    (timed, out)
}

/// The median reference time of every sample so far over
/// [`NOMINAL_S`]: how much slower than nominal the host ran. NaN
/// without samples.
pub fn slowdown() -> f64 {
    let taken = TAKEN.load(Ordering::Acquire);
    let ns: Vec<f64> = (taken.saturating_sub(RING)..taken)
        .map(|i| TOOK[i % RING].load(Ordering::Relaxed) as f64)
        .collect();
    if ns.is_empty() {
        return f64::NAN;
    }
    crate::stats::median(&ns) / 1e9 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_fixed() {
        let mut s = Scratch::default();
        let first = reference_work(1, &mut s);
        assert!(first > 0);
        assert_eq!(reference_work(4, &mut s), first, "salts 1 and 4 key alike");
        let capacity = (s.counts.capacity(), s.sorted.capacity(), s.out.capacity());
        for salt in 0..10 {
            reference_work(salt, &mut s);
        }
        assert_eq!(
            capacity,
            (s.counts.capacity(), s.sorted.capacity(), s.out.capacity()),
            "the buffers stop growing"
        );
    }

    #[test]
    fn samples_correct_a_busy_operation() {
        let (t, v) = time(|| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(30) {
                black_box(start.elapsed());
            }
            7
        });
        assert_eq!(v, 7);
        assert!(t.raw >= Duration::from_millis(30));
        assert!(t.secs > 0.0 && t.secs.is_finite());
        assert!(slowdown().is_finite(), "the timer ticked");
    }
}
