//! A fixed-size worker pool with a bounded submission queue.
//!
//! Admission control happens at submit time: when the queue is full,
//! [`Pool::try_submit`] hands the job straight back instead of
//! buffering it, and the server turns that into a
//! `rejected`/`retry_after_ms` response. Workers run every job under
//! `catch_unwind`, so a panicking analysis (including the cooperative
//! cancellation unwind) never poisons a worker thread.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work; replies travel through channels captured by the
/// closure, so the pool itself is payload-agnostic.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cap: usize,
    available: Condvar,
    stopping: AtomicBool,
    inflight: AtomicU64,
}

/// The outcome of a submission attempt.
pub enum Submit {
    /// The job was queued.
    Accepted,
    /// The queue was at capacity; the job is returned untouched so the
    /// caller can reply `rejected` (or retry) without losing it.
    Full(Job),
}

/// A sharded worker pool: N OS threads draining one bounded queue.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawn `workers` threads with a submission queue bounded at
    /// `queue_cap` jobs. `on_start` runs once on each worker thread
    /// before it begins draining; whatever it returns stays alive for
    /// the worker's lifetime (the server returns the obs recorder's
    /// installation guard from it).
    pub fn new<F>(workers: usize, queue_cap: usize, on_start: F) -> Pool
    where
        F: Fn() -> Box<dyn Any> + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cap: queue_cap.max(1),
            available: Condvar::new(),
            stopping: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
        });
        let on_start = Arc::new(on_start);
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let shared = Arc::clone(&shared);
            let on_start = Arc::clone(&on_start);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nadroid-serve-worker-{i}"))
                    .spawn(move || {
                        let _ctx = on_start();
                        worker_loop(&shared);
                    })
                    .expect("spawn worker thread"),
            );
        }
        Pool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Try to enqueue a job without blocking.
    pub fn try_submit(&self, job: Job) -> Submit {
        let mut queue = self.shared.queue.lock().expect("queue lock");
        if self.shared.stopping.load(Ordering::SeqCst) || queue.len() >= self.shared.cap {
            return Submit::Full(job);
        }
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
        Submit::Accepted
    }

    /// Jobs waiting to be picked up.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue.lock().expect("queue lock").len() as u64
    }

    /// Jobs currently executing on a worker.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Stop accepting work and wake every worker. Already-queued jobs
    /// still run (graceful drain).
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
    }

    /// Wait for all workers to finish their drain and exit.
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("queue wait");
            }
        };
        let Some(job) = job else { return };
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        // Cancellation unwinds and analysis bugs both land here; the
        // job's reply channel communicates the outcome, the worker
        // itself stays healthy either way.
        let _ = catch_unwind(AssertUnwindSafe(job));
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn no_ctx() -> Box<dyn Any> {
        Box::new(())
    }

    #[test]
    fn full_queue_hands_the_job_back_and_drains_after_release() {
        // One worker blocked on a gate + cap-2 queue: the 4th submit
        // must be rejected deterministically.
        let pool = Pool::new(1, 2, no_ctx);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let gate_rx = Arc::new(gate_rx);
        let (done_tx, done_rx) = mpsc::channel::<u32>();

        // Job 0 occupies the worker until the gate opens.
        let rx = Arc::clone(&gate_rx);
        let tx = done_tx.clone();
        assert!(matches!(
            pool.try_submit(Box::new(move || {
                rx.lock().unwrap().recv().unwrap();
                tx.send(0).unwrap();
            })),
            Submit::Accepted
        ));
        // Wait until the worker actually picked it up so the queue is
        // empty again; then two more fill the queue to cap.
        while pool.inflight() == 0 {
            std::thread::yield_now();
        }
        for i in [1u32, 2] {
            let tx = done_tx.clone();
            assert!(matches!(
                pool.try_submit(Box::new(move || tx.send(i).unwrap())),
                Submit::Accepted
            ));
        }
        let tx = done_tx.clone();
        let Submit::Full(job) = pool.try_submit(Box::new(move || tx.send(3).unwrap())) else {
            panic!("queue at cap must reject");
        };
        drop(job); // the caller owns the rejected job again
        assert_eq!(pool.queue_depth(), 2);

        gate_tx.send(()).unwrap();
        let mut got: Vec<u32> = (0..3).map(|_| done_rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn panicking_jobs_do_not_poison_the_worker() {
        let pool = Pool::new(1, 4, no_ctx);
        let (tx, rx) = mpsc::channel::<&'static str>();
        assert!(matches!(
            pool.try_submit(Box::new(|| panic!("job bug"))),
            Submit::Accepted
        ));
        assert!(matches!(
            pool.try_submit(Box::new(move || tx.send("alive").unwrap())),
            Submit::Accepted
        ));
        assert_eq!(rx.recv().unwrap(), "alive");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = Pool::new(2, 8, no_ctx);
        let (tx, rx) = mpsc::channel::<u32>();
        for i in 0..5u32 {
            let tx = tx.clone();
            assert!(matches!(
                pool.try_submit(Box::new(move || tx.send(i).unwrap())),
                Submit::Accepted
            ));
        }
        pool.shutdown();
        pool.join();
        let mut got: Vec<u32> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(matches!(pool.try_submit(Box::new(|| {})), Submit::Full(_)));
    }
}
