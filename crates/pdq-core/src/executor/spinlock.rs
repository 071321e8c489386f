//! Baseline executor: per-resource spin locks acquired *inside* handlers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::key::SyncKey;

use super::admission::Overflow;
use super::completion::SubmitWaiter;
use super::park::{WorkerPark, PARK_BACKSTOP};
use super::{Executor, ExecutorStats, Job, SubmitBatch, TrySubmitError};

/// Number of spin locks in the lock table. Keys are hashed onto slots, so two
/// distinct keys may occasionally contend on the same lock — exactly the kind
/// of artefact fine-grain lock tables exhibit in practice.
const LOCK_TABLE_SLOTS: usize = 4096;

/// Statistics of a [`SpinLockExecutor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpinLockStats {
    /// Jobs that ran to completion.
    pub executed: u64,
    /// Jobs that panicked (contained; the lock is still released).
    pub panicked: u64,
    /// Lock acquisitions performed.
    pub lock_acquisitions: u64,
    /// Iterations spent busy-waiting on a contended lock. This is the wasted
    /// work the paper's in-queue synchronization avoids.
    pub spin_iterations: u64,
}

struct SpinSlot {
    locked: AtomicBool,
}

impl SpinSlot {
    const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquires the lock, returning the number of busy-wait iterations spent.
    fn lock(&self) -> u64 {
        let mut spins = 0u64;
        loop {
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return spins;
            }
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                std::hint::spin_loop();
            }
        }
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    work: Condvar,
    idle: Condvar,
    locks: Vec<SpinSlot>,
    executed: AtomicU64,
    panicked: AtomicU64,
    lock_acquisitions: AtomicU64,
    spin_iterations: AtomicU64,
    capacity: Option<usize>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<(SyncKey, Job)>,
    /// Submissions parked behind the capacity bound.
    overflow: Overflow,
    outstanding: usize,
    shutdown: bool,
    /// Accounting for the workers parked on `Shared::work`.
    park: WorkerPark,
}

impl Shared {
    /// Wakes sleeping workers for `jobs` newly queued jobs.
    fn wake(&self, q: MutexGuard<'_, QueueState>, jobs: usize) {
        WorkerPark::wake(&self.work, q, |q| &mut q.park, jobs);
    }
}

/// The conventional parallelization of fine-grain handlers (paper, Figure 2
/// right): workers pull messages from a single FIFO and acquire a per-resource
/// spin lock *inside* the handler. Conflicting handlers busy-wait, wasting
/// cycles that could have executed other handlers.
///
/// Unlike [`PdqExecutor`](super::PdqExecutor) this executor does **not**
/// guarantee per-key submission order (lock acquisition order is arbitrary);
/// it only guarantees mutual exclusion per key. `Sequential` keys are mapped
/// to a single designated lock and `NoSync` jobs take no lock. An optional
/// capacity bound makes the executor exert the same FIFO backpressure as the
/// PDQ family.
pub struct SpinLockExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SpinLockExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinLockExecutor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl SpinLockExecutor {
    /// Creates an executor with `workers` threads and an unbounded queue.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, None)
    }

    /// Creates an executor with `workers` threads; the shared queue holds at
    /// most `capacity` waiting jobs when a bound is given.
    pub fn with_capacity(workers: usize, capacity: Option<usize>) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            locks: (0..LOCK_TABLE_SLOTS).map(|_| SpinSlot::new()).collect(),
            executed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            spin_iterations: AtomicU64::new(0),
            capacity: capacity.map(|c| c.max(1)),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spinlock-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn spin-lock worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Returns a snapshot of the executor's detailed statistics.
    pub fn spinlock_stats(&self) -> SpinLockStats {
        SpinLockStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            lock_acquisitions: self.shared.lock_acquisitions.load(Ordering::Relaxed),
            spin_iterations: self.shared.spin_iterations.load(Ordering::Relaxed),
        }
    }

    fn is_full(&self, q: &QueueState) -> bool {
        !q.overflow.is_empty() || self.shared.capacity.is_some_and(|cap| q.jobs.len() >= cap)
    }
}

impl Executor for SpinLockExecutor {
    fn name(&self) -> &'static str {
        "spinlock"
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError> {
        let mut q = self.shared.queue.lock();
        if q.shutdown {
            return Err(TrySubmitError::Shutdown(job));
        }
        if self.is_full(&q) {
            return Err(TrySubmitError::WouldBlock(job));
        }
        q.jobs.push_back((key, job));
        q.outstanding += 1;
        self.shared.wake(q, 1);
        Ok(())
    }

    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        let mut q = self.shared.queue.lock();
        if q.shutdown {
            drop(q);
            drop(job);
            waiter.abort();
            return;
        }
        q.outstanding += 1;
        if self.is_full(&q) {
            q.overflow.park(key, job, waiter);
        } else {
            q.jobs.push_back((key, job));
            self.shared.wake(q, 1);
            waiter.admit();
        }
    }

    /// Admits a batch prefix under one queue-lock acquisition (the shared
    /// FIFO has a single capacity bound, so admission stops at the first
    /// entry that does not fit).
    fn try_submit_batch(&self, batch: &mut SubmitBatch) -> usize {
        let mut q = self.shared.queue.lock();
        if q.shutdown {
            return 0;
        }
        let mut admitted = 0usize;
        while !batch.entries.is_empty() && !self.is_full(&q) {
            q.jobs.extend(batch.entries.pop_front());
            q.outstanding += 1;
            admitted += 1;
        }
        self.shared.wake(q, admitted);
        admitted
    }

    fn flush(&self) {
        let mut q = self.shared.queue.lock();
        while q.outstanding > 0 {
            self.shared.idle.wait_for(&mut q, PARK_BACKSTOP);
        }
    }

    fn shutdown(&mut self) {
        let (parked, wake) = {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
            let parked = std::mem::take(&mut q.overflow);
            q.outstanding -= parked.len();
            (parked, q.park.claim_all())
        };
        if wake {
            self.shared.work.notify_all();
        }
        parked.abort();
        self.shared.idle.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn stats(&self) -> ExecutorStats {
        let snap = self.spinlock_stats();
        let queued = {
            let q = self.shared.queue.lock();
            q.jobs.len() + q.overflow.len()
        };
        ExecutorStats {
            executed: snap.executed,
            panicked: snap.panicked,
            queued,
            spin_iterations: snap.spin_iterations,
            ..ExecutorStats::default()
        }
    }
}

impl Drop for SpinLockExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn slot_for(key: SyncKey) -> Option<usize> {
    match key {
        // Simple multiplicative hash onto the lock table.
        SyncKey::Key(k) => Some(
            (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % (LOCK_TABLE_SLOTS - 1) + 1,
        ),
        SyncKey::Sequential => Some(0),
        SyncKey::NoSync => None,
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (key, job, admitted) = {
            let mut q = shared.queue.lock();
            loop {
                if let Some((key, job)) = q.jobs.pop_front() {
                    // The pop freed a slot: admit parked submissions FIFO
                    // while there is room.
                    let st = &mut *q;
                    let admitted = st.overflow.admit(|pkey, pjob| {
                        if shared.capacity.is_some_and(|cap| st.jobs.len() >= cap) {
                            return Err(pjob);
                        }
                        st.jobs.push_back((pkey, pjob));
                        Ok(())
                    });
                    // Each admitted entry is new dispatchable work for a
                    // sleeping peer — this worker is about to be busy with
                    // `job`.
                    let jobs = admitted.len();
                    shared.wake(q, jobs);
                    break (key, job, admitted);
                }
                if q.shutdown {
                    return;
                }
                WorkerPark::wait(&shared.work, &mut q, |q| &mut q.park);
            }
        };
        for waiter in admitted {
            waiter.admit();
        }

        let slot = slot_for(key);
        if let Some(idx) = slot {
            let spins = shared.locks[idx].lock();
            shared.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            shared.spin_iterations.fetch_add(spins, Ordering::Relaxed);
        }
        let outcome = catch_unwind(AssertUnwindSafe(job));
        if let Some(idx) = slot {
            shared.locks[idx].unlock();
        }
        match outcome {
            Ok(()) => shared.executed.fetch_add(1, Ordering::Relaxed),
            Err(_) => shared.panicked.fetch_add(1, Ordering::Relaxed),
        };

        let mut q = shared.queue.lock();
        q.outstanding -= 1;
        if q.outstanding == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorExt;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let pool = SpinLockExecutor::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..1000u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 13, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.spinlock_stats().executed, 1000);
        assert_eq!(pool.spinlock_stats().lock_acquisitions, 1000);
        assert_eq!(pool.stats().executed, 1000);
    }

    #[test]
    fn same_key_jobs_are_mutually_exclusive() {
        let pool = SpinLockExecutor::new(8);
        let in_handler = Arc::new(AtomicBool::new(false));
        let overlap = Arc::new(AtomicBool::new(false));
        for _ in 0..500 {
            let in_handler = Arc::clone(&in_handler);
            let overlap = Arc::clone(&overlap);
            pool.submit_keyed(0x100, move || {
                if in_handler.swap(true, Ordering::SeqCst) {
                    overlap.store(true, Ordering::SeqCst);
                }
                std::hint::spin_loop();
                in_handler.store(false, Ordering::SeqCst);
            });
        }
        pool.flush();
        assert!(!overlap.load(Ordering::SeqCst));
    }

    #[test]
    fn contended_keys_busy_wait() {
        let pool = SpinLockExecutor::new(4);
        for _ in 0..200 {
            pool.submit_keyed(7, || {
                // Hold the lock long enough that another worker spins.
                for _ in 0..2_000 {
                    std::hint::spin_loop();
                }
            });
        }
        pool.flush();
        assert!(
            pool.spinlock_stats().spin_iterations > 0,
            "contended spin-lock workload should record busy-waiting"
        );
    }

    #[test]
    fn nosync_jobs_take_no_lock() {
        let pool = SpinLockExecutor::new(2);
        for _ in 0..50 {
            pool.submit_nosync(|| {});
        }
        pool.flush();
        assert_eq!(pool.spinlock_stats().lock_acquisitions, 0);
    }

    #[test]
    fn panicking_job_releases_lock() {
        let pool = SpinLockExecutor::new(2);
        let ran = Arc::new(AtomicBool::new(false));
        pool.submit_keyed(3, || panic!("boom"));
        let flag = Arc::clone(&ran);
        pool.submit_keyed(3, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(pool.spinlock_stats().panicked, 1);
    }

    #[test]
    fn shutdown_drains_work() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = SpinLockExecutor::new(2);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(1, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes() {
        let pool = SpinLockExecutor::with_capacity(2, Some(3));
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..200u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 5, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn try_submit_on_a_full_queue_would_block() {
        let gate = Arc::new(AtomicBool::new(false));
        let pool = SpinLockExecutor::with_capacity(1, Some(1));
        let g = Arc::clone(&gate);
        pool.submit_keyed(0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        while pool.stats().queued > 0 {
            std::thread::yield_now();
        }
        pool.submit(SyncKey::key(1), Box::new(|| {}))
            .expect("fills the slot");
        let err = pool
            .try_submit(SyncKey::key(2), Box::new(|| {}))
            .expect_err("queue is full");
        assert!(err.is_would_block());
        gate.store(true, Ordering::SeqCst);
        pool.flush();
        assert_eq!(pool.stats().executed, 2);
    }
}
