//! Baseline executor: static partitioning of keys across per-worker queues.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::key::SyncKey;

use super::admission::{admit_routed, key_route, Overflow};
use super::completion::SubmitWaiter;
use super::park::{WorkerPark, PARK_BACKSTOP};
use super::{Executor, ExecutorStats, Job, SubmitBatch, TrySubmitError};

/// Statistics of a [`MultiQueueExecutor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiQueueStats {
    /// Jobs that ran to completion, per worker. The spread across workers
    /// exposes the load imbalance inherent to static partitioning (Michael et
    /// al., cited by the paper).
    pub executed_per_worker: Vec<u64>,
    /// Jobs that panicked.
    pub panicked: u64,
    /// Maximum queue depth observed, per worker.
    pub max_depth_per_worker: Vec<usize>,
    /// Times a worker or an idle-waiter was woken and found nothing to do.
    /// With targeted `notify_one` wakeups this should stay near zero; a
    /// growing count means wakeups are being wasted on the wrong thread.
    pub spurious_wakeups: u64,
}

impl MultiQueueStats {
    /// Total jobs executed across all workers.
    pub fn executed(&self) -> u64 {
        self.executed_per_worker.iter().sum()
    }

    /// Ratio of the busiest worker's job count to the mean job count; 1.0 is
    /// perfectly balanced, larger values indicate imbalance.
    pub fn imbalance(&self) -> f64 {
        let n = self.executed_per_worker.len();
        if n == 0 {
            return 1.0;
        }
        let total = self.executed() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / n as f64;
        let max = self.executed_per_worker.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

#[derive(Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    /// Submissions parked behind this queue's capacity bound.
    overflow: Overflow,
    /// Park accounting for this queue's one worker. Maintained under the
    /// queue lock, so submitters can skip the wakeup when the worker is awake
    /// anyway (it re-checks the queue before parking) or already being woken
    /// — notifying a busy worker is what made `spurious_wakeups` inflate on
    /// mixed keyed/`NoSync` bursts: each chained `notify_one` landed after
    /// the worker had already popped the job.
    park: WorkerPark,
}

struct WorkerQueue {
    inner: Mutex<QueueInner>,
    work: Condvar,
    max_depth: AtomicUsize,
    executed: AtomicU64,
}

#[derive(Default)]
struct IdleState {
    /// Jobs submitted (queued, parked, or running) but not yet finished.
    outstanding: usize,
    /// Threads currently blocked in `flush`, so a worker reaching
    /// `outstanding == 0` knows whether a targeted wakeup is needed at all.
    idle_waiters: usize,
}

struct Shared {
    queues: Vec<WorkerQueue>,
    idle_state: Mutex<IdleState>,
    idle: Condvar,
    panicked: AtomicU64,
    spurious_wakeups: AtomicU64,
    shutdown: AtomicBool,
    round_robin: AtomicUsize,
    capacity: Option<usize>,
}

/// The multiple-protocol-queues model the paper argues against: every worker
/// owns a private queue and keys are statically hashed onto workers. Same-key
/// jobs are trivially serialized (they land on the same worker) but workers
/// cannot help each other, so skewed key distributions leave some workers idle
/// while others queue up — the load imbalance observed by Michael et al.
///
/// `Sequential` keys are pinned to worker 0 (a weaker guarantee than PDQ's
/// drain-and-isolate semantics); `NoSync` jobs are sprayed round-robin.
/// An optional per-worker capacity bound makes the executor exert the same
/// FIFO backpressure as the PDQ family.
pub struct MultiQueueExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MultiQueueExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueueExecutor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MultiQueueExecutor {
    /// Creates an executor with `workers` threads, each owning an unbounded
    /// private queue.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, None)
    }

    /// Creates an executor with `workers` threads; each worker's queue holds
    /// at most `capacity` waiting jobs when a bound is given.
    pub fn with_capacity(workers: usize, capacity: Option<usize>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    inner: Mutex::new(QueueInner::default()),
                    work: Condvar::new(),
                    max_depth: AtomicUsize::new(0),
                    executed: AtomicU64::new(0),
                })
                .collect(),
            idle_state: Mutex::new(IdleState::default()),
            idle: Condvar::new(),
            panicked: AtomicU64::new(0),
            spurious_wakeups: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            round_robin: AtomicUsize::new(0),
            capacity: capacity.map(|c| c.max(1)),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("multiqueue-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn multi-queue worker thread")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Returns a snapshot of the executor's detailed statistics.
    pub fn multiqueue_stats(&self) -> MultiQueueStats {
        MultiQueueStats {
            executed_per_worker: self
                .shared
                .queues
                .iter()
                .map(|q| q.executed.load(Ordering::Relaxed))
                .collect(),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            max_depth_per_worker: self
                .shared
                .queues
                .iter()
                .map(|q| q.max_depth.load(Ordering::Relaxed))
                .collect(),
            spurious_wakeups: self.shared.spurious_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Submits one job to its queue if the queue has room. Otherwise the job
    /// is handed back, or — given a `waiter` — parked behind the queue's
    /// capacity bound (after shutdown: dropped, and `waiter` aborted).
    fn submit_one(
        &self,
        key: SyncKey,
        job: Job,
        waiter: Option<Arc<SubmitWaiter>>,
    ) -> Result<(), TrySubmitError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            let Some(waiter) = waiter else {
                return Err(TrySubmitError::Shutdown(job));
            };
            drop(job);
            waiter.abort();
            return Ok(());
        }
        self.shared.add_outstanding(1);
        let mut job = Some(job);
        let (_, mut inner) = self.shared.push(self.target_worker(key), || job.take());
        match (job, waiter) {
            (None, waiter) => {
                drop(inner);
                waiter.inspect(|w| w.admit());
            }
            (Some(job), Some(waiter)) => inner.overflow.park(key, job, waiter),
            (Some(job), None) => {
                drop(inner);
                self.shared.finish_outstanding(1);
                return Err(TrySubmitError::WouldBlock(job));
            }
        }
        Ok(())
    }

    fn target_worker(&self, key: SyncKey) -> usize {
        let n = self.shared.queues.len();
        match key {
            SyncKey::Key(k) => key_route(k, n),
            SyncKey::Sequential => 0,
            SyncKey::NoSync => self.shared.round_robin.fetch_add(1, Ordering::Relaxed) % n,
        }
    }
}

impl Shared {
    /// Whether `inner` may take a job now: nothing parked ahead of it, and
    /// room under the capacity bound.
    fn has_room(&self, inner: &QueueInner) -> bool {
        inner.overflow.is_empty() && self.capacity.is_none_or(|cap| inner.jobs.len() < cap)
    }

    /// Pushes jobs from `next` onto queue `idx` while it has room, under one
    /// lock acquisition, and returns how many it pushed with the lock still
    /// held (a refused submission is parked under that same lock).
    fn push(
        &self,
        idx: usize,
        mut next: impl FnMut() -> Option<Job>,
    ) -> (usize, MutexGuard<'_, QueueInner>) {
        let q = &self.queues[idx];
        let mut inner = q.inner.lock();
        let mut pushed = 0;
        while self.has_room(&inner) {
            let Some(job) = next() else { break };
            inner.jobs.push_back(job);
            pushed += 1;
        }
        if pushed > 0 {
            // Signalled under the lock: the parked flag and the wait are
            // protected by the same mutex, so the wakeup provably reaches a
            // worker that is (still) parked — a notify after unlocking could
            // instead land after a timeout re-park and count as spurious.
            if inner.park.claim_one() {
                q.work.notify_one();
            }
            q.max_depth.fetch_max(inner.jobs.len(), Ordering::Relaxed);
        }
        (pushed, inner)
    }

    fn add_outstanding(&self, n: usize) {
        self.idle_state.lock().outstanding += n;
    }

    fn finish_outstanding(&self, n: usize) {
        let mut st = self.idle_state.lock();
        st.outstanding -= n;
        if st.outstanding == 0 && st.idle_waiters > 0 {
            // Exactly one waiter is woken; it chains the wakeup to the next
            // one (see flush) instead of a notify_all herd.
            self.idle.notify_one();
        }
    }
}

impl Executor for MultiQueueExecutor {
    fn name(&self) -> &'static str {
        "multiqueue"
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError> {
        self.submit_one(key, job, None)
    }

    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        let _ = self.submit_one(key, job, Some(waiter));
    }

    /// Admits the batch in one pass over the per-worker queues (see
    /// `admit_routed`), one lock acquisition per queue's slice.
    fn try_submit_batch(&self, batch: &mut SubmitBatch) -> usize {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return 0;
        }
        let shared = &self.shared;
        let admit = |worker: usize, entries: &mut VecDeque<(SyncKey, Job)>| {
            // Mirror `submit_one`: outstanding covers the whole slice before
            // any job becomes visible to the worker (a worker could otherwise
            // finish a job before it was ever counted), then the refused tail
            // is subtracted.
            shared.add_outstanding(entries.len());
            let (admitted, inner) = shared.push(worker, || entries.pop_front().map(|(_, job)| job));
            drop(inner);
            if !entries.is_empty() {
                shared.finish_outstanding(entries.len());
            }
            (admitted, None)
        };
        let route = |key| Some(self.target_worker(key));
        let barrier = |_| unreachable!("every key routes to a queue");
        admit_routed(batch, shared.queues.len(), route, admit, barrier).0
    }

    fn flush(&self) {
        let mut st = self.shared.idle_state.lock();
        st.idle_waiters += 1;
        while st.outstanding > 0 {
            let woken = self.shared.idle.wait_for(&mut st, PARK_BACKSTOP);
            if !woken.timed_out() && st.outstanding > 0 {
                self.shared.spurious_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.idle_waiters -= 1;
        if st.idle_waiters > 0 {
            // Chain the targeted wakeup to the next parked flusher.
            self.shared.idle.notify_one();
        }
    }

    fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Drop parked submissions; their jobs never ran, so their completion
        // slots resolve Aborted and their waiters report the shutdown.
        let mut dropped = 0usize;
        for q in &self.shared.queues {
            let (parked, wake) = {
                let mut inner = q.inner.lock();
                (std::mem::take(&mut inner.overflow), inner.park.claim_one())
            };
            // One worker per queue, so a single targeted wakeup suffices.
            if wake {
                q.work.notify_one();
            }
            dropped += parked.len();
            parked.abort();
        }
        if dropped > 0 {
            self.shared.finish_outstanding(dropped);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn stats(&self) -> ExecutorStats {
        let snap = self.multiqueue_stats();
        let queued = self
            .shared
            .queues
            .iter()
            .map(|q| {
                let inner = q.inner.lock();
                inner.jobs.len() + inner.overflow.len()
            })
            .sum();
        ExecutorStats {
            executed: snap.executed(),
            panicked: snap.panicked,
            queued,
            spurious_wakeups: snap.spurious_wakeups,
            ..ExecutorStats::default()
        }
    }
}

impl Drop for MultiQueueExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let queue = &shared.queues[index];
    loop {
        let (job, admitted) = {
            let mut inner = queue.inner.lock();
            loop {
                if let Some(job) = inner.jobs.pop_front() {
                    // The pop freed a slot: admit parked submissions FIFO
                    // while there is room.
                    let st = &mut *inner;
                    let admitted = st.overflow.admit(|_, parked| {
                        if shared.capacity.is_some_and(|cap| st.jobs.len() >= cap) {
                            return Err(parked);
                        }
                        st.jobs.push_back(parked);
                        Ok(())
                    });
                    break (job, admitted);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // The park accounting and the wait share the queue lock, so a
                // submitter either sees the sleeper and notifies, or pushed
                // its job before the worker's empty-check above — never
                // neither. With wakeups thus targeted at genuinely parked
                // workers, a signalled wakeup that finds no job is a real
                // accounting miss, so the counter below is exact, not an
                // estimate.
                let notified = WorkerPark::wait(&queue.work, &mut inner, |i| &mut i.park);
                if notified && inner.jobs.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                    shared.spurious_wakeups.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        for waiter in admitted {
            waiter.admit();
        }
        let outcome = catch_unwind(AssertUnwindSafe(job));
        match outcome {
            Ok(()) => {
                queue.executed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.panicked.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.finish_outstanding(1);
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
        let pool = MultiQueueExecutor::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..1000u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.multiqueue_stats().executed(), 1000);
        assert_eq!(pool.stats().executed, 1000);
    }

    #[test]
    fn same_key_jobs_are_serialized_by_partitioning() {
        let pool = MultiQueueExecutor::new(8);
        let value = Arc::new(AtomicU64::new(0));
        for _ in 0..2000u64 {
            let value = Arc::clone(&value);
            pool.submit_keyed(99, move || {
                let v = value.load(Ordering::Relaxed);
                value.store(v + 1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(value.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn skewed_keys_create_imbalance() {
        let pool = MultiQueueExecutor::new(4);
        // 90% of jobs use one key, so one worker does ~90% of the work.
        for i in 0..1000u64 {
            let key = if i % 10 == 0 { i } else { 7 };
            pool.submit_keyed(key, || {});
        }
        pool.flush();
        let stats = pool.multiqueue_stats();
        assert!(
            stats.imbalance() > 1.5,
            "skewed keys should produce visible imbalance, got {}",
            stats.imbalance()
        );
    }

    #[test]
    fn panicking_job_is_counted_and_does_not_wedge() {
        let pool = MultiQueueExecutor::new(2);
        let ran = Arc::new(AtomicBool::new(false));
        pool.submit_keyed(1, || panic!("boom"));
        let flag = Arc::clone(&ran);
        pool.submit_keyed(1, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(pool.multiqueue_stats().panicked, 1);
    }

    #[test]
    fn imbalance_of_empty_stats_is_one() {
        assert_eq!(MultiQueueStats::default().imbalance(), 1.0);
        let pool = MultiQueueExecutor::new(3);
        pool.flush();
        assert_eq!(pool.multiqueue_stats().imbalance(), 1.0);
    }

    #[test]
    fn shutdown_drains_work() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = MultiQueueExecutor::new(2);
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn bounded_queues_apply_backpressure_but_complete() {
        let pool = MultiQueueExecutor::with_capacity(2, Some(2));
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
        let pool = MultiQueueExecutor::with_capacity(1, Some(1));
        let g = Arc::clone(&gate);
        pool.submit_keyed(0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // Wait for the gate job to be picked up, then fill the single slot.
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

    #[test]
    fn spurious_wakeups_are_counted_not_hidden() {
        // The counter exists and stays small on an uncontended run.
        let pool = MultiQueueExecutor::new(2);
        for i in 0..50u64 {
            pool.submit_keyed(i, || {});
        }
        pool.flush();
        let stats = pool.multiqueue_stats();
        assert!(stats.spurious_wakeups <= 50);
    }

    #[test]
    fn mixed_burst_wakeups_are_exact() {
        // Regression: unconditional chained notify_one on mixed
        // keyed/NoSync bursts used to land on workers that were already
        // awake (the worker had popped the job before the signal arrived),
        // inflating spurious_wakeups. Wakeups are now signalled under the
        // queue lock and only to a provably parked worker, and only that
        // worker pops its queue — so a signalled worker always finds its
        // job, and this single-threaded schedule must count exactly zero.
        let pool = MultiQueueExecutor::new(2);
        for round in 0..50u64 {
            for i in 0..4u64 {
                pool.submit_keyed(round * 4 + i, || {});
            }
            for _ in 0..4 {
                pool.submit_nosync(|| {});
            }
            pool.flush();
        }
        let stats = pool.multiqueue_stats();
        assert_eq!(stats.executed(), 400);
        assert_eq!(
            stats.spurious_wakeups, 0,
            "every signalled wakeup must find its job"
        );
    }
}
