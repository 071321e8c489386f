//! The PDQ thread-pool executor: dispatch-queue shards, one by default.
//!
//! A [`PdqExecutor`] with one shard is the paper's single dispatch queue.
//! With more, user keys are hashed onto shards and a `Sequential` job
//! becomes a barrier over all of them (see the `sharded` module); everything
//! below holds per shard.
//!
//! # One dispatch path
//!
//! Every job enters the shard's mutex-protected [`DispatchQueue`], which
//! applies the synchronization key before a worker ever sees the job: per-key
//! FIFO and exclusivity for user keys, a barrier for `Sequential`, and no
//! key check at all for `NoSync`, which the queue dispatches once it is
//! inside the search window and no barrier is in the way, and counts in
//! `nosync_handlers`.
//!
//! A `NoSync` job is otherwise an ordinary entry. It counts against the
//! capacity bound, is refused with `WouldBlock` (or parked) when the shard is
//! full, queues behind submissions already parked there, and never runs
//! while a `Sequential` entry is in flight. The barrier therefore needs no
//! mechanism of its own beside the queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::config::QueueConfig;
use crate::key::SyncKey;
use crate::padded::CachePadded;
use crate::queue::DispatchQueue;
use crate::stats::{QueueStats, QueueStatsCells};

use super::admission::Overflow;
use super::completion::SubmitWaiter;
use super::park::{WorkerPark, PARK_BACKSTOP};
use super::{Executor, ExecutorStats, Job, SubmitBatch, TrySubmitError};

/// Statistics of a [`PdqExecutor`], summed over its shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdqExecutorStats {
    /// Statistics of the shards' [`DispatchQueue`]s merged (counters summed,
    /// high-water marks maxed).
    pub queue: QueueStats,
    /// Per-shard queue statistics, indexed by shard; the spread of
    /// `dispatched` across shards shows how evenly the key hash balanced the
    /// load.
    pub per_shard: Vec<QueueStats>,
    /// Jobs that ran to completion. On several shards a `Sequential`
    /// submission contributes one barrier stub per shard (the stub on shard
    /// 0 runs the actual job).
    pub executed: u64,
    /// Jobs that panicked. The panic is contained; the worker keeps running
    /// and the job's key (or the sequential barrier) is released.
    pub panicked: u64,
    /// Worker wakeups that found nothing to run.
    pub spurious_wakeups: u64,
}

struct State {
    queue: DispatchQueue<Job>,
    /// Submissions that found the queue at capacity.
    overflow: Overflow,
    shutdown: bool,
    /// Accounting for the workers parked on `Shared::work`.
    park: WorkerPark,
    /// Threads inside `wait_idle`; lets `notify_if_idle` skip the `idle`
    /// broadcast when nobody flushes.
    idle_waiters: usize,
}

/// Monotone relaxed counters bumped by one shard's workers, on their own
/// cache line so those increments do not false-share with the submit-side
/// fields next to them.
#[derive(Default)]
struct HotCounters {
    /// Jobs that ran to completion.
    executed: AtomicU64,
    /// Jobs that panicked.
    panicked: AtomicU64,
    /// Worker wakeups that found nothing to run.
    spurious_wakeups: AtomicU64,
}

/// One shard: a dispatch queue plus the synchronization its worker threads
/// park on.
pub(super) struct Shared {
    state: Mutex<State>,
    /// Signalled when new work arrives or a completion may unblock waiters.
    work: Condvar,
    /// Signalled when the queue becomes idle (for [`PdqExecutor::flush`]).
    idle: Condvar,
    /// The queue's seqlock counter block; lets [`add_to`](Self::add_to)
    /// read queue statistics without the dispatch mutex.
    queue_stats: Arc<QueueStatsCells>,
    /// Mirrors `State::shutdown` for lock-free checks. Exact for trait
    /// callers: `shutdown` takes `&mut self`, so it can never overlap a
    /// `&self` submission call.
    shutdown_flag: AtomicBool,
    /// Mirrors `State::overflow.len()` for the lock-free `queued()`.
    overflow_len: AtomicUsize,
    counters: CachePadded<HotCounters>,
}

impl Shared {
    fn new(config: QueueConfig) -> Self {
        let queue = DispatchQueue::with_config(config);
        let queue_stats = queue.stats_cells();
        Self {
            state: Mutex::new(State {
                queue,
                overflow: Overflow::default(),
                shutdown: false,
                park: WorkerPark::default(),
                idle_waiters: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            queue_stats,
            shutdown_flag: AtomicBool::new(false),
            overflow_len: AtomicUsize::new(0),
            counters: CachePadded::new(HotCounters::default()),
        }
    }

    /// Wakes sleeping workers for `jobs` newly dispatchable entries.
    fn wake(&self, state: MutexGuard<'_, State>, jobs: usize) {
        WorkerPark::wake(&self.work, state, |s| &mut s.park, jobs);
    }

    /// Enqueues one job, under the lock (`state`), unless the queue is full
    /// or submissions are already parked: nothing may barge past those.
    fn enqueue(state: &mut State, key: SyncKey, job: Job) -> Result<(), Job> {
        if !state.overflow.is_empty() {
            return Err(job);
        }
        state.queue.enqueue(key, job).map_err(|full| full.payload)
    }

    /// Submits one job into the queue if it has room. Otherwise the job is
    /// handed back, or — given a `waiter` — parked in the overflow FIFO
    /// (after shutdown: dropped, and `waiter` aborted). A `waiter` is
    /// admitted as soon as its job is in. Never blocks.
    pub(super) fn submit(
        &self,
        key: SyncKey,
        job: Job,
        waiter: Option<Arc<SubmitWaiter>>,
    ) -> Result<(), TrySubmitError> {
        let mut state = self.state.lock();
        if state.shutdown {
            drop(state);
            let Some(waiter) = waiter else {
                return Err(TrySubmitError::Shutdown(job));
            };
            waiter.abort();
            return Ok(());
        }
        let job = match Self::enqueue(&mut state, key, job) {
            Ok(()) => {
                self.wake(state, 1);
                waiter.inspect(|w| w.admit());
                return Ok(());
            }
            Err(job) => job,
        };
        let Some(waiter) = waiter else {
            return Err(TrySubmitError::WouldBlock(job));
        };
        state.overflow.park(key, job, waiter);
        self.overflow_len
            .store(state.overflow.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Admits a batch under **one** lock acquisition: entries are enqueued
    /// from the front of `entries`, in order, until the queue refuses one
    /// (capacity reached, submissions already parked, or shutdown). Returns
    /// how many were admitted.
    ///
    /// What happens to the refused entry and everything behind it depends on
    /// `park`. Without it they stay in `entries` (non-empty afterwards
    /// exactly when this queue refused). With it they move to the back of
    /// the overflow FIFO in the same critical section, and the waiter
    /// attached to the last of them is returned — FIFO admission decides it
    /// once the whole batch is in the queue; after shutdown they are dropped
    /// instead and the waiter comes back aborted.
    pub(super) fn enqueue_batch(
        &self,
        entries: &mut VecDeque<(SyncKey, Job)>,
        park: bool,
    ) -> (usize, Option<Arc<SubmitWaiter>>) {
        if entries.is_empty() {
            return (0, None);
        }
        let mut state = self.state.lock();
        if state.shutdown {
            drop(state);
            if !park {
                return (0, None);
            }
            entries.clear();
            let waiter = SubmitWaiter::new();
            waiter.abort();
            return (0, Some(waiter));
        }
        let mut admitted = 0;
        while let Some((key, job)) = entries.pop_front() {
            if let Err(job) = Self::enqueue(&mut state, key, job) {
                entries.push_front((key, job));
                break;
            }
            admitted += 1;
        }
        let waiter = (park && !entries.is_empty()).then(|| {
            let waiter = state.overflow.park_batch(entries);
            self.overflow_len
                .store(state.overflow.len(), Ordering::Relaxed);
            waiter
        });
        // One new entry needs one worker; a slice may unblock several keys
        // at once, so it gets as many as it has entries (and sleepers).
        self.wake(state, admitted);
        (admitted, waiter)
    }

    /// Blocks until the queue has nothing waiting, nothing parked and
    /// nothing in flight.
    fn wait_idle(&self) {
        let mut state = self.state.lock();
        state.idle_waiters += 1;
        while !(state.queue.is_idle() && state.overflow.is_empty()) {
            self.idle.wait_for(&mut state, PARK_BACKSTOP);
        }
        state.idle_waiters -= 1;
    }

    /// Called with the lock held whenever the queue may have gone idle:
    /// wakes `wait_idle` callers, and — during shutdown — the workers parked
    /// in the drain branch of `worker_loop`, which wait on `work` for the
    /// last in-flight jobs. Both are rare, so the notifies stay under the
    /// lock.
    fn notify_if_idle(&self, state: &mut State) {
        if state.queue.is_idle() && state.overflow.is_empty() {
            if state.idle_waiters != 0 {
                self.idle.notify_all();
            }
            if state.shutdown && state.park.claim_all() {
                self.work.notify_all();
            }
        }
    }

    /// Flags shutdown, drops parked submissions (aborting their waiters),
    /// and wakes every parked worker.
    fn begin_shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::SeqCst);
        let (parked, wake) = {
            let mut state = self.state.lock();
            state.shutdown = true;
            self.overflow_len.store(0, Ordering::Relaxed);
            (std::mem::take(&mut state.overflow), state.park.claim_all())
        };
        if wake {
            self.work.notify_all();
        }
        parked.abort();
    }

    /// Whether shutdown has begun (exact for trait callers, see
    /// `shutdown_flag`).
    pub(super) fn is_shutdown(&self) -> bool {
        self.shutdown_flag.load(Ordering::Acquire)
    }

    /// Number of jobs waiting (not yet dispatched), including parked
    /// submissions. Lock-free: derived from the seqlock counters, whose
    /// snapshot never shows `dispatched` above `enqueued`.
    fn queued(&self) -> usize {
        let s = self.queue_stats.snapshot();
        (s.enqueued - s.dispatched) as usize + self.overflow_len.load(Ordering::Relaxed)
    }

    /// Adds a snapshot of this shard's queue statistics and execution
    /// counters to `stats`. Lock-free: the queue counters come from their
    /// seqlock cells and the worker counters are relaxed atomics —
    /// `stats()` never contends with dispatch.
    fn add_to(&self, stats: &mut PdqExecutorStats) {
        let queue = self.queue_stats.snapshot();
        stats.queue.merge(&queue);
        stats.per_shard.push(queue);
        stats.executed += self.counters.executed.load(Ordering::Relaxed);
        stats.panicked += self.counters.panicked.load(Ordering::Relaxed);
        stats.spurious_wakeups += self.counters.spurious_wakeups.load(Ordering::Relaxed);
    }
}

/// Builder for [`PdqExecutor`].
///
/// # Examples
///
/// ```
/// use pdq_core::executor::{Executor, ExecutorExt, PdqBuilder};
///
/// let pool = PdqBuilder::new().workers(2).search_window(8).build();
/// pool.submit_keyed(0x100, || { /* handler */ });
/// pool.flush();
///
/// let sharded = PdqBuilder::new().workers(8).shards(4).build();
/// assert_eq!(sharded.shards(), 4);
/// sharded.submit_keyed(0x100, || { /* handler */ });
/// sharded.flush();
/// ```
#[derive(Debug, Clone)]
pub struct PdqBuilder {
    workers: usize,
    shards: usize,
    config: QueueConfig,
    /// The registry name the executor reports (see `build_executor`).
    pub(super) name: &'static str,
}

impl PdqBuilder {
    /// Creates a builder with one worker per available CPU (at least one),
    /// one shard, and the default queue configuration.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            workers,
            shards: 1,
            config: QueueConfig::default(),
            name: "pdq",
        }
    }

    /// Sets the total number of worker (protocol processor) threads,
    /// distributed round-robin over the shards. Clamped to at least one;
    /// every shard always gets at least one dedicated worker, so the spawned
    /// total may exceed this value when `workers < shards`.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the number of queue shards (default one), clamped to at least
    /// one. More shards spread the queue lock; keys are hashed onto shards
    /// and a `Sequential` job becomes a barrier over all of them.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the associative search window of every shard queue.
    #[must_use]
    pub fn search_window(mut self, window: usize) -> Self {
        self.config = self.config.search_window(window);
        self
    }

    /// Bounds the number of waiting entries *per shard*, `NoSync` entries
    /// included; `submit` blocks (and `submit_async` parks the future) when
    /// the target shard is at its bound.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.config = self.config.capacity(capacity);
        self
    }

    /// Builds the executor and spawns its worker threads.
    pub fn build(&self) -> PdqExecutor {
        let count = self.shards;
        let shards: Vec<Arc<Shared>> = (0..count)
            .map(|_| Arc::new(Shared::new(self.config)))
            .collect();
        let (base, extra) = (self.workers / count, self.workers % count);
        let mut workers = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let prefix = match count {
                1 => "pdq-worker".to_string(),
                _ => format!("pdq-shard{i}"),
            };
            for w in 0..(base + usize::from(i < extra)).max(1) {
                let shard = Arc::clone(shard);
                let worker = std::thread::Builder::new()
                    .name(format!("{prefix}-{w}"))
                    .spawn(move || worker_loop(&shard))
                    .expect("failed to spawn pdq worker thread");
                workers.push(worker);
            }
        }
        PdqExecutor {
            shards,
            workers,
            name: self.name,
            round_robin: AtomicUsize::new(0),
            barrier_broadcast: Mutex::new(()),
        }
    }
}

impl Default for PdqBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A thread pool whose work items are synchronized *in the queue*: jobs with
/// equal user keys never run concurrently and run in submission order, a
/// [`SyncKey::Sequential`] job runs in isolation, and a [`SyncKey::NoSync`]
/// job runs without any key synchronization (but never beside a
/// `Sequential` job).
///
/// Workers never block inside a job waiting for a synchronization key; a job
/// is only handed to a worker once its key is free. This is the paper's
/// programming abstraction realised as a Rust thread pool. With several
/// shards the same guarantees hold, but submit, dispatch, and completion for
/// keys on different shards no longer serialize on one mutex.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use pdq_core::executor::{Executor, ExecutorExt, PdqBuilder};
///
/// let pool = PdqBuilder::new().workers(4).build();
/// let counter = Arc::new(AtomicU64::new(0));
/// for i in 0..100u64 {
///     let counter = Arc::clone(&counter);
///     // All jobs share key 1, so they are serialized; no lock needed inside.
///     pool.submit_keyed(1, move || {
///         let v = counter.load(Ordering::Relaxed);
///         counter.store(v + i, Ordering::Relaxed);
///     });
/// }
/// pool.flush();
/// assert_eq!(counter.load(Ordering::Relaxed), (0..100).sum::<u64>());
/// ```
pub struct PdqExecutor {
    pub(super) shards: Vec<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
    name: &'static str,
    /// Round-robin cursor for spreading `NoSync` jobs across shards.
    pub(super) round_robin: AtomicUsize,
    /// Serializes barrier broadcasts so every shard sees the stubs of
    /// concurrent `Sequential` submissions in the same order. Two broadcasts
    /// interleaving in opposite orders on different shards would form a
    /// circular wait: each barrier's in-flight stub on one shard blocking
    /// the other barrier's stub that its leader needs.
    pub(super) barrier_broadcast: Mutex<()>,
}

impl std::fmt::Debug for PdqExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PdqExecutor")
            .field("shards", &self.shards.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl PdqExecutor {
    /// Creates an executor with `workers` threads, one shard, and the
    /// default queue configuration.
    pub fn new(workers: usize) -> Self {
        PdqBuilder::new().workers(workers).build()
    }

    /// Number of queue shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Returns a snapshot of the executor's detailed statistics, merged
    /// across shards, without acquiring any dispatch lock.
    pub fn pdq_stats(&self) -> PdqExecutorStats {
        let mut stats = PdqExecutorStats::default();
        for shard in &self.shards {
            shard.add_to(&mut stats);
        }
        stats
    }

    /// Number of jobs currently waiting across all shards (including parked
    /// submissions).
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queued()).sum()
    }
}

impl Executor for PdqExecutor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Non-blocking submit. On several shards a `Sequential` submission is
    /// always accepted: its barrier stubs use the parked-admission path on
    /// full shards, so only `Key`/`NoSync` jobs can observe
    /// [`TrySubmitError::WouldBlock`] there.
    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError> {
        match self.route(key) {
            Some(shard) => self.shards[shard].submit(key, job, None),
            // `shutdown` takes `&mut self`, so this check cannot race a
            // concurrent shutdown: after it, every shard accepts the
            // broadcast stubs.
            None if self.shards[0].is_shutdown() => Err(TrySubmitError::Shutdown(job)),
            None => {
                self.broadcast_sequential_barrier(job, SubmitWaiter::new());
                Ok(())
            }
        }
    }

    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        match self.route(key) {
            // Given a waiter, a shard parks what it cannot take.
            Some(shard) => {
                let _ = self.shards[shard].submit(key, job, Some(waiter));
            }
            None => self.broadcast_sequential_barrier(job, waiter),
        }
    }

    /// One shard admits the whole batch under one dispatch-lock acquisition
    /// instead of one lock round-trip per job; several admit it in one routed
    /// pass, one lock acquisition per shard's slice (see `admit_batch`).
    fn try_submit_batch(&self, batch: &mut SubmitBatch) -> usize {
        match &self.shards[..] {
            [shard] => shard.enqueue_batch(&mut batch.entries, false).0,
            // `shutdown` takes `&mut self`, so this check cannot race a
            // concurrent shutdown (same argument as `try_submit`).
            [first, ..] if first.is_shutdown() => 0,
            _ => self.admit_batch(batch, false).0,
        }
    }

    /// The same pass, but what a shard cannot take is parked behind that
    /// shard's capacity bound under the same lock acquisition, with one
    /// waiter per shard that had to park (and one per `Sequential` entry on
    /// several shards).
    fn submit_batch_queued(&self, batch: &mut SubmitBatch) -> Vec<Arc<SubmitWaiter>> {
        match &self.shards[..] {
            [shard] => Vec::from_iter(shard.enqueue_batch(&mut batch.entries, true).1),
            _ => self.admit_batch(batch, true).1,
        }
    }

    fn flush(&self) {
        // Jobs never migrate between shards: once a shard reports idle,
        // everything submitted to it before this call has finished, so one
        // pass over the shards covers all previously submitted jobs.
        for shard in &self.shards {
            shard.wait_idle();
        }
    }

    fn shutdown(&mut self) {
        for shard in &self.shards {
            shard.begin_shutdown();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn stats(&self) -> ExecutorStats {
        let snap = self.pdq_stats();
        ExecutorStats {
            executed: snap.executed,
            panicked: snap.panicked,
            queued: self.queued(),
            queue: Some(snap.queue),
            spurious_wakeups: snap.spurious_wakeups,
            ..ExecutorStats::default()
        }
    }
}

impl Drop for PdqExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock();
    loop {
        // Work back to back, one lock acquisition per job: a completion and
        // the next dispatch share a critical section, so whatever the
        // completion released (the job's key, a sequential barrier) is taken
        // by this worker itself and needs no wake-up.
        while let Some(dispatch) = state.queue.try_dispatch() {
            // The dispatch freed a waiting slot: admit parked submissions in
            // FIFO order while the queue has room. Doing it in the same
            // critical section as the dispatch means there is never a window
            // where the queue has space but a parked submission waits.
            let st = &mut *state;
            let admitted = st
                .overflow
                .admit(|key, job| st.queue.enqueue(key, job).map_err(|full| full.payload));
            shared
                .overflow_len
                .store(state.overflow.len(), Ordering::Relaxed);
            // If more is dispatchable right now, hand it to a sleeping peer
            // (if one has no wake-up on its way) instead of letting it wait
            // for this worker. Awake peers need nothing: every worker
            // re-checks the queue under the lock before it parks.
            let more = usize::from(state.queue.has_dispatchable());
            shared.wake(state, more);
            for waiter in admitted {
                waiter.admit();
            }
            match catch_unwind(AssertUnwindSafe(dispatch.payload)) {
                Ok(()) => shared.counters.executed.fetch_add(1, Ordering::Relaxed),
                Err(_) => shared.counters.panicked.fetch_add(1, Ordering::Relaxed),
            };
            state = shared.state.lock();
            state
                .queue
                .complete(dispatch.ticket)
                .expect("worker completes the ticket it dispatched");
            shared.notify_if_idle(&mut state);
        }
        // Nothing dispatchable. During shutdown, leave once nothing is in
        // flight either; otherwise peers are finishing the last jobs, and
        // their completions (or `notify_if_idle`) wake this worker.
        if state.shutdown && state.queue.in_flight() == 0 {
            return;
        }
        let notified = WorkerPark::wait(&shared.work, &mut state, |s| &mut s.park);
        if notified && !state.shutdown && !state.queue.has_dispatchable() {
            shared
                .counters
                .spurious_wakeups
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorExt;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs() {
        let pool = PdqExecutor::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..1000u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 7, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.pdq_stats().executed, 1000);
        assert_eq!(pool.stats().executed, 1000);
    }

    #[test]
    fn same_key_jobs_never_overlap() {
        let pool = PdqBuilder::new().workers(8).build();
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
        assert!(
            !overlap.load(Ordering::SeqCst),
            "same-key handlers overlapped"
        );
    }

    #[test]
    fn same_key_jobs_run_in_submission_order_without_locks() {
        // The classic "unsynchronized counter" test: correct only if the
        // executor serializes same-key jobs.
        let pool = PdqBuilder::new().workers(8).build();
        let value = Arc::new(AtomicU64::new(0));
        for _ in 0..2000u64 {
            let value = Arc::clone(&value);
            pool.submit_keyed(42, move || {
                let v = value.load(Ordering::Relaxed);
                value.store(v + 1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(value.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn distinct_keys_do_run_concurrently() {
        let pool = PdqBuilder::new().workers(4).build();
        let concurrent_peak = Arc::new(AtomicUsize::new(0));
        let running = Arc::new(AtomicUsize::new(0));
        for i in 0..64u64 {
            let peak = Arc::clone(&concurrent_peak);
            let running = Arc::clone(&running);
            pool.submit_keyed(i, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.flush();
        assert!(
            concurrent_peak.load(Ordering::SeqCst) > 1,
            "distinct keys should execute in parallel"
        );
    }

    #[test]
    fn sequential_jobs_run_alone() {
        let pool = PdqBuilder::new().workers(4).build();
        let running = Arc::new(AtomicUsize::new(0));
        let violation = Arc::new(AtomicBool::new(false));
        for i in 0..200u64 {
            let running = Arc::clone(&running);
            let violation = Arc::clone(&violation);
            if i % 10 == 0 {
                pool.submit_sequential(move || {
                    if running.fetch_add(1, Ordering::SeqCst) != 0 {
                        violation.store(true, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            } else {
                pool.submit_keyed(i, move || {
                    running.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        }
        pool.flush();
        assert!(
            !violation.load(Ordering::SeqCst),
            "sequential handler overlapped another"
        );
        assert_eq!(pool.pdq_stats().queue.sequential_handlers, 20);
    }

    #[test]
    fn sequential_barrier_excludes_nosync_jobs() {
        // NoSync jobs skip the key check, but they are queue entries: a
        // Sequential barrier must still run alone against them.
        let pool = PdqBuilder::new().workers(4).build();
        let running = Arc::new(AtomicUsize::new(0));
        let violation = Arc::new(AtomicBool::new(false));
        for i in 0..400u64 {
            let running = Arc::clone(&running);
            let violation = Arc::clone(&violation);
            if i % 40 == 0 {
                pool.submit_sequential(move || {
                    if running.fetch_add(1, Ordering::SeqCst) != 0 {
                        violation.store(true, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            } else {
                pool.submit_nosync(move || {
                    running.fetch_add(1, Ordering::SeqCst);
                    std::hint::spin_loop();
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        }
        pool.flush();
        assert!(
            !violation.load(Ordering::SeqCst),
            "a NoSync job overlapped a sequential handler"
        );
        let stats = pool.pdq_stats();
        assert_eq!(stats.queue.sequential_handlers, 10);
        assert_eq!(stats.queue.nosync_handlers, 390);
        assert_eq!(stats.executed, 400);
    }

    #[test]
    fn panicking_nosync_job_is_contained() {
        let pool = PdqBuilder::new().workers(2).build();
        pool.submit_nosync(|| panic!("nosync failure"));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit_nosync(move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran.load(Ordering::SeqCst));
        let stats = pool.pdq_stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.executed, 1);
    }

    #[test]
    fn panicking_job_releases_its_key() {
        let pool = PdqBuilder::new().workers(2).build();
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.submit_keyed(9, || panic!("handler failure"));
        let flag = Arc::clone(&ran_after);
        pool.submit_keyed(9, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(pool.pdq_stats().panicked, 1);
        assert_eq!(pool.pdq_stats().executed, 1);
    }

    #[test]
    fn try_submit_after_shutdown_fails() {
        let mut pool = PdqBuilder::new().workers(1).build();
        pool.submit_nosync(|| {});
        pool.shutdown();
        let err = pool
            .try_submit(SyncKey::NoSync, Box::new(|| {}))
            .expect_err("submit after shutdown must fail");
        assert!(!err.is_would_block());
        assert!(pool.submit(SyncKey::NoSync, Box::new(|| {})).is_err());
    }

    #[test]
    fn try_submit_on_a_full_queue_would_block() {
        // One worker, capacity 1: gate the worker, fill the slot, and the
        // next try_submit must hand the job back instead of blocking.
        let gate = Arc::new(AtomicBool::new(false));
        let pool = PdqBuilder::new().workers(1).capacity(1).build();
        let g = Arc::clone(&gate);
        pool.submit_keyed(0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // Wait until the gate job is dispatched (in flight, not waiting).
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit(SyncKey::key(1), Box::new(|| {}))
            .expect("fills the single waiting slot");
        let err = pool
            .try_submit(SyncKey::key(2), Box::new(|| {}))
            .expect_err("queue is full");
        assert!(err.is_would_block());
        gate.store(true, Ordering::SeqCst);
        pool.flush();
        assert_eq!(pool.pdq_stats().executed, 2);
    }

    #[test]
    fn shutdown_drains_submitted_work() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = PdqBuilder::new().workers(2).build();
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 3, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn shutdown_drains_nosync_work() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = PdqBuilder::new().workers(2).build();
        for _ in 0..300u64 {
            let counter = Arc::clone(&counter);
            pool.submit_nosync(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        assert_eq!(pool.pdq_stats().executed, 300);
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes() {
        let pool = PdqBuilder::new().workers(2).capacity(4).build();
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
    fn batch_submission_admits_under_one_lock_and_hands_back_overflow() {
        // Capacity 3, gated worker: a 6-job batch admits exactly 3 and hands
        // the rest back in order.
        let gate = Arc::new(AtomicBool::new(false));
        let pool = PdqBuilder::new().workers(1).capacity(3).build();
        let g = Arc::clone(&gate);
        pool.submit_keyed(0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        let counter = Arc::new(AtomicU64::new(0));
        let mut batch = SubmitBatch::with_capacity(6);
        for i in 1..=6u64 {
            let counter = Arc::clone(&counter);
            batch.push_keyed(i, move || {
                counter.fetch_add(i, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.try_submit_batch(&mut batch), 3);
        assert_eq!(batch.len(), 3);
        gate.store(true, Ordering::SeqCst);
        // The blocking variant drains the remainder.
        let admitted = pool.submit_batch(&mut batch).expect("pool is running");
        assert_eq!(admitted, 3);
        assert!(batch.is_empty());
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), (1..=6).sum::<u64>());
        assert_eq!(pool.pdq_stats().executed, 7);
    }

    #[test]
    fn batch_submission_after_shutdown_admits_nothing() {
        let mut pool = PdqBuilder::new().workers(1).build();
        pool.shutdown();
        let mut batch = SubmitBatch::new();
        batch.push_keyed(1, || {});
        batch.push_nosync(|| {});
        assert_eq!(pool.try_submit_batch(&mut batch), 0);
        assert_eq!(batch.len(), 2);
        assert!(pool.submit_batch(&mut batch).is_err());
    }

    #[test]
    fn wait_idle_on_empty_pool_returns_immediately() {
        let pool = PdqExecutor::new(1);
        pool.flush();
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn stats_never_take_the_dispatch_lock() {
        // A contended workload runs while stats() is hammered in a tight
        // loop; progress on both sides pins the no-dispatch-lock claim (a
        // stats() that took the mutex would serialize against dispatch and
        // this test would crawl or deadlock under a lock-ordering bug).
        let pool = Arc::new(PdqBuilder::new().workers(2).build());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = pool.pdq_stats();
                    assert!(s.queue.completed <= s.queue.dispatched);
                    assert!(s.queue.dispatched <= s.queue.enqueued);
                    reads += 1;
                }
                reads
            })
        };
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..20_000u64 {
            let counter = Arc::clone(&counter);
            if i % 2 == 0 {
                pool.submit_keyed(i % 5, move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                pool.submit_nosync(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        pool.flush();
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().unwrap();
        assert!(reads > 0);
        assert_eq!(counter.load(Ordering::Relaxed), 20_000);
        // Post-flush the snapshot is exact.
        let s = pool.pdq_stats();
        assert_eq!(s.executed, 20_000);
        assert_eq!(s.queue.enqueued, 20_000);
        assert_eq!(s.queue.completed, 20_000);
    }
}
