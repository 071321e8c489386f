//! Multi-threaded executors.
//!
//! Four executors implement the core [`Executor`] trait so they can be
//! compared head-to-head (this is the motivation experiment of the paper,
//! Section 2) and driven interchangeably by benchmarks, the sweep engine,
//! and server workloads:
//!
//! * [`PdqExecutor`] (`"pdq"`) — the paper's proposal: one shared queue,
//!   handlers are synchronized *in the queue* before dispatch. Workers never
//!   block inside a handler. Registered a second time as `"sharded-pdq"`,
//!   the same executor over N queue shards (keys are hashed onto shards,
//!   `Sequential` escalates to a global barrier), so submit/dispatch/complete
//!   no longer serialize on one queue mutex.
//! * [`SpinLockExecutor`] (`"spinlock"`) — the conventional alternative: one
//!   shared queue, workers acquire a per-key spin lock *inside* the handler
//!   (Figure 2, right). Conflicting handlers busy-wait on the lock.
//! * [`MultiQueueExecutor`] (`"multiqueue"`) — static partitioning: keys are
//!   hashed onto one queue per worker and each worker only serves its own
//!   queue (the multiple-protocol-queues model the paper argues against;
//!   Michael et al. observed it suffers from load imbalance). Unlike a
//!   sharded PDQ executor, a queue here has exactly one worker, and
//!   `Sequential` gets only a weaker pinned-to-one-worker guarantee.
//!
//! The quoted names are the registry keys of [`build_executor`]; adding
//! another executor means implementing [`Executor`] and listing it there —
//! every consumer that goes through the trait picks it up unchanged.
//!
//! The [`completion`] module provides the notification layer shared by all
//! executors: per-job completion slots (blocking waits and futures),
//! the FIFO submission waiters behind bounded-queue backpressure, and the
//! typed result cells behind [`ExecutorExt::submit_returning`] /
//! [`ExecutorExt::submit_async_returning`] ([`TypedHandle`] /
//! [`TypedFuture`]). [`SubmitBatch`] and
//! [`Executor::try_submit_batch`] amortize the dispatch lock over whole
//! keyed slices instead of paying it per job; the `admission` module holds
//! the overflow FIFO and the routed batch pass the executors share.

mod admission;
pub mod completion;
mod multiqueue;
mod park;
mod pdq;
mod sharded;
mod spinlock;

pub use completion::{
    attach, attach_returning, block_on, thread_waker, CompletionHandle, JobError, JobStatus,
    SubmitFuture, SubmitWaiter, TypedFuture, TypedHandle,
};
pub use multiqueue::{MultiQueueExecutor, MultiQueueStats};
pub use pdq::{PdqBuilder, PdqExecutor, PdqExecutorStats};
pub use spinlock::{SpinLockExecutor, SpinLockStats};

use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::ShutdownError;
use crate::key::SyncKey;
use crate::stats::QueueStats;

/// A unit of work submitted to an executor.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`Executor::try_submit`]. Both variants hand the job
/// back to the caller so it can be retried, rerouted, or dropped.
pub enum TrySubmitError {
    /// The executor's queue is bounded and at capacity right now (or other
    /// submissions are already parked waiting for space).
    WouldBlock(Job),
    /// The executor has been shut down and accepts no further work.
    Shutdown(Job),
}

impl TrySubmitError {
    /// Consumes the error and returns the rejected job.
    pub fn into_job(self) -> Job {
        match self {
            TrySubmitError::WouldBlock(job) | TrySubmitError::Shutdown(job) => job,
        }
    }

    /// Whether the submission failed because the queue is full (as opposed
    /// to the executor having shut down).
    pub fn is_would_block(&self) -> bool {
        matches!(self, TrySubmitError::WouldBlock(_))
    }
}

impl std::fmt::Debug for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::WouldBlock(_) => f.write_str("TrySubmitError::WouldBlock(..)"),
            TrySubmitError::Shutdown(_) => f.write_str("TrySubmitError::Shutdown(..)"),
        }
    }
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::WouldBlock(_) => {
                f.write_str("executor queue is at capacity; job returned to caller")
            }
            TrySubmitError::Shutdown(_) => {
                f.write_str("executor has been shut down; job returned to caller")
            }
        }
    }
}

/// An ordered batch of keyed jobs for amortized submission.
///
/// Submitting fine-grain handlers one at a time pays the executor's dispatch
/// lock (or shard routing) once per job. A `SubmitBatch` lets the caller hand
/// an entire keyed slice to [`Executor::try_submit_batch`], which admits it
/// under one dispatch-lock acquisition (one pass over the queues, for the
/// executors with several) — the per-job submission overhead is amortized over
/// the batch.
///
/// Entries are admitted strictly in push order from the front. Entries that
/// could not be admitted (bounded queue at capacity, or the executor shut
/// down) stay in the batch, in their original relative order, for the caller
/// to retry, re-route, or drop.
#[derive(Default)]
pub struct SubmitBatch {
    entries: VecDeque<(SyncKey, Job)>,
}

impl std::fmt::Debug for SubmitBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitBatch")
            .field("len", &self.entries.len())
            .finish()
    }
}

impl SubmitBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a job with an explicit [`SyncKey`].
    pub fn push(&mut self, key: SyncKey, job: Job) {
        self.entries.push_back((key, job));
    }

    /// Appends a closure with a user key.
    pub fn push_keyed<F>(&mut self, key: u64, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.push(SyncKey::key(key), Box::new(f));
    }

    /// Appends a closure that must run in isolation.
    pub fn push_sequential<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.push(SyncKey::Sequential, Box::new(f));
    }

    /// Appends a closure that needs no synchronization.
    pub fn push_nosync<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.push(SyncKey::NoSync, Box::new(f));
    }

    /// Number of jobs still waiting in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes and returns the oldest entry (used by retry loops that fall
    /// back to single-job submission).
    pub fn pop_front(&mut self) -> Option<(SyncKey, Job)> {
        self.entries.pop_front()
    }

    /// Re-inserts an entry at the front (an executor handing back a refused
    /// job keeps the batch's order intact this way).
    pub fn push_front(&mut self, key: SyncKey, job: Job) {
        self.entries.push_front((key, job));
    }
}

/// Aggregate statistics every [`Executor`] can report.
///
/// Executor-specific fields are zero / `None` where they do not apply (only
/// the PDQ family has a [`QueueStats`], only the spin-lock baseline
/// busy-waits, only the multi-queue baseline counts spurious wakeups); the
/// richer concrete stats types remain available on the concrete executors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs that ran to completion.
    pub executed: u64,
    /// Jobs that panicked (contained; the worker keeps running and the job's
    /// key is released).
    pub panicked: u64,
    /// Jobs currently waiting: queued but not yet dispatched, plus
    /// submissions parked behind a full bounded queue.
    pub queued: usize,
    /// Merged dispatch-queue statistics (PDQ-family executors only).
    pub queue: Option<QueueStats>,
    /// Iterations spent busy-waiting on contended in-handler locks
    /// ([`SpinLockExecutor`] only).
    pub spin_iterations: u64,
    /// Times a worker or idle-waiter woke up and found nothing to do.
    pub spurious_wakeups: u64,
    /// `NoSync` submissions that took the lock-free ring fast path instead of
    /// the dispatch mutex (PDQ-family executors only).
    pub ring_submits: u64,
    /// Ring fast-path jobs executed by a worker of a *different* shard than
    /// the one they were submitted to (`"sharded-pdq"` only).
    pub stolen: u64,
}

impl ExecutorStats {
    /// The stats as a JSON document with a stable field order, so equal
    /// snapshots render byte-identically — the one structured rendering the
    /// examples' report paths embed instead of ad-hoc per-example field
    /// formatting (the metrics endpoint exports the same snapshot as
    /// `pdq_executor_*` / `pdq_queue_*` gauges).
    pub fn to_json_string(&self) -> String {
        let queue = match &self.queue {
            None => "null".to_string(),
            Some(q) => format!(
                "{{\n    \"enqueued\": {},\n    \"rejected_full\": {},\n    \
                 \"dispatched\": {},\n    \"completed\": {},\n    \
                 \"key_conflicts\": {},\n    \"order_holds\": {},\n    \
                 \"empty_dispatches\": {},\n    \"sequential_stalls\": {},\n    \
                 \"sequential_handlers\": {},\n    \"nosync_handlers\": {},\n    \
                 \"max_queue_len\": {},\n    \"max_in_flight\": {}\n  }}",
                q.enqueued,
                q.rejected_full,
                q.dispatched,
                q.completed,
                q.key_conflicts,
                q.order_holds,
                q.empty_dispatches,
                q.sequential_stalls,
                q.sequential_handlers,
                q.nosync_handlers,
                q.max_queue_len,
                q.max_in_flight,
            ),
        };
        format!(
            "{{\n  \"executed\": {},\n  \"panicked\": {},\n  \"queued\": {},\n  \
             \"spin_iterations\": {},\n  \"spurious_wakeups\": {},\n  \
             \"ring_submits\": {},\n  \"stolen\": {},\n  \"queue\": {queue}\n}}\n",
            self.executed,
            self.panicked,
            self.queued,
            self.spin_iterations,
            self.spurious_wakeups,
            self.ring_submits,
            self.stolen,
        )
    }
}

impl std::fmt::Display for ExecutorStats {
    /// One line of `key=value` pairs, with the queue block appended when the
    /// executor has one — the shared human-readable form the examples print
    /// instead of ad-hoc per-example formatting.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "executed={} panicked={} queued={} spin_iterations={} \
             spurious_wakeups={} ring_submits={} stolen={}",
            self.executed,
            self.panicked,
            self.queued,
            self.spin_iterations,
            self.spurious_wakeups,
            self.ring_submits,
            self.stolen,
        )?;
        if let Some(queue) = &self.queue {
            write!(f, " [{queue}]")?;
        }
        Ok(())
    }
}

/// The common interface of every executor: keyed submission with optional
/// backpressure, idle flushing, shutdown, and statistics.
///
/// Jobs with equal user keys are executed in submission order (except the
/// spin-lock baseline, which only guarantees mutual exclusion) and never
/// concurrently with each other. The guarantees for
/// [`SyncKey::Sequential`] and [`SyncKey::NoSync`] match the
/// [`DispatchQueue`](crate::DispatchQueue) semantics where supported; the
/// baseline executors treat `Sequential` as a single global key and `NoSync`
/// as "no lock".
///
/// Bounded executors exert backpressure: [`try_submit`](Self::try_submit)
/// fails fast with [`TrySubmitError::WouldBlock`], [`submit`](Self::submit)
/// parks the calling thread, and [`ExecutorExt::submit_async`] parks the
/// submitting *future*. Parked submissions are admitted strictly in FIFO
/// order. The capacity bound applies to the dispatch queue itself; parked
/// submissions additionally occupy the overflow list, whose size equals the
/// number of submissions the caller has in flight (blocked threads plus
/// not-yet-admitted futures) — an async producer that keeps creating
/// `submit_async` futures without awaiting any of them therefore buffers
/// one parked job per outstanding future.
pub trait Executor: Send + Sync + std::fmt::Debug {
    /// The executor's registry name (see [`build_executor`]).
    fn name(&self) -> &'static str;

    /// Number of worker threads.
    fn workers(&self) -> usize;

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::WouldBlock`] if the queue is bounded and full (the
    /// job is handed back); [`TrySubmitError::Shutdown`] after
    /// [`shutdown`](Self::shutdown).
    ///
    /// A [`PdqExecutor`] with several shards accepts `Sequential`
    /// submissions unconditionally (the barrier stubs use the
    /// parked-admission path), so `WouldBlock` is only returned for
    /// `Key`/`NoSync` jobs there.
    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError>;

    /// Submits a job, transferring ownership immediately and signalling
    /// `waiter` once the job has been admitted into the queue (or aborted by
    /// shutdown). Never blocks the caller: if the queue is full the
    /// submission is parked in the executor's FIFO overflow list and
    /// admitted by a worker when space frees up.
    ///
    /// This is the building block behind [`submit`](Self::submit) and
    /// [`ExecutorExt::submit_async`]; most callers want those instead.
    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>);

    /// Submits as many jobs from the front of `batch` as fit without
    /// blocking, and returns how many were admitted. Admitted entries are
    /// removed from the batch; refused entries stay, in their original
    /// relative order.
    ///
    /// The default implementation is a [`try_submit`](Self::try_submit) loop
    /// that stops at the first refusal. Executors override it to admit the
    /// whole batch under one dispatch-lock acquisition (one pass over the
    /// shards/queues for the partitioned executors), amortizing the per-job
    /// submission cost.
    ///
    /// Partial admission obeys the strict-FIFO overflow rules: within any
    /// internal queue, entries are admitted in batch order and admission for
    /// that queue stops at its first refusal — a later entry can never barge
    /// past an earlier refused one (a key always routes to the same queue, so
    /// per-key FIFO is preserved). Executors with several internal queues may
    /// still admit later entries bound for *other* queues; cross-key order
    /// was never promised.
    ///
    /// Returns `0` without removing anything once the executor has shut
    /// down.
    fn try_submit_batch(&self, batch: &mut SubmitBatch) -> usize {
        let mut admitted = 0;
        while let Some((key, job)) = batch.entries.pop_front() {
            match self.try_submit(key, job) {
                Ok(()) => admitted += 1,
                Err(err) => {
                    batch.entries.push_front((key, err.into_job()));
                    break;
                }
            }
        }
        admitted
    }

    /// The batch form of [`submit_queued`](Self::submit_queued): takes every
    /// entry of `batch` without blocking. Entries that fit are admitted at
    /// once; the rest are parked, in batch order, at the back of the FIFO
    /// overflow list(s). Returns the waiters that must all be decided before
    /// the whole batch counts as admitted (none if everything fit). After
    /// [`shutdown`](Self::shutdown) the entries are dropped and their waiters
    /// come back aborted.
    ///
    /// The default runs one [`try_submit_batch`](Self::try_submit_batch) pass
    /// and parks the remainder entry by entry. The PDQ executors admit and
    /// park under one lock acquisition per queue, with one waiter per queue
    /// on the last entry parked there.
    fn submit_batch_queued(&self, batch: &mut SubmitBatch) -> Vec<Arc<SubmitWaiter>> {
        self.try_submit_batch(batch);
        batch
            .entries
            .drain(..)
            .map(|(key, job)| {
                let waiter = SubmitWaiter::new();
                self.submit_queued(key, job, Arc::clone(&waiter));
                waiter
            })
            .collect()
    }

    /// Blocks until every job submitted so far has finished executing.
    fn flush(&self);

    /// Signals shutdown and joins all worker threads. Jobs already in the
    /// queue are executed first; submissions still parked behind a full
    /// queue are dropped and their waiters aborted. Idempotent.
    fn shutdown(&mut self);

    /// Snapshot of the executor's aggregate statistics.
    fn stats(&self) -> ExecutorStats;

    /// Submits a job, blocking while a bounded queue is at capacity.
    ///
    /// The fast path is a plain [`try_submit`](Self::try_submit) — no
    /// waiter is allocated unless the queue is actually full (FIFO fairness
    /// is preserved: `try_submit` refuses whenever earlier submissions are
    /// already parked, so this path cannot barge past them).
    ///
    /// # Errors
    ///
    /// Returns [`ShutdownError`] if the executor has been (or is being) shut
    /// down before the job could be admitted.
    fn submit(&self, key: SyncKey, job: Job) -> Result<(), ShutdownError> {
        match self.try_submit(key, job) {
            Ok(()) => Ok(()),
            Err(TrySubmitError::Shutdown(_)) => Err(ShutdownError),
            Err(TrySubmitError::WouldBlock(job)) => {
                let waiter = SubmitWaiter::new();
                self.submit_queued(key, job, Arc::clone(&waiter));
                waiter.wait()
            }
        }
    }
}

/// Convenience extension methods for [`Executor`] implementations.
pub trait ExecutorExt: Executor {
    /// Submits a closure with a user key.
    ///
    /// # Panics
    ///
    /// Panics if the executor has been shut down; use
    /// [`Executor::try_submit`] to handle that case gracefully.
    fn submit_keyed<F>(&self, key: u64, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(SyncKey::key(key), Box::new(f))
            .expect("submit on a shut-down executor");
    }

    /// Submits a closure that must run in isolation.
    ///
    /// # Panics
    ///
    /// Panics if the executor has been shut down.
    fn submit_sequential<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(SyncKey::Sequential, Box::new(f))
            .expect("submit on a shut-down executor");
    }

    /// Submits a closure that needs no synchronization.
    ///
    /// # Panics
    ///
    /// Panics if the executor has been shut down.
    fn submit_nosync<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(SyncKey::NoSync, Box::new(f))
            .expect("submit on a shut-down executor");
    }

    /// Submits a closure and returns a [`CompletionHandle`] resolved when it
    /// finishes. Blocks while a bounded queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the executor has been shut down.
    fn submit_handle<F>(&self, key: SyncKey, f: F) -> CompletionHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let (job, handle) = completion::attach(Box::new(f));
        self.submit(key, job)
            .expect("submit on a shut-down executor");
        handle
    }

    /// Submits a closure asynchronously: the returned [`SubmitFuture`] stays
    /// pending while the submission is parked behind a full bounded queue
    /// (backpressure without blocking a thread) and resolves with the job's
    /// [`JobStatus`] once the handler has run.
    ///
    /// The job is handed to the executor immediately; dropping the future
    /// does not cancel it.
    fn submit_async<F>(&self, key: SyncKey, f: F) -> SubmitFuture
    where
        F: FnOnce() + Send + 'static,
    {
        let (job, handle) = completion::attach(Box::new(f));
        SubmitFuture::new(submit_or_park(self, key, job), handle)
    }

    /// Submits a *value-returning* closure and returns a [`TypedHandle`]
    /// that blocks for (or `map`s over) the result. Blocks while a bounded
    /// queue is at capacity.
    ///
    /// Unlike [`submit_handle`](Self::submit_handle) this never panics: if
    /// the executor has shut down, the job is dropped and the handle resolves
    /// `Err(`[`JobError::Aborted`]`)`; a panicking handler resolves
    /// `Err(`[`JobError::Panicked`]`)`.
    fn submit_returning<R, F>(&self, key: SyncKey, f: F) -> TypedHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (job, handle) = completion::attach_returning(f);
        // On shutdown the job is dropped inside `submit`, resolving the slot
        // as Aborted — the failure surfaces through the typed result.
        let _ = self.submit(key, job);
        handle
    }

    /// Submits a *value-returning* closure asynchronously: the returned
    /// [`TypedFuture`] stays pending while the submission is parked behind a
    /// full bounded queue and resolves with the job's result — the async
    /// request/response primitive behind `ProtocolService`-style frontends.
    ///
    /// The job is handed to the executor immediately; dropping the future
    /// does not cancel it (the result is discarded).
    fn submit_async_returning<R, F>(&self, key: SyncKey, f: F) -> TypedFuture<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (job, handle) = completion::attach_returning(f);
        TypedFuture::new(submit_or_park(self, key, job), handle)
    }

    /// Submits every job in `batch`, blocking while a bounded queue is at
    /// capacity, and returns how many jobs were admitted.
    ///
    /// The whole batch passes to the executor up front
    /// ([`Executor::submit_batch_queued`]): what does not fit is parked
    /// behind the capacity bound in batch order — later submissions cannot
    /// overtake it — and the caller sleeps until the last parked entry is
    /// admitted, once per batch instead of once per job.
    ///
    /// # Errors
    ///
    /// [`ShutdownError`] if the executor shuts down before the whole batch is
    /// admitted; entries still parked then are dropped unexecuted (their
    /// completion slots resolve [`JobStatus::Aborted`]), as for a parked
    /// [`submit`](Executor::submit).
    fn submit_batch(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
        let total = batch.len();
        // Last first: within a queue it is decided last, so one sleep
        // usually covers every waiter before it.
        for waiter in self.submit_batch_queued(batch).iter().rev() {
            waiter.wait()?;
        }
        Ok(total)
    }

    /// Blocks until every job submitted so far has finished executing.
    /// Alias for [`Executor::flush`], kept for readability at call sites
    /// that predate the trait.
    fn wait_idle(&self) {
        self.flush();
    }
}

impl<E: Executor + ?Sized> ExecutorExt for E {}

/// The async form of [`Executor::submit`]: returns the waiter to await, if
/// `job` was not admitted on the spot (aborted at once after shutdown).
fn submit_or_park<E: Executor + ?Sized>(
    executor: &E,
    key: SyncKey,
    job: Job,
) -> Option<Arc<SubmitWaiter>> {
    let refused = executor.try_submit(key, job).err()?;
    let waiter = SubmitWaiter::new();
    match refused {
        TrySubmitError::WouldBlock(job) => executor.submit_queued(key, job, Arc::clone(&waiter)),
        TrySubmitError::Shutdown(_) => waiter.abort(),
    }
    Some(waiter)
}

/// Registry names of the built-in executors, in the order benchmarks report
/// them. [`build_executor`] accepts exactly these names; a new executor is
/// added by implementing [`Executor`] and extending this list plus the
/// `match` in [`build_executor`].
pub const EXECUTOR_NAMES: [&str; 4] = ["pdq", "sharded-pdq", "spinlock", "multiqueue"];

/// Construction parameters for [`build_executor`], with each executor using
/// the subset that applies to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorSpec {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Queue shard count of `"sharded-pdq"`; `None` means `max(1, workers /
    /// 4)`, enough shards to spread the queue locks while leaving each shard
    /// several workers. `"pdq"` is always one shard.
    pub shards: Option<usize>,
    /// Bound on waiting submissions (per queue/shard where the executor has
    /// several); `None` means unbounded.
    pub capacity: Option<usize>,
    /// Associative search window of the dispatch queue (PDQ family only).
    pub search_window: Option<usize>,
    /// Whether `NoSync` jobs may use the lock-free ring fast path (PDQ
    /// family only). `None` means enabled.
    pub ring: Option<bool>,
}

impl ExecutorSpec {
    /// A spec with `workers` threads, no capacity bound, and executor
    /// defaults everywhere else.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            shards: None,
            capacity: None,
            search_window: None,
            ring: None,
        }
    }

    /// Sets the shard count (used by `"sharded-pdq"`).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Bounds the number of waiting submissions.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the dispatch-queue search window (PDQ family).
    #[must_use]
    pub fn search_window(mut self, window: usize) -> Self {
        self.search_window = Some(window);
        self
    }

    /// Turns the `NoSync` ring fast path on or off (PDQ family).
    #[must_use]
    pub fn ring(mut self, enabled: bool) -> Self {
        self.ring = Some(enabled);
        self
    }
}

/// Builds one of the built-in executors by registry name (see
/// [`EXECUTOR_NAMES`]). Returns `None` for an unknown name.
///
/// This is the single construction point consumed by the benchmarks, the
/// sweep engine, and the `protocol_server` workload, so a new executor
/// becomes available everywhere by registering it here.
pub fn build_executor(name: &str, spec: &ExecutorSpec) -> Option<Box<dyn Executor>> {
    Some(match name {
        "pdq" | "sharded-pdq" => {
            let mut b = PdqBuilder::new()
                .workers(spec.workers)
                .ring(spec.ring.unwrap_or(true));
            if name == "sharded-pdq" {
                b = b.shards(spec.shards.unwrap_or((spec.workers / 4).max(1)));
                b.name = "sharded-pdq";
            }
            if let Some(w) = spec.search_window {
                b = b.search_window(w);
            }
            if let Some(c) = spec.capacity {
                b = b.capacity(c);
            }
            Box::new(b.build())
        }
        "spinlock" => Box::new(SpinLockExecutor::with_capacity(spec.workers, spec.capacity)),
        "multiqueue" => Box::new(MultiQueueExecutor::with_capacity(
            spec.workers,
            spec.capacity,
        )),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn factory_builds_every_registered_executor() {
        for name in EXECUTOR_NAMES {
            let mut pool = build_executor(name, &ExecutorSpec::new(2).capacity(8))
                .unwrap_or_else(|| panic!("registry name {name} did not build"));
            assert_eq!(pool.name(), name);
            assert_eq!(pool.workers(), 2);
            let counter = Arc::new(AtomicU64::new(0));
            for i in 0..100u64 {
                let counter = Arc::clone(&counter);
                pool.submit_keyed(i % 5, move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.flush();
            assert_eq!(counter.load(Ordering::Relaxed), 100, "{name} lost jobs");
            assert_eq!(pool.stats().executed, 100, "{name} stats disagree");
            pool.shutdown();
        }
    }

    #[test]
    fn factory_rejects_unknown_names() {
        assert!(build_executor("bogus", &ExecutorSpec::new(1)).is_none());
    }

    #[test]
    fn spec_ring_toggle_reaches_the_pdq_executors() {
        for name in ["pdq", "sharded-pdq"] {
            for ring in [false, true] {
                let pool = build_executor(name, &ExecutorSpec::new(2).ring(ring)).expect("builds");
                let counter = Arc::new(AtomicU64::new(0));
                for _ in 0..50u64 {
                    let counter = Arc::clone(&counter);
                    pool.submit_nosync(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
                pool.flush();
                assert_eq!(counter.load(Ordering::Relaxed), 50, "{name}");
                let stats = pool.stats();
                assert_eq!(stats.executed, 50, "{name}");
                if ring {
                    assert!(stats.ring_submits > 0, "{name}: ring on but unused");
                } else {
                    assert_eq!(stats.ring_submits, 0, "{name}: ring off but used");
                }
            }
        }
    }

    #[test]
    fn try_submit_error_hands_the_job_back() {
        let err = TrySubmitError::WouldBlock(Box::new(|| {}));
        assert!(err.is_would_block());
        assert!(format!("{err:?}").contains("WouldBlock"));
        assert!(err.to_string().contains("capacity"));
        let _job = err.into_job();
        let err = TrySubmitError::Shutdown(Box::new(|| {}));
        assert!(!err.is_would_block());
        assert!(err.to_string().contains("shut down"));
    }

    #[test]
    fn submit_async_resolves_on_every_executor() {
        for name in EXECUTOR_NAMES {
            let pool = build_executor(name, &ExecutorSpec::new(2)).unwrap();
            let counter = Arc::new(AtomicU64::new(0));
            let futures: Vec<_> = (0..20u64)
                .map(|i| {
                    let counter = Arc::clone(&counter);
                    pool.submit_async(SyncKey::key(i % 3), move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for fut in futures {
                assert_eq!(block_on(fut), Ok(JobStatus::Done), "{name}");
            }
            assert_eq!(counter.load(Ordering::Relaxed), 20, "{name}");
        }
    }
}
