//! The sharded PDQ executor: N independent dispatch-queue shards.
//!
//! [`PdqExecutor`](super::PdqExecutor) funnels every submit, dispatch, and
//! completion through a single queue mutex, which becomes the bottleneck as
//! workers are added. [`ShardedPdqExecutor`] splits the queue into `N`
//! independent shards — each a full [`DispatchQueue`](crate::DispatchQueue)
//! with its own lock, condvars, and dedicated workers — and routes user keys
//! onto shards by hash. Because a key always lands on the same shard, the
//! per-key guarantees (FIFO submission order, mutual exclusion) are exactly
//! those of the single-queue executor; only cross-key dispatch order is
//! relaxed, which the PDQ abstraction never promised in the first place.
//!
//! [`SyncKey::Sequential`] jobs cannot be handled inside one shard: they must
//! run in isolation from *every* in-flight handler. They escalate to a global
//! barrier instead: a `Sequential` stub is enqueued on every shard, so each
//! shard's own sequential semantics drain that shard and block its younger
//! entries; when all shards have reached their stub, the designated leader
//! stub runs the job alone, then releases everyone. This preserves the exact
//! barrier semantics of the paper (everything submitted before the
//! `Sequential` job completes first; nothing submitted after it starts until
//! it finishes) at the cost of parking one worker per shard for the duration
//! — an acceptable price for what the paper describes as a rare operation
//! (e.g. page allocation).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::config::QueueConfig;
use crate::key::SyncKey;
use crate::stats::QueueStats;

use super::completion::SubmitWaiter;
use super::park::PARK_BACKSTOP;
use super::pdq::{spawn_workers, Shared, StealContext};
use super::{resolve_ring, Executor, ExecutorStats, Job, SubmitBatch, TrySubmitError};

/// Fibonacci multiplier used to spread user keys across shards (the same
/// constant the other executors use for lock/queue routing).
const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Statistics of a [`ShardedPdqExecutor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedPdqStats {
    /// Statistics of all shard queues merged (counters summed, high-water
    /// marks maxed).
    pub queue: QueueStats,
    /// Per-shard queue statistics, indexed by shard; the spread of
    /// `dispatched` across shards shows how evenly the key hash balanced the
    /// load.
    pub per_shard: Vec<QueueStats>,
    /// Jobs that ran to completion. A `Sequential` submission contributes one
    /// barrier stub per shard (the stub on shard 0 runs the actual job).
    pub executed: u64,
    /// Jobs that panicked. The panic is contained; the worker keeps running
    /// and the job's key (or the sequential barrier) is released.
    pub panicked: u64,
    /// `NoSync` submissions that took a shard's lock-free ring fast path.
    pub ring_submits: u64,
    /// Ring jobs executed by a worker of a different shard than the one they
    /// were submitted to (work stealing; counters still credit the home
    /// shard, this only counts the migrations).
    pub stolen: u64,
    /// Worker wakeups that found nothing to run.
    pub spurious_wakeups: u64,
}

/// Builder for [`ShardedPdqExecutor`].
///
/// # Examples
///
/// ```
/// use pdq_core::executor::{Executor, ExecutorExt, ShardedPdqBuilder};
///
/// let pool = ShardedPdqBuilder::new().workers(8).shards(4).build();
/// assert_eq!(pool.shards(), 4);
/// pool.submit_keyed(0x100, || { /* handler */ });
/// pool.flush();
/// ```
#[derive(Debug, Clone)]
pub struct ShardedPdqBuilder {
    workers: usize,
    shards: Option<usize>,
    config: QueueConfig,
    ring: Option<bool>,
}

impl ShardedPdqBuilder {
    /// Creates a builder with one worker per available CPU (at least one),
    /// a shard count derived from the worker count, and the default queue
    /// configuration.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            workers,
            shards: None,
            config: QueueConfig::default(),
            ring: None,
        }
    }

    /// Sets the total number of worker threads, distributed round-robin over
    /// the shards. Clamped to at least one; every shard always gets at least
    /// one dedicated worker, so the spawned total may exceed this value when
    /// `workers < shards`.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the number of queue shards. Clamped to at least one. Defaults to
    /// `max(1, workers / 4)`: enough shards to spread the queue locks, while
    /// leaving each shard several workers so distinct keys hashed onto the
    /// same shard still run in parallel.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Sets the associative search window of every shard queue.
    #[must_use]
    pub fn search_window(mut self, window: usize) -> Self {
        self.config = self.config.search_window(window);
        self
    }

    /// Bounds the number of waiting entries *per shard*; `submit` blocks when
    /// the target shard is at its bound.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.config = self.config.capacity(capacity);
        self
    }

    /// Forces the lock-free `NoSync` ring fast path on or off for every
    /// shard. Unset, the `PDQ_RING` environment variable decides (strictly
    /// `0` or `1`), defaulting to **on**. Work stealing only operates on the
    /// rings, so disabling them also disables stealing.
    #[must_use]
    pub fn ring(mut self, enabled: bool) -> Self {
        self.ring = Some(enabled);
        self
    }

    /// Builds the executor and spawns its worker threads.
    pub fn build(&self) -> ShardedPdqExecutor {
        ShardedPdqExecutor::with_builder(self)
    }
}

impl Default for ShardedPdqBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Coordination state for one escalated `Sequential` job: every shard parks a
/// stub here; the leader runs the job once all shards have arrived.
struct SeqBarrier {
    state: Mutex<SeqBarrierState>,
    cv: Condvar,
    shards: usize,
}

struct SeqBarrierState {
    arrived: usize,
    done: bool,
    /// Set when a stub was dropped unexecuted (shutdown tore the broadcast
    /// apart): the barrier can no longer guarantee global isolation, so the
    /// leader must not run the job.
    aborted: bool,
}

impl SeqBarrier {
    fn new(shards: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SeqBarrierState {
                arrived: 0,
                done: false,
                aborted: false,
            }),
            cv: Condvar::new(),
            shards,
        })
    }

    /// Follower stub: signal arrival (this shard is drained and blocked),
    /// then hold the shard's sequential barrier until the leader finishes.
    fn follow(&self) {
        let mut st = self.state.lock();
        st.arrived += 1;
        self.cv.notify_all();
        while !st.done {
            self.cv.wait_for(&mut st, PARK_BACKSTOP);
        }
    }

    /// Leader stub: wait for every shard to drain, run the job in global
    /// isolation, then release the followers. A panicking job still releases
    /// the barrier before the panic is rethrown to the worker's catch.
    ///
    /// If the barrier was aborted (a stub was dropped at shutdown before
    /// running), global isolation is unattainable, so the job is dropped
    /// unexecuted — resolving any attached completion slot as `Aborted` —
    /// rather than run concurrently with other shards' handlers.
    fn lead(&self, job: Job) {
        let mut st = self.state.lock();
        st.arrived += 1;
        while st.arrived < self.shards && !st.done {
            self.cv.wait_for(&mut st, PARK_BACKSTOP);
        }
        if st.aborted {
            drop(st);
            drop(job);
            return;
        }
        drop(st);
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let mut st = self.state.lock();
        st.done = true;
        self.cv.notify_all();
        drop(st);
        if let Err(panic) = outcome {
            resume_unwind(panic);
        }
    }

    /// Releases any parked stubs without running the job (a stub was dropped
    /// unexecuted because the executor shut down mid-barrier).
    fn abort(&self) {
        let mut st = self.state.lock();
        st.done = true;
        st.aborted = true;
        self.cv.notify_all();
    }
}

/// Drop guard carried by every barrier stub job: if the stub closure is
/// dropped without running (the executor shut down and discarded a parked
/// submission), the barrier is aborted so stubs already parked on other
/// shards are released instead of waiting forever.
struct StubGuard {
    barrier: Arc<SeqBarrier>,
    ran: AtomicBool,
}

impl StubGuard {
    fn new(barrier: Arc<SeqBarrier>) -> Self {
        Self {
            barrier,
            ran: AtomicBool::new(false),
        }
    }

    fn disarm(&self) {
        self.ran.store(true, Ordering::Relaxed);
    }
}

impl Drop for StubGuard {
    fn drop(&mut self) {
        if !self.ran.load(Ordering::Relaxed) {
            self.barrier.abort();
        }
    }
}

/// A PDQ thread pool over `N` independent queue shards.
///
/// Provides the same programming abstraction as
/// [`PdqExecutor`](super::PdqExecutor) — same-key jobs never run concurrently
/// and run in submission order, [`SyncKey::Sequential`] jobs run in global
/// isolation, [`SyncKey::NoSync`] jobs run unsynchronized — but submit,
/// dispatch, and completion for different keys no longer serialize on a
/// single mutex, so throughput keeps scaling when many workers hammer the
/// queue.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use pdq_core::executor::{Executor, ExecutorExt, ShardedPdqBuilder};
///
/// let pool = ShardedPdqBuilder::new().workers(4).shards(2).build();
/// let words: Vec<Arc<AtomicU64>> = (0..16).map(|_| Arc::new(AtomicU64::new(0))).collect();
/// for i in 0..1600u64 {
///     let word = Arc::clone(&words[(i % 16) as usize]);
///     // The word index is the key: same-word jobs are serialized by the
///     // owning shard, so the plain read-modify-write below is safe.
///     pool.submit_keyed(i % 16, move || {
///         let v = word.load(Ordering::Relaxed);
///         word.store(v + 1, Ordering::Relaxed);
///     });
/// }
/// pool.flush();
/// assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 100));
/// ```
pub struct ShardedPdqExecutor {
    shards: Vec<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
    /// Round-robin cursor for spraying `NoSync` jobs across shards.
    round_robin: AtomicUsize,
    /// Serializes barrier broadcasts so every shard sees the stubs of
    /// concurrent `Sequential` submissions in the same order. Two broadcasts
    /// interleaving in opposite orders on different shards would form a
    /// circular wait: each barrier's in-flight stub on one shard blocking
    /// the other barrier's stub that its leader needs.
    barrier_broadcast: Mutex<()>,
}

impl std::fmt::Debug for ShardedPdqExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPdqExecutor")
            .field("shards", &self.shards.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ShardedPdqExecutor {
    /// Creates an executor with `workers` threads over the default shard
    /// count and queue configuration.
    pub fn new(workers: usize) -> Self {
        ShardedPdqBuilder::new().workers(workers).build()
    }

    fn with_builder(builder: &ShardedPdqBuilder) -> Self {
        let shard_count = builder
            .shards
            .unwrap_or_else(|| (builder.workers / 4).max(1));
        let ring = resolve_ring(builder.ring);
        let shards: Vec<Arc<Shared>> = (0..shard_count)
            .map(|_| Arc::new(Shared::new(builder.config, ring)))
            .collect();
        // Workers are spawned only after every shard exists so each can carry
        // a view of all its siblings for work stealing. Stealing needs the
        // rings; with them disabled (or a single shard) there is nothing to
        // scan, so workers skip the steal pass entirely.
        let steal_view = (ring && shard_count > 1).then(|| Arc::new(shards.clone()));
        let base = builder.workers / shard_count;
        let extra = builder.workers % shard_count;
        let mut workers = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let count = (base + usize::from(i < extra)).max(1);
            let steal = steal_view.as_ref().map(|view| StealContext {
                shards: Arc::clone(view),
                home: i,
            });
            workers.extend(spawn_workers(shard, count, &format!("pdq-shard{i}"), steal));
        }
        Self {
            shards,
            workers,
            round_robin: AtomicUsize::new(0),
            barrier_broadcast: Mutex::new(()),
        }
    }

    /// Number of queue shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_SEED) >> 32) as usize % self.shards.len()
    }

    /// The shard a keyed or `NoSync` job is queued on (`None` for
    /// `Sequential`, which goes to every shard).
    fn route(&self, key: SyncKey) -> Option<usize> {
        match key {
            SyncKey::Key(k) => Some(self.shard_index(k)),
            SyncKey::NoSync => {
                Some(self.round_robin.fetch_add(1, Ordering::Relaxed) % self.shards.len())
            }
            SyncKey::Sequential => None,
        }
    }

    /// Escalates a `Sequential` job to a global barrier: followers first,
    /// leader (carrying the job) last. The whole broadcast holds
    /// `barrier_broadcast` so concurrent `Sequential` submissions enqueue
    /// their stubs in the same order on every shard (see the field docs for
    /// the deadlock this prevents). Stubs ride the shards' parked-admission
    /// path when a shard is full, so the broadcast itself never blocks;
    /// `waiter` is tied to the leader stub, the one that carries the job.
    fn broadcast_sequential_barrier(&self, job: Job, waiter: Arc<SubmitWaiter>) {
        if self.shards.len() == 1 {
            self.shards[0].submit_queued(SyncKey::Sequential, job, waiter);
            return;
        }
        let _broadcast = self.barrier_broadcast.lock();
        let barrier = SeqBarrier::new(self.shards.len());
        for shard in &self.shards[1..] {
            let guard = StubGuard::new(Arc::clone(&barrier));
            let stub: Job = Box::new(move || {
                guard.disarm();
                guard.barrier.follow();
            });
            // Followers get detached waiters: backpressure is reported
            // through the leader stub only.
            shard.submit_queued(SyncKey::Sequential, stub, SubmitWaiter::new());
        }
        let guard = StubGuard::new(Arc::clone(&barrier));
        let stub: Job = Box::new(move || {
            guard.disarm();
            guard.barrier.lead(job);
        });
        self.shards[0].submit_queued(SyncKey::Sequential, stub, waiter);
    }

    /// The pass behind [`Executor::try_submit_batch`] (see there for the
    /// admission rules) and, with `park`, behind
    /// [`Executor::submit_batch_queued`]: then nothing is ever refused — what
    /// a shard cannot take moves to its overflow FIFO (see
    /// `Shared::enqueue_batch`) — and the waiters to sleep on are returned
    /// next to the number admitted on the spot.
    fn admit_batch(&self, batch: &mut SubmitBatch, park: bool) -> (usize, Vec<Arc<SubmitWaiter>>) {
        /// One shard's share of the batch, with the batch position of each
        /// gathered entry so refused ones can be handed back in order.
        #[derive(Default)]
        struct Slice {
            entries: VecDeque<(SyncKey, Job)>,
            positions: Vec<usize>,
            refused: bool,
        }
        let mut slices: Vec<Slice> = self.shards.iter().map(|_| Slice::default()).collect();
        let mut remaining: Vec<(usize, SyncKey, Job)> = Vec::new();
        let mut waiters = Vec::new();
        let mut admitted = 0usize;
        let flush = |slices: &mut [Slice],
                     remaining: &mut Vec<(usize, SyncKey, Job)>,
                     waiters: &mut Vec<Arc<SubmitWaiter>>| {
            let mut flushed = 0usize;
            for (shard, slice) in self.shards.iter().zip(slices) {
                let (count, waiter) = shard.enqueue_batch(&mut slice.entries, park);
                flushed += count;
                waiters.extend(waiter);
                slice.refused |= !slice.entries.is_empty();
                let positions = std::mem::take(&mut slice.positions);
                remaining.extend(
                    positions[count..]
                        .iter()
                        .zip(slice.entries.drain(..))
                        .map(|(&idx, (key, job))| (idx, key, job)),
                );
            }
            flushed
        };
        // Collected up front (not a live `drain` iterator) so bailing out at
        // a barrier can hand the tail back instead of dropping it.
        let entries: Vec<(SyncKey, Job)> = batch.entries.drain(..).collect();
        let mut entries = entries.into_iter().enumerate();
        for (idx, (key, job)) in entries.by_ref() {
            let Some(shard) = self.route(key) else {
                admitted += flush(&mut slices, &mut remaining, &mut waiters);
                if !remaining.is_empty() {
                    // An earlier entry was refused: broadcasting now would
                    // run the barrier ahead of it. Hand the barrier and the
                    // whole tail back instead.
                    remaining.push((idx, key, job));
                    remaining.extend(entries.map(|(i, (k, j))| (i, k, j)));
                    break;
                }
                let waiter = SubmitWaiter::new();
                self.broadcast_sequential_barrier(job, Arc::clone(&waiter));
                waiters.push(waiter);
                admitted += 1;
                continue;
            };
            let slice = &mut slices[shard];
            if slice.refused {
                remaining.push((idx, key, job));
            } else {
                slice.entries.push_back((key, job));
                slice.positions.push(idx);
            }
        }
        admitted += flush(&mut slices, &mut remaining, &mut waiters);
        remaining.sort_by_key(|&(idx, _, _)| idx);
        batch
            .entries
            .extend(remaining.into_iter().map(|(_, key, job)| (key, job)));
        (admitted, waiters)
    }

    /// Returns a snapshot of the executor's detailed statistics, merged
    /// across shards.
    pub fn sharded_stats(&self) -> ShardedPdqStats {
        let mut stats = ShardedPdqStats::default();
        for shard in &self.shards {
            let snap = shard.snapshot();
            stats.queue.merge(&snap.queue);
            stats.per_shard.push(snap.queue);
            stats.executed += snap.executed;
            stats.panicked += snap.panicked;
            stats.ring_submits += snap.ring_submits;
            stats.stolen += snap.stolen;
            stats.spurious_wakeups += snap.spurious_wakeups;
        }
        stats
    }

    /// Total number of jobs currently waiting across all shards (including
    /// parked submissions).
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queued()).sum()
    }
}

impl Executor for ShardedPdqExecutor {
    fn name(&self) -> &'static str {
        "sharded-pdq"
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Non-blocking submit. `Sequential` submissions are always accepted:
    /// their barrier stubs use the parked-admission path on full shards, so
    /// only `Key`/`NoSync` jobs can observe
    /// [`TrySubmitError::WouldBlock`].
    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError> {
        if let Some(shard) = self.route(key) {
            return self.shards[shard].try_submit(key, job);
        }
        // `shutdown` takes `&mut self`, so this check cannot race a
        // concurrent shutdown: after it, every shard accepts the broadcast
        // stubs.
        if self.shards[0].is_shutdown() {
            return Err(TrySubmitError::Shutdown(job));
        }
        self.broadcast_sequential_barrier(job, SubmitWaiter::new());
        Ok(())
    }

    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        match self.route(key) {
            Some(shard) => self.shards[shard].submit_queued(key, job, waiter),
            None => self.broadcast_sequential_barrier(job, waiter),
        }
    }

    /// Admits the batch in **one pass over the shards**: entries are routed
    /// to their shards in batch order and each shard's slice is enqueued
    /// under a single lock acquisition. A shard that refuses an entry is fed
    /// nothing further from this batch (so a later same-key entry can never
    /// barge past an earlier refused one); other shards keep admitting. A
    /// `Sequential` entry first flushes the slices gathered so far — earlier
    /// batch entries must land ahead of its barrier stubs on every shard.
    /// If any earlier entry was refused, the barrier is **not** broadcast
    /// (it would order itself ahead of that refused entry, inverting the
    /// submission order); the `Sequential` entry and everything after it go
    /// back into the batch instead.
    fn try_submit_batch(&self, batch: &mut SubmitBatch) -> usize {
        // `shutdown` takes `&mut self`, so this check cannot race a
        // concurrent shutdown (same argument as `try_submit`).
        if self.shards[0].is_shutdown() {
            return 0;
        }
        self.admit_batch(batch, false).0
    }

    /// The same pass, but what a shard cannot take is parked behind that
    /// shard's capacity bound under the same lock acquisition, with one
    /// waiter per shard that had to park (and one per `Sequential` entry).
    fn submit_batch_queued(&self, batch: &mut SubmitBatch) -> Vec<Arc<SubmitWaiter>> {
        self.admit_batch(batch, true).1
    }

    fn flush(&self) {
        // Mutex-path jobs never migrate between shards, and a *stolen* ring
        // job still counts against its home shard's outstanding-work counter
        // until it finishes (the thief runs it against the victim's
        // accounting). Once a shard reports idle, everything submitted to it
        // before this call has therefore finished — wherever it ran — and one
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
        let snap = self.sharded_stats();
        ExecutorStats {
            executed: snap.executed,
            panicked: snap.panicked,
            queued: self.queued(),
            queue: Some(snap.queue),
            ring_submits: snap.ring_submits,
            stolen: snap.stolen,
            spurious_wakeups: snap.spurious_wakeups,
            ..ExecutorStats::default()
        }
    }
}

impl Drop for ShardedPdqExecutor {
    fn drop(&mut self) {
        self.shutdown();
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
    fn executes_all_jobs_across_shards() {
        let pool = ShardedPdqBuilder::new().workers(8).shards(4).build();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..1000u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 97, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let stats = pool.sharded_stats();
        assert_eq!(stats.executed, 1000);
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(
            stats.per_shard.iter().map(|s| s.dispatched).sum::<u64>(),
            1000
        );
        assert_eq!(pool.stats().executed, 1000);
    }

    #[test]
    fn same_key_jobs_run_in_submission_order_without_locks() {
        let pool = ShardedPdqBuilder::new().workers(8).shards(4).build();
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
        let pool = ShardedPdqBuilder::new().workers(4).shards(2).build();
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
    fn sequential_jobs_run_in_global_isolation() {
        let pool = ShardedPdqBuilder::new().workers(8).shards(4).build();
        let running = Arc::new(AtomicUsize::new(0));
        let violation = Arc::new(AtomicBool::new(false));
        for i in 0..200u64 {
            let running = Arc::clone(&running);
            if i % 20 == 0 {
                let violation = Arc::clone(&violation);
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
            "sequential handler overlapped another handler"
        );
        // One real sequential handler plus one stub per shard each time.
        assert_eq!(pool.sharded_stats().queue.sequential_handlers, 10 * 4);
    }

    #[test]
    fn sequential_is_a_barrier_between_older_and_younger_jobs() {
        let pool = ShardedPdqBuilder::new().workers(8).shards(4).build();
        let before_done = Arc::new(AtomicU64::new(0));
        let barrier_saw = Arc::new(AtomicU64::new(0));
        let after_ran_early = Arc::new(AtomicBool::new(false));
        let barrier_finished = Arc::new(AtomicBool::new(false));
        for i in 0..100u64 {
            let before_done = Arc::clone(&before_done);
            pool.submit_keyed(i, move || {
                std::thread::sleep(Duration::from_micros(20));
                before_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let before_done = Arc::clone(&before_done);
            let barrier_saw = Arc::clone(&barrier_saw);
            let barrier_finished = Arc::clone(&barrier_finished);
            pool.submit_sequential(move || {
                barrier_saw.store(before_done.load(Ordering::SeqCst), Ordering::SeqCst);
                barrier_finished.store(true, Ordering::SeqCst);
            });
        }
        for i in 0..100u64 {
            let after_ran_early = Arc::clone(&after_ran_early);
            let barrier_finished = Arc::clone(&barrier_finished);
            pool.submit_keyed(i, move || {
                if !barrier_finished.load(Ordering::SeqCst) {
                    after_ran_early.store(true, Ordering::SeqCst);
                }
            });
        }
        pool.flush();
        assert_eq!(
            barrier_saw.load(Ordering::SeqCst),
            100,
            "sequential job ran before all older jobs completed"
        );
        assert!(
            !after_ran_early.load(Ordering::SeqCst),
            "a younger job overtook the sequential barrier"
        );
    }

    #[test]
    fn concurrent_sequential_submitters_do_not_deadlock() {
        // Regression test: without the serialized barrier broadcast, two
        // threads submitting Sequential jobs concurrently could enqueue
        // their stubs in opposite orders on different shards and form a
        // circular wait.
        let pool = Arc::new(ShardedPdqBuilder::new().workers(4).shards(4).build());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let counter = Arc::clone(&counter);
                        if i % 5 == 0 {
                            pool.submit_sequential(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        } else {
                            pool.submit_keyed(t * 100 + i, move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panicking_sequential_job_releases_the_barrier() {
        let pool = ShardedPdqBuilder::new().workers(4).shards(4).build();
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.submit_sequential(|| panic!("sequential failure"));
        let flag = Arc::clone(&ran_after);
        pool.submit_keyed(1, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(pool.sharded_stats().panicked, 1);
    }

    #[test]
    fn panicking_job_releases_its_key() {
        let pool = ShardedPdqBuilder::new().workers(4).shards(2).build();
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.submit_keyed(9, || panic!("handler failure"));
        let flag = Arc::clone(&ran_after);
        pool.submit_keyed(9, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(pool.sharded_stats().panicked, 1);
    }

    #[test]
    fn every_shard_gets_at_least_one_worker() {
        let pool = ShardedPdqBuilder::new().workers(2).shards(6).build();
        assert_eq!(pool.shards(), 6);
        assert_eq!(pool.workers(), 6);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..600u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn single_shard_degenerates_to_plain_pdq() {
        let pool = ShardedPdqBuilder::new().workers(2).shards(1).build();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit_sequential(move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(pool.sharded_stats().queue.sequential_handlers, 1);
    }

    #[test]
    fn nosync_jobs_spread_round_robin() {
        let pool = ShardedPdqBuilder::new().workers(4).shards(4).build();
        for _ in 0..400 {
            pool.submit_nosync(|| {});
        }
        pool.flush();
        let stats = pool.sharded_stats();
        assert_eq!(stats.queue.nosync_handlers, 400);
        for shard in &stats.per_shard {
            assert_eq!(shard.nosync_handlers, 100);
        }
    }

    #[test]
    fn idle_workers_steal_ring_jobs_from_busy_shards() {
        // Four shards, one worker each. Gate the workers of shards 1..=3
        // inside keyed jobs, then submit NoSync work: the jobs round-robined
        // onto the gated shards' rings can only run if shard 0's idle worker
        // steals them.
        let pool = ShardedPdqBuilder::new().workers(4).shards(4).build();
        let key_for = |shard: usize| (0u64..).find(|&k| pool.shard_index(k) == shard).unwrap();
        let release = Arc::new(AtomicBool::new(false));
        let gates_running = Arc::new(AtomicUsize::new(0));
        for shard in 1..4 {
            let release = Arc::clone(&release);
            let gates_running = Arc::clone(&gates_running);
            pool.submit_keyed(key_for(shard), move || {
                gates_running.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        }
        while gates_running.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..200u64 {
            let counter = Arc::clone(&counter);
            pool.submit_nosync(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        // All 200 must complete while three of the four workers stay gated.
        while counter.load(Ordering::Relaxed) < 200 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        pool.flush();
        let stats = pool.sharded_stats();
        // Round-robin put 150 jobs on the gated shards; every one of them
        // was necessarily stolen (their own workers never left the gate).
        assert_eq!(stats.stolen, 150);
        assert_eq!(stats.executed, 203);
        // Stolen jobs still credit their home shard's counters.
        for shard in &stats.per_shard {
            assert_eq!(shard.nosync_handlers, 50);
        }
    }

    #[test]
    fn sequential_barrier_excludes_ring_jobs_across_shards() {
        let pool = ShardedPdqBuilder::new().workers(4).shards(2).build();
        let running = Arc::new(AtomicUsize::new(0));
        let violation = Arc::new(AtomicBool::new(false));
        for i in 0..300u64 {
            let running = Arc::clone(&running);
            let violation = Arc::clone(&violation);
            if i % 50 == 0 {
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
            "a ring fast-path job overlapped a global sequential barrier"
        );
        assert_eq!(pool.sharded_stats().queue.nosync_handlers, 294);
    }

    #[test]
    fn try_submit_after_shutdown_fails() {
        let mut pool = ShardedPdqBuilder::new().workers(2).shards(2).build();
        pool.submit_nosync(|| {});
        pool.shutdown();
        assert!(pool.try_submit(SyncKey::NoSync, Box::new(|| {})).is_err());
        assert!(pool
            .try_submit(SyncKey::Sequential, Box::new(|| {}))
            .is_err());
        assert!(pool.submit(SyncKey::Sequential, Box::new(|| {})).is_err());
    }

    #[test]
    fn shutdown_drains_submitted_work_including_barriers() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = ShardedPdqBuilder::new().workers(4).shards(2).build();
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 7, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        let counter2 = Arc::clone(&counter);
        pool.submit_sequential(move || {
            counter2.fetch_add(1, Ordering::Relaxed);
        });
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 101);
    }

    #[test]
    fn batch_submission_spreads_over_shards_and_respects_barriers() {
        let pool = ShardedPdqBuilder::new().workers(4).shards(4).build();
        let before_done = Arc::new(AtomicU64::new(0));
        let barrier_saw = Arc::new(AtomicU64::new(0));
        let barrier_finished = Arc::new(AtomicBool::new(false));
        let after_ran_early = Arc::new(AtomicBool::new(false));
        let mut batch = SubmitBatch::with_capacity(81);
        for i in 0..40u64 {
            let before_done = Arc::clone(&before_done);
            batch.push_keyed(i, move || {
                std::thread::sleep(Duration::from_micros(20));
                before_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let before_done = Arc::clone(&before_done);
            let barrier_saw = Arc::clone(&barrier_saw);
            let barrier_finished = Arc::clone(&barrier_finished);
            batch.push_sequential(move || {
                barrier_saw.store(before_done.load(Ordering::SeqCst), Ordering::SeqCst);
                barrier_finished.store(true, Ordering::SeqCst);
            });
        }
        for i in 0..40u64 {
            let after_ran_early = Arc::clone(&after_ran_early);
            let barrier_finished = Arc::clone(&barrier_finished);
            batch.push_keyed(i, move || {
                if !barrier_finished.load(Ordering::SeqCst) {
                    after_ran_early.store(true, Ordering::SeqCst);
                }
            });
        }
        assert_eq!(pool.try_submit_batch(&mut batch), 81);
        assert!(batch.is_empty());
        pool.flush();
        assert_eq!(
            barrier_saw.load(Ordering::SeqCst),
            40,
            "a batched sequential entry ran before earlier batch entries"
        );
        assert!(
            !after_ran_early.load(Ordering::SeqCst),
            "a batch entry overtook the batched sequential barrier"
        );
        // 40 + 40 keyed jobs + 1 sequential job (its 3 follower stubs also
        // count as executed handler bodies).
        assert_eq!(pool.sharded_stats().executed, 84);
    }

    #[test]
    fn batched_sequential_is_not_broadcast_past_refused_entries() {
        // Two shards with one worker and one waiting slot each; gate both
        // workers and fill both slots so the next keyed entry is refused.
        let pool = ShardedPdqBuilder::new()
            .workers(2)
            .shards(2)
            .capacity(1)
            .build();
        let key_for = |shard: usize| (0u64..).find(|&k| pool.shard_index(k) == shard).unwrap();
        let (k0, k1) = (key_for(0), key_for(1));
        let gate = Arc::new(AtomicBool::new(false));
        for &k in &[k0, k1] {
            let g = Arc::clone(&gate);
            pool.submit_keyed(k, move || {
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        }
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit_keyed(k0, || {});
        pool.submit_keyed(k1, || {});
        // Batch: a keyed entry the full shard refuses, then a Sequential.
        // The barrier must not be broadcast past the refused entry — both
        // stay in the batch, in order.
        let keyed_done = Arc::new(AtomicBool::new(false));
        let violation = Arc::new(AtomicBool::new(false));
        let mut batch = SubmitBatch::new();
        {
            let keyed_done = Arc::clone(&keyed_done);
            batch.push_keyed(k0, move || {
                keyed_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let keyed_done = Arc::clone(&keyed_done);
            let violation = Arc::clone(&violation);
            batch.push_sequential(move || {
                if !keyed_done.load(Ordering::SeqCst) {
                    violation.store(true, Ordering::SeqCst);
                }
            });
        }
        assert_eq!(pool.try_submit_batch(&mut batch), 0);
        assert_eq!(batch.len(), 2, "refused entry and barrier both handed back");
        gate.store(true, Ordering::SeqCst);
        pool.submit_batch(&mut batch).expect("pool is running");
        assert!(batch.is_empty());
        pool.flush();
        assert!(keyed_done.load(Ordering::SeqCst));
        assert!(
            !violation.load(Ordering::SeqCst),
            "sequential barrier overtook an earlier refused batch entry"
        );
    }

    #[test]
    fn bounded_shards_apply_backpressure_but_complete() {
        let pool = ShardedPdqBuilder::new()
            .workers(4)
            .shards(2)
            .capacity(4)
            .build();
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
    fn bounded_shards_mix_sequential_barriers_and_backpressure() {
        let pool = ShardedPdqBuilder::new()
            .workers(4)
            .shards(4)
            .capacity(2)
            .build();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..120u64 {
            let counter = Arc::clone(&counter);
            if i % 30 == 0 {
                pool.submit_sequential(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                pool.submit_keyed(i % 9, move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 120);
    }
}
