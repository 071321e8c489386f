//! What changes when a [`PdqExecutor`] has more than one queue shard.
//!
//! One shard funnels every submit, dispatch, and completion through a single
//! queue mutex, which becomes the bottleneck as workers are added. `N`
//! shards — each a full [`DispatchQueue`](crate::DispatchQueue) with its own
//! lock, condvars, and dedicated workers — take user keys by hash. Because a
//! key always lands on the same shard, the per-key guarantees (FIFO
//! submission order, mutual exclusion) are exactly those of one shard; only
//! cross-key dispatch order is relaxed, which the PDQ abstraction never
//! promised in the first place. `NoSync` jobs are spread round-robin and,
//! like every other job, stay on the shard they were queued on.
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
//!
//! With one shard none of this applies: every job routes to that shard, a
//! `Sequential` job goes through its queue like any other entry (and can be
//! refused with `WouldBlock` like any other), and a batch goes to it whole.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::key::SyncKey;

use super::admission::{admit_routed, key_route};
use super::completion::SubmitWaiter;
use super::park::PARK_BACKSTOP;
use super::{Job, PdqExecutor, SubmitBatch};

impl PdqExecutor {
    fn shard_index(&self, key: u64) -> usize {
        key_route(key, self.shards.len())
    }

    /// The shard a job is queued on: shard 0 for everything when there is
    /// one; otherwise the key's hash for a keyed job, round-robin for
    /// `NoSync`, and `None` for `Sequential`, which goes to every shard.
    pub(super) fn route(&self, key: SyncKey) -> Option<usize> {
        match key {
            _ if self.shards.len() == 1 => Some(0),
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
    pub(super) fn broadcast_sequential_barrier(&self, job: Job, waiter: Arc<SubmitWaiter>) {
        let _broadcast = self.barrier_broadcast.lock();
        let barrier = SeqBarrier::new(self.shards.len());
        for shard in &self.shards[1..] {
            let stub = Stub(Some(Arc::clone(&barrier)));
            let stub: Job = Box::new(move || stub.run().follow());
            // Followers get detached waiters: backpressure is reported
            // through the leader stub only.
            let _ = shard.submit(SyncKey::Sequential, stub, Some(SubmitWaiter::new()));
        }
        let stub = Stub(Some(barrier));
        let stub: Job = Box::new(move || stub.run().lead(job));
        let _ = self.shards[0].submit(SyncKey::Sequential, stub, Some(waiter));
    }

    /// The routed batch pass over several shards (see [`admit_routed`]):
    /// each shard's slice goes to `Shared::enqueue_batch` — with `park`,
    /// what a shard cannot take is parked there instead of refused — and a
    /// `Sequential` entry is broadcast as a barrier.
    pub(super) fn admit_batch(
        &self,
        batch: &mut SubmitBatch,
        park: bool,
    ) -> (usize, Vec<Arc<SubmitWaiter>>) {
        admit_routed(
            batch,
            self.shards.len(),
            |key| self.route(key),
            |shard, entries| self.shards[shard].enqueue_batch(entries, park),
            |job| {
                let waiter = SubmitWaiter::new();
                self.broadcast_sequential_barrier(job, Arc::clone(&waiter));
                waiter
            },
        )
    }
}

/// Coordination state for one escalated `Sequential` job: every shard parks a
/// stub here; the leader runs the job once all shards have arrived.
struct SeqBarrier {
    state: Mutex<SeqBarrierState>,
    cv: Condvar,
    shards: usize,
}

#[derive(Default)]
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
            state: Mutex::new(SeqBarrierState::default()),
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

/// What every barrier stub job carries: if the stub is dropped without
/// running (the executor shut down and discarded a parked submission), the
/// barrier is aborted so stubs already parked on other shards are released
/// instead of waiting forever.
struct Stub(Option<Arc<SeqBarrier>>);

impl Stub {
    fn run(mut self) -> Arc<SeqBarrier> {
        self.0.take().expect("a stub runs once")
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        if let Some(barrier) = self.0.take() {
            barrier.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, ExecutorExt, PdqBuilder};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs_across_shards() {
        let pool = PdqBuilder::new().workers(8).shards(4).build();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..1000u64 {
            let counter = Arc::clone(&counter);
            pool.submit_keyed(i % 97, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.flush();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let stats = pool.pdq_stats();
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
        let pool = PdqBuilder::new().workers(8).shards(4).build();
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
        let pool = PdqBuilder::new().workers(4).shards(2).build();
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
        let pool = PdqBuilder::new().workers(8).shards(4).build();
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
        assert_eq!(pool.pdq_stats().queue.sequential_handlers, 10 * 4);
    }

    #[test]
    fn sequential_is_a_barrier_between_older_and_younger_jobs() {
        let pool = PdqBuilder::new().workers(8).shards(4).build();
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
        let pool = Arc::new(PdqBuilder::new().workers(4).shards(4).build());
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
        let pool = PdqBuilder::new().workers(4).shards(4).build();
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.submit_sequential(|| panic!("sequential failure"));
        let flag = Arc::clone(&ran_after);
        pool.submit_keyed(1, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(pool.pdq_stats().panicked, 1);
    }

    #[test]
    fn panicking_job_releases_its_key() {
        let pool = PdqBuilder::new().workers(4).shards(2).build();
        let ran_after = Arc::new(AtomicBool::new(false));
        pool.submit_keyed(9, || panic!("handler failure"));
        let flag = Arc::clone(&ran_after);
        pool.submit_keyed(9, move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran_after.load(Ordering::SeqCst));
        assert_eq!(pool.pdq_stats().panicked, 1);
    }

    #[test]
    fn every_shard_gets_at_least_one_worker() {
        let pool = PdqBuilder::new().workers(2).shards(6).build();
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
        let pool = PdqBuilder::new().workers(2).shards(1).build();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit_sequential(move || flag.store(true, Ordering::SeqCst));
        pool.flush();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(pool.pdq_stats().queue.sequential_handlers, 1);
    }

    #[test]
    fn nosync_jobs_spread_round_robin() {
        let pool = PdqBuilder::new().workers(4).shards(4).build();
        for _ in 0..400 {
            pool.submit_nosync(|| {});
        }
        pool.flush();
        let stats = pool.pdq_stats();
        assert_eq!(stats.queue.nosync_handlers, 400);
        for shard in &stats.per_shard {
            assert_eq!(shard.nosync_handlers, 100);
        }
    }

    #[test]
    fn sequential_barrier_excludes_nosync_jobs_across_shards() {
        let pool = PdqBuilder::new().workers(4).shards(2).build();
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
            "a NoSync job overlapped a global sequential barrier"
        );
        assert_eq!(pool.pdq_stats().queue.nosync_handlers, 294);
    }

    #[test]
    fn try_submit_after_shutdown_fails() {
        let mut pool = PdqBuilder::new().workers(2).shards(2).build();
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
        let mut pool = PdqBuilder::new().workers(4).shards(2).build();
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
        let pool = PdqBuilder::new().workers(4).shards(4).build();
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
        assert_eq!(pool.pdq_stats().executed, 84);
    }

    #[test]
    fn batched_sequential_is_not_broadcast_past_refused_entries() {
        // Two shards with one worker and one waiting slot each; gate both
        // workers and fill both slots so the next keyed entry is refused.
        let pool = PdqBuilder::new().workers(2).shards(2).capacity(1).build();
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
        let pool = PdqBuilder::new().workers(4).shards(2).capacity(4).build();
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
        let pool = PdqBuilder::new().workers(4).shards(4).capacity(2).build();
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
