//! Property tests for the executors: same-key jobs execute in FIFO
//! (submission) order and never concurrently, across random key mixes,
//! worker counts, and shard counts, for all four [`Executor`]
//! implementations; plus the global-barrier property of `Sequential` jobs on
//! the sharded executor, and the observable equivalence of batched and
//! one-at-a-time submission for every registry executor.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use pdq_core::executor::{
    build_executor, Executor, ExecutorExt, ExecutorSpec, MultiQueueExecutor, PdqBuilder,
    SpinLockExecutor, SubmitBatch, TrySubmitError, EXECUTOR_NAMES,
};
use pdq_core::SyncKey;
use proptest::prelude::*;

/// Number of distinct user keys the generated workloads draw from. Small, so
/// random mixes hit genuine same-key contention.
const KEY_SPACE: usize = 6;

/// Per-key observation log shared with the jobs.
struct Observed {
    /// One "am I running" flag per key, to detect same-key overlap.
    running: Vec<AtomicBool>,
    /// Set when two same-key jobs ever overlapped.
    overlap: AtomicBool,
    /// Per-key sequence numbers in the order the jobs actually ran.
    order: Vec<Mutex<Vec<u64>>>,
}

impl Observed {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            running: (0..KEY_SPACE).map(|_| AtomicBool::new(false)).collect(),
            overlap: AtomicBool::new(false),
            order: (0..KEY_SPACE).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }
}

/// Submits `keys` (one job per element, keyed by the element) to `executor`
/// and returns the per-key submission order for comparison.
fn drive<E: Executor + ?Sized>(
    executor: &E,
    keys: &[u8],
    observed: &Arc<Observed>,
) -> Vec<Vec<u64>> {
    let mut submitted: Vec<Vec<u64>> = vec![Vec::new(); KEY_SPACE];
    for (seq, &key) in keys.iter().enumerate() {
        let key = usize::from(key) % KEY_SPACE;
        submitted[key].push(seq as u64);
        executor.submit_keyed(key as u64, observer_job(observed, key, seq as u64));
    }
    executor.wait_idle();
    submitted
}

/// The shared job body of `drive`/`drive_batched`: records overlap and
/// per-key execution order.
fn observer_job(observed: &Arc<Observed>, key: usize, seq: u64) -> impl FnOnce() + Send + 'static {
    let observed = Arc::clone(observed);
    move || {
        if observed.running[key].swap(true, Ordering::SeqCst) {
            observed.overlap.store(true, Ordering::SeqCst);
        }
        observed.order[key].lock().unwrap().push(seq);
        // Linger long enough that an executor which dispatches two
        // same-key jobs concurrently would actually interleave here.
        for _ in 0..500 {
            std::hint::spin_loop();
        }
        observed.running[key].store(false, Ordering::SeqCst);
    }
}

/// Like `drive`, but submissions go through `SubmitBatch` /
/// `submit_batch` in slices of `batch_size` instead of one `submit` per job.
fn drive_batched<E: Executor + ?Sized>(
    executor: &E,
    keys: &[u8],
    observed: &Arc<Observed>,
    batch_size: usize,
) -> Vec<Vec<u64>> {
    let mut submitted: Vec<Vec<u64>> = vec![Vec::new(); KEY_SPACE];
    let mut batch = SubmitBatch::with_capacity(batch_size);
    for (seq, &key) in keys.iter().enumerate() {
        let key = usize::from(key) % KEY_SPACE;
        submitted[key].push(seq as u64);
        batch.push_keyed(key as u64, observer_job(observed, key, seq as u64));
        if batch.len() >= batch_size {
            executor
                .submit_batch(&mut batch)
                .expect("executor is running");
        }
    }
    executor
        .submit_batch(&mut batch)
        .expect("executor is running");
    executor.wait_idle();
    submitted
}

/// Checks both properties after a run: no same-key overlap, and the per-key
/// execution order equals the per-key submission order.
fn check(
    submitted: Vec<Vec<u64>>,
    observed: &Observed,
    executor_name: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        !observed.overlap.load(Ordering::SeqCst),
        "{executor_name}: two same-key jobs ran concurrently"
    );
    for (key, expected) in submitted.iter().enumerate() {
        let actual = observed.order[key].lock().unwrap();
        prop_assert_eq!(
            &*actual,
            expected,
            "{}: key {} executed out of submission order",
            executor_name,
            key
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The PDQ executor serializes same-key jobs in FIFO order for any mix of
    /// keys and any worker count.
    #[test]
    fn pdq_same_key_jobs_are_fifo_and_exclusive(
        workers in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        let observed = Observed::new();
        let pool = PdqBuilder::new().workers(workers).build();
        let submitted = drive(&pool, &keys, &observed);
        check(submitted, &observed, "PdqExecutor")?;
    }

    /// The spin-lock baseline only guarantees per-key mutual exclusion (lock
    /// acquisition order is arbitrary), so assert exclusion plus completeness:
    /// every submitted job ran exactly once.
    #[test]
    fn spinlock_same_key_jobs_are_exclusive(
        workers in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        let observed = Observed::new();
        let pool = SpinLockExecutor::new(workers);
        let submitted = drive(&pool, &keys, &observed);
        prop_assert!(
            !observed.overlap.load(Ordering::SeqCst),
            "SpinLockExecutor: two same-key jobs ran concurrently"
        );
        for (key, expected) in submitted.iter().enumerate() {
            let mut actual = observed.order[key].lock().unwrap().clone();
            actual.sort_unstable();
            prop_assert_eq!(
                &actual,
                expected,
                "SpinLockExecutor: key {} job set differs from submissions",
                key
            );
        }
    }

    /// The static multi-queue baseline partitions keys across workers; within
    /// a key the same FIFO/exclusivity contract must hold.
    #[test]
    fn multiqueue_same_key_jobs_are_fifo_and_exclusive(
        workers in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        let observed = Observed::new();
        let pool = MultiQueueExecutor::new(workers);
        let submitted = drive(&pool, &keys, &observed);
        check(submitted, &observed, "MultiQueueExecutor")?;
    }

    /// The sharded PDQ executor must uphold the same-key FIFO/exclusivity
    /// contract for every combination of worker count and shard count: a key
    /// always hashes onto the same shard, and that shard's queue serializes
    /// it.
    #[test]
    fn sharded_pdq_same_key_jobs_are_fifo_and_exclusive(
        workers in 1usize..9,
        shards in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..250),
    ) {
        let observed = Observed::new();
        let pool = PdqBuilder::new().workers(workers).shards(shards).build();
        let submitted = drive(&pool, &keys, &observed);
        check(submitted, &observed, &format!("PdqExecutor({shards} shards)"))?;
    }

    /// Batch submission is observably equivalent to one-at-a-time `submit`
    /// for **every** registry executor: the same per-key FIFO order (set
    /// equality for the spin-lock baseline, which never promised order),
    /// the same exclusivity, and the same stats totals — across shard
    /// counts 1..=8, batch sizes, and bounded or unbounded queues.
    #[test]
    fn batched_submission_is_equivalent_to_sequential_submit(
        shards in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..200),
        batch_size in 1usize..33,
        capacity in 0usize..8,
    ) {
        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(4);
            if name == "sharded-pdq" {
                spec = spec.shards(shards);
            }
            if capacity > 0 {
                // 0 means "unbounded"; small bounds make batches overflow,
                // exercising the partial-admission path of submit_batch.
                spec = spec.capacity(capacity + 1);
            }
            // Reference: one blocking submit per job.
            let observed_ref = Observed::new();
            let pool = build_executor(name, &spec).expect("registry name builds");
            let submitted_ref = drive(&*pool, &keys, &observed_ref);
            let executed_ref = pool.stats().executed;

            // Same workload through SubmitBatch.
            let observed = Observed::new();
            let pool = build_executor(name, &spec).expect("registry name builds");
            let submitted = drive_batched(&*pool, &keys, &observed, batch_size);
            let executed = pool.stats().executed;

            prop_assert_eq!(&submitted, &submitted_ref, "{}: submission order diverged", name);
            prop_assert_eq!(
                executed, executed_ref,
                "{name}: batched stats totals diverged from sequential submit"
            );
            prop_assert_eq!(executed, keys.len() as u64, "{name}: batch lost jobs");
            if name == "spinlock" {
                prop_assert!(
                    !observed.overlap.load(Ordering::SeqCst),
                    "spinlock: two same-key jobs ran concurrently"
                );
                for (key, expected) in submitted.iter().enumerate() {
                    let mut actual = observed.order[key].lock().unwrap().clone();
                    actual.sort_unstable();
                    prop_assert_eq!(
                        &actual, expected,
                        "spinlock: key {} batched job set differs", key
                    );
                }
            } else {
                check(submitted, &observed, &format!("{name} (batched)"))?;
            }
        }
    }

    /// The crash-recovery replay pattern of `pdq-workloads`: one *reused*
    /// `SubmitBatch`, filled to a fixed chunk size with keyed jobs plus the
    /// occasional `Sequential` entry (page operations in the event log),
    /// drained with `submit_batch`, chunk after chunk, over a bounded queue.
    /// Chunk boundaries must not be observable: every entry runs exactly
    /// once and per-key FIFO order holds *across* chunks on every registry
    /// executor (set equality on the spin-lock baseline, which never
    /// promised order).
    #[test]
    fn chunked_batch_replay_is_seamless_across_chunk_boundaries(
        chunk in 1usize..48,
        jobs in proptest::collection::vec((any::<u8>(), 0u8..16), 1..300),
        capacity in 0usize..6,
    ) {
        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(3);
            if name == "sharded-pdq" {
                spec = spec.shards(4);
            }
            if capacity > 0 {
                spec = spec.capacity(capacity + 1);
            }
            let pool = build_executor(name, &spec).expect("registry name builds");
            let observed = Observed::new();
            let barriers_ran = Arc::new(AtomicU64::new(0));
            let mut barriers_submitted = 0u64;
            let mut submitted: Vec<Vec<u64>> = vec![Vec::new(); KEY_SPACE];
            let mut batch = SubmitBatch::with_capacity(chunk);
            for (i, &(key, roll)) in jobs.iter().enumerate() {
                // Roughly one entry in sixteen is a barrier, like the page
                // operations sprinkled through a recovered log.
                if roll == 0 {
                    barriers_submitted += 1;
                    let counter = Arc::clone(&barriers_ran);
                    batch.push_sequential(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                } else {
                    let key = usize::from(key) % KEY_SPACE;
                    submitted[key].push(i as u64);
                    batch.push_keyed(key as u64, observer_job(&observed, key, i as u64));
                }
                if batch.len() >= chunk {
                    pool.submit_batch(&mut batch).expect("executor is running");
                }
            }
            pool.submit_batch(&mut batch).expect("executor is running");
            pool.wait_idle();
            prop_assert_eq!(
                barriers_ran.load(Ordering::SeqCst),
                barriers_submitted,
                "{}: sequential entries lost across chunk boundaries", name
            );
            if name == "spinlock" {
                prop_assert!(
                    !observed.overlap.load(Ordering::SeqCst),
                    "spinlock: two same-key jobs ran concurrently"
                );
                for (key, expected) in submitted.iter().enumerate() {
                    let mut actual = observed.order[key].lock().unwrap().clone();
                    actual.sort_unstable();
                    prop_assert_eq!(
                        &actual, expected,
                        "spinlock: key {} replayed job set differs", key
                    );
                }
            } else {
                check(submitted, &observed, &format!("{name} (chunked replay)"))?;
            }
        }
    }

    /// A `Sequential` job on the sharded executor is a *global* barrier:
    /// every job submitted before it finishes before it starts, and every
    /// job submitted after it starts after it finishes — across all shards,
    /// for any shard count.
    #[test]
    fn sharded_pdq_sequential_is_a_global_barrier(
        workers in 1usize..9,
        shards in 1usize..9,
        jobs in proptest::collection::vec((any::<u8>(), 0u8..12), 1..120),
    ) {
        let pool = PdqBuilder::new().workers(workers).shards(shards).build();
        // Per-job (start, end) stamps from a global logical clock.
        let clock = Arc::new(AtomicU64::new(1));
        let stamps: Arc<Vec<Mutex<(u64, u64)>>> =
            Arc::new((0..jobs.len()).map(|_| Mutex::new((0, 0))).collect());
        let mut sequential_indices = Vec::new();
        for (idx, &(key, roll)) in jobs.iter().enumerate() {
            let clock = Arc::clone(&clock);
            let stamps = Arc::clone(&stamps);
            let body = move || {
                let start = clock.fetch_add(1, Ordering::SeqCst);
                // Enough work that overlap would be observable.
                for _ in 0..200 {
                    std::hint::spin_loop();
                }
                let end = clock.fetch_add(1, Ordering::SeqCst);
                *stamps[idx].lock().unwrap() = (start, end);
            };
            // Roughly one job in twelve is a barrier.
            if roll == 0 {
                sequential_indices.push(idx);
                pool.submit_sequential(body);
            } else {
                pool.submit_keyed(u64::from(key), body);
            }
        }
        pool.wait_idle();
        for &s in &sequential_indices {
            let (s_start, s_end) = *stamps[s].lock().unwrap();
            prop_assert!(s_start > 0, "sequential job {} never ran", s);
            for (i, stamp) in stamps.iter().enumerate() {
                let (start, end) = *stamp.lock().unwrap();
                if i < s {
                    prop_assert!(
                        end < s_start,
                        "job {} (ended {}) overlapped the start of sequential job {} ({})",
                        i, end, s, s_start
                    );
                } else if i > s {
                    prop_assert!(
                        start > s_end,
                        "job {} (started {}) overtook sequential job {} (ended {})",
                        i, start, s, s_end
                    );
                }
            }
        }
    }
}

/// Witnesses one batched job through the shutdown race. Exactly one of three
/// fates is legal, and each stamps the shared slot once: the job body ran
/// (`1`), or the job was dropped unrun — by the executor at teardown or by
/// the test dropping a handed-back batch (`2`). A slot still `0` after the
/// batch is gone means the entry vanished silently; a failed stamp means it
/// ran twice.
struct FateProbe {
    slot: Arc<AtomicU8>,
    double_run: Arc<AtomicBool>,
    ran: Arc<AtomicU64>,
    fired: bool,
}

impl FateProbe {
    fn job(
        slot: Arc<AtomicU8>,
        double_run: Arc<AtomicBool>,
        ran: Arc<AtomicU64>,
    ) -> impl FnOnce() + Send + 'static {
        let mut probe = FateProbe {
            slot,
            double_run,
            ran,
            fired: false,
        };
        move || {
            probe.fired = true;
            if probe
                .slot
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                probe.double_run.store(true, Ordering::SeqCst);
            }
            probe.ran.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Drop for FateProbe {
    fn drop(&mut self) {
        if !self.fired {
            // Dropped without running: an observable abort, never silence.
            let _ = self
                .slot
                .compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `shutdown` racing an in-flight `try_submit_batch`: every entry is
    /// executed exactly once or handed back / observably aborted — never
    /// dropped silently and never run twice — for all four registry
    /// executors, shard counts 1..=8, bounded and unbounded queues, and a
    /// shutdown fired at a random point in the stream. Afterwards the
    /// executor admits nothing: `try_submit_batch` returns 0 and removes
    /// nothing.
    #[test]
    fn shutdown_racing_try_submit_batch_never_loses_entries(
        shards in 1usize..9,
        workers in 1usize..5,
        capacity in 0usize..6,
        jobs in proptest::collection::vec(0u8..12, 1..150),
        cut_pct in 0u32..=100,
    ) {
        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(workers);
            if name == "sharded-pdq" {
                spec = spec.shards(shards);
            }
            if capacity > 0 {
                spec = spec.capacity(capacity + 1);
            }
            let pool = std::sync::RwLock::new(
                build_executor(name, &spec).expect("registry name builds"),
            );
            let double_run = Arc::new(AtomicBool::new(false));
            let ran = Arc::new(AtomicU64::new(0));
            let slots: Vec<Arc<AtomicU8>> =
                (0..jobs.len()).map(|_| Arc::new(AtomicU8::new(0))).collect();
            let mut batch = SubmitBatch::with_capacity(jobs.len());
            for (i, &roll) in jobs.iter().enumerate() {
                let job = FateProbe::job(
                    Arc::clone(&slots[i]),
                    Arc::clone(&double_run),
                    Arc::clone(&ran),
                );
                // Mostly keyed entries, a sprinkle of global barriers (which
                // the sharded executor expands into per-shard stubs — the
                // case most likely to strand work at teardown).
                if roll == 0 {
                    batch.push_sequential(job);
                } else {
                    batch.push_keyed(u64::from(roll) % 5, job);
                }
            }
            // Fire the shutdown once roughly `cut_pct` percent of the jobs
            // have run; 0 races it against the very first admission.
            let threshold = (jobs.len() as u64 * u64::from(cut_pct)) / 100;
            let closed = AtomicBool::new(false);

            let handed_back = std::thread::scope(|scope| {
                let submitter = scope.spawn(|| {
                    let mut batch = batch;
                    loop {
                        let admitted = pool
                            .read()
                            .unwrap()
                            .try_submit_batch(&mut batch);
                        if batch.is_empty() || (admitted == 0 && closed.load(Ordering::SeqCst)) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    batch
                });
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while ran.load(Ordering::SeqCst) < threshold
                    && std::time::Instant::now() < deadline
                {
                    std::hint::spin_loop();
                }
                pool.write().unwrap().shutdown();
                closed.store(true, Ordering::SeqCst);
                let batch = submitter.join().expect("submitter thread");
                let handed_back = batch.len();
                // Dropping the handed-back remainder aborts those probes.
                drop(batch);
                handed_back
            });

            prop_assert!(
                !double_run.load(Ordering::SeqCst),
                "{name}: a batched entry executed twice across the shutdown race"
            );
            let executed = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 1).count();
            let aborted = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 2).count();
            let lost = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 0).count();
            prop_assert_eq!(
                lost, 0,
                "{}: {} entries vanished silently (executed {}, aborted {}, handed back {})",
                name, lost, executed, aborted, handed_back
            );
            prop_assert_eq!(
                executed + aborted,
                jobs.len(),
                "{}: fates must cover the batch exactly", name
            );
            prop_assert!(
                aborted >= handed_back,
                "{name}: a handed-back entry was also executed"
            );

            // The race is over; the executor must now refuse everything.
            let mut late = SubmitBatch::new();
            let late_slot = Arc::new(AtomicU8::new(0));
            late.push_keyed(
                3,
                FateProbe::job(
                    Arc::clone(&late_slot),
                    Arc::clone(&double_run),
                    Arc::clone(&ran),
                ),
            );
            let admitted = pool.read().unwrap().try_submit_batch(&mut late);
            prop_assert_eq!(admitted, 0, "{}: post-shutdown batch was admitted", name);
            prop_assert_eq!(late.len(), 1, "{}: post-shutdown batch lost its entry", name);
            drop(late);
            prop_assert_eq!(
                late_slot.load(Ordering::SeqCst), 2,
                "{}: post-shutdown entry must abort observably", name
            );
        }
    }

    /// `NoSync` jobs ride the lock-free ring fast path (and, on the sharded
    /// executor, may be *stolen* by a sibling shard's worker). Under a
    /// shutdown fired at a random point in a concurrent submission stream,
    /// every fast-path job must execute exactly once or abort observably —
    /// never vanish, never run twice — for shard counts 1..=8 and with the
    /// ring both on and off (the two paths must make the same promise).
    #[test]
    fn shutdown_racing_nosync_fast_path_never_loses_jobs(
        shards in 1usize..9,
        workers in 1usize..5,
        jobs in 20usize..120,
        cut_pct in 0u32..=100,
        ring in any::<bool>(),
    ) {
        for name in ["pdq", "sharded-pdq"] {
            let mut spec = ExecutorSpec::new(workers).ring(ring);
            if name == "sharded-pdq" {
                spec = spec.shards(shards);
            }
            let pool = std::sync::RwLock::new(
                build_executor(name, &spec).expect("registry name builds"),
            );
            let double_run = Arc::new(AtomicBool::new(false));
            let ran = Arc::new(AtomicU64::new(0));
            let slots: Vec<Arc<AtomicU8>> =
                (0..jobs).map(|_| Arc::new(AtomicU8::new(0))).collect();
            let threshold = (jobs as u64 * u64::from(cut_pct)) / 100;
            let closed = AtomicBool::new(false);

            std::thread::scope(|scope| {
                let submitter = scope.spawn(|| {
                    for slot in &slots {
                        let mut job: Box<dyn FnOnce() + Send> = Box::new(FateProbe::job(
                            Arc::clone(slot),
                            Arc::clone(&double_run),
                            Arc::clone(&ran),
                        ));
                        loop {
                            match pool.read().unwrap().try_submit(SyncKey::NoSync, job) {
                                Ok(()) => break,
                                Err(TrySubmitError::Shutdown(handed_back)) => {
                                    // Dropping stamps the probe as aborted.
                                    drop(handed_back);
                                    break;
                                }
                                Err(TrySubmitError::WouldBlock(handed_back)) => {
                                    if closed.load(Ordering::SeqCst) {
                                        drop(handed_back);
                                        break;
                                    }
                                    job = handed_back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while ran.load(Ordering::SeqCst) < threshold
                    && std::time::Instant::now() < deadline
                {
                    std::hint::spin_loop();
                }
                pool.write().unwrap().shutdown();
                closed.store(true, Ordering::SeqCst);
                submitter.join().expect("submitter thread");
            });

            prop_assert!(
                !double_run.load(Ordering::SeqCst),
                "{name}: a fast-path job executed twice across the shutdown race"
            );
            let executed = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 1).count();
            let aborted = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 2).count();
            let lost = slots.iter().filter(|s| s.load(Ordering::SeqCst) == 0).count();
            prop_assert_eq!(
                lost, 0,
                "{}: {} NoSync jobs vanished silently (executed {}, aborted {}, ring {})",
                name, lost, executed, aborted, ring
            );
            prop_assert_eq!(
                executed + aborted, jobs,
                "{}: fates must cover the stream exactly (ring {})", name, ring
            );
            let stats = pool.read().unwrap().stats();
            prop_assert_eq!(
                stats.executed as usize, executed,
                "{}: executed counter diverged from observed executions", name
            );
            if !ring {
                prop_assert_eq!(stats.ring_submits, 0, "{name}: ring off but used");
            }
        }
    }

    /// A storm of `NoSync` jobs on the ring fast path (with stealing, on the
    /// sharded executor) must not weaken the keyed contract: same-key jobs
    /// still run exclusively and in submission order, `Sequential` entries
    /// still run, and every job of both kinds executes — on all four registry
    /// executors, shard counts 1..=8.
    #[test]
    fn keyed_fifo_and_barriers_hold_under_nosync_storm(
        shards in 1usize..9,
        keys in proptest::collection::vec(any::<u8>(), 1..120),
    ) {
        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(4);
            if name == "sharded-pdq" {
                spec = spec.shards(shards);
            }
            let pool = build_executor(name, &spec).expect("registry name builds");
            let observed = Observed::new();
            let nosync_ran = Arc::new(AtomicU64::new(0));
            let barriers_ran = Arc::new(AtomicU64::new(0));
            let mut barriers_submitted = 0u64;
            let mut submitted: Vec<Vec<u64>> = vec![Vec::new(); KEY_SPACE];
            for (seq, &key) in keys.iter().enumerate() {
                let key = usize::from(key) % KEY_SPACE;
                submitted[key].push(seq as u64);
                pool.submit_keyed(key as u64, observer_job(&observed, key, seq as u64));
                let counter = Arc::clone(&nosync_ran);
                pool.submit_nosync(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
                if seq % 16 == 15 {
                    barriers_submitted += 1;
                    let counter = Arc::clone(&barriers_ran);
                    pool.submit_sequential(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
            pool.wait_idle();
            prop_assert_eq!(
                nosync_ran.load(Ordering::SeqCst),
                keys.len() as u64,
                "{}: NoSync jobs lost in the storm", name
            );
            prop_assert_eq!(
                barriers_ran.load(Ordering::SeqCst),
                barriers_submitted,
                "{}: Sequential entries lost under the storm", name
            );
            if name == "spinlock" {
                prop_assert!(
                    !observed.overlap.load(Ordering::SeqCst),
                    "spinlock: two same-key jobs ran concurrently"
                );
                for (key, expected) in submitted.iter().enumerate() {
                    let mut actual = observed.order[key].lock().unwrap().clone();
                    actual.sort_unstable();
                    prop_assert_eq!(
                        &actual, expected,
                        "spinlock: key {} job set differs under the storm", key
                    );
                }
            } else {
                check(submitted, &observed, &format!("{name} (nosync storm)"))?;
            }
        }
    }

    /// The lock-free `stats()` snapshot must be *exact* once the executor is
    /// idle: after `flush`, the folded seqlock/ring counters equal the true
    /// post-hoc counts (no torn or dropped increments), and mid-run snapshots
    /// never violate the monotone counter ordering — for both PDQ executors,
    /// shard counts 1..=8, ring on and off.
    #[test]
    fn stats_snapshots_are_exact_after_flush(
        shards in 1usize..9,
        jobs in proptest::collection::vec((any::<u8>(), 0u8..3), 1..150),
        ring in any::<bool>(),
    ) {
        for name in ["pdq", "sharded-pdq"] {
            let mut spec = ExecutorSpec::new(3).ring(ring);
            if name == "sharded-pdq" {
                spec = spec.shards(shards);
            }
            let pool = build_executor(name, &spec).expect("registry name builds");
            let mut sequentials = 0u64;
            let mut nosyncs = 0u64;
            for (i, &(key, kind)) in jobs.iter().enumerate() {
                match kind {
                    0 => {
                        sequentials += 1;
                        pool.submit_sequential(|| {});
                    }
                    1 => {
                        nosyncs += 1;
                        pool.submit_nosync(|| {});
                    }
                    _ => pool.submit_keyed(u64::from(key), || {}),
                }
                if i % 8 == 0 {
                    // Mid-run snapshot: allowed to lag, never to be torn.
                    let s = pool.stats();
                    let q = s.queue.clone().expect("PDQ executors report queue stats");
                    prop_assert!(q.completed <= q.dispatched);
                    prop_assert!(q.dispatched <= q.enqueued);
                }
            }
            pool.flush();
            let s = pool.stats();
            let q = s.queue.expect("PDQ executors report queue stats");
            // A sequential submission on a multi-shard executor expands into
            // one barrier stub per shard; every stub is a real handler.
            let stubs_per_barrier = if name == "sharded-pdq" && shards > 1 {
                shards as u64
            } else {
                1
            };
            let total = (jobs.len() as u64 - sequentials) + sequentials * stubs_per_barrier;
            prop_assert_eq!(s.executed, total, "{}: executed drifted", name);
            prop_assert_eq!(q.enqueued, total, "{}: enqueued drifted", name);
            prop_assert_eq!(q.dispatched, total, "{}: dispatched drifted", name);
            prop_assert_eq!(q.completed, total, "{}: completed drifted", name);
            prop_assert_eq!(q.nosync_handlers, nosyncs, "{}: nosync count drifted", name);
            prop_assert_eq!(s.queued, 0, "{}: queued must be zero when idle", name);
            if !ring {
                prop_assert_eq!(s.ring_submits, 0, "{name}: ring off but used");
                prop_assert_eq!(s.stolen, 0, "{name}: stealing needs the ring");
            }
        }
    }
}
