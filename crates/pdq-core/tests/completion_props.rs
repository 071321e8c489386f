//! Property tests for the completion-notification layer and the bounded
//! submission frontend:
//!
//! 1. Dropping a completion handle (or a whole submission future) before the
//!    job completes never deadlocks a worker — the slot is resolved by the
//!    worker regardless of who is still watching.
//! 2. Submissions parked behind a full bounded queue are admitted in strict
//!    FIFO order.
//! 3. `submit_async` produces exactly the same results as blocking `submit`
//!    for the sharded executor across 1..=8 shards.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pdq_core::executor::{block_on, Executor, ExecutorExt, JobError, JobStatus, PdqBuilder};
use pdq_core::SyncKey;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dropping every completion handle (and even whole submission futures)
    /// before the jobs run never wedges a worker: all jobs still execute and
    /// the executor still reaches idle.
    #[test]
    fn dropped_tickets_never_deadlock_a_worker(
        workers in 1usize..5,
        shards in 1usize..5,
        jobs in 20usize..120,
        capacity in 0usize..8,
    ) {
        // 0 means "unbounded" (the offline proptest shim has no option::of).
        let mut builder = PdqBuilder::new().workers(workers).shards(shards);
        if capacity > 0 {
            builder = builder.capacity(capacity);
        }
        let pool = builder.build();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..jobs as u64 {
            let counter = Arc::clone(&counter);
            let body = move || {
                counter.fetch_add(1, Ordering::Relaxed);
            };
            if i % 2 == 0 {
                // Handle dropped immediately after a blocking submit.
                drop(pool.submit_handle(SyncKey::key(i % 7), body));
            } else {
                // Future dropped immediately: the job was already handed to
                // the executor, so it must still run.
                drop(pool.submit_async(SyncKey::key(i % 7), body));
            }
        }
        pool.flush();
        prop_assert_eq!(counter.load(Ordering::Relaxed), jobs as u64);
        prop_assert_eq!(pool.stats().executed, jobs as u64);
    }

    /// Backpressure admits parked submissions in FIFO order: with a gated
    /// single worker and capacity 1, async submissions created in order are
    /// admitted (and, sharing one key, executed) in exactly that order.
    #[test]
    fn backpressure_unblocks_in_fifo_order(parked in 2usize..12) {
        let gate = Arc::new(AtomicBool::new(false));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let pool = PdqBuilder::new().workers(1).capacity(1).build();

        // Occupy the single worker until released.
        let g = Arc::clone(&gate);
        pool.submit_keyed(0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        // Fill the single waiting slot, then park `parked` submissions, all
        // created from this one thread so their overflow order is exactly
        // 0..parked. All share one key, so admission order dictates
        // execution order.
        let futures: Vec<_> = (0..=parked as u64)
            .map(|i| {
                let order = Arc::clone(&order);
                pool.submit_async(SyncKey::key(5), move || {
                    order.lock().unwrap().push(i);
                })
            })
            .collect();
        gate.store(true, Ordering::SeqCst);
        for fut in futures {
            prop_assert_eq!(block_on(fut), Ok(JobStatus::Done));
        }
        pool.flush();
        let observed = order.lock().unwrap().clone();
        let expected: Vec<u64> = (0..=parked as u64).collect();
        prop_assert_eq!(observed, expected, "parked submissions admitted out of FIFO order");
    }

    /// Typed results survive handler panics as [`JobError::Panicked`]
    /// without poisoning the worker: every non-panicking job's value comes
    /// back intact, every panicking job yields the typed error, the stats
    /// account for both, and the workers still run fresh jobs afterwards —
    /// across 1..=8 shards.
    #[test]
    fn typed_results_survive_handler_panics(
        workers in 1usize..5,
        shards in 1usize..9,
        jobs in proptest::collection::vec((any::<u8>(), 0u8..5), 1..80),
    ) {
        let pool = PdqBuilder::new().workers(workers).shards(shards).build();
        let futures: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(key, roll))| {
                let panics = roll == 0;
                let fut = pool.submit_async_returning(
                    SyncKey::key(u64::from(key) % 5),
                    move || {
                        if panics {
                            panic!("typed handler failure");
                        }
                        i as u64 * 3
                    },
                );
                (i, panics, fut)
            })
            .collect();
        let mut expected_panics = 0u64;
        for (i, panics, fut) in futures {
            if panics {
                expected_panics += 1;
                prop_assert_eq!(block_on(fut), Err(JobError::Panicked));
            } else {
                prop_assert_eq!(block_on(fut), Ok(i as u64 * 3));
            }
        }
        // No worker was poisoned: a fresh typed job on every key still runs
        // and returns its value (the blocking variant, for coverage).
        for key in 0..5u64 {
            let handle = pool
                .submit_returning(SyncKey::key(key), move || key + 100)
                .map(|v| v - 100);
            prop_assert_eq!(handle.wait(), Ok(key));
        }
        pool.flush();
        let stats = pool.stats();
        prop_assert_eq!(stats.panicked, expected_panics);
        prop_assert_eq!(stats.executed, jobs.len() as u64 - expected_panics + 5);
    }

    /// `submit_async` is observationally identical to blocking `submit`: the
    /// same keyed read-modify-write workload produces the same per-key
    /// totals either way, across 1..=8 shards and bounded or unbounded
    /// queues.
    #[test]
    fn submit_async_matches_blocking_submit(
        shards in 1usize..9,
        keys in proptest::collection::vec(0u64..6, 10..120),
        capacity in 0usize..6,
    ) {
        // 0 means "unbounded", 1.. bounds every shard queue.
        let run = |use_async: bool| -> Vec<u64> {
            let mut builder = PdqBuilder::new().workers(4).shards(shards);
            if capacity > 0 {
                builder = builder.capacity(capacity + 1);
            }
            let pool = builder.build();
            let cells: Vec<Arc<AtomicU64>> =
                (0..6).map(|_| Arc::new(AtomicU64::new(0))).collect();
            let mut futures = Vec::new();
            for &key in &keys {
                let cell = Arc::clone(&cells[key as usize]);
                // Unsynchronized read-modify-write: correct only when the
                // executor serializes same-key jobs, whichever path admitted
                // them.
                let body = move || {
                    let v = cell.load(Ordering::Relaxed);
                    cell.store(v + 1, Ordering::Relaxed);
                };
                if use_async {
                    futures.push(pool.submit_async(SyncKey::key(key), body));
                } else {
                    pool.submit(SyncKey::key(key), Box::new(body))
                        .expect("pool is running");
                }
            }
            for fut in futures {
                assert_eq!(block_on(fut), Ok(JobStatus::Done));
            }
            pool.flush();
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let blocking = run(false);
        let async_results = run(true);
        prop_assert_eq!(blocking, async_results,
            "async submission changed observable results ({} shards)", shards);
    }
}

#[test]
fn submit_async_reports_panicked_jobs() {
    let pool = PdqBuilder::new().workers(2).build();
    let fut = pool.submit_async(SyncKey::key(1), || panic!("handler failure"));
    assert_eq!(block_on(fut), Ok(JobStatus::Panicked));
    let ok = pool.submit_async(SyncKey::key(1), || {});
    assert_eq!(block_on(ok), Ok(JobStatus::Done));
}

#[test]
fn parked_submissions_abort_on_shutdown() {
    let gate = Arc::new(AtomicBool::new(false));
    let mut pool = PdqBuilder::new().workers(1).capacity(1).build();
    let g = Arc::clone(&gate);
    pool.submit_keyed(0, move || {
        while !g.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    });
    while pool.queued() > 0 {
        std::thread::yield_now();
    }
    // Fill the slot, then park one submission behind it.
    let filler = pool.submit_async(SyncKey::key(1), || {});
    let parked = pool.submit_async(SyncKey::key(2), || {});
    gate.store(true, Ordering::SeqCst);
    assert_eq!(block_on(filler), Ok(JobStatus::Done));
    // Wait until the parked submission has been admitted and executed, or
    // shutdown races it to an abort — both outcomes are legal; what must
    // never happen is a hang.
    pool.shutdown();
    let outcome = block_on(parked);
    assert!(
        matches!(
            outcome,
            Ok(JobStatus::Done) | Ok(JobStatus::Aborted) | Err(_)
        ),
        "unexpected outcome {outcome:?}"
    );
}
