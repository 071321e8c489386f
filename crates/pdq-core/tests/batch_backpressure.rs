//! Batch-granular backpressure on every registry executor: a blocking
//! `submit_batch` that does not fit parks its remainder in the overflow FIFO
//! in one step and sleeps once — without giving up FIFO admission, the
//! capacity bound on the queue itself, the no-barging rule, or the
//! shutdown-abort contract.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::sync::atomic::{AtomicU64, Ordering};

use pdq_core::executor::{
    attach, build_executor, CompletionHandle, Executor, ExecutorExt, ExecutorSpec, Job, JobStatus,
    PdqBuilder, SubmitBatch, TrySubmitError, EXECUTOR_NAMES,
};
use pdq_core::{ShutdownError, SyncKey};

const CAPACITY: usize = 4;
const BATCH: u64 = 64;
const LATE: u64 = 8;

/// One worker (so: one queue, one shard, and execution order = admission
/// order on every executor) behind a queue of `CAPACITY`, its worker held
/// inside a gate job until the returned sender is used or dropped.
fn gated_executor(name: &str) -> (Box<dyn Executor>, mpsc::Sender<()>) {
    let executor =
        build_executor(name, &ExecutorSpec::new(1).capacity(CAPACITY)).expect("registry name");
    let (open, gate) = mpsc::channel::<()>();
    let (running_tx, running) = mpsc::channel::<()>();
    executor.submit_keyed(u64::MAX, move || {
        running_tx.send(()).expect("test is listening");
        let _ = gate.recv();
    });
    running.recv().expect("the gate job starts");
    (executor, open)
}

/// Polls until `executor` reports `queued` jobs waiting (queue + parked),
/// checking on the way that the dispatch queue itself never holds more than
/// `CAPACITY`.
fn wait_until_queued(executor: &dyn Executor, queued: usize) {
    loop {
        let stats = executor.stats();
        if let Some(queue) = &stats.queue {
            assert!(
                queue.max_queue_len <= CAPACITY,
                "{}: the dispatch queue reached {} entries behind a bound of {CAPACITY}",
                executor.name(),
                queue.max_queue_len
            );
        }
        assert!(stats.queued <= queued, "{}: over-admitted", executor.name());
        if stats.queued == queued {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn logging_batch(log: &Arc<Mutex<Vec<u64>>>, ids: std::ops::Range<u64>) -> SubmitBatch {
    let mut batch = SubmitBatch::new();
    for id in ids {
        let log = Arc::clone(log);
        // Distinct keys: nothing but the admission order orders these jobs.
        batch.push_keyed(id, move || log.lock().unwrap().push(id));
    }
    batch
}

#[test]
fn parked_batch_remainder_keeps_fifo_order_and_is_never_overtaken() {
    for name in EXECUTOR_NAMES {
        let (executor, open) = gated_executor(name);
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| executor.submit_batch(&mut logging_batch(&log, 0..BATCH)));
            // CAPACITY entries fit; the rest of the batch is parked.
            wait_until_queued(&*executor, BATCH as usize);
            // A second submitter arrives while the remainder is parked: both
            // its batch and its single submission queue up behind it.
            let second = scope.spawn(|| {
                let admitted =
                    executor.submit_batch(&mut logging_batch(&log, BATCH..BATCH + LATE - 1));
                let log = Arc::clone(&log);
                executor.submit_keyed(BATCH + LATE - 1, move || {
                    log.lock().unwrap().push(BATCH + LATE - 1);
                });
                admitted
            });
            wait_until_queued(&*executor, (BATCH + LATE - 1) as usize);
            assert!(!first.is_finished(), "{name}: returned with entries parked");
            open.send(()).expect("the gate job is waiting");
            assert_eq!(first.join().unwrap(), Ok(BATCH as usize), "{name}");
            assert_eq!(second.join().unwrap(), Ok(LATE as usize - 1), "{name}");
        });
        executor.flush();
        wait_until_queued(&*executor, 0);
        assert_eq!(
            *log.lock().unwrap(),
            (0..BATCH + LATE).collect::<Vec<_>>(),
            "{name}: admission order differs from submission order"
        );
    }
}

#[test]
fn shutdown_aborts_a_parked_batch_remainder() {
    for name in EXECUTOR_NAMES {
        let (mut executor, open) = gated_executor(name);
        let mut batch = SubmitBatch::new();
        let handles: Vec<CompletionHandle> = (0..BATCH)
            .map(|id| {
                let (job, handle) = attach(Box::new(|| {}));
                batch.push(SyncKey::key(id), job);
                handle
            })
            .collect();
        // `shutdown` takes `&mut self`, so the blocked `submit_batch` is
        // played in its two halves: the hand-over on this thread, the sleep
        // on another.
        let waiters = executor.submit_batch_queued(&mut batch);
        assert!(
            batch.is_empty(),
            "{name}: the executor owns the whole batch"
        );
        if executor.stats().queue.is_some() {
            assert_eq!(waiters.len(), 1, "{name}: one queue, one sleep");
        }
        wait_until_queued(&*executor, BATCH as usize);
        let sleeper = std::thread::spawn(move || {
            waiters
                .iter()
                .try_for_each(|waiter| waiter.wait())
                .map(|()| BATCH as usize)
        });
        let shutdown = std::thread::scope(|scope| {
            let shutdown = scope.spawn(|| executor.shutdown());
            // Parked submissions are dropped as shutdown begins, before the
            // workers are joined — the submitter learns of it while the gate
            // job is still running.
            assert_eq!(sleeper.join().unwrap(), Err(ShutdownError), "{name}");
            open.send(()).expect("the gate job is waiting");
            shutdown.join()
        });
        shutdown.expect("shutdown joins its workers");
        // What was in the queue ran; what was parked resolved Aborted.
        let statuses: Vec<JobStatus> = handles.iter().map(CompletionHandle::wait).collect();
        assert!(
            statuses[..CAPACITY].iter().all(|s| *s == JobStatus::Done),
            "{name}: {statuses:?}"
        );
        assert!(
            statuses[CAPACITY..]
                .iter()
                .all(|s| *s == JobStatus::Aborted),
            "{name}: {statuses:?}"
        );
    }
}

/// A `Sequential` entry on a full queue, by shard count. One shard is the
/// single dispatch queue: the entry is refused like any other — `try_submit`
/// hands it back with `WouldBlock` and a batch pass stops at it. Two shards
/// escalate it to a barrier over both, whose stubs park behind the full
/// shards, so it is accepted at once.
#[test]
fn sequential_on_a_full_queue_is_refused_by_one_shard_and_accepted_by_two() {
    for shards in [1, 2] {
        // One worker per shard, each held inside a gate job (`NoSync` jobs
        // are spread round-robin, one per shard), and one waiting slot per
        // shard, filled.
        let executor = PdqBuilder::new()
            .workers(shards)
            .shards(shards)
            .capacity(1)
            .build();
        let (running_tx, running) = mpsc::channel::<()>();
        // Dropping a sender opens its gate (also when an assertion fails).
        let open: Vec<mpsc::Sender<()>> = (0..shards)
            .map(|_| {
                let (open, gate) = mpsc::channel::<()>();
                let running_tx = running_tx.clone();
                executor.submit_nosync(move || {
                    running_tx.send(()).expect("test is listening");
                    let _ = gate.recv();
                });
                open
            })
            .collect();
        for _ in 0..shards {
            running.recv().expect("a gate job starts");
        }
        let filled = (0..64u64)
            .filter(|&k| {
                executor
                    .try_submit(SyncKey::key(k), Box::new(|| {}))
                    .is_ok()
            })
            .count();
        assert_eq!(filled, shards, "one waiting slot per shard");

        let ran = Arc::new(AtomicU64::new(0));
        let barrier = || -> Job {
            let ran = Arc::clone(&ran);
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        let single = executor.try_submit(SyncKey::Sequential, barrier());
        let mut batch = SubmitBatch::new();
        batch.push(SyncKey::Sequential, barrier());
        batch.push_keyed(u64::MAX, || {});
        let admitted = executor.try_submit_batch(&mut batch);
        if shards == 1 {
            assert!(
                matches!(single, Err(TrySubmitError::WouldBlock(_))),
                "one shard refuses a Sequential entry on a full queue: {single:?}"
            );
            assert_eq!(
                (admitted, batch.len()),
                (0, 2),
                "one shard: the batch pass stops at the refused Sequential entry"
            );
        } else {
            assert!(single.is_ok(), "two shards accept the barrier: {single:?}");
            assert_eq!(
                (admitted, batch.len()),
                (1, 1),
                "two shards: the barrier is accepted, the keyed entry behind its parked stubs is not"
            );
        }
        drop((single, batch, open));
        executor.flush();
        let barriers: usize = if shards == 1 { 0 } else { 2 };
        assert_eq!(
            ran.load(Ordering::SeqCst),
            barriers as u64,
            "{shards} shards"
        );
        assert_eq!(
            executor.pdq_stats().executed,
            (shards + filled + barriers * shards) as u64
        );
    }
}
