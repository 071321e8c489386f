//! Lost-wakeup pin for every registry executor.
//!
//! Since the executors skip wake-ups nobody is waiting for, a bug in the
//! parked-worker accounting would no longer deadlock anything: every park is
//! capped by the 50 ms `PARK_BACKSTOP`, so a lost wake-up hides as a 50 ms
//! stall. This test makes that stall visible: lone submissions, each to a
//! pool whose workers have all gone to sleep, each must *start* well inside
//! the backstop.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pdq_core::executor::{build_executor, Executor, ExecutorSpec, SubmitBatch, EXECUTOR_NAMES};
use pdq_core::SyncKey;

const SUBMISSIONS: usize = 200;
/// Half the backstop: a start later than this was woken by the timeout (or
/// not at all), not by the submission.
const LIMIT: Duration = Duration::from_millis(25);

/// Submits `SUBMISSIONS` lone jobs through every submission path in turn and
/// returns how long each took from submit to handler start.
fn lone_submission_latencies(executor: &dyn Executor) -> Vec<Duration> {
    let (started_tx, started_rx) = mpsc::channel::<Instant>();
    (0..SUBMISSIONS)
        .map(|i| {
            // Everything submitted so far has finished; give the workers the
            // few microseconds they need to find their queues empty and park.
            executor.flush();
            std::thread::sleep(Duration::from_millis(1));
            let tx = started_tx.clone();
            let job = Box::new(move || tx.send(Instant::now()).expect("test is listening"));
            let submitted = Instant::now();
            match i % 5 {
                0 => executor
                    .submit(SyncKey::key(i as u64), job)
                    .expect("running"),
                // The lock-free ring on the PDQ family.
                1 => executor.submit(SyncKey::NoSync, job).expect("running"),
                2 => executor.submit(SyncKey::Sequential, job).expect("running"),
                3 => {
                    let mut batch = SubmitBatch::new();
                    batch.push(SyncKey::key(i as u64), job);
                    assert_eq!(executor.try_submit_batch(&mut batch), 1);
                }
                _ => {
                    let mut batch = SubmitBatch::new();
                    batch.push(SyncKey::key(i as u64), job);
                    assert!(executor.submit_batch_queued(&mut batch).is_empty());
                }
            }
            let started = started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the job runs");
            started.saturating_duration_since(submitted)
        })
        .collect()
}

#[test]
fn a_lone_submission_always_wakes_a_parked_worker() {
    for name in EXECUTOR_NAMES {
        // Two workers, and two shards on the sharded executor: a wake-up
        // aimed at the wrong queue would be as lost as one never sent.
        let spec = ExecutorSpec::new(2).shards(2).capacity(8);
        let executor = build_executor(name, &spec).expect("registry name");
        let latencies = lone_submission_latencies(&*executor);
        let misses: Vec<_> = latencies
            .iter()
            .enumerate()
            .filter(|(_, l)| **l >= LIMIT)
            .collect();
        assert!(
            misses.is_empty(),
            "{name}: {} of {SUBMISSIONS} lone submissions started later than {LIMIT:?} \
             (a lost wake-up waits for the 50 ms backstop): {misses:?}",
            misses.len()
        );
    }
}
