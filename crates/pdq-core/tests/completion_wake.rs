//! Lost-wake-up stress for completion slots.
//!
//! A worker resolves a slot without taking its lock unless a waiter has
//! announced itself in the slot's `watched` flag. If that handshake lost a
//! wake-up, nothing would hang: every wait is capped by the 50 ms
//! `PARK_BACKSTOP`, so the loss would hide as a 50 ms stall. This test makes
//! the stall visible: a resolver thread races a waiter through every wait
//! path, with random delays on both sides so the resolution lands before,
//! inside and after the waiter's announce → re-check window, and each wait
//! must return well inside the backstop.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdq_core::executor::{
    attach, attach_returning, block_on, thread_waker, Job, JobStatus, TypedFuture,
};

const ROUNDS: u64 = 10_000;
/// Half the backstop: a wait that returns later than this after the
/// resolution was woken by the timeout, not by the resolver.
const LIMIT: Duration = Duration::from_millis(25);

/// Busy-waits for `iters` spin-loop hints (a few nanoseconds each).
fn spin(iters: u64) {
    (0..iters).for_each(|_| std::hint::spin_loop());
}

/// A thread that runs each job handed to it after a random delay, and
/// reports when it started resolving.
struct Resolver {
    handoff: Arc<Mutex<Option<(Job, u64)>>>,
    resolving: mpsc::Receiver<Instant>,
    thread: std::thread::JoinHandle<()>,
}

impl Resolver {
    fn start() -> Self {
        let handoff: Arc<Mutex<Option<(Job, u64)>>> = Arc::default();
        let (tx, resolving) = mpsc::channel();
        let shared = Arc::clone(&handoff);
        let thread = std::thread::spawn(move || loop {
            let next = shared.lock().unwrap().take();
            match next {
                Some((job, delay)) => {
                    spin(delay);
                    if tx.send(Instant::now()).is_err() {
                        return;
                    }
                    job();
                }
                // `stop` dropped the test's side of the handoff.
                None if Arc::strong_count(&shared) == 1 => return,
                None => std::thread::yield_now(),
            }
        });
        Self {
            handoff,
            resolving,
            thread,
        }
    }

    /// Hands `job` over to be run after `delay` spins.
    fn resolve(&self, job: Job, delay: u64) {
        *self.handoff.lock().unwrap() = Some((job, delay));
    }

    /// How long after the resolution started `returned` is.
    fn latency(&self, wait_started: Instant, returned: Instant) -> Duration {
        let resolving = self.resolving.recv().expect("the resolver runs every job");
        returned.saturating_duration_since(resolving.max(wait_started))
    }

    fn stop(self) {
        drop(self.handoff);
        self.thread.join().unwrap();
    }
}

#[test]
fn no_wait_outlives_its_resolution_by_half_the_backstop() {
    let resolver = Resolver::start();
    // xorshift64: reproducible delays without a dependency.
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut worst = [Duration::ZERO; 5];
    for round in 0..ROUNDS {
        for (path, worst) in worst.iter_mut().enumerate() {
            let (resolver_delay, waiter_delay) = (next() % 4096, next() % 512);
            let (job, wait): (Job, Box<dyn FnOnce()>) = match path {
                0 => {
                    let (job, handle) = attach(Box::new(|| {}));
                    (
                        job,
                        Box::new(move || assert_eq!(handle.wait(), JobStatus::Done)),
                    )
                }
                1 => {
                    let (job, handle) = attach(Box::new(|| {}));
                    (
                        job,
                        Box::new(move || assert_eq!(block_on(handle), JobStatus::Done)),
                    )
                }
                2 => {
                    let (job, handle) = attach_returning(move || round);
                    (job, Box::new(move || assert_eq!(handle.wait(), Ok(round))))
                }
                3 => {
                    let (job, handle) = attach_returning(move || round);
                    let future = TypedFuture::from(handle);
                    (job, Box::new(move || assert_eq!(future.wait(), Ok(round))))
                }
                // A poll worker's idle wait: register this thread's
                // waker, park, look again. The park is the backstop's length,
                // so only the resolver's wake-up ends it inside `LIMIT`.
                _ => {
                    let (job, handle) = attach(Box::new(|| {}));
                    let wait = move || {
                        let waker = thread_waker();
                        while handle.wake_on_finish(&waker).is_none() {
                            std::thread::park_timeout(2 * LIMIT);
                        }
                    };
                    (job, Box::new(wait))
                }
            };
            resolver.resolve(job, resolver_delay);
            spin(waiter_delay);
            let wait_started = Instant::now();
            wait();
            let latency = resolver.latency(wait_started, Instant::now());
            assert!(
                latency < LIMIT,
                "round {round}, wait path {path}: returned {latency:?} after the resolution"
            );
            *worst = (*worst).max(latency);
        }
    }
    resolver.stop();
    eprintln!("worst wake-up latency per wait path: {worst:?}");
}
