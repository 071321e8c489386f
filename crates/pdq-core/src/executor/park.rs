//! Exact parked-worker accounting shared by every executor's worker loop.
//!
//! `Condvar::notify_*` on the std-backed `parking_lot` shim is an
//! unconditional `futex_wake` system call, so a saturated executor that
//! notifies after every submit, dispatch and completion pays one syscall per
//! job to wake workers that are not asleep. [`WorkerPark`] lets a notifier
//! find out, under the lock it already holds, whether a wake-up can have any
//! effect.
//!
//! The counters live inside the mutex-protected state the workers park on
//! and are only ever touched with that mutex held:
//!
//! * `sleepers` — workers currently inside [`WorkerPark::wait`];
//! * `claimed` — wake-ups already promised to those sleepers (a notifier
//!   claimed, and has issued or is about to issue the matching `notify`) that
//!   the woken sleeper has not yet accounted for by leaving the wait.
//!
//! `claimed <= sleepers` always holds, and a notify is needed exactly when
//! `claimed < sleepers`: some sleeper has no wake-up on its way. Every worker
//! that is *not* a sleeper re-checks its queue under the same mutex before it
//! parks, so skipping the notify when every sleeper is already claimed (or
//! nobody sleeps) cannot lose a wake-up. See the "Wake-up protocol" section
//! of `docs/ARCHITECTURE.md` for the full argument.

use std::time::Duration;

use parking_lot::{Condvar, MutexGuard};

/// Upper bound on how long any executor thread parks before re-checking its
/// wait condition. Every wait already sits in a re-check loop, so this
/// changes no semantics; it is a defensive backstop that turns a lost wakeup
/// (a signalling bug, present or future) into a bounded-latency hiccup
/// instead of a deadlocked worker or CI job.
pub(super) const PARK_BACKSTOP: Duration = Duration::from_millis(50);

/// Sleeper / claimed-wake counters for the workers parked on one condvar.
#[derive(Debug, Default)]
pub(super) struct WorkerPark {
    sleepers: usize,
    claimed: usize,
}

impl WorkerPark {
    /// Claims a wake-up for one sleeper that has none on its way. Returns
    /// whether the caller must follow up with `notify_one` (after releasing
    /// the lock, if it likes); `false` means a notify would wake nobody who
    /// is not already being woken.
    pub(super) fn claim_one(&mut self) -> bool {
        let unclaimed = self.claimed < self.sleepers;
        if unclaimed {
            self.claimed += 1;
        }
        unclaimed
    }

    /// Claims a wake-up for every sleeper. Returns whether the caller must
    /// follow up with `notify_all`.
    pub(super) fn claim_all(&mut self) -> bool {
        let unclaimed = self.claimed < self.sleepers;
        self.claimed = self.sleepers;
        unclaimed
    }

    fn enter(&mut self) {
        self.sleepers += 1;
    }

    /// Accounts for a sleeper leaving its wait. A notified sleeper consumes
    /// one claim; a timed-out one consumes none, but the clamp keeps
    /// `claimed <= sleepers` when the claim it leaves behind was aimed at it
    /// (its notify then finds nobody and the claim must not outlive it).
    fn leave(&mut self, timed_out: bool) {
        self.sleepers -= 1;
        if !timed_out {
            self.claimed = self.claimed.saturating_sub(1);
        }
        self.claimed = self.claimed.min(self.sleepers);
    }

    /// Parks the calling worker on `cv` for at most [`PARK_BACKSTOP`],
    /// keeping the counters (reached through `park`) exact. Returns whether
    /// the wait ended by a notify rather than the timeout.
    pub(super) fn wait<T>(
        cv: &Condvar,
        guard: &mut MutexGuard<'_, T>,
        park: impl Fn(&mut T) -> &mut WorkerPark,
    ) -> bool {
        park(guard).enter();
        let timed_out = cv.wait_for(guard, PARK_BACKSTOP).timed_out();
        park(guard).leave(timed_out);
        !timed_out
    }

    /// Wakes up to `jobs` sleepers that have no wake-up on its way yet, for
    /// that many newly queued jobs. Consumes the guard: the claims are made
    /// under the lock, the notify (a system call) after it is released.
    pub(super) fn wake<T>(
        cv: &Condvar,
        mut guard: MutexGuard<'_, T>,
        park: impl Fn(&mut T) -> &mut WorkerPark,
        jobs: usize,
    ) {
        let counters = park(&mut guard);
        let unclaimed = counters.sleepers - counters.claimed;
        let wakes = jobs.min(unclaimed);
        counters.claimed += wakes;
        drop(guard);
        match wakes {
            0 => {}
            1 => cv.notify_one(),
            // Every sleeper is now claimed: one broadcast reaches them all.
            n if n == unclaimed => cv.notify_all(),
            n => (0..n).for_each(|_| cv.notify_one()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn no_sleeper_means_no_notify() {
        let mut park = WorkerPark::default();
        assert!(!park.claim_one());
        assert!(!park.claim_all());
    }

    #[test]
    fn each_sleeper_is_claimed_once() {
        let mut park = WorkerPark::default();
        park.enter();
        park.enter();
        assert!(park.claim_one());
        assert!(park.claim_one());
        assert!(!park.claim_one(), "both sleepers already have a wake-up");
        park.leave(false);
        park.leave(false);
        assert_eq!((park.sleepers, park.claimed), (0, 0));
    }

    #[test]
    fn claim_all_covers_only_the_unclaimed() {
        let mut park = WorkerPark::default();
        park.enter();
        park.enter();
        assert!(park.claim_one());
        assert!(park.claim_all());
        assert!(!park.claim_all(), "nothing left to claim");
        assert_eq!(park.claimed, 2);
    }

    #[test]
    fn timed_out_sleeper_never_strands_a_claim() {
        // The lone sleeper times out while the notify aimed at it is still
        // in flight: the claim must go with it, or the next sleeper would be
        // taken for already-woken and never notified.
        let mut park = WorkerPark::default();
        park.enter();
        assert!(park.claim_one());
        park.leave(true);
        assert_eq!((park.sleepers, park.claimed), (0, 0));
        park.enter();
        assert!(park.claim_one(), "a fresh sleeper needs its own notify");
    }

    #[test]
    fn timeout_beside_a_claimed_peer_keeps_the_peers_claim() {
        let mut park = WorkerPark::default();
        park.enter();
        park.enter();
        assert!(park.claim_one());
        park.leave(true);
        assert_eq!((park.sleepers, park.claimed), (1, 1));
        assert!(!park.claim_one(), "the remaining sleeper is being woken");
    }

    #[test]
    fn wake_claims_one_sleeper_per_job_and_never_more_than_sleep() {
        let lock = Mutex::new(WorkerPark::default());
        let cv = Condvar::new();
        (0..3).for_each(|_| lock.lock().enter());
        WorkerPark::wake(&cv, lock.lock(), |p| p, 2);
        assert_eq!(lock.lock().claimed, 2);
        WorkerPark::wake(&cv, lock.lock(), |p| p, 5);
        assert_eq!(lock.lock().claimed, 3);
        WorkerPark::wake(&cv, lock.lock(), |p| p, 1);
        assert_eq!(lock.lock().claimed, 3, "nobody left to claim");
    }

    #[test]
    fn wait_reports_notify_and_timeout() {
        let state = Arc::new((Mutex::new(WorkerPark::default()), Condvar::new()));
        {
            let (lock, cv) = &*state;
            let mut guard = lock.lock();
            assert!(!WorkerPark::wait(cv, &mut guard, |p| p), "nobody notifies");
            assert_eq!((guard.sleepers, guard.claimed), (0, 0));
        }
        let sleeper = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let (lock, cv) = &*state;
                let mut guard = lock.lock();
                // Backstop timeouts just re-enter the wait.
                while !WorkerPark::wait(cv, &mut guard, |p| p) {}
            })
        };
        let (lock, cv) = &*state;
        loop {
            let mut guard = lock.lock();
            if guard.claim_one() {
                drop(guard);
                cv.notify_one();
                break;
            }
            drop(guard);
            std::thread::yield_now();
        }
        sleeper.join().unwrap();
        let guard = lock.lock();
        assert_eq!((guard.sleepers, guard.claimed), (0, 0));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Park,
        ClaimOne,
        ClaimAll,
        Notified,
        TimedOut,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Park),
            Just(Op::ClaimOne),
            Just(Op::ClaimAll),
            Just(Op::Notified),
            Just(Op::TimedOut),
        ]
    }

    proptest! {
        /// Random park / claim / notify / timeout sequences against a model
        /// that tracks each sleeper individually: the counters never let
        /// `claimed` exceed `sleepers`, and a claim is granted exactly when
        /// some sleeper has no wake-up on its way.
        #[test]
        fn counters_match_a_per_sleeper_model(ops in proptest::collection::vec(op(), 0..200)) {
            let mut park = WorkerPark::default();
            // One flag per sleeper: has a wake-up been claimed for it?
            let mut model: Vec<bool> = Vec::new();
            for op in ops {
                match op {
                    Op::Park => {
                        park.enter();
                        model.push(false);
                    }
                    Op::ClaimOne => {
                        let expect = model.iter().any(|claimed| !claimed);
                        prop_assert_eq!(park.claim_one(), expect);
                        if let Some(slot) = model.iter_mut().find(|claimed| !**claimed) {
                            *slot = true;
                        }
                    }
                    Op::ClaimAll => {
                        let expect = model.iter().any(|claimed| !claimed);
                        prop_assert_eq!(park.claim_all(), expect);
                        model.iter_mut().for_each(|claimed| *claimed = true);
                    }
                    // A notify wakes a claimed sleeper (condvars pick any
                    // waiter, but every claimed wake-up has a notify behind
                    // it, so it is a claimed one that leaves).
                    Op::Notified => {
                        if let Some(i) = model.iter().position(|claimed| *claimed) {
                            model.swap_remove(i);
                            park.leave(false);
                        }
                    }
                    // A timeout takes an unclaimed sleeper when there is one;
                    // otherwise the sleeper raced the notify aimed at it.
                    Op::TimedOut => {
                        if !model.is_empty() {
                            let i = model.iter().position(|claimed| !*claimed).unwrap_or(0);
                            model.swap_remove(i);
                            park.leave(true);
                        }
                    }
                }
                prop_assert!(park.claimed <= park.sleepers);
                prop_assert_eq!(park.sleepers, model.len());
                prop_assert_eq!(park.claimed, model.iter().filter(|c| **c).count());
            }
        }
    }
}
