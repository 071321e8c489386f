//! The admission pieces the executors share: the FIFO of submissions parked
//! behind a full queue (every executor), and the routed batch pass of the
//! executors with several queues (a sharded [`PdqExecutor`](super::PdqExecutor)
//! and [`MultiQueueExecutor`](super::MultiQueueExecutor)).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::key::SyncKey;

use super::completion::SubmitWaiter;
use super::{Job, SubmitBatch};

/// Fibonacci multiplier that spreads user keys over an executor's queues.
const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The queue, out of `queues`, that user key `key` always routes to.
pub(super) fn key_route(key: u64, queues: usize) -> usize {
    (key.wrapping_mul(HASH_SEED) >> 32) as usize % queues
}

/// A submission parked behind a full bounded queue, waiting for admission.
struct Parked {
    key: SyncKey,
    job: Job,
    /// `None` on every entry of a parked batch but its last: the submitter
    /// sleeps once, until the whole batch is in.
    waiter: Option<Arc<SubmitWaiter>>,
}

/// FIFO of submissions that found their queue at capacity, kept under that
/// queue's lock. The queue's workers admit from the front whenever a
/// dispatch frees a slot; because every submission goes to the back of this
/// list while it is non-empty, later submissions can never barge past
/// earlier parked ones.
#[derive(Default)]
pub(super) struct Overflow {
    parked: VecDeque<Parked>,
}

impl Overflow {
    pub(super) fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    pub(super) fn len(&self) -> usize {
        self.parked.len()
    }

    /// Parks one submission; `waiter` is admitted once it reaches the queue.
    pub(super) fn park(&mut self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        self.parked.push_back(Parked {
            key,
            job,
            waiter: Some(waiter),
        });
    }

    /// Parks all of `entries` (which must not be empty), in order, behind
    /// one waiter on the last of them: FIFO admission decides it once the
    /// whole tail is in the queue.
    pub(super) fn park_batch(
        &mut self,
        entries: &mut VecDeque<(SyncKey, Job)>,
    ) -> Arc<SubmitWaiter> {
        let waiter = SubmitWaiter::new();
        let last = entries.len();
        for (i, (key, job)) in entries.drain(..).enumerate() {
            let waiter = (i + 1 == last).then(|| Arc::clone(&waiter));
            self.parked.push_back(Parked { key, job, waiter });
        }
        waiter
    }

    /// Moves parked submissions, oldest first, into the queue through
    /// `enqueue` until it hands one back (the queue is full again), and
    /// returns the waiters of those admitted — to be admitted by the caller
    /// once it has released the queue's lock.
    pub(super) fn admit(
        &mut self,
        mut enqueue: impl FnMut(SyncKey, Job) -> Result<(), Job>,
    ) -> Vec<Arc<SubmitWaiter>> {
        let mut admitted = Vec::new();
        while let Some(parked) = self.parked.pop_front() {
            match enqueue(parked.key, parked.job) {
                Ok(()) => admitted.extend(parked.waiter),
                Err(job) => {
                    self.parked.push_front(Parked { job, ..parked });
                    break;
                }
            }
        }
        admitted
    }

    /// Drops every parked job unexecuted — an attached completion slot
    /// resolves `Aborted` — and aborts its waiter. At shutdown the FIFO is
    /// taken out from under the queue's lock (`std::mem::take`) and aborted
    /// after the lock is released.
    pub(super) fn abort(self) {
        for parked in self.parked {
            drop(parked.job);
            if let Some(waiter) = parked.waiter {
                waiter.abort();
            }
        }
    }
}

/// One queue's share of a routed batch, with the batch position of each
/// entry so refused ones can be handed back in order.
#[derive(Default)]
struct Slice {
    entries: VecDeque<(SyncKey, Job)>,
    positions: Vec<usize>,
    refused: bool,
}

/// The batch pass of an executor with `queues` queues. Entries are routed in
/// batch order (`route`), and each queue's slice goes to `admit` in one call
/// — one lock acquisition — which admits from the front and leaves what the
/// queue refused. A queue that refused is given nothing more from this batch,
/// so a later entry can never barge past an earlier refused one on the same
/// queue (a key always routes to the same queue, so per-key FIFO holds);
/// other queues keep admitting. Refused entries go back into `batch` in batch
/// order.
///
/// An entry that `route` sends nowhere (`None`) is a barrier over every
/// queue: the slices gathered before it are admitted first, since earlier
/// entries must land ahead of it, and then `barrier` takes it. If an earlier
/// entry was refused, the barrier would overtake it; it goes back into the
/// batch instead, with everything after it.
///
/// Returns how many entries were admitted, and the waiters that `admit` and
/// `barrier` returned.
pub(super) fn admit_routed(
    batch: &mut SubmitBatch,
    queues: usize,
    mut route: impl FnMut(SyncKey) -> Option<usize>,
    mut admit: impl FnMut(usize, &mut VecDeque<(SyncKey, Job)>) -> (usize, Option<Arc<SubmitWaiter>>),
    mut barrier: impl FnMut(Job) -> Arc<SubmitWaiter>,
) -> (usize, Vec<Arc<SubmitWaiter>>) {
    let mut slices: Vec<Slice> = (0..queues).map(|_| Slice::default()).collect();
    let mut refused: Vec<(usize, SyncKey, Job)> = Vec::new();
    let mut waiters = Vec::new();
    let mut admitted = 0usize;
    let mut flush = |slices: &mut [Slice],
                     refused: &mut Vec<(usize, SyncKey, Job)>,
                     waiters: &mut Vec<Arc<SubmitWaiter>>| {
        let mut flushed = 0usize;
        for (queue, slice) in slices.iter_mut().enumerate() {
            if slice.entries.is_empty() {
                continue;
            }
            let (count, waiter) = admit(queue, &mut slice.entries);
            flushed += count;
            waiters.extend(waiter);
            slice.refused |= !slice.entries.is_empty();
            refused.extend(
                slice
                    .positions
                    .drain(..)
                    .skip(count)
                    .zip(slice.entries.drain(..))
                    .map(|(idx, (key, job))| (idx, key, job)),
            );
        }
        flushed
    };
    // Collected up front (not a live `drain` iterator) so bailing out at a
    // barrier can hand the tail back instead of dropping it.
    let entries: Vec<(SyncKey, Job)> = batch.entries.drain(..).collect();
    let mut entries = entries.into_iter().enumerate();
    for (idx, (key, job)) in entries.by_ref() {
        let Some(queue) = route(key) else {
            admitted += flush(&mut slices, &mut refused, &mut waiters);
            if !refused.is_empty() {
                refused.push((idx, key, job));
                refused.extend(entries.map(|(i, (k, j))| (i, k, j)));
                break;
            }
            waiters.push(barrier(job));
            admitted += 1;
            continue;
        };
        let slice = &mut slices[queue];
        if slice.refused {
            refused.push((idx, key, job));
        } else {
            slice.entries.push_back((key, job));
            slice.positions.push(idx);
        }
    }
    admitted += flush(&mut slices, &mut refused, &mut waiters);
    refused.sort_by_key(|&(idx, _, _)| idx);
    batch
        .entries
        .extend(refused.into_iter().map(|(_, key, job)| (key, job)));
    (admitted, waiters)
}
