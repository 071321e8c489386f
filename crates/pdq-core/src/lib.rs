//! # Parallel Dispatch Queue (PDQ)
//!
//! A queue-based programming abstraction that parallelizes fine-grain
//! handlers by synchronizing them **in the queue, before dispatch**, instead
//! of with locks inside the handlers. This crate is a faithful, reusable
//! implementation of the mechanism proposed by Falsafi and Wood in
//! *"Parallel Dispatch Queue: A Queue-Based Programming Abstraction to
//! Parallelize Fine-Grain Communication Protocols"* (HPCA 1999).
//!
//! ## The abstraction
//!
//! Every queue entry carries a [`SyncKey`] naming the group of resources its
//! handler will touch — much as a monitor variable protects a group of data
//! structures:
//!
//! * entries with **distinct** user keys are dispatched in parallel;
//! * entries with the **same** user key are serialized, in FIFO order;
//! * a [`SyncKey::Sequential`] entry waits for every in-flight handler, runs
//!   alone, and blocks younger entries until it completes (used for handlers
//!   that touch many resources, e.g. page migration);
//! * a [`SyncKey::NoSync`] entry runs at any time with no synchronization
//!   (read-only data, benign races).
//!
//! Because conflicts are resolved *before* a handler is handed to a
//! processor, handlers never acquire locks and never busy-wait.
//!
//! ## Two layers
//!
//! * [`DispatchQueue`] — the bare dispatch-synchronization state machine, with
//!   no threads attached. It is what the paper's hardware device implements
//!   and what the discrete-event simulator in the companion crates drives.
//! * [`executor::PdqExecutor`] — a real thread pool built on the queue, for
//!   programs that want the abstraction directly. One queue by default; with
//!   a shard count it provides the same abstraction over N independent queue
//!   shards for workloads where the single queue mutex becomes the
//!   bottleneck. Two baseline executors
//!   ([`executor::SpinLockExecutor`], [`executor::MultiQueueExecutor`])
//!   reproduce the alternatives the paper compares against. All three
//!   implement the [`executor::Executor`] trait — one submission surface
//!   (blocking, non-blocking, and `async` with bounded-queue backpressure)
//!   shared by benchmarks, the sweep engine, and server workloads.
//!
//! ## Quick start
//!
//! ```
//! use pdq_core::executor::{Executor, ExecutorExt, PdqBuilder};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // A tiny "fetch&add" protocol: handlers for the same word must serialize,
//! // handlers for different words may run in parallel.  The word address is
//! // the synchronization key, so the handler body needs no lock.
//! let pool = PdqBuilder::new().workers(4).build();
//! let words: Vec<Arc<AtomicU64>> = (0..8).map(|_| Arc::new(AtomicU64::new(0))).collect();
//! for i in 0..800u64 {
//!     let word = Arc::clone(&words[(i % 8) as usize]);
//!     pool.submit_keyed(i % 8, move || {
//!         // plain read-modify-write: safe because same-key jobs never overlap
//!         let v = word.load(Ordering::Relaxed);
//!         word.store(v + 1, Ordering::Relaxed);
//!     });
//! }
//! pool.flush();
//! assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 100));
//! ```

// `deny`, not `warn`: a malformed doc line (`// ...` or `/ ...` where
// `/// ...` was meant) leaves its item undocumented, which must fail the
// build — CI's lint job additionally greps for comment lines that interrupt
// a doc block, which this lint alone cannot see.
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod fasthash;
mod key;
mod queue;
mod ring;
mod stats;
mod ticket;

pub mod executor;

pub use config::{QueueConfig, DEFAULT_SEARCH_WINDOW};
pub use error::{QueueFullError, ShutdownError, UnknownTicketError};
pub use fasthash::FastHasher;
pub use key::SyncKey;
pub use queue::{Dispatch, DispatchQueue};
pub use ring::{CachePadded, MpmcRing};
pub use stats::{QueueStats, QueueStatsCells};
pub use ticket::Ticket;

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SyncKey>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<QueueConfig>();
        assert_send_sync::<QueueStats>();
        assert_send_sync::<DispatchQueue<u64>>();
        assert_send_sync::<MpmcRing<u64>>();
        assert_send_sync::<executor::PdqExecutor>();
        assert_send_sync::<executor::SpinLockExecutor>();
        assert_send_sync::<executor::MultiQueueExecutor>();
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// A random operation applied to a [`DispatchQueue`].
    #[derive(Debug, Clone)]
    enum Op {
        Enqueue(u8),
        EnqueueSequential,
        EnqueueNoSync,
        Dispatch,
        CompleteOldest,
        CompleteNewest,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => any::<u8>().prop_map(|k| Op::Enqueue(k % 8)),
            1 => Just(Op::EnqueueSequential),
            1 => Just(Op::EnqueueNoSync),
            5 => Just(Op::Dispatch),
            3 => Just(Op::CompleteOldest),
            2 => Just(Op::CompleteNewest),
        ]
    }

    proptest! {
        /// Core invariants of the queue under arbitrary interleavings:
        /// at most one in-flight handler per user key, sequential handlers run
        /// alone, per-key dispatch order follows enqueue order, and every
        /// enqueued entry is eventually dispatched exactly once.
        #[test]
        fn queue_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut q: DispatchQueue<u64> = DispatchQueue::new();
            let mut next_payload: u64 = 0;
            // Per-key enqueue order and the order in which payloads dispatched.
            let mut enqueue_order: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut dispatch_order: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut in_flight: Vec<(Ticket, SyncKey)> = Vec::new();
            let mut dispatched_payloads: HashSet<u64> = HashSet::new();
            let mut enqueued_count: u64 = 0;

            for op in ops {
                match op {
                    Op::Enqueue(k) => {
                        let key = u64::from(k);
                        enqueue_order.entry(key).or_default().push(next_payload);
                        q.enqueue(SyncKey::key(key), next_payload).unwrap();
                        next_payload += 1;
                        enqueued_count += 1;
                    }
                    Op::EnqueueSequential => {
                        q.enqueue(SyncKey::Sequential, next_payload).unwrap();
                        next_payload += 1;
                        enqueued_count += 1;
                    }
                    Op::EnqueueNoSync => {
                        q.enqueue(SyncKey::NoSync, next_payload).unwrap();
                        next_payload += 1;
                        enqueued_count += 1;
                    }
                    Op::Dispatch => {
                        if let Some(d) = q.try_dispatch() {
                            // No payload is dispatched twice.
                            prop_assert!(dispatched_payloads.insert(d.payload));
                            // At most one in-flight handler per user key, and
                            // nothing dispatches while a sequential handler runs.
                            let sequential_running =
                                in_flight.iter().any(|(_, key)| *key == SyncKey::Sequential);
                            prop_assert!(!sequential_running, "dispatched during sequential");
                            if let SyncKey::Key(k) = d.key {
                                let dup = in_flight.iter().any(|(_, key)| *key == SyncKey::Key(k));
                                prop_assert!(!dup, "two in-flight handlers for key {}", k);
                                dispatch_order.entry(k).or_default().push(d.payload);
                            }
                            // A sequential handler runs with nothing else in flight.
                            if d.key == SyncKey::Sequential {
                                prop_assert!(in_flight.is_empty(), "sequential overlapped");
                            }
                            in_flight.push((d.ticket, d.key));
                        }
                    }
                    Op::CompleteOldest => {
                        if !in_flight.is_empty() {
                            let (t, _) = in_flight.remove(0);
                            q.complete(t).unwrap();
                        }
                    }
                    Op::CompleteNewest => {
                        if let Some((t, _)) = in_flight.pop() {
                            q.complete(t).unwrap();
                        }
                    }
                }
            }

            // Drain: everything enqueued must eventually dispatch exactly once.
            loop {
                while let Some(d) = q.try_dispatch() {
                    prop_assert!(dispatched_payloads.insert(d.payload));
                    if let SyncKey::Key(k) = d.key {
                        dispatch_order.entry(k).or_default().push(d.payload);
                    }
                    in_flight.push((d.ticket, d.key));
                }
                if let Some((t, _)) = in_flight.pop() {
                    q.complete(t).unwrap();
                } else {
                    break;
                }
            }
            prop_assert!(q.is_idle());
            prop_assert_eq!(dispatched_payloads.len() as u64, enqueued_count);

            // Per-key dispatch order equals per-key enqueue order (FIFO per key).
            for (key, order) in &enqueue_order {
                prop_assert_eq!(
                    dispatch_order.get(key).cloned().unwrap_or_default(),
                    order.clone(),
                    "per-key FIFO violated for key {}", key
                );
            }
        }

        /// The queue statistics are internally consistent for any operation mix.
        #[test]
        fn stats_are_consistent(ops in proptest::collection::vec(op_strategy(), 1..100)) {
            let mut q: DispatchQueue<u64> = DispatchQueue::new();
            let mut in_flight: Vec<Ticket> = Vec::new();
            let mut payload = 0u64;
            for op in ops {
                match op {
                    Op::Enqueue(k) => { q.enqueue(SyncKey::key(u64::from(k)), payload).unwrap(); payload += 1; }
                    Op::EnqueueSequential => { q.enqueue(SyncKey::Sequential, payload).unwrap(); payload += 1; }
                    Op::EnqueueNoSync => { q.enqueue(SyncKey::NoSync, payload).unwrap(); payload += 1; }
                    Op::Dispatch => { if let Some(d) = q.try_dispatch() { in_flight.push(d.ticket); } }
                    Op::CompleteOldest => { if !in_flight.is_empty() { q.complete(in_flight.remove(0)).unwrap(); } }
                    Op::CompleteNewest => { if let Some(t) = in_flight.pop() { q.complete(t).unwrap(); } }
                }
                let s = q.stats();
                prop_assert_eq!(s.enqueued as usize, q.len() + s.dispatched as usize);
                prop_assert_eq!(s.in_flight() as usize, q.in_flight());
                prop_assert!(s.completed <= s.dispatched);
            }
        }
    }
}
