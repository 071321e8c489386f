//! Heap allocations per completion slot.
//!
//! A fine-grain handler costs a few hundred nanoseconds, so the allocations
//! wrapped around it show up in the serving path's throughput. This binary
//! counts them with a counting global allocator: a value-returning request
//! (`attach_returning`, run, `wait`) costs the slot and the job box, and
//! waiting on an already-resolved `TypedFuture` costs nothing; nor does
//! registering a thread's waker on a slot and being woken through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pdq_core::executor::{attach, attach_returning, thread_waker, JobStatus, TypedFuture};

struct Counting;

thread_local! {
    /// Allocations made by this thread; only the measuring thread reads it.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_value_returning_request_costs_two_allocations() {
    let (value, allocs) = allocations(|| {
        let (job, handle) = attach_returning(|| 42u64);
        job();
        handle.wait()
    });
    assert_eq!(value, Ok(42));
    assert!(
        allocs <= 2,
        "{allocs} allocations, want the slot and the job"
    );
}

#[test]
fn waiting_on_a_resolved_future_allocates_nothing() {
    // The first wait on a thread builds its reusable waker.
    let (job, handle) = attach_returning(|| 1u64);
    job();
    assert_eq!(TypedFuture::from(handle).wait(), Ok(1));

    let (job, handle) = attach_returning(|| 7u64);
    job();
    let future = TypedFuture::from(handle);
    let (value, allocs) = allocations(|| future.wait());
    assert_eq!(value, Ok(7));
    assert_eq!(allocs, 0, "TypedFuture::wait allocated");
}

#[test]
fn registering_a_waker_and_being_woken_allocates_nothing() {
    // The first use on a thread builds its reusable waker.
    let waker = thread_waker();
    let (job, handle) = attach(Box::new(|| {}));
    let (status, allocs) = allocations(|| {
        assert_eq!(handle.wake_on_finish(&waker), None);
        // Resolving on this thread counts the wake-up's side too; the park
        // takes the token it left.
        job();
        std::thread::park_timeout(Duration::from_secs(1));
        handle.wake_on_finish(&waker)
    });
    assert_eq!(status, Some(JobStatus::Done));
    assert_eq!(allocs, 0, "registering or waking allocated");
}
