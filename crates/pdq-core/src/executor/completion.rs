//! Completion notification and bounded-submission backpressure.
//!
//! This module is the notification layer between executor worker threads and
//! the code that submitted work to them. It has two halves:
//!
//! * **Completion slots** ([`CompletionHandle`] / [`attach`]): a per-job slot
//!   that is resolved exactly once with a [`JobStatus`] when the job finishes
//!   (or is dropped). Waiters can block ([`CompletionHandle::wait`]) or
//!   register a [`Waker`] ([`CompletionHandle::wake_on_finish`], which is
//!   also the handle's [`Future`] poll) — targeted wakeups, no broadcast
//!   herd. A worker resolves a slot with one CAS and one load: it takes the
//!   slot's lock and notifies only if a waiter announced itself in the
//!   slot's `watched` flag.
//! * **Submission waiters** ([`SubmitWaiter`]): the backpressure primitive of
//!   bounded executors. When a bounded queue is full, the executor parks the
//!   submission (key + job + waiter) in a FIFO overflow list; when a slot
//!   frees, the *executor* admits the oldest parked submission and signals
//!   its waiter. Blocking submitters sleep on the waiter; async submitters
//!   register a waker. Admission order is strictly FIFO because the overflow
//!   list is the only path into a full queue — later submissions can never
//!   barge past earlier parked ones.
//!
//! [`SubmitFuture`] glues the two together for
//! [`ExecutorExt::submit_async`](super::ExecutorExt::submit_async): it first
//! waits for admission (backpressure), then for completion. [`block_on`] is
//! a dependency-free single-future executor for programs and tests that have
//! no async runtime.
//!
//! On top of the untyped slots, [`attach_returning`] wraps a *value-returning*
//! closure so its result travels back to the submitter through a typed cell
//! inside the slot's own allocation: [`TypedHandle`] (blocking) and
//! [`TypedFuture`] (async) resolve to `Result<R, JobError>`, with handler
//! panics and shutdown-dropped jobs surfaced as [`JobError::Panicked`] /
//! [`JobError::Aborted`] instead of a bare status the caller has to
//! re-interpret. Both carry `map`-style adapters, so reply post-processing
//! composes without re-submitting.

use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering::{Acquire, Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use parking_lot::{Condvar, Mutex};

use crate::error::ShutdownError;

use super::park::PARK_BACKSTOP;
use super::Job;

/// How a submitted job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// The job ran to completion.
    Done,
    /// The job started and panicked; the executor contained the panic and
    /// released the job's key.
    Panicked,
    /// The job was dropped without ever starting (the executor shut down
    /// before the job was dispatched).
    Aborted,
}

impl JobStatus {
    /// Whether the job actually ran to completion.
    pub fn is_done(&self) -> bool {
        matches!(self, JobStatus::Done)
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => None,
            1 => Some(Self::Done),
            2 => Some(Self::Panicked),
            _ => Some(Self::Aborted),
        }
    }
}

/// The waiters of one slot, behind its lock.
#[derive(Default)]
struct Waiters {
    /// The waker of the task that polled the slot last.
    waker: Option<Waker>,
    /// Whether a thread is blocked in [`CompletionHandle::wait`].
    blocked: bool,
}

/// One per-job completion slot: resolved exactly once, observed by any number
/// of blocking waiters and one registered waker. `cell` is the result cell of
/// a value-returning job (`()` for [`attach`]), so the slot and the value
/// share one allocation.
struct Slot<C: ?Sized> {
    /// `0` until the first resolution lands as its discriminant plus one.
    status: AtomicU8,
    /// Raised under `waiters` by a waiter before its last look at `status`.
    watched: AtomicBool,
    waiters: Mutex<Waiters>,
    cv: Condvar,
    cell: C,
}

/// A slot with its result cell's type erased, as [`CompletionHandle`] holds it.
type DynSlot = Slot<dyn Any + Send + Sync>;

impl<C> Slot<C> {
    fn new(cell: C) -> Arc<Self> {
        Arc::new(Self {
            status: AtomicU8::new(0),
            watched: AtomicBool::new(false),
            waiters: Mutex::default(),
            cv: Condvar::new(),
            cell,
        })
    }
}

impl<C: ?Sized> Slot<C> {
    fn status(&self) -> Option<JobStatus> {
        JobStatus::from_code(self.status.load(Acquire))
    }

    /// Resolves the slot (first resolution wins). Unless a waiter raised
    /// `watched`, that is all: no lock, no notify, no system call.
    fn resolve(&self, status: JobStatus) {
        if self
            .status
            .compare_exchange(0, status as u8 + 1, SeqCst, Relaxed)
            .is_err()
        {
            return;
        }
        // Store→load against `watch`: either the waiter's last look sees the
        // status, or this load sees its flag (ARCHITECTURE.md, "Completion
        // slots").
        if !self.watched.load(SeqCst) {
            return;
        }
        let (waker, blocked) = {
            let mut waiters = self.waiters.lock();
            (waiters.waker.take(), waiters.blocked)
        };
        if blocked {
            self.cv.notify_all();
        }
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Announces a waiter and takes its last look at the status. The caller
    /// holds `waiters` and has registered itself there.
    fn watch(&self) -> Option<JobStatus> {
        self.watched.store(true, SeqCst);
        JobStatus::from_code(self.status.load(SeqCst))
    }
}

/// The worker-side half of a completion slot, embedded in the wrapped job by
/// [`attach`]. The slot resolves when the notifier drops, with `outcome`:
/// [`JobStatus::Aborted`] if the job was discarded without running,
/// [`JobStatus::Panicked`] once it started (a drop mid-run is unwinding), and
/// [`JobStatus::Done`] once it returned.
struct CompletionNotifier<C: ?Sized> {
    slot: Arc<Slot<C>>,
    outcome: JobStatus,
}

impl<C: ?Sized> CompletionNotifier<C> {
    fn new(slot: Arc<Slot<C>>) -> Self {
        let outcome = JobStatus::Aborted;
        Self { slot, outcome }
    }

    fn start(&mut self) {
        self.outcome = JobStatus::Panicked;
    }

    fn finish(&mut self) {
        self.outcome = JobStatus::Done;
    }
}

impl<C: ?Sized> Drop for CompletionNotifier<C> {
    fn drop(&mut self) {
        self.slot.resolve(self.outcome);
    }
}

/// The submitter-side half of a completion slot.
///
/// Obtained from [`attach`] or the `submit_handle` / `submit_async`
/// convenience methods. Dropping the handle is always safe: the slot is
/// resolved by the worker regardless of whether anyone is still watching, so
/// an abandoned handle can never deadlock a worker.
#[must_use = "a dropped CompletionHandle silently discards the job's outcome; call wait()/status() or drop it explicitly"]
pub struct CompletionHandle {
    slot: Arc<DynSlot>,
}

impl std::fmt::Debug for CompletionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHandle")
            .field("status", &self.status())
            .finish()
    }
}

impl CompletionHandle {
    /// The job's status, if it has finished.
    pub fn status(&self) -> Option<JobStatus> {
        self.slot.status()
    }

    /// Blocks the calling thread until the job finishes.
    pub fn wait(&self) -> JobStatus {
        if let Some(status) = self.status() {
            return status;
        }
        let mut waiters = self.slot.waiters.lock();
        waiters.blocked = true;
        loop {
            if let Some(status) = self.slot.watch() {
                return status;
            }
            self.slot.cv.wait_for(&mut waiters, PARK_BACKSTOP);
        }
    }

    /// Registers `waker` (replacing the one before) to be woken once the job
    /// finishes, or, if it has, registers nothing and returns its status.
    pub fn wake_on_finish(&self, waker: &Waker) -> Option<JobStatus> {
        if let Some(status) = self.status() {
            return Some(status);
        }
        let mut waiters = self.slot.waiters.lock();
        waiters.waker = Some(waker.clone());
        self.slot.watch()
    }
}

impl Future for CompletionHandle {
    type Output = JobStatus;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.wake_on_finish(cx.waker())
            .map_or(Poll::Pending, Poll::Ready)
    }
}

/// Wraps `job` so its completion resolves a fresh slot, and returns the
/// wrapped job plus the slot's [`CompletionHandle`].
///
/// The wrapping is executor-agnostic: any executor that eventually either
/// runs or drops the job resolves the slot, so no executor needs bespoke
/// completion plumbing.
pub fn attach(job: Job) -> (Job, CompletionHandle) {
    let slot = Slot::new(());
    let mut notifier = CompletionNotifier::new(Arc::clone(&slot));
    let wrapped: Job = Box::new(move || {
        notifier.start();
        job();
        notifier.finish();
    });
    (wrapped, CompletionHandle { slot })
}

/// Why a value-returning job produced no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobError {
    /// The handler started and panicked; the executor contained the panic and
    /// released the job's key, but no result was produced.
    Panicked,
    /// The job never ran: either the executor refused/shut down before
    /// admission, or it was dropped undispatched at shutdown.
    Aborted,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked => f.write_str("handler panicked before producing a result"),
            JobError::Aborted => f.write_str("job was dropped without running"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ShutdownError> for JobError {
    fn from(_: ShutdownError) -> Self {
        JobError::Aborted
    }
}

/// Converts a resolved [`JobStatus`] into the typed result space.
fn status_to_error(status: JobStatus) -> JobError {
    match status {
        JobStatus::Done => unreachable!("Done carries a value, not an error"),
        JobStatus::Panicked => JobError::Panicked,
        JobStatus::Aborted => JobError::Aborted,
    }
}

/// The result cell [`attach_returning`] puts in the slot.
type ResultCell<R> = Mutex<Option<R>>;

/// The adapters a typed handle's `map` calls composed, applied to the raw
/// value when it is taken. `None` (no `map`) costs no allocation.
type MapFn<R> = Option<Box<dyn FnOnce(&DynSlot) -> R + Send>>;

/// Takes the value out of a [`JobStatus::Done`] slot, through `map`.
fn take_value<R: 'static>(slot: &DynSlot, map: MapFn<R>) -> R {
    match map {
        Some(map) => map(slot),
        None => slot
            .cell
            .downcast_ref::<ResultCell<R>>()
            .and_then(|cell| cell.lock().take())
            .expect("a Done slot always has its result cell filled"),
    }
}

/// Composes `f` onto `map`; it runs on the thread that takes the value.
fn compose<R, U, F>(map: MapFn<R>, f: F) -> MapFn<U>
where
    R: Send + 'static,
    F: FnOnce(R) -> U + Send + 'static,
{
    Some(Box::new(move |slot| f(take_value(slot, map))))
}

/// Wraps a value-returning closure so its result travels through a typed
/// cell inside the completion slot. Returns the untyped [`Job`] (submittable
/// to any executor) plus the [`TypedHandle`] that yields the value.
///
/// Two allocations in all, the slot and the job: the completion slot still
/// resolves exactly once whether the job runs, panics, or is dropped, and
/// the result cell is filled if and only if it resolves [`JobStatus::Done`].
pub fn attach_returning<R, F>(f: F) -> (Job, TypedHandle<R>)
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let slot = Slot::new(ResultCell::<R>::new(None));
    let mut notifier = CompletionNotifier::new(Arc::clone(&slot));
    let job: Job = Box::new(move || {
        notifier.start();
        let value = f();
        *notifier.slot.cell.lock() = Some(value);
        notifier.finish();
    });
    let handle = CompletionHandle { slot };
    (job, TypedHandle { handle, map: None })
}

/// The submitter-side half of a *value-returning* job: a [`CompletionHandle`]
/// whose slot carries the typed result cell the wrapped closure fills.
///
/// Obtained from [`attach_returning`] or
/// [`ExecutorExt::submit_returning`](super::ExecutorExt::submit_returning).
/// Dropping the handle is always safe (the worker resolves the slot
/// regardless); the result is simply discarded.
#[must_use = "a dropped TypedHandle silently discards the job's result; call wait() or drop it explicitly"]
pub struct TypedHandle<R> {
    handle: CompletionHandle,
    map: MapFn<R>,
}

impl<R> std::fmt::Debug for TypedHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedHandle")
            .field("status", &self.handle.status())
            .finish()
    }
}

impl<R: Send + 'static> TypedHandle<R> {
    /// The job's status, if it has finished (without consuming the result).
    pub fn status(&self) -> Option<JobStatus> {
        self.handle.status()
    }

    /// Whether the job has finished (in any way).
    pub fn is_finished(&self) -> bool {
        self.handle.status().is_some()
    }

    /// Blocks the calling thread until the job finishes, then returns its
    /// value — or the typed error explaining why there is none.
    pub fn wait(self) -> Result<R, JobError> {
        match self.handle.wait() {
            JobStatus::Done => Ok(take_value(&self.handle.slot, self.map)),
            status => Err(status_to_error(status)),
        }
    }

    /// Returns a handle yielding `f(result)` instead of the raw result. The
    /// transform runs lazily on the *waiting* thread when the value is taken,
    /// never on the worker.
    pub fn map<U, F>(self, f: F) -> TypedHandle<U>
    where
        U: Send + 'static,
        F: FnOnce(R) -> U + Send + 'static,
    {
        let TypedHandle { handle, map } = self;
        let map = compose(map, f);
        TypedHandle { handle, map }
    }
}

/// Future returned by
/// [`ExecutorExt::submit_async_returning`](super::ExecutorExt::submit_async_returning).
///
/// Like [`SubmitFuture`], the job is handed to the executor when the future
/// is created (dropping the future does not cancel it) and the future stays
/// pending while the submission is parked behind a full bounded queue. It
/// resolves to the job's typed result: `Ok(value)` when the handler ran, or a
/// [`JobError`] when it panicked ([`JobError::Panicked`]) or never ran
/// because the executor shut down — before or after admission — which both
/// collapse to [`JobError::Aborted`].
#[must_use = "futures do nothing unless polled; the job's result is silently discarded otherwise"]
pub struct TypedFuture<R> {
    inner: SubmitFuture,
    map: MapFn<R>,
}

impl<R> std::fmt::Debug for TypedFuture<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedFuture")
            .field("status", &self.inner.handle().status())
            .finish()
    }
}

impl<R: Send + 'static> TypedFuture<R> {
    pub(super) fn new(waiter: Option<Arc<SubmitWaiter>>, handle: TypedHandle<R>) -> Self {
        let TypedHandle { handle, map } = handle;
        let inner = SubmitFuture::new(waiter, handle);
        Self { inner, map }
    }

    /// The untyped completion handle of the submitted job.
    pub fn handle(&self) -> &CompletionHandle {
        self.inner.handle()
    }

    /// Returns a future resolving to `f(result)` instead of the raw result.
    /// The transform runs on the polling task, never on the worker.
    pub fn map<U, F>(self, f: F) -> TypedFuture<U>
    where
        U: Send + 'static,
        F: FnOnce(R) -> U + Send + 'static,
    {
        let TypedFuture { inner, map } = self;
        let map = compose(map, f);
        TypedFuture { inner, map }
    }

    /// Drives the future to completion on the calling thread (convenience
    /// over [`block_on`]).
    pub fn wait(self) -> Result<R, JobError> {
        block_on(self)
    }
}

/// The future of a job submitted by other means (a
/// [`SubmitBatch`](super::SubmitBatch) entry from [`attach_returning`]): it
/// awaits no admission, only the job — [`JobError::Aborted`] if it is dropped.
impl<R: Send + 'static> From<TypedHandle<R>> for TypedFuture<R> {
    fn from(handle: TypedHandle<R>) -> Self {
        Self::new(None, handle)
    }
}

impl<R: Send + 'static> Future for TypedFuture<R> {
    type Output = Result<R, JobError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(JobStatus::Done)) => {
                let slot = &this.inner.handle.slot;
                Poll::Ready(Ok(take_value(slot, this.map.take())))
            }
            Poll::Ready(Ok(status)) => Poll::Ready(Err(status_to_error(status))),
            Poll::Ready(Err(shutdown)) => Poll::Ready(Err(shutdown.into())),
        }
    }
}

struct WaiterState {
    decision: Option<Result<(), ShutdownError>>,
    waker: Option<Waker>,
    /// Whether a thread is blocked in [`SubmitWaiter::wait`]. The decision
    /// only needs a condvar notify (a system call) when one is; async
    /// pollers and submissions admitted on the spot never are.
    blocked: bool,
}

/// A single-submission admission waiter for bounded queues.
///
/// The executor decides each waiter exactly once: [`admit`](Self::admit) when
/// the parked submission has been moved into the queue, or
/// [`abort`](Self::abort) when the executor shut down before admitting it.
/// One waiter belongs to exactly one submission; FIFO fairness comes from the
/// executor's overflow list, not from this type.
pub struct SubmitWaiter {
    state: Mutex<WaiterState>,
    cv: Condvar,
}

impl std::fmt::Debug for SubmitWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitWaiter")
            .field("decision", &self.state.lock().decision)
            .finish()
    }
}

impl SubmitWaiter {
    /// Creates an undecided waiter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(WaiterState {
                decision: None,
                waker: None,
                blocked: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn decide(&self, decision: Result<(), ShutdownError>) {
        let (waker, blocked) = {
            let mut st = self.state.lock();
            if st.decision.is_some() {
                return;
            }
            st.decision = Some(decision);
            (st.waker.take(), st.blocked)
        };
        // `blocked` is set under the same mutex before the waiter's first
        // look at `decision`, so a waiter this misses has already seen it.
        if blocked {
            self.cv.notify_all();
        }
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Signals that the submission was admitted into the queue.
    pub fn admit(&self) {
        self.decide(Ok(()));
    }

    /// Signals that the executor shut down before admitting the submission;
    /// the parked job has been dropped.
    pub fn abort(&self) {
        self.decide(Err(ShutdownError));
    }

    /// Whether the executor has decided this waiter yet.
    pub fn is_decided(&self) -> bool {
        self.state.lock().decision.is_some()
    }

    /// Blocks the calling thread until the submission is admitted or aborted.
    pub fn wait(&self) -> Result<(), ShutdownError> {
        let mut st = self.state.lock();
        loop {
            if let Some(decision) = st.decision {
                return decision;
            }
            st.blocked = true;
            self.cv.wait_for(&mut st, PARK_BACKSTOP);
        }
    }

    /// Polls for the admission decision, registering `cx`'s waker while the
    /// submission is still parked.
    pub fn poll_decided(&self, cx: &mut Context<'_>) -> Poll<Result<(), ShutdownError>> {
        let mut st = self.state.lock();
        if let Some(decision) = st.decision {
            return Poll::Ready(decision);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Future returned by [`ExecutorExt::submit_async`](super::ExecutorExt::submit_async).
///
/// The job is handed to the executor when the future is *created* (dropping
/// the future does not cancel the job). The future resolves in two phases:
/// first it waits for the submission to be admitted past the executor's
/// capacity bound (backpressure — the future stays pending, parking the async
/// caller instead of a thread), then for the job to finish. It resolves to
/// `Err(ShutdownError)` if the executor shut down before admitting the job,
/// and to `Ok(status)` once the admitted job ran (or was dropped at
/// shutdown, `Ok(JobStatus::Aborted)`).
#[derive(Debug)]
#[must_use = "futures do nothing unless polled; the submission still happens, but its outcome is silently discarded"]
pub struct SubmitFuture {
    /// The admission still awaited; `None` once admitted.
    waiter: Option<Arc<SubmitWaiter>>,
    handle: CompletionHandle,
}

impl SubmitFuture {
    pub(super) fn new(waiter: Option<Arc<SubmitWaiter>>, handle: CompletionHandle) -> Self {
        Self { waiter, handle }
    }

    /// The completion handle of the submitted job.
    pub fn handle(&self) -> &CompletionHandle {
        &self.handle
    }
}

impl Future for SubmitFuture {
    type Output = Result<JobStatus, ShutdownError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(waiter) = &this.waiter {
            match waiter.poll_decided(cx) {
                Poll::Ready(Ok(())) => this.waiter = None,
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
        Pin::new(&mut this.handle).poll(cx).map(Ok)
    }
}

struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    /// The waker of every [`block_on`] on this thread, built on first use.
    static THREAD_WAKER: Waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
}

/// The calling thread's waker, the one [`block_on`] polls with: waking it
/// unparks this thread. Only its first use on a thread allocates.
pub fn thread_waker() -> Waker {
    THREAD_WAKER.with(Waker::clone)
}

/// Drives a single future to completion on the calling thread.
///
/// A dependency-free `block_on` for programs and tests that have no async
/// runtime: the waker (one per thread, reused by every call) unparks this
/// thread, and a parked wait re-checks on the usual defensive backstop.
pub fn block_on<F: Future>(future: F) -> F::Output {
    THREAD_WAKER.with(|waker| {
        let mut cx = Context::from_waker(waker);
        let mut future = std::pin::pin!(future);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(value) => return value,
                Poll::Pending => std::thread::park_timeout(PARK_BACKSTOP),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn finished_job_resolves_done() {
        let (job, handle) = attach(Box::new(|| {}));
        assert_eq!(handle.status(), None);
        job();
        assert_eq!(handle.status(), Some(JobStatus::Done));
        assert_eq!(handle.wait(), JobStatus::Done);
        assert!(JobStatus::Done.is_done());
    }

    #[test]
    fn dropped_job_resolves_aborted() {
        let (job, handle) = attach(Box::new(|| {}));
        drop(job);
        assert_eq!(handle.wait(), JobStatus::Aborted);
        assert!(!JobStatus::Aborted.is_done());
    }

    #[test]
    fn panicking_job_resolves_panicked() {
        let (job, handle) = attach(Box::new(|| panic!("handler failure")));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        assert!(outcome.is_err());
        assert_eq!(handle.wait(), JobStatus::Panicked);
    }

    #[test]
    fn unwatched_resolve_takes_no_lock() {
        // Nobody waits on the slot, so the worker must resolve it without
        // touching the waiters' lock (held here the whole time).
        let (job, handle) = attach(Box::new(|| {}));
        let held = handle.slot.waiters.lock();
        let (done, resolved) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            job();
            done.send(()).unwrap();
        });
        let returned = resolved.recv_timeout(Duration::from_secs(1)).is_ok();
        drop(held);
        worker.join().unwrap();
        assert!(returned, "an unwatched resolve blocked on the slot lock");
        assert_eq!(handle.status(), Some(JobStatus::Done));
    }

    #[test]
    fn handle_is_a_future() {
        let (job, handle) = attach(Box::new(|| {}));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            job();
        });
        assert_eq!(block_on(handle), JobStatus::Done);
        t.join().unwrap();
    }

    /// A waker that counts its wake-ups.
    #[derive(Default)]
    struct CountWakes(std::sync::atomic::AtomicUsize);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountWakes>, Waker) {
        let count = Arc::new(CountWakes::default());
        (Arc::clone(&count), Waker::from(count))
    }

    #[test]
    fn wake_on_finish_registers_nothing_on_a_resolved_slot() {
        let (job, handle) = attach(Box::new(|| {}));
        job();
        let (count, waker) = counting_waker();
        assert_eq!(handle.wake_on_finish(&waker), Some(JobStatus::Done));
        assert!(handle.slot.waiters.lock().waker.is_none());
        assert!(!handle.slot.watched.load(SeqCst));
        assert_eq!(count.0.load(SeqCst), 0);
    }

    #[test]
    fn wake_on_finish_fires_once_after_a_later_resolve() {
        let (job, handle) = attach(Box::new(|| {}));
        let (count, waker) = counting_waker();
        assert_eq!(handle.wake_on_finish(&waker), None);
        assert_eq!(count.0.load(SeqCst), 0);
        job();
        assert_eq!(count.0.load(SeqCst), 1);
        assert_eq!(handle.wake_on_finish(&waker), Some(JobStatus::Done));
        drop(handle);
        assert_eq!(count.0.load(SeqCst), 1);
    }

    #[test]
    fn wake_on_finish_replaces_the_earlier_waker() {
        let (job, handle) = attach(Box::new(|| {}));
        let (first, first_waker) = counting_waker();
        let (second, second_waker) = counting_waker();
        assert_eq!(handle.wake_on_finish(&first_waker), None);
        assert_eq!(handle.wake_on_finish(&second_waker), None);
        // The slot let go of the first waker when the second replaced it.
        assert_eq!(Arc::strong_count(&first), 2);
        job();
        assert_eq!((first.0.load(SeqCst), second.0.load(SeqCst)), (0, 1));
    }

    #[test]
    fn waiter_admission_and_abort() {
        let w = SubmitWaiter::new();
        assert!(!w.is_decided());
        w.admit();
        assert_eq!(w.wait(), Ok(()));
        // First decision wins.
        w.abort();
        assert_eq!(w.wait(), Ok(()));

        let w = SubmitWaiter::new();
        w.abort();
        assert_eq!(w.wait(), Err(ShutdownError));
    }

    #[test]
    fn typed_job_returns_its_value() {
        let (job, handle) = attach_returning(|| 21u64 * 2);
        assert_eq!(handle.status(), None);
        assert!(!handle.is_finished());
        job();
        assert_eq!(handle.status(), Some(JobStatus::Done));
        assert_eq!(handle.wait(), Ok(42));
    }

    #[test]
    fn typed_map_composes_on_the_waiter_side() {
        let (job, handle) = attach_returning(|| 10u32);
        let mapped = handle.map(|v| v + 1).map(|v| format!("={v}"));
        job();
        assert_eq!(mapped.wait(), Ok("=11".to_string()));
    }

    #[test]
    fn typed_panic_is_a_typed_error() {
        let (job, handle) = attach_returning(|| -> u64 { panic!("handler failure") });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        assert!(outcome.is_err());
        assert_eq!(handle.wait(), Err(JobError::Panicked));
    }

    #[test]
    fn typed_dropped_job_is_aborted() {
        let (job, handle) = attach_returning(|| 7u8);
        drop(job);
        assert_eq!(handle.map(|v| v + 1).wait(), Err(JobError::Aborted));
        assert_eq!(JobError::from(ShutdownError), JobError::Aborted);
        assert!(JobError::Panicked.to_string().contains("panicked"));
        assert!(JobError::Aborted.to_string().contains("without running"));
    }

    #[test]
    fn typed_future_resolves_with_the_value() {
        let (job, handle) = attach_returning(|| vec![1u8, 2, 3]);
        let fut = TypedFuture::new(
            Some({
                let w = SubmitWaiter::new();
                w.admit();
                w
            }),
            handle,
        );
        let fut = fut.map(|v| v.len());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            job();
        });
        assert_eq!(block_on(fut), Ok(3));
        t.join().unwrap();
    }

    #[test]
    fn typed_future_maps_shutdown_to_aborted() {
        let (job, handle) = attach_returning(|| 1u8);
        let w = SubmitWaiter::new();
        w.abort();
        let fut = TypedFuture::new(Some(w), handle);
        assert_eq!(fut.wait(), Err(JobError::Aborted));
        drop(job);
    }

    #[test]
    fn block_on_crosses_threads() {
        let w = SubmitWaiter::new();
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            w2.admit();
        });
        let decided = block_on(std::future::poll_fn(|cx| w.poll_decided(cx)));
        assert_eq!(decided, Ok(()));
        t.join().unwrap();
    }
}
