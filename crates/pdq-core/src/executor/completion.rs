//! Completion notification and bounded-submission backpressure.
//!
//! This module is the notification layer between executor worker threads and
//! the code that submitted work to them. It has two halves:
//!
//! * **Completion slots** ([`CompletionHandle`] / [`attach`]): a per-job slot
//!   that is resolved exactly once with a [`JobStatus`] when the job finishes
//!   (or is dropped). Waiters can block ([`CompletionHandle::wait`]), poll a
//!   registered [`Waker`] (the handle is a [`Future`]), or register a
//!   callback ([`CompletionHandle::on_complete`]) — all targeted wakeups, no
//!   broadcast herd.
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
//! closure so its result travels back to the submitter through a typed cell:
//! [`TypedHandle`] (blocking) and [`TypedFuture`] (async) resolve to
//! `Result<R, JobError>`, with handler panics and shutdown-dropped jobs
//! surfaced as [`JobError::Panicked`] / [`JobError::Aborted`] instead of a
//! bare status the caller has to re-interpret. Both carry `map`-style
//! adapters, so reply post-processing composes without re-submitting.

use std::future::Future;
use std::pin::Pin;
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
}

/// Callback registered on a completion slot.
type Callback = Box<dyn FnOnce(JobStatus) + Send + 'static>;

struct SlotState {
    status: Option<JobStatus>,
    started: bool,
    waker: Option<Waker>,
    callbacks: Vec<Callback>,
}

/// One per-job completion slot: resolved exactly once, observed by any number
/// of blocking waiters, one registered waker, and any number of callbacks.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState {
                status: None,
                started: false,
                waker: None,
                callbacks: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Resolves the slot (first resolution wins) and fires every registered
    /// notification mechanism: the condvar for blocking waiters, the waker
    /// for a polling future, and the callbacks.
    fn resolve(&self, status: JobStatus) {
        let (waker, callbacks) = {
            let mut st = self.state.lock();
            if st.status.is_some() {
                return;
            }
            st.status = Some(status);
            (st.waker.take(), std::mem::take(&mut st.callbacks))
        };
        self.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
        for cb in callbacks {
            // Contain callback panics: resolve() runs on the worker thread
            // (sometimes from a Drop during unwinding, where a second panic
            // would abort the process), and a user callback must not corrupt
            // the executor's executed/panicked accounting for a job that
            // already finished.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(status)));
        }
    }
}

/// The worker-side half of a completion slot, embedded in the wrapped job by
/// [`attach`]. Dropping the notifier without [`finish`](Self::finish) resolves
/// the slot as [`JobStatus::Panicked`] (if the job had started — the drop is
/// happening during unwinding) or [`JobStatus::Aborted`] (the job was
/// discarded without running).
struct CompletionNotifier {
    slot: Arc<Slot>,
}

impl CompletionNotifier {
    fn start(&self) {
        self.slot.state.lock().started = true;
    }

    fn finish(self) {
        self.slot.resolve(JobStatus::Done);
        // Drop runs next but resolve() is first-wins, so Done sticks.
    }
}

impl Drop for CompletionNotifier {
    fn drop(&mut self) {
        let started = self.slot.state.lock().started;
        self.slot.resolve(if started {
            JobStatus::Panicked
        } else {
            JobStatus::Aborted
        });
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
    slot: Arc<Slot>,
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
        self.slot.state.lock().status
    }

    /// Blocks the calling thread until the job finishes.
    pub fn wait(&self) -> JobStatus {
        let mut st = self.slot.state.lock();
        loop {
            if let Some(status) = st.status {
                return status;
            }
            self.slot.cv.wait_for(&mut st, PARK_BACKSTOP);
        }
    }

    /// Registers a callback fired exactly once when the job finishes. If the
    /// job has already finished, the callback runs immediately on the calling
    /// thread; otherwise it runs on the worker thread that resolves the slot,
    /// where a panic inside the callback is contained (it neither perturbs
    /// the executor's panic accounting nor aborts the process).
    pub fn on_complete<F>(&self, callback: F)
    where
        F: FnOnce(JobStatus) + Send + 'static,
    {
        let status = {
            let mut st = self.slot.state.lock();
            match st.status {
                Some(status) => status,
                None => {
                    st.callbacks.push(Box::new(callback));
                    return;
                }
            }
        };
        callback(status);
    }
}

impl Future for CompletionHandle {
    type Output = JobStatus;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.slot.state.lock();
        if let Some(status) = st.status {
            return Poll::Ready(status);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Wraps `job` so its completion resolves a fresh slot, and returns the
/// wrapped job plus the slot's [`CompletionHandle`].
///
/// The wrapping is executor-agnostic: any executor that eventually either
/// runs or drops the job resolves the slot, so no executor needs bespoke
/// completion plumbing.
pub fn attach(job: Job) -> (Job, CompletionHandle) {
    let slot = Slot::new();
    let handle = CompletionHandle {
        slot: Arc::clone(&slot),
    };
    let notifier = CompletionNotifier { slot };
    let wrapped: Job = Box::new(move || {
        notifier.start();
        job();
        notifier.finish();
    });
    (wrapped, handle)
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

/// The deferred "take the result out of the cell" step of a typed handle.
/// `map` composes onto this closure, so adapters cost one allocation at
/// `map` time and nothing per poll.
type TakeFn<R> = Box<dyn FnOnce() -> R + Send>;

/// Wraps a value-returning closure so its result travels through a typed
/// cell next to the completion slot. Returns the untyped [`Job`] (submittable
/// to any executor) plus the [`TypedHandle`] that yields the value.
///
/// The wrapping nests [`attach`]: the completion slot still resolves exactly
/// once whether the job runs, panics, or is dropped, and the result cell is
/// filled if and only if the slot resolves [`JobStatus::Done`].
pub fn attach_returning<R, F>(f: F) -> (Job, TypedHandle<R>)
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let cell: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
    let write = Arc::clone(&cell);
    let (job, handle) = attach(Box::new(move || {
        let value = f();
        *write.lock() = Some(value);
    }));
    let take: TakeFn<R> = Box::new(move || {
        cell.lock()
            .take()
            .expect("a Done slot always has its result cell filled")
    });
    (
        job,
        TypedHandle {
            handle,
            take: Some(take),
        },
    )
}

/// The submitter-side half of a *value-returning* job: a [`CompletionHandle`]
/// plus the typed result cell the wrapped closure fills.
///
/// Obtained from [`attach_returning`] or
/// [`ExecutorExt::submit_returning`](super::ExecutorExt::submit_returning).
/// Dropping the handle is always safe (the worker resolves the slot
/// regardless); the result is simply discarded.
#[must_use = "a dropped TypedHandle silently discards the job's result; call wait() or drop it explicitly"]
pub struct TypedHandle<R> {
    handle: CompletionHandle,
    take: Option<TakeFn<R>>,
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
    pub fn wait(mut self) -> Result<R, JobError> {
        match self.handle.wait() {
            JobStatus::Done => Ok((self.take.take().expect("take runs once"))()),
            status => Err(status_to_error(status)),
        }
    }

    /// Returns a handle yielding `f(result)` instead of the raw result. The
    /// transform runs lazily on the *waiting* thread when the value is taken,
    /// never on the worker.
    pub fn map<U, F>(mut self, f: F) -> TypedHandle<U>
    where
        U: Send + 'static,
        F: FnOnce(R) -> U + Send + 'static,
    {
        let take = self.take.take().expect("take runs once");
        TypedHandle {
            handle: CompletionHandle {
                slot: Arc::clone(&self.handle.slot),
            },
            take: Some(Box::new(move || f(take()))),
        }
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
    take: Option<TakeFn<R>>,
}

impl<R> std::fmt::Debug for TypedFuture<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedFuture")
            .field("status", &self.inner.handle().status())
            .finish()
    }
}

impl<R: Send + 'static> TypedFuture<R> {
    pub(super) fn new(waiter: Arc<SubmitWaiter>, handle: TypedHandle<R>) -> Self {
        let TypedHandle { handle, take } = handle;
        Self {
            inner: SubmitFuture::new(waiter, handle),
            take,
        }
    }

    /// The untyped completion handle of the submitted job.
    pub fn handle(&self) -> &CompletionHandle {
        self.inner.handle()
    }

    /// Returns a future resolving to `f(result)` instead of the raw result.
    /// The transform runs on the polling task, never on the worker.
    pub fn map<U, F>(mut self, f: F) -> TypedFuture<U>
    where
        U: Send + 'static,
        F: FnOnce(R) -> U + Send + 'static,
    {
        let take = self.take.take().expect("take runs once");
        TypedFuture {
            inner: self.inner,
            take: Some(Box::new(move || f(take()))),
        }
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
    fn from(TypedHandle { handle, take }: TypedHandle<R>) -> Self {
        let waiter = None;
        let inner = SubmitFuture { waiter, handle };
        Self { inner, take }
    }
}

impl<R: Send + 'static> Future for TypedFuture<R> {
    type Output = Result<R, JobError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(JobStatus::Done)) => {
                Poll::Ready(Ok((this.take.take().expect("polled after Ready"))()))
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
    pub(super) fn new(waiter: Arc<SubmitWaiter>, handle: CompletionHandle) -> Self {
        Self {
            waiter: Some(waiter),
            handle,
        }
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

/// Drives a single future to completion on the calling thread.
///
/// A dependency-free `block_on` for programs and tests that have no async
/// runtime: the waker unparks this thread, and a parked wait re-checks on the
/// usual defensive backstop.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park_timeout(PARK_BACKSTOP),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
    fn callbacks_fire_once_on_completion() {
        let fired = Arc::new(AtomicU64::new(0));
        let (job, handle) = attach(Box::new(|| {}));
        let f = Arc::clone(&fired);
        handle.on_complete(move |status| {
            assert_eq!(status, JobStatus::Done);
            f.fetch_add(1, Ordering::SeqCst);
        });
        job();
        // A callback registered after completion runs immediately.
        let f = Arc::clone(&fired);
        handle.on_complete(move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_callback_is_contained() {
        let fired = Arc::new(AtomicU64::new(0));
        let (job, handle) = attach(Box::new(|| {}));
        handle.on_complete(|_| panic!("callback failure"));
        let f = Arc::clone(&fired);
        handle.on_complete(move |_| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        // The wrapped job resolves the slot; the panicking callback must not
        // escape into the job (the executor would miscount it as a handler
        // panic) and must not stop later callbacks.
        job();
        assert_eq!(handle.status(), Some(JobStatus::Done));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
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
            {
                let w = SubmitWaiter::new();
                w.admit();
                w
            },
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
        let fut = TypedFuture::new(w, handle);
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
