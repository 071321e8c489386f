//! The benchmark's own tracing: span records keyed by request id, and the
//! wrappers that stamp them around the calls into each layer — a
//! [`SpanService`] around the service, a [`SpanSink`] under the write-ahead
//! log, a [`TimedExecutor`] under the sweep engine. Nothing inside the
//! library is instrumented; every stamp is taken at a boundary the benchmark
//! can reach from outside, on one clock ([`now_ns`]).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use pdq_core::executor::{
    Executor, ExecutorExt, ExecutorStats, Job, SubmitBatch, SubmitWaiter, TrySubmitError,
    TypedFuture, TypedHandle,
};
use pdq_core::{ShutdownError, SyncKey};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::wal::WalSink;
use pdq_workloads::{BatchService, ExecutorService, ProtocolService, Reply, ServerAggregate};

use crate::clock::now_ns;
use crate::wire::request_id;

/// The stamps of one traced request. Each field is written by exactly one
/// thread (generator, server tier, or executor worker) and read after the
/// run, so relaxed stores suffice.
#[derive(Debug, Default)]
pub struct Rec {
    /// When the schedule said the request should be sent.
    pub due: AtomicU64,
    /// When the generator put it on the wire.
    pub sent: AtomicU64,
    /// When the server tier handed it to the service (`prepare`/`call`).
    pub prepare: AtomicU64,
    /// When the call that got the executor to accept it began (the admitting
    /// `try_admit`; the submission inside `call`). The handler cannot start
    /// before it.
    pub admitted: AtomicU64,
    /// Handler start and end, stamped inside the wrapped job.
    pub start: AtomicU64,
    pub end: AtomicU64,
    /// When the generator parsed its verified ack.
    pub ack: AtomicU64,
}

/// The stamps of one request, read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    pub due: u64,
    pub sent: u64,
    pub prepare: u64,
    pub admitted: u64,
    pub start: u64,
    pub end: u64,
    pub ack: u64,
}

/// The five segments a reply's latency splits into, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segments {
    /// due → `prepare`: generator lateness, socket, read, decode.
    pub ingress: u64,
    /// `prepare` → admitted: building the job and waiting for queue room.
    pub admit_wait: u64,
    /// admitted → handler start: the paper's dispatch wait, key-blocked time
    /// included.
    pub queue_wait: u64,
    /// handler start → end.
    pub run: u64,
    /// handler end → verified ack at the client.
    pub egress: u64,
}

impl Segments {
    #[cfg(test)]
    pub fn sum(&self) -> u64 {
        self.ingress + self.admit_wait + self.queue_wait + self.run + self.egress
    }
}

impl Chain {
    /// Splits the latency into its segments, or `None` if a stamp is missing
    /// or out of order. The segments telescope, so they sum to exactly
    /// `ack - due`; what this checks is that every boundary was stamped, in
    /// the order the request crossed them.
    ///
    /// One stamp is taken on the far side of the event it marks: handler end
    /// is read after the job has published its reply, and a worker descheduled
    /// in between stamps it after the ack reached the client. That one is
    /// pulled back to the ack ([`Chain::end_after_ack`] says when).
    pub fn segments(&self) -> Option<Segments> {
        let end = self.end.min(self.ack);
        let ordered = self.due > 0
            && self.end > 0
            && self.due <= self.prepare
            && self.prepare <= self.admitted
            && self.admitted <= self.start
            && self.start <= end;
        ordered.then(|| Segments {
            ingress: self.prepare - self.due,
            admit_wait: self.admitted - self.prepare,
            queue_wait: self.start - self.admitted,
            run: end - self.start,
            egress: self.ack - end,
        })
    }

    /// Whether the handler-end stamp was taken after the client had the ack.
    pub fn end_after_ack(&self) -> bool {
        self.end > self.ack
    }

    #[cfg(test)]
    pub fn latency(&self) -> u64 {
        self.ack - self.due
    }
}

/// Pre-allocated span records, indexed by request id (`1..capacity`; `0`
/// means "no id").
#[derive(Debug)]
pub struct SpanTable {
    recs: Vec<Rec>,
    next: AtomicU64,
}

impl SpanTable {
    pub fn new(capacity: usize) -> Arc<Self> {
        let mut recs = Vec::new();
        recs.resize_with(capacity.max(2), Rec::default);
        Arc::new(Self {
            recs,
            next: AtomicU64::new(1),
        })
    }

    /// The next free id, or `0` once the table is full.
    pub fn allocate(&self) -> u32 {
        let id = self.next.fetch_add(1, Relaxed);
        if (id as usize) < self.recs.len() {
            id as u32
        } else {
            0
        }
    }

    /// The record of `id`, if it is one this table handed out.
    pub fn rec(&self, id: u64) -> Option<&Rec> {
        if id == 0 {
            return None;
        }
        usize::try_from(id).ok().and_then(|i| self.recs.get(i))
    }

    /// Ids handed out so far.
    pub fn allocated(&self) -> usize {
        (self.next.load(Relaxed) as usize).min(self.recs.len()) - 1
    }

    pub fn chain(&self, id: u32) -> Chain {
        let r = &self.recs[id as usize];
        Chain {
            due: r.due.load(Relaxed),
            sent: r.sent.load(Relaxed),
            prepare: r.prepare.load(Relaxed),
            admitted: r.admitted.load(Relaxed),
            start: r.start.load(Relaxed),
            end: r.end.load(Relaxed),
            ack: r.ack.load(Relaxed),
        }
    }

    /// Every allocated id's chain.
    pub fn chains(&self) -> impl Iterator<Item = (u32, Chain)> + '_ {
        (1..=self.allocated() as u32).map(|id| (id, self.chain(id)))
    }

    /// Writes the span chains of up to `limit` complete requests as JSON
    /// lines (`name`, `start_ns`, `end_ns`, `parent`, `req`): one `request`
    /// root per request and its six children. Returns how many requests were
    /// written.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        let mut written = 0;
        for (id, c) in self.chains() {
            if written >= limit {
                break;
            }
            if c.segments().is_none() {
                continue;
            }
            let (admitted, end) = (c.admitted, c.end.min(c.ack));
            let spans = [
                ("request", c.due, c.ack, "null"),
                (
                    "loadgen.send",
                    c.due,
                    c.sent.clamp(c.due, c.prepare),
                    "\"request\"",
                ),
                (
                    "server.ingress",
                    c.sent.clamp(c.due, c.prepare),
                    c.prepare,
                    "\"request\"",
                ),
                ("service.admit", c.prepare, admitted, "\"request\""),
                ("executor.queue_wait", admitted, c.start, "\"request\""),
                ("handler.run", c.start, end, "\"request\""),
                ("server.egress", end, c.ack, "\"request\""),
            ];
            for (name, start, end, parent) in spans {
                writeln!(
                    out,
                    "{{\"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \
                     \"parent\": {parent}, \"req\": {id}}}"
                )?;
            }
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Time and counts the [`SpanService`] gathered at the service boundary.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    pub calls: AtomicU64,
    pub call_ns: AtomicU64,
    pub prepares: AtomicU64,
    pub prepare_ns: AtomicU64,
    pub admit_calls: AtomicU64,
    pub admit_ns: AtomicU64,
    /// Entries offered to `try_admit`, summed over calls.
    pub offered: AtomicU64,
    /// Entries it admitted.
    pub admitted: AtomicU64,
}

/// Ids of the requests this thread has prepared and the executor has not
/// admitted yet, kept in step with the server's own parked batches. The
/// server prepares a connection's frames and admits that connection's batch
/// on one thread, so the bookkeeping is per thread and takes no lock.
#[derive(Debug, Default)]
struct Parked {
    /// Prepared since this thread's last `try_admit`.
    fresh: Vec<u32>,
    /// Per batch still holding entries (identified by its address), oldest
    /// first.
    batches: HashMap<usize, VecDeque<u32>>,
}

thread_local! {
    static PARKED: RefCell<Parked> = RefCell::default();
}

/// `ProtocolService + BatchService` around [`ExecutorService`] that times
/// `call`/`prepare`/`try_admit` and wraps each job to stamp handler start
/// and end. Records, never steers: every request reaches the inner service
/// unchanged.
pub struct SpanService<'a> {
    inner: ExecutorService<'a>,
    executor: &'a dyn Executor,
    table: Arc<SpanTable>,
    pub counters: ServiceCounters,
}

impl std::fmt::Debug for SpanService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanService")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<'a> SpanService<'a> {
    pub fn new(executor: &'a dyn Executor, blocks: u64, table: Arc<SpanTable>) -> Self {
        Self {
            inner: ExecutorService::new(executor, blocks),
            executor,
            table,
            counters: ServiceCounters::default(),
        }
    }

    /// The id of `request` if it is one the table handed out.
    fn traced_id(&self, request: &ProtocolEvent) -> u32 {
        request_id(request)
            .filter(|&id| self.table.rec(id).is_some())
            .map_or(0, |id| id as u32)
    }

    /// Wraps `job` so it stamps handler start and end into `id`'s record.
    fn stamp_job(&self, id: u32, job: Job) -> Job {
        if id == 0 {
            return job;
        }
        let table = Arc::clone(&self.table);
        Box::new(move || {
            let start = now_ns();
            job();
            let end = now_ns();
            if let Some(rec) = table.rec(u64::from(id)) {
                rec.start.store(start, Relaxed);
                rec.end.store(end, Relaxed);
            }
        })
    }
}

impl ProtocolService for SpanService<'_> {
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
        let t0 = now_ns();
        let id = self.traced_id(&request);
        let (key, job, handle) = self.inner.prepare(request);
        let job = self.stamp_job(id, job);
        let submitting = now_ns();
        // The inner job runs inside the submitted one, so by the time the
        // outer future resolves `handle` already holds the reply.
        let future = self
            .executor
            .submit_async_returning(key, job)
            .map(move |()| {
                handle
                    .wait()
                    .expect("the inner job ran inside the outer one")
            });
        let t1 = now_ns();
        if let Some(rec) = self.table.rec(u64::from(id)) {
            rec.prepare.store(t0, Relaxed);
            rec.admitted.store(submitting, Relaxed);
        }
        self.counters.calls.fetch_add(1, Relaxed);
        self.counters.call_ns.fetch_add(t1 - t0, Relaxed);
        future
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn aggregate(&self, completed: u64) -> ServerAggregate {
        self.inner.aggregate(completed)
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        self.inner.snapshot_words()
    }
}

impl BatchService for SpanService<'_> {
    fn prepare(&self, request: ProtocolEvent) -> (SyncKey, Job, TypedHandle<Reply>) {
        let t0 = now_ns();
        let id = self.traced_id(&request);
        let (key, job, handle) = self.inner.prepare(request);
        let job = self.stamp_job(id, job);
        let t1 = now_ns();
        if let Some(rec) = self.table.rec(u64::from(id)) {
            rec.prepare.store(t0, Relaxed);
        }
        PARKED.with_borrow_mut(|parked| parked.fresh.push(id));
        self.counters.prepares.fetch_add(1, Relaxed);
        self.counters.prepare_ns.fetch_add(t1 - t0, Relaxed);
        (key, job, handle)
    }

    fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
        let t0 = now_ns();
        let offered = batch.len();
        let result = self.inner.try_admit(batch);
        let t1 = now_ns();
        let admitted = *result.as_ref().unwrap_or(&0);
        PARKED.with_borrow_mut(|parked| {
            // This thread's fresh ids are exactly the entries the server
            // appended to `batch` since its last admission pass.
            let fresh = std::mem::take(&mut parked.fresh);
            let address = batch as *const SubmitBatch as usize;
            let queue = parked.batches.entry(address).or_default();
            queue.extend(fresh);
            // Going in, `batch` held `offered` entries and the queue mirrors
            // them from the back. Older ids are from a batch that was dropped
            // unadmitted at this address; missing ones from one that moved
            // here, and stay untraced.
            while queue.len() > offered {
                queue.pop_front();
            }
            while queue.len() < offered {
                queue.push_front(0);
            }
            for id in queue.drain(..admitted.min(offered)) {
                if let Some(rec) = self.table.rec(u64::from(id)) {
                    rec.admitted.store(t0, Relaxed);
                }
            }
            if queue.is_empty() {
                parked.batches.remove(&address);
            }
        });
        self.counters.admit_calls.fetch_add(1, Relaxed);
        self.counters.admit_ns.fetch_add(t1 - t0, Relaxed);
        self.counters.offered.fetch_add(offered as u64, Relaxed);
        self.counters.admitted.fetch_add(admitted as u64, Relaxed);
        result
    }
}

/// What the [`SpanSink`] saw of the log's writes.
#[derive(Debug, Default)]
pub struct SinkStats {
    /// `write` calls that reached the file (after buffering).
    pub write_calls: AtomicU64,
    pub bytes: AtomicU64,
    /// Duration of each `persist` (flush + `fdatasync`), in nanoseconds.
    pub sync_ns: Mutex<Vec<u64>>,
}

#[derive(Debug)]
struct CountingFile {
    file: File,
    stats: Arc<SinkStats>,
}

impl Write for CountingFile {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.file.write(data)?;
        self.stats.write_calls.fetch_add(1, Relaxed);
        self.stats.bytes.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// A `WalSink` shaped like the one `WalWriter::create` builds (a buffered
/// file whose barrier is `fdatasync`) that counts what reaches the file and
/// times every barrier.
#[derive(Debug)]
pub struct SpanSink {
    inner: BufWriter<CountingFile>,
    stats: Arc<SinkStats>,
}

impl SpanSink {
    /// Creates (or truncates) `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the file or its directory.
    pub fn create(path: &std::path::Path, stats: Arc<SinkStats>) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        Ok(Self {
            inner: BufWriter::new(CountingFile {
                file,
                stats: Arc::clone(&stats),
            }),
            stats,
        })
    }
}

impl Write for SpanSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.inner.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl WalSink for SpanSink {
    fn persist(&mut self) -> io::Result<()> {
        let t0 = now_ns();
        self.inner.flush()?;
        self.inner.get_ref().file.sync_data()?;
        let elapsed = now_ns() - t0;
        self.stats
            .sync_ns
            .lock()
            .expect("sync samples")
            .push(elapsed);
        Ok(())
    }
}

/// Submit, start and end of one job that went through a [`TimedExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct JobSpan {
    pub submit: u64,
    pub start: u64,
    pub end: u64,
}

/// An [`Executor`] that forwards everything to the one it wraps and stamps
/// each job's submit, start and end — how the benchmark sees individual
/// simulation cells inside a `SweepEngine` from outside.
#[derive(Debug)]
pub struct TimedExecutor {
    inner: Box<dyn Executor>,
    spans: Arc<Mutex<Vec<JobSpan>>>,
}

impl TimedExecutor {
    pub fn new(inner: Box<dyn Executor>) -> (Self, Arc<Mutex<Vec<JobSpan>>>) {
        let spans = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                spans: Arc::clone(&spans),
            },
            spans,
        )
    }

    fn wrap(&self, job: Job) -> Job {
        let spans = Arc::clone(&self.spans);
        let submit = now_ns();
        Box::new(move || {
            let start = now_ns();
            job();
            let end = now_ns();
            spans
                .lock()
                .expect("job spans")
                .push(JobSpan { submit, start, end });
        })
    }
}

impl Executor for TimedExecutor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn try_submit(&self, key: SyncKey, job: Job) -> Result<(), TrySubmitError> {
        self.inner.try_submit(key, self.wrap(job))
    }

    fn submit_queued(&self, key: SyncKey, job: Job, waiter: Arc<SubmitWaiter>) {
        self.inner.submit_queued(key, self.wrap(job), waiter);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn stats(&self) -> ExecutorStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(stamps: [u64; 7]) -> Chain {
        let [due, sent, prepare, admitted, start, end, ack] = stamps;
        Chain {
            due,
            sent,
            prepare,
            admitted,
            start,
            end,
            ack,
        }
    }

    #[test]
    fn segments_sum_to_the_latency_exactly() {
        let c = chain([100, 130, 400, 450, 700, 760, 1_000]);
        let s = c.segments().unwrap();
        assert_eq!(
            s,
            Segments {
                ingress: 300,
                admit_wait: 50,
                queue_wait: 250,
                run: 60,
                egress: 240
            }
        );
        assert_eq!(s.sum(), c.latency());
        // Missing or disordered stamps have no segments.
        assert!(chain([100, 130, 400, 450, 0, 0, 1_000])
            .segments()
            .is_none());
        assert!(chain([0, 0, 0, 0, 0, 0, 0]).segments().is_none());
        assert!(chain([100, 130, 400, 450, 1_100, 1_200, 1_000])
            .segments()
            .is_none());
        // A handler cannot start before the call that admitted it began.
        assert!(chain([100, 130, 400, 720, 700, 760, 1_000])
            .segments()
            .is_none());
        // The end stamp landing after the ack is pulled back to the ack, and
        // says so.
        let late_end = chain([100, 130, 400, 450, 700, 1_200, 1_000]);
        let s = late_end.segments().unwrap();
        assert_eq!((s.run, s.egress), (300, 0));
        assert_eq!(s.sum(), late_end.latency());
        assert!(late_end.end_after_ack() && !c.end_after_ack());
    }

    #[test]
    fn table_hands_out_ids_until_full_and_writes_complete_chains() {
        let table = SpanTable::new(4);
        assert_eq!(
            [table.allocate(), table.allocate(), table.allocate()],
            [1, 2, 3]
        );
        assert_eq!(table.allocate(), 0);
        assert_eq!(table.allocated(), 3);
        assert!(table.rec(0).is_none() && table.rec(4).is_none());
        for (field, value) in [100u64, 130, 400, 450, 700, 760, 1_000]
            .into_iter()
            .enumerate()
        {
            let r = table.rec(2).unwrap();
            [
                &r.due,
                &r.sent,
                &r.prepare,
                &r.admitted,
                &r.start,
                &r.end,
                &r.ack,
            ][field]
                .store(value, Relaxed);
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/tmp")
            .join(format!("span-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        assert_eq!(table.write_jsonl(&path, 10).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            let span = crate::json::Json::parse(line).unwrap();
            assert_eq!(span.get("req").and_then(|r| r.as_f64()), Some(2.0));
            assert!(span.get("name").is_some() && span.get("parent").is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The id bookkeeping against the real tier: an executor with room for
    /// two jobs refuses most of every batch `serve_poll` offers, so requests
    /// park and are retried, and still every traced request must come out
    /// with all its stamps, in order.
    #[test]
    fn chains_stay_ordered_when_serve_poll_admissions_are_refused() {
        use crate::loadgen::{OpenLoop, Segment};
        use crate::wire::{RequestPool, BLOCKS};
        use pdq_core::executor::{build_executor, ExecutorSpec};
        use pdq_workloads::{serve_poll, PollOptions};

        let pools = [RequestPool::generate(5, 0, 2048)];
        let table = SpanTable::new(8192);
        let mut executor = build_executor("pdq", &ExecutorSpec::new(2).capacity(2)).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (outcome, offered, admitted) = {
            let service = SpanService::new(&*executor, BLOCKS, Arc::clone(&table));
            let options = PollOptions::new(1, 1);
            let outcome = std::thread::scope(|scope| {
                let server = scope.spawn(|| serve_poll(&listener, &service, &options));
                let mut open = OpenLoop::connect(addr, &pools, 5, Some(&table)).unwrap();
                let burst = Segment {
                    rate: 100_000.0,
                    settle_ns: 0,
                    windows: 1,
                    window_ns: 20_000_000,
                };
                let error = open.run_segment(burst, |_| {}).err();
                let outcome = open.finish(error);
                server.join().unwrap().unwrap();
                outcome
            });
            let c = &service.counters;
            (outcome, c.offered.load(Relaxed), c.admitted.load(Relaxed))
        };
        executor.shutdown();
        assert_eq!((outcome.failed, &outcome.error), (0, &None));
        assert!(offered > admitted, "no admission was refused");
        let chains: Vec<(u32, Chain)> = table.chains().collect();
        assert!(chains.len() > 500, "{} traced requests", chains.len());
        for (id, chain) in chains {
            assert!(chain.segments().is_some(), "request {id}: {chain:?}");
        }
    }
}
