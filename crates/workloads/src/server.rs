//! Multi-connection protocol server: the network edge of the PDQ pipeline.
//!
//! The paper's point is parallelizing fine-grain protocol *dispatch*. This
//! module turns the protocol service into a real network server in two
//! tiers, both drivers of one connection state machine (`Conn`, in `conn.rs`):
//!
//! * [`serve_pool`] — **thread-per-connection pool**. Every accepted
//!   connection gets a scoped thread running the blocking
//!   [`serve_observed`] loop against the *shared*
//!   service, so all connections feed one executor. Optionally, each
//!   connection write-ahead-logs its events into its own directory
//!   (`conn-NNNN` under a shared root), so durability works over real
//!   sockets.
//! * [`serve_poll`] — **readiness-polled event loop**. A small bounded set of
//!   worker threads multiplexes hundreds of non-blocking connections
//!   (`set_nonblocking(true)` over `std::net`), resuming partial
//!   reads/writes with the staged frame codec
//!   ([`FrameDecoder`] /
//!   [`FrameEncoder`]). On the hot path a
//!   readiness wakeup drains *every* buffered frame and admits the decoded
//!   events through **one** [`BatchService::try_admit`] call (one amortized
//!   `try_submit_batch` pass) instead of a per-frame `service.call`.
//!
//! # Flow control (poll tier)
//!
//! Executor backpressure becomes TCP pushback instead of unbounded buffers.
//! A connection is read **only** while all of these hold:
//!
//! ```text
//!   parked admission queue empty        (executor accepted everything)
//!   in-flight handles < max_pending     (reply window not exhausted)
//!   encoder backlog < write watermark   (peer is draining its replies)
//!   no control request waiting          (its answer is next in order)
//!   stream not at EOF
//! ```
//!
//! When `try_admit` refuses entries (executor queue full), the leftovers stay
//! in a per-connection parked batch, read interest drops, and the kernel's
//! receive buffer fills until TCP pushes back on the client. Each such
//! suspension is counted ([`PollReport::suspensions`]) so backpressure is
//! observable, not inferred.
//!
//! A worker whose sweep moved nothing registers its thread's waker on each
//! connection's oldest admitted call ([`CompletionHandle::wake_on_finish`])
//! and parks until the first one finishes; with none admitted, it sleeps.
//!
//! # Determinism
//!
//! Handler effects are commutative, so the merged aggregate of an N-client
//! run is a pure function of the *multiset* of delivered events: byte-
//! identical to [`reference_aggregate`](crate::reference_aggregate) over the
//! concatenated per-client streams, whatever the executor, tier, or
//! interleaving. [`client_config`] derives per-client seeds via
//! `DetRng::stream`, and [`merged_reference_aggregate`] is the sequential
//! fold the drivers compare against.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use pdq_core::executor::{thread_waker, CompletionHandle, SubmitBatch};
use pdq_sim::DetRng;

use crate::conn::Conn;
use crate::metrics::{ConnObs, Observability};
use crate::protocol_server::{ServerAggregate, ServerConfig, ServerError};
use crate::service::{frame_error, serve_observed, BatchService, Durability, ProtocolService};
use crate::transport::{FrameDecoder, FrameEncoder, TcpTransport};
use crate::wal::WalWriter;

/// Encoder backlog (bytes staged and unaccepted by the socket) above which
/// the poll loop stops reading a connection: a peer that sends requests but
/// never drains replies must not grow the outgoing buffer without bound.
const ENCODER_WRITE_WATERMARK: usize = 64 * 1024;

/// How long a poll worker sleeps when a sweep made no progress (no bytes
/// moved, no jobs admitted, no acks resolved) and no call is admitted, and
/// the backstop of its park when one is. Small enough to keep added reply
/// latency in the hundreds of microseconds, large enough not to spin a core.
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// Per-connection write-ahead-log configuration for [`serve_pool`]: each
/// accepted connection logs into its own `conn-NNNN` directory under
/// [`root`](Self::root), so recovery can replay each connection's stream
/// independently ([`pool_wal_dir`] names the directories).
#[derive(Debug, Clone)]
pub struct PoolWal {
    /// Directory that holds one `conn-NNNN` subdirectory per connection.
    pub root: PathBuf,
    /// Cache-block count recorded in each log header.
    pub blocks: u64,
    /// Events between sync points (clamped to at least 1).
    pub sync_every: u64,
    /// Events between snapshot records; `0` disables snapshots.
    pub snapshot_every: u64,
    /// Fault injection: arm every connection's log to die with a torn
    /// half-record after this many appended events (the crash-recovery
    /// smoke). `None` in production use.
    pub crash_after: Option<u64>,
}

/// Options for the thread-per-connection pool tier ([`serve_pool`]).
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// The server reply window each connection's serve loop runs with
    /// (clients must drive a strictly larger window, as with
    /// [`serve`](crate::serve)).
    pub window: usize,
    /// How many connections to accept before the server stops accepting and
    /// waits for the accepted ones to finish.
    pub accept: usize,
    /// Optional per-connection write-ahead logging.
    pub wal: Option<PoolWal>,
}

impl PoolOptions {
    /// A pool serving `accept` connections with reply window `window`, no
    /// durability.
    pub fn new(accept: usize, window: usize) -> Self {
        Self {
            window,
            accept,
            wal: None,
        }
    }
}

/// What a [`serve_pool`] run did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Event acks sent, summed over all connections.
    pub answered: u64,
}

/// The WAL directory [`serve_pool`] uses for connection `index` under
/// `root` — `root/conn-NNNN`. Recovery tooling lists these to replay each
/// connection's log.
pub fn pool_wal_dir(root: &std::path::Path, index: usize) -> PathBuf {
    root.join(format!("conn-{index:04}"))
}

fn serve_pool_conn(
    stream: TcpStream,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
    index: usize,
    obs: Option<&Observability>,
) -> Result<u64, ServerError> {
    stream.set_nodelay(true)?;
    let mut transport = TcpTransport::new(stream)?;
    let mut wal = match &opts.wal {
        None => None,
        Some(w) => {
            let mut wal = WalWriter::create(&pool_wal_dir(&w.root, index), w.blocks)?;
            if let Some(n) = w.crash_after {
                wal.arm_crash_after_events(n);
            }
            if let Some(o) = obs {
                wal.set_metrics(o.wal_metrics(index as u64));
            }
            Some((wal, w))
        }
    };
    let durability = match &mut wal {
        None => Durability::Off,
        Some((wal, w)) => Durability::Log {
            wal,
            sync_every: w.sync_every,
            snapshot_every: w.snapshot_every,
        },
    };
    let conn = obs.map(|o| o.conn(index as u64));
    serve_observed(
        service,
        &mut transport,
        opts.window,
        durability,
        conn.as_ref(),
    )
}

/// Serves `opts.accept` connections from `listener`, one scoped thread per
/// connection, all against the shared `service` (and therefore one shared
/// executor and one shared aggregate). Returns once every accepted
/// connection has been served to completion.
///
/// Connections are accepted sequentially but served concurrently: the accept
/// loop spawns each connection's serve thread immediately, so earlier
/// clients stream while later ones are still connecting.
///
/// The aggregate of a multi-client run is fetched by the *driver*, once,
/// after this returns (`service.flush()` + `service.aggregate(..)`) — a
/// per-connection aggregate snapshot of shared state would be racy, which is
/// why multi-client clients end with a drain request
/// ([`run_client_events`](crate::run_client_events)) instead of an aggregate
/// request.
///
/// # Errors
///
/// The first error an accept or a connection (in accept order) hit, after
/// all other connections have finished serving. Durability faults on one
/// connection therefore do not abort the others mid-stream.
pub fn serve_pool(
    listener: &TcpListener,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
) -> Result<PoolReport, ServerError> {
    serve_pool_observed(listener, service, opts, None)
}

/// [`serve_pool`] with optional observability: connection lifecycle and WAL
/// counters/trace events flow into `obs`, per-connection serve loops record
/// reply latency, and a metrics request frame on any connection
/// answers with the rendered registry. Pass `None` for the uninstrumented
/// behaviour (identical to [`serve_pool`]).
///
/// # Errors
///
/// As [`serve_pool`].
pub fn serve_pool_observed(
    listener: &TcpListener,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
    obs: Option<&Observability>,
) -> Result<PoolReport, ServerError> {
    if let Some(o) = obs {
        o.set_tier("pool");
    }
    std::thread::scope(|scope| {
        let mut served = Vec::new();
        let mut first_err = None;
        for index in 0..opts.accept.max(1) {
            match listener.accept() {
                Ok((stream, _)) => served
                    .push(scope.spawn(move || serve_pool_conn(stream, service, opts, index, obs))),
                Err(e) => {
                    first_err = Some(ServerError::Io(e));
                    break;
                }
            }
        }
        let mut report = PoolReport {
            connections: served.len() as u64,
            answered: 0,
        };
        for handle in served {
            match handle.join().expect("pool connection must not panic") {
                Ok(answered) => report.answered += answered,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(report), Err)
    })
}

/// Options for the readiness-polled tier ([`serve_poll`]).
#[derive(Debug, Clone, Copy)]
pub struct PollOptions {
    /// Worker threads multiplexing the connections (clamped to at least 1).
    /// Hundreds of connections on single-digit workers is the intended
    /// regime.
    pub workers: usize,
    /// How many connections to accept before the server stops accepting and
    /// drains the accepted ones.
    pub accept: usize,
    /// Per-connection cap on in-flight (admitted or parked) calls; reaching
    /// it drops read interest until acks drain it below the cap.
    pub max_pending: usize,
}

impl PollOptions {
    /// `accept` connections on `workers` threads with a default in-flight
    /// cap of 128 calls per connection.
    pub fn new(accept: usize, workers: usize) -> Self {
        Self {
            workers,
            accept,
            max_pending: 128,
        }
    }
}

/// What a [`serve_poll`] run did. The counters that matter for the flow-
/// control contract are [`suspensions`](Self::suspensions) (executor
/// `WouldBlock` observably suspended socket reads) and
/// [`batches`](Self::batches) vs [`events`](Self::events) (events admitted
/// per amortized dispatch pass).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PollReport {
    /// Connections accepted.
    pub connections: u64,
    /// Connections torn down by a per-connection protocol/I/O failure
    /// (the rest of the server keeps serving).
    pub failed: u64,
    /// Event acks sent.
    pub answered: u64,
    /// Handler calls that resolved `Ok` (the aggregate's `completed`).
    pub completed: u64,
    /// Event frames decoded and prepared for admission.
    pub events: u64,
    /// `try_admit` passes that admitted at least one entry.
    pub batches: u64,
    /// Times a refused admission left entries parked and suspended a
    /// connection's socket reads (executor backpressure → TCP pushback).
    pub suspensions: u64,
}

impl PollReport {
    fn merge(&mut self, other: &PollReport) {
        self.connections += other.connections;
        self.failed += other.failed;
        self.answered += other.answered;
        self.completed += other.completed;
        self.events += other.events;
        self.batches += other.batches;
        self.suspensions += other.suspensions;
    }
}

/// The readiness driver of one connection (`Conn`, in `conn.rs`): the
/// non-blocking stream, its resumable codec halves, and the parked
/// (admission-refused) tail. Acks go out eagerly, as calls finish.
///
/// Invariant: `parked` entries are always the **suffix** of the calls whose
/// replies sit at the back of the connection's FIFO — `try_admit` admits
/// from the front and refuses a tail, and new frames append to both. Replies
/// are resolved front-first, so acks go out in request order even though
/// admission is batched.
struct PollConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    conn: Conn<'static>,
    parked: SubmitBatch,
    eof: bool,
    report: PollReport,
    /// Whether a parked admission tail has suspended reads.
    suspended: bool,
    /// Whether the encoder backlog is currently above the write watermark.
    write_blocked: bool,
}

impl PollConn {
    fn new(stream: TcpStream, obs: Option<ConnObs>) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            conn: Conn::new(Durability::Off, obs),
            parked: SubmitBatch::new(),
            eof: false,
            report: PollReport::default(),
            suspended: false,
            write_blocked: false,
        }
    }

    /// The connection's report, once the worker retires it (served to
    /// completion or torn down by an error).
    fn retire(self) -> PollReport {
        PollReport {
            answered: self.conn.answered,
            completed: self.conn.completed,
            ..self.report
        }
    }

    /// Whether the sweep takes new frames. Frames still staged behind an
    /// answered control request are taken after EOF too.
    fn read_interest(&self, max_pending: usize) -> bool {
        (!self.eof || self.decoder.has_partial())
            && !self.conn.has_control()
            && self.parked.is_empty()
            && self.conn.in_flight() < max_pending
            && self.encoder.staged() < ENCODER_WRITE_WATERMARK
    }

    /// The oldest call, unless it is parked (the parked calls are a suffix).
    fn oldest_admitted(&self) -> Option<&CompletionHandle> {
        let admitted = self.conn.in_flight() > self.parked.len();
        self.conn.oldest().filter(|_| admitted)
    }

    /// At EOF, with no frame, control request, call or reply left.
    fn done(&self) -> bool {
        self.eof
            && !self.decoder.has_partial()
            && !self.conn.has_control()
            && self.conn.in_flight() == 0
            && self.encoder.is_empty()
    }

    /// One `try_admit` pass over the parked entries; returns whether it
    /// admitted any. A refused tail stays parked and `read_interest` goes
    /// false, so the kernel buffer fills and TCP pushes back on the peer:
    /// a refused `fresh` batch counts as a suspension.
    fn admit(&mut self, service: &dyn BatchService, fresh: bool) -> Result<bool, ServerError> {
        let admitted = service.try_admit(&mut self.parked)?;
        let refused = !self.parked.is_empty();
        self.report.batches += u64::from(admitted > 0);
        self.report.suspensions += u64::from(fresh && refused);
        // Suspended until the parked tail is gone; the trace logs the
        // transitions, not every sweep.
        let suspended = refused && (fresh || self.suspended);
        if let Some(obs) = &self.conn.obs {
            if admitted > 0 {
                obs.admitted(admitted as u64);
            }
            match (self.suspended, suspended) {
                (false, true) => obs.suspended(self.parked.len() as u64),
                (true, false) => obs.resumed(),
                _ => {}
            }
        }
        self.suspended = suspended;
        Ok(admitted > 0)
    }

    /// One sweep: flush pending writes, ack finished calls, retry parked
    /// admissions, and (interest permitting) read + decode + batch-admit new
    /// frames. Returns whether any progress was made.
    fn sweep(
        &mut self,
        service: &dyn BatchService,
        max_pending: usize,
    ) -> Result<bool, ServerError> {
        let mut progress = false;

        // 1. Push staged reply bytes while the socket accepts them. After
        //    EOF the peer is gone: drop the backlog instead of writing into
        //    a closed stream (mirrors `serve` abandoning pending replies).
        if !self.encoder.is_empty() {
            if self.eof {
                let _ = self.encoder.write_to(&mut io::sink());
            } else {
                progress |= self
                    .encoder
                    .write_to(&mut self.stream)
                    .map_err(frame_error)?
                    > 0;
            }
        }

        // 2. Ack every finished call front-first (request order). Parked
        //    (never-admitted) entries are the *back* of the FIFO, so a
        //    finished front is always an admitted call.
        while self.conn.oldest_finished() {
            self.encoder.push_frame(&self.conn.ack_oldest()?)?;
            progress = true;
        }

        // Encoder-watermark backpressure: the peer stopped draining acks,
        // so `read_interest` below goes false until the backlog shrinks.
        // Observability logs the transition, not every blocked sweep.
        if let Some(obs) = &self.conn.obs {
            let blocked = self.encoder.staged() >= ENCODER_WRITE_WATERMARK;
            if blocked && !self.write_blocked {
                obs.write_blocked(self.encoder.staged() as u64);
            }
            self.write_blocked = blocked;
        }

        // 3. One admission pass per sweep: either retry the parked tail or
        //    (below) admit freshly decoded frames — never both, so executor
        //    pressure throttles intake instead of racing it.
        if !self.parked.is_empty() {
            progress |= self.admit(service, false)?;
        } else if self.read_interest(max_pending) {
            if !self.eof {
                let status = self
                    .decoder
                    .fill_from(&mut self.stream)
                    .map_err(frame_error)?;
                self.eof |= status.eof;
                progress |= status.read > 0;
            }
            // Every staged frame, up to a control request: that one waits
            // for the calls before it (step 4), and the frames behind it
            // wait for its answer.
            while !self.conn.has_control() {
                let Some(frame) = self.decoder.next_frame().map_err(frame_error)? else {
                    if self.eof && self.decoder.has_partial() {
                        return Err(ServerError::Protocol("stream ended mid-frame".into()));
                    }
                    break;
                };
                if let Some(event) = self.conn.request(&frame)? {
                    // This tier runs without a log: logging only stamps.
                    self.conn.log(&event)?;
                    let (key, job, handle) = service.prepare(event);
                    self.parked.push(key, job);
                    self.conn.push_replies([handle.into()]);
                    self.report.events += 1;
                }
            }
            if !self.parked.is_empty() {
                progress |= self.admit(service, true)?;
            }
        }

        // 4. A control request is answered once this connection's own calls
        //    have all been acked. (Multi-client runs use drain + a
        //    driver-side aggregate instead; see `serve_pool`.)
        if self.conn.has_control() && self.conn.in_flight() == 0 {
            if let Some(reply) = self.conn.answer(service)? {
                self.encoder.push_frame(&reply)?;
            }
            progress = true;
        }

        Ok(progress)
    }
}

fn poll_worker(
    rx: &mpsc::Receiver<(TcpStream, u64)>,
    service: &dyn BatchService,
    max_pending: usize,
    obs: Option<&Observability>,
) -> Result<PollReport, ServerError> {
    let mut report = PollReport::default();
    let mut conns: Vec<PollConn> = Vec::new();
    loop {
        // Take every dealt connection, blocking for one only when there is
        // nothing to sweep.
        loop {
            let dealt = if conns.is_empty() {
                rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match dealt {
                Ok((stream, id)) => {
                    report.connections += 1;
                    conns.push(PollConn::new(stream, obs.map(|o| o.conn(id))));
                }
                Err(mpsc::TryRecvError::Disconnected) if conns.is_empty() => return Ok(report),
                Err(_) => break,
            }
        }
        let mut progress = false;
        let mut index = 0;
        while index < conns.len() {
            match conns[index].sweep(service, max_pending) {
                Ok(p) => {
                    progress |= p;
                    if conns[index].done() {
                        report.merge(&conns.swap_remove(index).retire());
                    } else {
                        index += 1;
                    }
                }
                // Executor shutdown is fatal for the whole server; anything
                // else (peer reset, torn frame, protocol garbage) tears down
                // this one connection and the rest keep serving.
                Err(ServerError::Shutdown) => return Err(ServerError::Shutdown),
                Err(_) => {
                    report.merge(&conns.swap_remove(index).retire());
                    report.failed += 1;
                    progress = true;
                }
            }
        }
        if !progress {
            idle(&conns);
        }
    }
}

/// Waits out a sweep that made no progress: parks until the first oldest
/// admitted call finishes (not at all if one already has), or, with none
/// admitted, sleeps. A lost or stale wake-up costs at most one plain wait.
fn idle(conns: &[PollConn]) {
    let mut admitted = conns
        .iter()
        .filter_map(PollConn::oldest_admitted)
        .peekable();
    if admitted.peek().is_none() {
        std::thread::sleep(IDLE_BACKOFF);
    } else if admitted.all(|oldest| oldest.wake_on_finish(&thread_waker()).is_none()) {
        std::thread::park_timeout(IDLE_BACKOFF);
    }
}

/// Serves `opts.accept` connections from `listener` on `opts.workers`
/// readiness-polling threads — the tier that holds hundreds of connections
/// on single-digit threads. The accept loop (calling thread) configures each
/// socket non-blocking and deals it round-robin to a worker; each worker
/// sweeps its connections, resuming partial frames with the staged codec and
/// admitting each wakeup's decoded events through one amortized
/// [`BatchService::try_admit`] pass.
///
/// Per-connection failures (peer reset, torn or malformed frames) tear down
/// that connection only ([`PollReport::failed`]); the run keeps serving.
///
/// # Errors
///
/// [`ServerError::Io`] if accepting or configuring a socket fails,
/// [`ServerError::Shutdown`] if the executor shuts down while calls are in
/// flight (fatal: retrying admission can never succeed).
pub fn serve_poll(
    listener: &TcpListener,
    service: &dyn BatchService,
    opts: &PollOptions,
) -> Result<PollReport, ServerError> {
    serve_poll_observed(listener, service, opts, None)
}

/// [`serve_poll`] with optional observability: each worker's sweep records
/// admission batches, backpressure transitions, and reply latency into
/// `obs`, and a metrics request frame on any connection answers
/// with the rendered registry. Pass `None` for the uninstrumented behaviour
/// (identical to [`serve_poll`]).
///
/// # Errors
///
/// As [`serve_poll`].
pub fn serve_poll_observed(
    listener: &TcpListener,
    service: &dyn BatchService,
    opts: &PollOptions,
    obs: Option<&Observability>,
) -> Result<PollReport, ServerError> {
    if let Some(o) = obs {
        o.set_tier("poll");
    }
    let workers = opts.workers.max(1);
    let accept = opts.accept.max(1);
    let max_pending = opts.max_pending.max(1);
    std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<(TcpStream, u64)>();
            txs.push(tx);
            handles.push(scope.spawn(move || poll_worker(&rx, service, max_pending, obs)));
        }
        let mut first_err = None;
        for index in 0..accept {
            let accepted = listener.accept().and_then(|(stream, _)| {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(stream)
            });
            match accepted {
                // A send only fails if the worker died; surface that as the
                // worker's own error after the join below.
                Ok(stream) => drop(txs[index % workers].send((stream, index as u64))),
                Err(e) => {
                    first_err = Some(ServerError::Io(e));
                    break;
                }
            }
        }
        drop(txs);
        let mut report = PollReport::default();
        for handle in handles {
            match handle.join().expect("poll worker must not panic") {
                Ok(worker_report) => report.merge(&worker_report),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(report), Err)
    })
}

/// The configuration client `client` of a multi-client run drives: client 0
/// replays `base` exactly (so a 1-client run is byte-for-byte the
/// single-client run), later clients get independent seeds derived through
/// `DetRng::stream` — deterministic in (`base.seed`, `client`), uncorrelated
/// across clients.
pub fn client_config(base: &ServerConfig, client: u64) -> ServerConfig {
    if client == 0 {
        *base
    } else {
        base.seed(DetRng::stream(base.seed, 0xc11e_4700 ^ client).next_u64())
    }
}

/// The sequential reference fold for an N-client run: every client's
/// deterministic stream ([`client_config`]), concatenated and folded through
/// one fresh state on the calling thread. Because handler effects are
/// commutative, any server tier × executor combination that delivers
/// exactly these events must produce this aggregate byte for byte.
pub fn merged_reference_aggregate(base: &ServerConfig, clients: u64) -> ServerAggregate {
    let mut events = Vec::with_capacity(base.events * clients.max(1) as usize);
    for client in 0..clients.max(1) {
        events.extend(crate::protocol_server::generate_events(&client_config(
            base, client,
        )));
    }
    crate::protocol_server::reference_aggregate(&events, base.blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_server::generate_events;
    use crate::service::Reply;
    use crate::service::{run_client, run_client_events};
    use crate::transport::TcpTransport;
    use pdq_core::executor::{
        build_executor, ExecutorSpec, TypedFuture, TypedHandle, EXECUTOR_NAMES,
    };
    use pdq_core::ShutdownError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tcp_client(
        addr: std::net::SocketAddr,
        events: &[pdq_dsm::ProtocolEvent],
        window: usize,
    ) -> Result<crate::ClientReport, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut transport = TcpTransport::new(stream)?;
        run_client_events(&mut transport, events, window, false)
    }

    /// N pool clients over one shared executor merge to the sequential
    /// reference fold, on every registry executor.
    #[test]
    fn pool_merges_concurrent_clients_to_the_reference_fold() {
        let base = ServerConfig::quick().events(400);
        let clients = 4u64;
        let reference = merged_reference_aggregate(&base, clients);
        for name in EXECUTOR_NAMES {
            let executor = build_executor(name, &ExecutorSpec::new(2).capacity(64))
                .expect("registry executor");
            let service = crate::ExecutorService::new(executor.as_ref(), base.blocks);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let report = std::thread::scope(|scope| {
                let service = &service;
                let server =
                    scope.spawn(move || serve_pool(&listener, service, &PoolOptions::new(4, 8)));
                let mut acked = 0u64;
                let mut clients_joined = Vec::new();
                for client in 0..clients {
                    let events = generate_events(&client_config(&base, client));
                    clients_joined.push(scope.spawn(move || tcp_client(addr, &events, 16)));
                }
                for handle in clients_joined {
                    acked += handle
                        .join()
                        .expect("client thread")
                        .expect("client ok")
                        .acked;
                }
                let report = server.join().expect("server thread").expect("server ok");
                assert_eq!(report.answered, acked);
                report
            });
            assert_eq!(report.connections, clients);
            service.flush();
            let merged = service.aggregate(report.answered);
            assert_eq!(merged, reference, "pool aggregate diverged on {name}");
        }
    }

    /// A single poll-tier connection answers `run_client` exactly like the
    /// blocking `serve` loop: same acks, same aggregate.
    #[test]
    fn poll_single_connection_matches_blocking_serve() {
        let cfg = ServerConfig::quick().events(500);
        for name in EXECUTOR_NAMES {
            let executor = build_executor(name, &ExecutorSpec::new(2).capacity(64))
                .expect("registry executor");
            let service = crate::ExecutorService::new(executor.as_ref(), cfg.blocks);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let aggregate = std::thread::scope(|scope| {
                let service = &service;
                let server =
                    scope.spawn(move || serve_poll(&listener, service, &PollOptions::new(1, 1)));
                let client = scope.spawn(move || {
                    let stream = TcpStream::connect(addr)?;
                    let mut transport = TcpTransport::new(stream)?;
                    run_client(&mut transport, &cfg, 16)
                });
                let aggregate = client.join().expect("client thread").expect("client ok");
                let report = server.join().expect("server thread").expect("server ok");
                assert_eq!(report.events, cfg.events as u64);
                assert_eq!(report.failed, 0);
                aggregate
            });
            let reference = crate::reference_aggregate(&generate_events(&cfg), cfg.blocks);
            assert_eq!(aggregate, reference, "poll aggregate diverged on {name}");
        }
    }

    /// Many poll connections on few workers still merge to the reference
    /// fold, and admission is genuinely batched (fewer passes than events).
    #[test]
    fn poll_multiplexes_many_connections_on_few_workers() {
        let base = ServerConfig::quick().events(200);
        let clients = 12u64;
        let executor =
            build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(256)).expect("executor");
        let service = crate::ExecutorService::new(executor.as_ref(), base.blocks);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let report = std::thread::scope(|scope| {
            let service = &service;
            let server = scope.spawn(move || {
                serve_poll(&listener, service, &PollOptions::new(clients as usize, 2))
            });
            let mut joined = Vec::new();
            for client in 0..clients {
                let events = generate_events(&client_config(&base, client));
                joined.push(scope.spawn(move || tcp_client(addr, &events, 32)));
            }
            for handle in joined {
                handle.join().expect("client thread").expect("client ok");
            }
            server.join().expect("server thread").expect("server ok")
        });
        assert_eq!(report.connections, clients);
        assert_eq!(report.failed, 0);
        assert_eq!(report.events, clients * base.events as u64);
        assert!(
            report.batches < report.events,
            "admission was not batched: {} passes for {} events",
            report.batches,
            report.events
        );
        service.flush();
        let merged = service.aggregate(report.completed);
        assert_eq!(merged, merged_reference_aggregate(&base, clients));
    }

    /// A service whose admission refuses for a while: the poll loop must
    /// count a read suspension (executor backpressure became flow control)
    /// and still deliver every event once admission recovers.
    struct RefusingService<'a> {
        inner: crate::ExecutorService<'a>,
        refusals: AtomicUsize,
    }

    impl ProtocolService for RefusingService<'_> {
        fn call(&self, request: pdq_dsm::ProtocolEvent) -> TypedFuture<Reply> {
            self.inner.call(request)
        }
        fn flush(&self) {
            self.inner.flush();
        }
        fn aggregate(&self, completed: u64) -> ServerAggregate {
            self.inner.aggregate(completed)
        }
    }

    impl BatchService for RefusingService<'_> {
        fn prepare(
            &self,
            request: pdq_dsm::ProtocolEvent,
        ) -> (
            pdq_core::SyncKey,
            pdq_core::executor::Job,
            TypedHandle<Reply>,
        ) {
            self.inner.prepare(request)
        }
        fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
            let remaining = self.refusals.load(Ordering::Relaxed);
            if remaining > 0 {
                self.refusals.store(remaining - 1, Ordering::Relaxed);
                return Ok(0);
            }
            self.inner.try_admit(batch)
        }
    }

    #[test]
    fn refused_admission_suspends_reads_and_recovers() {
        let cfg = ServerConfig::quick().events(300);
        let executor =
            build_executor("pdq", &ExecutorSpec::new(1).capacity(512)).expect("executor");
        let service = RefusingService {
            inner: crate::ExecutorService::new(executor.as_ref(), cfg.blocks),
            refusals: AtomicUsize::new(50),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let events = generate_events(&cfg);
        let report = std::thread::scope(|scope| {
            let service = &service;
            let server =
                scope.spawn(move || serve_poll(&listener, service, &PollOptions::new(1, 1)));
            let client = scope.spawn({
                let events = &events;
                move || tcp_client(addr, events, 16)
            });
            let client_report = client.join().expect("client thread").expect("client ok");
            assert_eq!(client_report.acked, cfg.events as u64);
            server.join().expect("server thread").expect("server ok")
        });
        assert!(
            report.suspensions > 0,
            "refused admission never suspended socket reads"
        );
        assert_eq!(report.events, cfg.events as u64);
        service.flush();
        assert_eq!(
            service.aggregate(report.completed),
            crate::reference_aggregate(&events, cfg.blocks)
        );
    }

    /// Client 0 replays the base config and later clients diverge — the
    /// contract the CI single-client byte-diffs rely on.
    #[test]
    fn client_config_keeps_client_zero_identical() {
        let base = ServerConfig::quick();
        assert_eq!(client_config(&base, 0), base);
        let one = client_config(&base, 1);
        assert_ne!(one.seed, base.seed);
        assert_eq!(one.events, base.events);
        assert_eq!(client_config(&base, 1), one, "derivation must be pure");
        assert_ne!(client_config(&base, 2).seed, one.seed);
    }
}
