//! The typed request/response service in front of the protocol server.
//!
//! This is the layer the PDQ abstraction exists for: a server receiving a
//! firehose of fine-grain protocol *requests*, each handled by a keyed
//! handler that computes a *reply* — not an anonymous side effect. The
//! request lifecycle is
//!
//! ```text
//!   frame → decode → ProtocolService::call → submit_async_returning
//!     → handler runs (keyed, on a worker) → TypedFuture<Reply> resolves
//!     → encode → reply frame
//! ```
//!
//! [`ProtocolService`] is the dispatch surface (`call` returns a
//! [`TypedFuture`] of the [`Reply`]); [`ExecutorService`] implements it over
//! any [`Executor`] by submitting the [`ServerState`] handler with
//! `submit_async_returning`, so a handler panic or an executor shutdown
//! surfaces as a typed [`JobError`](pdq_core::executor::JobError) instead of
//! a poisoned counter. [`serve`] drives a [`Transport`] against a service
//! with a bounded window of in-flight calls; [`run_client`] is the matching
//! client: it streams the deterministic event stream of a [`ServerConfig`],
//! verifies every ack against the reply digest it expects, and fetches the
//! final [`ServerAggregate`] — which is byte-identical to an in-process
//! [`run_server`](crate::run_server) run of the same config, whatever the
//! executor and whatever the transport.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use pdq_core::executor::{
    attach_returning, Executor, ExecutorExt, Job, SubmitBatch, TrySubmitError, TypedFuture,
    TypedHandle,
};
use pdq_core::{ShutdownError, SyncKey};
use pdq_dsm::{BlockAddr, Message, PageAddr, ProtocolEvent, Request};

use crate::conn::Conn;
use crate::metrics::ConnObs;
use crate::protocol_server::{
    generate_events, ServerAggregate, ServerConfig, ServerError, ServerState,
};
use crate::transport::Transport;
use crate::wal::WalWriter;

/// The typed response to one protocol request.
///
/// Replies are a pure function of the request (the shared per-block state is
/// mutated commutatively and folded into the final aggregate instead), so the
/// client can verify every ack independently of scheduling: the `digest`
/// echoes an FNV-1a hash of the encoded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Event class answered: `0` access fault, `1` incoming message, `2`
    /// page operation.
    pub class: u8,
    /// FNV-1a digest of the encoded request, echoed back for verification.
    pub digest: u64,
}

impl Reply {
    /// The reply a well-behaved handler produces for `event`.
    pub fn for_event(event: &ProtocolEvent) -> Self {
        let class = match event {
            ProtocolEvent::AccessFault { .. } => 0,
            ProtocolEvent::Incoming { .. } => 1,
            ProtocolEvent::PageOp { .. } => 2,
        };
        let mut buf = Vec::with_capacity(32);
        encode_event(&mut buf, event);
        Self {
            class,
            digest: fnv1a(&buf),
        }
    }
}

/// A service that answers protocol requests with typed replies.
///
/// The server loop ([`serve`]) is written against this trait, so anything
/// that can turn a [`ProtocolEvent`] into a [`TypedFuture<Reply>`] can sit
/// behind any [`Transport`] — the executor-backed [`ExecutorService`] being
/// the implementation the paper's abstraction is about.
pub trait ProtocolService: Send + Sync {
    /// Dispatches one request; the returned future resolves with the reply
    /// once the handler has run (backpressure from a bounded executor queue
    /// keeps the future pending, parking the server loop's window).
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply>;

    /// Dispatches a burst of requests and returns their reply futures, both
    /// in order. The default is one [`call`](Self::call) per request; a
    /// service that can admit the burst in one pass overrides it.
    fn call_burst(&self, requests: Vec<ProtocolEvent>) -> Vec<TypedFuture<Reply>> {
        requests.into_iter().map(|r| self.call(r)).collect()
    }

    /// Blocks until every dispatched request has finished.
    fn flush(&self);

    /// Folds the service state into the order-independent aggregate;
    /// `completed` is the number of calls the driver observed resolving
    /// `Ok`.
    fn aggregate(&self, completed: u64) -> ServerAggregate;

    /// Exports the service's full counter state for a write-ahead-log
    /// snapshot record ([`crate::wal`]), or `None` if the service cannot
    /// (in which case [`serve_observed`] silently downgrades snapshots to
    /// plain sync points). Called after a `flush`, so the export reflects
    /// every dispatched call.
    fn snapshot_words(&self) -> Option<Vec<u64>> {
        None
    }
}

/// [`ProtocolService`] over any [`Executor`]: each request becomes a
/// value-returning job keyed by the event's [`SyncKey`],
/// submitted through `submit_async_returning`.
pub struct ExecutorService<'a> {
    executor: &'a dyn Executor,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for ExecutorService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorService")
            .field("executor", &self.executor.name())
            .finish()
    }
}

impl<'a> ExecutorService<'a> {
    /// Creates a service over `executor` with fresh per-block state for
    /// `blocks` cache blocks.
    pub fn new(executor: &'a dyn Executor, blocks: u64) -> Self {
        Self {
            executor,
            state: Arc::new(ServerState::new(blocks)),
        }
    }

    /// The keyed handler of one request: applies it to the shared state and
    /// computes its reply.
    fn handler(&self, request: ProtocolEvent) -> impl FnOnce() -> Reply + Send + 'static {
        let state = Arc::clone(&self.state);
        move || {
            state.handle(&request);
            Reply::for_event(&request)
        }
    }
}

impl ProtocolService for ExecutorService<'_> {
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
        self.executor
            .submit_async_returning(request.sync_key(), self.handler(request))
    }

    fn call_burst(&self, requests: Vec<ProtocolEvent>) -> Vec<TypedFuture<Reply>> {
        let mut batch = SubmitBatch::with_capacity(requests.len());
        let replies = requests
            .into_iter()
            .map(|request| {
                let (key, job, handle) = self.prepare(request);
                batch.push(key, job);
                handle.into()
            })
            .collect();
        // One dispatch-lock hold per burst. Nobody waits for admission: a
        // reply resolves once its job has run, and `Aborted` if the entry is
        // still parked at shutdown.
        drop(self.executor.submit_batch_queued(&mut batch));
        replies
    }

    fn flush(&self) {
        self.executor.flush();
    }

    fn aggregate(&self, completed: u64) -> ServerAggregate {
        self.state.aggregate(completed)
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        Some(self.state.snapshot_words())
    }
}

/// A [`ProtocolService`] that can also expose its calls as *raw batch
/// entries* for amortized admission.
///
/// [`ProtocolService::call`] pays the executor's dispatch lock once per
/// request. The readiness-polled server ([`serve_poll`](crate::serve_poll))
/// instead drains every frame a readiness wakeup buffered, turns each into a
/// prepared entry ([`prepare`](Self::prepare)), and admits the whole slice
/// through **one** [`Executor::try_submit_batch`] call
/// ([`try_admit`](Self::try_admit)) — and, unlike `call`, a full bounded
/// queue *refuses* entries instead of parking them, so the server can convert
/// executor backpressure into per-connection TCP flow control.
pub trait BatchService: ProtocolService {
    /// Builds the raw entry for one request: the synchronization key, the
    /// boxed handler job, and the typed handle that resolves with the
    /// [`Reply`] once the job has run. The job is **not** submitted; push it
    /// into a [`SubmitBatch`] and admit via [`try_admit`](Self::try_admit).
    fn prepare(&self, request: ProtocolEvent) -> (SyncKey, Job, TypedHandle<Reply>);

    /// Admits as many entries from the front of `batch` as fit without
    /// blocking (one amortized dispatch pass) and returns how many were
    /// admitted. Refused entries stay in the batch for a later retry; their
    /// handles simply stay unresolved until the entries are admitted and run.
    ///
    /// # Errors
    ///
    /// [`ShutdownError`] if the executor has shut down — retrying can never
    /// succeed, so the caller must tear the connection down instead of
    /// spinning.
    fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError>;
}

impl BatchService for ExecutorService<'_> {
    fn prepare(&self, request: ProtocolEvent) -> (SyncKey, Job, TypedHandle<Reply>) {
        let (job, handle) = attach_returning(self.handler(request));
        (request.sync_key(), job, handle)
    }

    fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
        let admitted = self.executor.try_submit_batch(batch);
        if admitted == 0 && !batch.is_empty() {
            // `try_submit_batch` reports "nothing admitted" both for a full
            // queue and for a shut-down executor; probe one entry through
            // `try_submit` to tell the retryable case from the fatal one.
            if let Some((key, job)) = batch.pop_front() {
                match self.executor.try_submit(key, job) {
                    Ok(()) => return Ok(1),
                    Err(TrySubmitError::WouldBlock(job)) => {
                        batch.push_front(key, job);
                        return Ok(0);
                    }
                    Err(TrySubmitError::Shutdown(job)) => {
                        batch.push_front(key, job);
                        return Err(ShutdownError);
                    }
                }
            }
        }
        Ok(admitted)
    }
}

// ---------------------------------------------------------------------------
// Wire format (frame payloads; framing itself lives in `transport`)
// ---------------------------------------------------------------------------

/// Request frame: one protocol event follows.
const REQ_EVENT: u8 = 0x01;
/// Request frame: drain in-flight calls and reply with the aggregate.
const REQ_AGGREGATE: u8 = 0x02;
/// Request frame: ack every in-flight call, but send no aggregate. Clients
/// of a *shared* multi-connection server use this to collect their remaining
/// acks before closing — the shared aggregate is meaningless per connection,
/// so the pool/poll drivers fetch it once, after every client is done.
const REQ_DRAIN: u8 = 0x03;
/// Request frame: reply with the server's rendered metrics text. Served
/// in-band so a scraper can ride an existing protocol connection; the
/// sidecar listener ([`serve_metrics`](crate::serve_metrics)) is the
/// out-of-band alternative.
const REQ_METRICS: u8 = 0x04;
/// Reply frame: per-event acknowledgement.
const REP_ACK: u8 = 0x81;
/// Reply frame: the final aggregate.
const REP_AGGREGATE: u8 = 0x82;
/// Reply frame: rendered metrics text (UTF-8).
const REP_METRICS: u8 = 0x83;

/// Ack status: the handler ran and produced its reply.
pub(crate) const ACK_DONE: u8 = 0;
/// Ack status: the handler panicked; no reply payload is meaningful.
pub(crate) const ACK_PANICKED: u8 = 1;

/// A decoded request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequest {
    /// Handle one protocol event.
    Event(ProtocolEvent),
    /// Drain outstanding calls and return the aggregate.
    Aggregate,
    /// Ack every outstanding call without returning an aggregate.
    Drain,
    /// Return the server's rendered metrics text (empty when the serving
    /// loop has no observability attached).
    Metrics,
}

/// A decoded per-event acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Status byte: `0` done, `1` handler panicked.
    pub status: u8,
    /// The reply, when `status` is done.
    pub reply: Reply,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, ServerError> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| ServerError::Protocol("frame truncated".into()))?;
    *pos += 1;
    Ok(b)
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ServerError> {
    let end = pos
        .checked_add(8)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| ServerError::Protocol("frame truncated".into()))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(raw))
}

/// FNV-1a over a byte slice (the reply digest).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_message(buf: &mut Vec<u8>, msg: &Message) {
    match *msg {
        Message::Req {
            request,
            requester,
            block,
        } => {
            buf.push(0);
            buf.push(match request {
                Request::GetShared => 0,
                Request::GetExclusive => 1,
            });
            put_u64(buf, requester as u64);
            put_u64(buf, block.0);
        }
        Message::Invalidate { block, home } => {
            buf.push(1);
            put_u64(buf, block.0);
            put_u64(buf, home as u64);
        }
        Message::InvalAck { block, from } => {
            buf.push(2);
            put_u64(buf, block.0);
            put_u64(buf, from as u64);
        }
        Message::RecallShared { block, home } => {
            buf.push(3);
            put_u64(buf, block.0);
            put_u64(buf, home as u64);
        }
        Message::RecallExclusive { block, home } => {
            buf.push(4);
            put_u64(buf, block.0);
            put_u64(buf, home as u64);
        }
        Message::WritebackShared { block, from, value } => {
            buf.push(5);
            put_u64(buf, block.0);
            put_u64(buf, from as u64);
            put_u64(buf, value);
        }
        Message::WritebackExclusive { block, from, value } => {
            buf.push(6);
            put_u64(buf, block.0);
            put_u64(buf, from as u64);
            put_u64(buf, value);
        }
        Message::DataShared { block, value } => {
            buf.push(7);
            put_u64(buf, block.0);
            put_u64(buf, value);
        }
        Message::DataExclusive { block, value } => {
            buf.push(8);
            put_u64(buf, block.0);
            put_u64(buf, value);
        }
    }
}

fn decode_message(bytes: &[u8], pos: &mut usize) -> Result<Message, ServerError> {
    let tag = get_u8(bytes, pos)?;
    Ok(match tag {
        0 => {
            let request = match get_u8(bytes, pos)? {
                0 => Request::GetShared,
                1 => Request::GetExclusive,
                other => {
                    return Err(ServerError::Protocol(format!(
                        "unknown request kind {other}"
                    )))
                }
            };
            let requester = get_u64(bytes, pos)? as usize;
            let block = BlockAddr(get_u64(bytes, pos)?);
            Message::Req {
                request,
                requester,
                block,
            }
        }
        1 => Message::Invalidate {
            block: BlockAddr(get_u64(bytes, pos)?),
            home: get_u64(bytes, pos)? as usize,
        },
        2 => Message::InvalAck {
            block: BlockAddr(get_u64(bytes, pos)?),
            from: get_u64(bytes, pos)? as usize,
        },
        3 => Message::RecallShared {
            block: BlockAddr(get_u64(bytes, pos)?),
            home: get_u64(bytes, pos)? as usize,
        },
        4 => Message::RecallExclusive {
            block: BlockAddr(get_u64(bytes, pos)?),
            home: get_u64(bytes, pos)? as usize,
        },
        5 => Message::WritebackShared {
            block: BlockAddr(get_u64(bytes, pos)?),
            from: get_u64(bytes, pos)? as usize,
            value: get_u64(bytes, pos)?,
        },
        6 => Message::WritebackExclusive {
            block: BlockAddr(get_u64(bytes, pos)?),
            from: get_u64(bytes, pos)? as usize,
            value: get_u64(bytes, pos)?,
        },
        7 => Message::DataShared {
            block: BlockAddr(get_u64(bytes, pos)?),
            value: get_u64(bytes, pos)?,
        },
        8 => Message::DataExclusive {
            block: BlockAddr(get_u64(bytes, pos)?),
            value: get_u64(bytes, pos)?,
        },
        other => {
            return Err(ServerError::Protocol(format!(
                "unknown message tag {other}"
            )))
        }
    })
}

fn encode_event(buf: &mut Vec<u8>, event: &ProtocolEvent) {
    match *event {
        ProtocolEvent::AccessFault {
            block,
            write,
            token,
        } => {
            buf.push(0);
            put_u64(buf, block.0);
            buf.push(u8::from(write));
            put_u64(buf, token);
        }
        ProtocolEvent::Incoming { src, ref msg } => {
            buf.push(1);
            put_u64(buf, src as u64);
            encode_message(buf, msg);
        }
        ProtocolEvent::PageOp { page } => {
            buf.push(2);
            put_u64(buf, page.0);
        }
    }
}

fn decode_event(bytes: &[u8], pos: &mut usize) -> Result<ProtocolEvent, ServerError> {
    let tag = get_u8(bytes, pos)?;
    Ok(match tag {
        0 => ProtocolEvent::AccessFault {
            block: BlockAddr(get_u64(bytes, pos)?),
            write: get_u8(bytes, pos)? != 0,
            token: get_u64(bytes, pos)?,
        },
        1 => ProtocolEvent::Incoming {
            src: get_u64(bytes, pos)? as usize,
            msg: decode_message(bytes, pos)?,
        },
        2 => ProtocolEvent::PageOp {
            page: PageAddr(get_u64(bytes, pos)?),
        },
        other => return Err(ServerError::Protocol(format!("unknown event tag {other}"))),
    })
}

/// Encodes an event request frame payload.
pub fn encode_event_request(event: &ProtocolEvent) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.push(REQ_EVENT);
    encode_event(&mut buf, event);
    buf
}

/// Encodes the aggregate request frame payload.
pub fn encode_aggregate_request() -> Vec<u8> {
    vec![REQ_AGGREGATE]
}

/// Encodes the drain request frame payload.
pub fn encode_drain_request() -> Vec<u8> {
    vec![REQ_DRAIN]
}

/// Encodes the metrics request frame payload.
pub fn encode_metrics_request() -> Vec<u8> {
    vec![REQ_METRICS]
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`ServerError::Protocol`] on an unknown tag, a truncated frame, or
/// trailing bytes.
pub fn decode_request(frame: &[u8]) -> Result<WireRequest, ServerError> {
    let mut pos = 0;
    let decoded = match get_u8(frame, &mut pos)? {
        REQ_EVENT => WireRequest::Event(decode_event(frame, &mut pos)?),
        REQ_AGGREGATE => WireRequest::Aggregate,
        REQ_DRAIN => WireRequest::Drain,
        REQ_METRICS => WireRequest::Metrics,
        other => {
            return Err(ServerError::Protocol(format!(
                "unknown request tag {other:#x}"
            )))
        }
    };
    if pos != frame.len() {
        return Err(ServerError::Protocol(format!(
            "{} trailing bytes after request",
            frame.len() - pos
        )));
    }
    Ok(decoded)
}

pub(crate) fn encode_ack(ack: Ack) -> [u8; 11] {
    let mut buf = [REP_ACK, ack.status, ack.reply.class, 0, 0, 0, 0, 0, 0, 0, 0];
    buf[3..].copy_from_slice(&ack.reply.digest.to_le_bytes());
    buf
}

pub(crate) fn decode_ack(frame: &[u8]) -> Result<Ack, ServerError> {
    let mut pos = 0;
    if get_u8(frame, &mut pos)? != REP_ACK {
        return Err(ServerError::Protocol("expected an ack frame".into()));
    }
    let status = get_u8(frame, &mut pos)?;
    let class = get_u8(frame, &mut pos)?;
    let digest = get_u64(frame, &mut pos)?;
    if pos != frame.len() {
        return Err(ServerError::Protocol("trailing bytes after ack".into()));
    }
    Ok(Ack {
        status,
        reply: Reply { class, digest },
    })
}

pub(crate) fn encode_metrics_reply(text: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + text.len());
    buf.push(REP_METRICS);
    buf.extend_from_slice(text.as_bytes());
    buf
}

pub(crate) fn decode_metrics_reply(frame: &[u8]) -> Result<String, ServerError> {
    let mut pos = 0;
    if get_u8(frame, &mut pos)? != REP_METRICS {
        return Err(ServerError::Protocol("expected a metrics frame".into()));
    }
    String::from_utf8(frame[pos..].to_vec())
        .map_err(|e| ServerError::Protocol(format!("metrics text is not UTF-8: {e}")))
}

pub(crate) fn encode_aggregate_reply(agg: &ServerAggregate) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 13 * 8);
    buf.push(REP_AGGREGATE);
    for word in [
        agg.events,
        agg.faults,
        agg.write_faults,
        agg.requests,
        agg.invalidations,
        agg.acks,
        agg.recalls,
        agg.writebacks,
        agg.grants,
        agg.page_ops,
        agg.block_checksum,
        agg.page_checksum,
        agg.completed,
    ] {
        put_u64(&mut buf, word);
    }
    buf
}

pub(crate) fn decode_aggregate_reply(frame: &[u8]) -> Result<ServerAggregate, ServerError> {
    let mut pos = 0;
    if get_u8(frame, &mut pos)? != REP_AGGREGATE {
        return Err(ServerError::Protocol("expected an aggregate frame".into()));
    }
    let agg = ServerAggregate {
        events: get_u64(frame, &mut pos)?,
        faults: get_u64(frame, &mut pos)?,
        write_faults: get_u64(frame, &mut pos)?,
        requests: get_u64(frame, &mut pos)?,
        invalidations: get_u64(frame, &mut pos)?,
        acks: get_u64(frame, &mut pos)?,
        recalls: get_u64(frame, &mut pos)?,
        writebacks: get_u64(frame, &mut pos)?,
        grants: get_u64(frame, &mut pos)?,
        page_ops: get_u64(frame, &mut pos)?,
        block_checksum: get_u64(frame, &mut pos)?,
        page_checksum: get_u64(frame, &mut pos)?,
        completed: get_u64(frame, &mut pos)?,
    };
    if pos != frame.len() {
        return Err(ServerError::Protocol(
            "trailing bytes after aggregate".into(),
        ));
    }
    Ok(agg)
}

// ---------------------------------------------------------------------------
// Server loop and client driver
// ---------------------------------------------------------------------------

/// Receives the next frame, mapping codec-level failures to
/// [`ServerError::Protocol`]: a stream that ends in the middle of a frame (a
/// short read / truncated frame) or carries an oversized length prefix is a
/// protocol violation by the peer, not an I/O fault of this host, so it must
/// not surface as a bare [`ServerError::Io`].
pub(crate) fn recv_frame(transport: &mut dyn Transport) -> Result<Option<Vec<u8>>, ServerError> {
    transport.recv().map_err(frame_error)
}

pub(crate) fn frame_error(e: std::io::Error) -> ServerError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ServerError::Protocol(format!("truncated frame: {e}")),
        std::io::ErrorKind::InvalidData => ServerError::Protocol(format!("malformed frame: {e}")),
        _ => ServerError::Io(e),
    }
}

/// Serves one framed connection: decodes request frames, dispatches events
/// through `service` with at most `window` calls in flight (acking the
/// oldest call whenever the window fills), and answers an aggregate request
/// by draining the window, flushing the service, and returning the
/// order-independent aggregate. Returns the number of events answered when
/// the peer closes the stream.
///
/// # Bounded per-connection buffering
///
/// `pending` never holds more than `window` in-flight calls: a burst is at
/// most a window of frames the transport had already buffered, and to admit
/// it the loop first blocks resolving (and acking) the oldest calls it needs
/// the room of, so executor backpressure (a full queue parking the submission)
/// propagates to the transport instead of accumulating unbounded
/// per-connection state — an open-loop client bursting frames faster than
/// handlers drain only fills the transport's buffers, never this loop's.
/// A peer that disconnects mid-stream (EOF or transport error) leaves at
/// most `window` abandoned calls, plus the burst in hand if it was an ack
/// that failed: their handlers still run to completion on the executor
/// (keeping the service state consistent), but no reply is encoded for them.
///
/// # Errors
///
/// [`ServerError::Io`] on transport failure, [`ServerError::Protocol`] on a
/// malformed, truncated, or oversized frame, [`ServerError::Shutdown`] if
/// the executor behind the service shuts down while calls are in flight.
pub fn serve(
    service: &dyn ProtocolService,
    transport: &mut dyn Transport,
    window: usize,
) -> Result<u64, ServerError> {
    serve_observed(service, transport, window, Durability::Off, None)
}

/// Durability configuration for [`serve_observed`]: whether, and how, the
/// serve loop write-ahead-logs every event before dispatching it.
#[derive(Debug)]
pub enum Durability<'a> {
    /// No logging — the configuration [`serve`] runs with.
    Off,
    /// Append every event to `wal` before the service sees it, sync
    /// (durability barrier) every `sync_every` events, and append a full
    /// state snapshot every `snapshot_every` events to bound recovery
    /// replay. Snapshot cadences that are not multiples of `sync_every` get
    /// both record kinds at their own cadences; a snapshot always syncs.
    Log {
        /// The write-ahead log to append to.
        wal: &'a mut WalWriter,
        /// Events between sync points (clamped to at least 1).
        sync_every: u64,
        /// Events between snapshot records; `0` takes none.
        snapshot_every: u64,
    },
}

/// [`serve`] with a [`Durability`] configuration and optional
/// observability — the blocking driver of the connection state machine
/// (`Conn`, in `conn.rs`), one thread per connection, acking lazily.
///
/// With [`Durability::Log`] every event is appended to the write-ahead log
/// **before** the service dispatches it, so a crash at any point loses at
/// most replies, never acknowledged-and-synced state:
///
/// * a burst (what the transport had already delivered; one event where it
///   does not read ahead) is appended in order, dispatched in one
///   [`ProtocolService::call_burst`], then (window permitting) acked; on
///   every exit, errors included, each appended event has been dispatched;
/// * every `sync_every` events the log syncs, inside a burst too: the log
///   bytes do not depend on burst sizes;
/// * every `snapshot_every` events (which ends the burst) the loop flushes
///   the service, exports its state ([`ProtocolService::snapshot_words`]) and
///   appends a snapshot record; services that cannot export downgrade it to
///   a plain sync. The flush does **not** drain acks, so durability never
///   perturbs the reply cadence;
/// * an aggregate request and a clean end of stream both sync, so a politely
///   closed connection always leaves a fully durable log.
///
/// When `obs` is set, every ack bumps the shared reply counter and records
/// server-side latency (decode to ack) into the reply histogram, and a
/// [`WireRequest::Metrics`] frame answers with the rendered registry (an
/// empty payload when `obs` is `None`). Recording never changes what is
/// read, dispatched, or replied, so aggregates stay byte-identical with
/// observability on and off.
///
/// # Errors
///
/// As [`serve`], plus [`ServerError::Io`] if appending to or syncing the
/// log fails — a durability failure tears the connection down rather than
/// silently serving without its log.
pub fn serve_observed(
    service: &dyn ProtocolService,
    transport: &mut dyn Transport,
    window: usize,
    durability: Durability<'_>,
    obs: Option<&ConnObs>,
) -> Result<u64, ServerError> {
    let window = window.max(1);
    let mut conn = Conn::new(durability, obs.cloned());
    // A malformed frame that arrived behind a burst, reported once the
    // burst is dispatched.
    let mut malformed = None;
    loop {
        if conn.has_control() {
            while conn.in_flight() > 0 {
                transport.send(&conn.ack_oldest()?)?;
            }
            if let Some(reply) = conn.answer(service)? {
                transport.send(&reply)?;
            }
            transport.flush()?;
        }
        if let Some(e) = malformed.take() {
            return Err(e);
        }
        let Some(frame) = recv_frame(transport)? else {
            // Clean disconnect: abandon the in-flight replies. Their
            // handlers still run to completion on the executor, so the
            // service state stays consistent.
            conn.sync()?;
            return Ok(conn.answered);
        };
        let Some(first) = conn.request(&frame)? else {
            continue;
        };
        // The burst: this event plus those the transport can hand over
        // without blocking, a window's worth at most, each logged before the
        // next is looked at. Whatever ends it early waits in `stop`,
        // `malformed` or the held control request until the burst is
        // dispatched: a logged event is a dispatched one on every exit.
        let mut burst = Vec::new();
        let mut next = Some(first);
        let mut snapshot_due = false;
        let mut stop = Ok(());
        while let Some(event) = next.take() {
            match conn.log(&event) {
                Ok(logged) => (snapshot_due, stop) = (logged.snapshot_due, logged.synced),
                Err(e) => {
                    stop = Err(e);
                    break;
                }
            }
            burst.push(event);
            if stop.is_err() || snapshot_due || burst.len() == window {
                break;
            }
            match transport.try_recv().map_err(frame_error) {
                Ok(Some(frame)) => match conn.request(&frame) {
                    Ok(event) => next = event,
                    Err(e) => malformed = Some(e),
                },
                Ok(None) => {}
                Err(e) => stop = Err(e),
            }
        }
        // Acks stay lazy: only as many as make room for the burst.
        let room = stop.and_then(|()| {
            while conn.in_flight() + burst.len() > window {
                transport.send(&conn.ack_oldest()?)?;
            }
            Ok(())
        });
        let replies = service.call_burst(burst);
        room?;
        conn.push_replies(replies);
        debug_assert!(conn.in_flight() <= window, "reply window overflowed");
        if conn.in_flight() >= window {
            transport.send(&conn.ack_oldest()?)?;
        }
        if snapshot_due {
            conn.snapshot(service)?;
        }
    }
}

/// Streams the deterministic event stream of `cfg` to a protocol server over
/// `transport` ([`run_client_events`]), then requests and returns the final
/// aggregate.
///
/// Every ack is verified against the reply digest the client expects for the
/// event at that position (the server answers strictly in request order).
/// `window` must be **larger than the server's reply window** — the server
/// only acks request `i` once request `i + server_window` has arrived, so a
/// client that stops sending to wait for acks earlier than that deadlocks
/// the pipeline.
///
/// # Errors
///
/// [`ServerError::Io`] on transport failure, [`ServerError::Protocol`] on a
/// malformed or mismatching reply.
pub fn run_client(
    transport: &mut dyn Transport,
    cfg: &ServerConfig,
    window: usize,
) -> Result<ServerAggregate, ServerError> {
    let report = run_client_events(transport, &generate_events(cfg), window, false)?;
    transport.send(&encode_aggregate_request())?;
    transport.flush()?;
    let frame = recv_frame(transport)?
        .ok_or_else(|| ServerError::Protocol("server closed before the aggregate".into()))?;
    let aggregate = decode_aggregate_reply(&frame)?;
    if aggregate.completed + report.panicked != cfg.events as u64 {
        return Err(ServerError::Protocol(format!(
            "server completed {} + {} panicked of {} events",
            aggregate.completed, report.panicked, cfg.events
        )));
    }
    Ok(aggregate)
}

/// What one [`run_client_events`] run observed.
#[derive(Debug, Default, Clone)]
pub struct ClientReport {
    /// Events streamed to the server.
    pub sent: u64,
    /// Acks received and digest-verified.
    pub acked: u64,
    /// Acks reporting a panicked handler.
    pub panicked: u64,
    /// Per-reply latency samples (nanoseconds from sending a request to
    /// receiving its ack), in request order. Empty unless requested.
    pub latencies_ns: Vec<u64>,
}

/// Streams `events` to a protocol server, digest-verifies every ack, and
/// returns without fetching an aggregate — the client driver for
/// **multi-client** runs, where the server state is shared and a
/// per-connection aggregate snapshot would be racy and meaningless. The run
/// ends with a drain request so the server acks the tail of the window
/// before the client closes.
///
/// With `record_latency`, every request's send time is kept and the
/// ack-to-send delta recorded in [`ClientReport::latencies_ns`] — the soak
/// driver merges these across clients into its percentile report.
///
/// As with [`run_client`], `window` (the maximum unanswered requests before
/// the client stops to read an ack) must exceed the server's reply window on
/// windowed serve loops ([`serve`] / the pool tier); the poll tier acks
/// eagerly and accepts any window.
///
/// # Errors
///
/// [`ServerError::Io`] on transport failure, [`ServerError::Protocol`] on a
/// malformed or mismatching reply or a server that closes early.
pub fn run_client_events(
    transport: &mut dyn Transport,
    events: &[ProtocolEvent],
    window: usize,
    record_latency: bool,
) -> Result<ClientReport, ServerError> {
    let window = window.max(1);
    let mut expected: VecDeque<Reply> = VecDeque::with_capacity(window);
    let mut sent_at: VecDeque<Instant> = VecDeque::new();
    let mut report = ClientReport::default();
    let mut events = events.iter();
    let mut closed = false;
    loop {
        if expected.len() < window && !closed {
            if let Some(event) = events.next() {
                transport.send(&encode_event_request(event))?;
                report.sent += 1;
                expected.push_back(Reply::for_event(event));
                if record_latency {
                    sent_at.push_back(Instant::now());
                }
                continue;
            }
            transport.send(&encode_drain_request())?;
            transport.flush()?;
            closed = true;
        }
        let Some(want) = expected.pop_front() else {
            return Ok(report);
        };
        report.panicked += u64::from(read_ack(transport, Some(want), true)?);
        if let Some(at) = sent_at.pop_front() {
            report
                .latencies_ns
                .push(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        report.acked += 1;
    }
}

/// Reads the next ack and checks it against what the oldest outstanding
/// request owes: `Some(reply)`, or `None` where its handler must have
/// panicked. With `tolerate_panic`, a panicked handler may answer a
/// `Some` too. Returns whether the handler panicked.
pub(crate) fn read_ack(
    transport: &mut dyn Transport,
    want: Option<Reply>,
    tolerate_panic: bool,
) -> Result<bool, ServerError> {
    let frame = recv_frame(transport)?
        .ok_or_else(|| ServerError::Protocol("server closed before acking".into()))?;
    let ack = decode_ack(&frame)?;
    match (ack.status, want) {
        (ACK_DONE, Some(want)) if ack.reply == want => Ok(false),
        (ACK_PANICKED, None) => Ok(true),
        (ACK_PANICKED, Some(_)) if tolerate_panic => Ok(true),
        (ACK_DONE, Some(want)) => Err(ServerError::Protocol(format!(
            "reply mismatch: got {:?}, expected {:?}",
            ack.reply, want
        ))),
        (ACK_DONE | ACK_PANICKED, want) => Err(ServerError::Protocol(format!(
            "ack mismatch: status {}, reply {:?}, expected {want:?}",
            ack.status, ack.reply
        ))),
        (other, _) => Err(ServerError::Protocol(format!("unknown ack status {other}"))),
    }
}

/// Requests the server's metrics text in-band on an idle protocol
/// connection and returns it. Send this only while no acks are outstanding
/// (before streaming events, or after a drain): the metrics reply is not an
/// ack frame, so an interleaved probe would desynchronise a windowed client.
///
/// # Errors
///
/// [`ServerError::Io`] on transport failure, [`ServerError::Protocol`] on a
/// malformed reply or a server that closes instead of answering.
pub fn run_metrics_probe(transport: &mut dyn Transport) -> Result<String, ServerError> {
    transport.send(&encode_metrics_request())?;
    transport.flush()?;
    let frame = recv_frame(transport)?
        .ok_or_else(|| ServerError::Protocol("server closed before the metrics reply".into()))?;
    decode_metrics_reply(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_server::run_server;
    use crate::server::{serve_pool, PoolOptions};
    use crate::transport::{loopback_pair, TcpTransport};
    use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
    use std::net::TcpListener;

    #[test]
    fn every_event_kind_roundtrips_through_the_codec() {
        let cfg = ServerConfig::quick();
        for event in generate_events(&cfg) {
            let frame = encode_event_request(&event);
            match decode_request(&frame).expect("well-formed frame") {
                WireRequest::Event(decoded) => assert_eq!(decoded, event),
                other => panic!("event decoded as {other:?}"),
            }
        }
    }

    /// Every [`WireRequest`] variant, with every [`Message`] kind spelled
    /// out explicitly (the generated-stream test above covers them only
    /// probabilistically), survives an encode/decode round trip.
    #[test]
    fn every_wire_request_variant_roundtrips_explicitly() {
        let block = BlockAddr(42);
        let messages = [
            Message::Req {
                request: Request::GetShared,
                requester: 3,
                block,
            },
            Message::Req {
                request: Request::GetExclusive,
                requester: 0,
                block,
            },
            Message::Invalidate { block, home: 5 },
            Message::InvalAck { block, from: 6 },
            Message::RecallShared { block, home: 7 },
            Message::RecallExclusive { block, home: 0 },
            Message::WritebackShared {
                block,
                from: 1,
                value: u64::MAX,
            },
            Message::WritebackExclusive {
                block,
                from: 2,
                value: 0,
            },
            Message::DataShared { block, value: 9 },
            Message::DataExclusive { block, value: 10 },
        ];
        let mut events = vec![
            ProtocolEvent::AccessFault {
                block,
                write: false,
                token: 0,
            },
            ProtocolEvent::AccessFault {
                block: BlockAddr(u64::MAX),
                write: true,
                token: u64::MAX,
            },
            ProtocolEvent::PageOp { page: PageAddr(0) },
            ProtocolEvent::PageOp {
                page: PageAddr(u64::MAX),
            },
        ];
        events.extend(
            messages
                .into_iter()
                .map(|msg| ProtocolEvent::Incoming { src: 4, msg }),
        );
        for event in events {
            let frame = encode_event_request(&event);
            match decode_request(&frame).expect("well-formed frame") {
                WireRequest::Event(decoded) => assert_eq!(decoded, event),
                other => panic!("{event:?} decoded as {other:?}"),
            }
        }
        assert_eq!(
            decode_request(&encode_aggregate_request()).expect("well-formed frame"),
            WireRequest::Aggregate
        );
        assert_eq!(
            decode_request(&encode_drain_request()).expect("well-formed frame"),
            WireRequest::Drain
        );
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        assert!(matches!(decode_request(&[]), Err(ServerError::Protocol(_))));
        assert!(matches!(
            decode_request(&[0x7F]),
            Err(ServerError::Protocol(_))
        ));
        // Truncated event body.
        let mut frame = encode_event_request(&ProtocolEvent::PageOp { page: PageAddr(3) });
        frame.truncate(4);
        assert!(matches!(
            decode_request(&frame),
            Err(ServerError::Protocol(_))
        ));
        // Trailing garbage.
        let mut frame = encode_aggregate_request();
        frame.push(0);
        assert!(matches!(
            decode_request(&frame),
            Err(ServerError::Protocol(_))
        ));
    }

    #[test]
    fn aggregates_roundtrip_through_the_codec() {
        let agg = ServerAggregate {
            events: 1,
            faults: 2,
            write_faults: 3,
            requests: 4,
            invalidations: 5,
            acks: 6,
            recalls: 7,
            writebacks: 8,
            grants: 9,
            page_ops: 10,
            block_checksum: 0xdead_beef,
            page_checksum: 0xcafe,
            completed: 11,
        };
        let decoded = decode_aggregate_reply(&encode_aggregate_reply(&agg)).unwrap();
        assert_eq!(decoded, agg);
    }

    #[test]
    fn loopback_service_matches_the_in_process_run_for_every_executor() {
        let cfg = ServerConfig::quick();
        for name in EXECUTOR_NAMES {
            let mut pool = build_executor(name, &ExecutorSpec::new(2).capacity(32))
                .expect("registry name builds");
            let reference = run_server(&*pool, &cfg, 64).expect("in-process run");
            let mut pool2 = build_executor(name, &ExecutorSpec::new(2).capacity(32))
                .expect("registry name builds");
            let service = ExecutorService::new(&*pool2, cfg.blocks);
            let (mut client_end, mut server_end) = loopback_pair();
            let aggregate = std::thread::scope(|scope| {
                let server = scope.spawn(move || serve(&service, &mut server_end, 64));
                let aggregate = run_client(&mut client_end, &cfg, 128).expect("client run");
                drop(client_end);
                server.join().expect("server thread").expect("server run");
                aggregate
            });
            assert_eq!(
                aggregate, reference,
                "{name}: transport changed the aggregate"
            );
            assert_eq!(
                aggregate.to_json_string(),
                reference.to_json_string(),
                "{name}: JSON diverged"
            );
            pool.shutdown();
            pool2.shutdown();
        }
    }

    #[test]
    fn durable_serve_matches_plain_serve_and_leaves_a_replayable_log() {
        use crate::wal::{replay, scan_bytes, SharedSink, WalWriter};
        let cfg = ServerConfig::quick();
        let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(32)).expect("pdq builds");
        let reference = run_server(&*pool, &cfg, 64).expect("in-process run");
        let pool2 = build_executor("pdq", &ExecutorSpec::new(2).capacity(32)).expect("pdq builds");
        let service = ExecutorService::new(&*pool2, cfg.blocks);
        let sink = SharedSink::new();
        let mut wal = WalWriter::new(sink.clone(), cfg.blocks).expect("header write");
        let (mut client_end, mut server_end) = loopback_pair();
        let aggregate = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve_observed(
                    &service,
                    &mut server_end,
                    64,
                    Durability::Log {
                        wal: &mut wal,
                        sync_every: 32,
                        snapshot_every: 512,
                    },
                    None,
                )
            });
            let aggregate = run_client(&mut client_end, &cfg, 128).expect("client run");
            drop(client_end);
            server.join().expect("server thread").expect("server run");
            aggregate
        });
        // Durability must not perturb the observable protocol: the aggregate
        // is byte-identical to the WAL-less in-process run.
        assert_eq!(aggregate, reference);
        // The log recovers cleanly, with a snapshot bounding the suffix, and
        // replays to the exact same aggregate.
        let recovery = scan_bytes(&sink.image());
        assert!(!recovery.torn);
        assert_eq!(recovery.total_events, cfg.events as u64);
        assert_eq!(recovery.synced_events, cfg.events as u64);
        let snapshot = recovery.snapshot.as_ref().expect("snapshot cadence hit");
        assert!(snapshot.events >= 512);
        assert!(recovery.suffix.len() < cfg.events);
        let pool3 = build_executor("spinlock", &ExecutorSpec::new(4).capacity(32)).expect("builds");
        let replayed = replay(&recovery, &*pool3).expect("replay");
        assert_eq!(replayed, reference);
        assert_eq!(replayed.to_json_string(), reference.to_json_string());
    }

    #[test]
    fn tcp_service_matches_the_loopback_service() {
        let cfg = ServerConfig::quick().events(800);
        let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(16)).expect("pdq builds");
        let service = ExecutorService::new(&*pool, cfg.blocks);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let tcp_aggregate = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_pool(&listener, &service, &PoolOptions::new(1, 32)));
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            let mut transport = TcpTransport::new(stream).expect("transport");
            let aggregate = run_client(&mut transport, &cfg, 64).expect("client run");
            drop(transport);
            server.join().expect("server thread").expect("server run");
            aggregate
        });
        let pool2 = build_executor("pdq", &ExecutorSpec::new(2).capacity(16)).expect("pdq builds");
        let reference = run_server(&*pool2, &cfg, 32).expect("in-process run");
        assert_eq!(tcp_aggregate, reference);
    }

    #[test]
    fn serve_holds_at_most_window_calls_in_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Condvar;

        /// A service whose handlers block on a gate, so the number of `call`
        /// invocations the serve loop makes is directly observable while no
        /// reply can resolve.
        struct GatedService<'a> {
            executor: &'a dyn Executor,
            gate: Arc<(std::sync::Mutex<bool>, Condvar)>,
            calls: AtomicUsize,
        }
        impl ProtocolService for GatedService<'_> {
            fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                let gate = Arc::clone(&self.gate);
                self.executor
                    .submit_async_returning(request.sync_key(), move || {
                        let (lock, cvar) = &*gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cvar.wait(open).unwrap();
                        }
                        Reply::for_event(&request)
                    })
            }
            fn flush(&self) {
                self.executor.flush();
            }
            fn aggregate(&self, completed: u64) -> ServerAggregate {
                ServerAggregate {
                    completed,
                    ..ServerAggregate::default()
                }
            }
        }

        const WINDOW: usize = 8;
        const FLOOD: usize = 100;
        let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(256)).expect("pdq builds");
        let service = GatedService {
            executor: &*pool,
            gate: Arc::new((std::sync::Mutex::new(false), Condvar::new())),
            calls: AtomicUsize::new(0),
        };
        let (mut client_end, mut server_end) = loopback_pair();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&service, &mut server_end, WINDOW));
            // Open-loop flood: every frame is buffered by the loopback
            // channel immediately, far ahead of the serve loop.
            let events = generate_events(&ServerConfig::quick().events(FLOOD));
            for event in &events {
                client_end.send(&encode_event_request(event)).unwrap();
            }
            // The serve loop must stall with exactly WINDOW calls in flight:
            // it cannot resolve the oldest (the gate is closed), so it must
            // not read further frames. Wait for the stall, then confirm the
            // count holds.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while service.calls.load(Ordering::SeqCst) < WINDOW {
                assert!(
                    std::time::Instant::now() < deadline,
                    "serve never filled its window"
                );
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
            assert_eq!(
                service.calls.load(Ordering::SeqCst),
                WINDOW,
                "serve buffered beyond its reply window"
            );
            // Open the gate; the whole flood drains and every ack verifies.
            {
                let (lock, cvar) = &*service.gate;
                *lock.lock().unwrap() = true;
                cvar.notify_all();
            }
            client_end.send(&encode_aggregate_request()).unwrap();
            for event in &events {
                let frame = client_end.recv().unwrap().expect("ack frame");
                let ack = decode_ack(&frame).expect("well-formed ack");
                assert_eq!(ack.reply, Reply::for_event(event));
            }
            let frame = client_end.recv().unwrap().expect("aggregate frame");
            let agg = decode_aggregate_reply(&frame).expect("aggregate reply");
            assert_eq!(agg.completed, FLOOD as u64);
            drop(client_end);
            let answered = server.join().expect("server thread").expect("server run");
            assert_eq!(answered, FLOOD as u64);
        });
        assert_eq!(service.calls.load(Ordering::SeqCst), FLOOD);
    }

    #[test]
    fn truncated_streams_surface_as_protocol_errors_not_io() {
        // A length prefix promising more than the peer delivers must reach
        // the serve loop as a typed protocol violation.
        let pool = build_executor("pdq", &ExecutorSpec::new(1)).expect("pdq builds");
        let service = ExecutorService::new(&*pool, 8);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let outcome = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_pool(&listener, &service, &PoolOptions::new(1, 4)));
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            use std::io::Write;
            // Claim 100 payload bytes, deliver 3, then close.
            stream.write_all(&100u32.to_le_bytes()).expect("prefix");
            stream.write_all(&[1, 2, 3]).expect("partial payload");
            drop(stream);
            server.join().expect("server thread")
        });
        match outcome {
            Err(ServerError::Protocol(msg)) => {
                assert!(msg.contains("truncated"), "unexpected message: {msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn service_surfaces_executor_shutdown_as_a_typed_error() {
        let cfg = ServerConfig::quick().events(50);
        let mut pool = build_executor("pdq", &ExecutorSpec::new(1)).expect("pdq builds");
        pool.shutdown();
        let service = ExecutorService::new(&*pool, cfg.blocks);
        let (mut client_end, mut server_end) = loopback_pair();
        let outcome = std::thread::scope(|scope| {
            let server = scope.spawn(move || serve(&service, &mut server_end, 4));
            // Stream events; the server will fail on the first drained call.
            let _ = run_client(&mut client_end, &cfg, 8);
            drop(client_end);
            server.join().expect("server thread")
        });
        assert!(matches!(outcome, Err(ServerError::Shutdown)));
    }
}
