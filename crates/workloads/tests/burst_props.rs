//! The blocking tier's bursts: the flush rule of [`FramedStream`] (flush only
//! when the coming read could block) and the invariants of the burst loop in
//! `serve_observed` (log bytes independent of burst sizes, a logged event is
//! a dispatched one, acks lazy and in request order, the window bound).
//!
//! Burst sizes are forced, not hoped for: the in-memory tests hand
//! `FramedStream` a reader that delivers either everything in one `read` or
//! one frame per `read`, which is exactly what decides how much the serve
//! loop can take without blocking.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pdq_core::executor::{build_executor, Executor, ExecutorExt, ExecutorSpec, TypedFuture};
use pdq_dsm::{PageAddr, ProtocolEvent};
use pdq_workloads::service::{
    encode_aggregate_request, encode_drain_request, encode_event_request,
};
use pdq_workloads::transport::{read_frame, write_frame};
use pdq_workloads::{
    generate_events, reference_aggregate, replay, scan_bytes, serve, serve_observed, serve_pool,
    Durability, ExecutorService, FramedStream, PoolOptions, ProtocolService, Reply,
    ServerAggregate, ServerConfig, ServerError, SharedSink, Transport, WalWriter,
};

/// A stream's read half that hands out prepared chunks, one per `read`, then
/// reports end of stream; counts the calls.
struct ChunkReader {
    chunks: std::vec::IntoIter<Vec<u8>>,
    reads: Arc<AtomicUsize>,
}

impl Read for ChunkReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let Some(chunk) = self.chunks.next() else {
            return Ok(0);
        };
        assert!(
            chunk.len() <= out.len(),
            "a chunk must fit one buffered read"
        );
        out[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

/// A stream's write half that keeps what it is given and counts the calls.
#[derive(Clone, Default)]
struct CountingWriter {
    bytes: Arc<Mutex<Vec<u8>>>,
    writes: Arc<AtomicUsize>,
}

impl Write for CountingWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How the request stream reaches the server's read buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Delivery {
    /// As few `read`s as the 8 KiB read buffer allows (200 frames each): the
    /// largest bursts the window allows.
    OneWrite,
    /// One `read` per frame: bursts of one, the loop as it always was.
    FramePerWrite,
}

fn framed(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    payloads
        .iter()
        .map(|payload| {
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).unwrap();
            wire
        })
        .collect()
}

/// A server-side transport over in-memory halves whose read half delivers
/// `payloads` as `delivery` says, plus the handles to inspect afterwards.
fn in_memory(
    payloads: &[Vec<u8>],
    delivery: Delivery,
) -> (
    FramedStream<ChunkReader, CountingWriter>,
    CountingWriter,
    Arc<AtomicUsize>,
) {
    let frames = framed(payloads);
    let chunks = match delivery {
        Delivery::OneWrite => frames.chunks(200).map(<[Vec<u8>]>::concat).collect(),
        Delivery::FramePerWrite => frames,
    };
    let reads = Arc::new(AtomicUsize::new(0));
    let reader = ChunkReader {
        chunks: chunks.into_iter(),
        reads: Arc::clone(&reads),
    };
    let writer = CountingWriter::default();
    (
        FramedStream::from_halves(reader, writer.clone()),
        writer,
        reads,
    )
}

/// `count` generated events with a `Sequential` page operation planted in the
/// middle, so that every burst test crosses a barrier job.
fn events_with_a_page_op(count: usize) -> Vec<ProtocolEvent> {
    let mut events = generate_events(&ServerConfig::quick().events(count));
    events[count / 2] = ProtocolEvent::PageOp { page: PageAddr(3) };
    events
}

fn requests(events: &[ProtocolEvent], last: Vec<u8>) -> Vec<Vec<u8>> {
    let mut payloads: Vec<Vec<u8>> = events.iter().map(encode_event_request).collect();
    payloads.push(last);
    payloads
}

/// The ack stream a well-behaved server owes for `events`: one ack frame per
/// event, in request order (`0x81`, status done, class, digest).
fn expected_acks(events: &[ProtocolEvent]) -> Vec<u8> {
    let mut wire = Vec::new();
    for event in events {
        let reply = Reply::for_event(event);
        let mut ack = vec![0x81, 0, reply.class];
        ack.extend_from_slice(&reply.digest.to_le_bytes());
        write_frame(&mut wire, &ack).unwrap();
    }
    wire
}

// ---------------------------------------------------------------------------
// The flush rule
// ---------------------------------------------------------------------------

fn raw_client(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // A broken flush rule shows as a hang; turn it into a failure.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// Window 1, frame A plus the first three bytes of frame B in one write: the
/// server's read buffer is non-empty after A but holds no whole frame, so A's
/// ack must be flushed before the server waits for the rest of B. (Flushing
/// only on an *empty* buffer deadlocks here: the client sends the rest of B
/// only once it has A's ack.)
#[test]
fn a_buffered_partial_frame_still_flushes_the_pending_ack() {
    let events = generate_events(&ServerConfig::quick().events(2));
    let pool = build_executor("pdq", &ExecutorSpec::new(1)).expect("pdq builds");
    let service = ExecutorService::new(&*pool, ServerConfig::quick().blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let server = scope
            .spawn(|| serve_pool(&listener, &service, &PoolOptions::new(1, 1)).map(|r| r.answered));
        let mut stream = raw_client(addr);
        let frames = framed(&requests(&events, encode_drain_request()));
        let started = Instant::now();
        let mut first = frames[0].clone();
        first.extend_from_slice(&frames[1][..3]);
        stream.write_all(&first).expect("A and a sliver of B");
        let ack = read_frame(&mut stream).expect("A's ack").expect("a frame");
        assert_eq!(ack[0], 0x81);
        stream.write_all(&frames[1][3..]).expect("the rest of B");
        let ack = read_frame(&mut stream).expect("B's ack").expect("a frame");
        assert_eq!(ack[0], 0x81);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "two window-1 round trips took {:?}",
            started.elapsed()
        );
        drop(stream);
        assert_eq!(server.join().expect("server thread").expect("serve"), 2);
    });
}

/// Window 1 ping-pong over real TCP: every request is acked on its own,
/// without a second request (or anything else) arriving to push it out.
#[test]
fn window_one_ping_pong_acks_each_request_on_its_own() {
    let events = generate_events(&ServerConfig::quick().events(200));
    let pool = build_executor("pdq", &ExecutorSpec::new(1)).expect("pdq builds");
    let service = ExecutorService::new(&*pool, ServerConfig::quick().blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let server = scope
            .spawn(|| serve_pool(&listener, &service, &PoolOptions::new(1, 1)).map(|r| r.answered));
        let mut stream = raw_client(addr);
        let mut slowest = Duration::ZERO;
        for event in &events {
            let sent = Instant::now();
            write_frame(&mut stream, &encode_event_request(event)).expect("request");
            let ack = read_frame(&mut stream).expect("ack").expect("a frame");
            slowest = slowest.max(sent.elapsed());
            assert_eq!(ack, expected_acks(std::slice::from_ref(event))[4..]);
        }
        assert!(
            slowest < Duration::from_secs(1),
            "a lone request waited {slowest:?} for its ack"
        );
        drop(stream);
        assert_eq!(server.join().expect("server thread").expect("serve"), 200);
    });
}

/// 64 requests delivered by one read, then a drain: the acks leave in a
/// handful of writes (one, in fact: they fit the write buffer and nothing
/// forces them out before the drain), not one write per ack — and the
/// requests cost a handful of reads.
#[test]
fn acks_of_one_delivery_leave_in_a_handful_of_writes() {
    let events = events_with_a_page_op(64);
    let pool = build_executor("pdq", &ExecutorSpec::new(2)).expect("pdq builds");
    let service = ExecutorService::new(&*pool, ServerConfig::quick().blocks);
    for window in [1, 8, 64, 100] {
        let (mut transport, out, reads) = in_memory(
            &requests(&events, encode_drain_request()),
            Delivery::OneWrite,
        );
        assert_eq!(serve(&service, &mut transport, window).expect("serve"), 64);
        drop(transport);
        assert_eq!(*out.bytes.lock().unwrap(), expected_acks(&events));
        let writes = out.writes.load(Ordering::Relaxed);
        assert!(writes <= 2, "window {window}: {writes} writes for 64 acks");
        let reads = reads.load(Ordering::Relaxed);
        assert!(reads <= 3, "window {window}: {reads} reads for 65 frames");
    }
}

// ---------------------------------------------------------------------------
// Burst invariants
// ---------------------------------------------------------------------------

/// What one durable serve run left behind.
struct DurableRun {
    outcome: Result<u64, ServerError>,
    log: Vec<u8>,
    /// The service's state once everything dispatched has run.
    live: ServerAggregate,
}

/// Serves `transport` with window 16 and a log syncing every 7 events;
/// `snapshot_every` 0 takes no snapshots.
fn durable_run(
    transport: &mut dyn Transport,
    snapshot_every: u64,
    crash_after: Option<u64>,
) -> DurableRun {
    let blocks = ServerConfig::quick().blocks;
    let mut pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(32)).expect("pdq builds");
    let service = ExecutorService::new(&*pool, blocks);
    let sink = SharedSink::new();
    let mut wal = WalWriter::new(sink.clone(), blocks).expect("header");
    if let Some(n) = crash_after {
        wal.arm_crash_after_events(n);
    }
    let durability = Durability::Log {
        wal: &mut wal,
        sync_every: 7,
        snapshot_every,
    };
    let outcome = serve_observed(&service, transport, 16, durability, None);
    service.flush();
    let log = sink.image();
    let live = service.aggregate(scan_bytes(&log).total_events);
    drop(service);
    pool.shutdown();
    DurableRun { outcome, log, live }
}

/// [`durable_run`] over in-memory stream halves; also returns the reply bytes.
fn durable_stream_run(
    events: &[ProtocolEvent],
    delivery: Delivery,
    snapshot_every: u64,
    crash_after: Option<u64>,
) -> (DurableRun, Vec<u8>) {
    let (mut transport, out, _) =
        in_memory(&requests(events, encode_aggregate_request()), delivery);
    let run = durable_run(&mut transport, snapshot_every, crash_after);
    drop(transport);
    let wire = out.bytes.lock().unwrap().clone();
    (run, wire)
}

/// The log is a function of the event stream alone: the same bytes whether
/// the events arrive one per read (bursts of one) or all in one read (bursts
/// of a window, with sync points inside them and snapshots cutting them),
/// and the same reply stream too.
#[test]
fn the_log_does_not_depend_on_how_the_events_were_delivered() {
    let events = events_with_a_page_op(300);
    // 50 is no multiple of the window, so snapshots fall inside bursts.
    for snapshot_every in [0, 50] {
        let (single, single_wire) =
            durable_stream_run(&events, Delivery::FramePerWrite, snapshot_every, None);
        let (burst, burst_wire) =
            durable_stream_run(&events, Delivery::OneWrite, snapshot_every, None);
        assert_eq!(single.outcome.expect("serve"), 300);
        assert_eq!(burst.outcome.expect("serve"), 300);
        assert!(
            burst.log == single.log,
            "snapshot_every {snapshot_every}: the log depends on burst sizes"
        );
        assert!(
            burst_wire == single_wire,
            "snapshot_every {snapshot_every}: the replies depend on burst sizes"
        );
        assert!(burst_wire.starts_with(&expected_acks(&events)));
        let recovery = scan_bytes(&burst.log);
        assert!(!recovery.torn);
        assert_eq!(recovery.synced_events, 300);
        assert_eq!(recovery.snapshot.is_some(), snapshot_every > 0);
        assert_eq!(
            burst.live,
            reference_aggregate(&events, ServerConfig::quick().blocks)
        );
    }
}

/// The armed crash fires in the middle of a burst: what the log recovers is
/// exactly what the live service executed — no event appended but never
/// dispatched — for every cut point across two windows.
#[test]
fn a_crash_inside_a_burst_leaves_no_logged_event_undispatched() {
    let events = events_with_a_page_op(120);
    let blocks = ServerConfig::quick().blocks;
    for crash_after in 30..=62 {
        for snapshot_every in [0, 25] {
            let (run, _) = durable_stream_run(
                &events,
                Delivery::OneWrite,
                snapshot_every,
                Some(crash_after),
            );
            assert!(
                matches!(run.outcome, Err(ServerError::Io(_))),
                "cut {crash_after}: the armed crash must surface, got {:?}",
                run.outcome
            );
            let recovery = scan_bytes(&run.log);
            assert!(recovery.torn, "cut {crash_after}: the torn half-record");
            assert_eq!(recovery.total_events, crash_after);
            let pool = build_executor("spinlock", &ExecutorSpec::new(2)).expect("builds");
            let replayed = replay(&recovery, &*pool).expect("replay");
            assert_eq!(
                replayed, run.live,
                "cut {crash_after}: log and state differ"
            );
            assert_eq!(
                replayed,
                reference_aggregate(&events[..crash_after as usize], blocks)
            );
        }
    }
}

/// A transport with every request already at hand (`try_recv` never says
/// "not yet") whose peer stops taking replies after `sends_left` of them.
struct ScriptedTransport {
    frames: std::collections::VecDeque<Vec<u8>>,
    sends_left: usize,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, _payload: &[u8]) -> io::Result<()> {
        self.sends_left = self
            .sends_left
            .checked_sub(1)
            .ok_or(io::ErrorKind::BrokenPipe)?;
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.frames.pop_front())
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.recv()
    }
}

/// An ack fails — while room is being made for a burst that is already in
/// the log (every cut but the first of each window), or right after a
/// dispatch. The burst is dispatched all the same: log and state agree.
#[test]
fn a_failed_ack_leaves_no_logged_event_undispatched() {
    let events = events_with_a_page_op(120);
    for sends_left in 0..40 {
        let mut transport = ScriptedTransport {
            frames: requests(&events, encode_aggregate_request()).into(),
            sends_left,
        };
        let run = durable_run(&mut transport, 0, None);
        assert!(
            matches!(run.outcome, Err(ServerError::Io(_))),
            "{sends_left} acks allowed: {:?}",
            run.outcome
        );
        let recovery = scan_bytes(&run.log);
        assert!(recovery.total_events > sends_left as u64 && recovery.total_events < 120);
        let pool = build_executor("spinlock", &ExecutorSpec::new(2)).expect("builds");
        assert_eq!(
            replay(&recovery, &*pool).expect("replay"),
            run.live,
            "{sends_left} acks allowed: log and state differ"
        );
    }
}

/// A service whose handlers block on a gate and which counts dispatches, so
/// how far the serve loop ran ahead is observable while no reply resolves.
struct GatedService<'a> {
    executor: &'a dyn Executor,
    gate: Arc<(Mutex<bool>, Condvar)>,
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

/// With a hundred requests in the read buffer and no reply able to resolve,
/// the loop dispatches exactly one window and stops: a burst never carries
/// the in-flight count past the window.
#[test]
fn a_burst_never_carries_the_window_past_its_bound() {
    const WINDOW: usize = 8;
    let events = generate_events(&ServerConfig::quick().events(100));
    let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(256)).expect("pdq builds");
    let service = GatedService {
        executor: &*pool,
        gate: Arc::new((Mutex::new(false), Condvar::new())),
        calls: AtomicUsize::new(0),
    };
    let (mut transport, out, _) = in_memory(
        &requests(&events, encode_drain_request()),
        Delivery::OneWrite,
    );
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&service, &mut transport, WINDOW));
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.calls.load(Ordering::SeqCst) < WINDOW {
            assert!(Instant::now() < deadline, "serve never filled its window");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(
            service.calls.load(Ordering::SeqCst),
            WINDOW,
            "a burst ran past the reply window"
        );
        let (lock, cvar) = &*service.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        assert_eq!(server.join().expect("server thread").expect("serve"), 100);
    });
    drop(transport);
    assert_eq!(*out.bytes.lock().unwrap(), expected_acks(&events));
}

/// An executor that is gone when the burst arrives: the whole burst comes
/// back aborted and the loop reports it as a shutdown instead of waiting.
#[test]
fn a_burst_into_a_shut_down_executor_is_a_typed_error() {
    let events = events_with_a_page_op(50);
    for name in pdq_core::executor::EXECUTOR_NAMES {
        let mut pool = build_executor(name, &ExecutorSpec::new(1).capacity(4)).expect("builds");
        pool.shutdown();
        let service = ExecutorService::new(&*pool, ServerConfig::quick().blocks);
        let (mut transport, _, _) = in_memory(
            &requests(&events, encode_drain_request()),
            Delivery::OneWrite,
        );
        let outcome = serve(&service, &mut transport, 4);
        assert!(
            matches!(outcome, Err(ServerError::Shutdown)),
            "{name}: {outcome:?}"
        );
    }
}
