//! One protocol connection without its socket.
//!
//! [`Conn`] is everything a server connection knows apart from how its bytes
//! move: request decoding, the write-ahead log (append, sync cadence,
//! snapshots), the FIFO of in-flight replies and their latency stamps, ack
//! encoding, `completed`/`answered`, and the answers to `Drain`, `Metrics`
//! and `Aggregate`. It does no I/O (the sans-IO style of quinn-proto and
//! h11). Its two drivers only choose when to ack: the blocking
//! [`serve_observed`](crate::serve_observed) lazily, to make room in its
//! window; the poll tier's `PollConn` eagerly, whatever has finished.
//!
//! A control request is a barrier: the driver takes no further frame until
//! every call before it has been acked and the request answered, so each
//! control request gets exactly one answer, in request order.

use std::collections::VecDeque;
use std::time::Instant;

use pdq_core::executor::{CompletionHandle, JobError, TypedFuture};
use pdq_dsm::ProtocolEvent;

use crate::metrics::ConnObs;
use crate::protocol_server::ServerError;
use crate::service::{
    decode_request, encode_ack, encode_aggregate_reply, encode_metrics_reply, Ack, Durability,
    ProtocolService, Reply, WireRequest, ACK_DONE, ACK_PANICKED,
};

/// The protocol state of one connection; see the [module docs](self).
pub(crate) struct Conn<'a> {
    durability: Durability<'a>,
    pub(crate) obs: Option<ConnObs>,
    /// In-flight calls, oldest first.
    pending: VecDeque<TypedFuture<Reply>>,
    /// Decode timestamps, index-parallel to `pending`; empty unless `obs`.
    stamps: VecDeque<Instant>,
    /// The control request waiting for the calls before it.
    control: Option<WireRequest>,
    /// Calls that resolved `Ok` (the aggregate's `completed`).
    pub(crate) completed: u64,
    /// Acks encoded.
    pub(crate) answered: u64,
}

/// What logging one event leaves for the driver.
pub(crate) struct Logged {
    /// A snapshot of the state as of this event is due once it has been
    /// dispatched ([`Conn::snapshot`]), so the event ends its burst.
    pub(crate) snapshot_due: bool,
    /// The cadence's sync, when one ran. The event is in the log either way,
    /// so it is dispatched before a failure is reported.
    pub(crate) synced: Result<(), ServerError>,
}

impl<'a> Conn<'a> {
    /// A freshly accepted connection; `obs` records its open and close.
    pub(crate) fn new(durability: Durability<'a>, obs: Option<ConnObs>) -> Self {
        if let Some(obs) = &obs {
            obs.opened();
        }
        Self {
            durability,
            obs,
            pending: VecDeque::new(),
            stamps: VecDeque::new(),
            control: None,
            completed: 0,
            answered: 0,
        }
    }

    /// Calls logged and not acked yet, admitted or not.
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether a control request waits to be [`answer`](Self::answer)ed; the
    /// driver takes no frame meanwhile.
    pub(crate) fn has_control(&self) -> bool {
        self.control.is_some()
    }

    /// Decodes one request frame. An event comes back for the driver to
    /// [`log`](Self::log) and dispatch; a control request is held (`None`)
    /// until the calls before it are acked.
    pub(crate) fn request(&mut self, frame: &[u8]) -> Result<Option<ProtocolEvent>, ServerError> {
        debug_assert!(self.control.is_none(), "a frame behind a held control");
        match decode_request(frame)? {
            WireRequest::Event(event) => Ok(Some(event)),
            control => {
                self.control = Some(control);
                Ok(None)
            }
        }
    }

    /// Appends `event` to the log (if any) ahead of its dispatch, syncs on
    /// the cadence — inside a burst too, so the log bytes do not depend on
    /// burst sizes — and stamps it for the latency histogram.
    ///
    /// # Errors
    ///
    /// The append failed: the event is not in the log and must not be
    /// dispatched.
    pub(crate) fn log(&mut self, event: &ProtocolEvent) -> Result<Logged, ServerError> {
        let mut logged = Logged {
            snapshot_due: false,
            synced: Ok(()),
        };
        if let Durability::Log {
            wal,
            sync_every,
            snapshot_every,
        } = &mut self.durability
        {
            let appended = wal.append_event(event)?;
            logged.snapshot_due = *snapshot_every > 0 && appended % *snapshot_every == 0;
            if !logged.snapshot_due && appended % (*sync_every).max(1) == 0 {
                logged.synced = wal.sync().map_err(ServerError::Io);
            }
        }
        if self.obs.is_some() {
            self.stamps.push_back(Instant::now());
        }
        Ok(logged)
    }

    /// Queues the replies of logged events, in request order.
    pub(crate) fn push_replies(&mut self, replies: impl IntoIterator<Item = TypedFuture<Reply>>) {
        self.pending.extend(replies);
    }

    /// The completion handle of the oldest call, the one acked next.
    pub(crate) fn oldest(&self) -> Option<&CompletionHandle> {
        self.pending.front().map(TypedFuture::handle)
    }

    /// Whether the oldest call has run, so acking it would not block.
    pub(crate) fn oldest_finished(&self) -> bool {
        self.oldest()
            .is_some_and(|handle| handle.status().is_some())
    }

    /// Resolves the oldest in-flight call, blocking until it has run, and
    /// encodes its ack; [`ServerError::Shutdown`] if the executor shut down
    /// underneath the call (a typed error instead of a lost reply).
    pub(crate) fn ack_oldest(&mut self) -> Result<[u8; 11], ServerError> {
        let reply = self.pending.pop_front().expect("a call is in flight");
        let (status, reply) = match reply.wait() {
            Ok(reply) => {
                self.completed += 1;
                (ACK_DONE, reply)
            }
            Err(JobError::Panicked) => (
                ACK_PANICKED,
                Reply {
                    class: 0xFF,
                    digest: 0,
                },
            ),
            Err(JobError::Aborted) => return Err(ServerError::Shutdown),
        };
        if let (Some(obs), Some(stamp)) = (&self.obs, self.stamps.pop_front()) {
            obs.reply(stamp.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        self.answered += 1;
        Ok(encode_ack(Ack { status, reply }))
    }

    /// Takes the snapshot [`Logged::snapshot_due`] asked for, once its event
    /// is dispatched: flushes the service, exports its state and appends it
    /// (a snapshot syncs); a service that cannot export gets a plain sync.
    /// Acks are not drained, so the reply cadence is the same with and
    /// without a log.
    pub(crate) fn snapshot(&mut self, service: &dyn ProtocolService) -> Result<(), ServerError> {
        if let Durability::Log { wal, .. } = &mut self.durability {
            service.flush();
            match service.snapshot_words() {
                Some(words) => wal.append_snapshot(&words)?,
                None => wal.sync()?,
            }
        }
        Ok(())
    }

    /// Answers the held control request once every call before it has been
    /// acked: its reply frame, or `None` for a drain (whose answer is the
    /// acks). An aggregate flushes the *shared* service first so the fold is
    /// quiescent, and syncs the log.
    pub(crate) fn answer(
        &mut self,
        service: &dyn ProtocolService,
    ) -> Result<Option<Vec<u8>>, ServerError> {
        debug_assert!(self.pending.is_empty(), "control answered before its acks");
        let reply = match self.control.take().expect("a control request is held") {
            WireRequest::Metrics => {
                encode_metrics_reply(&self.obs.as_ref().map(ConnObs::render).unwrap_or_default())
            }
            WireRequest::Aggregate => {
                service.flush();
                self.sync()?;
                encode_aggregate_reply(&service.aggregate(self.completed))
            }
            WireRequest::Drain => return Ok(None),
            WireRequest::Event(_) => unreachable!("events are never held"),
        };
        Ok(Some(reply))
    }

    /// Syncs the log: at an aggregate, and at a clean end of stream, so a
    /// politely closed connection leaves it fully durable.
    pub(crate) fn sync(&mut self) -> Result<(), ServerError> {
        match &mut self.durability {
            Durability::Log { wal, .. } => wal.sync().map_err(ServerError::Io),
            Durability::Off => Ok(()),
        }
    }
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        if let Some(obs) = &self.obs {
            obs.closed(self.answered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Cursor, Read, Write};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    use pdq_core::executor::{build_executor, ExecutorSpec};

    use crate::protocol_server::{generate_events, ServerAggregate, ServerConfig};
    use crate::service::{
        decode_ack, encode_aggregate_request, encode_drain_request, encode_event_request,
        encode_metrics_request, serve_observed, ExecutorService,
    };
    use crate::transport::{read_frame, write_frame, FramedStream};
    use crate::wal::{scan_bytes, SharedSink, WalWriter};

    /// An executor service that measures the calls in flight at every
    /// dispatch: it counts the calls it dispatched and, through each reply's
    /// `map` (which runs when the driver takes the value to ack it), the
    /// calls acked.
    struct Windowed<'a> {
        inner: ExecutorService<'a>,
        dispatched: AtomicUsize,
        acked: Arc<AtomicUsize>,
        /// The most calls in flight once a burst was dispatched.
        peak: AtomicUsize,
    }

    impl ProtocolService for Windowed<'_> {
        fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
            self.call_burst(vec![request]).remove(0)
        }

        fn call_burst(&self, requests: Vec<ProtocolEvent>) -> Vec<TypedFuture<Reply>> {
            let in_flight = self.dispatched.load(SeqCst) - self.acked.load(SeqCst);
            self.peak.fetch_max(in_flight + requests.len(), SeqCst);
            self.dispatched.fetch_add(requests.len(), SeqCst);
            let replies = self.inner.call_burst(requests).into_iter();
            replies
                .map(|reply| {
                    let acked = Arc::clone(&self.acked);
                    reply.map(move |reply| {
                        acked.fetch_add(1, SeqCst);
                        reply
                    })
                })
                .collect()
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

    /// A request stream's read half that hands out at most `step` bytes per
    /// `read`, which is what bounds the bursts the driver can gather.
    struct Dribble {
        wire: Cursor<Vec<u8>>,
        step: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.step);
            self.wire.read(&mut out[..n])
        }
    }

    /// A reply stream's write half whose peer goes away after `writes`
    /// writes.
    struct Peer {
        sink: SharedSink,
        writes: usize,
    }

    impl Write for Peer {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes = self
                .writes
                .checked_sub(1)
                .ok_or(io::ErrorKind::BrokenPipe)?;
            self.sink.write(bytes)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn wire(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for payload in payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        wire
    }

    fn events(count: usize) -> Vec<ProtocolEvent> {
        generate_events(&ServerConfig::quick().events(count))
    }

    /// What one run of the blocking driver did.
    struct Run {
        outcome: Result<u64, ServerError>,
        dispatched: usize,
        peak: usize,
        log: Vec<u8>,
        replies: Vec<Vec<u8>>,
    }

    /// Serves `requests`, delivered `step` bytes per read, through the
    /// blocking driver with a log (sync every 3 events, a snapshot every
    /// `snapshot_every`, a crash after `crash_after` appends) and a peer that
    /// takes `writes` writes.
    fn run(
        requests: &[Vec<u8>],
        step: usize,
        window: usize,
        snapshot_every: u64,
        crash_after: Option<u64>,
        writes: usize,
    ) -> Run {
        let blocks = ServerConfig::quick().blocks;
        let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(32)).expect("pdq");
        let service = Windowed {
            inner: ExecutorService::new(&*pool, blocks),
            dispatched: AtomicUsize::new(0),
            acked: Arc::new(AtomicUsize::new(0)),
            peak: AtomicUsize::new(0),
        };
        let log = SharedSink::new();
        let mut wal = WalWriter::new(log.clone(), blocks).expect("header");
        if let Some(n) = crash_after {
            wal.arm_crash_after_events(n);
        }
        let out = SharedSink::new();
        let reader = Dribble {
            wire: Cursor::new(wire(requests)),
            step,
        };
        let writer = Peer {
            sink: out.clone(),
            writes,
        };
        let mut transport = FramedStream::from_halves(reader, writer);
        let durability = Durability::Log {
            wal: &mut wal,
            sync_every: 3,
            snapshot_every,
        };
        let outcome = serve_observed(&service, &mut transport, window, durability, None);
        service.flush();
        let mut image = Cursor::new(out.image());
        let replies = std::iter::from_fn(|| read_frame(&mut image).unwrap()).collect();
        Run {
            outcome,
            dispatched: service.dispatched.load(SeqCst),
            peak: service.peak.load(SeqCst),
            log: log.image(),
            replies,
        }
    }

    fn event_requests(events: &[ProtocolEvent]) -> Vec<Vec<u8>> {
        events.iter().map(encode_event_request).collect()
    }

    /// Whatever the burst sizes (one frame per read up to the whole stream
    /// in one) and the window, the driver never has more than a window of
    /// calls in flight, and acks every event in request order.
    #[test]
    fn pending_never_exceeds_the_window() {
        let events = events(150);
        let mut requests = event_requests(&events);
        requests.push(encode_drain_request());
        for window in [1, 3, 8, 64] {
            for step in [7, 64, 1 << 20] {
                let run = run(&requests, step, window, 0, None, usize::MAX);
                assert_eq!(run.outcome.expect("serve"), 150);
                assert_eq!(run.dispatched, 150);
                assert!(
                    run.peak <= window,
                    "{} in flight, window {window}",
                    run.peak
                );
                for (event, frame) in events.iter().zip(&run.replies) {
                    let ack = decode_ack(frame).expect("an ack");
                    assert_eq!(ack.reply, Reply::for_event(event));
                }
            }
        }
    }

    /// A log append that fails, a peer that goes away while acks are owed,
    /// and a malformed frame behind a burst: on each exit, every event in the
    /// log has been dispatched, and no other.
    #[test]
    fn every_logged_event_is_dispatched_on_every_exit() {
        let events = events(60);
        let mut requests = event_requests(&events);
        requests.push(encode_aggregate_request());
        let mut malformed = requests.clone();
        malformed.insert(33, vec![0x7F]);
        for snapshot_every in [0, 5] {
            for step in [20, 1 << 20] {
                let mut runs = Vec::new();
                for crash_after in 1..40 {
                    runs.push(run(
                        &requests,
                        step,
                        8,
                        snapshot_every,
                        Some(crash_after),
                        99,
                    ));
                }
                runs.push(run(&malformed, step, 8, snapshot_every, None, 99));
                assert!(runs.iter().all(|run| run.outcome.is_err()));
                for writes in 0..12 {
                    runs.push(run(&requests, step, 8, snapshot_every, None, writes));
                }
                for run in runs {
                    let logged = scan_bytes(&run.log).total_events;
                    assert_eq!(run.dispatched as u64, logged, "{:?}", run.outcome);
                }
            }
        }
    }

    /// Control requests are answered once each, in request order, after the
    /// acks of every event before them — by the machine itself and through
    /// the blocking driver.
    #[test]
    fn control_requests_are_answered_in_request_order() {
        let pool = build_executor("pdq", &ExecutorSpec::new(2)).expect("pdq");
        let service = ExecutorService::new(&*pool, ServerConfig::quick().blocks);
        let events = events(5);
        let mut conn = Conn::new(Durability::Off, None);
        for event in &events[..2] {
            let event = conn.request(&encode_event_request(event)).unwrap().unwrap();
            conn.log(&event).unwrap();
            conn.push_replies(service.call_burst(vec![event]));
        }
        assert!(conn.request(&encode_aggregate_request()).unwrap().is_none());
        assert!(conn.has_control() && conn.in_flight() == 2);
        for event in &events[..2] {
            let ack = decode_ack(&conn.ack_oldest().unwrap()).unwrap();
            assert_eq!(ack.reply, Reply::for_event(event));
        }
        let reply = conn.answer(&service).unwrap().expect("an aggregate");
        assert_eq!(
            (reply[0], conn.completed, conn.has_control()),
            (0x82, 2, false)
        );
        assert!(conn.request(&encode_drain_request()).unwrap().is_none());
        assert_eq!(conn.answer(&service).unwrap(), None);

        let mut requests = event_requests(&events[..3]);
        requests.push(encode_metrics_request());
        requests.extend(event_requests(&events[3..]));
        requests.push(encode_drain_request());
        requests.push(encode_aggregate_request());
        requests.push(encode_aggregate_request());
        requests.push(encode_metrics_request());
        for step in [5, 1 << 20] {
            let run = run(&requests, step, 8, 0, None, usize::MAX);
            assert_eq!(run.outcome.expect("serve"), 5);
            let tags: Vec<u8> = run.replies.iter().map(|frame| frame[0]).collect();
            assert_eq!(tags, [0x81, 0x81, 0x81, 0x83, 0x81, 0x81, 0x82, 0x82, 0x83]);
            assert_eq!(run.replies[6], run.replies[7], "the state did not move");
        }
    }
}
