//! Adversarial traffic and fault injection for the protocol server.
//!
//! Everything the well-behaved drivers in [`service`](crate::service) never
//! do to the server, done deliberately and **deterministically**: Zipfian
//! hot-key skew, bursty open-loop arrivals, corrupted and truncated frames,
//! oversized length prefixes, mid-stream client disconnects, abrupt
//! transport closes, short reads, and poisoned events whose handlers panic.
//! Each attack is seeded through [`DetRng`] streams, so a scenario is a pure
//! function of its [`ChaosConfig`] — the same seed produces byte-identical
//! [`ChaosReport`]s across runs, worker counts, and all four executors,
//! which is exactly what the property tests and CI pin.
//!
//! The module provides three layers:
//!
//! * **Generators** — [`Zipf`], [`adversarial_events`], [`poison_schedule`]:
//!   deterministic hostile traffic.
//! * **Fault injection** — [`FaultPlan`] / [`FaultTransport`]: a wrapper
//!   over any [`Transport`] that corrupts, truncates, closes, or
//!   short-reads at seeded points. [`FaultPlan::action`] is a pure function
//!   of the frame index, so a driver can replay the plan and predict
//!   exactly what the wire carried.
//! * **Scenarios** — [`run_chaos`] drives one [`Scenario`] against an
//!   executor-backed [`ChaosService`] and *verifies* the surviving state
//!   against the sequential [`reference_aggregate`] fold: survival is not
//!   "did not crash" but "every dispatched event is accounted for and no
//!   other key lost anything".
//!
//! The invariants each scenario pins:
//!
//! | scenario     | hostile input                         | pinned invariant |
//! |--------------|---------------------------------------|------------------|
//! | `zipf`       | hot-key skew (tunable `s`)            | aggregate equals the reference fold; every ack digest verifies |
//! | `burst`      | open-loop bursts, acks read late      | serve holds ≤ `window` calls in flight; nothing lost |
//! | `malformed`  | corrupt/truncated frames, wire blobs  | typed `Protocol` errors per connection; decodable prefix still counted; clean reconnect works |
//! | `disconnect` | mid-stream drops, injected closes     | abandoned replies never poison state; later aggregate sees every dispatched event |
//! | `panic`      | poisoned handlers at a seeded rate    | `ACK_PANICKED` for poisoned events only; all other keys' aggregates intact |
//! | `recover`    | injected close kills a WAL-logged server, then a seeded torn cut | recovery replays an exact prefix, never behind a sync point; snapshot+suffix replay equals full-log replay |

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pdq_core::executor::{Executor, ExecutorExt, TypedFuture};
use pdq_dsm::{BlockAddr, Message, PageAddr, ProtocolEvent, Request};
use pdq_sim::DetRng;

use crate::protocol_server::{reference_aggregate, ServerAggregate, ServerError, ServerState};
use crate::server::{serve_pool, PoolOptions, PoolReport};
use crate::service::{
    decode_ack, decode_aggregate_reply, decode_request, encode_aggregate_request,
    encode_event_request, read_ack, recv_frame, serve, serve_observed, Durability, ProtocolService,
    Reply, WireRequest, ACK_DONE,
};
use crate::transport::{loopback_pair, Transport, MAX_FRAME_LEN};
use crate::wal::{replay, scan_bytes, scan_bytes_full, SharedSink, WalFaultPlan, WalWriter};

/// `DetRng` stream id for adversarial event generation.
const EVENT_STREAM: u64 = 0xc4a0_5e7e;
/// `DetRng` stream id for the poison schedule.
const POISON_STREAM: u64 = 0x7071_50ed;
/// `DetRng` stream id base for per-frame fault decisions.
const FAULT_STREAM: u64 = 0xfa17_0b57;
/// `DetRng` stream id for the recover scenario's torn-cut byte.
const RECOVER_STREAM: u64 = 0x4ec0_fa17;

// ---------------------------------------------------------------------------
// Traffic generators
// ---------------------------------------------------------------------------

/// A Zipfian sampler over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1/(k+1)^s`. At `s = 0` it degenerates to uniform; the
/// larger `s`, the hotter rank 0 — the hot-key regime where dispatch-time
/// synchronization on the hot block serializes a growing share of the
/// stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalized cumulative weights; `cdf[k]` is `P(rank <= k)`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with skew parameter `s`.
    pub fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// Generates `cfg.events` protocol events whose block references follow a
/// Zipfian distribution of parameter `cfg.zipf_s` (rank 0 is the hottest
/// block), with the same event-kind mix as
/// [`generate_events`](crate::generate_events): half access faults, most of
/// the rest incoming coherence messages of every kind, and an occasional
/// `Sequential`-keyed page operation.
pub fn adversarial_events(cfg: &ChaosConfig) -> Vec<ProtocolEvent> {
    let mut rng = DetRng::stream(cfg.seed, EVENT_STREAM);
    let zipf = Zipf::new(cfg.blocks.max(1), cfg.zipf_s);
    let blocks = cfg.blocks.max(1);
    let nodes = cfg.nodes.max(1) as u64;
    let mut events = Vec::with_capacity(cfg.events);
    for i in 0..cfg.events {
        let block = BlockAddr(zipf.sample(&mut rng));
        let kind = rng.weighted_index(&[0.50, 0.45, 0.05]);
        let event = match kind {
            0 => ProtocolEvent::AccessFault {
                block,
                write: rng.chance(0.4),
                token: i as u64,
            },
            1 => {
                let src = rng.next_below(nodes) as usize;
                let home = rng.next_below(nodes) as usize;
                let value = rng.next_below(1 << 16);
                let msg = match rng.next_below(10) {
                    0 => Message::Req {
                        request: Request::GetShared,
                        requester: src,
                        block,
                    },
                    1 => Message::Req {
                        request: Request::GetExclusive,
                        requester: src,
                        block,
                    },
                    2 => Message::Invalidate { block, home },
                    3 => Message::InvalAck { block, from: src },
                    4 => Message::RecallShared { block, home },
                    5 => Message::RecallExclusive { block, home },
                    6 => Message::WritebackShared {
                        block,
                        from: src,
                        value,
                    },
                    7 => Message::WritebackExclusive {
                        block,
                        from: src,
                        value,
                    },
                    8 => Message::DataShared { block, value },
                    _ => Message::DataExclusive { block, value },
                };
                ProtocolEvent::Incoming { src, msg }
            }
            _ => ProtocolEvent::PageOp {
                page: PageAddr(rng.next_below(blocks / 16 + 1)),
            },
        };
        events.push(event);
    }
    events
}

/// The seeded poison schedule: `true` at index `i` means the handler for the
/// `i`-th dispatched call panics before touching server state.
pub fn poison_schedule(seed: u64, events: usize, rate: f64) -> Vec<bool> {
    let mut rng = DetRng::stream(seed, POISON_STREAM);
    (0..events).map(|_| rng.chance(rate)).collect()
}

// ---------------------------------------------------------------------------
// Fault injection at the transport layer
// ---------------------------------------------------------------------------

/// What a [`FaultPlan`] decided to do with one outbound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the payload unchanged.
    Deliver,
    /// Deliver this mutated copy instead (one flipped bit, or a truncated
    /// tail).
    Mutate(Vec<u8>),
    /// Fail the send as an abrupt close; every later operation on the
    /// transport fails too.
    Close,
}

/// A seeded plan of transport-level faults: byte corruption and payload
/// truncation at per-frame seeded probabilities, an abrupt close after a
/// fixed number of sends, and an injected short read after a fixed number of
/// receives.
///
/// Decisions are a pure function of `(seed, frame index)` — independent of
/// call timing — so a driver holding the same plan can predict exactly which
/// frames the wire carried and in what shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-frame fault decisions.
    pub seed: u64,
    /// Probability that a sent frame has one bit flipped.
    pub corrupt_rate: f64,
    /// Probability that a sent frame's payload is truncated (checked only
    /// when the frame was not corrupted).
    pub truncate_rate: f64,
    /// After this many successful sends, the next send fails as an abrupt
    /// close and the transport stays dead.
    pub close_after_sends: Option<u64>,
    /// After this many successful receives, the next receive fails as a
    /// short read ([`io::ErrorKind::UnexpectedEof`]) and the transport stays
    /// dead.
    pub fail_recv_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing: the identity wrapper.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            close_after_sends: None,
            fail_recv_after: None,
        }
    }

    /// Decides the fate of the `index`-th sent frame. Pure: the same plan,
    /// index, and payload always produce the same action.
    pub fn action(&self, index: u64, payload: &[u8]) -> FaultAction {
        if let Some(n) = self.close_after_sends {
            if index >= n {
                return FaultAction::Close;
            }
        }
        let mut rng = DetRng::stream(self.seed, FAULT_STREAM ^ index.wrapping_mul(0x9e37));
        if !payload.is_empty() && rng.chance(self.corrupt_rate) {
            let mut mutated = payload.to_vec();
            let at = rng.next_below(mutated.len() as u64) as usize;
            mutated[at] ^= 1 << rng.next_below(8);
            return FaultAction::Mutate(mutated);
        }
        if !payload.is_empty() && rng.chance(self.truncate_rate) {
            let mut mutated = payload.to_vec();
            let keep = rng.next_below(mutated.len() as u64) as usize;
            mutated.truncate(keep);
            return FaultAction::Mutate(mutated);
        }
        FaultAction::Deliver
    }
}

/// A [`Transport`] wrapper executing a [`FaultPlan`]: frames pass through
/// `inner` unless the plan corrupts, truncates, or closes; receives succeed
/// until the plan injects a short read. Once a close or short read fires the
/// transport stays dead — every later operation is a typed I/O error, like a
/// real broken socket.
#[derive(Debug)]
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    sends: u64,
    recvs: u64,
    closed: bool,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            sends: 0,
            recvs: 0,
            closed: false,
        }
    }

    /// Frames offered for sending so far (including the failing one).
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Frames received successfully so far.
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

    fn dead(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "fault injection: transport closed",
        )
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.closed {
            return Err(self.dead());
        }
        let index = self.sends;
        self.sends += 1;
        match self.plan.action(index, payload) {
            FaultAction::Deliver => self.inner.send(payload),
            FaultAction::Mutate(mutated) => self.inner.send(&mutated),
            FaultAction::Close => {
                self.closed = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "fault injection: abrupt close on send",
                ))
            }
        }
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.closed {
            return Err(self.dead());
        }
        if let Some(n) = self.plan.fail_recv_after {
            if self.recvs >= n {
                self.closed = true;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "fault injection: short read",
                ));
            }
        }
        let frame = self.inner.recv()?;
        self.recvs += 1;
        Ok(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Err(self.dead());
        }
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// The chaos service
// ---------------------------------------------------------------------------

/// Records the order in which block-keyed handlers actually ran, one log per
/// block, for the per-key FIFO property tests.
#[derive(Debug)]
pub struct KeyOrderRecorder {
    orders: Vec<Mutex<Vec<u64>>>,
}

impl KeyOrderRecorder {
    /// Creates empty logs for `blocks` blocks.
    pub fn new(blocks: u64) -> Self {
        Self {
            orders: (0..blocks.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Appends dispatch sequence number `seq` to `block`'s log. Called from
    /// the handler, so entries land in actual execution order.
    pub fn record(&self, block: BlockAddr, seq: u64) {
        let idx = (block.0 % self.orders.len() as u64) as usize;
        self.orders[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(seq);
    }

    /// The execution-order log for `block`.
    pub fn order(&self, block: u64) -> Vec<u64> {
        let idx = (block % self.orders.len() as u64) as usize;
        self.orders[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A [`ProtocolService`] over any [`Executor`] with fault hooks: a seeded
/// poison schedule makes selected handlers panic *before* touching server
/// state (so every non-poisoned key's aggregate stays exact), and an
/// optional [`KeyOrderRecorder`] logs actual per-key execution order.
///
/// Unlike [`ExecutorService`](crate::ExecutorService), the aggregate uses an
/// *internal* completion counter rather than the driver-observed count:
/// adversarial connections abandon in-flight replies, whose handlers still
/// complete — the service is the only party that can still count them.
pub struct ChaosService<'a> {
    executor: &'a dyn Executor,
    state: Arc<ServerState>,
    poison: Arc<Vec<bool>>,
    recorder: Option<Arc<KeyOrderRecorder>>,
    calls: AtomicU64,
    completed: Arc<AtomicU64>,
}

impl std::fmt::Debug for ChaosService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosService")
            .field("executor", &self.executor.name())
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> ChaosService<'a> {
    /// Creates a service over `executor` with fresh state for `blocks`
    /// blocks and no faults armed.
    pub fn new(executor: &'a dyn Executor, blocks: u64) -> Self {
        Self {
            executor,
            state: Arc::new(ServerState::new(blocks)),
            poison: Arc::new(Vec::new()),
            recorder: None,
            calls: AtomicU64::new(0),
            completed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Arms the poison schedule: call `i` panics when `poison[i]` is true.
    #[must_use]
    pub fn with_poison(mut self, poison: Vec<bool>) -> Self {
        self.poison = Arc::new(poison);
        self
    }

    /// Attaches an execution-order recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<KeyOrderRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Total calls dispatched through this service, across all connections.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Handlers that ran to completion (not poisoned, not abandoned before
    /// execution).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }
}

impl ProtocolService for ChaosService<'_> {
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
        // The serve loop is single-threaded per connection and scenarios run
        // connections sequentially, so this sequence number equals the
        // arrival order of the event — which is what the poison schedule and
        // the FIFO assertions are indexed by.
        let seq = self.calls.fetch_add(1, Ordering::SeqCst);
        let poisoned = self.poison.get(seq as usize).copied().unwrap_or(false);
        let state = Arc::clone(&self.state);
        let completed = Arc::clone(&self.completed);
        let recorder = self.recorder.clone();
        self.executor
            .submit_async_returning(request.sync_key(), move || {
                if let Some(rec) = &recorder {
                    match &request {
                        ProtocolEvent::AccessFault { block, .. } => rec.record(*block, seq),
                        ProtocolEvent::Incoming { msg, .. } => rec.record(msg.block(), seq),
                        ProtocolEvent::PageOp { .. } => {}
                    }
                }
                if poisoned {
                    panic!("chaos: poisoned event {seq}");
                }
                state.handle(&request);
                completed.fetch_add(1, Ordering::Relaxed);
                Reply::for_event(&request)
            })
    }

    fn flush(&self) {
        self.executor.flush();
    }

    fn aggregate(&self, _driver_completed: u64) -> ServerAggregate {
        self.state.aggregate(self.completed.load(Ordering::SeqCst))
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        Some(self.state.snapshot_words())
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// One adversarial scenario of the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Zipfian hot-key skew through the windowed client.
    Zipf,
    /// Open-loop bursts that read acks only between bursts.
    Burst,
    /// Corrupted/truncated frames and hostile wire blobs.
    Malformed,
    /// Mid-stream client disconnects and injected transport failures.
    Disconnect,
    /// Poisoned events whose handlers panic under load.
    Panic,
    /// A mid-stream kill of a WAL-logged server followed by a torn-cut
    /// recovery replay.
    Recover,
}

impl Scenario {
    /// Every scenario, in the order `--scenario all` runs them.
    pub const ALL: [Scenario; 6] = [
        Scenario::Zipf,
        Scenario::Burst,
        Scenario::Malformed,
        Scenario::Disconnect,
        Scenario::Panic,
        Scenario::Recover,
    ];

    /// Parses a scenario name as used by `examples/chaos.rs --scenario`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "zipf" => Some(Self::Zipf),
            "burst" => Some(Self::Burst),
            "malformed" => Some(Self::Malformed),
            "disconnect" => Some(Self::Disconnect),
            "panic" => Some(Self::Panic),
            "recover" => Some(Self::Recover),
            _ => None,
        }
    }

    /// The scenario's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Zipf => "zipf",
            Self::Burst => "burst",
            Self::Malformed => "malformed",
            Self::Disconnect => "disconnect",
            Self::Panic => "panic",
            Self::Recover => "recover",
        }
    }
}

/// Configuration of one chaos run: the scenario's traffic, faults, and
/// outcome are a pure function of this value (plus the executor's key
/// contract, which is the thing under test).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Which scenario to run.
    pub scenario: Scenario,
    /// Seed for traffic, poison, and fault streams.
    pub seed: u64,
    /// Number of protocol events in the scenario's stream.
    pub events: usize,
    /// Nodes appearing as message sources.
    pub nodes: usize,
    /// Distinct cache blocks (synchronization keys).
    pub blocks: u64,
    /// Zipf skew parameter for block references.
    pub zipf_s: f64,
    /// Frames per open-loop burst (burst scenario).
    pub burst: usize,
    /// Poison probability per event (panic scenario).
    pub poison_rate: f64,
    /// The server's reply window.
    pub window: usize,
}

impl ChaosConfig {
    /// The default chaos configuration for `scenario`: 4 000 events over 64
    /// blocks with strong skew (`s = 1.2`), a reply window of 32, bursts of
    /// 96 frames, and a 5% poison rate.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            seed: 0x0dd5_eed5,
            events: 4_000,
            nodes: 8,
            blocks: 64,
            zipf_s: 1.2,
            burst: 96,
            poison_rate: 0.05,
            window: 32,
        }
    }

    /// A test-sized configuration (600 events).
    pub fn quick(scenario: Scenario) -> Self {
        Self {
            events: 600,
            ..Self::new(scenario)
        }
    }

    /// Replaces the seed, keeping everything else.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the event count, keeping everything else.
    #[must_use]
    pub fn events(mut self, events: usize) -> Self {
        self.events = events.max(1);
        self
    }

    /// Replaces the reply window, keeping everything else.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(2);
        self
    }

    /// Replaces the Zipf skew parameter, keeping everything else.
    #[must_use]
    pub fn zipf_s(mut self, s: f64) -> Self {
        self.zipf_s = s;
        self
    }

    /// Replaces the burst length, keeping everything else.
    #[must_use]
    pub fn burst(mut self, burst: usize) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Replaces the poison rate, keeping everything else.
    #[must_use]
    pub fn poison_rate(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }
}

/// Outcome of one chaos scenario on one executor. Deliberately contains no
/// executor name, worker count, or timing: equal configurations must render
/// byte-identical JSON whatever ran them, and CI diffs exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The scenario that ran.
    pub scenario: &'static str,
    /// Frames offered to the server, including hostile ones.
    pub frames_sent: u64,
    /// Events the server actually dispatched (the aggregate's event count).
    pub handled: u64,
    /// Handlers that ran to completion.
    pub completed: u64,
    /// Handlers that panicked on poisoned events.
    pub panicked: u64,
    /// Connections torn down with a typed [`ServerError::Protocol`].
    pub protocol_errors: u64,
    /// Connections torn down with a typed [`ServerError::Io`].
    pub io_errors: u64,
    /// Client-initiated disconnects the server survived cleanly.
    pub disconnects: u64,
    /// The surviving aggregate, verified against the sequential reference.
    pub aggregate: ServerAggregate,
}

impl ChaosReport {
    /// The report as a JSON document with a stable field order, so equal
    /// reports render byte-identically (CI diffs these files across
    /// executors, and the determinism tests across runs and worker counts).
    pub fn to_json_string(&self) -> String {
        let agg = self.aggregate.to_json_string();
        let agg = agg.trim_end().replace('\n', "\n  ");
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"frames_sent\": {},\n  \"handled\": {},\n  \
             \"completed\": {},\n  \"panicked\": {},\n  \"protocol_errors\": {},\n  \
             \"io_errors\": {},\n  \"disconnects\": {},\n  \"aggregate\": {}\n}}\n",
            self.scenario,
            self.frames_sent,
            self.handled,
            self.completed,
            self.panicked,
            self.protocol_errors,
            self.io_errors,
            self.disconnects,
            agg,
        )
    }
}

/// Reads and verifies one in-order ack against the front of `queue`: the
/// reply the event owes, or `None` where its handler must have panicked.
fn read_expected_ack(
    transport: &mut dyn Transport,
    queue: &mut VecDeque<Option<Reply>>,
    panicked: &mut u64,
) -> Result<(), ServerError> {
    let want = queue
        .pop_front()
        .expect("an ack is only awaited for an outstanding request");
    *panicked += u64::from(read_ack(transport, want, false)?);
    Ok(())
}

/// Requests and decodes the aggregate (any outstanding acks must have been
/// drained by the caller or be drained here via `queue`).
fn fetch_aggregate(
    transport: &mut dyn Transport,
    queue: &mut VecDeque<Option<Reply>>,
    panicked: &mut u64,
) -> Result<ServerAggregate, ServerError> {
    transport.send(&encode_aggregate_request())?;
    transport.flush()?;
    while !queue.is_empty() {
        read_expected_ack(transport, queue, panicked)?;
    }
    let frame = recv_frame(transport)?
        .ok_or_else(|| ServerError::Protocol("server closed before the aggregate".into()))?;
    decode_aggregate_reply(&frame)
}

/// Serves a fresh loopback connection with `service` and streams `events`
/// through it with a sliding window of unanswered requests, verifying every
/// ack, then fetches the aggregate. `poison[i]` marks events whose ack must
/// be `ACK_PANICKED`. The client window is sized off the server's so the
/// pipeline never deadlocks.
fn windowed_run(
    service: &dyn ProtocolService,
    events: &[ProtocolEvent],
    poison: &[bool],
    server_window: usize,
) -> Result<(ServerAggregate, u64), ServerError> {
    let (mut transport, mut server_end) = loopback_pair();
    let client_window = server_window * 2 + 8;
    let mut queue: VecDeque<Option<Reply>> = VecDeque::with_capacity(client_window);
    let mut panicked = 0u64;
    let aggregate = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(service, &mut server_end, server_window));
        let mut client = || {
            for (i, event) in events.iter().enumerate() {
                transport.send(&encode_event_request(event))?;
                let poisoned = poison.get(i).copied().unwrap_or(false);
                queue.push_back((!poisoned).then(|| Reply::for_event(event)));
                if queue.len() >= client_window {
                    read_expected_ack(&mut transport, &mut queue, &mut panicked)?;
                }
            }
            fetch_aggregate(&mut transport, &mut queue, &mut panicked)
        };
        let outcome = client();
        drop(transport);
        server.join().expect("server thread")?;
        outcome
    })?;
    Ok((aggregate, panicked))
}

/// Serves one TCP connection with `service` whose peer sends `bytes` and
/// hangs up.
fn hostile_tcp(
    service: &dyn ProtocolService,
    window: usize,
    bytes: &[u8],
) -> Result<PoolReport, ServerError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_pool(&listener, service, &PoolOptions::new(1, window)));
        TcpStream::connect(addr)?.write_all(bytes)?;
        server.join().expect("server thread")
    })
}

/// Fails the scenario if the surviving aggregate does not equal the
/// sequential reference fold.
fn expect_reference(
    scenario: Scenario,
    got: &ServerAggregate,
    want: &ServerAggregate,
) -> Result<(), ServerError> {
    if got == want {
        Ok(())
    } else {
        Err(ServerError::Protocol(format!(
            "{}: surviving aggregate diverged from the sequential reference \
             (got {} events / checksum {:#x}, want {} events / checksum {:#x})",
            scenario.name(),
            got.events,
            got.block_checksum,
            want.events,
            want.block_checksum,
        )))
    }
}

/// Runs one chaos scenario against `executor` and returns its report.
///
/// Every scenario *verifies* its outcome before returning: ack digests are
/// checked in order, hostile connections must fail with the typed error the
/// driver predicted, and the surviving aggregate must equal the sequential
/// [`reference_aggregate`] fold of exactly the events the server dispatched.
/// The report is a pure function of `cfg` — independent of the executor,
/// its worker count, and scheduling — so chaos reports can be byte-diffed
/// across all four executors.
///
/// # Errors
///
/// Any unexpected outcome: a connection that should have failed but did
/// not, an ack that does not verify, an aggregate that diverged from the
/// reference, or a transport error outside the injected faults.
pub fn run_chaos(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    match cfg.scenario {
        Scenario::Zipf => run_zipf(executor, cfg),
        Scenario::Burst => run_burst(executor, cfg),
        Scenario::Malformed => run_malformed(executor, cfg),
        Scenario::Disconnect => run_disconnect(executor, cfg),
        Scenario::Panic => run_panic(executor, cfg),
        Scenario::Recover => run_recover(executor, cfg),
    }
}

/// Zipfian hot-key skew through the well-behaved windowed client: the
/// baseline adversarial load. Pins that extreme same-key contention loses
/// nothing and reorders nothing observably.
fn run_zipf(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let (aggregate, _) = windowed_run(&service, &events, &[], cfg.window)?;
    let reference = reference_aggregate(events.iter(), cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent: events.len() as u64 + 1,
        handled: aggregate.events,
        completed: aggregate.completed,
        panicked: 0,
        protocol_errors: 0,
        io_errors: 0,
        disconnects: 0,
        aggregate,
    })
}

/// Open-loop bursty arrivals: the client fires `cfg.burst` frames at a time
/// without reading, then drains only the acks the server was *forced* to
/// emit (the serve loop acks the oldest call exactly when its window fills).
/// Pins the serve loop's bounded buffering: the flood lands in transport
/// buffers, never in unbounded server state, and nothing is lost.
fn run_burst(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let (mut client_end, mut server_end) = loopback_pair();
    let aggregate = std::thread::scope(|scope| -> Result<ServerAggregate, ServerError> {
        let server = scope.spawn(|| serve(&service, &mut server_end, cfg.window));
        let mut queue: VecDeque<Option<Reply>> = VecDeque::new();
        let mut panicked = 0u64;
        let mut sent = 0usize;
        let mut read = 0usize;
        for chunk in events.chunks(cfg.burst.max(1)) {
            for event in chunk {
                client_end.send(&encode_event_request(event))?;
                queue.push_back(Some(Reply::for_event(event)));
            }
            sent += chunk.len();
            // Off phase: the server has been forced to ack everything beyond
            // window - 1 outstanding; drain exactly that many (blocking).
            let forced = sent.saturating_sub(cfg.window - 1);
            while read < forced {
                read_expected_ack(&mut client_end, &mut queue, &mut panicked)?;
                read += 1;
            }
        }
        let aggregate = fetch_aggregate(&mut client_end, &mut queue, &mut panicked)?;
        drop(client_end);
        server.join().expect("server thread")?;
        Ok(aggregate)
    })?;
    let reference = reference_aggregate(events.iter(), cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent: events.len() as u64 + 1,
        handled: aggregate.events,
        completed: aggregate.completed,
        panicked: 0,
        protocol_errors: 0,
        io_errors: 0,
        disconnects: 0,
        aggregate,
    })
}

/// The hostile raw byte streams thrown at a TCP connection in the malformed
/// scenario, each expected to tear down its connection with a typed
/// [`ServerError::Protocol`].
fn hostile_wire_blobs() -> Vec<(&'static str, Vec<u8>)> {
    let frame = |payload: &[u8]| {
        let mut v = (payload.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    };
    vec![
        (
            "oversized length prefix",
            (MAX_FRAME_LEN + 1).to_le_bytes().to_vec(),
        ),
        ("16 MiB claim, 3 bytes delivered", {
            let mut v = MAX_FRAME_LEN.to_le_bytes().to_vec();
            v.extend_from_slice(&[1, 2, 3]);
            v
        }),
        ("partial length prefix", vec![0x2A, 0x00]),
        ("unknown request tag", frame(&[0x7F, 1, 2, 3, 4])),
        (
            "trailing bytes after aggregate request",
            frame(&[0x02, 0x00]),
        ),
    ]
}

/// Corrupted and truncated frames (via [`FaultTransport`] on the client
/// side) plus raw hostile wire blobs over TCP, then a clean reconnect. Pins
/// per-frame rejection with clean connection teardown: the decodable prefix
/// of the faulted stream still counts, every hostile blob yields a typed
/// protocol error, and a well-behaved client afterwards sees exact state.
fn run_malformed(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let mut frames_sent = 0u64;
    let mut protocol_errors = 0u64;

    // Phase A — the event stream through a corrupting/truncating transport.
    // Replay the plan to predict exactly what the server will decode: the
    // prefix of frames that still decode as events is dispatched; the first
    // undecodable frame tears the connection down.
    let plan = FaultPlan {
        seed: cfg.seed,
        corrupt_rate: 0.06,
        truncate_rate: 0.04,
        close_after_sends: None,
        fail_recv_after: None,
    };
    let frames: Vec<Vec<u8>> = events.iter().map(encode_event_request).collect();
    let mut dispatched: Vec<ProtocolEvent> = Vec::new();
    let mut expect_error = false;
    for (i, frame) in frames.iter().enumerate() {
        let wire = match plan.action(i as u64, frame) {
            FaultAction::Deliver => frame.clone(),
            FaultAction::Mutate(mutated) => mutated,
            FaultAction::Close => break,
        };
        match decode_request(&wire) {
            Ok(WireRequest::Event(event)) => dispatched.push(event),
            // A one-bit flip cannot turn REQ_EVENT (0x01) into REQ_AGGREGATE
            // (0x02) or REQ_METRICS (0x04) — both differ in two bits — and a
            // flip to REQ_DRAIN (0x03) leaves the event body as trailing
            // bytes (a decode error), so these arms are unreachable for the
            // plan above; treat them as a driver bug.
            Ok(WireRequest::Aggregate | WireRequest::Drain | WireRequest::Metrics) => {
                return Err(ServerError::Protocol(
                    "malformed: mutation produced a control request".into(),
                ))
            }
            Err(_) => {
                expect_error = true;
                break;
            }
        }
    }
    {
        let (client_end, mut server_end) = loopback_pair();
        let outcome = std::thread::scope(|scope| {
            // A window larger than the stream: the server never acks
            // mid-stream, so the faulted client needs no ack protocol.
            let server = scope.spawn(|| serve(&service, &mut server_end, events.len() + 2));
            let mut faulted = FaultTransport::new(client_end, plan);
            for frame in &events {
                // The server tears the connection down at the first bad
                // frame; later sends may fail against the dropped endpoint.
                if faulted.send(&encode_event_request(frame)).is_err() {
                    break;
                }
                frames_sent += 1;
            }
            drop(faulted);
            server.join().expect("server thread")
        });
        match (expect_error, outcome) {
            (true, Err(ServerError::Protocol(_))) => protocol_errors += 1,
            (false, Ok(_)) => {}
            (want_err, other) => {
                return Err(ServerError::Protocol(format!(
                    "malformed: faulted stream outcome {other:?} (expected error: {want_err})"
                )))
            }
        }
    }

    // Phase B — raw hostile byte blobs over real TCP connections. Every one
    // must surface as a typed protocol violation, never a panic or a hang.
    for (label, blob) in hostile_wire_blobs() {
        frames_sent += 1;
        match hostile_tcp(&service, cfg.window, &blob) {
            Err(ServerError::Protocol(_)) => protocol_errors += 1,
            other => {
                return Err(ServerError::Protocol(format!(
                    "malformed: hostile blob `{label}` yielded {other:?} instead of a \
                     protocol error"
                )))
            }
        }
    }

    // Phase C — clean reconnect: the full event stream through a
    // well-behaved windowed client. The aggregate must account for the
    // faulted phase's decodable prefix plus this clean stream, exactly.
    let (aggregate, _) = windowed_run(&service, &events, &[], cfg.window)?;
    frames_sent += events.len() as u64 + 1;
    let reference = reference_aggregate(dispatched.iter().chain(events.iter()), cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent,
        handled: aggregate.events,
        completed: aggregate.completed,
        panicked: 0,
        protocol_errors,
        io_errors: 0,
        disconnects: 0,
        aggregate,
    })
}

/// Mid-stream client disconnects plus injected transport failures on the
/// server side. Pins that abandoned in-flight replies never poison state:
/// every event the server dispatched before each disconnect is present in
/// the final aggregate, fetched over a fresh connection.
fn run_disconnect(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let w = cfg.window.max(2);
    let mut frames_sent = 0u64;
    let mut disconnects = 0u64;
    let mut protocol_errors = 0u64;
    let mut io_errors = 0u64;

    // Partition the stream: a flood segment for the injected-close
    // connection, a tail for the ack-then-drop connection, and the rest for
    // plain send-and-vanish connections.
    let flood_len = (w + 10).min(events.len());
    let (flood, rest) = events.split_at(flood_len);
    let tail_len = (w + 5).min(rest.len());
    let (tail, dropped) = rest.split_at(tail_len);

    // Sub-case 1 — abrupt close injected on the server's sending side: the
    // FaultTransport lets two acks out, then fails the third send. The
    // server dispatches exactly window + 2 events before the failure (one
    // new frame per ack after the window first fills).
    let close_after = 2u64;
    let expected_flood_dispatch = (w + close_after as usize).min(flood.len());
    {
        let (mut client_end, server_end) = loopback_pair();
        let plan = FaultPlan {
            close_after_sends: Some(close_after),
            ..FaultPlan::clean(cfg.seed)
        };
        // The report counts the frames offered: how many of them leave
        // before the close fires is a matter of timing.
        frames_sent += flood.len() as u64;
        let (client, served) = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut faulted = FaultTransport::new(server_end, plan);
                serve(&service, &mut faulted, w)
            });
            let client = (|| {
                for event in flood {
                    match client_end.send(&encode_event_request(event)) {
                        Ok(()) => {}
                        // The close has fired and the server's end is gone.
                        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => break,
                        Err(e) => return Err(ServerError::Io(e)),
                    }
                }
                // The two acks that escaped before the close must still verify.
                let mut queue: VecDeque<Option<Reply>> =
                    flood.iter().map(|e| Some(Reply::for_event(e))).collect();
                let mut panicked = 0u64;
                for _ in 0..close_after {
                    read_expected_ack(&mut client_end, &mut queue, &mut panicked)?;
                }
                // The server died mid-connection; the client sees a close.
                match client_end.recv() {
                    Ok(None) => Ok(()),
                    other => Err(ServerError::Protocol(format!(
                        "disconnect: expected the faulted server to close, got {other:?}"
                    ))),
                }
            })();
            (client, server.join().expect("server thread"))
        });
        client?;
        match served {
            Err(ServerError::Io(_)) => io_errors += 1,
            other => {
                return Err(ServerError::Protocol(format!(
                    "disconnect: injected close yielded {other:?} instead of an I/O error"
                )))
            }
        }
    }

    // Sub-case 2 — ack-then-drop: the client streams the tail, blocks until
    // it has read every ack the server was forced to emit (so the server
    // has consumed the whole tail), then vanishes without draining the
    // window. The abandoned in-flight replies must still execute.
    {
        let (mut client_end, mut server_end) = loopback_pair();
        let outcome = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&service, &mut server_end, w));
            let mut queue: VecDeque<Option<Reply>> = VecDeque::new();
            let mut panicked = 0u64;
            for event in tail {
                client_end.send(&encode_event_request(event))?;
                queue.push_back(Some(Reply::for_event(event)));
            }
            frames_sent += tail.len() as u64;
            let forced = tail.len().saturating_sub(w - 1);
            for _ in 0..forced {
                read_expected_ack(&mut client_end, &mut queue, &mut panicked)?;
            }
            drop(client_end);
            server.join().expect("server thread")
        });
        match outcome {
            Ok(_) => disconnects += 1,
            Err(e) => return Err(e),
        }
    }

    // Sub-case 3 — send-and-vanish: each connection streams fewer frames
    // than the window (so no ack is ever due) and drops. The server sees a
    // clean EOF with the whole slice in flight and abandons the replies.
    for chunk in dropped.chunks(w - 1) {
        let (mut client_end, mut server_end) = loopback_pair();
        let outcome = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&service, &mut server_end, w));
            for event in chunk {
                client_end.send(&encode_event_request(event))?;
            }
            frames_sent += chunk.len() as u64;
            drop(client_end);
            server.join().expect("server thread")
        });
        match outcome {
            Ok(_) => disconnects += 1,
            Err(e) => return Err(e),
        }
    }

    // Sub-case 4 — mid-frame TCP disconnect: two bytes of a length prefix,
    // then gone. A typed protocol violation, zero events dispatched.
    {
        frames_sent += 1;
        match hostile_tcp(&service, w, &[0x08, 0x00]) {
            Err(ServerError::Protocol(_)) => protocol_errors += 1,
            other => {
                return Err(ServerError::Protocol(format!(
                    "disconnect: mid-frame close yielded {other:?} instead of a protocol error"
                )))
            }
        }
    }

    // Final connection — nothing but an aggregate request. Its serve path
    // flushes the service first, so every abandoned in-flight handler from
    // the connections above has completed before the fold is read.
    let (mut client_end, mut server_end) = loopback_pair();
    let aggregate = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&service, &mut server_end, w));
        let mut queue = VecDeque::new();
        let mut panicked = 0u64;
        let outcome = fetch_aggregate(&mut client_end, &mut queue, &mut panicked);
        drop(client_end);
        server.join().expect("server thread")?;
        outcome
    })?;
    frames_sent += 1;
    let reference = reference_aggregate(
        flood[..expected_flood_dispatch]
            .iter()
            .chain(tail.iter())
            .chain(dropped.iter()),
        cfg.blocks,
    );
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent,
        handled: aggregate.events,
        completed: aggregate.completed,
        panicked: 0,
        protocol_errors,
        io_errors,
        disconnects,
        aggregate,
    })
}

/// Poisoned events whose handlers panic at the seeded rate, under the full
/// windowed load. Pins panic containment: poisoned events ack as
/// `ACK_PANICKED` in order, and the aggregate equals the reference fold of
/// exactly the non-poisoned events — no other key loses anything.
fn run_panic(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let poison = poison_schedule(cfg.seed, events.len(), cfg.poison_rate);
    let service = ChaosService::new(executor, cfg.blocks).with_poison(poison.clone());
    let (aggregate, panicked) = windowed_run(&service, &events, &poison, cfg.window)?;
    let expected_panics = poison.iter().filter(|&&p| p).count() as u64;
    if panicked != expected_panics {
        return Err(ServerError::Protocol(format!(
            "panic: {panicked} handlers panicked, poison schedule has {expected_panics}"
        )));
    }
    let survivors = events
        .iter()
        .zip(poison.iter())
        .filter(|(_, &p)| !p)
        .map(|(e, _)| e);
    let reference = reference_aggregate(survivors, cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent: events.len() as u64 + 1,
        handled: aggregate.events,
        completed: aggregate.completed,
        panicked,
        protocol_errors: 0,
        io_errors: 0,
        disconnects: 0,
        aggregate,
    })
}

/// Kills a WAL-logged server mid-stream with an injected transport close,
/// cuts the log image at a seeded byte inside the unsynced tail (a torn
/// write, possibly mid-record), recovers, and replays. Pins the durability
/// contract end to end: the recovered aggregate equals the sequential
/// reference fold of an *exact prefix* of the appended events, the prefix is
/// never shorter than the last sync point, and a snapshot+suffix replay is
/// byte-identical to replaying the full log.
fn run_recover(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let window = cfg.window.max(2);
    let sink = SharedSink::new();
    let mut wal = WalWriter::new(sink.clone(), cfg.blocks)?;

    // Queue the whole stream up front (the loopback channel is unbounded),
    // so the serve loop runs inline on this thread and dies at a point that
    // is a pure function of the config. The trailing aggregate requests
    // force replies even when the stream is shorter than the reply window,
    // so the close always fires.
    let (mut client_end, server_end) = loopback_pair();
    for event in &events {
        client_end.send(&encode_event_request(event))?;
    }
    for _ in 0..3 {
        client_end.send(&encode_aggregate_request())?;
    }
    let frames_sent = events.len() as u64 + 3;
    let plan = FaultPlan {
        close_after_sends: Some(2),
        ..FaultPlan::clean(cfg.seed)
    };
    let mut hostile = FaultTransport::new(server_end, plan);
    let outcome = serve_observed(
        &service,
        &mut hostile,
        window,
        Durability::Log {
            wal: &mut wal,
            sync_every: 8,
            snapshot_every: 16,
        },
        None,
    );
    drop(hostile);
    match outcome {
        Err(ServerError::Io(_)) => {}
        other => {
            return Err(ServerError::Protocol(format!(
                "recover: the injected close must kill the server mid-stream, got {other:?}"
            )))
        }
    }
    // The replies that escaped before the close (at most two) must still
    // verify in order; anything owed after them died with the server.
    let mut queue: VecDeque<Option<Reply>> =
        events.iter().map(|e| Some(Reply::for_event(e))).collect();
    loop {
        match client_end.recv() {
            Ok(Some(frame)) => {
                if let Ok(ack) = decode_ack(&frame) {
                    let want = queue.pop_front().ok_or_else(|| {
                        ServerError::Protocol("recover: more acks than events".into())
                    })?;
                    match (ack.status, want) {
                        (ACK_DONE, Some(reply)) if ack.reply == reply => {}
                        (status, want) => {
                            return Err(ServerError::Protocol(format!(
                                "recover: escaped ack mismatch: status {status}, reply {:?}, \
                                 expected {want:?}",
                                ack.reply
                            )))
                        }
                    }
                } else {
                    // A short stream drains its acks at the first aggregate
                    // request, so an aggregate reply may escape instead.
                    decode_aggregate_reply(&frame)?;
                }
            }
            Ok(None) => break,
            Err(e) => return Err(ServerError::Io(e)),
        }
    }

    // Cut the image at a seeded byte inside the unsynced tail: never behind
    // the last sync point (everything up to it is durable), possibly in the
    // middle of a record (a torn write the scan must truncate).
    let mut rng = DetRng::stream(cfg.seed, RECOVER_STREAM);
    let tail = wal.bytes() - wal.synced_bytes();
    let cut = wal.synced_bytes() + rng.next_below(tail + 1);
    let image = WalFaultPlan {
        cut_at: Some(cut),
        flip: None,
    }
    .apply(&sink.image());
    let recovery = scan_bytes(&image);
    if recovery.blocks != cfg.blocks
        || recovery.total_events < wal.synced_events()
        || recovery.total_events > wal.events()
    {
        return Err(ServerError::Protocol(format!(
            "recover: scan kept {} events of {} appended ({} synced), header blocks {}",
            recovery.total_events,
            wal.events(),
            wal.synced_events(),
            recovery.blocks,
        )));
    }
    let recovered = replay(&recovery, executor)?;
    let full = replay(&scan_bytes_full(&image), executor)?;
    if recovered != full {
        return Err(ServerError::Protocol(
            "recover: snapshot+suffix replay diverged from full-log replay".into(),
        ));
    }
    let prefix = &events[..recovery.total_events as usize];
    let reference = reference_aggregate(prefix.iter(), cfg.blocks);
    expect_reference(cfg.scenario, &recovered, &reference)?;
    Ok(ChaosReport {
        scenario: cfg.scenario.name(),
        frames_sent,
        handled: recovered.events,
        completed: recovered.completed,
        panicked: 0,
        protocol_errors: 0,
        io_errors: 1,
        disconnects: 0,
        aggregate: recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_core::executor::{build_executor, ExecutorSpec};

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let zipf = Zipf::new(64, 1.2);
        let mut rng = DetRng::stream(7, 1);
        let mut hits = [0u64; 64];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng) as usize] += 1;
        }
        assert!(
            hits[0] > hits[10] && hits[10] > 0,
            "rank 0 ({}) should dominate rank 10 ({})",
            hits[0],
            hits[10]
        );
        // s = 0 degenerates to uniform-ish: rank 0 no longer dominates 8x.
        let flat = Zipf::new(64, 0.0);
        let mut rng = DetRng::stream(7, 2);
        let mut hits = [0u64; 64];
        for _ in 0..20_000 {
            hits[flat.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] < hits[32] * 3, "s=0 should be near uniform");
    }

    #[test]
    fn fault_plan_actions_are_pure_and_seeded() {
        let plan = FaultPlan {
            seed: 42,
            corrupt_rate: 0.3,
            truncate_rate: 0.3,
            close_after_sends: Some(5),
            fail_recv_after: None,
        };
        let payload = vec![0xAAu8; 40];
        for i in 0..5 {
            assert_eq!(plan.action(i, &payload), plan.action(i, &payload));
            match plan.action(i, &payload) {
                FaultAction::Deliver => {}
                FaultAction::Mutate(m) => {
                    assert!(m.len() <= payload.len());
                    assert_ne!(m, payload);
                }
                FaultAction::Close => panic!("close before close_after_sends"),
            }
        }
        assert_eq!(plan.action(5, &payload), FaultAction::Close);
        assert_eq!(plan.action(9, &payload), FaultAction::Close);
    }

    #[test]
    fn fault_transport_stays_dead_after_close() {
        let (client_end, _server_end) = loopback_pair();
        let plan = FaultPlan {
            close_after_sends: Some(0),
            ..FaultPlan::clean(1)
        };
        let mut t = FaultTransport::new(client_end, plan);
        assert_eq!(
            t.send(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(t.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn every_scenario_survives_on_one_executor() {
        let mut pool =
            build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(64)).expect("builds");
        for scenario in Scenario::ALL {
            let cfg = ChaosConfig::quick(scenario);
            let report = run_chaos(&*pool, &cfg).unwrap_or_else(|e| {
                panic!("scenario {} failed: {e}", scenario.name());
            });
            assert_eq!(report.scenario, scenario.name());
            assert!(
                report.handled > 0,
                "{}: nothing dispatched",
                report.scenario
            );
            let json = report.to_json_string();
            assert!(json.contains(&format!("\"scenario\": \"{}\"", scenario.name())));
            assert!(json.contains("\"block_checksum\""));
        }
        pool.shutdown();
    }

    /// The injected close races the client's flood: whether the server's end
    /// is gone before, during or after the last send must not show in the
    /// report. A small window makes the server finish early in the flood.
    #[test]
    fn disconnect_report_does_not_depend_on_who_wins_the_close_race() {
        let mut pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("builds");
        let cfg = ChaosConfig::quick(Scenario::Disconnect)
            .events(120)
            .window(2);
        let first = run_chaos(&*pool, &cfg).expect("disconnect survives");
        for round in 1..200 {
            let report = run_chaos(&*pool, &cfg)
                .unwrap_or_else(|e| panic!("round {round}: disconnect failed: {e}"));
            assert_eq!(
                report.to_json_string(),
                first.to_json_string(),
                "round {round}"
            );
        }
        pool.shutdown();
    }
}
