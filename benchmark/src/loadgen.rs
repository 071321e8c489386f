//! Load generators: an open-loop generator that sends on a seeded Poisson
//! schedule over non-blocking connections and times every reply from its
//! *due* time, and a closed-loop windowed client. Both verify every ack and
//! sort their samples into one-second windows.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;

use pdq_dsm::ProtocolEvent;
use pdq_workloads::service::encode_drain_request;
use pdq_workloads::Reply;

use crate::clock::{now_ns, sleep_until, SECOND};
use crate::span::SpanTable;
use crate::stats::{percentile, Rng};
use crate::wire::{drain_acks, push_frame, push_request_frame, set_request_id, RequestPool};

/// How often the open-loop generator wakes to send what has come due and to
/// read acks. Sleeping between ticks keeps the generator off the two CPUs the
/// server needs; the tick (plus timer slack, see `cpu::tighten_timer_slack`)
/// bounds its lateness well under the 500 us a ramp window allows.
const TICK_NS: u64 = 50_000;
/// Sample room a window of a saturated stretch starts with, as a rate: well
/// above anything the sizing box delivers (the buffer grows if it must).
const MAX_SATURATED_RATE: f64 = 1_500_000.0;
/// How long a drain may take before the run is declared stuck.
const DRAIN_TIMEOUT_NS: u64 = 10 * SECOND;

/// Samples of one measured window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Reply latencies in nanoseconds, sorted by [`Window::seal`].
    pub latency_ns: Vec<u64>,
    /// How late each request left the generator, sorted likewise.
    pub lateness_ns: Vec<u64>,
    /// Requests whose due time fell in the window.
    pub offered: u64,
    /// Verified acks that arrived in the window.
    pub delivered: u64,
}

impl Window {
    fn with_capacity(samples: usize) -> Self {
        Self {
            latency_ns: Vec::with_capacity(samples),
            lateness_ns: Vec::with_capacity(samples),
            ..Self::default()
        }
    }

    pub fn seal(&mut self) {
        self.latency_ns.sort_unstable();
        self.lateness_ns.sort_unstable();
    }

    /// Latency percentile in microseconds (after [`Window::seal`]).
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile(&self.latency_ns, p) as f64 / 1e3
    }

    pub fn lateness_us(&self, p: f64) -> f64 {
        percentile(&self.lateness_ns, p) as f64 / 1e3
    }
}

/// One stretch of the open-loop schedule at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Offered load, events per second, over all connections.
    pub rate: f64,
    /// Unrecorded lead-in at this rate.
    pub settle_ns: u64,
    /// Recorded windows after the lead-in.
    pub windows: usize,
    /// Length of each recorded window.
    pub window_ns: u64,
}

/// The recorded windows of one segment.
#[derive(Debug, Clone)]
pub struct SegmentResult {
    pub windows: Vec<Window>,
}

/// What an open-loop run sent and saw.
#[derive(Debug, Default)]
pub struct OpenLoopOutcome {
    pub segments: Vec<SegmentResult>,
    /// Requests sent on each connection, in pool order.
    pub sent: Vec<u64>,
    /// Request ids stamped on each connection's sends (`0` = none); empty
    /// unless traced.
    pub ids: Vec<Vec<u32>>,
    pub attempted: u64,
    /// Acks that did not match the reply their request must get, plus
    /// requests never answered.
    pub failed: u64,
    /// Why the run stopped early, if it did.
    pub error: Option<String>,
}

/// A request on the wire, waiting for its ack.
#[derive(Debug, Clone, Copy)]
struct Pending {
    due_ns: u64,
    reply: Reply,
    id: u32,
}

impl Pending {
    /// Stages request `slot` of `pool` into `out`. On a traced run an access
    /// fault gets the next request id: its frame and expected reply are
    /// rebuilt around the rewritten token and its due/sent stamps recorded.
    fn stage(
        pool: &RequestPool,
        slot: usize,
        table: Option<&SpanTable>,
        due_ns: u64,
        now: u64,
        out: &mut Vec<u8>,
    ) -> Self {
        let mut event = pool.events[slot];
        let id = table.map_or(0, |t| {
            if matches!(event, ProtocolEvent::AccessFault { .. }) {
                t.allocate()
            } else {
                0
            }
        });
        if id == 0 || !set_request_id(&mut event, u64::from(id)) {
            out.extend_from_slice(pool.frame(slot));
            return Self {
                due_ns,
                reply: pool.replies[slot],
                id: 0,
            };
        }
        push_request_frame(out, &event);
        if let Some(rec) = table.and_then(|t| t.rec(u64::from(id))) {
            rec.due.store(due_ns, Relaxed);
            rec.sent.store(now, Relaxed);
        }
        Self {
            due_ns,
            reply: Reply::for_event(&event),
            id,
        }
    }
}

/// Matches every complete ack in `inbuf[..in_len]` with the oldest
/// outstanding request: a wrong answer counts in `failed`, a right one gets
/// its ack stamp and is handed to `on_verified`. Returns the bytes left over.
fn settle_acks(
    inbuf: &mut [u8],
    in_len: usize,
    fifo: &mut VecDeque<Pending>,
    table: Option<&SpanTable>,
    now: u64,
    failed: &mut u64,
    mut on_verified: impl FnMut(&Pending),
) -> Result<usize, String> {
    let mut orphan = false;
    let rest = drain_acks(inbuf, in_len, |ack| {
        let Some(p) = fifo.pop_front() else {
            orphan = true;
            return;
        };
        if !ack.answers(&p.reply) {
            *failed += 1;
            return;
        }
        if let Some(rec) = table.and_then(|t| t.rec(u64::from(p.id))) {
            rec.ack.store(now, Relaxed);
        }
        on_verified(&p);
    })?;
    if orphan {
        return Err("an ack arrived with no request outstanding".into());
    }
    Ok(rest)
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_head: usize,
    inbuf: Vec<u8>,
    in_len: usize,
    fifo: VecDeque<Pending>,
    cursor: usize,
}

/// The pre-allocated windows of a fixed-rate segment.
struct FixedWindows {
    measure_start_ns: u64,
    window_ns: u64,
    windows: Vec<Window>,
}

impl FixedWindows {
    fn window_at(&mut self, t: u64) -> Option<&mut Window> {
        let index = t.checked_sub(self.measure_start_ns)? / self.window_ns;
        self.windows.get_mut(index as usize)
    }
}

/// A stretch of the open-loop schedule whose offered rate climbs
/// geometrically until the server falls behind for good: a ladder with a
/// rung per window and no pause between rungs. A stall below the knee spoils
/// a few windows and then drains; past the knee the backlog only grows, so
/// the knee is where the last run of missing windows began.
#[derive(Debug, Clone, Copy)]
pub struct Ramp {
    pub from_rate: f64,
    /// Factor the offered rate grows by each second.
    pub growth_per_s: f64,
    /// The ramp holds no rate above this one; reaching it ends the ramp.
    pub max_rate: f64,
    pub window_ns: u64,
    /// The ramp ends once every window for this long has missed.
    pub give_up_ns: u64,
    /// A window passes if its latency p95 is at most this ...
    pub slo_p95_us: f64,
    /// ... the generator's own lateness p95 at most this ...
    pub lateness_limit_us: f64,
    /// ... and it saw at least this share of what it offered answered (a
    /// wedged server produces no latency samples at all).
    pub min_delivered_share: f64,
}

impl Ramp {
    /// Offered rate `elapsed_ns` into the ramp.
    pub fn rate_at(&self, elapsed_ns: u64) -> f64 {
        let rate = self.from_rate * self.growth_per_s.powf(elapsed_ns as f64 / 1e9);
        rate.min(self.max_rate)
    }

    fn give_up_windows(&self) -> usize {
        (self.give_up_ns / self.window_ns.max(1)).max(1) as usize
    }
}

/// One short window, reduced as soon as it closed.
#[derive(Debug, Clone, Copy)]
pub struct ShortWindow {
    /// Offered rate when the window opened. On a saturated stretch, where
    /// the offer follows the acks, the rate delivered over the window.
    pub rate: f64,
    pub p95_us: f64,
    pub lateness_p95_us: f64,
    pub offered: u64,
    pub delivered: u64,
}

impl ShortWindow {
    pub fn passes(&self, ramp: &Ramp) -> bool {
        self.p95_us <= ramp.slo_p95_us
            && self.lateness_p95_us <= ramp.lateness_limit_us
            && self.delivered as f64 >= ramp.min_delivered_share * self.offered as f64
    }
}

/// How one ramp went.
#[derive(Debug, Clone)]
pub struct RampResult {
    pub ramp: Ramp,
    pub windows: Vec<ShortWindow>,
}

impl RampResult {
    /// Windows at the end of the ramp that all missed.
    fn missing_tail(&self) -> usize {
        self.windows
            .iter()
            .rev()
            .take_while(|w| !w.passes(&self.ramp))
            .count()
    }

    /// The highest rate the server kept up with: the offered rate where the
    /// final run of missing windows began, or `max_rate` if the ramp got
    /// there with windows still passing. `None` if no window passed or the
    /// ramp was cut short before either happened.
    pub fn knee(&self) -> Option<f64> {
        let tail = self.missing_tail();
        let passed = self.windows.len() - tail;
        if passed == 0 {
            None
        } else if tail >= self.ramp.give_up_windows() {
            Some(self.windows[passed].rate)
        } else {
            let last = self.windows[self.windows.len() - 1];
            (tail == 0 && last.rate >= self.ramp.max_rate).then_some(self.ramp.max_rate)
        }
    }
}

/// A stretch with the server kept saturated: `in_flight` requests are
/// outstanding on every connection at all times, each sent the moment an ack
/// frees its place, so the rate delivered is all the server can do and
/// `in_flight` bounds how long a reply takes.
#[derive(Debug, Clone, Copy)]
pub struct Saturated {
    /// Requests kept outstanding on each connection.
    pub in_flight: usize,
    /// Unrecorded lead-in.
    pub settle_ns: u64,
    /// Recorded windows after the lead-in.
    pub windows: usize,
    pub window_ns: u64,
}

/// Short windows, each reduced as soon as it closed: one buffer, reused as
/// time moves on.
struct ShortWindows {
    /// The climbing offer the windows belong to; `None` on a saturated
    /// stretch.
    ramp: Option<Ramp>,
    window_ns: u64,
    /// When window 0 opens.
    start_ns: u64,
    /// Which window `current` is collecting.
    index: u64,
    current: Window,
    done: Vec<ShortWindow>,
}

/// The `p`-th percentile (nearest rank) of unsorted samples, in
/// microseconds; `0` when there are none.
fn select_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1 as f64 / 1e3
}

impl ShortWindows {
    fn new(ramp: Option<Ramp>, window_ns: u64, start_ns: u64, samples: usize) -> Self {
        Self {
            ramp,
            window_ns,
            start_ns,
            index: 0,
            current: Window::with_capacity(samples),
            done: Vec::with_capacity(256),
        }
    }

    /// The window collecting at `t` (none before window 0 opens), closing
    /// every window that ended before.
    fn window_at(&mut self, t: u64) -> Option<&mut Window> {
        let index = t.checked_sub(self.start_ns)? / self.window_ns;
        while self.index < index {
            let w = &mut self.current;
            let reduced = ShortWindow {
                rate: match &self.ramp {
                    Some(ramp) => ramp.rate_at(self.index * self.window_ns),
                    None => w.delivered as f64 * 1e9 / self.window_ns as f64,
                },
                p95_us: if w.latency_ns.is_empty() {
                    f64::INFINITY
                } else {
                    select_us(&mut w.latency_ns, 0.95)
                },
                lateness_p95_us: select_us(&mut w.lateness_ns, 0.95),
                offered: w.offered,
                delivered: w.delivered,
            };
            self.done.push(reduced);
            w.latency_ns.clear();
            w.lateness_ns.clear();
            (w.offered, w.delivered) = (0, 0);
            self.index += 1;
        }
        Some(&mut self.current)
    }
}

/// Where samples go while a stretch of the schedule is being recorded.
enum Recording {
    Fixed(FixedWindows),
    Short(ShortWindows),
}

impl Recording {
    fn window_at(&mut self, t: u64) -> Option<&mut Window> {
        match self {
            Recording::Fixed(fixed) => fixed.window_at(t),
            Recording::Short(short) => short.window_at(t),
        }
    }
}

/// The open-loop generator: one thread, `pools.len()` non-blocking
/// connections, round-robin.
pub struct OpenLoop<'a> {
    conns: Vec<Conn>,
    pools: &'a [RequestPool],
    table: Option<&'a SpanTable>,
    rng: Rng,
    next_conn: usize,
    recording: Option<Recording>,
    outcome: OpenLoopOutcome,
}

impl<'a> OpenLoop<'a> {
    /// Connects one non-blocking socket per pool.
    ///
    /// # Errors
    ///
    /// Any failure connecting or configuring a socket.
    pub fn connect(
        addr: SocketAddr,
        pools: &'a [RequestPool],
        seed: u64,
        table: Option<&'a SpanTable>,
    ) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(pools.len());
        for _ in pools {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::with_capacity(64 * 1024),
                out_head: 0,
                inbuf: vec![0; 64 * 1024],
                in_len: 0,
                fifo: VecDeque::with_capacity(4096),
                cursor: 0,
            });
        }
        Ok(Self {
            outcome: OpenLoopOutcome {
                sent: vec![0; pools.len()],
                ids: vec![Vec::new(); pools.len()],
                ..OpenLoopOutcome::default()
            },
            conns,
            pools,
            table,
            rng: Rng::new(seed, 0x0a11_ce55),
            next_conn: 0,
            recording: None,
        })
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.fifo.len()).sum()
    }

    /// Queues the next request of the round-robin connection, due at
    /// `due_ns`, noticed at `now`.
    fn send_one(&mut self, due_ns: u64, now: u64) {
        let index = self.next_conn;
        self.next_conn = (index + 1) % self.conns.len();
        self.send_on(index, due_ns, now);
    }

    /// Queues the next request of connection `index`.
    fn send_on(&mut self, index: usize, due_ns: u64, now: u64) {
        let pool = &self.pools[index];
        let conn = &mut self.conns[index];
        let slot = conn.cursor % pool.len();
        conn.cursor += 1;
        let pending = Pending::stage(pool, slot, self.table, due_ns, now, &mut conn.out);
        if self.table.is_some() {
            self.outcome.ids[index].push(pending.id);
        }
        conn.fifo.push_back(pending);
        self.outcome.sent[index] += 1;
        self.outcome.attempted += 1;
        if let Some(window) = self.recording.as_mut().and_then(|r| r.window_at(due_ns)) {
            window.offered += 1;
            window.lateness_ns.push(now.saturating_sub(due_ns));
        }
    }

    /// Pushes staged bytes and reads acks on every connection. Returns
    /// whether any connection still has unsent bytes.
    fn pump(&mut self) -> Result<bool, String> {
        let mut backlog = false;
        for conn in &mut self.conns {
            while conn.out_head < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_head..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => conn.out_head += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("send failed: {e}")),
                }
            }
            if conn.out_head == conn.out.len() {
                conn.out.clear();
                conn.out_head = 0;
            } else {
                backlog = true;
            }
            loop {
                match conn.stream.read(&mut conn.inbuf[conn.in_len..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        conn.in_len += n;
                        let now = now_ns();
                        let recording = &mut self.recording;
                        conn.in_len = settle_acks(
                            &mut conn.inbuf,
                            conn.in_len,
                            &mut conn.fifo,
                            self.table,
                            now,
                            &mut self.outcome.failed,
                            |p| {
                                if let Some(w) = recording.as_mut().and_then(|r| r.window_at(now)) {
                                    w.delivered += 1;
                                    w.latency_ns.push(now.saturating_sub(p.due_ns));
                                }
                            },
                        )?;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("receive failed: {e}")),
                }
            }
        }
        Ok(backlog)
    }

    /// Reads until every outstanding request is answered.
    fn drain(&mut self) -> Result<(), String> {
        let deadline = now_ns() + DRAIN_TIMEOUT_NS;
        while self.outstanding() > 0 {
            self.pump()?;
            if now_ns() > deadline {
                return Err(format!("{} requests never answered", self.outstanding()));
            }
            sleep_until((now_ns() / TICK_NS + 1) * TICK_NS);
        }
        Ok(())
    }

    /// Runs one segment: drains what is in flight, then offers `seg.rate`
    /// for the lead-in plus the recorded windows. `on_measure_start` is told
    /// when the first recorded window will begin, before any of it runs.
    pub fn run_segment(
        &mut self,
        seg: Segment,
        on_measure_start: impl FnOnce(u64),
    ) -> Result<&SegmentResult, String> {
        self.drain()?;
        let start = now_ns();
        let measure_start_ns = start + seg.settle_ns;
        let end = measure_start_ns + seg.windows as u64 * seg.window_ns;
        on_measure_start(measure_start_ns);
        let per_window = (seg.rate * seg.window_ns as f64 / 1e9 * 1.3) as usize + 1024;
        self.recording = Some(Recording::Fixed(FixedWindows {
            measure_start_ns,
            window_ns: seg.window_ns,
            windows: (0..seg.windows)
                .map(|_| Window::with_capacity(per_window))
                .collect(),
        }));
        let mut next_due = start + self.rng.exp_gap_ns(seg.rate);
        loop {
            let now = now_ns();
            while next_due <= now && next_due < end {
                self.send_one(next_due, now);
                next_due += self.rng.exp_gap_ns(seg.rate);
            }
            let backlog = self.pump()?;
            if now >= end {
                break;
            }
            if backlog {
                std::thread::yield_now();
            } else {
                sleep_until((now_ns() / TICK_NS + 1) * TICK_NS);
            }
        }
        let Some(Recording::Fixed(mut recording)) = self.recording.take() else {
            unreachable!("set above");
        };
        recording.windows.iter_mut().for_each(Window::seal);
        self.outcome.segments.push(SegmentResult {
            windows: recording.windows,
        });
        Ok(self.outcome.segments.last().expect("just pushed"))
    }

    /// Runs one ramp: drains what is in flight, then offers `ramp`'s climbing
    /// rate until its windows have missed for `give_up_ns` on end, a window
    /// passes at `max_rate`, or the clock reads `deadline_ns`.
    pub fn run_ramp(&mut self, ramp: Ramp, deadline_ns: u64) -> Result<RampResult, String> {
        self.drain()?;
        let start = now_ns();
        let per_window = (ramp.max_rate * ramp.window_ns as f64 / 1e9 * 1.3) as usize + 1024;
        self.recording = Some(Recording::Short(ShortWindows::new(
            Some(ramp),
            ramp.window_ns,
            start,
            per_window,
        )));
        let mut next_due = start + self.rng.exp_gap_ns(ramp.rate_at(0));
        loop {
            let now = now_ns();
            while next_due <= now {
                self.send_one(next_due, now);
                next_due += self.rng.exp_gap_ns(ramp.rate_at(next_due - start));
            }
            let backlog = self.pump()?;
            let Some(Recording::Short(windows)) = self.recording.as_mut() else {
                unreachable!("set above");
            };
            windows.window_at(now_ns());
            let done = &windows.done;
            let missing = done.iter().rev().take_while(|w| !w.passes(&ramp)).count();
            let at_max = done.last().is_some_and(|w| w.rate >= ramp.max_rate);
            if missing >= ramp.give_up_windows() || (at_max && missing == 0) || now >= deadline_ns {
                break;
            }
            if backlog {
                std::thread::yield_now();
            } else {
                sleep_until((now_ns() / TICK_NS + 1) * TICK_NS);
            }
        }
        let Some(Recording::Short(windows)) = self.recording.take() else {
            unreachable!("set above");
        };
        Ok(RampResult {
            ramp,
            windows: windows.done,
        })
    }

    /// Runs one saturated stretch: drains what is in flight, then keeps
    /// `sat.in_flight` requests outstanding on every connection for the
    /// lead-in plus the recorded windows. A request is due when it is sent.
    pub fn run_saturated(&mut self, sat: Saturated) -> Result<Vec<ShortWindow>, String> {
        self.drain()?;
        let start = now_ns();
        let end = start + sat.settle_ns + sat.windows as u64 * sat.window_ns;
        let per_window = (MAX_SATURATED_RATE * sat.window_ns as f64 / 1e9) as usize;
        self.recording = Some(Recording::Short(ShortWindows::new(
            None,
            sat.window_ns,
            start + sat.settle_ns,
            per_window,
        )));
        loop {
            let now = now_ns();
            if now < end {
                for index in 0..self.conns.len() {
                    while self.conns[index].fifo.len() < sat.in_flight {
                        self.send_on(index, now, now);
                    }
                }
            }
            let backlog = self.pump()?;
            if now >= end {
                break;
            }
            if backlog {
                std::thread::yield_now();
            } else {
                sleep_until((now_ns() / TICK_NS + 1) * TICK_NS);
            }
        }
        let Some(Recording::Short(mut windows)) = self.recording.take() else {
            unreachable!("set above");
        };
        windows.window_at(now_ns().max(end));
        windows.done.truncate(sat.windows);
        Ok(windows.done)
    }

    /// Drains, closes every connection and returns what was sent and seen.
    /// A run that stopped early counts its unanswered requests as failed.
    pub fn finish(mut self, error: Option<String>) -> OpenLoopOutcome {
        let error = error.or_else(|| self.drain().err());
        self.outcome.failed += self.outstanding() as u64;
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.outcome.error = error;
        self.outcome
    }
}

/// What one closed-loop client sent and saw.
#[derive(Debug, Default)]
pub struct ClosedOutcome {
    pub windows: Vec<Window>,
    pub sent: u64,
    pub ids: Vec<u32>,
    pub failed: u64,
    pub error: Option<String>,
}

/// A closed-loop client: keeps `window` requests outstanding on one blocking
/// connection until `measure_start_ns + windows * window_ns`, then asks the
/// server to drain and reads the tail. Latency runs from send to verified
/// ack.
pub fn run_closed_client(
    mut stream: TcpStream,
    pool: &RequestPool,
    window: usize,
    measure_start_ns: u64,
    windows: usize,
    window_ns: u64,
    table: Option<&SpanTable>,
) -> ClosedOutcome {
    let mut outcome = ClosedOutcome::default();
    let per_window = (150_000.0 * window_ns as f64 / 1e9) as usize + 1024;
    let mut recording = FixedWindows {
        measure_start_ns,
        window_ns,
        windows: (0..windows)
            .map(|_| Window::with_capacity(per_window))
            .collect(),
    };
    let end = measure_start_ns + windows as u64 * window_ns;
    let mut fifo: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut run = || -> Result<(), String> {
        let mut out = Vec::with_capacity(32 * 1024);
        let mut inbuf = vec![0u8; 64 * 1024];
        let mut in_len = 0;
        let mut cursor = 0usize;
        let mut draining = false;
        loop {
            let now = now_ns();
            if !draining && now >= end {
                draining = true;
                push_frame(&mut out, &encode_drain_request());
            }
            while !draining && fifo.len() < window {
                let slot = cursor % pool.len();
                cursor += 1;
                let pending = Pending::stage(pool, slot, table, now, now, &mut out);
                if table.is_some() {
                    outcome.ids.push(pending.id);
                }
                fifo.push_back(pending);
                outcome.sent += 1;
            }
            if !out.is_empty() {
                stream
                    .write_all(&out)
                    .map_err(|e| format!("send failed: {e}"))?;
                out.clear();
            }
            if fifo.is_empty() {
                return Ok(());
            }
            let n = stream
                .read(&mut inbuf[in_len..])
                .map_err(|e| format!("receive failed: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            in_len += n;
            let now = now_ns();
            in_len = settle_acks(
                &mut inbuf,
                in_len,
                &mut fifo,
                table,
                now,
                &mut outcome.failed,
                |p| {
                    if let Some(w) = recording.window_at(now) {
                        w.delivered += 1;
                        w.latency_ns.push(now - p.due_ns);
                    }
                },
            )?;
        }
    };
    outcome.error = run().err();
    outcome.failed += fifo.len() as u64;
    recording.windows.iter_mut().for_each(Window::seal);
    outcome.windows = recording.windows;
    outcome
}
