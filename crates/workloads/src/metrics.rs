//! Live observability for the protocol server: the named instruments, the
//! sidecar `/metrics` listener, and the per-connection handles the server
//! tiers record through.
//!
//! [`Observability`] owns one [`Registry`] and pre-registers every server
//! metric at construction, so a scrape taken before any traffic already
//! shows the full (all-zero) name set — CI asserts on names, not values.
//! Recording goes through cloned instrument handles (relaxed atomics from
//! `pdq-metrics`), never back through the registry, so the hot path of a
//! serving connection adds a handful of `fetch_add`s per event.
//!
//! Two scrape surfaces expose the same rendered text:
//!
//! * **In-band**: a [`REQ_METRICS`](crate::service) frame on a protocol
//!   connection answers with a `REP_METRICS` frame
//!   ([`run_metrics_probe`](crate::run_metrics_probe) is the client side).
//! * **Sidecar**: [`serve_metrics`] accepts plain TCP connections on a
//!   dedicated listener and writes the text on connect (readable with a raw
//!   socket read or `curl`), calling a caller-supplied refresh hook first
//!   so executor-level gauges ([`Observability::set_executor_stats`]) are
//!   current at every scrape.
//!
//! Tracing rides along: [`Observability::with_trace`] attaches a bounded
//! [`TraceLog`] and the per-connection handles emit connection lifecycle,
//! batch admission, backpressure transition, and WAL barrier events into
//! it (dropped-not-blocking past the cap; the `pdq_trace_dropped` gauge is
//! refreshed at render time so the loss is visible on the endpoint).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pdq_core::executor::ExecutorStats;
use pdq_metrics::{Counter, Gauge, Histogram, Registry, TraceLog, TraceValue};

/// How long the sidecar listener sleeps between empty accept polls.
const METRICS_ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// Default bound on buffered trace events ([`Observability::with_trace`]'s
/// companion [`Observability::with_default_trace`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The registry, the pre-registered server instruments, and the optional
/// trace log. Clones share everything.
#[derive(Clone, Debug)]
pub struct Observability {
    registry: Registry,
    conn_opened: Counter,
    conn_closed: Counter,
    replies: Counter,
    admitted_events: Counter,
    admission_batches: Counter,
    parked_suspensions: Counter,
    ack_backpressure: Counter,
    reply_latency: Histogram,
    wal_appends: Counter,
    wal_syncs: Counter,
    wal_snapshots: Counter,
    trace_dropped: Gauge,
    trace: Option<TraceLog>,
}

impl Default for Observability {
    fn default() -> Self {
        Self::new()
    }
}

impl Observability {
    /// A fresh registry with every server metric pre-registered (and no
    /// trace log).
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            conn_opened: registry.counter("pdq_conn_opened_total"),
            conn_closed: registry.counter("pdq_conn_closed_total"),
            replies: registry.counter("pdq_replies_total"),
            admitted_events: registry.counter("pdq_admitted_events_total"),
            admission_batches: registry.counter("pdq_admission_batches_total"),
            parked_suspensions: registry.counter("pdq_parked_suspensions_total"),
            ack_backpressure: registry.counter("pdq_ack_backpressure_total"),
            reply_latency: registry.histogram("pdq_reply_latency_ns"),
            wal_appends: registry.counter("pdq_wal_appends_total"),
            wal_syncs: registry.counter("pdq_wal_syncs_total"),
            wal_snapshots: registry.counter("pdq_wal_snapshots_total"),
            trace_dropped: registry.gauge("pdq_trace_dropped"),
            registry,
            trace: None,
        }
    }

    /// As [`new`](Self::new), with a bounded [`TraceLog`] attached.
    pub fn with_trace(capacity: usize) -> Self {
        let mut obs = Self::new();
        obs.trace = Some(TraceLog::new(capacity));
        obs
    }

    /// [`with_trace`](Self::with_trace) at [`DEFAULT_TRACE_CAPACITY`].
    pub fn with_default_trace() -> Self {
        Self::with_trace(DEFAULT_TRACE_CAPACITY)
    }

    /// The shared registry (for registering extra instruments alongside).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The attached trace log, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// The shared reply-latency histogram (server-side nanoseconds from
    /// frame decode to ack encode).
    pub fn reply_latency(&self) -> &Histogram {
        &self.reply_latency
    }

    /// Renders the registry as metrics text, refreshing the trace-loss
    /// gauge first.
    pub fn render(&self) -> String {
        if let Some(trace) = &self.trace {
            self.trace_dropped.set(trace.dropped());
        }
        self.registry.render()
    }

    /// Marks which server tier is live: renders as
    /// `pdq_server{tier="pool"} 1`-style lines.
    pub fn set_tier(&self, tier: &str) {
        self.registry
            .gauge_labeled("pdq_server", &[("tier", tier)])
            .set(1);
    }

    /// Copies an [`ExecutorStats`] snapshot into `pdq_executor_*` /
    /// `pdq_queue_*` gauges. The sidecar's refresh hook calls this before
    /// each scrape, so executor counters are as fresh as the scrape.
    pub fn set_executor_stats(&self, stats: &ExecutorStats) {
        let set = |name: &str, value: u64| self.registry.gauge(name).set(value);
        set("pdq_executor_executed", stats.executed);
        set("pdq_executor_panicked", stats.panicked);
        set("pdq_executor_queued", stats.queued as u64);
        set("pdq_executor_spin_iterations", stats.spin_iterations);
        set("pdq_executor_spurious_wakeups", stats.spurious_wakeups);
        if let Some(queue) = &stats.queue {
            set("pdq_queue_enqueued", queue.enqueued);
            set("pdq_queue_rejected_full", queue.rejected_full);
            set("pdq_queue_dispatched", queue.dispatched);
            set("pdq_queue_completed", queue.completed);
            set("pdq_queue_key_conflicts", queue.key_conflicts);
            set("pdq_queue_order_holds", queue.order_holds);
            set("pdq_queue_empty_dispatches", queue.empty_dispatches);
            set("pdq_queue_sequential_stalls", queue.sequential_stalls);
            set("pdq_queue_sequential_handlers", queue.sequential_handlers);
            set("pdq_queue_nosync_handlers", queue.nosync_handlers);
            set("pdq_queue_max_queue_len", queue.max_queue_len as u64);
            set("pdq_queue_max_in_flight", queue.max_in_flight as u64);
        }
    }

    /// The recording handle for connection `conn`.
    pub fn conn(&self, conn: u64) -> ConnObs {
        ConnObs {
            conn,
            obs: self.clone(),
        }
    }

    /// The WAL-layer recording handle for connection `conn`
    /// ([`WalWriter::set_metrics`](crate::wal::WalWriter::set_metrics)).
    pub fn wal_metrics(&self, conn: u64) -> WalMetrics {
        WalMetrics {
            conn,
            appends: self.wal_appends.clone(),
            syncs: self.wal_syncs.clone(),
            snapshots: self.wal_snapshots.clone(),
            trace: self.trace.clone(),
        }
    }

    /// Emits a recovery trace event (a WAL directory replayed into a fresh
    /// state) and bumps nothing else — recovery happens offline, before
    /// serving starts.
    pub fn recovery(&self, label: &str, events: u64, torn: bool) {
        if let Some(trace) = &self.trace {
            trace.emit(
                "recovery",
                &[
                    ("wal", TraceValue::Str(label)),
                    ("events", TraceValue::U64(events)),
                    ("torn", TraceValue::Bool(torn)),
                ],
            );
        }
    }
}

/// Per-connection recording handle: instrument clones plus the connection
/// id stamped into trace events. All methods are relaxed-atomic bumps
/// and/or bounded trace emits — nothing blocks.
#[derive(Clone, Debug)]
pub struct ConnObs {
    conn: u64,
    obs: Observability,
}

impl ConnObs {
    /// The connection id this handle stamps into trace events.
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// Connection accepted.
    pub fn opened(&self) {
        self.obs.conn_opened.inc();
        if let Some(trace) = &self.obs.trace {
            trace.emit("conn_open", &[("conn", TraceValue::U64(self.conn))]);
        }
    }

    /// Connection finished (served to completion or torn down), having
    /// answered `answered` acks.
    pub fn closed(&self, answered: u64) {
        self.obs.conn_closed.inc();
        if let Some(trace) = &self.obs.trace {
            trace.emit(
                "conn_close",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("answered", TraceValue::U64(answered)),
                ],
            );
        }
    }

    /// One ack went out, `latency_ns` after its request frame was decoded.
    pub fn reply(&self, latency_ns: u64) {
        self.obs.replies.inc();
        self.obs.reply_latency.record(latency_ns);
    }

    /// One admission pass admitted `events` entries.
    pub fn admitted(&self, events: u64) {
        self.obs.admission_batches.inc();
        self.obs.admitted_events.add(events);
        if let Some(trace) = &self.obs.trace {
            trace.emit(
                "batch_admit",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("events", TraceValue::U64(events)),
                ],
            );
        }
    }

    /// A refused admission left `parked` entries parked and suspended this
    /// connection's socket reads (backpressure on).
    pub fn suspended(&self, parked: u64) {
        self.obs.parked_suspensions.inc();
        if let Some(trace) = &self.obs.trace {
            trace.emit(
                "backpressure",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("on", TraceValue::Bool(true)),
                    ("parked", TraceValue::U64(parked)),
                ],
            );
        }
    }

    /// The parked tail drained and socket reads resumed (backpressure off).
    pub fn resumed(&self) {
        if let Some(trace) = &self.obs.trace {
            trace.emit(
                "backpressure",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("on", TraceValue::Bool(false)),
                ],
            );
        }
    }

    /// The encoder backlog crossed the write watermark: the peer is not
    /// draining its acks, so reads stop until it does.
    pub fn write_blocked(&self, staged: u64) {
        self.obs.ack_backpressure.inc();
        if let Some(trace) = &self.obs.trace {
            trace.emit(
                "ack_backpressure",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("staged", TraceValue::U64(staged)),
                ],
            );
        }
    }

    /// Renders the shared registry — the in-band `REQ_METRICS` answer.
    pub fn render(&self) -> String {
        self.obs.render()
    }
}

/// WAL-layer instrument handles (held by a
/// [`WalWriter`](crate::wal::WalWriter) when observability is on).
#[derive(Clone, Debug)]
pub struct WalMetrics {
    conn: u64,
    appends: Counter,
    syncs: Counter,
    snapshots: Counter,
    trace: Option<TraceLog>,
}

impl WalMetrics {
    /// One event record appended.
    pub(crate) fn appended(&self) {
        self.appends.inc();
    }

    /// One sync barrier persisted, covering `events` events.
    pub(crate) fn synced(&self, events: u64) {
        self.syncs.inc();
        if let Some(trace) = &self.trace {
            trace.emit(
                "wal_sync",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("events", TraceValue::U64(events)),
                ],
            );
        }
    }

    /// One snapshot record appended at `events` events.
    pub(crate) fn snapshotted(&self, events: u64) {
        self.snapshots.inc();
        if let Some(trace) = &self.trace {
            trace.emit(
                "wal_snapshot",
                &[
                    ("conn", TraceValue::U64(self.conn)),
                    ("events", TraceValue::U64(events)),
                ],
            );
        }
    }
}

/// Serves metrics text over plain TCP: each accepted connection gets
/// `refresh()` called (the hook copies executor stats into gauges), the
/// rendered registry written, and the socket closed — readable with `curl`
/// or one raw socket read, no HTTP framing to speak.
///
/// Polls `listener` non-blocking and returns the number of scrapes served
/// once `stop` is set. Run it on a scoped thread next to the server tier;
/// flip `stop` after the tier returns.
///
/// # Errors
///
/// Any I/O failure of the listener or an accepted socket (a scraper that
/// disconnects mid-write is ignored, not fatal).
pub fn serve_metrics(
    listener: &TcpListener,
    obs: &Observability,
    refresh: &(dyn Fn() + Sync),
    stop: &AtomicBool,
) -> io::Result<u64> {
    listener.set_nonblocking(true)?;
    let mut scrapes = 0u64;
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                refresh();
                let text = obs.render();
                stream.set_nonblocking(false)?;
                if stream.write_all(text.as_bytes()).is_ok() {
                    let _ = stream.flush();
                    scrapes += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::Acquire) {
                    return Ok(scrapes);
                }
                std::thread::sleep(METRICS_ACCEPT_BACKOFF);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Scrapes a [`serve_metrics`] listener: connects, reads to EOF, returns
/// the text. The client half of the sidecar endpoint (the soak driver and
/// CI use it mid-run).
///
/// # Errors
///
/// Any I/O failure connecting or reading, or non-UTF-8 payload bytes.
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_core::QueueStats;

    #[test]
    fn every_required_metric_name_is_preregistered() {
        let obs = Observability::new();
        let text = obs.render();
        for name in [
            "pdq_conn_opened_total 0",
            "pdq_conn_closed_total 0",
            "pdq_replies_total 0",
            "pdq_admitted_events_total 0",
            "pdq_admission_batches_total 0",
            "pdq_parked_suspensions_total 0",
            "pdq_ack_backpressure_total 0",
            "pdq_reply_latency_ns_count 0",
            "pdq_reply_latency_ns_bucket",
            "pdq_wal_appends_total 0",
            "pdq_wal_syncs_total 0",
            "pdq_wal_snapshots_total 0",
            "pdq_trace_dropped 0",
        ] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
    }

    #[test]
    fn executor_stats_land_in_gauges() {
        let obs = Observability::new();
        let stats = ExecutorStats {
            executed: 10,
            panicked: 1,
            queued: 3,
            queue: Some(QueueStats {
                enqueued: 11,
                max_queue_len: 7,
                ..QueueStats::default()
            }),
            spin_iterations: 0,
            spurious_wakeups: 2,
            ..ExecutorStats::default()
        };
        obs.set_executor_stats(&stats);
        obs.set_tier("poll");
        let text = obs.render();
        assert!(text.contains("pdq_executor_executed 10"));
        assert!(text.contains("pdq_executor_queued 3"));
        assert!(text.contains("pdq_queue_enqueued 11"));
        assert!(text.contains("pdq_queue_max_queue_len 7"));
        assert!(text.contains("pdq_server{tier=\"poll\"} 1"));
    }

    #[test]
    fn conn_handles_bump_shared_counters_and_trace() {
        let obs = Observability::with_trace(16);
        let conn = obs.conn(3);
        conn.opened();
        conn.admitted(5);
        conn.suspended(2);
        conn.resumed();
        conn.write_blocked(70_000);
        conn.reply(1000);
        conn.closed(1);
        let text = obs.render();
        assert!(text.contains("pdq_conn_opened_total 1"));
        assert!(text.contains("pdq_admitted_events_total 5"));
        assert!(text.contains("pdq_parked_suspensions_total 1"));
        assert!(text.contains("pdq_ack_backpressure_total 1"));
        assert!(text.contains("pdq_replies_total 1"));
        assert!(text.contains("pdq_reply_latency_ns_count 1"));
        let lines = obs.trace().expect("trace on").lines().join("\n");
        for event in [
            "conn_open",
            "batch_admit",
            "backpressure",
            "ack_backpressure",
            "conn_close",
        ] {
            assert!(lines.contains(event), "missing {event} in:\n{lines}");
        }
        assert_eq!(
            pdq_metrics::validate_jsonl(&lines).expect("parseable"),
            obs.trace().expect("trace on").len()
        );
    }

    #[test]
    fn sidecar_serves_scrapes_until_stopped() {
        let obs = Observability::new();
        obs.conn(0).reply(42);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = AtomicBool::new(false);
        let refreshed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            let exporter = scope.spawn(|| {
                serve_metrics(
                    &listener,
                    &obs,
                    &|| {
                        refreshed.fetch_add(1, Ordering::Relaxed);
                    },
                    &stop,
                )
            });
            let text = scrape_metrics(addr).expect("scrape");
            assert!(text.contains("pdq_replies_total 1"));
            assert!(text.contains("pdq_reply_latency_ns_count 1"));
            stop.store(true, Ordering::Release);
            let scrapes = exporter.join().expect("exporter").expect("io ok");
            assert_eq!(scrapes, 1);
        });
        assert_eq!(refreshed.load(Ordering::Relaxed), 1);
    }
}
