//! The four workloads and what they share: the run plan derived from
//! `--seconds`, the window sampler, and the server-side constants.

pub mod exec_keyed;
pub mod poll_open;
pub mod pool_wal;
pub mod sim_sweep;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use pdq_workloads::ServerAggregate;

use crate::clock::{now_ns, sleep_until, SECOND};
use crate::cpu::{self, Delta, Snapshot};
use crate::layers;
use crate::report::RunResult;
use crate::span::SpanTable;
use crate::stats::{percentile, Better, Windows};
use crate::wire::{drain_acks, RequestPool, ACK_FRAME_LEN};

/// The executor every served workload runs behind.
pub const EXECUTOR: &str = "pdq";
/// Bound on waiting submissions, as the repo's soak driver sets it.
pub const CAPACITY: usize = 512;
/// The windows of the served workloads. Short, so that a stall of the box
/// spoils few of them and a run has enough for a best decile: 25 000 replies
/// at phase A's rate, of which 1 250 lie beyond the 95th percentile.
const SERVED_WINDOW_NS: u64 = SECOND / 4;

/// How one invocation is sized. Rates, mixes, thread and connection counts
/// are fixed; only window counts and repetition counts follow `seconds`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    pub traced: bool,
    /// 3 windows per phase, 2 s of phase B or ramp, few set-up cycles;
    /// correctness only.
    pub smoke: bool,
    pub window_ns: u64,
    /// Unrecorded lead-in before the first window of a phase.
    pub warm_ns: u64,
    /// Timed groups of cold set-up cycles; `setup_s` is the quietest.
    pub setup_groups: usize,
}

impl Plan {
    pub fn new(seed: u64, seconds: u64, traced: bool, smoke: bool) -> Self {
        Self {
            seed,
            seconds: seconds.max(1),
            traced,
            smoke,
            window_ns: SERVED_WINDOW_NS,
            warm_ns: if smoke { SECOND / 2 } else { 2 * SECOND },
            setup_groups: if smoke { 8 } else { 160 },
        }
    }

    /// The same plan cut into windows of `window_ns`.
    pub fn with_windows_of(&self, window_ns: u64) -> Self {
        Self {
            window_ns,
            ..self.clone()
        }
    }

    /// `share` of the measured seconds as a window count, at least 3.
    pub fn windows(&self, share: f64) -> usize {
        if self.smoke {
            return 3;
        }
        ((self.seconds as f64 * share * SECOND as f64 / self.window_ns as f64) as usize).max(3)
    }

    /// How long `windows` of them last, in seconds.
    pub fn window_secs(&self, windows: usize) -> f64 {
        windows as f64 * self.window_ns as f64 / 1e9
    }

    /// A scratch directory of this process under `benchmark/target/tmp`.
    pub fn scratch_dir(&self, label: &str) -> PathBuf {
        PathBuf::from("benchmark/target/tmp").join(format!("{label}-{}", std::process::id()))
    }
}

/// Runs `workload` under `plan`.
pub fn run(workload: &str, plan: &Plan) -> Option<RunResult> {
    Some(match workload {
        "poll-open" => poll_open::run(plan),
        "pool-wal-closed" => pool_wal::run(plan),
        "exec-keyed" => exec_keyed::run(plan),
        "sim-sweep" => sim_sweep::run(plan),
        _ => return None,
    })
}

/// A listener on a free loopback port.
pub fn listen() -> (TcpListener, SocketAddr) {
    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fatal(&format!("bind: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fatal(&format!("local_addr: {e}")));
    (listener, addr)
}

/// A connected client socket with Nagle off.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| fatal(&format!("connect: {e}")));
    stream
        .set_nodelay(true)
        .unwrap_or_else(|e| fatal(&format!("nodelay: {e}")));
    stream
}

/// The client half of a set-up cycle: one connection per pool, its first
/// request (followed by `trailer`) sent, and the ack read back and verified
/// on every one. Returns the open connections.
pub fn first_verified_acks(
    addr: SocketAddr,
    pools: &[RequestPool],
    trailer: &[u8],
    result: &mut RunResult,
) -> Vec<TcpStream> {
    let mut streams: Vec<TcpStream> = pools
        .iter()
        .map(|pool| {
            let mut stream = connect(addr);
            let request = [pool.frame(0), trailer].concat();
            stream
                .write_all(&request)
                .unwrap_or_else(|e| fatal(&format!("send: {e}")));
            stream
        })
        .collect();
    for (stream, pool) in streams.iter_mut().zip(pools) {
        let mut frame = [0u8; ACK_FRAME_LEN];
        let mut matched = false;
        let parsed = stream.read_exact(&mut frame).is_ok()
            && drain_acks(&mut frame, ACK_FRAME_LEN, |ack| {
                matched = ack.answers(&pool.replies[0]);
            })
            .is_ok();
        result.attempted += 1;
        result.failed += u64::from(!(parsed && matched));
    }
    streams
}

/// Takes a CPU snapshot at `measure_start_ns` and at each of the `windows`
/// boundaries after it, sleeping in between. Runs on the (harness-owned)
/// calling thread.
pub fn sample_windows(measure_start_ns: u64, windows: usize, window_ns: u64) -> Vec<Snapshot> {
    (0..=windows as u64)
        .map(|k| {
            sleep_until(measure_start_ns + k * window_ns);
            cpu::snapshot()
        })
        .collect()
}

/// CPU spent in each window, from consecutive snapshots.
pub fn window_deltas(snapshots: &[Snapshot]) -> Vec<Delta> {
    snapshots
        .windows(2)
        .map(|pair| pair[1].since(&pair[0]))
        .collect()
}

/// Times cold set-up cycles for `setup_s`. A cycle of the served workloads
/// takes well under a millisecond, most of it thread starts. Left on both
/// CPUs, each start wakes an idle virtual CPU, which costs either next to
/// nothing or as much as the rest of the cycle, for a hundred milliseconds
/// at a time (the groups of one `poll-open` run sat at 350 us or at 750 us),
/// and the median of such a mixture is whichever side has the majority. So
/// the cycles run on one CPU: their threads take turns there, and what is
/// timed is the work of setting up. One sample is the mean over a group of
/// consecutive cycles (a few milliseconds); half of the groups come before
/// the measured phase and half after it. `setup_s` is the quietest group: the
/// box runs a third slower for seconds at a time, which is most of the second
/// a run spends on set-up, so the median group of a run is at one speed in
/// one run and at the other in the next (eight runs in a row: medians spread
/// 0.33-0.55 on the three workloads with groups, quietest groups 0.18-0.34),
/// and nothing but the box makes one group quicker than another.
pub struct SetupTimer {
    group: usize,
    samples_s: Vec<f64>,
}

impl SetupTimer {
    /// A timer whose samples are the mean of `group` cycles each.
    pub fn new(group: usize) -> Self {
        Self {
            group: group.max(1),
            samples_s: Vec::new(),
        }
    }

    /// Times `groups` groups of cycles. `cycle` returns the instant its
    /// set-up was done; what it tears down after that is on its own time.
    pub fn run(&mut self, groups: usize, mut cycle: impl FnMut() -> u64) {
        let _one_cpu = cpu::OneCpu::confine();
        for _ in 0..groups {
            let mut total_ns = 0;
            for _ in 0..self.group {
                let t0 = now_ns();
                total_ns += cycle().saturating_sub(t0);
            }
            self.samples_s
                .push(total_ns as f64 / self.group as f64 / 1e9);
        }
    }

    pub fn put(&self, result: &mut RunResult) {
        let cycles = (self.samples_s.len() * self.group) as u64;
        let quietest = self.samples_s.iter().copied().fold(f64::INFINITY, f64::min);
        result.put_full(
            "setup_s",
            quietest,
            Some(crate::stats::median(&self.samples_s)),
            None,
            cycles,
        );
    }
}

/// Checks that the server's final aggregate is byte-equal to the reference
/// over what was actually sent.
pub fn check_aggregate(
    result: &mut RunResult,
    what: &str,
    got: &ServerAggregate,
    want: &ServerAggregate,
) {
    result.check(got.to_json_string() == want.to_json_string(), || {
        format!("{what}: aggregate differs from the reference fold: got {got:?}, want {want:?}")
    });
}

/// Percent by which `with` exceeds `without`.
pub fn overhead_pct(with: f64, without: f64) -> f64 {
    if without == 0.0 {
        0.0
    } else {
        (with / without - 1.0) * 100.0
    }
}

/// Stops the process: the harness itself could not run (no socket, no
/// scratch directory). Not for failures of the system under test, which are
/// counted and reported.
pub fn fatal(message: &str) -> ! {
    eprintln!("pdq-benchmark: {message}");
    std::process::exit(1);
}

/// Ingress / admit-wait / queue-wait / run / egress samples of every traced
/// request that has a complete chain, and how many had none.
struct SegmentSamples {
    ingress: Vec<u64>,
    admit_wait: Vec<u64>,
    queue_wait: Vec<u64>,
    run: Vec<u64>,
    egress: Vec<u64>,
    /// Requests acked by the client whose chain lacks a stamp or has two out
    /// of order.
    mismatched: u64,
    /// Chains whose handler-end stamp was taken after the ack arrived.
    late_end_stamps: u64,
    acked: u64,
}

fn segment_samples(table: &SpanTable) -> SegmentSamples {
    let mut s = SegmentSamples {
        ingress: Vec::new(),
        admit_wait: Vec::new(),
        queue_wait: Vec::new(),
        run: Vec::new(),
        egress: Vec::new(),
        mismatched: 0,
        late_end_stamps: 0,
        acked: 0,
    };
    for (_, chain) in table.chains() {
        if chain.ack == 0 {
            continue; // sent during the tail and never recorded: not a traced request
        }
        s.acked += 1;
        s.late_end_stamps += u64::from(chain.end_after_ack());
        match chain.segments() {
            Some(seg) => {
                s.ingress.push(seg.ingress);
                s.admit_wait.push(seg.admit_wait);
                s.queue_wait.push(seg.queue_wait);
                s.run.push(seg.run);
                s.egress.push(seg.egress);
            }
            None => s.mismatched += 1,
        }
    }
    for samples in [
        &mut s.ingress,
        &mut s.admit_wait,
        &mut s.queue_wait,
        &mut s.run,
        &mut s.egress,
    ] {
        samples.sort_unstable();
    }
    s
}

/// Reports the five segments' percentiles and checks that they reconcile.
pub fn put_segments(result: &mut RunResult, table: &SpanTable) {
    let s = segment_samples(table);
    let us = |samples: &[u64], p: f64| percentile(samples, p) as f64 / 1e3;
    let n = s.run.len() as u64;
    result.put("server.ingress_us_p50", us(&s.ingress, 0.5), n);
    result.put("server.ingress_us_p95", us(&s.ingress, 0.95), n);
    result.put("server.admit_wait_us_p50", us(&s.admit_wait, 0.5), n);
    result.put("server.admit_wait_us_p95", us(&s.admit_wait, 0.95), n);
    result.put("server.egress_us_p50", us(&s.egress, 0.5), n);
    result.put("server.egress_us_p95", us(&s.egress, 0.95), n);
    result.put("executor.queue_wait_us_p50", us(&s.queue_wait, 0.5), n);
    result.put("executor.queue_wait_us_p95", us(&s.queue_wait, 0.95), n);
    result.put("handler.run_ns_p50", percentile(&s.run, 0.5) as f64, n);
    result.put("handler.run_ns_p95", percentile(&s.run, 0.95) as f64, n);
    let share = s.mismatched as f64 / s.acked.max(1) as f64;
    result.put("harness.span_mismatch_share", share, s.acked);
    result.check(s.acked > 0, || "no traced request completed".into());
    result.check(s.mismatched == 0, || {
        format!(
            "{} of {} traced requests lack a stamp or have stamps out of order",
            s.mismatched, s.acked
        )
    });
    // A worker descheduled between publishing a reply and reading the clock
    // is the box's doing; more than a sliver of such chains is not.
    result.check(s.late_end_stamps * 100 <= s.acked, || {
        format!(
            "{} of {} handler-end stamps were taken after the ack arrived",
            s.late_end_stamps, s.acked
        )
    });
    result.notes.push(format!(
        "{} traced requests, {} handler-end stamps pulled back to the ack",
        s.acked, s.late_end_stamps
    ));
}

/// Reports how far the per-thread CPU classes are from the process total
/// over `snapshots`' span and checks the 2 % reconciliation.
pub fn put_cpu_reconciliation(result: &mut RunResult, snapshots: &[Snapshot]) {
    let (Some(first), Some(last)) = (snapshots.first(), snapshots.last()) else {
        return;
    };
    let delta = last.since(first);
    let gap = delta.class_gap_share();
    result.put(
        "harness.cpu_class_gap_pct",
        gap * 100.0,
        snapshots.len() as u64 - 1,
    );
    let waited = delta.system_wait_ns as f64;
    result.put(
        "harness.runqueue_wait_share",
        waited / (waited + delta.system_ns() as f64).max(1.0),
        snapshots.len() as u64 - 1,
    );
    result.check(gap <= 0.02, || {
        format!(
            "CPU classes sum to {} ns but the process used {} ns ({:.2} % apart)",
            delta.threads_ns(),
            delta.process_ns,
            gap * 100.0
        )
    });
}

/// The dispatch-queue micro-measurements, under their per-layer names.
pub fn put_queue(result: &mut RunResult, q: &layers::QueueCosts) {
    let n = q.stats.enqueued;
    result.put("queue.enqueue_ns", q.enqueue_ns, n);
    result.put("queue.dispatch_ns", q.dispatch_ns, n);
    result.put("queue.complete_ns", q.complete_ns, n);
    result.put(
        "queue.key_conflicts_per_kevent",
        q.key_conflicts_per_kevent(),
        n,
    );
    result.put(
        "queue.sequential_stalls_per_kevent",
        q.sequential_stalls_per_kevent(),
        n,
    );
    result.put("queue.empty_dispatch_share", q.empty_dispatch_share(), n);
    result.put("queue.max_len", q.stats.max_queue_len as f64, n);
}

/// Peak memory and the failure share, reported by every traced run.
pub fn put_harness_totals(result: &mut RunResult) {
    result.put("harness.peak_rss_mb", cpu::peak_rss_mb(), 1);
    let share = result.failed as f64 / result.attempted.max(1) as f64;
    result.put("harness.failed_share", share, result.attempted);
}

/// Server-tier and executor-worker CPU per delivered event, lower quartile
/// of the windows.
pub fn put_cpu_classes(result: &mut RunResult, snapshots: &[Snapshot], delivered: &[u64]) {
    let deltas = window_deltas(snapshots);
    let per_event = |pick: fn(&Delta) -> u64| {
        let values = deltas
            .iter()
            .zip(delivered)
            .map(|(d, &n)| pick(d) as f64 / 1e3 / n.max(1) as f64)
            .collect();
        Windows::new(values, Better::Lower).gated()
    };
    let n = delivered.len() as u64;
    result.put(
        "server.tier_cpu_us_per_event",
        per_event(|d| d.server_ns),
        n,
    );
    result.put(
        "executor.worker_cpu_us_per_event",
        per_event(|d| d.executor_ns),
        n,
    );
}

/// The isolated loops both server workloads share, on `pool`: transport,
/// request codec and reply digest, the handler body, the dispatch queue.
/// Returns the isolated cost of `ExecutorService::prepare`.
pub fn put_server_layers(
    result: &mut RunResult,
    pool: &RequestPool,
    workers: usize,
    budget_ns: u64,
) -> f64 {
    let n = pool.len() as u64;
    let t = layers::transport(pool, budget_ns);
    result.put(
        "transport.encode_ns_per_frame",
        t.encode_ns_per_frame,
        2 * n,
    );
    result.put(
        "transport.decode_ns_per_frame",
        t.decode_ns_per_frame,
        2 * n,
    );
    result.put("transport.wire_bytes_per_event", t.wire_bytes_per_event, n);
    let s = layers::service(pool, budget_ns);
    result.put("service.encode_request_ns", s.encode_request_ns, n);
    result.put("service.decode_request_ns", s.decode_request_ns, n);
    result.put("service.reply_digest_ns", s.reply_digest_ns, n);
    let isolated = layers::handler_isolated_ns(&pool.events, budget_ns);
    result.put("handler.isolated_ns", isolated, n);
    let keys: Vec<_> = pool.events.iter().map(|e| e.sync_key()).collect();
    put_queue(result, &layers::queue(&keys, workers, budget_ns));
    s.prepare_ns
}
