//! `pool-wal-closed`: `nproc` closed-loop clients (window 256) into
//! `serve_pool` (window 128) with a per-connection write-ahead log synced
//! every 1024 events, then repeated recovery of the logs just written.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use pdq_core::executor::{build_executor, ExecutorSpec};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::service::encode_drain_request;
use pdq_workloads::wal::wal_path;
use pdq_workloads::{
    pool_wal_dir, recover_dir, reference_aggregate, replay, serve_pool, ExecutorService,
    PoolOptions, PoolWal, ProtocolService, ServerAggregate, WalWriter,
};

use super::{
    check_aggregate, connect, fatal, first_verified_acks, listen, overhead_pct, put_cpu_classes,
    put_cpu_reconciliation, put_harness_totals, put_segments, put_server_layers, sample_windows,
    window_deltas, Plan, SetupTimer, CAPACITY, EXECUTOR,
};
use crate::clock::{now_ns, SECOND};
use crate::cpu::{self, Snapshot};
use crate::loadgen::{run_closed_client, ClosedOutcome, Window};
use crate::report::RunResult;
use crate::span::{SinkStats, SpanService, SpanSink, SpanTable};
use crate::stats::{median, percentile, quartiles, Better, Windows};
use crate::wire::{push_frame, RequestPool, BLOCKS};

const CLIENT_WINDOW: usize = 256;
const SERVER_WINDOW: usize = 128;
const SYNC_EVERY: u64 = 1024;
const POOL_EVENTS: usize = 1 << 17;
/// Recovery repetitions; `recovery_eps` is their lower quartile.
const RECOVERY_REPS: usize = 12;
/// Each repetition recovers this much of every log: the first 2 MiB (68 000
/// events), cut mid-record, so the torn-tail path runs too. Replaying the
/// whole logs a dozen times would not fit the run.
const RECOVERY_PREFIX_BYTES: u64 = 2 << 20;
/// Slack between fixing the timeline and the first request.
const CONNECT_SLACK_NS: u64 = 20_000_000;
/// Cycles timed as one `setup_s` sample; a cycle is about two milliseconds.
const SETUP_GROUP: usize = 4;

/// The pool tier as every phase runs it: reply window 128, one fresh log per
/// connection under `root`, synced every 1024 events, no snapshots.
fn pool_options(root: &Path, connections: usize) -> PoolOptions {
    PoolOptions {
        window: SERVER_WINDOW,
        accept: connections,
        wal: Some(PoolWal {
            root: root.to_path_buf(),
            blocks: BLOCKS,
            sync_every: SYNC_EVERY,
            snapshot_every: 0,
            crash_after: None,
        }),
    }
}

struct Phase {
    clients: Vec<ClosedOutcome>,
    snapshots: Vec<Snapshot>,
    answered: u64,
    /// `(call_ns, calls)` of a traced phase.
    service: Option<[u64; 2]>,
}

impl Phase {
    /// Window `k` over all clients.
    fn merged(&self) -> Vec<Window> {
        let count = self
            .clients
            .iter()
            .map(|c| c.windows.len())
            .min()
            .unwrap_or(0);
        (0..count)
            .map(|k| {
                let mut merged = Window::default();
                for client in &self.clients {
                    let w = &client.windows[k];
                    merged.latency_ns.extend_from_slice(&w.latency_ns);
                    merged.delivered += w.delivered;
                }
                merged.seal();
                merged
            })
            .collect()
    }

    fn sent(&self) -> u64 {
        self.clients.iter().map(|c| c.sent).sum()
    }
}

/// The events client `c` sent, first `n` of them.
fn sent_prefix(pool: &RequestPool, client: &ClosedOutcome, n: u64) -> Vec<ProtocolEvent> {
    pool.sent_events(n.min(client.sent), &client.ids).collect()
}

/// Serves `nproc` connections through `serve_pool` with per-connection logs
/// under `root` while the clients run `windows` recorded windows, then
/// verifies the aggregate. A traced phase puts a `SpanService` in front of
/// the executor; the tier and its logs are the library's own either way.
fn serve_phase(
    plan: &Plan,
    pools: &[RequestPool],
    table: Option<&Arc<SpanTable>>,
    windows: usize,
    root: &Path,
    result: &mut RunResult,
) -> Phase {
    let nproc = pools.len();
    let mut executor = build_executor(EXECUTOR, &ExecutorSpec::new(nproc).capacity(CAPACITY))
        .expect("pdq is registered");
    let (listener, addr) = listen();
    let plain = ExecutorService::new(&*executor, BLOCKS);
    let span = table.map(|t| SpanService::new(&*executor, BLOCKS, Arc::clone(t)));
    let service: &dyn ProtocolService = match &span {
        Some(span) => span,
        None => &plain,
    };
    let options = pool_options(root, nproc);
    let (clients, snapshots, answered) = std::thread::scope(|scope| {
        let (listener, options) = (&listener, &options);
        let server = scope.spawn(move || serve_pool(listener, service, options));
        // Connect in order from this thread so connection `c` (and its
        // `conn-000c` log) belongs to client `c`.
        let streams: Vec<TcpStream> = (0..nproc).map(|_| connect(addr)).collect();
        let measure_start = now_ns() + CONNECT_SLACK_NS + plan.warm_ns;
        let table = table.map(|t| &**t);
        let handles: Vec<_> = streams
            .into_iter()
            .zip(pools)
            .map(|(stream, pool)| {
                scope.spawn(move || {
                    cpu::register_harness_thread();
                    run_closed_client(
                        stream,
                        pool,
                        CLIENT_WINDOW,
                        measure_start,
                        windows,
                        plan.window_ns,
                        table,
                    )
                })
            })
            .collect();
        let snapshots = sample_windows(measure_start, windows, plan.window_ns);
        let clients: Vec<ClosedOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let answered = server
            .join()
            .expect("server thread")
            .unwrap_or_else(|e| fatal(&format!("serve_pool failed: {e}")))
            .answered;
        (clients, snapshots, answered)
    });
    service.flush();
    let sent: u64 = clients.iter().map(|c| c.sent).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    let aggregate = service.aggregate(sent - failed);
    let service_counters = span.as_ref().map(|s| {
        [
            s.counters.call_ns.load(Relaxed),
            s.counters.calls.load(Relaxed),
        ]
    });
    executor.shutdown();

    result.attempted += sent;
    result.failed += failed;
    for client in &clients {
        if let Some(error) = &client.error {
            result
                .problems
                .push(format!("client stopped early: {error}"));
        }
    }
    result.check(answered == sent, || {
        format!("server answered {answered} of {sent} requests")
    });
    let reference: ServerAggregate = if table.is_none() {
        let all = pools
            .iter()
            .zip(&clients)
            .flat_map(|(pool, c)| pool.events.iter().cycle().take(c.sent as usize));
        reference_aggregate(all, BLOCKS)
    } else {
        let all: Vec<ProtocolEvent> = pools
            .iter()
            .zip(&clients)
            .flat_map(|(pool, c)| sent_prefix(pool, c, c.sent))
            .collect();
        reference_aggregate(all.iter(), BLOCKS)
    };
    check_aggregate(result, "pool tier", &aggregate, &reference);
    Phase {
        clients,
        snapshots,
        answered,
        service: service_counters,
    }
}

/// One cold set-up: executor, service, listener, pool tier with fresh logs
/// (header write + sync), `nproc` connections, first verified ack on each.
fn setup_cycle(pools: &[RequestPool], root: &Path, result: &mut RunResult) -> u64 {
    let nproc = pools.len();
    let mut executor = build_executor(EXECUTOR, &ExecutorSpec::new(nproc).capacity(CAPACITY))
        .expect("pdq is registered");
    let ready = {
        let service = ExecutorService::new(&*executor, BLOCKS);
        let (listener, addr) = listen();
        let options = pool_options(root, nproc);
        // The windowed loop acks request 1 only once the window fills or the
        // client asks it to drain.
        let mut drain = Vec::new();
        push_frame(&mut drain, &encode_drain_request());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_pool(&listener, &service, &options));
            let streams = first_verified_acks(addr, pools, &drain, result);
            let ready = now_ns();
            drop(streams);
            let report = server.join().expect("server thread");
            result.check(report.is_ok(), || {
                format!("set-up cycle: serve_pool failed: {report:?}")
            });
            ready
        })
    };
    executor.shutdown();
    ready
}

/// What recovering the logs cost, one value per repetition.
struct Recovery {
    /// Events scanned + replayed per second.
    eps: Vec<f64>,
    scan_ns_per_event: Vec<f64>,
    replay_ns_per_event: Vec<f64>,
    events_per_rep: u64,
}

impl Recovery {
    /// What a repetition does with both CPUs to itself. Replay is
    /// `submit_batch` from one thread into two workers, and on this box that
    /// runs *faster* when something takes a CPU away (2-3 times with a busy
    /// loop beside it: fewer threads fight over the dispatch lock), so a
    /// disturbed repetition reads high as often as low. The undisturbed ones
    /// sit together at the slow end: the lower quartile of the rates, the
    /// upper quartile of replay's cost. (The median of five flipped between
    /// 350 k and 600 k events/s from run to run; the lower quartile of forty
    /// read 377-385 k in four runs.)
    fn eps(&self) -> f64 {
        quartiles(&self.eps)[0]
    }

    fn replay_ns_per_event(&self) -> f64 {
        quartiles(&self.replay_ns_per_event)[2]
    }

    /// The scan is one thread reading a file: interference only adds time.
    fn scan_ns_per_event(&self) -> f64 {
        quartiles(&self.scan_ns_per_event)[0]
    }
}

/// Checks every full log against what its client sent, then recovers a
/// prefix of each `RECOVERY_REPS` times: `recover_dir` + `replay` on a
/// fresh executor, the replayed aggregate compared with the reference over
/// the recovered prefix of that connection's stream.
fn recover_logs(
    plan: &Plan,
    pools: &[RequestPool],
    phase: &Phase,
    root: &Path,
    result: &mut RunResult,
) -> Recovery {
    let nproc = pools.len();
    let prefix_dir = |c: usize| root.join(format!("prefix-{c:04}"));
    for (c, client) in phase.clients.iter().enumerate() {
        let dir = pool_wal_dir(root, c);
        match recover_dir(&dir) {
            Ok(full) => {
                result.attempted += 1;
                let ok = full.total_events == client.sent && !full.torn && full.blocks == BLOCKS;
                if !ok {
                    result.failed += 1;
                    result.problems.push(format!(
                        "log {c}: recovered {} events (torn: {}), client sent {}",
                        full.total_events, full.torn, client.sent
                    ));
                }
            }
            Err(e) => result.problems.push(format!("log {c}: {e}")),
        }
        let copy = || -> std::io::Result<()> {
            use std::io::Read;
            std::fs::create_dir_all(prefix_dir(c))?;
            let mut bytes = Vec::new();
            std::fs::File::open(wal_path(&dir))?
                .take(RECOVERY_PREFIX_BYTES)
                .read_to_end(&mut bytes)?;
            std::fs::write(wal_path(&prefix_dir(c)), bytes)
        };
        if let Err(e) = copy() {
            result
                .problems
                .push(format!("copying a prefix of log {c}: {e}"));
        }
    }
    let reps = if plan.smoke { 2 } else { RECOVERY_REPS };
    let mut recovery = Recovery {
        eps: Vec::with_capacity(reps),
        scan_ns_per_event: Vec::with_capacity(reps),
        replay_ns_per_event: Vec::with_capacity(reps),
        events_per_rep: 0,
    };
    for _ in 0..reps {
        let (mut events, mut scan_ns, mut replay_ns) = (0u64, 0u64, 0u64);
        for (c, (pool, client)) in pools.iter().zip(&phase.clients).enumerate() {
            let mut executor =
                build_executor(EXECUTOR, &ExecutorSpec::new(nproc).capacity(CAPACITY))
                    .expect("pdq is registered");
            let t0 = now_ns();
            let recovered = recover_dir(&prefix_dir(c));
            let t1 = now_ns();
            let Ok(recovered) = recovered else {
                result
                    .problems
                    .push(format!("prefix of log {c} is unreadable"));
                executor.shutdown();
                continue;
            };
            let replayed = replay(&recovered, &*executor);
            let t2 = now_ns();
            executor.shutdown();
            let want = reference_aggregate(
                sent_prefix(pool, client, recovered.total_events).iter(),
                BLOCKS,
            );
            result.attempted += 1;
            match replayed {
                Ok(got)
                    if got.to_json_string() == want.to_json_string()
                        && recovered.total_events > 0 => {}
                other => {
                    result.failed += 1;
                    result.problems.push(format!(
                        "replay of log {c} ({} events) does not match the reference: {other:?}",
                        recovered.total_events
                    ));
                }
            }
            events += recovered.total_events;
            scan_ns += t1 - t0;
            replay_ns += t2 - t1;
        }
        let per_event = |ns: u64| ns as f64 / events.max(1) as f64;
        recovery
            .eps
            .push(events as f64 * 1e9 / (scan_ns + replay_ns).max(1) as f64);
        recovery.scan_ns_per_event.push(per_event(scan_ns));
        recovery.replay_ns_per_event.push(per_event(replay_ns));
        recovery.events_per_rep = events;
    }
    recovery
}

fn scratch(plan: &Plan) -> PathBuf {
    let dir = plan.scratch_dir("pool-wal");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fatal(&format!("creating {}: {e}", dir.display())));
    dir
}

pub fn run(plan: &Plan) -> RunResult {
    let nproc = cpu::nproc();
    let fingerprint = cpu::fingerprint(EXECUTOR, "pool+wal", nproc, plan.seed);
    let mut result = RunResult::new("pool-wal-closed", plan.seed, plan.traced, fingerprint);
    let pools: Vec<RequestPool> = (0..nproc as u64)
        .map(|client| RequestPool::generate(plan.seed, client, POOL_EVENTS))
        .collect();
    let dir = scratch(plan);
    if plan.traced {
        run_traced(plan, &pools, &dir, &mut result);
    } else {
        run_untraced(plan, &pools, &dir, &mut result);
    }
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        result
            .notes
            .push(format!("could not remove {}: {e}", dir.display()));
    }
    result
}

fn window_metrics(phase: &Phase, plan: &Plan) -> (Vec<Window>, Windows, Windows) {
    let merged = phase.merged();
    let secs = plan.window_ns as f64 / 1e9;
    let throughput = Windows::new(
        merged.iter().map(|w| w.delivered as f64 / secs).collect(),
        Better::Higher,
    );
    let cpu = Windows::new(
        window_deltas(&phase.snapshots)
            .iter()
            .zip(&merged)
            .map(|(d, w)| d.system_ns() as f64 / 1e3 / w.delivered.max(1) as f64)
            .collect(),
        Better::Lower,
    );
    (merged, throughput, cpu)
}

fn latency(merged: &[Window], p: f64) -> Windows {
    Windows::new(
        merged.iter().map(|w| w.latency_us(p)).collect(),
        Better::Lower,
    )
}

fn run_untraced(plan: &Plan, pools: &[RequestPool], dir: &Path, result: &mut RunResult) {
    let mut setup = SetupTimer::new(SETUP_GROUP);
    let mut cycle = 0;
    let mut setup_cycle = |result: &mut RunResult| {
        cycle += 1;
        setup_cycle(pools, &dir.join(format!("setup-{cycle}")), result)
    };
    setup.run(plan.setup_groups / 2, || setup_cycle(result));

    // Three quarters of the seconds serve; the rest recovers.
    let windows = plan.windows(0.75);
    let root = dir.join("serve");
    let phase = serve_phase(plan, pools, None, windows, &root, result);
    let (merged, throughput, cpu) = window_metrics(&phase, plan);
    let n = merged.len() as u64;
    let delivered: u64 = merged.iter().map(|w| w.delivered).sum();
    let secs = plan.window_ns as f64 / 1e9;
    result.put_full(
        "throughput_eps",
        throughput.gated(),
        Some(throughput.median()),
        Some(delivered as f64 / (n as f64 * secs).max(1e-9)),
        n,
    );
    let mut all: Vec<u64> = merged
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    all.sort_unstable();
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p95_us", 0.95)] {
        let per_window = latency(&merged, p);
        // The tail is the wait for the log's syncs, and a window's p95 swings
        // by a factor of two within one run whatever the box does: the best
        // decile holds the windows no slow sync fell into. The median is the
        // window's event count seen from the other side (closed loop: what
        // is in flight over the rate) and goes by the rule for rates.
        let gated = if p > 0.9 {
            per_window.best_decile()
        } else {
            per_window.gated()
        };
        result.put_full(
            name,
            gated,
            Some(per_window.median()),
            Some(percentile(&all, p) as f64 / 1e3),
            n,
        );
    }
    result.put_full("cpu_us_per_event", cpu.gated(), Some(cpu.median()), None, n);

    let recovery = recover_logs(plan, pools, &phase, &root, result);
    setup.run(plan.setup_groups / 2, || setup_cycle(result));
    setup.put(result);
    result.put_full(
        "recovery_eps",
        recovery.eps(),
        Some(median(&recovery.eps)),
        None,
        recovery.eps.len() as u64,
    );
    result.notes.push(format!(
        "served {} events ({} answered) in {} windows; slow-window share {:.3}; p99 {:.0} us",
        phase.sent(),
        phase.answered,
        n,
        latency(&merged, 0.5).slow_share(),
        percentile(&all, 0.99) as f64 / 1e3
    ));
    result.notes.push(format!(
        "per-window events/s: {:.0?}; p50 us: {:.0?}; p95 us: {:.0?}; cpu us/event: {:.2?}; recovery events/s: {:.0?}",
        throughput.values,
        latency(&merged, 0.5).values,
        latency(&merged, 0.95).values,
        cpu.values,
        recovery.eps
    ));
    result.notes.push(format!(
        "recovery: {} repetitions of {} events; scan {:.0} ns/event, replay {:.0} ns/event",
        recovery.eps.len(),
        recovery.events_per_rep,
        recovery.scan_ns_per_event(),
        recovery.replay_ns_per_event()
    ));
}

fn run_traced(plan: &Plan, pools: &[RequestPool], dir: &Path, result: &mut RunResult) {
    let plain_windows = plan.windows(0.25);
    let traced_windows = plan.windows(0.33);
    let mut plan = plan.clone();
    plan.warm_ns /= 2;
    let plan = &plan;

    let plain = serve_phase(plan, pools, None, plain_windows, &dir.join("plain"), result);
    let _ = std::fs::remove_dir_all(dir.join("plain"));
    let table = SpanTable::new((300_000.0 * (plan.window_secs(traced_windows) + 2.0)) as usize);
    let root = dir.join("traced");
    let traced = serve_phase(plan, pools, Some(&table), traced_windows, &root, result);

    put_segments(result, &table);
    put_cpu_reconciliation(result, &traced.snapshots);
    let trace_path = Path::new("benchmark/results/trace-pool-wal-closed.jsonl");
    match table.write_jsonl(trace_path, 10_000) {
        Ok(n) => result
            .notes
            .push(format!("{n} span chains in {}", trace_path.display())),
        Err(e) => result
            .problems
            .push(format!("writing {}: {e}", trace_path.display())),
    }

    let (merged, _, _) = window_metrics(&traced, plan);
    let n = merged.len() as u64;
    let delivered: Vec<u64> = merged.iter().map(|w| w.delivered).collect();
    put_cpu_classes(result, &traced.snapshots, &delivered);
    if let Some([call_ns, calls]) = traced.service {
        // The pool tier admits one request per `call`.
        result.put(
            "service.admit_ns_per_event",
            call_ns as f64 / calls.max(1) as f64,
            calls,
        );
        result.put("server.events_per_batch", 1.0, calls);
    }

    // The log. What the served logs hold per event is read off the files
    // `serve_pool` wrote; `serve_pool` builds its own sink, so write calls and
    // barrier times come from the same writer driven alone over this
    // workload's events, on a `SpanSink` in the same directory: append with a
    // barrier every `SYNC_EVERY` events, as the tier does.
    let log_bytes: u64 = (0..pools.len())
        .filter_map(|c| std::fs::metadata(wal_path(&pool_wal_dir(&root, c))).ok())
        .map(|m| m.len())
        .sum();
    result.put(
        "wal.bytes_per_event",
        log_bytes as f64 / traced.sent().max(1) as f64,
        traced.sent(),
    );
    let pool = &pools[0];
    let sink = Arc::new(SinkStats::default());
    let mut append_ns = f64::INFINITY;
    for pass in 0..3 {
        let path = dir.join(format!("append-{pass}")).join("wal.log");
        let appended = SpanSink::create(&path, Arc::clone(&sink))
            .and_then(|file| WalWriter::new(file, BLOCKS))
            .and_then(|mut wal| {
                let synced_before: u64 = sink.sync_ns.lock().expect("sync samples").iter().sum();
                let t0 = now_ns();
                for event in &pool.events {
                    if wal.append_event(event)? % SYNC_EVERY == 0 {
                        wal.sync()?;
                    }
                }
                let total = now_ns() - t0;
                let synced: u64 = sink.sync_ns.lock().expect("sync samples").iter().sum();
                Ok(total.saturating_sub(synced - synced_before) as f64 / pool.len() as f64)
            });
        match appended {
            Ok(ns) => append_ns = append_ns.min(ns),
            Err(e) => result.problems.push(format!("isolated log: {e}")),
        }
    }
    result.put("wal.append_ns_per_event", append_ns, pool.len() as u64);
    let mut syncs = sink.sync_ns.lock().expect("sync samples").clone();
    syncs.sort_unstable();
    result.put(
        "wal.sync_ms_p50",
        percentile(&syncs, 0.5) as f64 / 1e6,
        syncs.len() as u64,
    );
    result.put(
        "wal.sync_ms_p95",
        percentile(&syncs, 0.95) as f64 / 1e6,
        syncs.len() as u64,
    );
    result.put(
        "wal.write_calls_per_event",
        sink.write_calls.load(Relaxed) as f64 / (3 * pool.len()) as f64,
        3 * pool.len() as u64,
    );

    let recovery = recover_logs(plan, pools, &traced, &root, result);
    result.put(
        "wal.scan_ns_per_event",
        recovery.scan_ns_per_event(),
        recovery.events_per_rep,
    );
    result.put(
        "wal.replay_ns_per_event",
        recovery.replay_ns_per_event(),
        recovery.events_per_rep,
    );

    // Layers the two server workloads share, on this workload's inputs.
    let budget = if plan.smoke { SECOND / 50 } else { SECOND / 10 };
    let prepare_ns = put_server_layers(result, pool, pools.len(), budget);
    result.put("service.prepare_ns", prepare_ns, pool.len() as u64);

    let (plain_merged, _, plain_cpu) = window_metrics(&plain, plan);
    let (_, _, traced_cpu) = window_metrics(&traced, plan);
    let p50 = |merged: &[Window]| latency(merged, 0.5).gated();
    result.put(
        "harness.trace_overhead_pct",
        overhead_pct(p50(&merged), p50(&plain_merged)),
        n,
    );
    result.put(
        "harness.trace_overhead_cpu_pct",
        overhead_pct(traced_cpu.gated(), plain_cpu.gated()),
        n,
    );
    let mut all: Vec<u64> = merged
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    all.sort_unstable();
    result.put(
        "loadgen.latency_p99_us",
        percentile(&all, 0.99) as f64 / 1e3,
        all.len() as u64,
    );
    result.put(
        "loadgen.latency_p999_us",
        percentile(&all, 0.999) as f64 / 1e3,
        all.len() as u64,
    );
    result.put(
        "loadgen.slow_window_share",
        latency(&merged, 0.5).slow_share(),
        n,
    );
    put_harness_totals(result);
}
