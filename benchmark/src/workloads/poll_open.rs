//! `poll-open`: open-loop Poisson arrivals over `nproc` non-blocking
//! connections into `serve_poll`. Phase A holds 100 000 events/s. Phase B
//! closes the loop: as many requests stay in flight as the server admits,
//! and the rate it delivers is the workload's throughput. The traced run
//! also ramps the open-loop rate up until the server falls behind for good:
//! where that happens depends on when the box stalls, so it is a diagnostic.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use pdq_core::executor::{build_executor, ExecutorSpec, ExecutorStats};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::{
    reference_aggregate, serve_poll, serve_poll_observed, BatchService, ExecutorService,
    Observability, PollOptions, PollReport, ServerAggregate,
};

use super::{
    check_aggregate, fatal, first_verified_acks, listen, overhead_pct, put_cpu_classes,
    put_cpu_reconciliation, put_harness_totals, put_segments, put_server_layers, sample_windows,
    window_deltas, Plan, SetupTimer, CAPACITY, EXECUTOR,
};
use crate::clock::{now_ns, SECOND};
use crate::cpu::{self, Snapshot};
use crate::layers;
use crate::loadgen::{
    OpenLoop, OpenLoopOutcome, Ramp, RampResult, Saturated, Segment, ShortWindow, Window,
};
use crate::report::RunResult;
use crate::span::{SpanService, SpanTable};
use crate::stats::{percentile, Better, Windows};
use crate::wire::{RequestPool, BLOCKS};

/// Phase A offered load: about 35-40 % of the knee on the sizing box.
pub const PHASE_A_RATE: f64 = 100_000.0;
/// How long phase A records. The rest of the run's seconds go to phase B.
const PHASE_A_NS: u64 = 12 * SECOND;
/// Requests phase B keeps outstanding on each connection: what `serve_poll`
/// admits per connection (`PollOptions::max_pending`), so every one of them
/// is inside the server and none waits in a socket. On the sizing box 64
/// deliver 190 000 events/s, 128 deliver 300 000 and repeat within 3 %; 192
/// and 256 deliver 310 000-370 000, a different rate every run, with the
/// window p95 at or past the ramp's latency limit.
const IN_FLIGHT_PER_CONN: usize = 128;
/// Phase B's windows: short, so that a stall of the box spoils few of them.
const SHORT_WINDOW_NS: u64 = SECOND / 10;
/// Unrecorded lead-in of phase B.
const SATURATED_SETTLE_NS: u64 = SECOND;
/// The latency limit a ramp window must meet at its 95th percentile.
pub const SLO_P95_US: f64 = 2_000.0;
/// A ramp window also misses if the generator itself ran this late at its
/// p95: a quarter of the latency limit (lateness is inside the latency
/// anyway, which runs from the due time).
const LATENESS_LIMIT_US: f64 = 500.0;
/// The ramp offers no more than this; the sizing box's knee is near 300 000.
const RAMP_MAX_RATE: f64 = 800_000.0;
/// The ramp climbs from phase A's rate by this factor a second ...
const RAMP_GROWTH: f64 = 1.4;
/// ... for at most this long: 753 000 events/s by then.
const RAMP_NS: u64 = 6 * SECOND;
/// Events generated per connection; the stream is cycled.
const POOL_EVENTS: usize = 1 << 17;
/// Span chains written to the trace file (all traced requests are analysed).
const TRACE_FILE_REQUESTS: usize = 10_000;

#[derive(Clone, Copy)]
enum Mode<'a> {
    Plain,
    Traced(&'a Arc<SpanTable>),
    Observed,
}

fn ramp() -> Ramp {
    Ramp {
        from_rate: PHASE_A_RATE,
        growth_per_s: RAMP_GROWTH,
        max_rate: RAMP_MAX_RATE,
        window_ns: SHORT_WINDOW_NS,
        give_up_ns: 7 * SECOND / 10,
        slo_p95_us: SLO_P95_US,
        lateness_limit_us: LATENESS_LIMIT_US,
        min_delivered_share: 0.9,
    }
}

/// What a served phase does after its fixed-rate segment.
#[derive(Clone, Copy)]
enum Then {
    Nothing,
    Saturate(Saturated),
    /// One open-loop ramp, for at most this long.
    Ramp(u64),
}

/// Everything one server instance and its generator run produced.
struct Phase {
    outcome: OpenLoopOutcome,
    saturated: Vec<ShortWindow>,
    ramp: Option<RampResult>,
    report: PollReport,
    /// CPU snapshots at the boundaries of the first segment's windows.
    snapshots: Vec<Snapshot>,
    stats: ExecutorStats,
    aggregate: ServerAggregate,
    /// `(prepare_ns, prepares, admit_ns, offered, admitted)` of a traced phase.
    service: Option<[u64; 5]>,
}

impl Phase {
    fn first(&self) -> &[Window] {
        self.outcome.segments.first().map_or(&[], |s| &s.windows)
    }

    fn latency_us(&self, p: f64) -> Windows {
        Windows::new(
            self.first().iter().map(|w| w.latency_us(p)).collect(),
            Better::Lower,
        )
    }

    /// CPU of everything but the harness, per delivered event, per window.
    fn cpu_us_per_event(&self) -> Windows {
        let values = window_deltas(&self.snapshots)
            .iter()
            .zip(self.first())
            .map(|(d, w)| d.system_ns() as f64 / 1e3 / w.delivered.max(1) as f64)
            .collect();
        Windows::new(values, Better::Lower)
    }

    fn delivered(&self) -> u64 {
        self.first().iter().map(|w| w.delivered).sum()
    }
}

/// The reference fold over exactly what each connection sent.
fn reference_for(pools: &[RequestPool], outcome: &OpenLoopOutcome) -> ServerAggregate {
    if outcome.ids.iter().all(Vec::is_empty) {
        let sent = pools
            .iter()
            .zip(&outcome.sent)
            .flat_map(|(pool, &n)| pool.events.iter().cycle().take(n as usize));
        reference_aggregate(sent, BLOCKS)
    } else {
        let sent: Vec<ProtocolEvent> = pools
            .iter()
            .zip(outcome.sent.iter().zip(&outcome.ids))
            .flat_map(|(pool, (&n, ids))| pool.sent_events(n, ids))
            .collect();
        reference_aggregate(sent.iter(), BLOCKS)
    }
}

/// Brings a server up behind a fresh executor, drives `first` and `then`
/// through it, tears it down and verifies the aggregate.
fn serve_phase(
    plan: &Plan,
    pools: &[RequestPool],
    mode: Mode<'_>,
    first: Segment,
    then: Then,
    result: &mut RunResult,
) -> Phase {
    let nproc = pools.len();
    let mut executor = build_executor(EXECUTOR, &ExecutorSpec::new(nproc).capacity(CAPACITY))
        .expect("pdq is registered");
    let (listener, addr) = listen();
    let options = PollOptions::new(nproc, 1);
    let observability = Observability::new();
    // When phase A's first recorded window begins; 0 until the generator knows.
    let measure_start = AtomicU64::new(0);
    let plain = ExecutorService::new(&*executor, BLOCKS);
    let (span, table) = match mode {
        Mode::Traced(table) => (
            Some(SpanService::new(&*executor, BLOCKS, Arc::clone(table))),
            Some(&**table),
        ),
        _ => (None, None),
    };
    let service: &dyn BatchService = match &span {
        Some(span) => span,
        None => &plain,
    };
    let (outcome, saturated, ramp, report, snapshots) = std::thread::scope(|scope| {
        let server = scope.spawn(|| match mode {
            Mode::Observed => {
                serve_poll_observed(&listener, service, &options, Some(&observability))
            }
            _ => serve_poll(&listener, service, &options),
        });
        let measure_start = &measure_start;
        let generator = scope.spawn(move || {
            cpu::register_harness_thread();
            cpu::tighten_timer_slack();
            let mut open = OpenLoop::connect(addr, pools, plan.seed, table)
                .unwrap_or_else(|e| fatal(&format!("connect: {e}")));
            let mut saturated = Vec::new();
            let mut ramped = None;
            let mut error = open
                .run_segment(first, |m0| measure_start.store(m0, Relaxed))
                .err();
            if error.is_none() {
                error = match then {
                    Then::Nothing => None,
                    Then::Saturate(sat) => open.run_saturated(sat).map(|w| saturated = w).err(),
                    Then::Ramp(budget_ns) => open
                        .run_ramp(ramp(), now_ns() + budget_ns)
                        .map(|r| ramped = Some(r))
                        .err(),
                };
            }
            (open.finish(error), saturated, ramped)
        });
        while measure_start.load(Relaxed) == 0 && !generator.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snapshots = match measure_start.load(Relaxed) {
            0 => Vec::new(),
            m0 => sample_windows(m0, first.windows, plan.window_ns),
        };
        let (outcome, saturated, ramp) = generator.join().expect("generator thread");
        let report = server
            .join()
            .expect("server thread")
            .unwrap_or_else(|e| fatal(&format!("serve_poll failed: {e}")));
        (outcome, saturated, ramp, report, snapshots)
    });
    service.flush();
    let aggregate = service.aggregate(report.completed);
    let service_counters = span.as_ref().map(|span| {
        let c = &span.counters;
        [
            c.prepare_ns.load(Relaxed),
            c.prepares.load(Relaxed),
            c.admit_ns.load(Relaxed),
            c.offered.load(Relaxed),
            c.admitted.load(Relaxed),
        ]
    });
    let stats = executor.stats();
    executor.shutdown();

    result.attempted += outcome.attempted;
    result.failed += outcome.failed;
    if let Some(error) = &outcome.error {
        result
            .problems
            .push(format!("generator stopped early: {error}"));
    }
    result.check(report.failed == 0, || {
        format!("{} connections torn down", report.failed)
    });
    let sent: u64 = outcome.sent.iter().sum();
    result.check(report.completed == sent, || {
        format!("server completed {} of {sent} requests", report.completed)
    });
    check_aggregate(
        result,
        "poll tier",
        &aggregate,
        &reference_for(pools, &outcome),
    );
    Phase {
        outcome,
        saturated,
        ramp,
        report,
        snapshots,
        stats,
        aggregate,
        service: service_counters,
    }
}

/// One cold set-up: executor, service, listener, poll tier, `nproc`
/// connections, and the first verified ack on each. Returns when that was.
fn setup_cycle(pools: &[RequestPool], result: &mut RunResult) -> u64 {
    let nproc = pools.len();
    let mut executor = build_executor(EXECUTOR, &ExecutorSpec::new(nproc).capacity(CAPACITY))
        .expect("pdq is registered");
    let ready = {
        let service = ExecutorService::new(&*executor, BLOCKS);
        let (listener, addr) = listen();
        let options = PollOptions::new(nproc, 1);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_poll(&listener, &service, &options));
            let streams = first_verified_acks(addr, pools, &[], result);
            let ready = now_ns();
            drop(streams);
            let report = server.join().expect("server thread");
            result.check(report.is_ok(), || {
                format!("set-up cycle: serve_poll failed: {report:?}")
            });
            ready
        })
    };
    executor.shutdown();
    ready
}

pub fn run(plan: &Plan) -> RunResult {
    let nproc = cpu::nproc();
    let fingerprint = cpu::fingerprint(EXECUTOR, "poll", nproc, plan.seed);
    let mut result = RunResult::new("poll-open", plan.seed, plan.traced, fingerprint);

    let t0 = now_ns();
    let pools: Vec<RequestPool> = (0..nproc as u64)
        .map(|client| RequestPool::generate(plan.seed, client, POOL_EVENTS))
        .collect();
    let generate_ns = (now_ns() - t0) as f64 / (nproc * POOL_EVENTS) as f64;

    if plan.traced {
        run_traced(plan, &pools, generate_ns, &mut result);
    } else {
        run_untraced(plan, &pools, &mut result);
    }
    result
}

/// Cycles timed as one `setup_s` sample: a cycle is well under a
/// millisecond, most of it thread starts and wake-ups.
const SETUP_GROUP: usize = 8;

fn run_untraced(plan: &Plan, pools: &[RequestPool], result: &mut RunResult) {
    let mut setup = SetupTimer::new(SETUP_GROUP);
    setup.run(plan.setup_groups / 2, || setup_cycle(pools, result));

    let windows = if plan.smoke {
        3
    } else {
        (PHASE_A_NS / plan.window_ns) as usize
    };
    let phase_a = Segment {
        rate: PHASE_A_RATE,
        settle_ns: plan.warm_ns,
        windows,
        window_ns: plan.window_ns,
    };
    let saturated_ns = if plan.smoke {
        2 * SECOND
    } else {
        (plan.seconds * SECOND)
            .saturating_sub(plan.warm_ns + windows as u64 * plan.window_ns + SATURATED_SETTLE_NS)
    };
    let phase_b = Saturated {
        in_flight: IN_FLIGHT_PER_CONN,
        settle_ns: SATURATED_SETTLE_NS.min(saturated_ns),
        windows: (saturated_ns / SHORT_WINDOW_NS).max(1) as usize,
        window_ns: SHORT_WINDOW_NS,
    };
    let phase = serve_phase(
        plan,
        pools,
        Mode::Plain,
        phase_a,
        Then::Saturate(phase_b),
        result,
    );
    setup.run(plan.setup_groups / 2, || setup_cycle(pools, result));
    setup.put(result);
    let n = phase.first().len() as u64;
    let mut all: Vec<u64> = phase
        .first()
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    all.sort_unstable();
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p95_us", 0.95)] {
        let per_window = phase.latency_us(p);
        let whole = percentile(&all, p) as f64 / 1e3;
        // A stall anywhere in a window moves its percentiles far more than
        // its event count or its CPU time, so more windows are spoilt for a
        // latency than for a rate or a cost: the best decile, not the
        // quartile.
        result.put_full(
            name,
            per_window.best_decile(),
            Some(per_window.median()),
            Some(whole),
            n,
        );
    }
    let cpu = phase.cpu_us_per_event();
    let cpu_whole = phase
        .snapshots
        .last()
        .zip(phase.snapshots.first())
        .map(|(last, first)| {
            last.since(first).system_ns() as f64 / 1e3 / phase.delivered().max(1) as f64
        });
    result.put_full(
        "cpu_us_per_event",
        cpu.gated(),
        Some(cpu.median()),
        cpu_whole,
        n,
    );

    let rates = Windows::new(
        phase.saturated.iter().map(|w| w.rate).collect(),
        Better::Higher,
    );
    let delivered: u64 = phase.saturated.iter().map(|w| w.delivered).sum();
    let saturated_ns = phase.saturated.len() as u64 * SHORT_WINDOW_NS;
    // 150 short windows, not a dozen long ones: the best decile still has
    // fifteen windows beyond it, and holds where the box is disturbed for more
    // than a quarter of the run.
    result.put_full(
        "throughput_eps",
        rates.best_decile(),
        Some(rates.median()),
        Some(delivered as f64 * 1e9 / saturated_ns.max(1) as f64),
        rates.values.len() as u64,
    );
    let per_second: Vec<f64> = rates
        .values
        .chunks((SECOND / SHORT_WINDOW_NS) as usize)
        .map(|second| crate::stats::median(second) / 1e3)
        .collect();
    result.notes.push(format!(
        "phase B per-second median rate, k ev/s: {per_second:.0?}"
    ));
    let mut p95s: Vec<f64> = phase.saturated.iter().map(|w| w.p95_us).collect();
    p95s.sort_by(f64::total_cmp);
    result.notes.push(format!(
        "phase B: {IN_FLIGHT_PER_CONN} in flight per connection, {} windows of {} ms, slow-window share {:.3}; window p95 us min/median/max {:.0} / {:.0} / {:.0}",
        phase.saturated.len(),
        SHORT_WINDOW_NS / 1_000_000,
        rates.slow_share(),
        p95s.first().copied().unwrap_or(0.0),
        p95s.get(p95s.len() / 2).copied().unwrap_or(0.0),
        p95s.last().copied().unwrap_or(0.0),
    ));
    result.notes.push(format!(
        "phase A: {} windows at {PHASE_A_RATE} ev/s, slow-window share {:.3}, p99 {:.0} us, lateness p95 {:.0} us",
        n,
        phase.latency_us(0.5).slow_share(),
        percentile(&all, 0.99) as f64 / 1e3,
        Windows::new(phase.first().iter().map(|w| w.lateness_us(0.95)).collect(), Better::Lower).median(),
    ));
    result.notes.push(format!(
        "per-window p50 us: {:.0?}; p95 us: {:.0?}; cpu us/event: {:.2?}; lateness p95 us: {:.0?}",
        phase.latency_us(0.5).values,
        phase.latency_us(0.95).values,
        cpu.values,
        phase
            .first()
            .iter()
            .map(|w| w.lateness_us(0.95))
            .collect::<Vec<_>>(),
    ));
    result.notes.push(format!(
        "server: {} events in {} batches, {} suspensions; final aggregate events {}",
        phase.report.events, phase.report.batches, phase.report.suspensions, phase.aggregate.events
    ));
}

fn run_traced(plan: &Plan, pools: &[RequestPool], generate_ns: f64, result: &mut RunResult) {
    // Three served phases share the measured seconds: untraced, traced
    // (SpanService), observed (Observability attached, plain service).
    // The untraced phase ends with the open-loop ramp.
    let plain_windows = plan.windows(0.2);
    let traced_windows = plan.windows(0.3);
    let observed_windows = plan.windows(0.2);
    let segment = |windows| Segment {
        rate: PHASE_A_RATE,
        settle_ns: plan.warm_ns / 2,
        windows,
        window_ns: plan.window_ns,
    };

    let plain = serve_phase(
        plan,
        pools,
        Mode::Plain,
        segment(plain_windows),
        Then::Ramp(if plan.smoke { 2 * SECOND } else { RAMP_NS }),
        result,
    );
    let capacity = (PHASE_A_RATE * 0.6 * (plan.window_secs(traced_windows) + 1.5)) as usize;
    let table = SpanTable::new(capacity);
    let traced = serve_phase(
        plan,
        pools,
        Mode::Traced(&table),
        segment(traced_windows),
        Then::Nothing,
        result,
    );
    let observed = serve_phase(
        plan,
        pools,
        Mode::Observed,
        segment(observed_windows),
        Then::Nothing,
        result,
    );

    // server + executor + handler segments from the span chains
    put_segments(result, &table);
    put_cpu_reconciliation(result, &traced.snapshots);
    let trace_path = std::path::Path::new("benchmark/results/trace-poll-open.jsonl");
    match table.write_jsonl(trace_path, TRACE_FILE_REQUESTS) {
        Ok(n) => result
            .notes
            .push(format!("{n} span chains in {}", trace_path.display())),
        Err(e) => result
            .problems
            .push(format!("writing {}: {e}", trace_path.display())),
    }

    let n = traced.first().len() as u64;
    let report = &traced.report;
    result.put(
        "server.events_per_batch",
        report.events as f64 / report.batches.max(1) as f64,
        report.batches,
    );
    result.put(
        "server.suspensions_per_kevent",
        report.suspensions as f64 * 1e3 / report.events.max(1) as f64,
        report.events,
    );
    result.put(
        "server.failed_conns",
        report.failed as f64,
        report.connections,
    );
    let delivered: Vec<u64> = traced.first().iter().map(|w| w.delivered).collect();
    put_cpu_classes(result, &traced.snapshots, &delivered);

    if let Some([prepare_ns, prepares, admit_ns, offered, admitted]) = traced.service {
        result.put(
            "service.prepare_ns",
            prepare_ns as f64 / prepares.max(1) as f64,
            prepares,
        );
        result.put(
            "service.admit_ns_per_event",
            admit_ns as f64 / admitted.max(1) as f64,
            admitted,
        );
        result.put(
            "service.admit_refused_share",
            (offered - admitted) as f64 / offered.max(1) as f64,
            offered,
        );
    }
    let executed = traced.stats.executed.max(1) as f64;
    result.put(
        "executor.spurious_wakeups_per_kevent",
        traced.stats.spurious_wakeups as f64 * 1e3 / executed,
        traced.stats.executed,
    );
    result.put(
        "executor.spin_iters_per_event",
        traced.stats.spin_iterations as f64 / executed,
        traced.stats.executed,
    );
    result.put(
        "executor.ring_submit_share",
        traced.stats.ring_submits as f64 / executed,
        traced.stats.executed,
    );
    result.put(
        "executor.stolen_per_kevent",
        traced.stats.stolen as f64 * 1e3 / executed,
        traced.stats.executed,
    );

    // isolated calls on this workload's own inputs
    let budget = if plan.smoke { SECOND / 50 } else { SECOND / 8 };
    let isolated_prepare_ns = put_server_layers(result, &pools[0], pools.len(), budget);
    result.notes.push(format!(
        "isolated ExecutorService::prepare: {isolated_prepare_ns:.1} ns"
    ));
    result.put(
        "protocol_server.generate_ns_per_event",
        generate_ns,
        (pools.len() * POOL_EVENTS) as u64,
    );
    result.put(
        "metrics.histogram_record_ns",
        layers::histogram_record_ns(budget),
        100_000,
    );

    // tracing and observability overheads: the same phase three ways
    let p50 = |phase: &Phase| phase.latency_us(0.5).gated();
    let cpu = |phase: &Phase| phase.cpu_us_per_event().gated();
    result.put(
        "harness.trace_overhead_pct",
        overhead_pct(p50(&traced), p50(&plain)),
        n,
    );
    result.put(
        "harness.trace_overhead_cpu_pct",
        overhead_pct(cpu(&traced), cpu(&plain)),
        n,
    );
    result.put(
        "metrics.observed_cpu_overhead_pct",
        overhead_pct(cpu(&observed), cpu(&plain)),
        observed.first().len() as u64,
    );
    result.notes.push(format!(
        "latency p50 us untraced/traced/observed: {:.1} / {:.1} / {:.1}; cpu us/event: {:.3} / {:.3} / {:.3}",
        p50(&plain), p50(&traced), p50(&observed), cpu(&plain), cpu(&traced), cpu(&observed)
    ));

    // generator validity over the traced phase
    let mut latencies: Vec<u64> = traced
        .first()
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let mut lateness: Vec<u64> = traced
        .first()
        .iter()
        .flat_map(|w| w.lateness_ns.iter().copied())
        .collect();
    lateness.sort_unstable();
    let samples = latencies.len() as u64;
    result.put(
        "loadgen.latency_p99_us",
        percentile(&latencies, 0.99) as f64 / 1e3,
        samples,
    );
    result.put(
        "loadgen.latency_p999_us",
        percentile(&latencies, 0.999) as f64 / 1e3,
        samples,
    );
    result.put(
        "loadgen.lateness_p95_us",
        percentile(&lateness, 0.95) as f64 / 1e3,
        lateness.len() as u64,
    );
    result.put(
        "loadgen.lateness_p99_us",
        percentile(&lateness, 0.99) as f64 / 1e3,
        lateness.len() as u64,
    );
    result.put(
        "loadgen.slow_window_share",
        traced.latency_us(0.5).slow_share(),
        n,
    );
    if let Some(r) = &plain.ramp {
        let last_pass = r.windows.iter().rev().find(|w| w.passes(&r.ramp));
        if let Some(knee) = r.knee() {
            result.put(
                "loadgen.max_rate_under_slo_eps",
                knee,
                r.windows.len() as u64,
            );
        }
        result.notes.push(format!(
            "open-loop ramp from {:.0} ev/s x{}/s: {} windows, last passing one at {:.0} ev/s (p95 {:.0} us, lateness p95 {:.0} us) -> knee {}",
            r.ramp.from_rate,
            r.ramp.growth_per_s,
            r.windows.len(),
            last_pass.map_or(0.0, |w| w.rate),
            last_pass.map_or(0.0, |w| w.p95_us),
            last_pass.map_or(0.0, |w| w.lateness_p95_us),
            r.knee().map_or_else(|| "not reached".to_string(), |k| format!("{k:.0} ev/s")),
        ));
    }
    put_harness_totals(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ramp whose windows have the given p95s.
    fn ramp_with(p95s_us: &[f64]) -> RampResult {
        let ramp = ramp();
        let windows = p95s_us
            .iter()
            .enumerate()
            .map(|(k, &p95_us)| ShortWindow {
                rate: ramp.rate_at(k as u64 * ramp.window_ns),
                p95_us,
                lateness_p95_us: 100.0,
                offered: 10_000,
                delivered: 10_000,
            })
            .collect();
        RampResult { ramp, windows }
    }

    #[test]
    fn the_knee_is_where_the_last_run_of_misses_began() {
        let ok = 900.0;
        let miss = 5_000.0;
        // A stall at windows 3-4 drains again; the backlog from window 10 on
        // never does, and seven misses on end finish the ramp.
        let mut p95s = vec![ok; 17];
        (p95s[3], p95s[4]) = (miss, miss);
        p95s[10..].fill(miss);
        let r = ramp_with(&p95s);
        let knee = r.knee().unwrap();
        assert_eq!(knee, r.windows[10].rate);
        assert!((knee / PHASE_A_RATE - RAMP_GROWTH.powf(1.0)).abs() < 1e-9);
        // Cut short after three misses: no verdict.
        assert_eq!(ramp_with(&p95s[..13]).knee(), None);
        // Nothing ever passed.
        assert_eq!(ramp_with(&[miss; 9]).knee(), None);
        // A window with no acks at all misses, whatever its (absent) latency.
        let mut wedged = ramp_with(&[ok; 12]);
        for w in &mut wedged.windows[5..] {
            w.delivered = 0;
        }
        assert_eq!(wedged.knee(), Some(wedged.windows[5].rate));
        // Passing all the way to the rate cap reads as the cap.
        let long = ramp_with(&[ok; 90]);
        assert!(long.windows.last().unwrap().rate >= RAMP_MAX_RATE);
        assert_eq!(long.knee(), Some(RAMP_MAX_RATE));
    }
}
