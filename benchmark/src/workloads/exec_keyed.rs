//! `exec-keyed`: no sockets. One submitter thread feeds `submit_batch` (64
//! jobs a batch) with 1024 Zipf(0.99) keys, 10 % `NoSync` and 1 %
//! `Sequential`; each handler does 64 rounds of integer mixing and a
//! *non-atomic* read-modify-write of its key's cell, so two handlers of one
//! key running together lose an update and the checked sums come out wrong.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use pdq_core::executor::{
    build_executor, Executor, ExecutorExt, ExecutorSpec, ExecutorStats, SubmitBatch, EXECUTOR_NAMES,
};
use pdq_core::SyncKey;

use super::{
    overhead_pct, put_cpu_reconciliation, put_harness_totals, put_queue, sample_windows,
    window_deltas, Plan, SetupTimer, CAPACITY, EXECUTOR,
};
use crate::clock::{now_ns, SECOND};
use crate::cpu::{self, Snapshot};
use crate::layers;
use crate::report::RunResult;
use crate::stats::{percentile, Better, Rng, Windows, Zipf};

const KEYS: usize = 1024;
const ZIPF_S: f64 = 0.99;
const BATCH: usize = 64;
const NOSYNC_PER_MILLE: u64 = 100;
const SEQUENTIAL_PER_MILLE: u64 = 10;
const MIX_ROUNDS: u32 = 64;
/// Jobs generated from the seed; the stream is cycled.
const POOL_JOBS: usize = 1 << 16;
/// Room for latency samples (one job in 64 is stamped untraced, every job
/// traced).
const SAMPLE_SLOTS: usize = 1 << 22;
/// Cycles timed as one `setup_s` sample; a cycle is a fraction of a
/// millisecond.
const SETUP_GROUP: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Keyed(u16),
    NoSync,
    Sequential,
}

/// One job of the stream: what it synchronises on and the value it mixes.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    kind: Kind,
    value: u64,
}

impl JobSpec {
    fn key(&self) -> SyncKey {
        match self.kind {
            Kind::Keyed(k) => SyncKey::key(u64::from(k)),
            Kind::NoSync => SyncKey::NoSync,
            Kind::Sequential => SyncKey::Sequential,
        }
    }
}

/// 64 dependent multiply-xor-shift rounds.
fn mix(mut x: u64) -> u64 {
    for _ in 0..MIX_ROUNDS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    x
}

fn generate_jobs(seed: u64, nosync_only: bool) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 0xe8ec);
    let zipf = Zipf::new(KEYS, ZIPF_S);
    // Ranks are shuffled onto keys so the hot keys differ per seed.
    let mut key_of_rank: Vec<u16> = (0..KEYS as u16).collect();
    rng.shuffle(&mut key_of_rank);
    (0..POOL_JOBS)
        .map(|_| {
            let draw = rng.next_below(1000);
            let kind = if nosync_only || draw < NOSYNC_PER_MILLE {
                Kind::NoSync
            } else if draw < NOSYNC_PER_MILLE + SEQUENTIAL_PER_MILLE {
                Kind::Sequential
            } else {
                Kind::Keyed(key_of_rank[zipf.sample(&mut rng)])
            };
            JobSpec {
                kind,
                value: rng.next_u64(),
            }
        })
        .collect()
}

/// What the handlers write; every field is checked after the run.
struct State {
    cells: Vec<AtomicU64>,
    nosync_sum: AtomicU64,
    sequential_cell: AtomicU64,
    /// `(submit, start, end)` of stamped jobs.
    samples: Vec<[AtomicU64; 3]>,
    next_sample: AtomicUsize,
}

impl State {
    fn new(sample_slots: usize) -> Self {
        Self {
            cells: (0..KEYS).map(|_| AtomicU64::new(0)).collect(),
            nosync_sum: AtomicU64::new(0),
            sequential_cell: AtomicU64::new(0),
            samples: (0..sample_slots).map(|_| Default::default()).collect(),
            next_sample: AtomicUsize::new(0),
        }
    }

    /// Load, add, store: deliberately not one atomic operation.
    fn racy_add(cell: &AtomicU64, x: u64) {
        cell.store(cell.load(Relaxed).wrapping_add(x), Relaxed);
    }

    /// The handler body. `stamp` is the batch's submit time for a sampled
    /// job and `0` otherwise.
    fn handle(&self, spec: JobSpec, stamp: u64) {
        let start = if stamp != 0 { now_ns() } else { 0 };
        let x = mix(spec.value);
        match spec.kind {
            Kind::Keyed(k) => Self::racy_add(&self.cells[usize::from(k)], x),
            Kind::NoSync => {
                self.nosync_sum.fetch_add(x, Relaxed);
            }
            // Only other `Sequential` jobs touch this cell: the baseline
            // executors serialise `Sequential` as one global key, not against
            // keyed handlers, so a key cell here would race by design.
            Kind::Sequential => Self::racy_add(&self.sequential_cell, x),
        }
        if stamp != 0 {
            let end = now_ns();
            if let Some(slot) = self.samples.get(self.next_sample.fetch_add(1, Relaxed)) {
                slot[0].store(stamp, Relaxed);
                slot[1].store(start, Relaxed);
                slot[2].store(end, Relaxed);
            }
        }
    }

    /// How many checked sums differ from the sequential reference over the
    /// first `submitted` jobs of the cycled stream.
    fn mismatches(&self, jobs: &[JobSpec], submitted: u64) -> u64 {
        let mut cells = vec![0u64; KEYS];
        let (mut nosync, mut sequential) = (0u64, 0u64);
        let (cycles, rest) = (
            submitted / jobs.len() as u64,
            (submitted % jobs.len() as u64) as usize,
        );
        for (i, job) in jobs.iter().enumerate() {
            let times = cycles + u64::from(i < rest);
            let x = mix(job.value).wrapping_mul(times);
            match job.kind {
                Kind::Keyed(k) => cells[usize::from(k)] = cells[usize::from(k)].wrapping_add(x),
                Kind::NoSync => nosync = nosync.wrapping_add(x),
                Kind::Sequential => sequential = sequential.wrapping_add(x),
            }
        }
        let wrong_cells = cells
            .iter()
            .zip(&self.cells)
            .filter(|(want, got)| **want != got.load(Relaxed))
            .count() as u64;
        wrong_cells
            + u64::from(nosync != self.nosync_sum.load(Relaxed))
            + u64::from(sequential != self.sequential_cell.load(Relaxed))
    }
}

/// One timed drive of an executor with the job stream.
struct Drive {
    /// Jobs submitted in each recorded window.
    submitted: Vec<u64>,
    snapshots: Vec<Snapshot>,
    /// `(submit, start, end)` of the stamped jobs that ended in a window.
    samples: Vec<[u64; 3]>,
    /// Time inside `submit_batch`, and the jobs it covered.
    submit_ns: u64,
    total: u64,
    stats: ExecutorStats,
    measure_start_ns: u64,
}

impl Drive {
    fn jobs_in_windows(&self) -> u64 {
        self.submitted.iter().sum()
    }

    fn throughput(&self, window_ns: u64) -> Windows {
        let secs = window_ns as f64 / 1e9;
        Windows::new(
            self.submitted.iter().map(|&n| n as f64 / secs).collect(),
            Better::Higher,
        )
    }

    fn cpu_us_per_job(&self) -> Windows {
        let values = window_deltas(&self.snapshots)
            .iter()
            .zip(&self.submitted)
            .map(|(d, &n)| d.system_ns() as f64 / 1e3 / n.max(1) as f64)
            .collect();
        Windows::new(values, Better::Lower)
    }

    /// Submit-to-end latency percentile per window, in microseconds.
    fn latency_us(&self, p: f64, windows: usize, window_ns: u64) -> Windows {
        let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for [submit, _, end] in &self.samples {
            let index = (end.saturating_sub(self.measure_start_ns) / window_ns) as usize;
            if *end >= self.measure_start_ns && index < windows {
                per_window[index].push(end - submit);
            }
        }
        let values = per_window
            .iter_mut()
            .map(|w| {
                w.sort_unstable();
                percentile(w, p) as f64 / 1e3
            })
            .collect();
        Windows::new(values, Better::Lower)
    }
}

/// Drives `executor` with the cycled job stream for a lead-in plus `windows`
/// windows from a submitter thread, stamping one job in `sample_every`, then
/// flushes and checks every sum. The calling thread samples CPU.
#[allow(clippy::too_many_arguments)]
fn drive(
    executor: &dyn Executor,
    jobs: &[JobSpec],
    sample_every: usize,
    warm_ns: u64,
    windows: usize,
    window_ns: u64,
    result: &mut RunResult,
) -> Drive {
    // Handlers outlive any borrow the executor would accept, so the state
    // is leaked; a run makes a handful of these.
    let slots = if sample_every == 1 {
        SAMPLE_SLOTS
    } else {
        SAMPLE_SLOTS / 16
    };
    let state: &'static State = Box::leak(Box::new(State::new(slots)));
    let measure_start_ns = now_ns() + warm_ns;
    let end = measure_start_ns + windows as u64 * window_ns;
    let (submitted, submit_ns, total, snapshots) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut submitted = vec![0u64; windows];
            let (mut submit_ns, mut total, mut cursor, mut batches) = (0u64, 0u64, 0usize, 0usize);
            let mut batch = SubmitBatch::with_capacity(BATCH);
            loop {
                let now = now_ns();
                if now >= end {
                    break;
                }
                for i in 0..BATCH {
                    let spec = jobs[cursor % jobs.len()];
                    cursor += 1;
                    let sampled = sample_every == 1 || (batches + i) % sample_every == 0;
                    let stamp = if sampled { now } else { 0 };
                    batch.push(spec.key(), Box::new(move || state.handle(spec, stamp)));
                }
                batches += 1;
                let t0 = now_ns();
                let admitted = executor.submit_batch(&mut batch);
                submit_ns += now_ns() - t0;
                if admitted.is_err() {
                    break;
                }
                total += BATCH as u64;
                if let Some(slot) = now
                    .checked_sub(measure_start_ns)
                    .and_then(|d| submitted.get_mut((d / window_ns) as usize))
                {
                    *slot += BATCH as u64;
                }
            }
            executor.flush();
            (submitted, submit_ns, total)
        });
        let snapshots = sample_windows(measure_start_ns, windows, window_ns);
        let (submitted, submit_ns, total) = submitter.join().expect("submitter thread");
        (submitted, submit_ns, total, snapshots)
    });
    result.attempted += total;
    let wrong = state.mismatches(jobs, total);
    result.failed += wrong;
    result.check(wrong == 0, || {
        format!(
            "{}: {wrong} checked sums differ from the sequential reference",
            executor.name()
        )
    });
    let taken = state.next_sample.load(Relaxed).min(state.samples.len());
    let samples = state.samples[..taken]
        .iter()
        .map(|s| [s[0].load(Relaxed), s[1].load(Relaxed), s[2].load(Relaxed)])
        .collect();
    Drive {
        submitted,
        snapshots,
        samples,
        submit_ns,
        total,
        stats: executor.stats(),
        measure_start_ns,
    }
}

fn build(name: &str, spec: ExecutorSpec) -> Box<dyn Executor> {
    build_executor(name, &spec).expect("a registry name")
}

pub fn run(plan: &Plan) -> RunResult {
    // One-second windows: the executor changes regime within a second, and
    // shorter windows would each sit in one regime or the other.
    let plan = &plan.with_windows_of(SECOND);
    let nproc = cpu::nproc();
    let fingerprint = cpu::fingerprint(EXECUTOR, "none", nproc, plan.seed);
    let mut result = RunResult::new("exec-keyed", plan.seed, plan.traced, fingerprint);
    let jobs = generate_jobs(plan.seed, false);
    let spec = ExecutorSpec::new(nproc).capacity(CAPACITY);
    if plan.traced {
        run_traced(plan, &jobs, spec, &mut result);
        return result;
    }

    // Set-up: executor and workers, state, first verified job.
    let setup_cycle = |result: &mut RunResult| {
        let mut executor = build(EXECUTOR, spec);
        let state = std::sync::Arc::new(State::new(0));
        let (first, handler_state) = (jobs[0], std::sync::Arc::clone(&state));
        executor.submit_keyed(7, move || handler_state.handle(first, 0));
        executor.flush();
        let ready = now_ns();
        result.attempted += 1;
        result.failed += state.mismatches(&jobs[..1], 1);
        executor.shutdown();
        ready
    };
    let mut setup = SetupTimer::new(SETUP_GROUP);
    setup.run(plan.setup_groups / 2, || setup_cycle(&mut result));

    let windows = plan.windows(1.0);
    let mut executor = build(EXECUTOR, spec);
    let d = drive(
        &*executor,
        &jobs,
        BATCH,
        plan.warm_ns,
        windows,
        plan.window_ns,
        &mut result,
    );
    executor.shutdown();
    setup.run(plan.setup_groups / 2, || setup_cycle(&mut result));
    setup.put(&mut result);
    let n = windows as u64;
    let whole_secs = windows as f64 * plan.window_ns as f64 / 1e9;
    let throughput = d.throughput(plan.window_ns);
    // Gated on the median window, not a quartile: these windows vary on both
    // sides, not only toward worse. The executor itself alternates between
    // faster and slower regimes, so a quartile lands on whichever regime
    // happened to fill a quarter of the run.
    result.put_full(
        "throughput_eps",
        throughput.median(),
        Some(throughput.median()),
        Some(d.jobs_in_windows() as f64 / whole_secs),
        n,
    );
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p95_us", 0.95)] {
        let w = d.latency_us(p, windows, plan.window_ns);
        result.put_full(
            name,
            w.median(),
            Some(w.median()),
            None,
            d.samples.len() as u64,
        );
    }
    let cpu = d.cpu_us_per_job();
    result.put_full(
        "cpu_us_per_event",
        cpu.median(),
        Some(cpu.median()),
        None,
        n,
    );
    result.notes.push(format!(
        "per-window jobs/s: {:?}; cpu us/job: {:.2?}; p50 us: {:.0?}; p95 us: {:.0?}",
        throughput.values,
        cpu.values,
        d.latency_us(0.5, windows, plan.window_ns).values,
        d.latency_us(0.95, windows, plan.window_ns).values
    ));
    result.notes.push(format!(
        "{} jobs, {} stamped; submit_batch {:.0} ns/job; slow-window share {:.3}; executor: {}",
        d.total,
        d.samples.len(),
        d.submit_ns as f64 / d.total.max(1) as f64,
        throughput.slow_share(),
        d.stats
    ));
    result
}

fn run_traced(plan: &Plan, jobs: &[JobSpec], spec: ExecutorSpec, result: &mut RunResult) {
    let warm = plan.warm_ns / 2;
    let windows = plan.windows(0.2);
    let run_on = |name: &str,
                  spec: ExecutorSpec,
                  jobs: &[JobSpec],
                  every,
                  windows,
                  result: &mut RunResult| {
        let mut executor = build(name, spec);
        let warm = if windows == 1 { warm / 2 } else { warm };
        let d = drive(
            &*executor,
            jobs,
            every,
            warm,
            windows,
            plan.window_ns,
            result,
        );
        executor.shutdown();
        d
    };

    // The gated configuration, sampled as the untraced run samples it and
    // then with every job stamped.
    let plain = run_on(EXECUTOR, spec, jobs, BATCH, windows, result);
    let traced = run_on(EXECUTOR, spec, jobs, 1, windows, result);
    put_cpu_reconciliation(result, &traced.snapshots);
    let n = windows as u64;

    // Admission is the return of the `submit_batch` that carried the job;
    // from outside, the closest stamp is the batch's submit time, so the
    // wait below includes the admission itself.
    let mut waits: Vec<u64> = traced
        .samples
        .iter()
        .map(|[submit, start, _]| start.saturating_sub(*submit))
        .collect();
    waits.sort_unstable();
    let mut runs: Vec<u64> = traced
        .samples
        .iter()
        .map(|[_, start, end]| end - start)
        .collect();
    runs.sort_unstable();
    let stamped = runs.len() as u64;
    result.put(
        "executor.queue_wait_us_p50",
        percentile(&waits, 0.5) as f64 / 1e3,
        stamped,
    );
    result.put(
        "executor.queue_wait_us_p95",
        percentile(&waits, 0.95) as f64 / 1e3,
        stamped,
    );
    result.put("handler.run_ns_p50", percentile(&runs, 0.5) as f64, stamped);
    result.put(
        "handler.run_ns_p95",
        percentile(&runs, 0.95) as f64,
        stamped,
    );
    result.put(
        "executor.submit_batch_ns_per_job",
        plain.submit_ns as f64 / plain.total.max(1) as f64,
        plain.total,
    );
    let deltas = window_deltas(&plain.snapshots);
    let worker_cpu = Windows::new(
        deltas
            .iter()
            .zip(&plain.submitted)
            .map(|(d, &jobs)| d.executor_ns as f64 / 1e3 / jobs.max(1) as f64)
            .collect(),
        Better::Lower,
    );
    result.put("executor.worker_cpu_us_per_event", worker_cpu.median(), n);
    let executed = plain.stats.executed.max(1) as f64;
    result.put(
        "executor.spurious_wakeups_per_kevent",
        plain.stats.spurious_wakeups as f64 * 1e3 / executed,
        plain.stats.executed,
    );
    result.put(
        "executor.spin_iters_per_event",
        plain.stats.spin_iterations as f64 / executed,
        plain.stats.executed,
    );
    result.put(
        "executor.ring_submit_share",
        plain.stats.ring_submits as f64 / executed,
        plain.stats.executed,
    );
    result.put(
        "executor.stolen_per_kevent",
        plain.stats.stolen as f64 * 1e3 / executed,
        plain.stats.executed,
    );
    let rate = |d: &Drive| d.throughput(plan.window_ns).median();
    // A lower rate is the overhead here, so the ratio is inverted.
    result.put(
        "harness.trace_overhead_pct",
        overhead_pct(rate(&plain), rate(&traced)),
        n,
    );
    result.put(
        "harness.trace_overhead_cpu_pct",
        overhead_pct(
            traced.cpu_us_per_job().median(),
            plain.cpu_us_per_job().median(),
        ),
        n,
    );
    result.put(
        "loadgen.slow_window_share",
        plain.throughput(plan.window_ns).slow_share(),
        n,
    );

    // Every registry executor on the same stream, then the ring both ways
    // on a NoSync-only stream.
    let short = 1;
    for name in EXECUTOR_NAMES {
        let d = run_on(name, spec, jobs, BATCH, short, result);
        result.put(
            &format!("executor.{name}.jobs_per_s"),
            rate(&d),
            short as u64,
        );
        result.put(
            &format!("executor.{name}.cpu_us_per_job"),
            d.cpu_us_per_job().median(),
            short as u64,
        );
    }
    let nosync = generate_jobs(plan.seed, true);
    for (label, ring) in [("ring_on", true), ("ring_off", false)] {
        let d = run_on(EXECUTOR, spec.ring(ring), &nosync, BATCH, short, result);
        result.put(
            &format!("executor.pdq.{label}.nosync_jobs_per_s"),
            rate(&d),
            short as u64,
        );
    }

    let keys: Vec<SyncKey> = jobs.iter().map(JobSpec::key).collect();
    let budget = if plan.smoke { SECOND / 50 } else { SECOND / 4 };
    put_queue(result, &layers::queue(&keys, spec.workers, budget));
    let values: Vec<u64> = jobs.iter().map(|j| j.value).collect();
    let isolated = layers::ns_per_op(budget / 2, values.len(), || {
        for v in &values {
            std::hint::black_box(mix(std::hint::black_box(*v)));
        }
    });
    result.put("handler.isolated_ns", isolated, values.len() as u64);
    put_harness_totals(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn the_job_stream_is_seeded_and_mixed_as_specified() {
        let jobs = generate_jobs(9, false);
        let again = generate_jobs(9, false);
        assert!(jobs
            .iter()
            .zip(&again)
            .all(|(a, b)| a.kind == b.kind && a.value == b.value));
        let count = |pred: fn(&JobSpec) -> bool| {
            jobs.iter().filter(|j| pred(j)).count() as f64 / jobs.len() as f64
        };
        assert!((count(|j| j.kind == Kind::NoSync) - 0.10).abs() < 0.01);
        assert!((count(|j| j.kind == Kind::Sequential) - 0.01).abs() < 0.004);
        assert!(generate_jobs(9, true)
            .iter()
            .all(|j| j.kind == Kind::NoSync));
        assert_ne!(mix(1), mix(2));
    }

    #[test]
    fn a_short_drive_verifies_on_every_executor_and_a_lost_update_is_caught() {
        let jobs = generate_jobs(4, false);
        for name in EXECUTOR_NAMES {
            let mut result = RunResult::new("exec-keyed", 4, false, Json::Null);
            let mut executor = build(name, ExecutorSpec::new(2).capacity(64));
            let d = drive(&*executor, &jobs, BATCH, 0, 1, 30_000_000, &mut result);
            executor.shutdown();
            assert!(
                d.total > 0 && result.correct(),
                "{name}: {:?}",
                result.problems
            );
            assert!(!d.samples.is_empty());
        }
        // The check itself: one update dropped from one cell must show.
        let state = State::new(1);
        for job in &jobs[..100] {
            state.handle(*job, 0);
        }
        assert_eq!(state.mismatches(&jobs, 100), 0);
        let victim = jobs[..100]
            .iter()
            .find_map(|j| match j.kind {
                Kind::Keyed(k) => Some(usize::from(k)),
                _ => None,
            })
            .unwrap();
        state.cells[victim].fetch_add(1, Relaxed);
        assert_eq!(state.mismatches(&jobs, 100), 1);
    }
}
