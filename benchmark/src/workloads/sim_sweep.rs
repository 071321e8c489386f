//! `sim-sweep`: repetitions of the paper's headline, Table 2 and Figure 7
//! grids at full scale, each on a fresh `SweepEngine`. An event is one
//! simulated protocol handler. The simulated results are deterministic, so
//! `headline_speedup` and `paper_gap_pct` compare exactly between commits.

use pdq_bench::{fig7, headline, table2, SimJob, SweepEngine};
use pdq_core::executor::{build_executor, ExecutorSpec};
use pdq_core::{QueueStats, SyncKey};
use pdq_dsm::BlockSize;
use pdq_hurricane::{ClusterSim, MachineSpec, ProtocolScheduling, SimReport};
use pdq_workloads::{Action, AppKind, Topology, Workload, WorkloadScale};

use super::{put_cpu_reconciliation, put_harness_totals, put_queue, Plan, SetupTimer};
use crate::clock::{now_ns, SECOND};
use crate::cpu::{self, Snapshot};
use crate::layers;
use crate::published;
use crate::report::RunResult;
use crate::span::{JobSpan, TimedExecutor};
use crate::stats::{percentile, Better, Rng, Windows};

/// The executor `SweepEngine::with_workers` builds; the traced run puts its
/// own copy under the engine, inside a `TimedExecutor`.
const SWEEP_EXECUTOR: &str = "sharded-pdq";
/// Fewest repetitions a gated metric may rest on.
const MIN_REPS: usize = 12;
/// Set-up cycles timed after each repetition, so `setup_s` samples the whole
/// run and not one stretch of it.
const SETUP_CYCLES_PER_REP: usize = 3;

fn scale() -> WorkloadScale {
    WorkloadScale::full()
}

/// The distinct cells of the three grids: Figure 7's eight machines on the
/// baseline topology (Table 2's S-COMA column is among them) and the
/// headline's two machines on 4 x 16-way SMPs, for all seven applications.
fn cells() -> Vec<SimJob> {
    let mut machines = vec![MachineSpec::scoma()];
    machines.extend([1, 2, 4].map(MachineSpec::hurricane));
    machines.extend([1, 2, 4].map(MachineSpec::hurricane1));
    machines.push(MachineSpec::hurricane1_mult());
    let mut cells = Vec::new();
    for machine in machines {
        for app in AppKind::all() {
            cells.push(
                SimJob::new(machine, app, scale())
                    .with_topology(Topology::baseline())
                    .with_block_size(BlockSize::B64),
            );
        }
    }
    for machine in [MachineSpec::hurricane1(1), MachineSpec::hurricane1_mult()] {
        for app in AppKind::all() {
            cells.push(SimJob::new(machine, app, scale()).with_topology(Topology::new(4, 16)));
        }
    }
    cells
}

/// Protocol engines in the simulated cluster of `job`.
fn engines(job: &SimJob) -> usize {
    let per_node = match job.machine.scheduling {
        ProtocolScheduling::Multiplexed => job.topology.cpus_per_node,
        _ => job.machine.protocol_processors.max(1),
    };
    job.topology.nodes * per_node
}

/// One repetition: what a user runs to regenerate the three artefacts.
struct Rep {
    wall_ns: u64,
    /// Turnaround of each of the three grid calls.
    calls_ns: [u64; 3],
    before: Snapshot,
    after: Snapshot,
    /// Every cell's submit, start and end; traced repetitions only.
    spans: Vec<JobSpan>,
    reports: Vec<SimReport>,
    headline: f64,
    table2: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl Rep {
    fn handlers(&self) -> u64 {
        self.reports.iter().map(|r| r.handlers).sum()
    }

    fn cpu_us_per_handler(&self) -> f64 {
        self.after.since(&self.before).system_ns() as f64 / 1e3 / self.handlers().max(1) as f64
    }
}

/// One repetition on a fresh engine: `SweepEngine::with_workers(nproc)`
/// untraced; traced, the same executor wrapped so each cell is stamped.
fn repetition(nproc: usize, order: &[usize; 3], cells: &[SimJob], traced: bool) -> Rep {
    let (engine, spans) = if traced {
        let inner = build_executor(SWEEP_EXECUTOR, &ExecutorSpec::new(nproc)).expect("registered");
        let (timed, spans) = TimedExecutor::new(inner);
        (SweepEngine::with_executor(Box::new(timed)), Some(spans))
    } else {
        (SweepEngine::with_workers(nproc), None)
    };
    let before = cpu::snapshot();
    let t0 = now_ns();
    let (mut geo_mean, mut rows) = (0.0, Vec::new());
    let mut calls_ns = [0u64; 3];
    for (grid, call_ns) in order.iter().zip(&mut calls_ns) {
        let called = now_ns();
        match grid {
            0 => geo_mean = headline(&engine, scale()).geo_mean,
            1 => {
                rows = table2(&engine, scale())
                    .iter()
                    .map(|r| r.measured_speedup)
                    .collect()
            }
            _ => {
                std::hint::black_box(fig7(&engine, scale()));
            }
        }
        *call_ns = now_ns() - called;
    }
    let wall_ns = now_ns() - t0;
    let after = cpu::snapshot();
    let simulated = engine.stats();
    // Served from the cache: proves `cells` is exactly what the grids ran.
    let reports = engine.run(cells);
    let stats = engine.stats();
    let spans = spans.map_or_else(Vec::new, |s| s.lock().expect("job spans").clone());
    Rep {
        wall_ns,
        calls_ns,
        before,
        after,
        spans,
        reports,
        headline: geo_mean,
        table2: rows,
        hits: simulated.hits,
        misses: if stats.misses == simulated.misses {
            stats.misses
        } else {
            u64::MAX
        },
    }
}

/// Set-up as the program does it for one sweep: the engine with its workers,
/// and the access trace of every distinct (application, topology) the cells
/// simulate.
fn setup_cycle(nproc: usize, cells: &[SimJob]) -> u64 {
    let engine = SweepEngine::with_workers(nproc);
    let mut seen: Vec<(AppKind, Topology)> = Vec::new();
    for job in cells {
        if !seen.contains(&(job.app, job.topology)) {
            seen.push((job.app, job.topology));
            std::hint::black_box(Workload::generate(
                job.app,
                job.topology,
                job.scale,
                job.seed,
            ));
        }
    }
    let ready = now_ns();
    drop(engine);
    ready
}

pub fn run(plan: &Plan) -> RunResult {
    let nproc = cpu::nproc();
    let fingerprint = cpu::fingerprint(SWEEP_EXECUTOR, "none", nproc, plan.seed);
    let mut result = RunResult::new("sim-sweep", plan.seed, plan.traced, fingerprint);
    let cells = cells();

    // The seed orders the three grids within each repetition; the cells are
    // the paper's and do not depend on it.
    let mut rng = Rng::new(plan.seed, 0x51ee9);
    let budget = plan.seconds * SECOND * if plan.traced { 2 } else { 3 } / 3;
    let min_reps = if plan.smoke { 3 } else { MIN_REPS };
    let deadline = now_ns() + if plan.smoke { 0 } else { budget };
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup = SetupTimer::new(1);
    while reps.len() < min_reps || now_ns() < deadline {
        let mut order = [0usize, 1, 2];
        rng.shuffle(&mut order);
        reps.push(repetition(nproc, &order, &cells, plan.traced));
        if !plan.traced {
            setup.run(SETUP_CYCLES_PER_REP, || setup_cycle(nproc, &cells));
        }
    }

    let first = &reps[0];
    for rep in &reps {
        result.attempted += cells.len() as u64;
        let differing = rep
            .reports
            .iter()
            .zip(&first.reports)
            .filter(|(a, b)| a != b)
            .count();
        result.failed += differing as u64;
        result.check(rep.misses == cells.len() as u64, || {
            format!(
                "a repetition simulated {} cells, the grids have {}",
                rep.misses,
                cells.len()
            )
        });
        result.check(
            rep.headline.to_bits() == first.headline.to_bits() && rep.table2 == first.table2,
            || "simulated results differ between repetitions".into(),
        );
    }
    let n = reps.len() as u64;

    let table1: Vec<f64> = pdq_hurricane::latency::table1(BlockSize::B64)
        .iter()
        .map(|row| row.total().as_f64())
        .collect();
    let gap = published::gap_pct(first.headline, &first.table2, &table1);

    let throughput = Windows::new(
        reps.iter()
            .map(|r| r.handlers() as f64 * 1e9 / r.wall_ns.max(1) as f64)
            .collect(),
        Better::Higher,
    );
    let cpu = Windows::new(
        reps.iter().map(Rep::cpu_us_per_handler).collect(),
        Better::Lower,
    );
    if plan.traced {
        put_layers(plan, &cells, &reps, &mut result);
        return result;
    }
    let total_handlers: u64 = reps.iter().map(Rep::handlers).sum();
    let total_ns: u64 = reps.iter().map(|r| r.wall_ns).sum();
    // A repetition is a window here. The work is the same in every one, so
    // whatever makes one slower than another came from outside: the best
    // decile (the fourth or fifth best of 35-50) repeats where the box slows
    // most of a run down (2.72-2.79 M handlers/s in seven runs of eight whose
    // upper quartiles read 2.51-2.70 M).
    result.put_full(
        "throughput_eps",
        throughput.best_decile(),
        Some(throughput.median()),
        Some(total_handlers as f64 * 1e9 / total_ns.max(1) as f64),
        n,
    );
    setup.put(&mut result);
    // What a user waits for is one grid call (one artefact regenerated);
    // the engine is the library's own here, so single cells are not visible.
    // A repetition is a window: of its three calls the median is the middle
    // one and the 95th percentile the longest.
    let mut calls: Vec<u64> = reps.iter().flat_map(|r| r.calls_ns).collect();
    calls.sort_unstable();
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p95_us", 0.95)] {
        let per_rep = reps
            .iter()
            .map(|r| {
                let mut calls = r.calls_ns;
                calls.sort_unstable();
                percentile(&calls, p) as f64 / 1e3
            })
            .collect();
        let per_rep = Windows::new(per_rep, Better::Lower);
        let pooled = percentile(&calls, p) as f64 / 1e3;
        result.put_full(
            name,
            per_rep.best_decile(),
            Some(per_rep.median()),
            Some(pooled),
            n,
        );
    }
    result.put_full(
        "cpu_us_per_event",
        cpu.best_decile(),
        Some(cpu.median()),
        None,
        n,
    );
    result.put("headline_speedup", first.headline, n);
    result.put("paper_gap_pct", gap, 11);
    result.notes.push(format!(
        "{n} repetitions of {} cells ({} handlers each, {:.3} s median); slow share {:.3}; \
         published headline {}, reproduced {:.4}",
        cells.len(),
        first.handlers(),
        Windows::new(
            reps.iter().map(|r| r.wall_ns as f64 / 1e9).collect(),
            Better::Lower
        )
        .median(),
        throughput.slow_share(),
        published::HEADLINE_GEOMEAN,
        first.headline
    ));
    result.notes.push(format!(
        "per-repetition k handlers/s: {:.0?}",
        throughput
            .values
            .iter()
            .map(|v| v / 1e3)
            .collect::<Vec<_>>()
    ));
    result
}

/// The traced pass: what the repetitions' cell spans and CPU say about the
/// executor under the engine, then each simulator layer driven directly.
fn put_layers(plan: &Plan, cells: &[SimJob], reps: &[Rep], result: &mut RunResult) {
    let n = reps.len() as u64;
    let spans: Vec<&JobSpan> = reps.iter().flat_map(|r| &r.spans).collect();
    let mut waits: Vec<u64> = spans.iter().map(|s| s.start - s.submit).collect();
    let mut runs: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    waits.sort_unstable();
    runs.sort_unstable();
    let stamped = spans.len() as u64;
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
    let worker_cpu = Windows::new(
        reps.iter()
            .map(|r| r.after.since(&r.before).executor_ns as f64 / 1e3 / r.handlers().max(1) as f64)
            .collect(),
        Better::Lower,
    );
    result.put("executor.worker_cpu_us_per_event", worker_cpu.gated(), n);
    let cells_per_s = Windows::new(
        reps.iter()
            .map(|r| cells.len() as f64 * 1e9 / r.wall_ns.max(1) as f64)
            .collect(),
        Better::Higher,
    );
    result.put("sweep.cells_per_s", cells_per_s.gated(), n);
    result.put("loadgen.slow_window_share", cells_per_s.slow_share(), n);
    let first = &reps[0];
    result.put(
        "sweep.cache_hit_share",
        first.hits as f64 / (first.hits + first.misses).max(1) as f64,
        first.hits + first.misses,
    );
    // One repetition's span: the engine's workers exit with it, and an
    // exited thread's time is in no class.
    put_cpu_reconciliation(result, &[first.before.clone(), first.after.clone()]);

    // Each cell once more, single-threaded, split into trace generation and
    // simulation; traces are shared by the cells that share them.
    let (mut generate_ns, mut accesses, mut run_ns, mut handlers) = (0u64, 0u64, 0u64, 0u64);
    let (mut wait_cycles, mut utilization) = (0.0, 0.0);
    let mut queue_stats = QueueStats::new();
    let mut keys: Vec<SyncKey> = Vec::new();
    let mut traces: Vec<((AppKind, Topology), Workload)> = Vec::new();
    for (job, report) in cells.iter().zip(&first.reports) {
        let id = (job.app, job.topology);
        if !traces.iter().any(|(seen, _)| *seen == id) {
            let t0 = now_ns();
            let workload = Workload::generate(job.app, job.topology, job.scale, job.seed);
            generate_ns += now_ns() - t0;
            accesses += workload.total_accesses();
            if keys.is_empty() {
                // The dispatch-queue micro below is fed the block stream of
                // the first trace's first processor.
                keys = workload
                    .script(0)
                    .iter()
                    .filter_map(|a| match a {
                        Action::Access { addr, .. } => Some(SyncKey::key(addr / 64)),
                        _ => None,
                    })
                    .collect();
            }
            traces.push((id, workload));
        }
        let workload = traces
            .iter()
            .find(|(seen, _)| *seen == id)
            .expect("just pushed")
            .1
            .clone();
        let t0 = now_ns();
        let again = ClusterSim::new(job.config(), workload).run();
        run_ns += now_ns() - t0;
        result.attempted += 1;
        if again != *report {
            result.failed += 1;
            result.problems.push(format!(
                "{job:?}: direct simulation differs from the sweep's"
            ));
        }
        handlers += report.handlers;
        wait_cycles += report.mean_dispatch_wait;
        utilization += report.protocol_utilization(engines(job));
        queue_stats.merge(&report.queue_stats);
    }
    let cell_count = cells.len() as f64;
    result.put(
        "trace.generate_ns_per_access",
        generate_ns as f64 / accesses.max(1) as f64,
        accesses,
    );
    result.put(
        "hurricane.host_ns_per_handler",
        run_ns as f64 / handlers.max(1) as f64,
        handlers,
    );
    result.put(
        "hurricane.mean_dispatch_wait_cycles",
        wait_cycles / cell_count,
        cells.len() as u64,
    );
    result.put(
        "hurricane.protocol_utilization",
        utilization / cell_count,
        cells.len() as u64,
    );

    // The simulated nodes' own dispatch queues: exact counts from the
    // reports; host cost of the three operations from the micro.
    let budget = if plan.smoke { SECOND / 50 } else { SECOND / 4 };
    let mut costs = layers::queue(&keys, cpu::nproc(), budget);
    costs.stats = queue_stats;
    put_queue(result, &costs);
    put_harness_totals(result);
}
