//! Shared experiment drivers for the table/figure binaries.
//!
//! Every driver here models its table or figure as a grid of [`SimJob`]s and
//! hands the whole grid to a [`SweepEngine`] in one batch, so independent
//! cells simulate in parallel on the PDQ runtime and shared cells (the
//! S-COMA baseline every figure normalizes to) are simulated once per engine
//! rather than once per figure. Each result type renders both as a text
//! table (`render`) and as structured JSON (`to_json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pdq_core::executor::{build_executor, Executor, ExecutorExt, ExecutorSpec, EXECUTOR_NAMES};
use pdq_dsm::BlockSize;
use pdq_hurricane::{MachineSpec, SimReport};
use pdq_sim::DetRng;
use pdq_workloads::{AppKind, Topology, WorkloadScale};

use crate::json::JsonValue;
use crate::sweep::{SimJob, SweepEngine, SweepStats};

/// Reads the workload scale from the `PDQ_SCALE` environment variable
/// (default 1.0, valid `[0.05, 4.0]`), with the same strict rules as the
/// experiment binaries.
///
/// # Panics
///
/// Panics on a malformed or out-of-range value; the binaries validate the
/// environment up front (`pdq_bench::runner::EnvConfig::from_env`) and
/// print a clean error instead. Only `PDQ_SCALE` is read here.
pub fn workload_scale() -> WorkloadScale {
    crate::runner::env_scale().unwrap_or_else(|e| panic!("{e}"))
}

/// One machine's series in a figure: its normalized speedup per application.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// The machine.
    pub machine: MachineSpec,
    /// Speedup normalized to the figure's S-COMA reference, one entry per
    /// application (same order as [`FigureResult::apps`]).
    pub normalized: Vec<f64>,
}

/// A reproduced figure: per-application speedups of several machines
/// normalized to S-COMA on the same topology and block size.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure title.
    pub title: String,
    /// The applications, in column order.
    pub apps: Vec<AppKind>,
    /// One series per machine.
    pub series: Vec<FigureSeries>,
    /// The absolute S-COMA speedup per application (the normalization base).
    pub scoma_speedup: Vec<f64>,
}

impl FigureResult {
    /// Renders the figure as a text table (applications as rows, machines as
    /// columns), mirroring the bar charts of the paper.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!("{:<10}", "app"));
        for s in &self.series {
            out.push_str(&format!(" {:>16}", s.machine.label()));
        }
        out.push_str(&format!(" {:>14}\n", "S-COMA speedup"));
        for (i, app) in self.apps.iter().enumerate() {
            out.push_str(&format!("{:<10}", app.name()));
            for s in &self.series {
                out.push_str(&format!(" {:>16.2}", s.normalized[i]));
            }
            out.push_str(&format!(" {:>14.1}\n", self.scoma_speedup[i]));
        }
        out.push_str(&format!("{:<10}", "geo-mean"));
        for s in &self.series {
            out.push_str(&format!(" {:>16.2}", geo_mean(&s.normalized)));
        }
        out.push('\n');
        out
    }

    /// The figure as structured JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("title", self.title.as_str().into()),
            ("apps", JsonValue::array(self.apps.iter().map(|a| a.name()))),
            (
                "scoma_speedup",
                JsonValue::array(self.scoma_speedup.iter().copied()),
            ),
            (
                "series",
                JsonValue::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("machine", s.machine.label().into()),
                                (
                                    "normalized_speedup",
                                    JsonValue::array(s.normalized.iter().copied()),
                                ),
                                ("geo_mean", geo_mean(&s.normalized).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The geometric mean of `values`.
///
/// Returns 0.0 for an empty slice and for any slice containing a
/// non-positive value: a zero factor annihilates the product (the true
/// geometric mean is zero), and a negative factor has no real geometric
/// mean, so both are reported as 0.0 rather than silently dropped from the
/// product while still counting in the root — the bias the previous
/// implementation had.
fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Runs every application on the S-COMA reference plus the given machines
/// and collects a figure. The whole grid — reference included — is submitted
/// to `engine` as one sweep.
pub fn run_figure(
    engine: &SweepEngine,
    title: &str,
    machines: &[MachineSpec],
    topology: Topology,
    block_size: BlockSize,
    scale: WorkloadScale,
) -> FigureResult {
    let apps: Vec<AppKind> = AppKind::all().to_vec();
    let cell = |machine: MachineSpec, app: AppKind| {
        SimJob::new(machine, app, scale)
            .with_topology(topology)
            .with_block_size(block_size)
    };
    let mut jobs: Vec<SimJob> = apps
        .iter()
        .map(|app| cell(MachineSpec::scoma(), *app))
        .collect();
    for machine in machines {
        jobs.extend(apps.iter().map(|app| cell(*machine, *app)));
    }
    let reports = engine.run(&jobs);
    let (reference, rest) = reports.split_at(apps.len());
    let series = machines
        .iter()
        .zip(rest.chunks(apps.len()))
        .map(|(machine, chunk)| FigureSeries {
            machine: *machine,
            normalized: chunk
                .iter()
                .zip(reference)
                .map(|(report, scoma)| report.normalized_speedup(scoma))
                .collect(),
        })
        .collect();
    FigureResult {
        title: title.to_string(),
        apps,
        series,
        scoma_speedup: reference.iter().map(SimReport::speedup).collect(),
    }
}

/// The Hurricane machines of Figures 7, 8, and 10.
pub fn hurricane_machines() -> Vec<MachineSpec> {
    vec![
        MachineSpec::hurricane(1),
        MachineSpec::hurricane(2),
        MachineSpec::hurricane(4),
    ]
}

/// The Hurricane-1 machines (plus Mult) of Figures 7, 9, and 11.
pub fn hurricane1_machines() -> Vec<MachineSpec> {
    vec![
        MachineSpec::hurricane1(1),
        MachineSpec::hurricane1(2),
        MachineSpec::hurricane1(4),
        MachineSpec::hurricane1_mult(),
    ]
}

/// Figure 7: baseline comparison on a cluster of 8 8-way SMPs, 64-byte blocks.
/// Returns the Hurricane panel (top) and the Hurricane-1 panel (bottom).
pub fn fig7(engine: &SweepEngine, scale: WorkloadScale) -> (FigureResult, FigureResult) {
    let topo = Topology::baseline();
    (
        run_figure(
            engine,
            "Figure 7 (top): Hurricane vs. S-COMA, 8 x 8-way SMPs, 64-byte blocks",
            &hurricane_machines(),
            topo,
            BlockSize::B64,
            scale,
        ),
        run_figure(
            engine,
            "Figure 7 (bottom): Hurricane-1 vs. S-COMA, 8 x 8-way SMPs, 64-byte blocks",
            &hurricane1_machines(),
            topo,
            BlockSize::B64,
            scale,
        ),
    )
}

/// Figure 8: clustering-degree impact on Hurricane (16 4-way and 4 16-way).
pub fn fig8(engine: &SweepEngine, scale: WorkloadScale) -> (FigureResult, FigureResult) {
    (
        run_figure(
            engine,
            "Figure 8 (top): Hurricane, 16 x 4-way SMPs",
            &hurricane_machines(),
            Topology::new(16, 4),
            BlockSize::B64,
            scale,
        ),
        run_figure(
            engine,
            "Figure 8 (bottom): Hurricane, 4 x 16-way SMPs",
            &hurricane_machines(),
            Topology::new(4, 16),
            BlockSize::B64,
            scale,
        ),
    )
}

/// Figure 9: clustering-degree impact on Hurricane-1 (16 4-way and 4 16-way).
pub fn fig9(engine: &SweepEngine, scale: WorkloadScale) -> (FigureResult, FigureResult) {
    (
        run_figure(
            engine,
            "Figure 9 (top): Hurricane-1, 16 x 4-way SMPs",
            &hurricane1_machines(),
            Topology::new(16, 4),
            BlockSize::B64,
            scale,
        ),
        run_figure(
            engine,
            "Figure 9 (bottom): Hurricane-1, 4 x 16-way SMPs",
            &hurricane1_machines(),
            Topology::new(4, 16),
            BlockSize::B64,
            scale,
        ),
    )
}

/// Figure 10: block-size impact on Hurricane (32-byte and 128-byte protocols).
pub fn fig10(engine: &SweepEngine, scale: WorkloadScale) -> (FigureResult, FigureResult) {
    let topo = Topology::baseline();
    (
        run_figure(
            engine,
            "Figure 10 (top): Hurricane, 32-byte blocks",
            &hurricane_machines(),
            topo,
            BlockSize::B32,
            scale,
        ),
        run_figure(
            engine,
            "Figure 10 (bottom): Hurricane, 128-byte blocks",
            &hurricane_machines(),
            topo,
            BlockSize::B128,
            scale,
        ),
    )
}

/// Figure 11: block-size impact on Hurricane-1 (32-byte and 128-byte
/// protocols).
pub fn fig11(engine: &SweepEngine, scale: WorkloadScale) -> (FigureResult, FigureResult) {
    let topo = Topology::baseline();
    (
        run_figure(
            engine,
            "Figure 11 (top): Hurricane-1, 32-byte blocks",
            &hurricane1_machines(),
            topo,
            BlockSize::B32,
            scale,
        ),
        run_figure(
            engine,
            "Figure 11 (bottom): Hurricane-1, 128-byte blocks",
            &hurricane1_machines(),
            topo,
            BlockSize::B128,
            scale,
        ),
    )
}

/// One row of Table 2: application, paper input, paper speedup, and the
/// speedup measured by this reproduction on 8 8-way SMPs under S-COMA.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The application.
    pub app: AppKind,
    /// The measured S-COMA speedup (64 processors over 1).
    pub measured_speedup: f64,
}

/// Table 2: S-COMA speedups on a cluster of 8 8-way SMPs.
pub fn table2(engine: &SweepEngine, scale: WorkloadScale) -> Vec<Table2Row> {
    let apps = AppKind::all();
    let jobs: Vec<SimJob> = apps
        .into_iter()
        .map(|app| SimJob::new(MachineSpec::scoma(), app, scale))
        .collect();
    let reports = engine.run(&jobs);
    apps.into_iter()
        .zip(&reports)
        .map(|(app, report)| Table2Row {
            app,
            measured_speedup: report.speedup(),
        })
        .collect()
}

/// Renders Table 2 as text.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: applications, input sets, and S-COMA speedups (8 x 8-way SMPs)\n");
    out.push_str(&format!(
        "{:<10} {:<26} {:>14} {:>16}\n",
        "app", "paper input", "paper speedup", "measured speedup"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:<26} {:>14.0} {:>16.1}\n",
            row.app.name(),
            row.app.paper_input(),
            row.app.paper_scoma_speedup(),
            row.measured_speedup
        ));
    }
    out
}

/// Table 2 as structured JSON.
pub fn table2_json(rows: &[Table2Row]) -> JsonValue {
    JsonValue::Array(
        rows.iter()
            .map(|row| {
                JsonValue::object(vec![
                    ("app", row.app.name().into()),
                    ("paper_input", row.app.paper_input().into()),
                    ("paper_speedup", row.app.paper_scoma_speedup().into()),
                    ("measured_speedup", row.measured_speedup.into()),
                ])
            })
            .collect(),
    )
}

/// The paper's headline claim, measured: on a cluster of 4 16-way SMPs,
/// Hurricane-1 Mult improves application performance over a system with a
/// single dedicated protocol processor per node (the paper reports ~2.6x on
/// average).
#[derive(Debug, Clone)]
pub struct HeadlineResult {
    /// Per-application improvement factor (Mult speedup / 1pp speedup).
    pub factors: Vec<(AppKind, f64)>,
    /// Geometric mean of the factors.
    pub geo_mean: f64,
}

impl HeadlineResult {
    /// Renders the headline comparison as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Headline: Hurricane-1 Mult vs. Hurricane-1 1pp on a cluster of 4 16-way SMPs\n",
        );
        for (app, factor) in &self.factors {
            out.push_str(&format!("  {:<10} {:.2}x\n", app.name(), factor));
        }
        out.push_str(&format!(
            "geometric mean improvement: {:.2}x (paper reports 2.6x)\n",
            self.geo_mean
        ));
        out
    }

    /// The headline comparison as structured JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "factors",
                JsonValue::Array(
                    self.factors
                        .iter()
                        .map(|(app, factor)| {
                            JsonValue::object(vec![
                                ("app", app.name().into()),
                                ("improvement", (*factor).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("geo_mean", self.geo_mean.into()),
            ("paper_geo_mean", 2.6.into()),
        ])
    }
}

/// Measures the headline claim; both machine configurations for all
/// applications go to the engine as one sweep.
pub fn headline(engine: &SweepEngine, scale: WorkloadScale) -> HeadlineResult {
    let topo = Topology::new(4, 16);
    let apps = AppKind::all();
    let mut jobs = Vec::with_capacity(apps.len() * 2);
    for app in apps {
        jobs.push(SimJob::new(MachineSpec::hurricane1(1), app, scale).with_topology(topo));
        jobs.push(SimJob::new(MachineSpec::hurricane1_mult(), app, scale).with_topology(topo));
    }
    let reports = engine.run(&jobs);
    let factors: Vec<(AppKind, f64)> = apps
        .into_iter()
        .zip(reports.chunks(2))
        .map(|(app, pair)| (app, pair[1].speedup() / pair[0].speedup()))
        .collect();
    let geo_mean = geo_mean(&factors.iter().map(|(_, f)| *f).collect::<Vec<_>>());
    HeadlineResult { factors, geo_mean }
}

/// One row of the search-window ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The PDQ search window.
    pub window: usize,
    /// Measured application speedup.
    pub speedup: f64,
    /// Mean cycles a handler waited in the PDQ before dispatch.
    pub mean_dispatch_wait: f64,
    /// Dispatches blocked behind an in-flight key.
    pub key_conflicts: u64,
}

/// The search-window ablation: Hurricane 4pp running fft on the baseline
/// cluster with the PDQ associative search window swept (Section 3.2).
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// One row per window size.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Renders the ablation as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Search-window ablation: Hurricane 4pp, fft, 8 x 8-way SMPs\n");
        out.push_str(&format!(
            "{:<8} {:>12} {:>18} {:>14}\n",
            "window", "speedup", "mean dispatch wait", "key conflicts"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>12.2} {:>18.1} {:>14}\n",
                row.window, row.speedup, row.mean_dispatch_wait, row.key_conflicts
            ));
        }
        out
    }

    /// The ablation as structured JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.rows
                .iter()
                .map(|row| {
                    JsonValue::object(vec![
                        ("window", row.window.into()),
                        ("speedup", row.speedup.into()),
                        ("mean_dispatch_wait", row.mean_dispatch_wait.into()),
                        ("key_conflicts", row.key_conflicts.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs the search-window ablation as one sweep (the cells differ only in
/// the PDQ search window, which is part of the job key).
pub fn ablation_search_window(engine: &SweepEngine, scale: WorkloadScale) -> AblationResult {
    let windows = [1usize, 2, 4, 8, 16, 64];
    let jobs: Vec<SimJob> = windows
        .iter()
        .map(|&window| {
            SimJob::new(MachineSpec::hurricane(4), AppKind::Fft, scale).with_search_window(window)
        })
        .collect();
    let reports = engine.run(&jobs);
    AblationResult {
        rows: windows
            .iter()
            .zip(&reports)
            .map(|(&window, report)| AblationRow {
                window,
                speedup: report.speedup(),
                mean_dispatch_wait: report.mean_dispatch_wait,
                key_conflicts: report.queue_stats.key_conflicts,
            })
            .collect(),
    }
}

/// The machines of the large-grid sweep: every configuration the figures
/// compare, side by side.
pub fn sweep_machines() -> Vec<MachineSpec> {
    vec![
        MachineSpec::scoma(),
        MachineSpec::hurricane(1),
        MachineSpec::hurricane(2),
        MachineSpec::hurricane(4),
        MachineSpec::hurricane1(1),
        MachineSpec::hurricane1(2),
        MachineSpec::hurricane1(4),
        MachineSpec::hurricane1_mult(),
    ]
}

/// The large-grid sweep: every machine × every application on a 64-node ×
/// 16-way cluster, replicated over independently seeded workloads.
#[derive(Debug, Clone)]
pub struct SweepGridResult {
    /// The cluster shape.
    pub topology: Topology,
    /// Workload replicates (independent seeds) per cell.
    pub replicates: usize,
    /// The machines, in row order.
    pub machines: Vec<MachineSpec>,
    /// The applications, in column order.
    pub apps: Vec<AppKind>,
    /// Mean speedup over the replicates, indexed `[machine][app]`.
    pub mean_speedup: Vec<Vec<f64>>,
    /// Every simulated cell with its report, in submission order.
    pub cells: Vec<(SimJob, SimReport)>,
    /// Cache counters attributable to this sweep (hit/miss deltas across the
    /// run; `entries` is the cache size after it).
    pub stats: SweepStats,
    /// Worker threads the engine used.
    pub workers: usize,
    /// Wall-clock duration of the sweep in seconds.
    pub elapsed_secs: f64,
}

impl SweepGridResult {
    /// Renders the sweep as a text table (machines as rows, applications as
    /// columns, mean speedup in the cells).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Sweep: {} machines x {} apps on {} x {}-way SMPs ({} replicates, {} cells)\n",
            self.machines.len(),
            self.apps.len(),
            self.topology.nodes,
            self.topology.cpus_per_node,
            self.replicates,
            self.cells.len(),
        ));
        out.push_str(&format!("{:<16}", "machine"));
        for app in &self.apps {
            out.push_str(&format!(" {:>9}", app.name()));
        }
        out.push('\n');
        for (machine, row) in self.machines.iter().zip(&self.mean_speedup) {
            out.push_str(&format!("{:<16}", machine.label()));
            for speedup in row {
                out.push_str(&format!(" {:>9.1}", speedup));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} workers, {:.2}s wall clock; cache: {} simulated, {} reused\n",
            self.workers, self.elapsed_secs, self.stats.misses, self.stats.hits
        ));
        out
    }

    /// The sweep as structured JSON, including every cell's report.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "topology",
                JsonValue::object(vec![
                    ("nodes", self.topology.nodes.into()),
                    ("cpus_per_node", self.topology.cpus_per_node.into()),
                ]),
            ),
            ("replicates", self.replicates.into()),
            ("apps", JsonValue::array(self.apps.iter().map(|a| a.name()))),
            (
                "mean_speedup",
                JsonValue::Array(
                    self.machines
                        .iter()
                        .zip(&self.mean_speedup)
                        .map(|(machine, row)| {
                            JsonValue::object(vec![
                                ("machine", machine.label().into()),
                                ("speedup", JsonValue::array(row.iter().copied())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cells",
                JsonValue::Array(
                    self.cells
                        .iter()
                        .map(|(job, report)| sim_cell_json(job, report))
                        .collect(),
                ),
            ),
            ("workers", self.workers.into()),
            ("elapsed_secs", self.elapsed_secs.into()),
            ("cache_simulated", self.stats.misses.into()),
            ("cache_reused", self.stats.hits.into()),
        ])
    }
}

/// One simulated cell (job plus report) as structured JSON.
pub fn sim_cell_json(job: &SimJob, report: &SimReport) -> JsonValue {
    JsonValue::object(vec![
        ("machine", job.machine.label().into()),
        ("app", job.app.name().into()),
        (
            "topology",
            JsonValue::object(vec![
                ("nodes", job.topology.nodes.into()),
                ("cpus_per_node", job.topology.cpus_per_node.into()),
            ]),
        ),
        ("block_bytes", job.block_size.bytes().into()),
        ("scale", job.scale.0.into()),
        ("seed", job.seed.into()),
        ("speedup", report.speedup().into()),
        ("execution_cycles", report.execution_cycles.as_u64().into()),
        (
            "uniprocessor_cycles",
            report.uniprocessor_cycles.as_u64().into(),
        ),
        ("faults", report.faults.into()),
        ("network_messages", report.network_messages.into()),
        ("handlers", report.handlers.into()),
        ("interrupts", report.interrupts.into()),
        ("mean_miss_latency", report.mean_miss_latency.into()),
        ("mean_dispatch_wait", report.mean_dispatch_wait.into()),
    ])
}

/// Runs the 64-node × 16-way sweep grid: [`sweep_machines`] × all
/// applications × `replicates` independently seeded workloads, in one batch.
///
/// Replicate seeds come from [`DetRng::stream`]: replicate `r` uses stream
/// `r` of the family seeded by the baseline seed, so every machine and
/// application within a replicate shares a workload seed (the comparisons
/// stay paired) while replicates are independent of each other.
pub fn sweep_grid(
    engine: &SweepEngine,
    scale: WorkloadScale,
    replicates: usize,
) -> SweepGridResult {
    sweep_grid_on(engine, Topology::new(64, 16), scale, replicates)
}

/// [`sweep_grid`] on an arbitrary topology (exposed for tests; the `sweep`
/// binary always runs 64 × 16).
pub fn sweep_grid_on(
    engine: &SweepEngine,
    topology: Topology,
    scale: WorkloadScale,
    replicates: usize,
) -> SweepGridResult {
    let replicates = replicates.max(1);
    let machines = sweep_machines();
    let apps: Vec<AppKind> = AppKind::all().to_vec();
    let base_seed = SimJob::new(MachineSpec::scoma(), AppKind::Fft, scale).seed;
    let seeds: Vec<u64> = (0..replicates)
        .map(|r| DetRng::stream(base_seed, r as u64).next_u64())
        .collect();
    let mut jobs = Vec::with_capacity(machines.len() * apps.len() * replicates);
    for machine in &machines {
        for app in &apps {
            for &seed in &seeds {
                jobs.push(
                    SimJob::new(*machine, *app, scale)
                        .with_topology(topology)
                        .with_seed(seed),
                );
            }
        }
    }
    let before = engine.stats();
    let start = Instant::now();
    let reports = engine.run(&jobs);
    let elapsed_secs = start.elapsed().as_secs_f64();
    let after = engine.stats();
    let mean_speedup = reports
        .chunks(apps.len() * replicates)
        .map(|machine_chunk| {
            machine_chunk
                .chunks(replicates)
                .map(|cell| cell.iter().map(SimReport::speedup).sum::<f64>() / replicates as f64)
                .collect()
        })
        .collect();
    SweepGridResult {
        topology,
        replicates,
        machines,
        apps,
        mean_speedup,
        cells: jobs.into_iter().zip(reports).collect(),
        // This sweep's counters, not the engine's lifetime totals: the same
        // engine may already have run other experiments (all_experiments
        // shares one engine across every section).
        stats: SweepStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            entries: after.entries,
        },
        workers: engine.workers(),
        elapsed_secs,
    }
}

/// Throughput of one executor at several worker counts, in jobs per second.
#[derive(Debug, Clone)]
pub struct ExecutorScalingSeries {
    /// Executor label (`pdq`, `sharded-pdq`, `spinlock`, `multiqueue`).
    pub executor: String,
    /// Measured jobs/second, one entry per element of
    /// [`ExecutorScalingResult::workers`].
    pub jobs_per_sec: Vec<f64>,
}

/// The executor-scaling experiment: every registered [`Executor`] driven by
/// the same contended fetch&add workload across a sweep of worker counts.
#[derive(Debug, Clone)]
pub struct ExecutorScalingResult {
    /// The worker counts swept.
    pub workers: Vec<usize>,
    /// Jobs submitted per measurement.
    pub jobs: u64,
    /// Number of distinct memory words (synchronization keys).
    pub words: u64,
    /// One series per executor.
    pub series: Vec<ExecutorScalingSeries>,
}

impl ExecutorScalingResult {
    /// The executor-scaling experiment as structured JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("workers", JsonValue::array(self.workers.iter().copied())),
            ("jobs", self.jobs.into()),
            ("words", self.words.into()),
            (
                "series",
                JsonValue::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("executor", s.executor.as_str().into()),
                                (
                                    "jobs_per_sec",
                                    JsonValue::array(s.jobs_per_sec.iter().copied()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Submits `jobs` fetch&add handlers over `cells` (the cell index is the
/// synchronization key) and blocks until they all finish. The handler body is
/// a plain (unsynchronized) read-modify-write — correct only if the executor
/// honours the key contract. Shared by the `executor_scaling` experiment and
/// the `pdq_vs_spinlock` criterion bench so both drive the same workload.
pub fn drive_fetch_add<E: Executor + ?Sized>(executor: &E, jobs: u64, cells: &[Arc<AtomicU64>]) {
    let n = cells.len() as u64;
    for i in 0..jobs {
        let cell = Arc::clone(&cells[(i % n) as usize]);
        executor.submit_keyed(i % n, move || {
            let v = cell.load(Ordering::Relaxed);
            cell.store(v + 1, Ordering::Relaxed);
        });
    }
    executor.flush();
}

/// Runs [`drive_fetch_add`] over `words` fresh memory words and returns the
/// verified throughput in jobs per second.
fn fetch_add_throughput<E: Executor + ?Sized>(executor: &E, jobs: u64, words: u64) -> f64 {
    let cells: Vec<Arc<AtomicU64>> = (0..words).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let start = Instant::now();
    drive_fetch_add(executor, jobs, &cells);
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total, jobs, "an executor lost or duplicated fetch&add jobs");
    jobs as f64 / elapsed.max(f64::EPSILON)
}

/// The construction spec used for one executor measurement at a given worker
/// count: the sharded executor gets one shard per four workers (its builder
/// default, explicit so the experiments are self-describing). Shared by the
/// `executor_scaling` experiment and the `pdq_vs_spinlock` criterion bench so
/// both measure identically configured executors.
pub fn scaling_spec(name: &str, workers: usize) -> ExecutorSpec {
    let spec = ExecutorSpec::new(workers);
    if name == "sharded-pdq" {
        spec.shards(workers.div_ceil(4))
    } else {
        spec
    }
}

/// The executor-scaling experiment behind the `executor_scaling` binary:
/// throughput of every registered executor on a contended fetch&add workload
/// as workers grow. `scale` multiplies the job count (default 20 000 per
/// measurement at scale 1.0). The executors are built purely through the
/// [`build_executor`] registry, so a newly registered executor shows up here
/// without touching this experiment.
pub fn executor_scaling(scale: WorkloadScale) -> ExecutorScalingResult {
    let workers = vec![1usize, 2, 4, 8, 16];
    let jobs = ((20_000.0 * scale.0) as u64).max(1_000);
    let words = 64u64;
    let series = EXECUTOR_NAMES
        .iter()
        .map(|name| {
            let jobs_per_sec = workers
                .iter()
                .map(|&w| {
                    let pool =
                        build_executor(name, &scaling_spec(name, w)).expect("registry names build");
                    fetch_add_throughput(&*pool, jobs, words)
                })
                .collect();
            ExecutorScalingSeries {
                executor: name.to_string(),
                jobs_per_sec,
            }
        })
        .collect();
    ExecutorScalingResult {
        workers,
        jobs,
        words,
        series,
    }
}

/// Renders the executor-scaling experiment as a text table (executors as
/// rows, worker counts as columns, jobs/second in the cells).
pub fn render_executor_scaling(result: &ExecutorScalingResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Executor scaling: {} fetch&add jobs over {} words (jobs/sec)\n",
        result.jobs, result.words
    ));
    out.push_str(&format!("{:<12}", "executor"));
    for w in &result.workers {
        out.push_str(&format!(" {:>12}", format!("{w} workers")));
    }
    out.push('\n');
    for s in &result.series {
        out.push_str(&format!("{:<12}", s.executor));
        for v in &s.jobs_per_sec {
            out.push_str(&format!(" {:>12.0}", v));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_engine() -> SweepEngine {
        SweepEngine::with_workers(2)
    }

    #[test]
    fn workload_scale_defaults_to_full() {
        // The environment variable is normally unset during tests.
        let scale = workload_scale();
        assert!(scale.0 > 0.0 && scale.0 <= 4.0);
    }

    #[test]
    fn geo_mean_of_identical_values_is_that_value() {
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn geo_mean_handles_non_positive_values_explicitly() {
        // A zero factor annihilates the product: the mean is 0, not the
        // silently biased positive value the old filter-but-divide gave.
        assert_eq!(geo_mean(&[0.0, 4.0, 4.0]), 0.0);
        assert_eq!(geo_mean(&[-1.0, 2.0]), 0.0);
        assert_eq!(geo_mean(&[0.0]), 0.0);
        // All-positive inputs are unaffected.
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn figure_render_contains_all_apps_and_machines() {
        let engine = quick_engine();
        let result = run_figure(
            &engine,
            "test figure",
            &[MachineSpec::hurricane(2)],
            Topology::new(2, 2),
            BlockSize::B64,
            WorkloadScale(0.05),
        );
        let text = result.render();
        assert!(text.contains("test figure"));
        assert!(text.contains("water-sp"));
        assert!(text.contains("Hurricane 2pp"));
        assert!(text.contains("geo-mean"));
        assert_eq!(result.apps.len(), 7);
        assert_eq!(result.series[0].normalized.len(), 7);
    }

    #[test]
    fn figure_json_mirrors_the_table() {
        let engine = quick_engine();
        let result = run_figure(
            &engine,
            "json figure",
            &[MachineSpec::hurricane(2)],
            Topology::new(2, 2),
            BlockSize::B64,
            WorkloadScale(0.05),
        );
        let json = result.to_json().render();
        assert!(json.contains("\"json figure\""));
        assert!(json.contains("\"Hurricane 2pp\""));
        assert!(json.contains("\"normalized_speedup\""));
        assert!(json.contains("\"geo_mean\""));
    }

    #[test]
    fn fetch_add_throughput_verifies_and_reports() {
        let pool = build_executor("sharded-pdq", &ExecutorSpec::new(2).shards(2))
            .expect("sharded-pdq is registered");
        let rate = fetch_add_throughput(&*pool, 2_000, 16);
        assert!(rate > 0.0);
    }

    #[test]
    fn executor_scaling_render_lists_all_executors() {
        let result = ExecutorScalingResult {
            workers: vec![1, 2],
            jobs: 100,
            words: 8,
            series: vec![ExecutorScalingSeries {
                executor: "pdq".to_string(),
                jobs_per_sec: vec![1.0, 2.0],
            }],
        };
        let text = render_executor_scaling(&result);
        assert!(text.contains("pdq"));
        assert!(text.contains("2 workers"));
        let json = result.to_json().render();
        assert!(json.contains("\"jobs_per_sec\""));
    }

    #[test]
    fn table2_has_a_row_per_application() {
        // Keep the scale minimal: the table runs the full 8x8 cluster.
        let engine = quick_engine();
        let rows = table2(&engine, WorkloadScale(0.05));
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.measured_speedup > 1.0));
        let text = render_table2(&rows);
        assert!(text.contains("cholesky"));
        assert!(text.contains("tk29.O"));
        let json = table2_json(&rows).render();
        assert!(json.contains("\"measured_speedup\""));
    }

    #[test]
    fn ablation_sweeps_the_search_window() {
        let engine = quick_engine();
        // The ablation runs the baseline 8x8 cluster; the 0.05 scale keeps it
        // test-sized. All six windows are distinct cells.
        let result = ablation_search_window(&engine, WorkloadScale(0.05));
        assert_eq!(result.rows.len(), 6);
        assert_eq!(engine.stats().misses, 6);
        assert!(result.render().contains("window"));
        assert!(result.to_json().render().contains("\"key_conflicts\""));
    }

    #[test]
    fn sweep_grid_covers_machines_by_apps_with_replicates() {
        let engine = quick_engine();
        let result = sweep_grid_on(&engine, Topology::new(2, 2), WorkloadScale(0.05), 2);
        assert_eq!(result.machines.len(), 8);
        assert_eq!(result.apps.len(), 7);
        assert_eq!(result.cells.len(), 8 * 7 * 2);
        assert_eq!(result.mean_speedup.len(), 8);
        assert!(result.mean_speedup.iter().all(|row| row.len() == 7));
        // Every cell is unique (two distinct replicate seeds), so the cache
        // records one simulation per cell and no reuse.
        assert_eq!(engine.stats().misses, 8 * 7 * 2);
        assert_eq!(engine.stats().hits, 0);
        assert_eq!(result.stats.misses, 8 * 7 * 2);
        // Re-running the same grid on the same engine is pure reuse, and the
        // result reports this sweep's counters, not the engine's lifetime
        // totals.
        let rerun = sweep_grid_on(&engine, Topology::new(2, 2), WorkloadScale(0.05), 2);
        assert_eq!(rerun.stats.misses, 0);
        assert_eq!(rerun.stats.hits, 8 * 7 * 2);
        // Replicate seeds are paired across machines: every cell of replicate
        // r shares one seed, and the two replicates differ.
        let seeds: Vec<u64> = result.cells.iter().map(|(job, _)| job.seed).collect();
        assert_eq!(seeds[0], seeds[2]);
        assert_ne!(seeds[0], seeds[1]);
        let text = result.render();
        assert!(text.contains("8 machines x 7 apps"));
        let json = result.to_json().render();
        assert!(json.contains("\"mean_speedup\""));
        assert!(json.contains("\"cells\""));
    }

    #[test]
    fn headline_render_and_json_report_the_geomean() {
        let engine = quick_engine();
        // 2x2 would be too small for Mult to shine; keep the real topology at
        // minimal scale.
        let result = headline(&engine, WorkloadScale(0.05));
        assert_eq!(result.factors.len(), 7);
        assert!(result.geo_mean > 0.0);
        assert!(result.render().contains("geometric mean"));
        assert!(result.to_json().render().contains("\"paper_geo_mean\""));
    }
}
