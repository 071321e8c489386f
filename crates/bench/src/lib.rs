//! # pdq-bench: experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Experiment | Binary |
//! |---|---|
//! | Table 1 (miss latency breakdown) | `table1` |
//! | Table 2 (S-COMA speedups, 8×8-way) | `table2` |
//! | Figure 7 (baseline comparison) | `fig7` |
//! | Figure 8 (clustering degree, Hurricane) | `fig8` |
//! | Figure 9 (clustering degree, Hurricane-1) | `fig9` |
//! | Figure 10 (block size, Hurricane) | `fig10` |
//! | Figure 11 (block size, Hurricane-1) | `fig11` |
//! | Headline 2.6× claim | `headline` |
//! | Search-window ablation | `ablation_search_window` |
//! | Executor scaling (PDQ vs. sharded vs. baselines) | `executor_scaling` |
//! | 64-node × 16-way machine × app grid | `sweep` |
//! | Everything, written to a report | `all_experiments` |
//!
//! Every binary is a one-line call into [`runner::run`], which hands the
//! experiment's simulation grid to the [`sweep::SweepEngine`]: cells run in
//! parallel on a sharded `PdqExecutor` (the reproduction's own runtime — the
//! experiment grid is its first real multi-core workload) and results are
//! memoized so shared baselines are simulated once per process. All binaries
//! accept `--json [PATH]` (or `PDQ_JSON=PATH`) to emit structured JSON next
//! to the text tables, `PDQ_SCALE` to scale the simulated work (default 1.0),
//! and `PDQ_WORKERS` to pin the sweep worker count. Criterion
//! micro-benchmarks of the PDQ runtime against its baselines live under
//! `benches/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod runner;
pub mod sweep;

pub use experiments::{
    ablation_search_window, drive_fetch_add, executor_scaling, fig10, fig11, fig7, fig8, fig9,
    headline, render_executor_scaling, render_table2, scaling_spec, sweep_grid, table2,
    table2_json, workload_scale, AblationResult, AblationRow, ExecutorScalingResult,
    ExecutorScalingSeries, FigureResult, FigureSeries, HeadlineResult, SweepGridResult, Table2Row,
};
pub use runner::{run, Experiment};
pub use sweep::{SimJob, SweepEngine, SweepStats};
