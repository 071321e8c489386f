//! The shared entry point behind every experiment binary.
//!
//! Each binary in `src/bin/` is a one-line call into [`run`] with its
//! [`Experiment`] variant; argument parsing, engine construction, text
//! rendering, and JSON emission all live here, so every experiment gains the
//! `--json` flag and the `PDQ_JSON` / `PDQ_SCALE` / `PDQ_WORKERS` /
//! `PDQ_REPLICATES` environment variables for free.

use std::process::ExitCode;

use pdq_dsm::BlockSize;
use pdq_workloads::WorkloadScale;

use crate::experiments::{
    ablation_search_window, executor_scaling, fig10, fig11, fig7, fig8, fig9, headline,
    render_executor_scaling, render_table2, sweep_grid, table2, table2_json, FigureResult,
};
use crate::json::JsonValue;
use crate::sweep::SweepEngine;

/// The experiments the binaries expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: remote read miss latency breakdown.
    Table1,
    /// Table 2: S-COMA speedups on 8 × 8-way SMPs.
    Table2,
    /// Figure 7: baseline comparison.
    Fig7,
    /// Figure 8: clustering degree, Hurricane.
    Fig8,
    /// Figure 9: clustering degree, Hurricane-1.
    Fig9,
    /// Figure 10: block size, Hurricane.
    Fig10,
    /// Figure 11: block size, Hurricane-1.
    Fig11,
    /// The headline ~2.6× multiplexing claim.
    Headline,
    /// Search-window ablation.
    AblationSearchWindow,
    /// Executor scaling: four executors × worker counts.
    ExecutorScaling,
    /// The 64-node × 16-way machine × application sweep grid.
    Sweep,
    /// Every experiment, with a combined report written to
    /// `experiment_results.txt`.
    All,
}

impl Experiment {
    /// Every runnable experiment except [`All`](Experiment::All) itself, in
    /// the order the combined report lists them. This is the single place a
    /// new variant must be added for `all_experiments` to pick it up — the
    /// `all_parts_is_canonical` test guards the list's shape.
    pub const ALL_PARTS: [Experiment; 11] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Headline,
        Experiment::AblationSearchWindow,
        Experiment::ExecutorScaling,
        Experiment::Sweep,
    ];

    /// The binary/report name of the experiment.
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Headline => "headline",
            Experiment::AblationSearchWindow => "ablation_search_window",
            Experiment::ExecutorScaling => "executor_scaling",
            Experiment::Sweep => "sweep",
            Experiment::All => "all_experiments",
        }
    }
}

/// Runs one experiment end to end: parse the command line, validate the
/// environment, run the simulations on a shared [`SweepEngine`], print the
/// text tables, and write JSON when requested. This is the whole body of
/// every experiment binary.
pub fn run(experiment: Experiment) -> ExitCode {
    let json_path = match parse_args(experiment, std::env::args().skip(1)) {
        Ok(Parsed::Run(path)) => {
            // The --json flag wins; PDQ_JSON is the fallback.
            path.or_else(|| std::env::var("PDQ_JSON").ok().filter(|p| !p.is_empty()))
        }
        Ok(Parsed::Help(usage)) => {
            println!("{usage}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // A malformed environment fails loudly up front: silently falling back to
    // defaults would run a different experiment than the one asked for.
    let env = match EnvConfig::from_env() {
        Ok(env) => env,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Table 1 is pure latency arithmetic; don't spin up a worker pool for it.
    let engine = match experiment {
        Experiment::Table1 => SweepEngine::with_workers(1),
        _ => SweepEngine::with_workers(env.workers_or_default()),
    };
    let (text, json) = execute_with(experiment, &engine, env.scale, env.replicates);
    print!("{text}");
    if experiment == Experiment::All {
        if let Err(e) = std::fs::write("experiment_results.txt", &text) {
            eprintln!("could not write experiment_results.txt: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = json_path {
        let document = JsonValue::object(vec![
            ("experiment", experiment.name().into()),
            ("scale", env.scale.0.into()),
            ("workers", engine.workers().into()),
            ("results", json),
        ]);
        match std::fs::write(&path, document.render()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The validated environment of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConfig {
    /// `PDQ_WORKERS`: sweep worker threads (`None` = one per CPU).
    pub workers: Option<usize>,
    /// `PDQ_SCALE`: workload scale factor.
    pub scale: WorkloadScale,
    /// `PDQ_REPLICATES`: sweep-grid replicates.
    pub replicates: usize,
}

impl EnvConfig {
    /// Reads and validates `PDQ_WORKERS`, `PDQ_SCALE`, and `PDQ_REPLICATES`.
    /// Malformed or out-of-range values are rejected with a
    /// message naming the variable, the offending value, and the accepted
    /// range — never silently replaced with a default.
    pub fn from_env() -> Result<Self, String> {
        Ok(Self {
            workers: env_workers()?,
            scale: env_scale()?,
            replicates: env_replicates()?,
        })
    }

    fn workers_or_default(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Validates one environment value: `None`/empty means unset, anything else
/// must parse as a `T` inside `[lo, hi]`. Pure function of its arguments so
/// the rejection rules are unit-testable without touching the process
/// environment.
fn parse_env_value<T: std::str::FromStr + PartialOrd + std::fmt::Display + Copy>(
    name: &str,
    raw: Option<&str>,
    lo: T,
    hi: T,
) -> Result<Option<T>, String> {
    let raw = match raw {
        Some(v) if !v.is_empty() => v,
        _ => return Ok(None),
    };
    let value: T = raw
        .parse()
        .map_err(|_| format!("{name}={raw} is not a valid number (expected {lo}..={hi})"))?;
    // Negated >= / <= (rather than < / >) so a NaN scale fails the range
    // check instead of slipping past both comparisons.
    if !(value >= lo && value <= hi) {
        return Err(format!(
            "{name}={raw} is out of range (expected {lo}..={hi})"
        ));
    }
    Ok(Some(value))
}

/// Reads and validates environment variable `name` within `[lo, hi]`.
fn env_parse<T: std::str::FromStr + PartialOrd + std::fmt::Display + Copy>(
    name: &str,
    lo: T,
    hi: T,
) -> Result<Option<T>, String> {
    parse_env_value(name, std::env::var(name).ok().as_deref(), lo, hi)
}

/// `PDQ_WORKERS` as a validated worker count in `1..=512`.
pub(crate) fn env_workers() -> Result<Option<usize>, String> {
    env_parse("PDQ_WORKERS", 1usize, 512usize)
}

/// `PDQ_SCALE` as a validated workload scale in `[0.05, 4.0]` (default 1.0).
pub(crate) fn env_scale() -> Result<WorkloadScale, String> {
    Ok(WorkloadScale(
        env_parse("PDQ_SCALE", 0.05f64, 4.0f64)?.unwrap_or(1.0),
    ))
}

/// `PDQ_REPLICATES` as a validated sweep-grid replicate count in `1..=16`
/// (default 2).
fn env_replicates() -> Result<usize, String> {
    Ok(env_parse("PDQ_REPLICATES", 1usize, 16usize)?.unwrap_or(2))
}

/// Outcome of argument parsing.
#[derive(Debug, PartialEq, Eq)]
enum Parsed {
    /// Run the experiment, optionally writing JSON to the path.
    Run(Option<String>),
    /// Print the usage text and exit successfully.
    Help(String),
}

/// Parses the binary's arguments: `--json [PATH]` (defaulting the path to
/// `<name>.json`) and `--help`. Pure function of its arguments; [`run`]
/// falls back to the `PDQ_JSON` environment variable when the flag is
/// absent.
fn parse_args(
    experiment: Experiment,
    args: impl Iterator<Item = String>,
) -> Result<Parsed, String> {
    let mut json_path = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().expect("peeked"),
                    _ => format!("{}.json", experiment.name()),
                });
            }
            "--help" | "-h" => {
                return Ok(Parsed::Help(format!(
                    "usage: {} [--json [PATH]]\n\
                     \n\
                     Writes the experiment's results as JSON to PATH (default\n\
                     {}.json) in addition to the text tables. Environment:\n\
                     PDQ_JSON=PATH same as --json PATH; PDQ_SCALE=F workload\n\
                     scale in [0.05, 4.0]; PDQ_WORKERS=N sweep worker threads\n\
                     in 1..=512; PDQ_REPLICATES=N sweep-grid replicates in\n\
                     1..=16 (default 2). Malformed or out-of-range values are\n\
                     rejected, not silently replaced.",
                    experiment.name(),
                    experiment.name(),
                )));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Parsed::Run(json_path))
}

/// Renders a two-panel figure as text.
fn figure_text(top: &FigureResult, bottom: &FigureResult) -> String {
    format!("{}\n{}", top.render(), bottom.render())
}

/// Packs a two-panel figure as JSON.
fn figure_json(top: &FigureResult, bottom: &FigureResult) -> JsonValue {
    JsonValue::object(vec![("top", top.to_json()), ("bottom", bottom.to_json())])
}

/// Runs the experiment's simulations on `engine` at `scale` with the default
/// two sweep-grid replicates. See [`execute_with`].
pub fn execute(
    experiment: Experiment,
    engine: &SweepEngine,
    scale: WorkloadScale,
) -> (String, JsonValue) {
    execute_with(experiment, engine, scale, 2)
}

/// Runs the experiment's simulations on `engine` at `scale` (with
/// `replicates` sweep-grid replicates) and returns the text report plus the
/// JSON payload.
pub fn execute_with(
    experiment: Experiment,
    engine: &SweepEngine,
    scale: WorkloadScale,
    replicates: usize,
) -> (String, JsonValue) {
    match experiment {
        Experiment::Table1 => {
            let text = format!(
                "{}Paper totals: S-COMA 440, Hurricane 584, Hurricane-1 1164 (400-MHz cycles).\n",
                pdq_hurricane::latency::render_table1(BlockSize::B64)
            );
            (text, table1_json(BlockSize::B64))
        }
        Experiment::Table2 => {
            let rows = table2(engine, scale);
            (render_table2(&rows), table2_json(&rows))
        }
        Experiment::Fig7 => {
            let (top, bottom) = fig7(engine, scale);
            (figure_text(&top, &bottom), figure_json(&top, &bottom))
        }
        Experiment::Fig8 => {
            let (top, bottom) = fig8(engine, scale);
            (figure_text(&top, &bottom), figure_json(&top, &bottom))
        }
        Experiment::Fig9 => {
            let (top, bottom) = fig9(engine, scale);
            (figure_text(&top, &bottom), figure_json(&top, &bottom))
        }
        Experiment::Fig10 => {
            let (top, bottom) = fig10(engine, scale);
            (figure_text(&top, &bottom), figure_json(&top, &bottom))
        }
        Experiment::Fig11 => {
            let (top, bottom) = fig11(engine, scale);
            (figure_text(&top, &bottom), figure_json(&top, &bottom))
        }
        Experiment::Headline => {
            let result = headline(engine, scale);
            (result.render(), result.to_json())
        }
        Experiment::AblationSearchWindow => {
            let result = ablation_search_window(engine, scale);
            (result.render(), result.to_json())
        }
        Experiment::ExecutorScaling => {
            let result = executor_scaling(scale);
            (render_executor_scaling(&result), result.to_json())
        }
        Experiment::Sweep => {
            let result = sweep_grid(engine, scale, replicates);
            (result.render(), result.to_json())
        }
        Experiment::All => {
            let mut text = format!(
                "PDQ reproduction: all experiments (workload scale {})\n\n",
                scale.0
            );
            let mut sections: Vec<(&str, JsonValue)> = Vec::new();
            for part in Experiment::ALL_PARTS {
                let (part_text, part_json) = execute_with(part, engine, scale, replicates);
                text.push_str(&format!("[{}]\n{}\n", part.name(), part_text));
                sections.push((part.name(), part_json));
            }
            let stats = engine.stats();
            text.push_str(&format!(
                "Sweep cache: {} unique cells simulated, {} reused across figures ({} workers)\n",
                stats.misses,
                stats.hits,
                engine.workers()
            ));
            (text, JsonValue::object(sections))
        }
    }
}

/// Table 1 as structured JSON: one object per machine with the per-action
/// breakdown and the total.
fn table1_json(block_size: BlockSize) -> JsonValue {
    JsonValue::Array(
        pdq_hurricane::latency::table1(block_size)
            .into_iter()
            .map(|row| {
                let b = row.breakdown;
                JsonValue::object(vec![
                    ("engine", format!("{:?}", row.engine).into()),
                    ("detect_miss", b.detect_miss.as_u64().into()),
                    ("request_dispatch", b.request_dispatch.as_u64().into()),
                    ("request_body", b.request_body.as_u64().into()),
                    ("network", b.network.as_u64().into()),
                    ("reply_dispatch", b.reply_dispatch.as_u64().into()),
                    ("reply_directory", b.reply_directory.as_u64().into()),
                    ("reply_data", b.reply_data.as_u64().into()),
                    ("response_dispatch", b.response_dispatch.as_u64().into()),
                    ("response_body", b.response_body.as_u64().into()),
                    ("resume", b.resume.as_u64().into()),
                    ("complete_load", b.complete_load.as_u64().into()),
                    ("total", row.total().as_u64().into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_stable() {
        assert_eq!(Experiment::Fig7.name(), "fig7");
        assert_eq!(Experiment::Sweep.name(), "sweep");
        assert_eq!(Experiment::All.name(), "all_experiments");
    }

    #[test]
    fn all_parts_is_canonical() {
        // No duplicates, never the recursive All variant, and every entry
        // has a distinct report name.
        let names: std::collections::BTreeSet<&str> =
            Experiment::ALL_PARTS.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Experiment::ALL_PARTS.len());
        assert!(!Experiment::ALL_PARTS.contains(&Experiment::All));
    }

    #[test]
    fn parse_args_handles_the_json_flag() {
        let parse = |args: &[&str]| {
            parse_args(
                Experiment::Fig7,
                args.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .into_iter(),
            )
        };
        assert_eq!(parse(&[]), Ok(Parsed::Run(None)));
        assert_eq!(
            parse(&["--json"]),
            Ok(Parsed::Run(Some("fig7.json".to_string())))
        );
        assert_eq!(
            parse(&["--json", "out.json"]),
            Ok(Parsed::Run(Some("out.json".to_string())))
        );
        assert!(parse(&["--bogus"]).is_err());
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help(_))));
    }

    #[test]
    fn env_values_are_validated_not_silently_defaulted() {
        // Unset / empty fall back to "not provided".
        assert_eq!(parse_env_value("PDQ_WORKERS", None, 1usize, 512), Ok(None));
        assert_eq!(
            parse_env_value("PDQ_WORKERS", Some(""), 1usize, 512),
            Ok(None)
        );
        // Well-formed, in-range values pass through.
        assert_eq!(
            parse_env_value("PDQ_WORKERS", Some("8"), 1usize, 512),
            Ok(Some(8))
        );
        assert_eq!(
            parse_env_value("PDQ_SCALE", Some("0.25"), 0.05f64, 4.0),
            Ok(Some(0.25))
        );
        // Malformed values are rejected with the variable name and range.
        let err = parse_env_value("PDQ_WORKERS", Some("four"), 1usize, 512).unwrap_err();
        assert!(err.contains("PDQ_WORKERS=four"), "{err}");
        assert!(err.contains("1..=512"), "{err}");
        let err = parse_env_value("PDQ_SCALE", Some("fast"), 0.05f64, 4.0).unwrap_err();
        assert!(err.contains("not a valid number"), "{err}");
        // Out-of-range values are rejected, not clamped.
        let err = parse_env_value("PDQ_REPLICATES", Some("0"), 1usize, 16).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_env_value("PDQ_REPLICATES", Some("99"), 1usize, 16).unwrap_err();
        assert!(err.contains("PDQ_REPLICATES=99"), "{err}");
        let err = parse_env_value("PDQ_SCALE", Some("9.5"), 0.05f64, 4.0).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // NaN parses as an f64 but must not satisfy the range check.
        let err = parse_env_value("PDQ_SCALE", Some("NaN"), 0.05f64, 4.0).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Negative worker counts are malformed for an unsigned parse.
        assert!(parse_env_value("PDQ_WORKERS", Some("-2"), 1usize, 512).is_err());
    }

    #[test]
    fn table1_json_includes_totals() {
        let json = table1_json(BlockSize::B64).render();
        assert!(json.contains("\"total\": 440"));
        assert!(json.contains("\"total\": 584"));
        assert!(json.contains("\"total\": 1164"));
    }

    #[test]
    fn quick_experiments_execute_with_text_and_json() {
        let engine = SweepEngine::with_workers(2);
        let (text, json) = execute(Experiment::Table2, &engine, WorkloadScale(0.05));
        assert!(text.contains("Table 2"));
        assert!(json.render().contains("measured_speedup"));
    }
}
