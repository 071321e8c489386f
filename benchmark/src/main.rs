//! `pdq-benchmark`: the repo's standing benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pdq-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! pdq-benchmark run [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--out FILE]
//!                                                                   all four workloads, each run in a fresh process
//! pdq-benchmark run --smoke                                         the same in under 25 s, correctness only
//! pdq-benchmark compare A.json B.json                               judge B against A by the benchmark's bounds
//! ```

mod clock;
mod compare;
mod cpu;
mod json;
mod layers;
mod loadgen;
mod published;
mod report;
mod span;
mod stats;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use report::{END_TO_END, WORKLOADS};
use workloads::Plan;

/// Seconds one run measures unless told otherwise; `BENCHMARK.json` records
/// the same number as `run_seconds`.
const DEFAULT_SECONDS: u64 = 30;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        runs: 1,
        ..Args::default()
    };
    let mut raw = raw.peekable();
    if raw.peek().is_some_and(|first| !first.starts_with("--")) {
        args.command = raw.next();
    }
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--smoke" => args.smoke = true,
            "--runs" => args.runs = number("--runs", value("--runs")?)?.max(1) as usize,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            other if !other.starts_with("--") && args.command.as_deref() == Some("compare") => {
                args.files.push(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn results_dir() -> &'static Path {
    Path::new("benchmark/results")
}

fn last_result_path(workload: &str, traced: bool) -> PathBuf {
    results_dir().join(format!(
        "last-{workload}{}.json",
        if traced { "-traced" } else { "" }
    ))
}

/// One workload in this process: the driver's entry point.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let plan = Plan::new(
        args.seed,
        args.seconds.unwrap_or(DEFAULT_SECONDS),
        args.trace,
        args.smoke,
    );
    let Some(result) = workloads::run(workload, &plan) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("pdq-benchmark: unknown workload {workload:?}; the workloads are {names:?}");
        return ExitCode::from(2);
    };
    print!("{}", result.render_table());
    let path = last_result_path(workload, args.trace);
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, result.to_json().render_pretty()));
    if let Err(e) = written {
        eprintln!("pdq-benchmark: could not write {}: {e}", path.display());
    }
    println!("{}", result.contract_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a fresh child process and reads back its full result.
fn run_child(workload: &str, seed: u64, traced: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let path = last_result_path(workload, traced);
    let _ = std::fs::remove_file(&path);
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{workload} (exit {status}) left no result at {}: {e}",
            path.display()
        )
    })?;
    Json::parse(&text)
}

/// All four workloads, `--runs` untraced runs each (seeds `seed`,
/// `seed + 1`, ...) and, with `--trace 1`, one traced run.
fn run_all(args: &Args) -> ExitCode {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut collect = |seed: u64, traced: bool| match run_child(workload, seed, traced, args) {
            Ok(run) => {
                all_correct &= run.get("correct") == Some(&Json::Bool(true));
                run
            }
            Err(e) => {
                eprintln!("pdq-benchmark: {e}");
                all_correct = false;
                Json::Null
            }
        };
        let untraced: Vec<Json> = (0..args.runs as u64)
            .map(|k| collect(args.seed + k, false))
            .collect();
        let traced = if args.trace {
            collect(args.seed, true)
        } else {
            Json::Null
        };
        workloads.push((
            workload.to_string(),
            Json::obj(vec![("untraced", Json::Arr(untraced)), ("traced", traced)]),
        ));
    }
    let bounds = END_TO_END
        .iter()
        .map(|m| (m.name, Json::from(m.bound)))
        .collect();
    let set = Json::obj(vec![
        ("schema", "pdq-benchmark/1".into()),
        (
            "fingerprint",
            cpu::fingerprint(workloads::EXECUTOR, "all", cpu::nproc(), args.seed),
        ),
        ("seconds", args.seconds.unwrap_or(DEFAULT_SECONDS).into()),
        ("runs", args.runs.into()),
        ("smoke", args.smoke.into()),
        ("bounds", Json::obj(bounds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join("latest.json"));
    match std::fs::write(&out, set.render_pretty()) {
        Ok(()) => println!("result set: {}", out.display()),
        Err(e) => {
            eprintln!("pdq-benchmark: could not write {}: {e}", out.display());
            all_correct = false;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("usage: pdq-benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, pass) = compare::compare(&a, &b);
            print!("{text}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pdq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    clock::now_ns();
    cpu::register_harness_thread();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pdq-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("compare"), _) => compare_files(&args.files),
        (None | Some("run"), Some(workload)) => run_one(workload, &args),
        (None | Some("run"), None) => run_all(&args),
        (Some(other), _) => {
            eprintln!("pdq-benchmark: unknown command {other:?}");
            ExitCode::from(2)
        }
    }
}
