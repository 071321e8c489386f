//! A protocol server on the executor trait: a deterministic stream of
//! fine-grain DSM protocol events driven through any executor — selected by
//! name — as typed request/response calls, over a choice of transports.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example protocol_server -- [--executor NAME|all] \
//!     [--transport inproc|loopback|tcp] [--events N] [--json PATH]
//! ```
//!
//! where `NAME` is one of `pdq`, `sharded-pdq`, `spinlock`, `multiqueue`
//! (default: `all`, which runs every executor and checks their aggregates
//! agree) and the transport selects how events reach the executor:
//!
//! * `inproc` (default) — the in-process driver (`run_server`): events are
//!   generated and submitted directly, no frames involved;
//! * `loopback` — a real client/server split over the in-memory framed
//!   transport: events are encoded, framed, decoded, dispatched via
//!   `submit_async_returning`, and each reply is acked back;
//! * `tcp` — the same client/server split over a real `127.0.0.1` TCP
//!   socket, served by the multi-connection pool server (`serve_pool`);
//!   `--clients N` runs N concurrent clients on per-client seeded streams
//!   and checks the merged aggregate against the sequential reference fold.
//!
//! The aggregate is executor-independent **and** transport-independent: CI
//! runs every executor under `PDQ_WORKERS=4` on both `inproc` and `tcp` and
//! diffs the JSON files byte for byte. `PDQ_WORKERS` sets the worker count
//! (default 4); with `--json PATH` the aggregate is written as JSON.
//!
//! Durability: `--wal DIR` writes every event to a write-ahead log (synced
//! every `--sync-every` events, snapshotted every `--snapshot-every`; `0`
//! disables snapshots) before the executor sees it; this needs a single
//! named `--executor` and a framed transport (`inproc` is upgraded to
//! `loopback`; `tcp` logs each connection into `DIR/conn-NNNN`).
//! `--crash-after N` kills the server with a torn half-record after event
//! `N` — the run exits successfully once the crash is confirmed.
//! `--recover` skips serving entirely: it loads the log(s) from `--wal DIR`
//! (single log or `conn-NNNN` per-connection logs; latest valid snapshot
//! plus the surviving suffix, torn tail truncated) and replays each through
//! the selected executors, checking they agree. `--trace PATH` (with
//! `--recover`) writes a JSONL recovery event log: one `recovery` event per
//! replayed log, with its event count and whether a torn tail was
//! truncated.

use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;

use pdq_repro::core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
use pdq_repro::workloads::serve_pool;
use pdq_repro::workloads::{
    client_config, generate_events, loopback_pair, merged_reference_aggregate, recover_dir, replay,
    run_client, run_client_events, run_server, serve, serve_observed, ClientReport, Durability,
    ExecutorService, Observability, PoolOptions, PoolWal, ProtocolService, ServerAggregate,
    ServerConfig, ServerError, TcpTransport, WalWriter,
};

/// Queue capacity bound (per queue/shard): small enough that the intake loop
/// regularly hits backpressure at the default event count.
const CAPACITY: usize = 64;
/// Maximum submissions in flight before the intake loop awaits the oldest
/// (in-process driver and transport client alike).
const WINDOW: usize = 256;
/// The server's reply window on framed transports. Strictly smaller than
/// [`WINDOW`]: the server acks request `i` once request `i + SERVICE_WINDOW`
/// arrives, so the client (which stalls after `WINDOW` unanswered requests)
/// always finds acks waiting.
const SERVICE_WINDOW: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    Inproc,
    Loopback,
    Tcp,
}

impl TransportKind {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "inproc" => Some(Self::Inproc),
            "loopback" => Some(Self::Loopback),
            "tcp" => Some(Self::Tcp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Inproc => "inproc",
            Self::Loopback => "loopback",
            Self::Tcp => "tcp",
        }
    }
}

/// Durability options parsed from `--wal` and friends.
#[derive(Debug)]
struct WalOpts {
    dir: std::path::PathBuf,
    sync_every: u64,
    snapshot_every: u64,
    crash_after: Option<u64>,
}

/// Runs the event stream of `cfg` against one executor over the selected
/// transport and returns the aggregate.
fn run_one(
    name: &str,
    workers: usize,
    cfg: &ServerConfig,
    transport: TransportKind,
    clients: usize,
    wal: Option<&WalOpts>,
) -> Option<Result<ServerAggregate, ServerError>> {
    let spec = ExecutorSpec::new(workers).capacity(CAPACITY);
    let mut pool = build_executor(name, &spec)?;
    let start = std::time::Instant::now();
    let outcome = match transport {
        TransportKind::Inproc => run_server(&*pool, cfg, WINDOW),
        TransportKind::Loopback => {
            let service = ExecutorService::new(&*pool, cfg.blocks);
            let (mut client_end, mut server_end) = loopback_pair();
            std::thread::scope(|scope| {
                let server = scope.spawn(move || match wal {
                    None => serve(&service, &mut server_end, SERVICE_WINDOW),
                    Some(opts) => {
                        let mut writer =
                            WalWriter::create(&opts.dir, cfg.blocks).map_err(ServerError::Io)?;
                        if let Some(n) = opts.crash_after {
                            writer.arm_crash_after_events(n);
                        }
                        let durability = Durability::Log {
                            wal: &mut writer,
                            sync_every: opts.sync_every,
                            snapshot_every: opts.snapshot_every,
                        };
                        serve_observed(&service, &mut server_end, SERVICE_WINDOW, durability, None)
                    }
                });
                let aggregate = run_client(&mut client_end, cfg, WINDOW);
                drop(client_end);
                match server.join().expect("server thread") {
                    Err(e) => Err(e),
                    Ok(_) => aggregate,
                }
            })
        }
        TransportKind::Tcp => {
            let service = ExecutorService::new(&*pool, cfg.blocks);
            let listener = match TcpListener::bind("127.0.0.1:0") {
                Ok(l) => l,
                Err(e) => return Some(Err(ServerError::Io(e))),
            };
            let addr = match listener.local_addr() {
                Ok(a) => a,
                Err(e) => return Some(Err(ServerError::Io(e))),
            };
            let pool_opts = PoolOptions {
                window: SERVICE_WINDOW,
                accept: clients,
                wal: wal.map(|opts| PoolWal {
                    root: opts.dir.clone(),
                    blocks: cfg.blocks,
                    sync_every: opts.sync_every,
                    snapshot_every: opts.snapshot_every,
                    crash_after: opts.crash_after,
                }),
            };
            if clients == 1 {
                // Connect *before* spawning the server (the listener's
                // backlog holds the connection): if the connect fails,
                // nothing is ever blocked in accept(), so the error
                // propagates instead of hanging the scope on server.join().
                let mut transport = match TcpStream::connect(addr).and_then(|stream| {
                    stream.set_nodelay(true).ok();
                    TcpTransport::new(stream)
                }) {
                    Ok(t) => t,
                    Err(e) => return Some(Err(ServerError::Io(e))),
                };
                std::thread::scope(|scope| {
                    let server = scope.spawn(|| serve_pool(&listener, &service, &pool_opts));
                    let aggregate = run_client(&mut transport, cfg, WINDOW);
                    drop(transport);
                    match server.join().expect("server thread") {
                        Err(e) => Err(e),
                        Ok(_) => aggregate,
                    }
                })
            } else {
                // N concurrent clients over one shared service: every client
                // streams its own seed-derived stream and drains its acks;
                // the merged aggregate is fetched once, driver-side, and
                // checked against the sequential reference fold.
                std::thread::scope(|scope| {
                    let server = scope.spawn(|| serve_pool(&listener, &service, &pool_opts));
                    let mut joined = Vec::with_capacity(clients);
                    for client in 0..clients as u64 {
                        let events = generate_events(&client_config(cfg, client));
                        joined.push(scope.spawn(move || -> Result<ClientReport, ServerError> {
                            let stream = TcpStream::connect(addr).map_err(ServerError::Io)?;
                            stream.set_nodelay(true).map_err(ServerError::Io)?;
                            let mut t = TcpTransport::new(stream).map_err(ServerError::Io)?;
                            run_client_events(&mut t, &events, WINDOW, false)
                        }));
                    }
                    let mut completed = 0u64;
                    let mut client_err: Option<ServerError> = None;
                    for handle in joined {
                        match handle.join().expect("client thread") {
                            Ok(report) => completed += report.acked - report.panicked,
                            Err(e) => {
                                client_err.get_or_insert(e);
                            }
                        }
                    }
                    server.join().expect("server thread")?;
                    if let Some(e) = client_err {
                        return Err(e);
                    }
                    service.flush();
                    let aggregate = service.aggregate(completed);
                    if aggregate != merged_reference_aggregate(cfg, clients as u64) {
                        return Err(ServerError::Protocol(
                            "merged aggregate diverged from the sequential reference fold".into(),
                        ));
                    }
                    Ok(aggregate)
                })
            }
        }
    };
    let elapsed = start.elapsed();
    if let Ok(aggregate) = &outcome {
        // The shared `ExecutorStats` Display — the same rendering every
        // driver uses, instead of ad-hoc per-example field formatting.
        println!(
            "[{name}/{}] {} events in {elapsed:.2?} ({:.0} events/sec)\n    {}",
            transport.name(),
            aggregate.events,
            aggregate.events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
            pool.stats(),
        );
    }
    pool.shutdown();
    Some(outcome)
}

/// The `conn-NNNN` per-connection log directories a pool server with `--wal`
/// leaves under `root` (empty when `root` itself holds a single log).
fn conn_log_dirs(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("conn-"))
        })
        .collect();
    dirs.sort();
    dirs
}

/// `--recover`: loads the log(s) under `dir` — either a single log or the
/// `conn-NNNN` per-connection logs a multi-client pool server left — replays
/// each through every selected executor, and checks the recovered aggregates
/// agree byte for byte.
fn run_recovery(
    dir: &std::path::Path,
    names: &[&str],
    workers: usize,
    json_path: Option<&str>,
    trace_path: Option<&str>,
) -> ExitCode {
    let obs = trace_path.map(|_| Observability::with_default_trace());
    let conn_dirs = conn_log_dirs(dir);
    let outcome = if !conn_dirs.is_empty() {
        println!(
            "recovering {} per-connection logs under {}\n",
            conn_dirs.len(),
            dir.display()
        );
        if let Some(path) = json_path {
            eprintln!(
                "--json exports one log; pass --wal {}/conn-NNNN to export one ({path} not written)",
                dir.display()
            );
            return ExitCode::from(2);
        }
        let mut result = Ok(());
        for conn_dir in &conn_dirs {
            if let Err(code) = recover_single(conn_dir, names, workers, None, obs.as_ref()) {
                result = Err(code);
                break;
            }
            println!();
        }
        result
    } else {
        recover_single(dir, names, workers, json_path, obs.as_ref())
    };
    if let (Some(path), Some(obs)) = (trace_path, &obs) {
        let trace = obs.trace().expect("trace attached");
        let text: String = trace.lines().iter().map(|l| format!("{l}\n")).collect();
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Recovers and replays the single log in `dir` (see [`run_recovery`]).
fn recover_single(
    dir: &std::path::Path,
    names: &[&str],
    workers: usize,
    json_path: Option<&str>,
    obs: Option<&Observability>,
) -> Result<(), ExitCode> {
    let recovery = match recover_dir(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("could not read the log in {}: {e}", dir.display());
            return Err(ExitCode::FAILURE);
        }
    };
    if let Some(obs) = obs {
        obs.recovery(
            &dir.display().to_string(),
            recovery.total_events,
            recovery.torn,
        );
    }
    println!(
        "recovered log: {} events over {} blocks ({} synced; {}; {})\n",
        recovery.total_events,
        recovery.blocks,
        recovery.synced_events,
        match &recovery.snapshot {
            Some(s) => format!(
                "snapshot at event {} plus {} replayed",
                s.events,
                recovery.suffix.len()
            ),
            None => format!("full replay of {} events", recovery.suffix.len()),
        },
        if recovery.torn {
            "torn tail truncated"
        } else {
            "clean tail"
        },
    );
    let mut aggregates: Vec<ServerAggregate> = Vec::new();
    for name in names {
        let spec = ExecutorSpec::new(workers).capacity(CAPACITY);
        let Some(mut pool) = build_executor(name, &spec) else {
            eprintln!("unknown executor `{name}` (one of {EXECUTOR_NAMES:?} or `all`)");
            return Err(ExitCode::from(2));
        };
        match replay(&recovery, &*pool) {
            Ok(aggregate) => {
                println!("[{name}/recover] replayed {} events", aggregate.events);
                aggregates.push(aggregate);
            }
            Err(e) => {
                eprintln!("[{name}/recover] replay failed: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
        pool.shutdown();
    }
    let first = aggregates[0];
    if aggregates.iter().any(|a| *a != first) {
        eprintln!("executors disagree on the recovered aggregate!");
        return Err(ExitCode::FAILURE);
    }
    println!(
        "\nrecovered aggregate (identical across the executors run):\n{}",
        first.render()
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, first.to_json_string()) {
            eprintln!("could not write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut executor = "all".to_string();
    let mut transport = TransportKind::Inproc;
    let mut json_path: Option<String> = None;
    let mut cfg = ServerConfig::new();
    let mut wal_dir: Option<std::path::PathBuf> = None;
    let mut sync_every = 32u64;
    let mut snapshot_every = 4_096u64;
    let mut crash_after: Option<u64> = None;
    let mut recover = false;
    let mut trace_path: Option<String> = None;
    let mut clients = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--executor" => match args.next() {
                Some(name) => executor = name,
                None => {
                    eprintln!("--executor needs a name (one of {EXECUTOR_NAMES:?} or `all`)");
                    return ExitCode::from(2);
                }
            },
            "--transport" => match args.next().as_deref().and_then(TransportKind::parse) {
                Some(kind) => transport = kind,
                None => {
                    eprintln!("--transport needs one of inproc|loopback|tcp");
                    return ExitCode::from(2);
                }
            },
            "--events" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(events) if events > 0 => cfg = cfg.events(events),
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--wal" => match args.next() {
                Some(dir) => wal_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("--wal needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--sync-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => sync_every = n,
                _ => {
                    eprintln!("--sync-every needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--snapshot-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => snapshot_every = n,
                None => {
                    eprintln!("--snapshot-every needs an integer (0 disables snapshots)");
                    return ExitCode::from(2);
                }
            },
            "--crash-after" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => crash_after = Some(n),
                None => {
                    eprintln!("--crash-after needs an event count");
                    return ExitCode::from(2);
                }
            },
            "--recover" => recover = true,
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace needs a path");
                    return ExitCode::from(2);
                }
            },
            "--clients" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => clients = n,
                _ => {
                    eprintln!("--clients needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: protocol_server [--executor NAME|all] \
                     [--transport inproc|loopback|tcp] [--clients N] [--events N] [--json PATH] \
                     [--wal DIR [--sync-every N] [--snapshot-every N] [--crash-after N]] \
                     [--recover --wal DIR [--trace PATH]]\n\
                     NAME is one of {EXECUTOR_NAMES:?}. PDQ_WORKERS sets the worker count.\n\
                     --clients N serves N concurrent TCP clients through the pool server \
                     (per-client seeded streams, driver-side merged aggregate); with --wal \
                     each connection logs into DIR/conn-NNNN."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Same rules as pdq_bench::runner's env validation (unset/empty means
    // the default; malformed or out-of-range is rejected) — the example
    // cannot reuse that code because the facade does not depend on
    // pdq-bench.
    let workers = match std::env::var("PDQ_WORKERS") {
        Err(_) => 4,
        Ok(v) if v.is_empty() => 4,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if (1..=512).contains(&n) => n,
            Ok(_) => {
                eprintln!("PDQ_WORKERS={v} is out of range (expected 1..=512)");
                return ExitCode::from(2);
            }
            Err(_) => {
                eprintln!("PDQ_WORKERS={v} is not a valid number (expected 1..=512)");
                return ExitCode::from(2);
            }
        },
    };

    let names: Vec<&str> = if executor == "all" {
        EXECUTOR_NAMES.to_vec()
    } else {
        vec![executor.as_str()]
    };

    if recover {
        let Some(dir) = &wal_dir else {
            eprintln!("--recover needs --wal DIR to know where the log lives");
            return ExitCode::from(2);
        };
        return run_recovery(
            dir,
            &names,
            workers,
            json_path.as_deref(),
            trace_path.as_deref(),
        );
    }
    if trace_path.is_some() {
        eprintln!("--trace records recovery events; it needs --recover");
        return ExitCode::from(2);
    }

    if clients > 1 && transport != TransportKind::Tcp {
        eprintln!("--clients N needs --transport tcp (the pool server serves real sockets)");
        return ExitCode::from(2);
    }
    let wal_opts = match wal_dir {
        None => {
            if crash_after.is_some() {
                eprintln!("--crash-after only makes sense with --wal DIR");
                return ExitCode::from(2);
            }
            None
        }
        Some(dir) => {
            if executor == "all" {
                eprintln!("--wal needs a single named --executor (one log, one server)");
                return ExitCode::from(2);
            }
            if transport == TransportKind::Inproc {
                println!("--wal upgrades the inproc transport to loopback (the log sits in the framed serve loop)\n");
                transport = TransportKind::Loopback;
            }
            Some(WalOpts {
                dir,
                sync_every,
                snapshot_every,
                crash_after,
            })
        }
    };

    println!(
        "protocol server: {} DSM events over {} blocks, {workers} workers, \
         transport {}, {clients} client(s), queue capacity {CAPACITY}, window {WINDOW}\n",
        cfg.events,
        cfg.blocks,
        transport.name()
    );

    let mut aggregates = Vec::new();
    for name in &names {
        match run_one(name, workers, &cfg, transport, clients, wal_opts.as_ref()) {
            Some(Ok(aggregate)) => aggregates.push(aggregate),
            Some(Err(e)) => {
                let armed_crash = wal_opts.as_ref().is_some_and(|o| o.crash_after.is_some())
                    && e.to_string().contains("crashed at the armed cut point");
                if armed_crash {
                    println!(
                        "[{name}/{}] server crashed at the armed cut point as requested; \
                         recover with `--recover --wal DIR`",
                        transport.name()
                    );
                    return ExitCode::SUCCESS;
                }
                eprintln!("[{name}/{}] server run failed: {e}", transport.name());
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("unknown executor `{name}` (one of {EXECUTOR_NAMES:?} or `all`)");
                return ExitCode::from(2);
            }
        }
    }

    let first = aggregates[0];
    if aggregates.iter().any(|a| *a != first) {
        eprintln!("executors disagree on the aggregate results!");
        return ExitCode::FAILURE;
    }
    println!(
        "\naggregate (identical across the executors run):\n{}",
        first.render()
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, first.to_json_string()) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
