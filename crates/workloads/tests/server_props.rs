//! Property and integration tests for the multi-connection server layer:
//! concurrent-client determinism across every registry executor (ring fast
//! path on and off), resumable-codec chunking under arbitrary frame/chunk
//! sizes, crash recovery of per-connection WALs over real TCP, and poll-tier
//! robustness to a peer that dies mid-frame.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
use pdq_workloads::service::{
    encode_aggregate_request, encode_drain_request, encode_event_request, encode_metrics_request,
};
use pdq_workloads::transport::{read_frame, write_frame};
use pdq_workloads::{
    client_config, generate_events, loopback_pair, merged_reference_aggregate, pool_wal_dir,
    recover_dir, reference_aggregate, replay, run_client_events, serve, serve_poll, serve_pool,
    ExecutorService, FrameDecoder, FrameEncoder, PollOptions, PoolOptions, PoolWal,
    ProtocolService, ServerConfig, ServerError, Transport,
};
use proptest::prelude::*;

fn tcp_client(
    addr: std::net::SocketAddr,
    events: &[pdq_dsm::ProtocolEvent],
    window: usize,
) -> Result<pdq_workloads::ClientReport, ServerError> {
    let stream = TcpStream::connect(addr).map_err(ServerError::Io)?;
    stream.set_nodelay(true).map_err(ServerError::Io)?;
    let mut transport = pdq_workloads::TcpTransport::new(stream).map_err(ServerError::Io)?;
    run_client_events(&mut transport, events, window, false)
}

/// Runs `clients` concurrent TCP clients against the given tier and returns
/// the merged aggregate (driver-side fetch after every connection drains).
fn merged_run(
    name: &str,
    base: &ServerConfig,
    clients: u64,
    poll: bool,
) -> pdq_workloads::ServerAggregate {
    let executor =
        build_executor(name, &ExecutorSpec::new(2).capacity(64)).expect("registry executor");
    let service = ExecutorService::new(executor.as_ref(), base.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let completed = std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || {
            if poll {
                serve_poll(&listener, service, &PollOptions::new(clients as usize, 2))
                    .map(|r| r.completed)
            } else {
                serve_pool(&listener, service, &PoolOptions::new(clients as usize, 8))
                    .map(|r| r.answered)
            }
        });
        let mut joined = Vec::new();
        for client in 0..clients {
            let events = generate_events(&client_config(base, client));
            joined.push(scope.spawn(move || tcp_client(addr, &events, 16)));
        }
        for handle in joined {
            handle.join().expect("client thread").expect("client ok");
        }
        server.join().expect("server thread").expect("server ok")
    });
    service.flush();
    service.aggregate(completed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N concurrent clients x all four registry executors:
    /// the merged aggregate is byte-identical to the sequential
    /// `reference_aggregate` fold of the concatenated client streams —
    /// whatever the interleaving the kernel and scheduler pick.
    #[test]
    fn concurrent_clients_merge_deterministically(
        clients in 2u64..=4,
        events in 60usize..=160,
        seed in 0u64..1000,
    ) {
        let base = ServerConfig::quick().events(events).seed(seed);
        let reference = merged_reference_aggregate(&base, clients);
        for name in EXECUTOR_NAMES {
            let pool = merged_run(name, &base, clients, false);
            prop_assert_eq!(pool, reference, "pool tier diverged on {}", name);
        }
        let poll = merged_run("sharded-pdq", &base, clients, true);
        prop_assert_eq!(poll, reference, "poll tier diverged");
    }

    /// The resumable decoder reassembles any frame sequence delivered in
    /// arbitrary chunk sizes, and the resumable encoder produces the same
    /// byte stream under any per-write acceptance window — the staged codec
    /// state machine is chunking-invariant.
    #[test]
    fn resumable_codec_is_chunking_invariant(
        payload_lens in proptest::collection::vec(0usize..300, 1..8),
        read_chunk in 1usize..17,
        write_chunk in 1usize..17,
        seed in 0u64..1000,
    ) {
        // Deterministic payload bytes from the seed.
        let payloads: Vec<Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                (0..len).map(|j| (seed as usize + i * 31 + j) as u8).collect()
            })
            .collect();

        // Encode through a writer that accepts at most `write_chunk` bytes
        // per call and interleaves WouldBlock refusals.
        struct Dribble<'a> {
            out: &'a mut Vec<u8>,
            chunk: usize,
            block_next: bool,
        }
        impl Write for Dribble<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.block_next, false) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let n = buf.len().min(self.chunk);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Vec::new();
        let mut encoder = FrameEncoder::new();
        {
            let mut w = Dribble { out: &mut wire, chunk: write_chunk, block_next: false };
            for payload in &payloads {
                encoder.push_frame(payload).unwrap();
            }
            while !encoder.is_empty() {
                encoder.write_to(&mut w).unwrap();
            }
        }

        // Decode through a reader that yields at most `read_chunk` bytes per
        // call with WouldBlock interleaved.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            chunk: usize,
            block_next: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.block_next, false) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut r = Trickle { data: &wire, pos: 0, chunk: read_chunk, block_next: false };
        let mut decoder = FrameDecoder::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        loop {
            let status = decoder.fill_from(&mut r).unwrap();
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
            if status.eof {
                break;
            }
        }
        prop_assert!(!decoder.has_partial(), "stream must end on a frame boundary");
        prop_assert_eq!(decoded, payloads);
    }
}

/// Crash-recovery smoke over real TCP: every connection of a pool server
/// write-ahead-logs into its own `conn-NNNN` directory with an armed torn
/// crash; each recovered log replays to the reference fold of a prefix of
/// exactly one client's stream.
#[test]
fn pool_wal_crash_recovery_over_tcp() {
    let clients = 3u64;
    let base = ServerConfig::quick().events(400);
    let tmp = std::env::temp_dir().join(format!("pdq-server-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let executor = build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("executor");
    let service = ExecutorService::new(executor.as_ref(), base.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let opts = PoolOptions {
        window: 8,
        accept: clients as usize,
        wal: Some(PoolWal {
            root: tmp.clone(),
            blocks: base.blocks,
            sync_every: 16,
            snapshot_every: 0,
            crash_after: Some(100),
        }),
    };
    let server_outcome = std::thread::scope(|scope| {
        let service = &service;
        let opts = &opts;
        let server = scope.spawn(move || serve_pool(&listener, service, opts));
        let mut joined = Vec::new();
        for client in 0..clients {
            let events = generate_events(&client_config(&base, client));
            joined.push(scope.spawn(move || tcp_client(addr, &events, 16)));
        }
        for handle in joined {
            // Every client must die: its server connection crashed mid-log.
            assert!(
                handle.join().expect("client thread").is_err(),
                "a client survived its server's armed WAL crash"
            );
        }
        server.join().expect("server thread")
    });
    assert!(
        server_outcome.is_err(),
        "serve_pool must surface the armed WAL crash"
    );

    // Each per-connection log recovers a synced prefix of exactly one
    // client's deterministic stream, and replays to that prefix's reference
    // fold. Accept order is nondeterministic, so match each log against all
    // client streams — but demand each stream is matched exactly once.
    let streams: Vec<Vec<pdq_dsm::ProtocolEvent>> = (0..clients)
        .map(|c| generate_events(&client_config(&base, c)))
        .collect();
    let mut matched = vec![false; streams.len()];
    for conn in 0..clients {
        let dir = pool_wal_dir(&tmp, conn as usize);
        let recovery = recover_dir(&dir).expect("per-connection log must exist");
        assert!(recovery.total_events > 0, "conn {conn} recovered nothing");
        let owner = streams
            .iter()
            .position(|s| recovery.suffix.as_slice() == &s[..recovery.suffix.len()])
            .unwrap_or_else(|| panic!("conn {conn} log is not a prefix of any client stream"));
        assert!(
            !std::mem::replace(&mut matched[owner], true),
            "two connection logs recovered the same client stream"
        );
        let replay_executor =
            build_executor("multiqueue", &ExecutorSpec::new(2).capacity(64)).expect("executor");
        let recovered = replay(&recovery, replay_executor.as_ref()).expect("replay");
        let reference = reference_aggregate(
            &streams[owner][..recovery.total_events as usize],
            base.blocks,
        );
        assert_eq!(
            recovered, reference,
            "conn {conn} replay diverged from its prefix reference"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A peer that sends half a frame and vanishes must cost the poll server
/// exactly one torn connection: the well-behaved client on the same worker
/// still completes, and the failure is counted.
#[test]
fn poll_survives_a_mid_frame_disconnect() {
    let cfg = ServerConfig::quick().events(200);
    let executor =
        build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(64)).expect("executor");
    let service = ExecutorService::new(executor.as_ref(), cfg.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let events = generate_events(&cfg);
    let report = std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || serve_poll(&listener, service, &PollOptions::new(2, 1)));
        // The saboteur: a length prefix promising 40 bytes, then 3 bytes,
        // then a hard close.
        let saboteur = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(&[40u8, 0, 0, 0, 0x01, 0xAA, 0xBB])
                .expect("partial frame");
            drop(stream);
        });
        let good = scope.spawn({
            let events = &events;
            move || tcp_client(addr, events, 16)
        });
        saboteur.join().expect("saboteur thread");
        let good_report = good.join().expect("client thread").expect("good client ok");
        assert_eq!(good_report.acked, cfg.events as u64);
        server.join().expect("server thread").expect("server ok")
    });
    assert_eq!(report.connections, 2);
    assert_eq!(
        report.failed, 1,
        "the torn peer must cost exactly one connection"
    );
    assert_eq!(report.events, cfg.events as u64);
    service.flush();
    assert_eq!(
        service.aggregate(report.completed),
        reference_aggregate(&events, cfg.blocks)
    );
}

/// Serves one TCP connection on the pool tier (`poll` false) or the poll
/// tier, writes `wire` in chunks of the given sizes (cycled), and reads
/// `replies` frames back with a 5 s timeout, so a reply the server never
/// sends fails the test instead of hanging it. Returns the reply bytes.
fn tcp_script(poll: bool, wire: &[u8], chunks: &[usize], replies: usize) -> Vec<u8> {
    let blocks = ServerConfig::quick().blocks;
    let executor =
        build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("registry executor");
    let service = ExecutorService::new(executor.as_ref(), blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || {
            if poll {
                serve_poll(&listener, service, &PollOptions::new(1, 1)).map(|_| ())
            } else {
                serve_pool(&listener, service, &PoolOptions::new(1, 8)).map(|_| ())
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("read timeout");
        let mut rest = wire;
        for &chunk in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at(chunk.clamp(1, rest.len()));
            stream.write_all(now).expect("request bytes");
            rest = later;
        }
        let mut bytes = Vec::new();
        for n in 0..replies {
            let frame = read_frame(&mut stream)
                .unwrap_or_else(|e| panic!("reply {n} of {replies} (poll={poll}): {e}"))
                .expect("a reply frame");
            write_frame(&mut bytes, &frame).unwrap();
        }
        drop(stream);
        server.join().expect("server thread").expect("server ok");
        bytes
    })
}

fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in payloads {
        write_frame(&mut wire, payload).unwrap();
    }
    wire
}

/// Three events, then two aggregate requests in the same write: each
/// aggregate gets its own reply, on both tiers — five frames.
#[test]
fn repeated_aggregates_get_one_reply_each_on_both_tiers() {
    let events = generate_events(&ServerConfig::quick().events(3));
    let mut requests: Vec<Vec<u8>> = events.iter().map(encode_event_request).collect();
    requests.push(encode_aggregate_request());
    requests.push(encode_aggregate_request());
    let wire = framed(&requests);
    for poll in [false, true] {
        let replies = tcp_script(poll, &wire, &[wire.len()], 5);
        let mut bytes = std::io::Cursor::new(replies);
        let tags: Vec<u8> = std::iter::from_fn(|| read_frame(&mut bytes).unwrap())
            .map(|frame| frame[0])
            .collect();
        assert_eq!(tags, [0x81, 0x81, 0x81, 0x82, 0x82], "poll={poll}");
    }
}

/// One request script — events written in uneven chunks, a metrics probe
/// while no acks are outstanding, a drain, more events and a final
/// aggregate — gets the same reply bytes from the blocking driver over a
/// loopback pair and from the readiness driver over TCP.
#[test]
fn both_drivers_emit_the_same_reply_bytes() {
    let events = generate_events(&ServerConfig::quick().events(300));
    let mut requests = vec![encode_metrics_request()];
    requests.extend(events[..120].iter().map(encode_event_request));
    requests.push(encode_drain_request());
    requests.extend(events[120..].iter().map(encode_event_request));
    requests.push(encode_aggregate_request());
    // Replies: the metrics text (empty: unobserved), every ack, the
    // aggregate. The drain has no frame of its own.
    let replies = 1 + events.len() + 1;

    let executor =
        build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("registry executor");
    let service = ExecutorService::new(executor.as_ref(), ServerConfig::quick().blocks);
    let (mut client_end, mut server_end) = loopback_pair();
    let blocking = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&service, &mut server_end, 16));
        for request in &requests {
            client_end.send(request).expect("request");
        }
        let mut bytes = Vec::new();
        for _ in 0..replies {
            let frame = client_end.recv().expect("reply").expect("a reply frame");
            write_frame(&mut bytes, &frame).unwrap();
        }
        drop(client_end);
        server.join().expect("server thread").expect("server ok");
        bytes
    });

    let wire = framed(&requests);
    for chunks in [
        vec![wire.len()],
        vec![1, 7, 300, 2, 4096],
        vec![3, 5, 11, 13],
    ] {
        let readiness = tcp_script(true, &wire, &chunks, replies);
        assert!(
            readiness == blocking,
            "reply bytes differ (chunks {chunks:?})"
        );
    }
}
