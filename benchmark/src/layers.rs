//! Isolated per-layer measurements: each function drives one layer's public
//! API in a tight loop over the workload's own inputs and returns
//! nanoseconds per operation. They run in the traced pass only, after the
//! served phases, so they never disturb an end-to-end number.

use std::hint::black_box;
use std::io;

use pdq_core::executor::{build_executor, ExecutorSpec};
use pdq_core::{DispatchQueue, QueueConfig, QueueStats, SyncKey};
use pdq_dsm::ProtocolEvent;
use pdq_metrics::Histogram;
use pdq_workloads::service::{decode_request, encode_event_request};
use pdq_workloads::{
    BatchService, ExecutorService, FrameDecoder, FrameEncoder, Reply, ServerState,
};

use crate::clock::now_ns;
use crate::wire::{push_frame, RequestPool, ACK_FRAME_LEN, BLOCKS};

/// Repeats `pass` (which performs `ops` operations) until `budget_ns` has
/// been spent, and returns the fastest pass in nanoseconds per operation —
/// interference only ever adds time.
pub fn ns_per_op(budget_ns: u64, ops: usize, mut pass: impl FnMut()) -> f64 {
    let deadline = now_ns() + budget_ns;
    let mut best = f64::INFINITY;
    loop {
        let t0 = now_ns();
        pass();
        let t1 = now_ns();
        best = best.min((t1 - t0) as f64 / ops.max(1) as f64);
        if t1 >= deadline {
            return best;
        }
    }
}

/// An ack payload as the server encodes it.
fn ack_payload(reply: &Reply) -> [u8; 11] {
    let mut payload = [0u8; 11];
    payload[0] = 0x81;
    payload[2] = reply.class;
    payload[3..].copy_from_slice(&reply.digest.to_le_bytes());
    payload
}

/// `transport`: staging and un-staging the request + ack byte stream of
/// `pool` through `FrameEncoder` / `FrameDecoder`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCosts {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub wire_bytes_per_event: f64,
}

pub fn transport(pool: &RequestPool, budget_ns: u64) -> TransportCosts {
    let requests: Vec<Vec<u8>> = pool.events.iter().map(encode_event_request).collect();
    let acks: Vec<[u8; 11]> = pool.replies.iter().map(ack_payload).collect();
    let frames = requests.len() + acks.len();
    let mut stream = Vec::new();
    for (request, ack) in requests.iter().zip(&acks) {
        push_frame(&mut stream, request);
        push_frame(&mut stream, ack);
    }
    let encode = ns_per_op(budget_ns, frames, || {
        let mut encoder = FrameEncoder::new();
        for (request, ack) in requests.iter().zip(&acks) {
            encoder.push_frame(request).expect("small frame");
            encoder.push_frame(ack).expect("small frame");
            if encoder.staged() >= 32 * 1024 {
                encoder.write_to(&mut io::sink()).expect("sink accepts");
            }
        }
        encoder.write_to(&mut io::sink()).expect("sink accepts");
    });
    let decode = ns_per_op(budget_ns, frames, || {
        let mut decoder = FrameDecoder::new();
        let mut reader = &stream[..];
        let mut seen = 0;
        loop {
            let status = decoder.fill_from(&mut reader).expect("slice reads");
            while let Some(frame) = decoder.next_frame().expect("well-formed") {
                black_box(&frame);
                seen += 1;
            }
            if status.eof {
                break;
            }
        }
        assert_eq!(seen, frames, "decoder lost frames");
    });
    TransportCosts {
        encode_ns_per_frame: encode,
        decode_ns_per_frame: decode,
        wire_bytes_per_event: pool.mean_frame_bytes() + ACK_FRAME_LEN as f64,
    }
}

/// `service`: the request codec, the reply digest and `prepare`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCosts {
    pub encode_request_ns: f64,
    pub decode_request_ns: f64,
    pub reply_digest_ns: f64,
    pub prepare_ns: f64,
}

pub fn service(pool: &RequestPool, budget_ns: u64) -> ServiceCosts {
    let events = &pool.events;
    let payloads: Vec<Vec<u8>> = events.iter().map(encode_event_request).collect();
    let encode_request_ns = ns_per_op(budget_ns, events.len(), || {
        for event in events {
            black_box(encode_event_request(black_box(event)));
        }
    });
    let decode_request_ns = ns_per_op(budget_ns, events.len(), || {
        for payload in &payloads {
            black_box(decode_request(black_box(payload)).expect("own encoding decodes"));
        }
    });
    let reply_digest_ns = ns_per_op(budget_ns, events.len(), || {
        for event in events {
            black_box(Reply::for_event(black_box(event)));
        }
    });
    let mut executor =
        build_executor("pdq", &ExecutorSpec::new(1).capacity(512)).expect("pdq is registered");
    let prepare_ns = {
        let service = ExecutorService::new(&*executor, BLOCKS);
        ns_per_op(budget_ns, events.len(), || {
            for event in events {
                drop(black_box(service.prepare(*event)));
            }
        })
    };
    executor.shutdown();
    ServiceCosts {
        encode_request_ns,
        decode_request_ns,
        reply_digest_ns,
        prepare_ns,
    }
}

/// `protocol_server`: the handler body alone, in a loop.
pub fn handler_isolated_ns(events: &[ProtocolEvent], budget_ns: u64) -> f64 {
    let state = ServerState::new(BLOCKS);
    ns_per_op(budget_ns, events.len(), || {
        for event in events {
            state.handle(black_box(event));
        }
    })
}

/// `metrics`: one histogram record.
pub fn histogram_record_ns(budget_ns: u64) -> f64 {
    let histogram = Histogram::new();
    let ops = 100_000;
    ns_per_op(budget_ns, ops, || {
        for i in 0..ops as u64 {
            histogram.record(black_box(i.wrapping_mul(0x9e37_79b9) & 0xf_ffff));
        }
    })
}

/// `queue`: the dispatch queue driven single-threaded with a key stream.
#[derive(Debug, Clone, Default)]
pub struct QueueCosts {
    pub enqueue_ns: f64,
    pub dispatch_ns: f64,
    pub complete_ns: f64,
    pub stats: QueueStats,
}

impl QueueCosts {
    fn per_kevent(&self, count: u64) -> f64 {
        count as f64 * 1e3 / self.stats.enqueued.max(1) as f64
    }

    pub fn key_conflicts_per_kevent(&self) -> f64 {
        self.per_kevent(self.stats.key_conflicts)
    }

    pub fn sequential_stalls_per_kevent(&self) -> f64 {
        self.per_kevent(self.stats.sequential_stalls)
    }

    /// Dispatch attempts that found nothing, as a share of all attempts.
    pub fn empty_dispatch_share(&self) -> f64 {
        let attempts = self.stats.dispatched + self.stats.empty_dispatches;
        self.stats.empty_dispatches as f64 / attempts.max(1) as f64
    }
}

/// Feeds `keys` through a capacity-512 `DispatchQueue` the way `workers`
/// handlers would: enqueue a batch of 64, dispatch until nothing is ready or
/// `workers` handlers are in flight, complete them, repeat. Each of the three
/// operations is timed around its own inner loop; the counts in
/// [`QueueCosts::stats`] are exact and repeat for a given key stream.
pub fn queue(keys: &[SyncKey], workers: usize, budget_ns: u64) -> QueueCosts {
    let mut costs = QueueCosts {
        enqueue_ns: f64::INFINITY,
        dispatch_ns: f64::INFINITY,
        complete_ns: f64::INFINITY,
        ..QueueCosts::default()
    };
    let deadline = now_ns() + budget_ns;
    loop {
        let mut q: DispatchQueue<u32> =
            DispatchQueue::with_config(QueueConfig::new().capacity(512));
        let (mut enq_ns, mut disp_ns, mut comp_ns) = (0u64, 0u64, 0u64);
        let (mut dispatch_calls, mut completes) = (0u64, 0u64);
        let mut tickets = Vec::with_capacity(workers);
        let mut run_handlers = |q: &mut DispatchQueue<u32>, until_empty: bool| loop {
            let t0 = now_ns();
            while tickets.len() < workers {
                dispatch_calls += 1;
                match q.try_dispatch() {
                    Some(dispatch) => tickets.push(dispatch.ticket),
                    None => break,
                }
            }
            let t1 = now_ns();
            completes += tickets.len() as u64;
            for ticket in tickets.drain(..) {
                q.complete(ticket).expect("a ticket just handed out");
            }
            let t2 = now_ns();
            disp_ns += t1 - t0;
            comp_ns += t2 - t1;
            if q.is_empty() || (!until_empty && q.len() <= 512 - 64) {
                break;
            }
        };
        for chunk in keys.chunks(64) {
            let t0 = now_ns();
            for (i, key) in chunk.iter().enumerate() {
                q.enqueue(*key, i as u32).expect("room was made below");
            }
            enq_ns += now_ns() - t0;
            run_handlers(&mut q, false);
        }
        run_handlers(&mut q, true);
        costs.enqueue_ns = costs
            .enqueue_ns
            .min(enq_ns as f64 / keys.len().max(1) as f64);
        costs.dispatch_ns = costs
            .dispatch_ns
            .min(disp_ns as f64 / dispatch_calls.max(1) as f64);
        costs.complete_ns = costs
            .complete_ns
            .min(comp_ns as f64 / completes.max(1) as f64);
        costs.stats = q.stats();
        if now_ns() >= deadline {
            return costs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_micro_counts_repeat_exactly_and_drain_fully() {
        let pool = RequestPool::generate(3, 0, 4_000);
        let keys: Vec<SyncKey> = pool.events.iter().map(ProtocolEvent::sync_key).collect();
        let a = queue(&keys, 2, 1_000_000);
        let b = queue(&keys, 2, 1_000_000);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.enqueued, 4_000);
        assert_eq!(a.stats.completed, 4_000);
        assert!(a.stats.sequential_handlers > 0);
        assert!(a.enqueue_ns.is_finite() && a.dispatch_ns > 0.0 && a.complete_ns > 0.0);
        assert!((0.0..1.0).contains(&a.empty_dispatch_share()));
    }

    #[test]
    fn layer_micros_return_positive_finite_costs() {
        let pool = RequestPool::generate(4, 1, 500);
        let t = transport(&pool, 200_000);
        assert!(t.encode_ns_per_frame > 0.0 && t.decode_ns_per_frame > 0.0);
        assert!(t.wire_bytes_per_event > ACK_FRAME_LEN as f64 + 10.0);
        let s = service(&pool, 200_000);
        for cost in [
            s.encode_request_ns,
            s.decode_request_ns,
            s.reply_digest_ns,
            s.prepare_ns,
        ] {
            assert!(cost.is_finite() && cost > 0.0);
        }
        assert!(handler_isolated_ns(&pool.events, 200_000) > 0.0);
        assert!(histogram_record_ns(200_000) > 0.0);
    }
}
