//! The benchmark's side of the wire: pre-encoded request pools, the 11-byte
//! ack layout parsed from outside the crate (`decode_ack` is crate-private),
//! and the request id that rides in `AccessFault::token` on traced runs.

use pdq_dsm::ProtocolEvent;
use pdq_workloads::service::encode_event_request;
use pdq_workloads::{client_config, generate_events, Reply, ServerConfig};

/// Length of an ack frame's payload.
pub const ACK_LEN: usize = 11;
/// Length of an ack frame on the wire: 4-byte little-endian length + payload.
pub const ACK_FRAME_LEN: usize = 4 + ACK_LEN;
const REP_ACK: u8 = 0x81;
/// Ack status: the handler ran.
pub const ACK_DONE: u8 = 0;

/// A parsed per-event acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub status: u8,
    pub class: u8,
    pub digest: u64,
}

impl Ack {
    /// Whether this ack is the well-formed answer to a request expecting
    /// `reply`: handler done, right class, right digest.
    pub fn answers(&self, reply: &Reply) -> bool {
        self.status == ACK_DONE && self.class == reply.class && self.digest == reply.digest
    }
}

/// Parses an ack payload: tag `0x81`, status, class, little-endian digest.
///
/// # Errors
///
/// A description of the first field that is not an ack's.
pub fn parse_ack(payload: &[u8]) -> Result<Ack, String> {
    if payload.len() != ACK_LEN {
        return Err(format!(
            "ack payload is {} bytes, not {ACK_LEN}",
            payload.len()
        ));
    }
    if payload[0] != REP_ACK {
        return Err(format!("frame tag {:#x} is not an ack", payload[0]));
    }
    let mut digest = [0u8; 8];
    digest.copy_from_slice(&payload[3..11]);
    Ok(Ack {
        status: payload[1],
        class: payload[2],
        digest: u64::from_le_bytes(digest),
    })
}

/// Pops every complete ack frame off the front of `buf[..len]`, calls `on_ack`
/// for each, moves the unconsumed tail to the front and returns its length.
///
/// # Errors
///
/// A frame whose length prefix or payload is not an ack's.
pub fn drain_acks(
    buf: &mut [u8],
    len: usize,
    mut on_ack: impl FnMut(Ack),
) -> Result<usize, String> {
    let mut pos = 0;
    while len - pos >= ACK_FRAME_LEN {
        let prefix = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
        if prefix as usize != ACK_LEN {
            return Err(format!(
                "reply frame of {prefix} bytes where an ack was due"
            ));
        }
        on_ack(parse_ack(&buf[pos + 4..pos + ACK_FRAME_LEN])?);
        pos += ACK_FRAME_LEN;
    }
    buf.copy_within(pos..len, 0);
    Ok(len - pos)
}

/// Appends one length-prefixed request frame for `event`.
pub fn push_request_frame(out: &mut Vec<u8>, event: &ProtocolEvent) {
    push_frame(out, &encode_event_request(event));
}

/// Appends one length-prefixed frame.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Stamps `id` into the event if it can carry one (access faults, about half
/// of the mix); returns whether it did. The handler folds the token into the
/// block's value sum, so the reference must be computed *after* the rewrite.
pub fn set_request_id(event: &mut ProtocolEvent, id: u64) -> bool {
    match event {
        ProtocolEvent::AccessFault { token, .. } => {
            *token = id;
            true
        }
        _ => false,
    }
}

/// The request id an event carries, if it can carry one.
pub fn request_id(event: &ProtocolEvent) -> Option<u64> {
    match event {
        ProtocolEvent::AccessFault { token, .. } => Some(*token),
        _ => None,
    }
}

/// The service mix every server workload draws from: 8 nodes, 64 blocks,
/// 70 % of references on the hot eighth, 5 % `Sequential` page operations.
pub const BLOCKS: u64 = 64;

/// One connection's request stream, generated once from the seed and cycled:
/// the events, their frames back to back, and the reply each must get.
#[derive(Debug)]
pub struct RequestPool {
    pub events: Vec<ProtocolEvent>,
    frames: Vec<u8>,
    offsets: Vec<u32>,
    pub replies: Vec<Reply>,
}

impl RequestPool {
    /// The stream connection `client` of a run seeded `seed` sends:
    /// `generate_events` over `client_config`, exactly what the repo's own
    /// multi-client drivers use.
    pub fn generate(seed: u64, client: u64, events: usize) -> Self {
        let base = ServerConfig::new().seed(seed).events(events);
        let events = generate_events(&client_config(&base, client));
        let mut frames = Vec::with_capacity(events.len() * 36);
        let mut offsets = Vec::with_capacity(events.len() + 1);
        for event in &events {
            offsets.push(frames.len() as u32);
            push_request_frame(&mut frames, event);
        }
        offsets.push(frames.len() as u32);
        let replies = events.iter().map(Reply::for_event).collect();
        Self {
            events,
            frames,
            offsets,
            replies,
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The wire frame of event `index`.
    pub fn frame(&self, index: usize) -> &[u8] {
        &self.frames[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// Mean request frame size on the wire, in bytes.
    pub fn mean_frame_bytes(&self) -> f64 {
        self.frames.len() as f64 / self.len().max(1) as f64
    }

    /// The first `sent` events of the cycled stream, with the request ids a
    /// traced run stamped (`ids[k]` for the `k`-th send, `0` = none) applied
    /// — the exact multiset the server was given.
    pub fn sent_events<'a>(
        &'a self,
        sent: u64,
        ids: &'a [u32],
    ) -> impl Iterator<Item = ProtocolEvent> + 'a {
        (0..sent as usize).map(move |k| {
            let mut event = self.events[k % self.events.len()];
            if let Some(&id) = ids.get(k) {
                if id != 0 {
                    set_request_id(&mut event, u64::from(id));
                }
            }
            event
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_core::executor::{build_executor, ExecutorSpec};
    use pdq_workloads::service::{encode_aggregate_request, encode_drain_request};
    use pdq_workloads::transport::{read_frame, write_frame};
    use pdq_workloads::{loopback_pair, reference_aggregate, serve, ExecutorService, Transport};

    #[test]
    fn malformed_acks_are_rejected() {
        assert!(parse_ack(&[0x81, 0, 1]).is_err());
        let mut payload = vec![0x82, 0, 1];
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert!(parse_ack(&payload).is_err());
        payload[0] = 0x81;
        assert_eq!(
            parse_ack(&payload).unwrap(),
            Ack {
                status: 0,
                class: 1,
                digest: 7
            }
        );
    }

    #[test]
    fn drain_acks_keeps_the_partial_tail() {
        let mut stream = Vec::new();
        for digest in [1u64, 2, 3] {
            let mut payload = vec![0x81, 0, 2];
            payload.extend_from_slice(&digest.to_le_bytes());
            push_frame(&mut stream, &payload);
        }
        let cut = ACK_FRAME_LEN * 2 + 5;
        let mut buf = stream.clone();
        let mut seen = Vec::new();
        let rest = drain_acks(&mut buf, cut, |ack| seen.push(ack.digest)).unwrap();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(rest, 5);
        assert_eq!(&buf[..5], &stream[ACK_FRAME_LEN * 2..cut]);
        let mut bad = stream;
        bad[0] = 12;
        assert!(drain_acks(&mut bad, ACK_FRAME_LEN, |_| {}).is_err());
    }

    /// The ack parser and the request-id rewrite against the real thing: a
    /// `serve` loop over an in-process transport answers rewritten requests,
    /// every ack parses and matches `Reply::for_event` of the *rewritten*
    /// event, and the final aggregate equals the reference over them.
    #[test]
    fn acks_and_request_ids_round_trip_through_a_real_serve_loop() {
        let pool = RequestPool::generate(11, 0, 600);
        let mut events = pool.events.clone();
        let mut ids = Vec::new();
        for (k, event) in events.iter_mut().enumerate() {
            let id = 1_000_000 + k as u64;
            ids.push(if set_request_id(event, id) {
                id as u32
            } else {
                0
            });
            assert_eq!(request_id(event), (ids[k] != 0).then_some(id));
        }
        assert!(ids.iter().filter(|&&id| id != 0).count() > 200);
        // `sent_events` reproduces the rewritten stream from the pool.
        assert_eq!(pool.sent_events(600, &ids).collect::<Vec<_>>(), events);

        let mut executor = build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).unwrap();
        let service = ExecutorService::new(&*executor, BLOCKS);
        let (mut client, mut server) = loopback_pair();
        let aggregate_frame = std::thread::scope(|scope| {
            let served = scope.spawn(|| serve(&service, &mut server, 16));
            for event in &events {
                client.send(&encode_event_request(event)).unwrap();
            }
            client.send(&encode_drain_request()).unwrap();
            for event in &events {
                let payload = client.recv().unwrap().expect("an ack per request");
                let ack = parse_ack(&payload).unwrap();
                assert!(
                    ack.answers(&Reply::for_event(event)),
                    "{ack:?} for {event:?}"
                );
            }
            client.send(&encode_aggregate_request()).unwrap();
            let frame = client.recv().unwrap().expect("the aggregate reply");
            drop(client);
            assert_eq!(served.join().unwrap().unwrap(), events.len() as u64);
            frame
        });
        let reference = reference_aggregate(events.iter(), BLOCKS);
        // The aggregate reply is tag 0x82 + thirteen words; `events` is the
        // first and `completed` the last.
        assert_eq!(aggregate_frame[0], 0x82);
        let word = |i: usize| {
            u64::from_le_bytes(aggregate_frame[1 + i * 8..9 + i * 8].try_into().unwrap())
        };
        assert_eq!(word(0), reference.events);
        assert_eq!(word(10), reference.block_checksum);
        assert_eq!(word(12), reference.completed);
        executor.shutdown();

        // The framing helpers agree with the library's own codec.
        let mut ours = Vec::new();
        push_request_frame(&mut ours, &events[0]);
        let mut theirs = Vec::new();
        write_frame(&mut theirs, &encode_event_request(&events[0])).unwrap();
        assert_eq!(ours, theirs);
        assert_eq!(
            read_frame(&mut &pool.frame(3)[..]).unwrap().unwrap(),
            encode_event_request(&pool.events[3])
        );
    }
}
