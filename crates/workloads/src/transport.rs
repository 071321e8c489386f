//! Framed byte transports for the protocol service.
//!
//! The wire unit is a **frame**: a little-endian `u32` length prefix followed
//! by that many payload bytes. Framing is the only thing this module knows —
//! what the bytes mean is the service layer's business
//! ([`service`](crate::service)) — so the same codec carries requests one way
//! and replies the other over any byte stream.
//!
//! Two transports are provided:
//!
//! * [`loopback_pair`] — an in-process pair of connected endpoints backed by
//!   unbounded channels, for tests and for running client and server in one
//!   process without sockets;
//! * [`TcpTransport`] — a framed [`std::net::TcpStream`] (a [`FramedStream`]
//!   over its two halves), the real network path
//!   (`examples/protocol_server.rs --transport tcp`).
//!
//! Both implement [`Transport`], so the server loop and client driver are
//! written once against the trait.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Upper bound on an accepted frame payload (16 MiB). A corrupt or hostile
/// length prefix fails fast instead of provoking a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Writes one length-prefixed frame. The payload must not exceed
/// [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// Propagates I/O errors from `w`; an oversized payload is
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Granularity of payload reads: the buffer grows by at most this much per
/// `read_exact`, so a hostile length prefix pins memory proportional to the
/// bytes actually delivered, not to the (up to 16 MiB) claim.
const READ_CHUNK: usize = 64 * 1024;

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean end of
/// stream (EOF exactly on a frame boundary).
///
/// The length prefix is validated against [`MAX_FRAME_LEN`] **before** any
/// payload allocation, and the payload buffer grows incrementally (64 KiB
/// steps) as bytes arrive — a peer that promises 16 MiB and delivers 10
/// bytes costs one small allocation and a typed error, not 16 MiB of zeroed
/// memory.
///
/// # Errors
///
/// EOF in the middle of a frame is [`io::ErrorKind::UnexpectedEof`]; a length
/// prefix above [`MAX_FRAME_LEN`] is [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(oversized(len));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let start = payload.len();
        let step = READ_CHUNK.min(len - start);
        payload.resize(start + step, 0);
        if let Err(e) = r.read_exact(&mut payload[start..]) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended inside a frame payload ({start}+ of {len} bytes)"),
                )
            } else {
                e
            });
        }
    }
    Ok(Some(payload))
}

/// The error both frame readers give a length prefix above
/// [`MAX_FRAME_LEN`].
fn oversized(len: u32) -> io::Error {
    let message = format!("frame length {len} exceeds MAX_FRAME_LEN");
    io::Error::new(io::ErrorKind::InvalidData, message)
}

// ---------------------------------------------------------------------------
// Resumable (non-blocking) frame codec
// ---------------------------------------------------------------------------

/// Soft cap on bytes staged inside a [`FrameDecoder`] per
/// [`fill_from`](FrameDecoder::fill_from) pass (256 KiB). A peer that keeps
/// the socket readable forever (an open-loop firehose) cannot make one fill
/// pass buffer without bound: the pass returns once the cap is reached and
/// the caller drains decoded frames before reading again.
pub const DECODER_SOFT_CAP: usize = 256 * 1024;

/// Outcome of one [`FrameDecoder::fill_from`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillStatus {
    /// Bytes moved from the reader into the staging buffer.
    pub read: usize,
    /// Whether the reader reported end of stream.
    pub eof: bool,
}

/// Staged, resumable frame *decoder* for non-blocking streams.
///
/// [`read_frame`] blocks until a whole frame has arrived, which is exactly
/// wrong for a readiness-polled event loop: a connection may deliver half a
/// length prefix now and the rest three wakeups later. `FrameDecoder` keeps
/// the partial bytes staged across calls instead — feed it whatever the
/// socket has ([`fill_from`](Self::fill_from) reads until `WouldBlock`, EOF,
/// or the [`DECODER_SOFT_CAP`]), then drain every already-complete frame with
/// [`next_frame`](Self::next_frame). The decode state machine (inside the
/// length prefix / inside the payload) is implicit in the staged byte count,
/// so resumption is trivially correct for any chunking of the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    head: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes staged but not yet consumed by [`next_frame`](Self::next_frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether the staging buffer ends inside an unfinished frame — at EOF
    /// this distinguishes a clean close (frame boundary) from a truncated
    /// stream.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Reads from `r` until it would block, the stream ends, or
    /// [`DECODER_SOFT_CAP`] bytes are staged. `Interrupted` reads are
    /// retried; `WouldBlock` ends the pass without error (that is the normal
    /// "socket drained" outcome on a non-blocking stream).
    ///
    /// # Errors
    ///
    /// Any I/O failure other than `WouldBlock`/`Interrupted`.
    pub fn fill_from<R: Read + ?Sized>(&mut self, r: &mut R) -> io::Result<FillStatus> {
        let mut status = FillStatus {
            read: 0,
            eof: false,
        };
        let mut chunk = [0u8; 8192];
        while self.buffered() < DECODER_SOFT_CAP {
            match r.read(&mut chunk) {
                Ok(0) => {
                    status.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    status.read += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(status)
    }

    /// Pops the next complete frame out of the staging buffer, or `None` if
    /// the staged bytes end mid-frame (feed more bytes and call again).
    ///
    /// # Errors
    ///
    /// A staged length prefix above [`MAX_FRAME_LEN`] is
    /// [`io::ErrorKind::InvalidData`] — validated before any payload
    /// allocation, exactly like [`read_frame`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&self.buf[self.head..self.head + 4]);
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_LEN {
            return Err(oversized(len));
        }
        let len = len as usize;
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let start = self.head + 4;
        let payload = self.buf[start..start + len].to_vec();
        self.head = start + len;
        // Reclaim consumed prefix space once it dominates the buffer, so a
        // long-lived connection does not grow its staging buffer forever.
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 64 * 1024 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(Some(payload))
    }
}

/// Staged, resumable frame *encoder* for non-blocking streams.
///
/// The mirror of [`FrameDecoder`]: [`push_frame`](Self::push_frame) stages a
/// length-prefixed frame in an outgoing byte buffer, and
/// [`write_to`](Self::write_to) pushes as much of the staged backlog as the
/// stream accepts, stopping cleanly at `WouldBlock` — a partial write leaves
/// the unsent suffix staged, and the next call resumes mid-frame. The staged
/// byte count ([`staged`](Self::staged)) is the server's per-connection
/// outgoing backlog, which the poll loop bounds by dropping read interest
/// when a peer stops draining its replies.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    buf: Vec<u8>,
    head: usize,
}

impl FrameEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes staged and not yet accepted by the stream.
    pub fn staged(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether every staged byte has been written.
    pub fn is_empty(&self) -> bool {
        self.staged() == 0
    }

    /// Stages one length-prefixed frame for writing.
    ///
    /// # Errors
    ///
    /// An oversized payload is [`io::ErrorKind::InvalidInput`] and stages
    /// nothing.
    pub fn push_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.buf, payload)
    }

    /// Writes staged bytes to `w` until the backlog drains or the stream
    /// would block; returns how many bytes were accepted. `Interrupted`
    /// writes are retried; `WouldBlock` ends the pass without error.
    ///
    /// # Errors
    ///
    /// Any other I/O failure; a stream accepting zero bytes is
    /// [`io::ErrorKind::WriteZero`].
    pub fn write_to<W: Write + ?Sized>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.staged() > 0 {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes of a staged frame",
                    ))
                }
                Ok(n) => {
                    self.head += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 64 * 1024 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(written)
    }
}

/// One endpoint of a bidirectional framed byte stream.
///
/// `send`/`recv` move whole frame payloads; `flush` pushes buffered frames to
/// the peer (a no-op for unbuffered transports). Implementations are half
/// duplex per endpoint object: one thread drives an endpoint at a time, and a
/// connection's two endpoints (client side, server side) live on different
/// threads or processes.
pub trait Transport: Send {
    /// Sends one frame with the given payload.
    ///
    /// # Errors
    ///
    /// Any I/O failure of the underlying stream; a disconnected peer is
    /// [`io::ErrorKind::BrokenPipe`].
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Receives the next frame payload; `Ok(None)` means the peer closed the
    /// stream cleanly.
    ///
    /// # Errors
    ///
    /// Any I/O failure of the underlying stream, including a mid-frame EOF.
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// The next frame if it can be had without blocking, else `Ok(None)`
    /// (which does not mean the stream ended). The default never has one:
    /// only a transport that reads ahead ([`FramedStream`]) knows what has
    /// already arrived, which is what the serve loop batches.
    ///
    /// # Errors
    ///
    /// As [`recv`](Self::recv).
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Flushes buffered frames to the peer.
    ///
    /// # Errors
    ///
    /// Any I/O failure of the underlying stream.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-process transport endpoint: frames travel through unbounded channels,
/// so sends never block and never deadlock regardless of windowing.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected pair of in-process endpoints: frames sent on one are
/// received by the other, in order. Dropping an endpoint closes its sending
/// direction (the peer's `recv` returns `Ok(None)`).
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        LoopbackTransport { tx: a_tx, rx: a_rx },
        LoopbackTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx
            .send(payload.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "loopback peer disconnected"))
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.rx.recv().ok())
    }
}

/// Buffered frame codec over the two halves of a byte stream; over a socket
/// it is [`TcpTransport`].
///
/// **The flush rule.** Sent frames collect in the write buffer and leave, as
/// one write, when this side is about to block: [`recv`](Transport::recv)
/// flushes first unless the read buffer already holds a *whole* frame (prefix
/// and full payload), which it can return without waiting on the peer. A
/// buffered *partial* frame does not count — the peer may be holding back
/// its remainder for what is still unflushed here (window 1 would deadlock).
/// No timer, no threshold: a batch is what the peer's last delivery allowed.
/// [`flush`](Transport::flush) is for blocking on anything other than `recv`.
#[derive(Debug)]
pub struct FramedStream<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: BufWriter<W>,
}

/// A framed TCP stream: the transport used by the real protocol server.
pub type TcpTransport = FramedStream<TcpStream, TcpStream>;

impl<R: Read, W: Write> FramedStream<R, W> {
    /// Wraps the two directions of a byte stream in buffered framed halves.
    pub fn from_halves(reader: R, writer: W) -> Self {
        Self {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
        }
    }

    /// Whether the read buffer holds a whole frame, so that reading it
    /// touches no stream.
    fn frame_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        buf.first_chunk::<4>()
            .is_some_and(|len| buf.len() - 4 >= u32::from_le_bytes(*len) as usize)
    }
}

impl TcpTransport {
    /// Wraps a connected stream in buffered framed halves.
    ///
    /// # Errors
    ///
    /// Fails if the stream cannot be cloned for the second direction.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        let write_half = stream.try_clone()?;
        Ok(Self::from_halves(stream, write_half))
    }
}

impl<R: Read + Send, W: Write + Send> Transport for FramedStream<R, W> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if !self.frame_buffered() {
            self.writer.flush()?;
        }
        read_frame(&mut self.reader)
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.frame_buffered() {
            read_frame(&mut self.reader)
        } else {
            Ok(None)
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&[0xAB; 300][..])
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Cut inside the payload.
        let mut r = io::Cursor::new(&wire[..6]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Cut inside the length prefix.
        let mut r = io::Cursor::new(&wire[..2]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn hostile_length_claims_cost_only_the_delivered_bytes() {
        // A prefix that claims the full 16 MiB but delivers three bytes must
        // fail with a typed truncation error after allocating at most one
        // READ_CHUNK step, not the claimed size.
        let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        let mut r = io::Cursor::new(wire);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("frame payload"));
        // A multi-chunk payload still roundtrips intact.
        let big = vec![0x5Au8; READ_CHUNK * 2 + 17];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&big[..]));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected() {
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut r = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn the_exact_size_cap_roundtrips_and_one_byte_more_is_refused() {
        // Exact boundary: a payload of exactly MAX_FRAME_LEN bytes walks the
        // 64 KiB incremental-growth path 256 times and arrives intact.
        let big = vec![0xC3u8; MAX_FRAME_LEN as usize];
        let mut wire = Vec::with_capacity(big.len() + 4);
        write_frame(&mut wire, &big).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&big[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "exactly one frame");
        // Boundary + 1: the writer refuses before emitting a single byte, so
        // an oversized payload can never poison the stream for its peer.
        let over = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            wire.is_empty(),
            "a refused frame must leave no bytes behind"
        );
    }

    /// A reader that hands out its bytes in fixed chunks, interleaving a
    /// `WouldBlock` after every chunk — the shape of a non-blocking socket
    /// that dribbles data across readiness wakeups.
    struct DribbleReader {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for DribbleReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
            }
            self.ready = false;
            let n = self.chunk.min(out.len()).min(self.bytes.len() - self.pos);
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_decoder_resumes_across_arbitrary_chunk_boundaries() {
        let payloads: Vec<Vec<u8>> = vec![b"hello".to_vec(), vec![], vec![0xAB; 300]];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // Every chunk size from one byte up must yield the same frames: the
        // decoder resumes inside the prefix and inside the payload alike.
        for chunk in 1..=9 {
            let mut reader = DribbleReader {
                bytes: wire.clone(),
                pos: 0,
                chunk,
                ready: false,
            };
            let mut decoder = FrameDecoder::new();
            let mut decoded: Vec<Vec<u8>> = Vec::new();
            loop {
                let status = decoder.fill_from(&mut reader).unwrap();
                while let Some(frame) = decoder.next_frame().unwrap() {
                    decoded.push(frame);
                }
                if status.eof {
                    break;
                }
            }
            assert_eq!(decoded, payloads, "chunk size {chunk}");
            assert!(!decoder.has_partial(), "clean EOF on a frame boundary");
        }
    }

    #[test]
    fn frame_decoder_flags_partial_frames_at_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(6); // cut inside the payload
        let mut r = io::Cursor::new(wire);
        let mut decoder = FrameDecoder::new();
        let status = decoder.fill_from(&mut r).unwrap();
        assert!(status.eof);
        assert!(decoder.next_frame().unwrap().is_none());
        assert!(decoder.has_partial(), "EOF mid-frame must be detectable");
    }

    #[test]
    fn frame_decoder_rejects_oversized_prefixes_before_allocating() {
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut r = io::Cursor::new(wire);
        let mut decoder = FrameDecoder::new();
        decoder.fill_from(&mut r).unwrap();
        assert_eq!(
            decoder.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A writer that accepts at most `window` bytes per call and interleaves
    /// a `WouldBlock` after every accepted chunk — a non-blocking socket with
    /// a tiny send buffer.
    struct DribbleWriter {
        accepted: Vec<u8>,
        window: usize,
        ready: bool,
    }

    impl Write for DribbleWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.ready = false;
            let n = self.window.min(bytes.len());
            self.accepted.extend_from_slice(&bytes[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_encoder_resumes_partial_writes() {
        let payloads: Vec<Vec<u8>> = vec![b"abc".to_vec(), vec![0x5A; 200], vec![]];
        for window in 1..=7 {
            let mut encoder = FrameEncoder::new();
            for p in &payloads {
                encoder.push_frame(p).unwrap();
            }
            let mut expected = Vec::new();
            for p in &payloads {
                write_frame(&mut expected, p).unwrap();
            }
            assert_eq!(encoder.staged(), expected.len());
            let mut sink = DribbleWriter {
                accepted: Vec::new(),
                window,
                ready: false,
            };
            // Each write_to pass makes window bytes of progress (one accepted
            // chunk) and stops cleanly at the next WouldBlock.
            let mut passes = 0;
            while !encoder.is_empty() {
                encoder.write_to(&mut sink).unwrap();
                passes += 1;
                assert!(passes < 10_000, "encoder failed to make progress");
            }
            assert_eq!(sink.accepted, expected, "window {window}");
        }
    }

    #[test]
    fn frame_encoder_refuses_oversized_payloads_without_staging() {
        let mut encoder = FrameEncoder::new();
        let over = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert_eq!(
            encoder.push_frame(&over).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(encoder.is_empty(), "a refused frame must stage nothing");
    }

    #[test]
    fn loopback_pair_carries_frames_both_ways() {
        let (mut a, mut b) = loopback_pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some(&b"ping"[..]));
        b.send(b"pong").unwrap();
        b.send(b"pong2").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some(&b"pong"[..]));
        assert_eq!(a.recv().unwrap().as_deref(), Some(&b"pong2"[..]));
        drop(b);
        assert_eq!(a.recv().unwrap(), None);
        assert!(a.send(b"dead").is_err());
    }

    #[test]
    fn tcp_transport_roundtrips_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            while let Some(frame) = t.recv().unwrap() {
                let mut echoed = frame;
                echoed.reverse();
                t.send(&echoed).unwrap();
                t.flush().unwrap();
            }
        });
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
        t.send(b"abc").unwrap();
        assert_eq!(t.recv().unwrap().as_deref(), Some(&b"cba"[..]));
        drop(t);
        server.join().unwrap();
    }
}
