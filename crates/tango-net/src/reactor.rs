//! The transport core: non-blocking connections with bounded, reused
//! buffers.
//!
//! The reactor is a readiness *scan* loop — every iteration tries to
//! flush and read each live connection, and a [`Pacer`] backs off when
//! a full sweep makes no progress. The loop is sized to the connections
//! the workloads open (two per wire workload, two for `fleet_tcp`), where
//! the scan is cheap relative to the traffic it moves. `epoll` would
//! need no dependency (an `extern "C"` declaration does), but it is
//! parked until a fan-in workload with many connections exists (ROADMAP
//! 8(c)). The hot path stays allocation-free:
//! sockets read into one shared scratch buffer, writes drain a reused
//! per-connection [`OutBuf`].
//!
//! Backpressure is explicit and local: a connection whose `OutBuf`
//! crosses its high watermark is not read again until the buffer drains
//! below the low watermark ([`Watermark`] owns that hysteresis), so a
//! slow peer stalls its own connection instead of growing an unbounded
//! queue.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default high watermark: stop reading a connection whose un-flushed
/// output exceeds this.
pub const HIGH_WATER: usize = 256 * 1024;
/// Default low watermark: resume reading once un-flushed output drains
/// below this.
pub const LOW_WATER: usize = 64 * 1024;
/// Size of the shared read scratch each reactor loop allocates once.
pub const READ_CHUNK: usize = 256 * 1024;

/// Read/write hysteresis: pause a connection's reads when its pending
/// output crosses `high`, resume once it drains below `low`.
///
/// Extracted from the connection so the policy is testable on its own:
/// the two-threshold gap is what prevents a connection hovering at one
/// boundary from toggling its read state every sweep.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    /// Pause threshold (inclusive).
    pub high: usize,
    /// Resume threshold (exclusive).
    pub low: usize,
    paused: bool,
}

impl Watermark {
    /// A watermark pair; `low` should be below `high`.
    #[must_use]
    pub fn new(high: usize, low: usize) -> Watermark {
        Watermark {
            high,
            low,
            paused: false,
        }
    }

    /// Reports the pending output level before a read; returns whether
    /// reading is currently allowed.
    pub fn allow_read(&mut self, pending: usize) -> bool {
        if pending >= self.high {
            self.paused = true;
        }
        !self.paused
    }

    /// Reports the pending output level after a flush, possibly lifting
    /// the pause.
    pub fn drained(&mut self, pending: usize) {
        if self.paused && pending < self.low {
            self.paused = false;
        }
    }

    /// Whether reads are currently paused.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.paused
    }
}

impl Default for Watermark {
    fn default() -> Watermark {
        Watermark::new(HIGH_WATER, LOW_WATER)
    }
}

/// A reused outbound byte buffer: one `Vec` and a drain cursor.
///
/// Frames are encoded straight onto the append end ([`OutBuf::tail`]); a
/// flush writes from the cursor on with plain `write` calls. Space is
/// reclaimed when bytes are next appended: the buffer clears once fully
/// drained, and a partly drained one shifts its unwritten bytes to the
/// front once the written prefix is at least 4 KiB and at least half the
/// buffer, so a shift never moves more bytes than it frees. Steady state
/// allocates nothing per message.
#[derive(Debug, Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` before this offset are already written.
    cursor: usize,
}

impl OutBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> OutBuf {
        OutBuf::default()
    }

    /// The append end; encode frames directly into it.
    pub fn tail(&mut self) -> &mut Vec<u8> {
        if self.cursor == self.buf.len() {
            self.buf.clear();
            self.cursor = 0;
        } else if self.cursor >= 4096 && self.cursor * 2 >= self.buf.len() {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
        &mut self.buf
    }

    /// Bytes accepted but not yet written to the socket.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.cursor
    }

    /// Writes as much pending output as the sink accepts. Returns the
    /// number of bytes moved (0 when the sink is not writable). Generic
    /// over the sink so property tests can drive it against an
    /// in-memory model.
    pub fn write_to<W: Write>(&mut self, sink: &mut W) -> io::Result<usize> {
        let mut moved = 0;
        while self.cursor < self.buf.len() {
            match sink.write(&self.buf[self.cursor..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.cursor += n;
                    moved += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }
}

/// Byte/event counters one connection accumulates on its hot path.
/// Plain integers — the shard decides when (and whether) to fold them
/// into a telemetry recorder, so the per-I/O cost is an increment.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoCounters {
    /// Bytes read off the socket.
    pub bytes_in: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Reads/writes that returned `WouldBlock`.
    pub would_block: u64,
    /// Reads refused because the watermark paused the connection.
    pub watermark_stalls: u64,
}

/// One non-blocking TCP connection: socket + outbound buffer +
/// backpressure state. Framing is deliberately *not* here — each
/// consumer (agent server, controller) owns its framer, so the
/// server's hot path can feed raw bytes straight to the agent.
#[derive(Debug)]
pub struct NbConn {
    stream: TcpStream,
    /// Outbound bytes awaiting the socket.
    pub out: OutBuf,
    /// Read-pause hysteresis over `out.pending()`.
    pub wm: Watermark,
    /// Hot-path I/O counters (see [`IoCounters`]).
    pub io: IoCounters,
    closed: bool,
}

impl NbConn {
    /// Wraps an accepted/connected stream: switches it to non-blocking
    /// mode and disables Nagle (the whole point of the reactor is that
    /// *we* batch, in [`OutBuf`], not the kernel timer).
    pub fn new(stream: TcpStream) -> io::Result<NbConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(NbConn {
            stream,
            out: OutBuf::new(),
            wm: Watermark::default(),
            io: IoCounters::default(),
            closed: false,
        })
    }

    /// Whether the peer has closed the connection.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether reads are currently paused by backpressure.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.wm.is_paused()
    }

    /// Flushes pending output. Returns bytes written.
    pub fn flush(&mut self) -> io::Result<usize> {
        let moved = self.out.write_to(&mut self.stream)?;
        self.io.bytes_out += moved as u64;
        if self.out.pending() > 0 {
            // write_to only stops short on WouldBlock.
            self.io.would_block += 1;
        }
        self.wm.drained(self.out.pending());
        Ok(moved)
    }

    /// Reads once into `scratch`, honouring backpressure: a connection
    /// whose output buffer is over the high watermark is not read
    /// (returns 0) until it drains. Returns the number of bytes read
    /// (0 when nothing is available); EOF marks the connection closed.
    pub fn read_into(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        if !self.wm.allow_read(self.out.pending()) {
            self.io.watermark_stalls += 1;
            return Ok(0);
        }
        if self.closed {
            return Ok(0);
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(0);
                }
                Ok(n) => {
                    self.io.bytes_in += n as u64;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.io.would_block += 1;
                    return Ok(0);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    self.closed = true;
                    return Ok(0);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Idle backoff for a scan loop: spin a few empty sweeps, then sleep
/// briefly so an idle reactor costs ~no CPU while a busy one never
/// sleeps. Call [`Pacer::progressed`] whenever a sweep moved bytes and
/// [`Pacer::idle`] when it moved nothing.
///
/// The pacer is *latency-aware*: [`Pacer::idle`] takes whether any
/// connection still has work in flight (un-flushed output, or decoded
/// requests awaiting replies). While work is pending the sleep stays
/// capped at the short tier, so a momentarily-quiet socket under a deep
/// pipeline window costs 50 µs of added latency, not 500 µs — the
/// difference between a bounded p99 and a cliff.
#[derive(Debug, Default)]
pub struct Pacer {
    empty_sweeps: u32,
}

impl Pacer {
    /// A fresh pacer.
    #[must_use]
    pub fn new() -> Pacer {
        Pacer::default()
    }

    /// The last sweep made progress: stay hot.
    pub fn progressed(&mut self) {
        self.empty_sweeps = 0;
    }

    /// The last sweep made no progress: yield, then sleep with a small
    /// bounded backoff. `work_in_flight` caps the backoff at the short
    /// tier so pending work never waits out a long sleep.
    pub fn idle(&mut self, work_in_flight: bool) {
        self.empty_sweeps = self.empty_sweeps.saturating_add(1);
        if work_in_flight {
            // With work in flight, yield instead of sleeping: a yield
            // requeues behind whoever has the bytes with no timer set,
            // while a 50 µs sleep arms a high-resolution timer whose
            // expiry preempts the busy thread — across many reactor
            // threads on few cores those wakeups fragment every sweep.
            if self.empty_sweeps <= 200 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
            return;
        }
        match self.empty_sweeps {
            0..=3 => std::thread::yield_now(),
            4..=50 => std::thread::sleep(Duration::from_micros(50)),
            _ => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (NbConn, NbConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (NbConn::new(a).unwrap(), NbConn::new(b).unwrap())
    }

    #[test]
    fn bytes_round_trip_through_outbuf() {
        let (mut a, mut b) = pair();
        a.out.tail().extend_from_slice(b"hello reactor");
        let mut scratch = [0u8; 64];
        let mut got = Vec::new();
        let mut pacer = Pacer::new();
        while got.len() < 13 {
            a.flush().unwrap();
            let n = b.read_into(&mut scratch).unwrap();
            if n == 0 {
                pacer.idle(true);
            } else {
                got.extend_from_slice(&scratch[..n]);
            }
        }
        assert_eq!(&got, b"hello reactor");
        assert_eq!(a.out.pending(), 0);
        assert!(a.io.bytes_out >= 13);
        assert!(b.io.bytes_in >= 13);
    }

    #[test]
    fn backpressure_pauses_and_resumes_reads() {
        let (mut a, _b) = pair();
        a.wm = Watermark::new(8, 4);
        a.out.tail().extend_from_slice(&[0u8; 16]);
        let mut scratch = [0u8; 8];
        // Over the high watermark: the read is refused.
        assert_eq!(a.read_into(&mut scratch).unwrap(), 0);
        assert!(a.is_paused());
        assert_eq!(a.io.watermark_stalls, 1);
        // Draining below the low watermark lifts the pause.
        a.flush().unwrap();
        assert!(!a.is_paused());
    }

    #[test]
    fn eof_marks_closed() {
        let (mut a, b) = pair();
        drop(b);
        let mut scratch = [0u8; 8];
        let mut pacer = Pacer::new();
        for _ in 0..1000 {
            a.read_into(&mut scratch).unwrap();
            if a.is_closed() {
                break;
            }
            pacer.idle(false);
        }
        assert!(a.is_closed());
    }

    #[test]
    fn outbuf_preserves_order_across_many_appends() {
        let mut out = OutBuf::new();
        let mut expect = Vec::new();
        // Append many distinct frames, 20 KB in all.
        for i in 0..5000u32 {
            let frame = i.to_be_bytes();
            out.tail().extend_from_slice(&frame);
            expect.extend_from_slice(&frame);
        }
        assert_eq!(out.pending(), expect.len());
        let mut sink = Vec::new();
        let moved = out.write_to(&mut sink).unwrap();
        assert_eq!(moved, expect.len());
        assert_eq!(sink, expect);
        assert_eq!(out.pending(), 0);
    }

    #[test]
    fn outbuf_partial_drain_keeps_remaining_bytes() {
        /// Accepts at most `cap` bytes per write call.
        struct Throttle {
            got: Vec<u8>,
            cap: usize,
            budget: usize,
        }
        impl Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.cap).min(self.budget);
                self.got.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = OutBuf::new();
        let payload: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        for chunk in payload.chunks(100) {
            out.tail().extend_from_slice(chunk);
        }
        let mut sink = Throttle {
            got: Vec::new(),
            cap: 1000,
            budget: 131_072,
        };
        out.write_to(&mut sink).unwrap();
        assert_eq!(out.pending(), payload.len() - sink.got.len());
        sink.budget = usize::MAX;
        out.write_to(&mut sink).unwrap();
        assert_eq!(sink.got, payload);
        assert_eq!(out.pending(), 0);
    }

    #[test]
    fn watermark_hysteresis_has_a_gap() {
        let mut wm = Watermark::new(10, 5);
        assert!(wm.allow_read(9));
        assert!(!wm.allow_read(10));
        // Draining to between low and high keeps the pause.
        wm.drained(7);
        assert!(wm.is_paused());
        assert!(!wm.allow_read(7));
        // Only below low does it lift.
        wm.drained(4);
        assert!(!wm.is_paused());
        assert!(wm.allow_read(4));
    }
}
