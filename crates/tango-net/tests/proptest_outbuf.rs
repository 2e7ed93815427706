//! Property tests for [`OutBuf`] against a flat-`Vec` model, and for
//! the [`Watermark`] hysteresis against its two-state model.
//!
//! `OutBuf` is the write side of every connection in the sharded
//! reactor: frames append to one `Vec`, a flush writes from a drain
//! cursor, and the next append reclaims the written prefix. The model is
//! every byte ever appended plus a count of the bytes the sink accepted.
//! Any divergence in delivered bytes, order or accounting is a bug in
//! the cursor or reclaim bookkeeping, which partial writes exercise.

use proptest::prelude::*;
use std::io::{self, Write};
use tango_net::reactor::{OutBuf, Watermark};

/// A sink that accepts at most `budget` bytes, then returns
/// `WouldBlock` — the shape of a congested non-blocking socket. Short
/// accepts stop the drain cursor mid-buffer, and `OutBuf` must resume
/// from there.
struct Throttle {
    got: Vec<u8>,
    budget: usize,
}

impl Write for Throttle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
        }
        let n = buf.len().min(self.budget);
        self.got.extend_from_slice(&buf[..n]);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    /// Interleaved appends and throttled flushes: after every step the
    /// buffer's accounting matches the model (`pending` = appended
    /// minus delivered) and the sink holds exactly the model's prefix —
    /// no byte lost, duplicated, or reordered across reclaims or
    /// mid-buffer cursor stops.
    #[test]
    fn outbuf_matches_vec_oracle(
        ops in proptest::collection::vec((0u8..2, 1usize..5000), 1..40),
    ) {
        let mut out = OutBuf::new();
        // The model: every byte ever appended, in order, plus a count
        // of the bytes the sink has accepted.
        let mut model: Vec<u8> = Vec::new();
        let mut sent = 0usize;
        let mut sink = Throttle { got: Vec::new(), budget: 0 };
        let mut pattern = 0u8;
        for &(kind, amount) in &ops {
            if kind == 0 {
                // Append `amount` patterned bytes through tail(),
                // chunked at an odd stride so reclaims fall between
                // appends at irregular offsets.
                let mut remaining = amount;
                while remaining > 0 {
                    let chunk = remaining.min(997);
                    let tail = out.tail();
                    for _ in 0..chunk {
                        tail.push(pattern);
                        model.push(pattern);
                        pattern = pattern.wrapping_add(1);
                    }
                    remaining -= chunk;
                }
            } else {
                sink.budget = amount;
                let before = out.pending();
                let moved = out.write_to(&mut sink).unwrap();
                // The sink accepts up to its budget per call and
                // write_to loops until WouldBlock, so the drain moves
                // exactly min(pending, budget) — cursor progress is
                // total, not best-effort.
                prop_assert_eq!(moved, before.min(amount));
                sent += moved;
            }
            prop_assert_eq!(out.pending(), model.len() - sent);
            prop_assert_eq!(&sink.got[..], &model[..sent]);
        }
        // A final unthrottled flush drains everything that remains.
        sink.budget = usize::MAX;
        out.write_to(&mut sink).unwrap();
        prop_assert_eq!(out.pending(), 0);
        prop_assert_eq!(sink.got, model);
    }

    /// An untouched `tail()` (a caller that reserved the append end
    /// but encoded nothing) never corrupts accounting or output.
    #[test]
    fn outbuf_unused_tail_is_harmless(
        appends in proptest::collection::vec(0usize..200, 1..30),
    ) {
        let mut out = OutBuf::new();
        let mut model = Vec::new();
        for (i, &n) in appends.iter().enumerate() {
            let tail = out.tail();
            for _ in 0..n {
                tail.push(i as u8);
                model.push(i as u8);
            }
            prop_assert_eq!(out.pending(), model.len());
        }
        let mut sink = Throttle { got: Vec::new(), budget: usize::MAX };
        out.write_to(&mut sink).unwrap();
        prop_assert_eq!(sink.got, model);
        prop_assert_eq!(out.pending(), 0);
    }

    /// Appends after a partial flush has left the cursor past 4 KiB:
    /// the append end shifts the unwritten bytes to the front exactly
    /// when the written prefix is at least half the buffer, and the
    /// sink still receives every byte once, in order.
    #[test]
    fn outbuf_reclaims_a_written_prefix_past_4_kib(
        first in 4097usize..20_000,
        written in any::<usize>(),
        more in proptest::collection::vec(1usize..3000, 1..8),
    ) {
        let written = 4096 + written % (first - 4096);
        let mut out = OutBuf::new();
        let mut model: Vec<u8> = (0..first).map(|i| i as u8).collect();
        out.tail().extend_from_slice(&model);
        let mut sink = Throttle { got: Vec::new(), budget: written };
        prop_assert_eq!(out.write_to(&mut sink).unwrap(), written);
        let reclaims = written * 2 >= first;
        for (k, &n) in more.iter().enumerate() {
            let tail = out.tail();
            if k == 0 {
                // The append end holds the unwritten bytes alone once
                // reclaimed, and the whole first append otherwise.
                let held = if reclaims { first - written } else { first };
                prop_assert_eq!(tail.len(), held);
            }
            for j in 0..n {
                tail.push((k * 31 + j) as u8);
                model.push((k * 31 + j) as u8);
            }
            prop_assert_eq!(out.pending(), model.len() - written);
        }
        sink.budget = usize::MAX;
        out.write_to(&mut sink).unwrap();
        prop_assert_eq!(out.pending(), 0);
        prop_assert_eq!(sink.got, model);
    }

    /// The watermark hysteresis against its two-state model: reads
    /// pause at `pending >= high` (inclusive), stay paused anywhere in
    /// the [low, high) band, and resume only below `low` (exclusive).
    /// The band is the point — a level hovering at one boundary must
    /// not toggle the read state sweep to sweep.
    #[test]
    fn watermark_tracks_hysteresis_model(
        low in 1usize..500,
        gap in 1usize..500,
        ops in proptest::collection::vec((0u8..2, 0usize..1200), 1..80),
    ) {
        let high = low + gap;
        let mut wm = Watermark::new(high, low);
        let mut paused = false;
        for &(kind, level) in &ops {
            if kind == 0 {
                // Pre-read check at this pending level.
                if level >= high {
                    paused = true;
                }
                prop_assert_eq!(wm.allow_read(level), !paused);
            } else {
                // Post-flush report at this pending level.
                wm.drained(level);
                if paused && level < low {
                    paused = false;
                }
            }
            prop_assert_eq!(wm.is_paused(), paused);
        }
    }
}
