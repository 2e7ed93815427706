//! The benchmark's own wall-clock span recorder.
//!
//! The traced run wraps every call the benchmark makes into a layer in a
//! span: name, start, end, the span that caused it, and a request id
//! (connection × fence, scheduler run, fleet job). Spans live in memory
//! and are written once, at exit, as a Chrome trace. Per-name totals are
//! kept for *every* span; only the first [`Recorder::keep`] spans are
//! stored individually, so a five-million-op repetition cannot grow the
//! trace without bound.
//!
//! A span's **self time** is its duration minus the part its child spans
//! cover. Nested spans come from [`Recorder::enter`] / [`Recorder::exit`]
//! (a stack: the open span is the parent of the next one). Work that
//! overlaps other work — a fence on the wire while later writes go out —
//! is reported with [`Recorder::complete`]; it has no parent and takes
//! no part in self-time arithmetic.

use std::fmt::Write as _;
use std::time::Instant;

/// One stored span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the stored spans, when it was stored.
    pub parent: Option<u32>,
    /// Request identifier shared by the spans of one request.
    pub req: u64,
    /// Reported with [`Recorder::complete`]: overlapped other work.
    pub overlap: bool,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of the durations of direct children.
    pub child_ns: u64,
}

impl NameTotals {
    /// Duration not covered by child spans.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    name: u16,
    start_ns: u64,
    /// Where this span will sit in `spans`, if it is kept.
    stored: Option<u32>,
}

/// An in-memory span recorder. `Recorder::off()` records nothing and
/// never reads the clock, so the untraced run pays one branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<NameTotals>,
    spans: Vec<Span>,
    stack: Vec<Open>,
    keep: usize,
}

impl Recorder {
    /// A recorder that ignores every call.
    #[must_use]
    pub fn off() -> Recorder {
        Recorder::new(false, 0)
    }

    /// A live recorder storing at most `keep` individual spans.
    #[must_use]
    pub fn on(keep: usize) -> Recorder {
        Recorder::new(true, keep)
    }

    fn new(on: bool, keep: usize) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            keep,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_idx(&mut self, name: &'static str) -> u16 {
        // A benchmark names a dozen spans; a linear scan beats hashing.
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.totals.push(NameTotals::default());
        (self.names.len() - 1) as u16
    }

    /// Opens a span nested in the currently open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.enter_at(name, req, start_ns);
    }

    fn enter_at(&mut self, name: &'static str, req: u64, start_ns: u64) {
        let name = self.name_idx(name);
        // Reserve the slot now so children can point at their parent.
        let stored = (self.spans.len() < self.keep).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.stored),
                req,
                overlap: false,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns,
            stored,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.exit_at(end_ns);
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.total_ns += dur;
        if let Some(parent) = self.stack.last() {
            self.totals[parent.name as usize].child_ns += dur;
        }
        if let Some(i) = open.stored {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Records a finished span that overlapped other work (no parent, no
    /// part in self time). Times are [`Recorder::now_ns`] readings.
    pub fn complete(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let name = self.name_idx(name);
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += end_ns - start_ns;
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                req,
                overlap: true,
            });
        }
    }

    /// Totals for `name` (zero if never recorded).
    #[must_use]
    pub fn totals(&self, name: &str) -> NameTotals {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or_else(NameTotals::default, |i| self.totals[i])
    }

    /// Every name with its totals, in first-use order.
    pub fn all_totals(&self) -> impl Iterator<Item = (&'static str, NameTotals)> + '_ {
        self.names.iter().copied().zip(self.totals.iter().copied())
    }

    /// The stored spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto). Nested spans share `tid` 1; overlapping ones sit on
    /// `tid` 2. `ts`/`dur` are microseconds.
    #[must_use]
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":{}}}}}",
                self.names[s.name as usize],
                if s.overlap { 2 } else { 1 },
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::on(16);
        // rep [0, 100) ─ write [10, 30) ─ encode [12, 20)
        //               └ read  [40, 90)
        r.enter_at("rep", 7, 0);
        r.enter_at("write", 7, 10);
        r.enter_at("encode", 7, 12);
        r.exit_at(20);
        r.exit_at(30);
        r.enter_at("read", 7, 40);
        r.exit_at(90);
        r.exit_at(100);
        assert_eq!(r.totals("rep").total_ns, 100);
        assert_eq!(r.totals("rep").child_ns, 70);
        assert_eq!(r.totals("rep").self_ns(), 30);
        assert_eq!(r.totals("write").self_ns(), 12);
        assert_eq!(r.totals("encode").self_ns(), 8);
        assert_eq!(r.totals("read").self_ns(), 50);
        // Self times partition the root's duration.
        let sum: u64 = r.all_totals().map(|(_, t)| t.self_ns()).sum();
        assert_eq!(sum, 100);
        // Parents point at stored indices: rep=0, write=1, encode=2, read=3.
        assert_eq!(r.spans[2].parent, Some(1));
        assert_eq!(r.spans[3].parent, Some(0));
        assert_eq!(r.spans[0].end_ns, 100);
    }

    #[test]
    fn overlapping_spans_stay_out_of_self_time() {
        let mut r = Recorder::on(16);
        r.enter_at("rep", 0, 0);
        r.complete("fence", 3, 5, 45);
        r.complete("fence", 4, 20, 60);
        r.exit_at(50);
        assert_eq!(r.totals("fence").count, 2);
        assert_eq!(r.totals("fence").total_ns, 80);
        assert_eq!(r.totals("rep").self_ns(), 50);
    }

    #[test]
    fn totals_outlive_the_storage_cap_and_off_records_nothing() {
        let mut r = Recorder::on(2);
        for i in 0..10 {
            r.enter_at("op", i, i * 10);
            r.exit_at(i * 10 + 4);
        }
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.totals("op").count, 10);
        assert_eq!(r.totals("op").total_ns, 40);
        let trace = r.chrome_trace("t");
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);

        let mut off = Recorder::off();
        off.enter("op", 0);
        off.exit();
        off.complete("fence", 0, 0, 1);
        assert_eq!(off.totals("op").count, 0);
        assert_eq!(off.all_totals().count(), 0);
    }
}
