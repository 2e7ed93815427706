//! Timing decorators over the two public traits the layers meet at:
//! [`ControlPath`] (drivers ↔ transport/testbed) and [`Scheduler`]
//! (executor ↔ ordering policy).
//!
//! Both are observation-only: every call is forwarded unchanged and its
//! result returned unchanged, so outputs are bit-identical with and
//! without them (the tests pin that). With a live [`Recorder`] each call
//! is a span nested under whatever span the caller has open — so the
//! caller's *self time* is exactly the time spent outside the decorated
//! layer. With the recorder off they only count calls.

use crate::hist::Histogram;
use crate::span::Recorder;
use ofwire::types::Dpid;
use simnet::telemetry::Telemetry;
use simnet::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use switchsim::control::{Completion, ControlOp, ControlPath, OpToken};
use tango::db::TangoDb;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::schedulers::{SchedKey, Scheduler};

/// A recorder shared between a workload and the decorators it installs.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Wraps a recorder for sharing.
#[must_use]
pub fn shared(rec: Recorder) -> SharedRecorder {
    Rc::new(RefCell::new(rec))
}

pub const SPAN_SUBMIT: &str = "controlpath.submit";
pub const SPAN_COMPLETION: &str = "controlpath.next_completion";
pub const SPAN_WARP: &str = "controlpath.warp_to";
pub const SPAN_PREPARE: &str = "scheduler.prepare";
pub const SPAN_KEY: &str = "scheduler.key";
pub const SPAN_ON_COMPLETION: &str = "scheduler.on_completion";

/// A [`ControlPath`] that counts (and, when tracing, times) every call
/// into the path it wraps.
pub struct TimedPath<C> {
    pub inner: C,
    rec: SharedRecorder,
    /// Operations submitted.
    pub ops: u64,
    /// How many of them were `ControlOp::Probe`.
    pub probes: u64,
    /// Flow-mods carried, singly or in batches.
    pub flow_mods: u64,
    /// Host round-trip time per op, submit → completion delivered (ns);
    /// filled only while tracing.
    pub rtt: Histogram,
    /// Submit instant by token sequence (tokens are dense from the
    /// path's first submit).
    sent_at: Vec<Instant>,
    first_seq: Option<u64>,
}

impl<C: ControlPath> TimedPath<C> {
    pub fn new(inner: C, rec: SharedRecorder) -> TimedPath<C> {
        TimedPath {
            inner,
            rec,
            ops: 0,
            probes: 0,
            flow_mods: 0,
            rtt: Histogram::new(),
            sent_at: Vec::new(),
            first_seq: None,
        }
    }

    fn note_completion(&mut self, c: &Completion) {
        if let Some(first) = self.first_seq {
            if let Some(t) = self.sent_at.get((c.token.seq() - first) as usize) {
                self.rtt.record_n(t.elapsed().as_nanos() as u64, 1);
            }
        }
    }
}

impl<C: ControlPath> ControlPath for TimedPath<C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken {
        self.ops += 1;
        match &op {
            ControlOp::Probe(_) => self.probes += 1,
            ControlOp::FlowMod(_) => self.flow_mods += 1,
            ControlOp::Batch(mods) => self.flow_mods += mods.len() as u64,
            ControlOp::Echo(_) => {}
        }
        let tracing = self.rec.borrow().is_on();
        self.rec.borrow_mut().enter(SPAN_SUBMIT, dpid.0);
        let token = self.inner.submit(dpid, op, ready_at);
        self.rec.borrow_mut().exit();
        if tracing {
            self.first_seq.get_or_insert(token.seq());
            self.sent_at.push(Instant::now());
        }
        token
    }

    fn next_completion(&mut self) -> Option<Completion> {
        self.rec.borrow_mut().enter(SPAN_COMPLETION, 0);
        let c = self.inner.next_completion();
        self.rec.borrow_mut().exit();
        if let Some(c) = &c {
            self.note_completion(c);
        }
        c
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        self.rec.borrow_mut().enter(SPAN_COMPLETION, token.seq());
        let c = self.inner.wait_for(token);
        self.rec.borrow_mut().exit();
        self.note_completion(&c);
        c
    }

    fn warp_to(&mut self, t: SimTime) {
        self.rec.borrow_mut().enter(SPAN_WARP, 0);
        self.inner.warp_to(t);
        self.rec.borrow_mut().exit();
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.inner.telemetry_mut()
    }

    fn track_of(&self, dpid: Dpid) -> Option<u32> {
        self.inner.track_of(dpid)
    }
}

/// A [`Scheduler`] that times every call into the scheduler it wraps.
/// `run` tags the spans of one scheduler run.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: SharedRecorder,
    run: u64,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, rec: SharedRecorder, run: u64) -> TimedScheduler {
        TimedScheduler { inner, rec, run }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, dag: &mut RequestDag, db: &TangoDb) {
        self.rec.borrow_mut().enter(SPAN_PREPARE, self.run);
        self.inner.prepare(dag, db);
        self.rec.borrow_mut().exit();
    }

    fn key(&self, dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey {
        self.rec.borrow_mut().enter(SPAN_KEY, self.run);
        let key = self.inner.key(dag, id, released_at);
        self.rec.borrow_mut().exit();
        key
    }

    fn on_completion(&mut self, dag: &RequestDag, id: NodeId) {
        self.rec.borrow_mut().enter(SPAN_ON_COMPLETION, self.run);
        self.inner.on_completion(dag, id);
        self.rec.borrow_mut().exit();
    }
}
