//! The control-path abstraction: "submit an OpenFlow operation to switch
//! `dpid`, receive a typed completion event later".
//!
//! Every layer above the switch models talks to switches through
//! [`ControlPath`] — the probing engine when it measures one switch, and
//! the network-wide schedulers when they drive many. There are two
//! implementations: the in-memory latency-modelled
//! [`Testbed`](crate::harness::Testbed), which times every attached
//! switch's ops on that switch's [`SwitchCore`](crate::chan::SwitchCore),
//! and `tango-net`'s `TcpFleet`, which speaks real `ofwire` bytes over
//! loopback TCP to an `AgentServer` running the same core and carries
//! fleet inference without the layers above noticing.
//!
//! The shape is deliberately asynchronous even though the testbed is
//! single-threaded: operations are *submitted* with a controller-side
//! ready time and identified by an [`OpToken`]; completions surface later
//! in virtual-time order via
//! [`ControlPath::next_completion`]. Synchronous call-and-wait usage is a
//! thin adapter (submit, then drain until your token appears).

use crate::pipeline::Hit;
use ofwire::flow_match::FlowKey;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use simnet::telemetry::Telemetry;
use simnet::time::SimTime;
use std::collections::VecDeque;

/// Identifies one submitted operation. Tokens are unique per control
/// path for its lifetime and compare/hash cheaply.
///
/// Tokens are minted from one per-path counter: each `submit` returns a
/// sequence number exactly one greater than the previous submit's, with
/// the first at zero. Consumers may rely on this density — [`TokenRing`]
/// files in-flight bookkeeping in a flat ring indexed by `seq() - base`
/// instead of a hash map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpToken(pub(crate) u64);

impl OpToken {
    /// The token's position in the control path's global submit order.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.0
    }

    /// Mints the token with the given sequence number. Only
    /// [`ControlPath`] implementations should call this — a transport
    /// outside this crate needs it to mint its own dense token stream,
    /// with the same density contract as [`OpToken::seq`] documents.
    #[must_use]
    pub fn from_seq(seq: u64) -> OpToken {
        OpToken(seq)
    }
}

/// Per-token bookkeeping for operations in flight, filed in a flat ring
/// over token sequence numbers.
///
/// [`OpToken`]s are dense per control path (see [`OpToken::seq`]), so
/// filing entries at `seq - base` in a deque makes insert and remove an
/// array access with no hashing, and the drained front compacts away as
/// completions arrive in roughly token order — the ring stays as wide as
/// the span of outstanding tokens.
#[derive(Debug)]
pub struct TokenRing<T> {
    /// Sequence number of `slots[0]`; fixed by the first insert.
    base: Option<u64>,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for TokenRing<T> {
    fn default() -> TokenRing<T> {
        TokenRing {
            base: None,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> TokenRing<T> {
    /// Files `entry` under `token`, which must not be older than the
    /// oldest token still filed.
    pub fn insert(&mut self, token: OpToken, entry: T) {
        let base = *self.base.get_or_insert(token.seq());
        debug_assert!(token.seq() >= base, "token older than the ring's base");
        let off = usize::try_from(token.seq() - base).expect("token offset fits usize");
        while self.slots.len() <= off {
            self.slots.push_back(None);
        }
        debug_assert!(self.slots[off].is_none(), "token filed twice");
        self.slots[off] = Some(entry);
        self.live += 1;
    }

    /// Removes and returns the entry for `token`; `None` for tokens this
    /// ring never filed (foreign ops the caller had in flight).
    pub fn remove(&mut self, token: OpToken) -> Option<T> {
        let base = self.base?;
        let off = usize::try_from(token.seq().checked_sub(base)?).ok()?;
        let entry = self.slots.get_mut(off)?.take()?;
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base = Some(self.base.expect("base set while compacting") + 1);
        }
        Some(entry)
    }

    /// True when nothing is filed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The entry with the lowest token, if any.
    #[must_use]
    pub fn first(&self) -> Option<&T> {
        self.slots.iter().find_map(Option::as_ref)
    }
}

/// The outcome of a completed flow-mod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// Applied successfully.
    Ok,
    /// Rejected: all tables full.
    TableFull,
}

/// An operation a controller can submit to a switch.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOp {
    /// One flow-mod, individually barriered.
    FlowMod(FlowMod),
    /// A pipelined batch of flow-mods fenced by a single barrier (the
    /// paper's installation-time measurement methodology).
    Batch(Vec<FlowMod>),
    /// A data-plane probe packet injected via `packet_out`, matching
    /// `key`. Completes when the forwarding outcome is known.
    Probe(FlowKey),
    /// An `echo_request` with a payload of the given size — the classic
    /// control-channel liveness/RTT probe.
    Echo(usize),
}

/// What a completed operation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpOutcome {
    /// A single flow-mod finished.
    FlowMod(OpResult),
    /// A batch finished; per-op accept/reject tallies.
    Batch {
        /// Operations applied.
        ok: usize,
        /// Operations rejected (table full).
        failed: usize,
    },
    /// A probe came back, served from the given path level.
    Probe(Hit),
    /// An echo reply arrived.
    Echo,
}

/// The completion event of one submitted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Token returned by the originating submit.
    pub token: OpToken,
    /// Switch that executed the operation.
    pub dpid: Dpid,
    /// When the switch finished applying the op (data-plane visible).
    pub done_at: SimTime,
    /// When the controller observes the result (done + return latency).
    pub acked_at: SimTime,
    /// What the operation produced.
    pub outcome: OpOutcome,
}

impl Completion {
    /// The flow-mod result, treating a fully successful batch as `Ok`.
    /// Panics on probe/echo completions, which carry no accept/reject
    /// semantics.
    #[must_use]
    pub fn result(&self) -> OpResult {
        match self.outcome {
            OpOutcome::FlowMod(r) => r,
            OpOutcome::Batch { failed: 0, .. } => OpResult::Ok,
            OpOutcome::Batch { .. } => OpResult::TableFull,
            OpOutcome::Probe(_) | OpOutcome::Echo => {
                panic!("probe/echo completions have no flow-mod result")
            }
        }
    }
}

/// The `ready_at` that means "this op leaves the controller the instant
/// the previous op submitted to the same switch is acknowledged" — that
/// op's `acked_at`, or the attach time when the switch has had none.
/// The side that owns the virtual clock computes every `acked_at`, so it
/// resolves the dependency itself and a window of ops paced on acks can
/// be submitted (and, over a socket, written) at once. A value of
/// `ready_at`, not a second submit method, so that a decorator written
/// method by method over [`ControlPath`] still sees every op.
pub const READY_ON_PREVIOUS_ACK: SimTime = SimTime(u64::MAX);

/// A transport that carries OpenFlow operations to switches and returns
/// completion events in virtual-time order.
pub trait ControlPath {
    /// The controller-side clock this path is synchronized to.
    fn now(&self) -> SimTime;

    /// Submits `op` to switch `dpid`, leaving the controller at
    /// `ready_at` (which must not precede `now`). The op serializes
    /// behind earlier ops on the same switch's control channel; the
    /// returned token identifies its eventual completion.
    ///
    /// `ready_at` may be [`READY_ON_PREVIOUS_ACK`], resolved by every
    /// implementation to the instant an explicit submit at the
    /// predecessor's `acked_at` would have named. Chained and explicit
    /// submits mix freely: each op queues behind everything submitted to
    /// its switch before it.
    fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken;

    /// Delivers the next completion in virtual-time order, advancing the
    /// clock to its processing instant. `None` when nothing is in
    /// flight.
    fn next_completion(&mut self) -> Option<Completion>;

    /// Drives the path until `token`'s completion surfaces, buffering
    /// any other completions that finish first. Panics if the token is
    /// not in flight — that is a controller logic error, not a runtime
    /// condition.
    fn wait_for(&mut self, token: OpToken) -> Completion;

    /// Advances the controller-side clock to `t` (which must not precede
    /// `now`). Drivers that consume completions out of band use this to
    /// leave the clock where a synchronous call-and-wait loop would have
    /// left it — at the last acknowledgement they observed.
    fn warp_to(&mut self, t: SimTime);

    /// The path's telemetry handle, if it carries one. Layers above
    /// (drivers, fleet, schedulers) emit their spans and metrics through
    /// this so one recorder per experiment cell collects the whole
    /// stack; the default (`None`) keeps paths without telemetry — and
    /// every test double — untouched.
    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        None
    }

    /// The export track spans about switch `dpid` should land on, if
    /// the path assigns per-switch tracks. Defaults to `None` (callers
    /// then skip per-switch spans rather than misfile them).
    fn track_of(&self, dpid: Dpid) -> Option<u32> {
        let _ = dpid;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_ring_compacts_the_front_and_ignores_foreign_tokens() {
        let mut ring = TokenRing::default();
        assert!(ring.is_empty());
        // The first insert fixes the base; earlier tokens are foreign.
        for seq in 5..9 {
            ring.insert(OpToken(seq), seq * 10);
        }
        assert_eq!(ring.remove(OpToken(4)), None);
        assert_eq!(ring.remove(OpToken(9)), None);
        // Out-of-order removes leave a hole until the front drains.
        assert_eq!(ring.remove(OpToken(6)), Some(60));
        assert_eq!(ring.remove(OpToken(6)), None);
        assert_eq!(ring.slots.len(), 4);
        assert_eq!(ring.first(), Some(&50));
        assert_eq!(ring.remove(OpToken(5)), Some(50));
        assert_eq!((ring.base, ring.slots.len()), (Some(7), 2));
        assert_eq!(ring.first(), Some(&70));
        assert_eq!(ring.remove(OpToken(8)), Some(80));
        assert_eq!(ring.remove(OpToken(7)), Some(70));
        assert!(ring.is_empty());
        assert_eq!(ring.first(), None);
        // A drained ring keeps counting from where it stopped.
        ring.insert(OpToken(9), 90);
        assert_eq!(ring.remove(OpToken(9)), Some(90));
        assert_eq!((ring.base, ring.slots.len()), (Some(10), 0));
    }
}
