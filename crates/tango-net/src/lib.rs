//! # tango-net — the real-transport control plane
//!
//! Everything below `tango` so far exercises `ofwire` through in-memory
//! queues. This crate takes the same bytes onto actual TCP sockets: a
//! dependency-free, non-blocking reactor (a readiness loop over
//! `std::net` sockets — no `mio`, no `libc`) hosting N switch-agent
//! connections in one thread, and a controller endpoint with
//! per-connection state machines.
//!
//! ## Layout
//!
//! * [`reactor`] — the transport core: [`reactor::OutBuf`] (reused
//!   write buffers with backpressure watermarks), [`reactor::NbConn`]
//!   (one non-blocking connection), [`reactor::Pacer`] (idle backoff so
//!   the readiness loop never spins hot).
//! * [`vt`] — the virtual-time side channel, carried in OpenFlow
//!   vendor messages, that lets fleet inference over real sockets
//!   reproduce the in-memory testbed's timestamps bit-for-bit.
//! * [`server`] — [`server::AgentServer`]: hosts the switch agents,
//!   in wall-clock mode (benchmarks) or virtual-time mode (inference).
//! * [`control`] — [`control::TcpFleet`]: a
//!   [`ControlPath`](switchsim::control::ControlPath) over loopback
//!   TCP, so `tango::fleet::run_inference` runs unmodified against the
//!   agent server.
//!
//! ## Design rules
//!
//! The hot loop follows three rules throughout:
//!
//! 1. **Zero-copy inbound framing** — sockets read into one shared
//!    scratch buffer; whole frames are read where they lie in it via
//!    [`Framer::next_frame_from`](ofwire::codec::Framer::next_frame_from)
//!    (server side: straight into
//!    [`Agent::feed_into`](switchsim::agent::Agent::feed_into); the
//!    virtual-time server forwards op frames to the agent as they
//!    arrived); only torn frames are ever copied by the framer.
//! 2. **Reused outbound buffers** — frames append to a per-connection
//!    [`reactor::OutBuf`] via
//!    [`encode_frame_into`](ofwire::message::Message::encode_frame_into);
//!    steady state allocates nothing per message, and one `write(2)`
//!    flushes a whole pipeline window (syscall batching).
//! 3. **Explicit backpressure** — a connection whose write buffer
//!    crosses its high watermark stops being read until it drains below
//!    the low watermark. No queue in this crate is unbounded.

pub mod control;
pub mod reactor;
pub mod server;
pub mod vt;
