//! The pluggable [`Transport`] trait: everything the evaluation engine
//! is allowed to know about the network.
//!
//! `axml-core` drives peers exclusively through this object-safe
//! surface — connect ([`Transport::add_peer`]), framed send/recv
//! ([`Transport::send_attempt`] / [`Transport::recv_from`]),
//! deterministic time ([`Transport::now_ms`] / [`Transport::advance`])
//! and per-link statistics ([`Transport::stats`]) — so the engine is
//! *transport-blind*: the same session runs unchanged over the
//! discrete-event reference backend
//! ([`SimTransport`](crate::sim::SimTransport)) or the real
//! multi-process loopback backend
//! ([`SocketTransport`](crate::socket::SocketTransport)).
//!
//! # Contract
//!
//! Implementations must uphold, in the same way the simulator does:
//!
//! * **Framing** — one `send_attempt` is one message: it is delivered
//!   whole by a single `recv_from` or not at all. No coalescing, no
//!   fragmentation visible to the caller.
//! * **Per-link FIFO** — two messages accepted on the same directed
//!   link arrive in send order.
//! * **Deterministic time** — `now_ms` is *virtual* time derived from
//!   the [`LinkCost`] model, never the wall clock; two runs with the
//!   same seed and send sequence observe identical timestamps.
//! * **Error mapping** — failures surface as typed
//!   [`NetError`]s: `LinkDown`/`PeerDown`/`Dropped`
//!   for modelled (deterministic, retryable) faults, `Wire` for real
//!   backend breakage outside the model.
//! * **Statistics** — every accepted cross-peer message is charged to
//!   [`NetStats`] at send time with the link's
//!   [`charged_bytes`](LinkCost::charged_bytes); local (`from == to`)
//!   deliveries are free and uncounted.
//!
//! `TRANSPORT.md` at the repository root is the long-form version of
//! this contract, with a sim-vs-socket comparison table.

use crate::error::{NetError, NetResult};
use crate::link::{LinkCost, Topology};
use crate::sim::FaultPlan;
use crate::stats::{NetStats, SchedStats};
use crate::Payload;
use axml_xml::ids::PeerId;

/// A message that can be serialized into the payload of an AXTR wire
/// frame (see [`crate::frame`]).
///
/// The socket backend ships these bytes across the process boundary
/// and verifies the endpoint's acknowledgement digest against them.
/// The encoding must be **deterministic** — equal messages must encode
/// to equal bytes, or the differential oracle's digest reconciliation
/// would flap.
pub trait FramedPayload {
    /// Serialize this message into frame-payload bytes.
    fn frame_payload(&self) -> Vec<u8>;
}

impl FramedPayload for String {
    fn frame_payload(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

impl FramedPayload for &str {
    fn frame_payload(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

/// The pluggable network substrate under an AXML system.
///
/// Object-safe on purpose: `axml-core` holds a
/// `Box<dyn Transport<Wire> + Send>` and never names a concrete
/// backend. See the [module docs](self) for the behavioral contract.
pub trait Transport<M: Payload> {
    /// A short backend label for reports and diagnostics
    /// (`"sim"`, `"socket"`, …).
    fn backend(&self) -> &'static str;

    /// Connect a new peer, returning its id (ids are dense and
    /// assigned in registration order). For the simulator this is a
    /// table insert; for the socket backend it performs the `Hello`
    /// handshake with the peer's endpoint process.
    fn add_peer(&mut self, name: &str) -> PeerId;

    /// Number of connected peers.
    fn peer_count(&self) -> usize;

    /// The display name of a peer.
    fn peer_name(&self, p: PeerId) -> NetResult<&str>;

    /// Configure both directions of a link.
    fn set_link(&mut self, a: PeerId, b: PeerId, cost: LinkCost);

    /// Configure one direction of a link.
    fn set_link_directed(&mut self, from: PeerId, to: PeerId, cost: LinkCost);

    /// The cost of the directed link `from → to`.
    fn link(&self, from: PeerId, to: PeerId) -> LinkCost;

    /// Administratively fail both directions of a link.
    fn fail_link(&mut self, a: PeerId, b: PeerId);

    /// Undo a [`Transport::fail_link`].
    fn restore_link(&mut self, a: PeerId, b: PeerId);

    /// Is the directed link administratively up?
    fn link_up(&self, from: PeerId, to: PeerId) -> bool;

    /// Install a seeded fault plan (replaces any previous plan and
    /// restarts its attempt streams).
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// Remove the installed fault plan, returning it.
    fn clear_fault_plan(&mut self) -> Option<FaultPlan>;

    /// The installed fault plan, if any.
    fn fault_plan(&self) -> Option<&FaultPlan>;

    /// Is `to` reachable from `from` right now (administratively up, no
    /// outage window, neither peer crashed)?
    fn reachable(&self, from: PeerId, to: PeerId) -> bool;

    /// Attempt to send `msg`; on success returns the (virtual) arrival
    /// time, on failure returns the typed error *and the message back*
    /// so the caller can retry the same payload.
    fn send_attempt(&mut self, from: PeerId, to: PeerId, msg: M) -> Result<f64, (NetError, M)>;

    /// Deliver the earliest pending message with its sender, advancing
    /// the virtual clock to its arrival time.
    fn recv_from(&mut self) -> Option<(PeerId, PeerId, M, f64)>;

    /// Arrival time of the earliest pending delivery, if any.
    fn peek_arrival(&self) -> Option<f64>;

    /// Drop every in-flight message without delivering it (statistics
    /// are kept — they were charged at send time).
    fn clear_in_flight(&mut self);

    /// Are deliveries pending?
    fn has_pending(&self) -> bool;

    /// Number of queued deliveries.
    fn pending_len(&self) -> usize;

    /// Current virtual time in milliseconds.
    fn now_ms(&self) -> f64;

    /// Advance the virtual clock (models local computation time).
    fn advance(&mut self, ms: f64);

    /// Accumulated transfer statistics.
    fn stats(&self) -> &NetStats;

    /// Reset statistics (keeps peers, links, clock and queue).
    fn reset_stats(&mut self);

    // ---- provided conveniences ------------------------------------

    /// Event-queue counters (zeros for backends without one).
    fn sched_stats(&self) -> SchedStats {
        SchedStats::default()
    }

    /// Fallible send discarding the returned message on error.
    fn try_send(&mut self, from: PeerId, to: PeerId, msg: M) -> NetResult<f64> {
        self.send_attempt(from, to, msg).map_err(|(e, _)| e)
    }

    /// Infallible send; panics if the link is down or faulted.
    fn send(&mut self, from: PeerId, to: PeerId, msg: M) -> f64 {
        self.try_send(from, to, msg)
            .expect("send over a down link — use try_send to handle failures")
    }

    /// Deliver the earliest pending message (receiver, message,
    /// arrival time).
    fn recv(&mut self) -> Option<(PeerId, M, f64)> {
        self.recv_from().map(|(_, to, m, at)| (to, m, at))
    }

    /// Lay down a whole standard [`Topology`] through the trait
    /// surface: peers named `p0 … pN-1`, every directed link set from
    /// [`Topology::link`]. Works identically on every backend.
    fn install_topology(&mut self, topology: &Topology) {
        let base = self.peer_count();
        let n = topology.peer_count();
        for i in 0..n {
            self.add_peer(&format!("p{}", base + i));
        }
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let (pa, pb) = (PeerId((base + a) as u32), PeerId((base + b) as u32));
                    self.set_link_directed(pa, pb, topology.link(a, b));
                }
            }
        }
    }
}

impl<M: Payload> Transport<M> for crate::sim::SimTransport<M> {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn add_peer(&mut self, name: &str) -> PeerId {
        crate::sim::SimTransport::add_peer(self, name)
    }

    fn peer_count(&self) -> usize {
        crate::sim::SimTransport::peer_count(self)
    }

    fn peer_name(&self, p: PeerId) -> NetResult<&str> {
        crate::sim::SimTransport::peer_name(self, p)
    }

    fn set_link(&mut self, a: PeerId, b: PeerId, cost: LinkCost) {
        crate::sim::SimTransport::set_link(self, a, b, cost)
    }

    fn set_link_directed(&mut self, from: PeerId, to: PeerId, cost: LinkCost) {
        crate::sim::SimTransport::set_link_directed(self, from, to, cost)
    }

    fn link(&self, from: PeerId, to: PeerId) -> LinkCost {
        crate::sim::SimTransport::link(self, from, to)
    }

    fn fail_link(&mut self, a: PeerId, b: PeerId) {
        crate::sim::SimTransport::fail_link(self, a, b)
    }

    fn restore_link(&mut self, a: PeerId, b: PeerId) {
        crate::sim::SimTransport::restore_link(self, a, b)
    }

    fn link_up(&self, from: PeerId, to: PeerId) -> bool {
        crate::sim::SimTransport::link_up(self, from, to)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        crate::sim::SimTransport::set_fault_plan(self, plan)
    }

    fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        crate::sim::SimTransport::clear_fault_plan(self)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        crate::sim::SimTransport::fault_plan(self)
    }

    fn reachable(&self, from: PeerId, to: PeerId) -> bool {
        crate::sim::SimTransport::reachable(self, from, to)
    }

    fn send_attempt(&mut self, from: PeerId, to: PeerId, msg: M) -> Result<f64, (NetError, M)> {
        crate::sim::SimTransport::send_attempt(self, from, to, msg)
    }

    fn recv_from(&mut self) -> Option<(PeerId, PeerId, M, f64)> {
        crate::sim::SimTransport::recv_from(self)
    }

    fn peek_arrival(&self) -> Option<f64> {
        crate::sim::SimTransport::peek_arrival(self)
    }

    fn clear_in_flight(&mut self) {
        crate::sim::SimTransport::clear_in_flight(self)
    }

    fn has_pending(&self) -> bool {
        crate::sim::SimTransport::has_pending(self)
    }

    fn pending_len(&self) -> usize {
        crate::sim::SimTransport::pending_len(self)
    }

    fn now_ms(&self) -> f64 {
        crate::sim::SimTransport::now_ms(self)
    }

    fn advance(&mut self, ms: f64) {
        crate::sim::SimTransport::advance(self, ms)
    }

    fn stats(&self) -> &NetStats {
        crate::sim::SimTransport::stats(self)
    }

    fn reset_stats(&mut self) {
        crate::sim::SimTransport::reset_stats(self)
    }

    fn sched_stats(&self) -> SchedStats {
        crate::sim::SimTransport::sched_stats(self)
    }

    fn install_topology(&mut self, topology: &Topology) {
        // O(n) fast path: the simulator stores topologies by rule
        // instead of materializing the n² link matrix.
        crate::sim::SimTransport::install_topology(self, topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;

    #[test]
    fn sim_behaves_identically_through_the_trait_object() {
        let mut direct: SimTransport<String> = SimTransport::new();
        let a = direct.add_peer("a");
        let b = direct.add_peer("b");
        direct.set_link(a, b, LinkCost::wan());
        let at_direct = direct.send(a, b, "x".repeat(100));

        let mut boxed: Box<dyn Transport<String>> = Box::new(SimTransport::<String>::new());
        let a2 = boxed.add_peer("a");
        let b2 = boxed.add_peer("b");
        assert_eq!((a2, b2), (a, b));
        boxed.set_link(a2, b2, LinkCost::wan());
        let at_boxed = boxed.send(a2, b2, "x".repeat(100));

        assert_eq!(at_direct, at_boxed);
        assert_eq!(boxed.backend(), "sim");
        assert_eq!(
            boxed.stats().total_bytes(),
            direct.stats().total_bytes(),
            "identical charging through either surface"
        );
        let (to, msg, _) = boxed.recv().unwrap();
        assert_eq!((to, msg.len()), (b, 100));
    }

    #[test]
    fn install_topology_matches_with_topology() {
        let t = Topology::Clustered {
            clusters: vec![2, 2],
            intra: LinkCost::lan(),
            inter: LinkCost::wan(),
        };
        let reference: SimTransport<String> = SimTransport::with_topology(&t);
        let mut via_trait: SimTransport<String> = SimTransport::new();
        Transport::<String>::install_topology(&mut via_trait, &t);
        assert_eq!(via_trait.peer_count(), reference.peer_count());
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(
                    via_trait.link(PeerId(a), PeerId(b)),
                    reference.link(PeerId(a), PeerId(b)),
                    "link {a}->{b}"
                );
            }
        }
        assert_eq!(via_trait.peer_name(PeerId(3)).unwrap(), "p3");
    }

    #[test]
    fn string_frame_payloads_are_their_bytes() {
        assert_eq!("hi".frame_payload(), b"hi".to_vec());
        assert_eq!(String::from("hé").frame_payload(), "hé".as_bytes());
    }
}
