//! Reliable FIFO point-to-point channels over lossy, reordering links.
//!
//! The OAR system model (§3 of the paper) assumes reliable FIFO channels. When
//! the simulated network is configured to be perfect this layer is not needed,
//! but the repository also evaluates the protocol over lossy links; this module
//! provides the classic sequence-number / cumulative-ack / retransmission
//! construction of reliable FIFO channels on top of fair-lossy links.

use std::collections::BTreeMap;

use oar_sequence::IdMap;
use oar_simnet::ProcessId;

use crate::component::Outgoing;

/// Wire messages of the reliable FIFO channel layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FifoWire<M> {
    /// A data message with its per-link sequence number.
    Data {
        /// Sequence number, starting at 0, per ordered (sender → receiver) link.
        seq: u64,
        /// The payload.
        msg: M,
    },
    /// A cumulative acknowledgement: all sequence numbers `< next` have been
    /// received in order.
    Ack {
        /// The next sequence number expected by the receiver.
        next: u64,
    },
}

/// One endpoint of the reliable FIFO channel layer, managing the links from
/// this process to every peer and from every peer to this process.
///
/// Retransmission is driven by the host calling [`FifoLink::on_tick`]
/// periodically (e.g. every few milliseconds of simulated time).
#[derive(Debug)]
pub struct FifoLink<M> {
    send_next: IdMap<ProcessId, u64>,
    unacked: IdMap<ProcessId, BTreeMap<u64, M>>,
    recv_next: IdMap<ProcessId, u64>,
    recv_buffer: IdMap<ProcessId, BTreeMap<u64, M>>,
}

impl<M> Default for FifoLink<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FifoLink<M> {
    /// Creates an endpoint with no history.
    pub fn new() -> Self {
        FifoLink {
            send_next: IdMap::default(),
            unacked: IdMap::default(),
            recv_next: IdMap::default(),
            recv_buffer: IdMap::default(),
        }
    }
}

impl<M: Clone> FifoLink<M> {
    /// Queues `msg` for reliable FIFO delivery to `to` and returns the wire
    /// message to transmit now. The message is kept for retransmission until
    /// acknowledged.
    pub fn send(&mut self, to: ProcessId, msg: M) -> Outgoing<FifoWire<M>> {
        let seq = self.send_next.entry(to).or_insert(0);
        let this_seq = *seq;
        *seq += 1;
        self.unacked
            .entry(to)
            .or_default()
            .insert(this_seq, msg.clone());
        Outgoing::new(to, FifoWire::Data { seq: this_seq, msg })
    }

    /// Handles an incoming wire message from `from`.
    ///
    /// Returns the payloads now deliverable to the upper layer (in FIFO order)
    /// and any wire messages (acks) to transmit.
    pub fn on_wire(
        &mut self,
        from: ProcessId,
        wire: FifoWire<M>,
    ) -> (Vec<M>, Vec<Outgoing<FifoWire<M>>>) {
        match wire {
            FifoWire::Data { seq, msg } => {
                let next = self.recv_next.entry(from).or_insert(0);
                let mut delivered = Vec::new();
                if seq >= *next {
                    self.recv_buffer.entry(from).or_default().insert(seq, msg);
                    // drain contiguous prefix
                    let buffer = self.recv_buffer.entry(from).or_default();
                    while let Some(m) = buffer.remove(next) {
                        delivered.push(m);
                        *next += 1;
                    }
                }
                let ack = Outgoing::new(from, FifoWire::Ack { next: *next });
                (delivered, vec![ack])
            }
            FifoWire::Ack { next } => {
                if let Some(pending) = self.unacked.get_mut(&from) {
                    let keep = pending.split_off(&next);
                    *pending = keep;
                }
                (Vec::new(), Vec::new())
            }
        }
    }

    /// Retransmits every unacknowledged message. The host calls this
    /// periodically; the retransmission period is the host's choice.
    pub fn on_tick(&mut self) -> Vec<Outgoing<FifoWire<M>>> {
        let mut out = Vec::new();
        let mut peers: Vec<ProcessId> = self.unacked.keys().copied().collect();
        peers.sort();
        for to in peers {
            if let Some(pending) = self.unacked.get(&to) {
                for (&seq, msg) in pending {
                    out.push(Outgoing::new(
                        to,
                        FifoWire::Data {
                            seq,
                            msg: msg.clone(),
                        },
                    ));
                }
            }
        }
        out
    }

    /// Number of messages not yet acknowledged by `to`.
    pub fn unacked_to(&self, to: ProcessId) -> usize {
        self.unacked.get(&to).map_or(0, BTreeMap::len)
    }

    /// Total number of unacknowledged messages across all peers.
    pub fn unacked_total(&self) -> usize {
        self.unacked.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProcessId = ProcessId::new(0);
    const B: ProcessId = ProcessId::new(1);

    #[test]
    fn in_order_delivery() {
        let mut a: FifoLink<&str> = FifoLink::new();
        let mut b: FifoLink<&str> = FifoLink::new();
        let w1 = a.send(B, "one");
        let w2 = a.send(B, "two");
        let (d1, acks1) = b.on_wire(A, w1.wire);
        let (d2, _acks2) = b.on_wire(A, w2.wire);
        assert_eq!(d1, vec!["one"]);
        assert_eq!(d2, vec!["two"]);
        assert_eq!(acks1[0].to, A);
        // feeding the ack back clears the retransmission buffer
        assert_eq!(a.unacked_to(B), 2);
        a.on_wire(B, acks1[0].wire.clone());
        assert_eq!(a.unacked_to(B), 1);
    }

    #[test]
    fn out_of_order_messages_are_buffered() {
        let mut a: FifoLink<u32> = FifoLink::new();
        let mut b: FifoLink<u32> = FifoLink::new();
        let w0 = a.send(B, 0);
        let w1 = a.send(B, 1);
        let w2 = a.send(B, 2);
        // deliver 2 first: nothing deliverable yet
        let (d, _) = b.on_wire(A, w2.wire);
        assert!(d.is_empty());
        // deliver 0: only 0 deliverable
        let (d, _) = b.on_wire(A, w0.wire);
        assert_eq!(d, vec![0]);
        // deliver 1: 1 and the buffered 2 become deliverable, in order
        let (d, acks) = b.on_wire(A, w1.wire);
        assert_eq!(d, vec![1, 2]);
        assert_eq!(acks[0].wire, FifoWire::Ack { next: 3 });
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut a: FifoLink<u32> = FifoLink::new();
        let mut b: FifoLink<u32> = FifoLink::new();
        let w0 = a.send(B, 7);
        let (d, _) = b.on_wire(A, w0.wire.clone());
        assert_eq!(d, vec![7]);
        let (d, acks) = b.on_wire(A, w0.wire);
        assert!(d.is_empty());
        // the ack is still re-sent so the sender can stop retransmitting
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn retransmission_until_acked() {
        let mut a: FifoLink<u32> = FifoLink::new();
        let mut b: FifoLink<u32> = FifoLink::new();
        let _lost = a.send(B, 1); // pretend this wire message is lost
        let retries = a.on_tick();
        assert_eq!(retries.len(), 1);
        let (d, acks) = b.on_wire(A, retries[0].wire.clone());
        assert_eq!(d, vec![1]);
        a.on_wire(B, acks[0].wire.clone());
        assert!(a.on_tick().is_empty());
        assert_eq!(a.unacked_total(), 0);
    }

    #[test]
    fn cumulative_ack_clears_prefix() {
        let mut a: FifoLink<u32> = FifoLink::new();
        for i in 0..5 {
            a.send(B, i);
        }
        assert_eq!(a.unacked_to(B), 5);
        a.on_wire(B, FifoWire::Ack { next: 3 });
        assert_eq!(a.unacked_to(B), 2);
        a.on_wire(B, FifoWire::Ack { next: 5 });
        assert_eq!(a.unacked_to(B), 0);
    }

    #[test]
    fn independent_links_per_peer() {
        let mut a: FifoLink<u32> = FifoLink::new();
        let w_b = a.send(B, 1);
        let w_c = a.send(ProcessId::new(2), 2);
        assert!(matches!(w_b.wire, FifoWire::Data { seq: 0, .. }));
        assert!(matches!(w_c.wire, FifoWire::Data { seq: 0, .. }));
        assert_eq!(a.unacked_to(B), 1);
        assert_eq!(a.unacked_to(ProcessId::new(2)), 1);
    }

    /// Model check: under arbitrary loss and duplication of Data messages, the
    /// receiver delivers exactly the sent prefix, in order, as long as enough
    /// retransmission rounds happen.
    #[test]
    fn lossy_link_eventually_delivers_everything_in_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let mut a: FifoLink<u32> = FifoLink::new();
            let mut b: FifoLink<u32> = FifoLink::new();
            let total = 30u32;
            let mut delivered: Vec<u32> = Vec::new();
            let mut initial: Vec<_> = (0..total).map(|i| a.send(B, i)).collect();
            // lose ~half of the initial transmissions
            initial.retain(|_| rng.gen_bool(0.5));
            for w in initial {
                let (d, acks) = b.on_wire(A, w.wire);
                delivered.extend(d);
                for ack in acks {
                    if rng.gen_bool(0.7) {
                        a.on_wire(B, ack.wire);
                    }
                }
            }
            // retransmission rounds
            for _ in 0..10 {
                for w in a.on_tick() {
                    if rng.gen_bool(0.7) {
                        let (d, acks) = b.on_wire(A, w.wire);
                        delivered.extend(d);
                        for ack in acks {
                            if rng.gen_bool(0.7) {
                                a.on_wire(B, ack.wire);
                            }
                        }
                    }
                }
            }
            assert_eq!(delivered, (0..total).collect::<Vec<_>>());
        }
    }
}
