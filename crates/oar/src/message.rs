//! Wire messages of the OAR protocol.
//!
//! All processes of a simulation exchange a single top-level message type,
//! [`OarWire`], which wraps the client/server application messages and the
//! messages of the embedded components (reliable multicast, failure detector,
//! consensus).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use oar_channels::{CastWire, MsgId};
use oar_consensus::ConsensusWire;
use oar_fd::FdWire;
use oar_sequence::Seq;
use oar_simnet::{GroupId, ProcessId};

use crate::shard::MigrationRecord;
use crate::state_machine::StateImage;

/// Identifier of a client request: the client process plus a per-client
/// sequence number (assigned by the reliable multicast layer).
pub type RequestId = MsgId;

/// Identifier of a multi-group transaction: the issuing client plus a
/// per-client transaction counter. Distinct from [`RequestId`] — one
/// transaction fans out into one prepare *request* per participating group,
/// each with its own request id, all stamped with the same `TxnId`.
pub type TxnId = MsgId;

/// The transaction envelope carried by a `TxnPrepare` request (the per-group
/// leg of a multi-group transaction — see [`crate::txn`]).
///
/// Each participating group orders its prepare through its own OAR total
/// order and applies its partition of the transaction atomically (one
/// command, one `apply`). The envelope makes the transaction visible at the
/// protocol layer: servers count prepares ([`crate::ServerStats`]), and the
/// participant list lets tests and tools check cross-group atomicity without
/// peeking into the application command. Single-group transactions take the
/// fast path and carry **no** envelope — their wire traffic is identical to
/// a plain sharded request, which the `txn-smoke` gate counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnEnvelope {
    /// The transaction this prepare belongs to.
    pub txn: TxnId,
    /// Every group participating in the transaction (sorted, deduplicated).
    pub participants: Vec<GroupId>,
}

/// A membership or shard-ownership change, carried as a *fence command*
/// inside an ordinary [`Request`] and settled through the conservative order
/// — the same no-cross-group-agreement discipline as the transaction
/// prepares of [`crate::txn`]. The optimistic delivery path never interprets
/// it; its effects take hold exactly when the carrying request's epoch
/// closes, so every replica of a group reconfigures at the same point of the
/// total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReconfigCmd {
    /// Replace group member `old` by `new` in place. `old` is fenced out of
    /// quorum, GC and sequencer-rotation accounting; `new` joins through the
    /// ordinary `CatchUp*` wires and restores the fault budget.
    Replace {
        /// The member being fenced out (typically crashed, not necessarily).
        old: ProcessId,
        /// The replacement replica.
        new: ProcessId,
    },
    /// Move a key range between groups. Ordered as a fence in **both** the
    /// donor and the recipient group; when the donor settles it, the settled
    /// state of the range is handed off to `to_members` and the routing
    /// epoch bumps, door-redirecting stale senders.
    Migrate {
        /// What moves where, and the routing epoch it establishes.
        record: MigrationRecord,
        /// The members of the recipient group (the donor needs addresses,
        /// not just the group id, to hand the range over).
        to_members: Vec<ProcessId>,
    },
}

/// A client request as carried by `R-multicast(m, Π)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Request<C> {
    /// Unique identifier of the request.
    pub id: RequestId,
    /// The client that issued the request (the paper's `sender(m)`).
    pub client: ProcessId,
    /// The replication group this request was routed to. Servers verify it
    /// against their own group id and count (then drop) mismatches as
    /// misroutes — in a sharded deployment a request reaching the wrong
    /// group would be ordered against the wrong key space. Single-group
    /// deployments use [`GroupId::default`] throughout.
    pub group: GroupId,
    /// `Some` when this request is the per-group prepare of a multi-group
    /// transaction; `None` for plain requests and single-group (fast-path)
    /// transactions.
    pub txn: Option<TxnEnvelope>,
    /// `Some` when this request is a reconfiguration fence; the command it
    /// carries is a benign no-op-grade carrier whose reply completes the
    /// admin's submission.
    pub reconfig: Option<ReconfigCmd>,
    /// The routing epoch of the sender's [`crate::shard::ShardRouter`] at
    /// send time. Servers door-drop requests stamped older than their own
    /// routing epoch and answer with [`OarWire::Redirect`] (counted in
    /// `ServerStats::redirected`). Always 0 in unsharded deployments.
    pub route_epoch: u64,
    /// The command to execute on the replicated service.
    pub command: C,
}

/// The weight of a reply: the set of servers known by the sender to deliver
/// the request at the same position (Fig. 5/6 of the paper). Optimistic replies
/// carry `{s}` or `{p, s}`; conservative replies carry the whole group `Π`.
pub type Weight = BTreeSet<ProcessId>;

/// How the replying server delivered the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Delivered during phase 1 by the sequencer order (`Opt-deliver`).
    Optimistic,
    /// Delivered during phase 2 by the conservative order (`A-deliver`).
    Conservative,
}

/// A server's reply to one client request, as seen by the client after
/// unpacking a [`ReplyBatch`]. All fields shared by the batch (epoch, weight,
/// sender, delivery kind) are copied onto each unpacked reply, so the client's
/// weighted-quorum rule of Fig. 5 is unchanged by the batching.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply<R> {
    /// The request being answered.
    pub request: RequestId,
    /// Epoch in which the request was processed.
    pub epoch: u64,
    /// The servers endorsing this reply.
    pub weight: Weight,
    /// Position of the request in the server's delivery order (the integer
    /// reply used throughout the paper's proofs).
    pub position: u64,
    /// The application-level response.
    pub response: R,
    /// The replying server.
    pub from: ProcessId,
    /// Whether the reply came from an optimistic or a conservative delivery.
    pub kind: DeliveryKind,
}

/// The per-request part of a [`ReplyBatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplyItem<R> {
    /// The request being answered.
    pub request: RequestId,
    /// Position of the request in the server's delivery order.
    pub position: u64,
    /// The application-level response.
    pub response: R,
}

/// A server's replies to one client, coalesced into a single wire message.
///
/// When an `OrderMsg` batch (or a `Cnsv-order` decision) delivers several
/// requests of the same client back to back, the per-request fields travel as
/// [`ReplyItem`]s while the fields that are identical across the batch —
/// epoch, weight, replying server, delivery kind — are carried **once**. One
/// allocation and one network event replace the per-request `Reply` wires.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplyBatch<R> {
    /// Epoch in which every request of the batch was processed.
    pub epoch: u64,
    /// The servers endorsing these replies (identical for the whole batch:
    /// `{p, s}` for optimistic deliveries, `Π` for conservative ones).
    pub weight: Weight,
    /// The replying server.
    pub from: ProcessId,
    /// Whether the batch came from optimistic or conservative deliveries.
    pub kind: DeliveryKind,
    /// Total number of requests (across *all* clients) the delivery batch
    /// that produced this wire carried. Clients feed it to their
    /// [`crate::adaptive::PipelineController`]: the group-wide batch size is
    /// the co-adaptation signal that lets a client grow its pipeline window
    /// while the servers are batching — its *own* item count cannot serve,
    /// since a closed-loop client only ever sees one of its requests per
    /// batch.
    pub batch_hint: u64,
    /// The per-request replies, in delivery order.
    pub items: Vec<ReplyItem<R>>,
}

impl<R: Clone> ReplyBatch<R> {
    /// Unpacks the batch into per-request [`Reply`] values (the form the
    /// client's quorum accounting works with).
    pub fn unpack(&self) -> impl Iterator<Item = Reply<R>> + '_ {
        self.items.iter().map(move |item| Reply {
            request: item.request,
            epoch: self.epoch,
            weight: self.weight.clone(),
            position: item.position,
            response: item.response.clone(),
            from: self.from,
            kind: self.kind,
        })
    }
}

/// The sequencer's ordering message (Task 1a, Fig. 6 line 10): the epoch and
/// the sequence of not-yet-delivered requests, identified by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderMsg {
    /// Epoch of the ordering.
    pub epoch: u64,
    /// Request identifiers in delivery order.
    pub order: Seq<RequestId>,
    /// The sender's settled-epoch watermark (every epoch `< settled` is closed
    /// at the sender), piggybacked for the payload garbage collector.
    pub settled: u64,
}

/// The `(k, PhaseII)` notification R-broadcast by Task 1c.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseIIMsg {
    /// The epoch that must move to the conservative phase.
    pub epoch: u64,
    /// The *origin's* settled-epoch watermark, piggybacked for the payload
    /// garbage collector (relays forward it unchanged; it describes the
    /// process that R-broadcast the notification).
    pub settled: u64,
}

/// The value proposed to the `Cnsv-order` consensus by each server: its
/// sequences of optimistically delivered and received-but-not-delivered
/// requests for the epoch (the paper's `(O_delivered, O_notdelivered)` pair).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CnsvValue {
    /// Requests Opt-delivered by the proposer during the epoch.
    pub o_delivered: Seq<RequestId>,
    /// Requests received but not yet delivered by the proposer.
    pub o_notdelivered: Seq<RequestId>,
}

impl fmt::Display for CnsvValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{};{}}}", self.o_delivered, self.o_notdelivered)
    }
}

/// The top-level wire message exchanged by all processes of an OAR deployment.
#[derive(Clone, Debug, PartialEq)]
pub enum OarWire<C, R> {
    /// A client request travelling through the reliable multicast layer
    /// (initial send from the client or relay between servers). The request
    /// is shared, not copied: every wire, relay and server-side buffer that
    /// holds it points at the one allocation the client made.
    Request(CastWire<Arc<Request<C>>>),
    /// A server's replies to one client, coalesced per delivery batch.
    Replies(ReplyBatch<R>),
    /// The sequencer's ordering message.
    Order(OrderMsg),
    /// A `(k, PhaseII)` notification travelling through the reliable broadcast
    /// layer.
    PhaseII(CastWire<PhaseIIMsg>),
    /// Failure-detector heartbeat, piggybacking the sender's settled-epoch
    /// watermark so the payload garbage collector converges even when no
    /// protocol traffic flows (e.g. after a partition heals).
    Fd {
        /// The failure-detector wire message.
        wire: FdWire,
        /// The sender's settled-epoch watermark.
        settled: u64,
    },
    /// A message of the `Cnsv-order` consensus (instance = epoch).
    Consensus(ConsensusWire<CnsvValue>),
    /// A standalone settled-epoch announcement, broadcast when a server closes
    /// an epoch so peers can promptly garbage-collect payloads decided at or
    /// before the acknowledged watermark.
    Watermark {
        /// The sender's settled-epoch watermark (every epoch `< settled` is
        /// closed at the sender).
        settled: u64,
    },
    /// A restarted replica asking a peer for the state needed to rejoin:
    /// the donor's latest snapshot plus the delta of settled commands since
    /// it (see [`CatchUpReply`]).
    CatchUpRequest {
        /// How many catch-up attempts the requester has made (0-based);
        /// carried so the donor's reply can be matched to the newest attempt
        /// and late replies of abandoned attempts are ignored.
        attempt: u64,
        /// The requester's roster. A donor that still rosters a member the
        /// requester does not (an as-yet-unfenced `Replace` victim) *holds*
        /// the request and serves it when the fence applies, instead of
        /// shipping an image the requester's install gate would reject.
        group: Vec<ProcessId>,
    },
    /// A donor's answer to a [`OarWire::CatchUpRequest`].
    CatchUpReply(Box<CatchUpReply<C>>),
    /// A rejoined replica asking a peer for request payloads it saw ordered
    /// (in an `OrderMsg` or a consensus decision) but whose `R-multicast`
    /// relay was lost while it was down. The multicast layer never re-sends
    /// — every live member already delivered — so without this wire a
    /// rejoiner could stall on a decision forever.
    PayloadFetch {
        /// The request ids whose payloads are missing.
        ids: Vec<RequestId>,
    },
    /// The payloads answering a [`OarWire::PayloadFetch`] (only the ids the
    /// donor still holds; the requester re-asks another peer for the rest).
    PayloadFill {
        /// The full requests, ready to feed the normal delivery path.
        requests: Vec<Arc<Request<C>>>,
    },
    /// A server telling a client its routing is stale: the listed migrations
    /// have settled and the listed requests were **dropped** (door-dropped at
    /// reception, or pruned from the reception buffer by a migration fence).
    /// The client folds the records into its router
    /// ([`crate::shard::ShardRouter::apply_record`]) and re-sends exactly the
    /// dropped requests to their current owner group.
    Redirect {
        /// Every migration the sender has settled, oldest first.
        records: Vec<MigrationRecord>,
        /// The requests the sender dropped. Only these may be re-sent: an
        /// outstanding request the donor already *ordered* has its effect in
        /// the migrated hand-off (and its replies in flight), so re-sending
        /// it to the recipient would execute it a second time under the same
        /// id — at-most-once across groups holds only because re-sends are
        /// restricted to requests no group will ever order.
        dropped: Vec<RequestId>,
    },
    /// The donor side of an online range migration handing the settled state
    /// of the migrated range to a recipient-group member. Every live donor
    /// member sends one (idempotence comes from the deterministic install
    /// request the recipient derives — duplicate hand-offs dedup in the
    /// recipient's multicast layer).
    MigrateState {
        /// The migration being executed.
        record: MigrationRecord,
        /// The settled key/value pairs of the migrated range, in key order.
        entries: Vec<(String, String)>,
        /// The donor's digest over `entries`
        /// ([`crate::state_machine::StateMachine::range_digest`]), letting
        /// the recipient verify the hand-off end to end.
        digest: u64,
    },
    /// Tick-paced anti-entropy probe: the sender's Merkle root over its
    /// settled state at `settled` A-deliveries. A receiver at the same
    /// position with a different root answers with its root node
    /// ([`OarWire::SyncNodeReply`] for index 1), starting the O(log n)
    /// divergence descent.
    SyncProbe {
        /// Number of settled (A-delivered) commands the tree covers; trees
        /// at different positions are incomparable and the probe is ignored.
        settled: u64,
        /// The sender's Merkle root hash.
        root: u64,
        /// The sender's real (non-padding) leaf count. Heap indices are only
        /// comparable between trees whose leaf rows pad to the same width;
        /// when the padded widths differ the receiver skips the descent and
        /// falls back to a full key-set exchange ([`OarWire::SyncKeys`]).
        leaves: u64,
    },
    /// Request one Merkle node during the divergence descent.
    SyncNodeRequest {
        /// The tree position this descent is pinned to.
        settled: u64,
        /// Heap index of the requested node (1 = root).
        index: u64,
        /// The requester's leaf count (shape check, as in `SyncProbe`).
        leaves: u64,
    },
    /// One Merkle node of the responder's tree.
    SyncNodeReply {
        /// The tree position this descent is pinned to.
        settled: u64,
        /// Heap index of the node.
        index: u64,
        /// The node: child hashes, or the leaf's key and hash.
        node: crate::merkle::SyncNode,
        /// The responder's leaf count (shape check, as in `SyncProbe`).
        leaves: u64,
    },
    /// Fallback when two same-settled trees have **differently padded** leaf
    /// rows (a divergence added or removed a key across a power-of-two
    /// boundary): heap indices are incomparable, so instead of descending the
    /// sender ships its full key set. The receiver starts a leaf vote for
    /// every key of the union of the two sets — O(n) votes instead of
    /// O(log n), but only in this (rare) shape-divergent case, and each vote
    /// still settles by group majority.
    SyncKeys {
        /// The tree position this exchange is pinned to.
        settled: u64,
        /// The sender's full settled key set, in key order.
        keys: Vec<String>,
        /// `true` on the initiating half: the receiver answers with its own
        /// key set (with `reply_requested = false`, so the exchange is one
        /// bounded round trip, never a loop).
        reply_requested: bool,
    },
    /// A divergent leaf was localised: ask a peer for its value of `key` so
    /// the group can vote (the majority value among the members is
    /// authoritative — a corrupted minority heals, a healthy majority is
    /// never polluted by a corrupted prober).
    SyncLeafRequest {
        /// The key whose leaf hash diverged.
        key: String,
    },
    /// A peer's vote in a leaf repair election.
    SyncLeafReply {
        /// The key being voted on.
        key: String,
        /// The peer's settled value (`None` = absent).
        value: Option<String>,
    },
}

/// The state transfer a donor sends a rejoining replica: its latest snapshot
/// plus the delta of settled commands ordered since that snapshot — the
/// snapshot/replay split of Marandi & Pedone's recovery scheme. The rejoiner
/// installs the image, replays the delta, and verifies `digest` before
/// resuming participation.
#[derive(Clone, Debug, PartialEq)]
pub struct CatchUpReply<C> {
    /// Echo of the request's `attempt` counter.
    pub attempt: u64,
    /// The donor's latest state image (state after the first
    /// `snapshot_position` A-deliveries). `None` when the machine is not
    /// snapshottable — the delta then carries the full settled history.
    pub image: Option<StateImage>,
    /// Number of A-delivered commands captured inside `image` (the image's
    /// delivery position; 0 when `image` is `None`).
    pub snapshot_position: u64,
    /// State digest at the snapshot position, for install verification.
    pub snapshot_digest: u64,
    /// Chained order-hash over the first `snapshot_position` A-delivered
    /// request ids (see `OarServer`'s `a_base_hash`): lets two replicas
    /// compare compacted prefixes without retaining them.
    pub snapshot_order_hash: u64,
    /// The settled commands ordered after the snapshot, in delivery order,
    /// with payloads — the replay delta.
    pub delta: Vec<Arc<Request<C>>>,
    /// The donor's current epoch (the rejoiner resumes at this epoch).
    pub epoch: u64,
    /// Whether the donor's current epoch is already in the conservative
    /// phase. The `(k, PhaseII)` broadcast is only reliable among processes
    /// that were live when it spread — a replica that was down while every
    /// member delivered it will never receive a copy, so the donor's phase
    /// travels explicitly and the rejoiner enters phase 2 on install.
    pub conservative: bool,
    /// The donor's settled-epoch watermark / GC floor, so the rejoiner's
    /// door-drop filters age exactly as far as the donor's.
    pub gc_floor: u64,
    /// Ids of every settled request the donor still tracks, so the rejoiner
    /// drops stale relays of settled requests at the door instead of
    /// re-relaying them (the PR 3 ping-pong class).
    pub settled: Vec<RequestId>,
    /// The donor's state digest after image + delta, which the rejoiner must
    /// reproduce exactly before resuming.
    pub digest: u64,
    /// The donor's *unsettled* payloads (`R_delivered ⊖ A_delivered`), in
    /// request-id order. Reliable multicast only re-sends among processes
    /// that were live when a request spread, so a request multicast while
    /// the rejoiner was down would otherwise never reach it — fatal once
    /// sequencer rotation makes the rejoiner responsible for ordering it.
    pub pending: Vec<Arc<Request<C>>>,
    /// The donor's group membership at transfer time — a rejoiner that was
    /// down across a settled `Replace` fence must adopt the post-replacement
    /// roster or it would keep heartbeating (and counting quorums against)
    /// the fenced-out replica.
    pub group: Vec<ProcessId>,
    /// The donor's routing-boundary epoch, so a rejoiner that was down
    /// across a settled `Migrate` fence door-drops stale-epoch requests like
    /// everyone else.
    pub route_epoch: u64,
    /// The settled migration records backing `route_epoch` (what
    /// `migrated_away` consults).
    pub migrations: Vec<MigrationRecord>,
}

/// Majority threshold used by both the client quorum rule and the consensus:
/// `⌈(|Π|+1)/2⌉`.
pub fn majority(group_size: usize) -> usize {
    group_size / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_matches_paper_formula() {
        // ⌈(n+1)/2⌉
        assert_eq!(majority(1), 1);
        assert_eq!(majority(2), 2);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(6), 4);
        assert_eq!(majority(7), 4);
    }

    #[test]
    fn cnsv_value_display_uses_paper_notation() {
        let v = CnsvValue {
            o_delivered: Seq::from(vec![RequestId::new(ProcessId::new(9), 0)]),
            o_notdelivered: Seq::new(),
        };
        assert_eq!(format!("{v}"), "{{m9.0};{}}");
    }

    #[test]
    fn delivery_kind_equality() {
        assert_ne!(DeliveryKind::Optimistic, DeliveryKind::Conservative);
    }
}
