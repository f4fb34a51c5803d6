//! The OAR server (Fig. 6 of the paper).
//!
//! Each server is a single [`Process`] that composes:
//!
//! * a [`ReliableCaster`] receiving (and relaying) client requests — Task 0;
//! * the sequencer logic — Task 1a (ordering) and Task 1b (Opt-delivery);
//! * a [`HeartbeatFd`] whose suspicion of the sequencer triggers Task 1c;
//! * a second [`ReliableCaster`] for the `(k, PhaseII)` broadcast;
//! * one [`MajConsensus`] instance per epoch implementing the reduction of
//!   `Cnsv-order` to consensus — Task 2;
//! * the replicated [`StateMachine`] with its undo stack, so that
//!   `Opt-undeliver` can roll back optimistic deliveries in reverse order.
//!
//! The server progresses through epochs; the sequencer of epoch `k` is
//! `Π[k mod |Π|]` (the rotating-coordinator rule of §5.3).
//!
//! # Hot-path data structures
//!
//! The per-request work of the optimistic phase is O(1) amortised:
//!
//! * `O_delivered` and `A_delivered` are indexed [`Seq`]s, so the membership
//!   tests of Tasks 1a/1b (`delivered_already`) cost O(1) instead of a scan;
//! * the not-yet-deliverable suffix of the sequencer order is a `VecDeque`
//!   plus a membership `IdSet`, so draining it is O(1) per request;
//! * the sequencer keeps a cursor into `R_delivered` (`order_cursor`) marking
//!   the prefix it has already examined, so Task 1a only scans *new* requests
//!   instead of the whole reception buffer on every invocation;
//! * epoch close appends to `A_delivered` in place rather than rebuilding it.
//!
//! # Sequencer batching
//!
//! Task 1a accumulates unordered requests and emits a single `OrderMsg`
//! carrying the whole batch once the backlog reaches the batch threshold.
//! With `max_batch = 1` — the default — every request is ordered immediately,
//! exactly like the paper's Fig. 6; larger values amortise the ordering
//! broadcast over many requests, which is what makes the ordering layer keep
//! up at high client counts (`ServerStats::order_messages_sent` drops well
//! below the request count).
//!
//! The threshold is either static ([`OarConfig::max_batch`]) or — with
//! [`OarConfig::adaptive`] set — owned by a
//! [`BatchController`] that aims it at the
//! observed arrival rate, converging to 1 under light load (no added
//! latency) and growing under pressure. A partial batch never waits for the
//! maintenance tick: a dedicated **flush deadline** timer
//! ([`OarConfig::flush_delay`], or the adaptive controller's `max_delay`)
//! orders it a bounded time after its first unflushed arrival, independent
//! of the tick cadence. `ServerStats::effective_batch` /
//! `ServerStats::batch_sizes` record the batches actually emitted;
//! `batch_target`, `target_raises` and `target_drops` expose the
//! controller's convergence.
//!
//! # Batch-aware replies
//!
//! Replies follow the same discipline: while a delivery batch (the drain of
//! an `OrderMsg`, or the A-deliveries of a `Cnsv-order` decision) runs, the
//! per-request replies destined for the same client are accumulated and
//! flushed as **one** `ReplyBatch` wire per client — one allocation and one
//! network event where the unbatched protocol paid one `Reply` per request.
//! `flush_replies` is the single construction
//! site for both the optimistic and the conservative reply path;
//! `ServerStats::reply_messages_sent` counts the wires,
//! `ServerStats::replies_sent` the individual request replies they carry.
//!
//! # Payload garbage collection (epoch watermark)
//!
//! Fig. 7 only needs a request's payload until the decision covering it is
//! settled, so `payloads` need not grow with the lifetime of the server.
//! Every server piggybacks its *settled-epoch watermark* — all epochs `< w`
//! are closed locally — on the ordering and `PhaseII` traffic, on
//! failure-detector heartbeats, and announces it explicitly when an epoch
//! closes. Once every replica this server does not suspect acknowledges
//! watermark `w`, the payloads of requests decided in epochs `< w` are
//! pruned. A server never prunes payloads of epochs it has not itself
//! settled (its own watermark participates in the minimum), so late
//! deliveries and fail-overs keep working from local state;
//! `ServerStats::payloads` exposes the current and peak map size so the
//! bound is observable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use oar_channels::{CastWire, Delivery, ReliableCaster};
use oar_consensus::{ConsensusSend, ConsensusWire, Decision, MajConsensus};
use oar_fd::{FdEvent, HeartbeatFd};
use oar_sequence::{IdMap, IdSet, Seq};
use oar_simnet::{
    BucketHistogram, PeakGauge, Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag,
};

use crate::adaptive::BatchController;
use crate::cnsv_order::cnsv_order_outcome;
use crate::config::OarConfig;
use crate::merkle::MerkleTree;
use crate::message::{
    majority, CatchUpReply, CnsvValue, DeliveryKind, OarWire, OrderMsg, PhaseIIMsg, ReconfigCmd,
    ReplyBatch, ReplyItem, Request, RequestId, Weight,
};
use crate::shard::{KeyRange, MigrationRecord};
use crate::state_machine::{entries_digest, AppliedBatch, StateImage, StateMachine};

/// Applies one delivery batch to the state machine, routing through
/// [`StateMachine::apply_batch`] when parallel apply is configured and the
/// batch has room for concurrency. A free function over the individual
/// fields so callers can keep disjoint borrows of the server.
///
/// Wall-clock time spent applying and the wave partition used are recorded
/// in the stats; both are observability only and never feed back into the
/// (deterministic) protocol.
fn apply_command_batch<S: StateMachine>(
    sm: &mut S,
    parallel: Option<usize>,
    stats: &mut ServerStats,
    commands: &[&S::Command],
) -> Vec<(S::Response, S::Undo)> {
    let start = std::time::Instant::now();
    let batch = match parallel {
        Some(workers) if commands.len() > 1 => sm.apply_batch(commands, workers),
        _ => AppliedBatch {
            results: commands.iter().map(|c| sm.apply(c)).collect(),
            wave_sizes: vec![1; commands.len()],
        },
    };
    stats.apply_ns += start.elapsed().as_nanos() as u64;
    for &size in &batch.wave_sizes {
        stats.wave_sizes.record(size);
    }
    batch.results
}

/// Replies accumulated during one delivery batch, keyed by destination
/// client. `BTreeMap` so the flush order (and thus the simulation schedule)
/// is deterministic.
type PendingReplies<R> = BTreeMap<ProcessId, Vec<ReplyItem<R>>>;

/// Wires buffered during catch-up, tagged with their sender for replay.
type RecoveryBuffer<S> = Vec<(
    ProcessId,
    OarWire<<S as StateMachine>::Command, <S as StateMachine>::Response>,
)>;

/// Timer tag of the periodic maintenance tick.
const TICK: TimerTag = TimerTag::Tick;

/// Timer tag of the one-shot partial-batch flush deadline.
const FLUSH: TimerTag = TimerTag::Flush;

/// Timer tag of the catch-up retry clock (armed only while recovering).
const CATCHUP: TimerTag = TimerTag::CatchUp;

/// Exponential-backoff cap of the catch-up retry delay, as a power of two:
/// attempts back off 1×, 2×, 4×, 8× [`OarConfig::catch_up_retry`] and stay
/// at 8× from there (donor rotation keeps every retry trying a new peer).
const CATCHUP_BACKOFF_CAP: u32 = 3;

/// Anti-entropy ticks an unresolved leaf-repair vote may stay in flight
/// before it expires. A vote resolves early on any strict group majority;
/// the deadline covers the remainder — a crashed or unreachable member whose
/// ballot never arrives, or a split with no majority — so a wedged vote
/// cannot block every future repair attempt for its key (`start_leaf_vote`
/// is idempotent per in-flight key). A healthy vote round-trips well within
/// one tick; eight is comfortably past any burst of probe races.
const SYNC_VOTE_EXPIRY_TICKS: u64 = 8;

/// At most this many missing payloads are named in one `PayloadFetch` wire;
/// the rest follow on later ticks once the first batch lands.
const FETCH_BATCH: usize = 64;

/// One link of the chained order-hash over settled request ids:
/// `h_i = mix(h_{i-1}, id_i)` (splitmix64-style finalizer). Replicas that
/// compacted their `A_delivered` prefix compare the chain value at a common
/// position instead of the pruned elements; the chain over the full prefix
/// commits to both content and order.
fn chain_hash(h: u64, id: RequestId) -> u64 {
    let mut x = h
        ^ (id.origin.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ id.seq.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The server's latest snapshot: the state image captured at an epoch close
/// plus the metadata needed to serve a [`CatchUpReply`] and to compare the
/// compacted prefix with other replicas.
#[derive(Clone, Debug)]
struct SnapshotRecord {
    /// The state image (`None` when the machine is not snapshottable —
    /// catch-up then ships the full settled history as the delta).
    image: Option<StateImage>,
    /// Number of settled commands captured inside `image`.
    position: u64,
    /// State digest at `position`.
    digest: u64,
    /// Chained order-hash over the first `position` settled request ids.
    order_hash: u64,
}

/// Which phase of the current epoch the server is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: the sequencer orders messages optimistically.
    Optimistic,
    /// Phase 2: the group runs `Cnsv-order` (consensus) to close the epoch.
    Conservative,
}

/// One entry of the server's delivery log, used by tests and experiments to
/// check the paper's propositions (total order, at-most-once, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeliveryRecord {
    /// `Opt-deliver(m)` at the given global position.
    OptDeliver {
        /// Epoch of the delivery.
        epoch: u64,
        /// The request.
        request: RequestId,
        /// 1-based position in the server's delivery order.
        position: u64,
    },
    /// `Opt-undeliver(m)`.
    OptUndeliver {
        /// Epoch of the undelivery.
        epoch: u64,
        /// The request.
        request: RequestId,
    },
    /// `A-deliver(m)` at the given global position.
    ADeliver {
        /// Epoch of the delivery.
        epoch: u64,
        /// The request.
        request: RequestId,
        /// 1-based position in the server's delivery order.
        position: u64,
    },
}

/// Counters maintained by each server, used by the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests delivered optimistically (phase 1).
    pub opt_delivered: u64,
    /// Optimistic deliveries that were undone.
    pub opt_undelivered: u64,
    /// Requests delivered conservatively (phase 2).
    pub a_delivered: u64,
    /// Number of times the server entered phase 2.
    pub phase2_entered: u64,
    /// Number of epochs completed (phase 2 finished).
    pub epochs_completed: u64,
    /// Ordering messages sent while acting as the sequencer.
    pub order_messages_sent: u64,
    /// `ReplyBatch` wires sent to clients (one per client per delivery
    /// batch). With reply batching this drops below `replies_sent`.
    pub reply_messages_sent: u64,
    /// Individual request replies carried by those wires.
    pub replies_sent: u64,
    /// Consensus wire allocations: each counts one message construction,
    /// however many destinations the shared payload reaches.
    pub consensus_wires_sent: u64,
    /// Per-destination consensus deliveries requested (the count the
    /// pre-clone implementation would have allocated).
    pub consensus_messages_sent: u64,
    /// Request payloads pruned by the epoch-watermark garbage collector.
    pub payloads_pruned: u64,
    /// Current and peak size of the `payloads` map.
    pub payloads: PeakGauge,
    /// Requests that arrived stamped for a *different* replication group and
    /// were dropped. Must stay 0 in a correctly routed sharded deployment.
    pub misrouted: u64,
    /// Requests carrying a transaction envelope (`TxnPrepare` legs of
    /// multi-group transactions) buffered by this server. Single-group
    /// fast-path transactions carry no envelope and are **not** counted —
    /// the `txn-smoke` gate relies on that to show the fast path is
    /// wire-identical to the plain sharded client.
    pub txn_prepares: u64,
    /// Current and peak total size of the reliable-multicast duplicate-
    /// suppression (`seen`) sets, bounded by the same epoch-watermark rule
    /// as `payloads`.
    pub seen: PeakGauge,
    /// Size of the last (current) and largest `OrderMsg` batch this server
    /// emitted as the sequencer.
    pub effective_batch: PeakGauge,
    /// Distribution of the `OrderMsg` batch sizes emitted as the sequencer
    /// (power-of-two buckets).
    pub batch_sizes: BucketHistogram,
    /// The batch threshold currently in force: the static
    /// `OarConfig::max_batch`, or the adaptive controller's converged
    /// target.
    pub batch_target: u64,
    /// Times the adaptive controller raised its target (0 for static
    /// configurations) — the convergence counter of the `adaptive` gate.
    pub target_raises: u64,
    /// Times the adaptive controller lowered its target (idle decay
    /// included).
    pub target_drops: u64,
    /// Partial batches ordered by the flush-deadline timer (as opposed to
    /// reaching the batch threshold or the maintenance tick).
    pub deadline_flushes: u64,
    /// Cumulative **real wall-clock** nanoseconds this server spent inside
    /// `StateMachine` application (optimistic and conservative deliveries).
    /// Unlike every other counter this measures host time, not simulated
    /// time: it is what the parallel-apply stage actually changes, and it is
    /// excluded from all determinism comparisons.
    pub apply_ns: u64,
    /// Distribution of the apply scheduler's wave sizes (power-of-two
    /// buckets). Serial application records every command as a singleton
    /// wave; with [`OarConfig::parallel_apply`] set, larger waves show how
    /// much of each delivery batch was conflict-free.
    pub wave_sizes: BucketHistogram,
    /// Current and peak length of the *retained* `A_delivered` log. With
    /// [`OarConfig::snapshot_every`] set this is bounded by the snapshot
    /// window instead of growing with the run — the compaction gate of the
    /// recovery benchmark.
    pub a_delivered_len: PeakGauge,
    /// Current and peak depth of the optimistic undo stack (bounded by the
    /// epoch cut; compaction never needs to prune it because epoch close
    /// already drops the settled epoch's tokens).
    pub undo_depth: PeakGauge,
    /// Snapshots captured at epoch closes (each also compacts the log).
    pub snapshots_taken: u64,
    /// `A_delivered` entries pruned by log compaction, cumulative.
    pub compacted: u64,
    /// `CatchUpRequest` wires sent while recovering (attempt count).
    pub catch_up_requests: u64,
    /// `CatchUpReply` wires served to rejoining peers (donor side).
    pub catch_up_replies: u64,
    /// Length of the settled-command delta replayed by the last successful
    /// catch-up install (0 until a catch-up completed). Together with the
    /// snapshot position this shows the rejoin was snapshot + delta, not a
    /// full replay.
    pub catch_up_delta: u64,
    /// Delivery position of the snapshot image installed by the last
    /// successful catch-up (the prefix the rejoiner did *not* replay).
    pub catch_up_snapshot_position: u64,
    /// `PayloadFetch` wires sent to repair payloads whose multicast relay
    /// was lost across a restart.
    pub payload_fetches: u64,
    /// `PayloadFill` wires served to peers (donor side).
    pub payload_fills: u64,
    /// Consensus instances whose messages were re-sent after stalling (the
    /// crash-recovery repair of the quasi-reliable-channel assumption).
    pub consensus_retransmits: u64,
    /// Requests door-dropped for stale routing (an old boundary epoch, or a
    /// key this group has migrated away) and answered with a `Redirect`.
    pub redirected: u64,
    /// Reconfiguration fence commands whose effects this server applied at
    /// an epoch close (`Replace` membership swaps and `Migrate` records).
    pub reconfigs_applied: u64,
    /// Key-range migrations this server completed as a donor member
    /// (extracted the range and shipped the hand-off).
    pub migrations_out: u64,
    /// Key-range migrations this server recorded as a recipient member.
    pub migrations_in: u64,
    /// `MigrateState` hand-off wires sent to recipient members (donor side).
    pub migrate_state_wires: u64,
    /// Digest of the entries extracted by the last donor-side migration
    /// (what the hand-off shipped; 0 until a migration ran).
    pub migrate_out_digest: u64,
    /// Digest of the last verified incoming `MigrateState` (must match the
    /// donor's `migrate_out_digest`; 0 until a hand-off arrived).
    pub migrate_in_digest: u64,
    /// Anti-entropy root probes sent on the maintenance tick.
    pub sync_probes: u64,
    /// Merkle node wires exchanged during divergence descent (requests and
    /// replies) — the O(log n) localisation cost the anti-entropy gate
    /// measures.
    pub sync_node_wires: u64,
    /// Divergent leaves repaired by the anti-entropy majority vote.
    pub sync_repairs: u64,
}

/// The OAR server process, generic over the replicated [`StateMachine`].
#[derive(Debug)]
pub struct OarServer<S: StateMachine> {
    id: ProcessId,
    group: Vec<ProcessId>,
    config: OarConfig,

    // --- protocol state (Fig. 6, Initialization) ---
    epoch: u64,
    phase: Phase,
    /// Reception order of client requests (the paper's `R_delivered`).
    r_delivered: Seq<RequestId>,
    /// Requests delivered in previous epochs (the paper's `A_delivered`).
    a_delivered: Seq<RequestId>,
    /// Requests Opt-delivered in the current epoch (the paper's `O_delivered`).
    o_delivered: Seq<RequestId>,
    /// Fast membership test for `a_delivered` plus kept optimistic deliveries.
    settled: IdSet<RequestId>,
    /// Request payloads, keyed by id. Shared with the multicast wires that
    /// carried them and the settled log, never deep-copied.
    payloads: IdMap<RequestId, Arc<Request<S::Command>>>,
    /// Undo tokens of the current epoch's optimistic deliveries (LIFO).
    undo_stack: Vec<(RequestId, S::Undo)>,
    /// Number of requests delivered and not undone (the proofs' reply counter).
    position: u64,
    /// Ordered requests not yet Opt-delivered because their payload has not
    /// arrived yet (delivery must follow the sequencer order).
    order_queue: VecDeque<RequestId>,
    /// Fast membership test for `order_queue`.
    order_queued: IdSet<RequestId>,
    /// Sequencer cursor into `r_delivered`: every request before this
    /// position has already been examined by Task 1a this epoch (it is
    /// delivered, settled, or in `order_queue`), so Task 1a only scans the
    /// suffix of new arrivals.
    order_cursor: usize,
    /// True once Task 1c fired (or a PhaseII was delivered) for this epoch.
    phase2_started: bool,
    /// Adaptive batch controller (sequencer side), present when
    /// `config.adaptive` is set.
    adaptive: Option<BatchController>,
    /// When the current partial batch must be flushed (`None`: no partial
    /// batch is on the clock). Tracked separately from the timer because
    /// timers cannot be cancelled — see `schedule_flush_deadline`.
    flush_deadline: Option<SimTime>,
    /// Whether a FLUSH timer is in flight (at most one at any time).
    flush_timer_pending: bool,

    // --- components ---
    request_cast: ReliableCaster<Arc<Request<S::Command>>>,
    phase2_cast: ReliableCaster<PhaseIIMsg>,
    fd: HeartbeatFd,
    consensus: Option<MajConsensus<CnsvValue>>,

    // --- buffers for out-of-epoch messages ---
    future_orders: BTreeMap<u64, Vec<Seq<RequestId>>>,
    future_phase2: BTreeSet<u64>,
    buffered_consensus: BTreeMap<u64, Vec<(ProcessId, ConsensusWire<CnsvValue>)>>,
    /// A consensus decision whose requests are not all locally known yet.
    pending_decision: Option<Decision<CnsvValue>>,
    /// The payloads the pending decision is still waiting for. Maintained
    /// incrementally so each payload arrival re-examines the decision in
    /// O(1) instead of rescanning every request it mentions.
    pending_missing: IdSet<RequestId>,

    // --- payload garbage collection (epoch watermark) ---
    /// Highest settled-epoch watermark heard from each peer (this server's
    /// own watermark is `epoch`, always current).
    peer_settled: IdMap<ProcessId, u64>,
    /// Epochs `< gc_floor` have had their payloads pruned already.
    gc_floor: u64,
    /// Requests settled per closed epoch, awaiting acknowledgement by every
    /// live replica before their payloads are pruned.
    gc_pending: BTreeMap<u64, Vec<RequestId>>,
    /// Multicast ids of the `PhaseII` broadcasts delivered per epoch, so the
    /// phase2 caster's duplicate-suppression set can be aged out alongside
    /// the payloads once the epoch is acknowledged group-wide.
    phase2_msg_ids: BTreeMap<u64, Vec<RequestId>>,

    // --- snapshots, log compaction, catch-up (recovery layer) ---
    /// Number of settled commands compacted out of `a_delivered`: the global
    /// delivery position of `a_delivered[0]` is `a_base + 1`. Always equal to
    /// `snapshot.position` — compaction prunes exactly to the snapshot.
    a_base: u64,
    /// Chained order-hash ([`chain_hash`]) over the compacted prefix.
    a_base_hash: u64,
    /// State digest at the last epoch close (the settled prefix state —
    /// current-epoch optimistic deliveries are *not* in it). This is the
    /// digest a rejoiner must reproduce after snapshot + delta replay.
    settled_digest: u64,
    /// The settled requests (with payloads) ordered after the snapshot
    /// position, in delivery order — the catch-up delta a donor serves.
    /// Parallels the retained `a_delivered` exactly; cleared on snapshot.
    settled_log: VecDeque<Arc<Request<S::Command>>>,
    /// The latest snapshot (taken at construction with position 0, then at
    /// every [`OarConfig::snapshot_every`]-th epoch close).
    snapshot: SnapshotRecord,
    /// `Some(attempt)` while this server is catching up after a restart: it
    /// ignores all protocol traffic except the matching [`CatchUpReply`]
    /// (buffering what may still matter) until the install completes.
    catch_up_attempt: Option<u64>,
    /// Wires received while recovering, replayed through `on_message` once
    /// the install completes (the door checks discard whatever the transfer
    /// already covered).
    recovery_buffer: RecoveryBuffer<S>,
    /// Catch-up requests from replicas this group does not (yet) roster —
    /// replacements whose `Replace` fence has not settled here. Serving them
    /// now would transfer a state whose future decisions are cast to the old
    /// roster, so the transfer is held and served the moment the fence
    /// applies. One slot per sender (the latest attempt wins).
    held_catch_ups: Vec<(ProcessId, u64)>,
    /// The epoch a catch-up install landed in the middle of. A rejoiner has
    /// missed that epoch's earlier order batches, so opt-delivering from a
    /// mid-epoch batch would break Lemma 2 (every `O_delivered` is a prefix
    /// of the sequencer order) — the premise that makes `Cnsv-order` agree.
    /// While the current epoch equals this one, the optimistic path is
    /// frozen: this replica proposes `O_delivered = ∅` (a trivial prefix)
    /// and the conservative close delivers everything. Expires when the
    /// epoch advances.
    opt_freeze_epoch: Option<u64>,
    /// Payload ids observed missing at the previous maintenance tick: only
    /// ids missing for a full tick are fetched, so normal multicast delivery
    /// fills fresh gaps without repair traffic.
    prev_missing: IdSet<RequestId>,
    /// Rotates the target peer of successive `PayloadFetch` wires.
    fetch_round: u64,
    /// Maintenance ticks the current consensus instance has spent undecided:
    /// after two full ticks its (idempotent) messages are re-sent, repairing
    /// estimates/proposals that were unicast to a peer while it was down.
    cnsv_stall_ticks: u32,

    // --- membership reconfiguration & shard migration ---
    /// The routing-boundary epoch this group has settled. Bumped by every
    /// settled `Migrate` fence; requests stamped with an older epoch are
    /// door-dropped and answered with a `Redirect`.
    route_epoch: u64,
    /// Settled key-range migration records this server knows about, in
    /// settle order. Records where this group is the donor drive the
    /// migrated-away door check; the whole list travels in `Redirect`s so a
    /// stale client can repair its router in one round-trip.
    migrations: Vec<MigrationRecord>,

    // --- Merkle anti-entropy ---
    /// Rotates the probe target of successive anti-entropy ticks.
    sync_cursor: u64,
    /// Anti-entropy ticks elapsed (one per maintenance tick with the loop
    /// enabled) — the clock the leaf-vote deadlines are measured against.
    sync_tick: u64,
    /// Leaf-repair votes in flight, keyed by divergent key: the tick the
    /// vote started at, plus the value each group member (self included)
    /// reported for it. A strict majority for one value settles the vote and
    /// repairs the leaf; a vote that cannot resolve (a member crashed or
    /// unreachable, or values split) expires after
    /// [`SYNC_VOTE_EXPIRY_TICKS`] so the next probe can retry it.
    sync_votes: BTreeMap<String, (u64, BTreeMap<ProcessId, Option<String>>)>,
    /// `(epoch, optimistic deliveries)` observed by the previous tick. When
    /// anti-entropy is on and two consecutive ticks see the same open
    /// optimistic epoch, the sequencer cuts it: an idle tail epoch would
    /// otherwise pin the undo stack forever and keep every probe gated.
    sync_idle_mark: Option<(u64, u64)>,

    // --- application ---
    sm: S,

    // --- observability ---
    log: Vec<DeliveryRecord>,
    stats: ServerStats,
}

impl<S: StateMachine> OarServer<S> {
    /// Creates the server with identity `id`, replica group `group` (which must
    /// contain `id`) and initial service state `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of `group`.
    pub fn new(id: ProcessId, group: Vec<ProcessId>, config: OarConfig, sm: S) -> Self {
        assert!(group.contains(&id), "server must belong to its group");
        let stats = ServerStats {
            batch_target: match config.adaptive {
                Some(_) => 1, // the controller starts unbatched
                None => config.max_batch.max(1) as u64,
            },
            ..ServerStats::default()
        };
        // A position-0 snapshot exists from the start, so the server can
        // always donate state to a rejoining peer.
        let snapshot = SnapshotRecord {
            image: sm.snapshot(),
            position: 0,
            digest: sm.digest(),
            order_hash: 0,
        };
        let settled_digest = sm.digest();
        OarServer {
            id,
            request_cast: ReliableCaster::new(id, group.clone()),
            phase2_cast: ReliableCaster::new(id, group.clone()),
            fd: HeartbeatFd::new(id, group.clone(), config.fd),
            consensus: None,
            group,
            config,
            epoch: 0,
            phase: Phase::Optimistic,
            r_delivered: Seq::new(),
            a_delivered: Seq::new(),
            o_delivered: Seq::new(),
            settled: IdSet::default(),
            payloads: IdMap::default(),
            undo_stack: Vec::new(),
            position: 0,
            order_queue: VecDeque::new(),
            order_queued: IdSet::default(),
            order_cursor: 0,
            phase2_started: false,
            adaptive: config.adaptive.map(BatchController::new),
            flush_deadline: None,
            flush_timer_pending: false,
            future_orders: BTreeMap::new(),
            future_phase2: BTreeSet::new(),
            buffered_consensus: BTreeMap::new(),
            pending_decision: None,
            pending_missing: IdSet::default(),
            peer_settled: IdMap::default(),
            gc_floor: 0,
            gc_pending: BTreeMap::new(),
            phase2_msg_ids: BTreeMap::new(),
            a_base: 0,
            a_base_hash: 0,
            settled_digest,
            settled_log: VecDeque::new(),
            snapshot,
            catch_up_attempt: None,
            recovery_buffer: Vec::new(),
            held_catch_ups: Vec::new(),
            opt_freeze_epoch: None,
            prev_missing: IdSet::default(),
            fetch_round: 0,
            cnsv_stall_ticks: 0,
            route_epoch: 0,
            migrations: Vec::new(),
            sync_cursor: 0,
            sync_tick: 0,
            sync_votes: BTreeMap::new(),
            sync_idle_mark: None,
            sm,
            log: Vec::new(),
            stats,
        }
    }

    /// Creates a server that rejoins the group after a restart: it starts in
    /// **recovery mode** — on start it asks a peer for a [`CatchUpReply`]
    /// (latest snapshot + settled delta) and ignores all other protocol
    /// traffic until the transfer installs, retrying with donor rotation and
    /// exponential backoff while the chosen donor is down. `sm` must be the
    /// service's *initial* state (the crash lost the in-memory state; the
    /// snapshot and delta rebuild it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of `group`.
    pub fn recovering(id: ProcessId, group: Vec<ProcessId>, config: OarConfig, sm: S) -> Self {
        let mut server = Self::new(id, group, config, sm);
        // A single-member group has no peer to catch up from (and nothing it
        // could learn): it resumes with fresh state immediately.
        if server.group.len() > 1 {
            server.catch_up_attempt = Some(0);
        }
        server
    }

    /// Whether this server is still catching up after a restart.
    pub fn is_recovering(&self) -> bool {
        self.catch_up_attempt.is_some()
    }

    /// The server's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The replication group this server belongs to (from its config).
    pub fn group_id(&self) -> oar_simnet::GroupId {
        self.config.group
    }

    /// Total size of the reliable-multicast duplicate-suppression sets
    /// (request + PhaseII casters) — the quantity aged out by the
    /// epoch-watermark rule.
    pub fn seen_len(&self) -> usize {
        self.request_cast.seen_count() + self.phase2_cast.seen_count()
    }

    /// Updates the `seen` gauge after any insertion into or pruning of the
    /// casters' duplicate-suppression sets.
    fn record_seen(&mut self) {
        self.stats.seen.record(self.seen_len() as u64);
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Test-support: `Debug` dump of the running phase-2 consensus instance
    /// (`None` outside phase 2). Used by the model checker's trace probe.
    pub fn mc_consensus_debug(&self) -> String {
        format!("{:?}", self.consensus)
    }

    /// The sequencer of epoch `k`: `Π[k mod |Π|]`.
    pub fn sequencer_of(&self, epoch: u64) -> ProcessId {
        self.group[(epoch as usize) % self.group.len()]
    }

    /// The sequencer of the current epoch.
    pub fn current_sequencer(&self) -> ProcessId {
        self.sequencer_of(self.epoch)
    }

    /// Whether this server is the sequencer of the current epoch.
    pub fn is_sequencer(&self) -> bool {
        self.current_sequencer() == self.id
    }

    /// The replicated state machine (read access, for tests and examples).
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// The delivery log (Opt-deliver / Opt-undeliver / A-deliver events).
    pub fn delivery_log(&self) -> &[DeliveryRecord] {
        &self.log
    }

    /// Protocol counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Number of request payloads currently retained (the quantity bounded by
    /// the epoch-watermark garbage collector).
    pub fn payloads_len(&self) -> usize {
        self.payloads.len()
    }

    /// This server's settled-epoch watermark: every epoch `< watermark` is
    /// closed locally. Epochs close in order, so this is simply the current
    /// epoch number.
    pub fn settled_watermark(&self) -> u64 {
        self.epoch
    }

    /// The watermark acknowledged by every replica this server does not
    /// suspect (including itself): payloads of requests decided in epochs
    /// below it are safe to prune.
    pub fn acked_watermark(&self) -> u64 {
        self.group
            .iter()
            .map(|&p| {
                if p == self.id {
                    self.epoch
                } else if self.fd.is_suspected(p) {
                    // Suspected replicas do not hold up the collector; they
                    // only ever need their *own* payload map to catch up.
                    u64::MAX
                } else {
                    self.peer_settled.get(&p).copied().unwrap_or(0)
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// The sequence of requests this server has delivered and not undone, in
    /// delivery order: `A_delivered ⊕ (O_delivered of the current epoch)`.
    pub fn committed_sequence(&self) -> Seq<RequestId> {
        self.a_delivered.concat(&self.o_delivered)
    }

    /// The requests delivered in closed epochs only (never undoable). With
    /// log compaction this is the *retained* suffix: the first [`Self::a_base`]
    /// settled requests were pruned into the snapshot and are represented by
    /// [`Self::order_hash_at`].
    pub fn stable_sequence(&self) -> &Seq<RequestId> {
        &self.a_delivered
    }

    /// Number of settled commands compacted out of the retained
    /// `A_delivered` log: the global delivery position of
    /// `stable_sequence()[0]` is `a_base() + 1`.
    pub fn a_base(&self) -> u64 {
        self.a_base
    }

    /// Total number of settled commands: compacted prefix + retained log.
    pub fn total_settled(&self) -> u64 {
        self.a_base + self.a_delivered.len() as u64
    }

    /// State digest at the last epoch close (the settled prefix, excluding
    /// current-epoch optimistic deliveries).
    pub fn settled_digest(&self) -> u64 {
        self.settled_digest
    }

    /// The chained order-hash over the first `pos` settled request ids, or
    /// `None` when `pos` lies inside the compacted prefix (`pos < a_base()`,
    /// elements gone) or beyond the settled log. Two replicas agree on their
    /// common settled prefix iff their chain values at a common position are
    /// equal — this is how compacted replicas are compared.
    pub fn order_hash_at(&self, pos: u64) -> Option<u64> {
        if pos < self.a_base || pos > self.total_settled() {
            return None;
        }
        let mut h = self.a_base_hash;
        for id in &self.a_delivered.as_slice()[..(pos - self.a_base) as usize] {
            h = chain_hash(h, *id);
        }
        Some(h)
    }

    /// Whether this server's failure detector currently suspects `p` (used
    /// by the restart tests: a rejoined replica must be un-suspected once
    /// its fresh heartbeats arrive).
    pub fn is_suspecting(&self, p: ProcessId) -> bool {
        self.fd.is_suspected(p)
    }

    /// The current replica group, in sequencer-rotation order. Mutable over
    /// the server's lifetime: a settled [`ReconfigCmd::Replace`] swaps the
    /// fenced member's slot in place.
    pub fn members(&self) -> &[ProcessId] {
        &self.group
    }

    /// The routing-boundary epoch this group has settled (bumped by every
    /// settled `Migrate` fence).
    pub fn route_epoch(&self) -> u64 {
        self.route_epoch
    }

    /// The settled key-range migration records this server knows about, in
    /// settle order.
    pub fn migration_records(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Digest of the settled entries inside `range`, when the state machine
    /// supports keyed extraction (the donor/recipient equality check of the
    /// migration gate).
    pub fn range_digest(&self, range: &KeyRange) -> Option<u64> {
        self.sm.range_digest(range)
    }

    /// Fault injection for the anti-entropy experiments and tests: silently
    /// corrupts one settled key of the local state machine (`None` deletes
    /// it), exactly the class of divergence the Merkle repair loop heals.
    /// Returns whether the machine changed (false when it does not support
    /// anti-entropy).
    pub fn inject_divergence(&mut self, key: &str, value: Option<&str>) -> bool {
        self.sm.anti_entropy_repair(key, value)
    }

    /// Forces this server to suspect the current sequencer (wrong-suspicion
    /// injection used by the experiments on Opt-undeliver frequency).
    pub fn force_suspect_sequencer(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
    ) {
        let sequencer = self.current_sequencer();
        if sequencer != self.id {
            self.fd.force_suspect(sequencer);
        }
        self.maybe_start_phase2(ctx);
    }

    /// Forces this server's failure detector to suspect an arbitrary peer
    /// (wrong-suspicion injection used by the model checker's fault choices;
    /// unlike [`Self::force_suspect_sequencer`] the target need not be the
    /// current sequencer). Triggers Task 1c if the target *is* the current
    /// sequencer and feeds the updated suspect set to any running consensus,
    /// like a real suspicion event would (on the normal path the maintenance
    /// tick does both; the checker's configurations push ticks beyond the
    /// exploration horizon).
    pub fn force_suspect(
        &mut self,
        target: ProcessId,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
    ) {
        if target != self.id {
            self.fd.force_suspect(target);
        }
        self.maybe_start_phase2(ctx);
        self.push_suspects_to_consensus(ctx);
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// O(1): both `settled` and the indexed `o_delivered` are hash probes.
    fn delivered_already(&self, id: &RequestId) -> bool {
        self.settled.contains(id) || self.o_delivered.contains(id)
    }

    /// Every group member except this server: the destination list of the
    /// server's own group-wide sends (ordering, watermark announcements).
    fn peers(&self) -> Vec<ProcessId> {
        self.group
            .iter()
            .copied()
            .filter(|&p| p != self.id)
            .collect()
    }

    /// Number of received requests Task 1a has not examined yet.
    fn order_backlog(&self) -> usize {
        self.r_delivered.len() - self.order_cursor
    }

    fn annotate(&self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>, text: String) {
        ctx.annotate(text);
    }

    /// Task 0 (Fig. 6 lines 6–7): buffer an incoming client request.
    fn handle_request_delivery(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        delivery: Delivery<Arc<Request<S::Command>>>,
    ) {
        let request = delivery.payload;
        let id = request.id;
        debug_assert_eq!(
            request.group, self.config.group,
            "misroutes are dropped at the door, before the caster"
        );
        if self.payloads.contains_key(&id) || self.settled.contains(&id) {
            return;
        }
        if request.txn.is_some() {
            self.stats.txn_prepares += 1;
        }
        let fence = request.reconfig.is_some();
        self.payloads.insert(id, request);
        self.stats.payloads.record(self.payloads.len() as u64);
        self.record_seen();
        self.r_delivered.push(id);
        // Feed the adaptive controller on every server (not just the current
        // sequencer): O(1), and it keeps a fail-over successor's rate
        // estimate warm.
        if let Some(controller) = self.adaptive.as_mut() {
            controller.record_arrival(ctx.now());
        }
        // New payloads may unblock a buffered sequencer order or a pending
        // consensus decision (the missing set makes the latter O(1)).
        self.drain_order_queue(ctx);
        if self.pending_missing.remove(&id) {
            self.try_apply_pending_decision(ctx);
        }
        // Task 1a: with eager sequencing, the sequencer flushes as soon as
        // the accumulated backlog fills a batch — the static `max_batch`, or
        // the adaptive controller's load-driven target (with a threshold of
        // 1 this orders every request immediately, the paper's unbatched
        // behaviour). A smaller backlog is put on the flush-deadline clock
        // so its added latency is bounded independent of the tick cadence.
        if self.config.eager_sequencing {
            let backlog = self.order_backlog();
            if backlog >= self.order_threshold(backlog) {
                self.maybe_order(ctx);
            } else {
                self.schedule_flush_deadline(ctx);
            }
        }
        // A reconfiguration fence closes its epoch conservatively as soon as
        // it is received: fence effects only take hold at an epoch close
        // (`apply_decision`), and the close also settles everything ordered
        // before the fence — the deterministic cut the membership or
        // boundary change happens at. Timer-free: works in the checker too.
        if fence {
            self.start_phase2(ctx);
        }
    }

    /// The batch threshold currently in force: the adaptive controller's
    /// advised batch when configured, the static `max_batch` otherwise.
    fn order_threshold(&self, backlog: usize) -> usize {
        match &self.adaptive {
            Some(controller) => controller.target_batch(backlog),
            None => self.config.max_batch.max(1),
        }
    }

    /// The deadline after which a partial batch is ordered regardless of the
    /// threshold. `None` means the historical behaviour: wait for the
    /// maintenance tick.
    fn flush_delay(&self) -> Option<SimDuration> {
        match &self.adaptive {
            Some(controller) => Some(controller.config().max_delay),
            None => self.config.flush_delay,
        }
    }

    /// Arms the flush deadline for the current partial batch, if a deadline
    /// is configured and the batch does not have one yet.
    ///
    /// Timers cannot be cancelled, so the deadline *instant* is tracked
    /// separately (`flush_deadline`): a timer that fires after its batch
    /// already flushed finds either no deadline (ignored) or a newer, later
    /// one — in which case it re-arms for the remainder, so a fresh partial
    /// batch always gets its full window and `deadline_flushes` counts only
    /// genuine deadline expiries.
    fn schedule_flush_deadline(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.flush_deadline.is_some()
            || self.phase != Phase::Optimistic
            || !self.is_sequencer()
            || self.order_backlog() == 0
        {
            return;
        }
        if let Some(delay) = self.flush_delay() {
            self.flush_deadline = Some(ctx.now() + delay);
            // At most one timer in flight: an earlier-armed timer (same
            // delay, armed earlier) necessarily fires before this deadline
            // and re-arms itself for the remainder.
            if !self.flush_timer_pending {
                ctx.set_timer(delay, FLUSH);
                self.flush_timer_pending = true;
            }
        }
    }

    /// Mirrors the adaptive controller's convergence state into the stats
    /// counters after any controller update.
    fn sync_adaptive_stats(&mut self) {
        if let Some(controller) = &self.adaptive {
            self.stats.batch_target = controller.target() as u64;
            self.stats.target_raises = controller.raises();
            self.stats.target_drops = controller.drops();
        }
    }

    /// Task 1a (Fig. 6 lines 8–10): the sequencer orders unordered requests.
    ///
    /// Only the suffix of `R_delivered` behind `order_cursor` is scanned:
    /// everything before the cursor was examined by an earlier invocation this
    /// epoch and is delivered, settled or queued. The whole batch travels in
    /// one `OrderMsg` broadcast.
    fn maybe_order(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.phase != Phase::Optimistic || !self.is_sequencer() {
            return;
        }
        if self.order_cursor >= self.r_delivered.len() {
            return;
        }
        let mut batch: Seq<RequestId> = Seq::with_capacity(self.order_backlog());
        for id in &self.r_delivered.as_slice()[self.order_cursor..] {
            if !self.delivered_already(id) && !self.order_queued.contains(id) {
                // A relayed copy of a migrated-away request can slip into
                // `R_delivered` after the migration fence pruned the
                // first-hand ones; never order it (its client was already
                // redirected by the pruning replicas).
                if let Some(request) = self.payloads.get(id) {
                    if self.migrated_away(&request.command) {
                        continue;
                    }
                }
                batch.push(*id);
            }
        }
        self.order_cursor = self.r_delivered.len();
        // The whole backlog is examined now: whatever deadline the partial
        // batch had is served (a stale timer finds no deadline and ignores
        // itself).
        self.flush_deadline = None;
        if batch.is_empty() {
            return;
        }
        self.stats.order_messages_sent += 1;
        self.stats.effective_batch.record(batch.len() as u64);
        self.stats.batch_sizes.record(batch.len() as u64);
        if let Some(controller) = self.adaptive.as_mut() {
            controller.note_flush();
        }
        self.sync_adaptive_stats();
        let msg = OrderMsg {
            epoch: self.epoch,
            order: batch.clone(),
            settled: self.settled_watermark(),
        };
        // One allocation of the wire message shared across all recipients.
        ctx.send_all(&self.peers(), OarWire::Order(msg));
        // "The sequencer immediately delivers this message" (§5.3).
        self.accept_order(ctx, batch);
    }

    /// Task 1b (Fig. 6 lines 11–19): accept an ordering for the current epoch.
    fn accept_order(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        order: Seq<RequestId>,
    ) {
        for id in order.iter() {
            if !self.delivered_already(id) && self.order_queued.insert(*id) {
                self.order_queue.push_back(*id);
            }
        }
        self.drain_order_queue(ctx);
    }

    /// Opt-delivers ordered requests whose payload is available, preserving the
    /// sequencer order. O(1) per drained request; the whole drain forms **one**
    /// delivery batch — applied in one [`apply_command_batch`] call (the
    /// speculative half of parallel apply: waves of non-conflicting optimistic
    /// deliveries execute concurrently, each still individually undoable) —
    /// and produces at most one `ReplyBatch` wire per client.
    fn drain_order_queue(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.phase != Phase::Optimistic {
            return;
        }
        // A rejoiner never opt-delivers in the epoch it caught up into: it
        // missed the epoch's earlier order batches, and a mid-epoch start
        // would make its `O_delivered` diverge from the sequencer-order
        // prefix every other replica holds (Lemma 2). The queued orders
        // settle at the conservative close instead.
        // `bug_skip_opt_freeze` (model-checker fault toggle) reintroduces
        // the pre-freeze behaviour so `oar-mc` can re-find the divergence.
        if !self.config.bug_skip_opt_freeze && self.opt_freeze_epoch == Some(self.epoch) {
            return;
        }
        // Collect the deliverable prefix of the queue, stopping at the §5.3
        // epoch cut: proactively cut long epochs to garbage-collect
        // O_delivered. The rest of the queue is re-ordered in the next epoch.
        let mut batch: Vec<RequestId> = Vec::new();
        let mut cut_epoch = false;
        while let Some(&next) = self.order_queue.front() {
            if self.delivered_already(&next) {
                self.order_queue.pop_front();
                self.order_queued.remove(&next);
                continue;
            }
            if !self.payloads.contains_key(&next) {
                break;
            }
            self.order_queue.pop_front();
            self.order_queued.remove(&next);
            batch.push(next);
            if let Some(cut) = self.config.epoch_cut_after {
                if (self.o_delivered.len() + batch.len()) as u64 >= cut && self.is_sequencer() {
                    cut_epoch = true;
                    break;
                }
            }
        }
        let mut pending: PendingReplies<S::Response> = BTreeMap::new();
        if !batch.is_empty() {
            self.opt_deliver_batch(ctx, &batch, &mut pending);
        }
        self.flush_replies(ctx, pending, DeliveryKind::Optimistic);
        if cut_epoch {
            self.start_phase2(ctx);
        }
    }

    /// `Opt-deliver` one drained batch: apply all commands (in parallel waves
    /// when configured — every result is bit-identical to serial apply), then
    /// record deliveries, undo tokens and optimistic replies in delivery
    /// order.
    fn opt_deliver_batch(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        ids: &[RequestId],
        pending: &mut PendingReplies<S::Response>,
    ) {
        let requests: Vec<Arc<Request<S::Command>>> = ids
            .iter()
            .map(|id| Arc::clone(self.payloads.get(id).expect("payload present")))
            .collect();
        let commands: Vec<&S::Command> = requests.iter().map(|r| &r.command).collect();
        let results = apply_command_batch(
            &mut self.sm,
            self.config.parallel_apply,
            &mut self.stats,
            &commands,
        );
        for (request, (response, undo)) in requests.iter().zip(results) {
            let id = request.id;
            self.o_delivered.push(id);
            self.undo_stack.push((id, undo));
            self.stats.undo_depth.record(self.undo_stack.len() as u64);
            self.position += 1;
            self.stats.opt_delivered += 1;
            self.log.push(DeliveryRecord::OptDeliver {
                epoch: self.epoch,
                request: id,
                position: self.position,
            });
            self.annotate(ctx, format!("Opt-deliver({id}) @{}", self.position));
            pending.entry(request.client).or_default().push(ReplyItem {
                request: id,
                position: self.position,
                response,
            });
        }
    }

    /// The single reply-construction site of the server: sends the queued
    /// replies of one delivery batch, one `ReplyBatch` wire per client.
    ///
    /// The weight is identical for every reply of the batch (Fig. 6 lines
    /// 12–15 and 27–29): `{p, s}` — `{s}` collapses into it on the sequencer
    /// itself — for optimistic deliveries, the whole group `Π` for
    /// conservative ones. Must be called before the epoch advances, so the
    /// batch is stamped with the epoch its deliveries happened in.
    fn flush_replies(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        pending: PendingReplies<S::Response>,
        kind: DeliveryKind,
    ) {
        if pending.is_empty() {
            return;
        }
        let weight: Weight = match kind {
            DeliveryKind::Optimistic => {
                let mut w = BTreeSet::new();
                w.insert(self.current_sequencer());
                w.insert(self.id);
                w
            }
            DeliveryKind::Conservative => self.group.iter().copied().collect(),
        };
        // The group-wide size of this delivery batch, reported to every
        // client as the pipeline co-adaptation signal (a client's own item
        // count would under-report whenever other clients share the batch).
        let batch_hint: u64 = pending.values().map(|items| items.len() as u64).sum();
        for (client, items) in pending {
            self.stats.reply_messages_sent += 1;
            self.stats.replies_sent += items.len() as u64;
            let batch = ReplyBatch {
                epoch: self.epoch,
                weight: weight.clone(),
                from: self.id,
                kind,
                batch_hint,
                items,
            };
            ctx.send(client, OarWire::Replies(batch));
        }
    }

    /// Task 1c (Fig. 6 lines 20–21): trigger phase 2 when the sequencer is
    /// suspected.
    fn maybe_start_phase2(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.phase == Phase::Optimistic
            && !self.phase2_started
            && self.fd.is_suspected(self.current_sequencer())
        {
            self.start_phase2(ctx);
        }
    }

    /// R-broadcasts `(k, PhaseII)`; the local delivery enters phase 2
    /// immediately.
    fn start_phase2(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.phase2_started || self.phase != Phase::Optimistic {
            return;
        }
        self.phase2_started = true;
        let (wire, targets, local) = self.phase2_cast.broadcast_shared(PhaseIIMsg {
            epoch: self.epoch,
            settled: self.settled_watermark(),
        });
        self.phase2_msg_ids
            .entry(local.payload.epoch)
            .or_default()
            .push(local.id);
        self.record_seen();
        ctx.send_all(&targets, OarWire::PhaseII(wire));
        self.handle_phase2_delivery(ctx, local.payload);
    }

    /// Task 2 entry (Fig. 6 line 22): R-delivery of `(k, PhaseII)`.
    fn handle_phase2_delivery(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        msg: PhaseIIMsg,
    ) {
        if msg.epoch < self.epoch {
            return;
        }
        if msg.epoch > self.epoch {
            self.future_phase2.insert(msg.epoch);
            return;
        }
        if self.phase == Phase::Conservative {
            return;
        }
        self.enter_phase2(ctx);
    }

    /// Enters the conservative phase of the current epoch: propose our
    /// `(O_delivered, O_notdelivered)` to the epoch's consensus.
    fn enter_phase2(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        self.phase = Phase::Conservative;
        self.phase2_started = true;
        self.stats.phase2_entered += 1;
        self.annotate(ctx, format!("PhaseII(epoch={})", self.epoch));

        // Fig. 6 line 23: O_notdelivered = (R_delivered ⊖ A_delivered) ⊖ O_delivered.
        let o_notdelivered: Seq<RequestId> = self
            .r_delivered
            .iter()
            .filter(|id| !self.delivered_already(id))
            .copied()
            .collect();

        // The round-1 coordinator is the successor of the (suspected)
        // sequencer, so fail-over does not wait on the crashed process.
        let n = self.group.len();
        let first_coordinator = self.group[(self.epoch as usize + 1) % n];
        let mut consensus = MajConsensus::new(
            self.epoch,
            self.id,
            self.group.clone(),
            first_coordinator,
            self.config.consensus,
        );
        let value = CnsvValue {
            o_delivered: self.o_delivered.clone(),
            o_notdelivered,
        };
        let output = consensus.propose(value);
        self.consensus = Some(consensus);
        self.dispatch_consensus_output(ctx, output.messages, output.decision);

        // Feed consensus messages that arrived before we entered phase 2.
        let buffered = self
            .buffered_consensus
            .remove(&self.epoch)
            .unwrap_or_default();
        for (from, wire) in buffered {
            self.feed_consensus(ctx, from, wire);
        }
        // The consensus needs the current suspicion view to make progress when
        // the coordinator is already dead.
        self.push_suspects_to_consensus(ctx);
    }

    fn push_suspects_to_consensus(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
    ) {
        if let Some(consensus) = self.consensus.as_mut() {
            let suspects = self.fd.suspects().clone();
            let output = consensus.update_suspects(&suspects);
            self.dispatch_consensus_output(ctx, output.messages, output.decision);
        }
    }

    fn feed_consensus(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        from: ProcessId,
        wire: ConsensusWire<CnsvValue>,
    ) {
        if let Some(consensus) = self.consensus.as_mut() {
            let output = consensus.on_wire(from, wire);
            self.dispatch_consensus_output(ctx, output.messages, output.decision);
        }
    }

    fn dispatch_consensus_output(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        messages: Vec<ConsensusSend<CnsvValue>>,
        decision: Option<Decision<CnsvValue>>,
    ) {
        for send in messages {
            self.stats.consensus_wires_sent += 1;
            self.stats.consensus_messages_sent += send.targets.len() as u64;
            if let [to] = send.targets[..] {
                ctx.send(to, OarWire::Consensus(send.wire));
            } else {
                // Group-wide wire (Propose / Decide): one shared allocation
                // for every recipient instead of a pre-clone per destination.
                ctx.send_all(&send.targets, OarWire::Consensus(send.wire));
            }
        }
        if let Some(decision) = decision {
            self.set_pending_decision(ctx, decision);
        }
    }

    /// Adopts the epoch's decision and records which payloads it still waits
    /// for. Requests decided by others but not yet received here will arrive
    /// by the agreement property of R-multicast; each arrival knocks its id
    /// out of `pending_missing` (O(1)) and the decision applies when the set
    /// drains — no periodic rescan needed.
    fn set_pending_decision(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        decision: Decision<CnsvValue>,
    ) {
        self.pending_missing = decision
            .iter()
            .flat_map(|(_, v)| v.o_delivered.iter().chain(v.o_notdelivered.iter()))
            .filter(|id| !self.payloads.contains_key(id))
            .copied()
            .collect();
        self.pending_decision = Some(decision);
        self.try_apply_pending_decision(ctx);
    }

    /// Applies the pending decision if every request it mentions is locally
    /// known (the missing set is empty).
    fn try_apply_pending_decision(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
    ) {
        if self.pending_decision.is_none()
            || self.phase != Phase::Conservative
            || !self.pending_missing.is_empty()
        {
            return;
        }
        let decision = self.pending_decision.take().expect("checked above");
        self.apply_decision(ctx, decision);
    }

    /// Task 2 body (Fig. 6 lines 24–32).
    fn apply_decision(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        decision: Decision<CnsvValue>,
    ) {
        let outcome = cnsv_order_outcome(&self.o_delivered, &decision);

        // Lines 25–26: Opt-undeliver the wrongly ordered requests, in reverse
        // delivery order (footnote 2).
        for id in outcome.bad.iter().rev() {
            let (undone_id, token) = self
                .undo_stack
                .pop()
                .expect("undo stack holds every current-epoch optimistic delivery");
            debug_assert_eq!(&undone_id, id, "Bad must be a suffix of O_delivered");
            self.sm.undo(token);
            self.position -= 1;
            self.stats.opt_undelivered += 1;
            self.log.push(DeliveryRecord::OptUndeliver {
                epoch: self.epoch,
                request: *id,
            });
            self.annotate(ctx, format!("Opt-undeliver({id})"));
        }

        // Lines 27–29: A-deliver the new sequence and reply with weight Π,
        // one ReplyBatch per client for the whole decision. The decision is
        // one delivery batch: with parallel apply configured its
        // non-conflicting commands execute in concurrent waves, bit-identical
        // to this loop applying them one by one. The undo tokens are dropped:
        // A-deliveries are settled and never rolled back.
        let mut pending: PendingReplies<S::Response> = BTreeMap::new();
        if !outcome.new.is_empty() {
            let requests: Vec<Arc<Request<S::Command>>> = outcome
                .new
                .iter()
                .map(|id| Arc::clone(self.payloads.get(id).expect("payload present")))
                .collect();
            let commands: Vec<&S::Command> = requests.iter().map(|r| &r.command).collect();
            let results = apply_command_batch(
                &mut self.sm,
                self.config.parallel_apply,
                &mut self.stats,
                &commands,
            );
            for (request, (response, _undo)) in requests.iter().zip(results) {
                let id = request.id;
                self.position += 1;
                self.stats.a_delivered += 1;
                self.log.push(DeliveryRecord::ADeliver {
                    epoch: self.epoch,
                    request: id,
                    position: self.position,
                });
                self.annotate(ctx, format!("A-deliver({id}) @{}", self.position));
                pending.entry(request.client).or_default().push(ReplyItem {
                    request: id,
                    position: self.position,
                    response,
                });
            }
        }
        // Flushed while `epoch` is still the closing epoch, so the batch is
        // stamped correctly.
        self.flush_replies(ctx, pending, DeliveryKind::Conservative);

        // Line 30: A_delivered ← A_delivered ⊕ (O_delivered ⊖ Bad) ⊕ New.
        // Appended in place: O(epoch length), not O(|A_delivered|).
        let kept = self.o_delivered.subtract(&outcome.bad);
        let mut decided_now: Vec<RequestId> = Vec::with_capacity(kept.len() + outcome.new.len());
        let mut reconfigs: Vec<ReconfigCmd> = Vec::new();
        for id in kept.iter().chain(outcome.new.iter()) {
            self.settled.insert(*id);
            self.a_delivered.push(*id);
            decided_now.push(*id);
            // The settled request (with payload) joins the catch-up delta —
            // retained past the payload GC until the next snapshot compacts
            // it, so a donor can always serve snapshot + delta.
            let request = Arc::clone(self.payloads.get(id).expect("payload present"));
            if let Some(cmd) = &request.reconfig {
                reconfigs.push(cmd.clone());
            }
            self.settled_log.push_back(request);
        }
        // The payloads of this epoch's decisions become prunable once every
        // live replica acknowledges the epoch.
        if !decided_now.is_empty() {
            self.gc_pending.insert(self.epoch, decided_now);
        }

        // Settled reconfiguration fences take effect here — after the whole
        // batch applied (so every command settled up to this epoch executed
        // under the *old* membership/boundaries) and before the next epoch
        // opens (so everything after runs under the new ones): the
        // deterministic cut at the epoch boundary. Epochs close in order
        // with identical decisions group-wide, so every replica applies the
        // same reconfigurations at the same position.
        for cmd in reconfigs {
            self.apply_reconfig(ctx, cmd);
        }

        // Lines 31–32: reset the optimistic state and move to the next epoch.
        self.o_delivered = Seq::new();
        self.undo_stack.clear();
        self.order_queue.clear();
        self.order_queued.clear();
        self.order_cursor = 0;
        self.epoch += 1;
        self.phase = Phase::Optimistic;
        self.phase2_started = false;
        self.consensus = None;
        self.stats.epochs_completed += 1;
        // Right here the state machine holds exactly the settled prefix
        // (every optimistic delivery was either kept — now settled — or
        // undone, and the new epoch has not delivered yet): the digest a
        // rejoiner must reproduce, and the state a snapshot captures.
        self.settled_digest = self.sm.digest();
        self.stats
            .a_delivered_len
            .record(self.a_delivered.len() as u64);
        if let Some(every) = self.config.snapshot_every {
            // Epochs close in order, group-wide, with identical decisions,
            // so every replica snapshots at the same positions.
            if self.epoch.is_multiple_of(every) {
                self.take_snapshot();
            }
        }
        self.annotate(ctx, format!("epoch {} starts", self.epoch));

        // Serve the catch-up transfers held for members a fence just
        // admitted — after the epoch reset, so the reply carries the fresh
        // epoch and phase (a mid-close snapshot would point the rejoiner at
        // a consensus instance the group has already finished).
        if !self.held_catch_ups.is_empty() {
            let held = std::mem::take(&mut self.held_catch_ups);
            for (peer, attempt) in held {
                if self.group.contains(&peer) {
                    self.serve_catch_up(ctx, peer, attempt);
                } else {
                    self.held_catch_ups.push((peer, attempt));
                }
            }
        }

        // Announce the advanced watermark so peers can prune, and prune
        // whatever the group has already acknowledged.
        ctx.send_all(
            &self.peers(),
            OarWire::Watermark {
                settled: self.settled_watermark(),
            },
        );
        self.maybe_gc();

        // Prune the reception buffer: settled requests never need re-ordering.
        let settled = &self.settled;
        self.r_delivered = self
            .r_delivered
            .iter()
            .filter(|id| !settled.contains(id))
            .copied()
            .collect();

        // Replay buffered messages that were waiting for this epoch.
        let epoch = self.epoch;
        if let Some(orders) = self.future_orders.remove(&epoch) {
            for order in orders {
                self.accept_order(ctx, order);
            }
        }
        if self.config.eager_sequencing {
            self.maybe_order(ctx);
        }
        if self.future_phase2.remove(&epoch) {
            self.enter_phase2(ctx);
        }
        // The rotating rule may hand the new epoch to a server that is
        // *already* suspected (e.g. a crashed replica whose turn comes round
        // again): no fresh FD event will fire, so re-check Task 1c here.
        // `bug_skip_handoff_recheck` (model-checker fault toggle) omits the
        // re-check so `oar-mc` can re-find the resulting epoch stall.
        if !self.config.bug_skip_handoff_recheck {
            self.maybe_start_phase2(ctx);
        }
    }

    /// Reacts to failure-detector events.
    fn handle_fd_events(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        events: Vec<FdEvent>,
    ) {
        if events.is_empty() {
            return;
        }
        let suspicion_changed = events
            .iter()
            .any(|e| matches!(e, FdEvent::Suspect(_) | FdEvent::Restore(_)));
        if suspicion_changed {
            self.maybe_start_phase2(ctx);
            self.push_suspects_to_consensus(ctx);
            // A newly suspected replica no longer holds up the payload GC.
            self.maybe_gc();
        }
    }

    // ------------------------------------------------------------------
    // membership reconfiguration & shard migration (fence commands)
    // ------------------------------------------------------------------

    /// Applies one settled reconfiguration fence. Runs inside
    /// [`Self::apply_decision`], at the epoch boundary.
    fn apply_reconfig(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        cmd: ReconfigCmd,
    ) {
        match cmd {
            ReconfigCmd::Replace { old, new } => self.apply_replace(ctx, old, new),
            ReconfigCmd::Migrate { record, to_members } => {
                self.apply_migrate(ctx, record, &to_members)
            }
        }
    }

    /// `Replace { old, new }`: fences `old` out of every membership-derived
    /// structure — quorum (consensus group), sequencer rotation and GC
    /// accounting — and admits `new` into the same slot, preserving the
    /// rotation order. `new` joins with live state through the ordinary
    /// catch-up wires (it is spawned with [`OarServer::recovering`]); until
    /// its first watermark announcement it holds the payload GC, exactly
    /// like any unheard peer.
    fn apply_replace(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        old: ProcessId,
        new: ProcessId,
    ) {
        if !self.group.contains(&old) || self.group.contains(&new) {
            // Already applied (duplicate fence), or a bad target: ignore.
            return;
        }
        let slot = self
            .group
            .iter()
            .position(|&p| p == old)
            .expect("checked above");
        self.group[slot] = new;
        self.request_cast.replace_member(old, new);
        self.phase2_cast.replace_member(old, new);
        self.fd.replace_member(old, new, ctx.now());
        // The fenced replica's watermark no longer participates in the GC
        // minimum; the newcomer starts unheard (0), holding the GC until its
        // catch-up completes — conservative, never unsafe.
        self.peer_settled.remove(&old);
        self.stats.reconfigs_applied += 1;
        self.annotate(ctx, format!("reconfig: replace {old} -> {new}"));
        // Note: if this server *is* `old` (fenced while still alive), it has
        // just removed itself from its own group view: it will never be
        // sequencer again, never count towards quorum, and its peers ignore
        // its watermarks. It keeps serving reads of its local state but is
        // protocol-inert — the conservative way to leave.
    }

    /// `Migrate { record, to_members }`: the donor half extracts the settled
    /// entries of the migrated range from the state machine (dropping them
    /// locally) and ships them to every recipient member; both halves adopt
    /// the record and bump the routing-boundary epoch, arming the door
    /// redirect for stale-routed requests.
    fn apply_migrate(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        record: MigrationRecord,
        to_members: &[ProcessId],
    ) {
        if self
            .migrations
            .iter()
            .any(|r| r.route_epoch == record.route_epoch)
        {
            return; // duplicate fence
        }
        self.route_epoch = self.route_epoch.max(record.route_epoch);
        self.stats.reconfigs_applied += 1;
        if record.to_group == self.config.group {
            self.stats.migrations_in += 1;
            self.migrations.push(record);
            return;
        }
        if record.from_group != self.config.group {
            // A foreign record (possible when fences are broadcast wider
            // than the two groups): routing knowledge only.
            self.migrations.push(record);
            return;
        }
        // Donor: extract-and-drop the settled entries of the range. This
        // runs after the closing epoch's batch applied and before the next
        // epoch delivers, so every donor replica cuts the exact same state.
        let entries = self.sm.extract_range(&record.range).unwrap_or_default();
        let digest = entries_digest(&entries);
        self.stats.migrations_out += 1;
        self.stats.migrate_out_digest = digest;
        self.annotate(
            ctx,
            format!(
                "reconfig: migrate [{}..{:?}) -> {:?} ({} entries)",
                record.range.start,
                record.range.end,
                record.to_group,
                entries.len()
            ),
        );
        for &to in to_members {
            self.stats.migrate_state_wires += 1;
            ctx.send(
                to,
                OarWire::MigrateState {
                    record: record.clone(),
                    entries: entries.clone(),
                    digest,
                },
            );
        }
        self.migrations.push(record);
        // Unsettled requests for migrated keys must not be ordered here any
        // more (their effects would resurrect the range): drop them from the
        // reception buffer and point their clients at the new owner.
        self.prune_migrated_requests(ctx);
    }

    /// Drops every unsettled buffered request whose key this group just
    /// migrated away and sends each affected client one `Redirect` naming
    /// exactly its dropped ids. The client re-sends those — and only those —
    /// to the new owner under the same request ids, so each dropped request
    /// settles exactly once, at the recipient; requests this group already
    /// ordered are *not* listed (their effect travels in the hand-off) and
    /// are therefore never re-executed elsewhere.
    fn prune_migrated_requests(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        let mut per_client: BTreeMap<ProcessId, Vec<RequestId>> = BTreeMap::new();
        for id in self.r_delivered.iter() {
            if self.settled.contains(id) {
                continue;
            }
            let Some(request) = self.payloads.get(id) else {
                continue;
            };
            if self.migrated_away(&request.command) {
                per_client.entry(request.client).or_default().push(*id);
            }
        }
        if per_client.is_empty() {
            return;
        }
        let gone: IdSet<RequestId> = per_client.values().flatten().copied().collect();
        self.r_delivered = self
            .r_delivered
            .iter()
            .filter(|id| !gone.contains(id))
            .copied()
            .collect();
        self.order_cursor = self.order_cursor.min(self.r_delivered.len());
        for id in &gone {
            self.payloads.remove(id);
            // Keep the caster's seen entry: a late relay of the dropped
            // request must stay suppressed, not re-delivered.
        }
        self.stats.payloads.record(self.payloads.len() as u64);
        self.stats.redirected += gone.len() as u64;
        let records = self.migrations.clone();
        for (client, dropped) in per_client {
            ctx.send(
                client,
                OarWire::Redirect {
                    records: records.clone(),
                    dropped,
                },
            );
        }
    }

    /// Whether `command` touches a key this group has migrated away (the
    /// donor-side half of the routing door check).
    fn migrated_away(&self, command: &S::Command) -> bool {
        if self.migrations.is_empty() {
            return false;
        }
        let Some(key) = S::command_key(command) else {
            return false;
        };
        // Newest covering record wins, mirroring `ShardRouter::route_key`.
        for record in self.migrations.iter().rev() {
            if record.range.contains(key) {
                return record.from_group == self.config.group
                    && record.to_group != self.config.group;
            }
        }
        false
    }

    /// Ingests a donor's `MigrateState` hand-off: verifies the digest, then
    /// feeds a *deterministically identified* install request through this
    /// group's ordinary total order. Every donor replica sends the hand-off
    /// to every recipient member, and every recipient crafts the bit-same
    /// request — the multicast seen-set dedups the copies, so the range
    /// installs exactly once, at one agreed position. Install is
    /// insert-if-absent: a client write redirected ahead of the install
    /// keeps its effect whichever side of the install it lands on.
    fn handle_migrate_state(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        record: MigrationRecord,
        entries: Vec<(String, String)>,
        digest: u64,
    ) {
        if record.to_group != self.config.group {
            return;
        }
        if entries_digest(&entries) != digest {
            self.annotate(ctx, "migrate-state digest mismatch dropped".to_string());
            return;
        }
        self.stats.migrate_in_digest = digest;
        let Some(command) = S::install_range_command(entries) else {
            return;
        };
        // Deterministic identity: any group member, fed by any donor,
        // produces the same id — `u64::MAX - route_epoch` cannot collide
        // with a client's own (small, counting-up) sequence numbers.
        let origin = *self.group.iter().min().expect("group is never empty");
        let id = oar_channels::MsgId::new(origin, u64::MAX - record.route_epoch);
        let request = Request {
            id,
            client: origin,
            group: self.config.group,
            txn: None,
            reconfig: None,
            route_epoch: self.route_epoch,
            command,
        };
        let wire = CastWire {
            id,
            origin,
            payload: Arc::new(request),
        };
        let (delivery, relay) = self.request_cast.on_wire_shared(wire);
        if let Some((wire, targets)) = relay {
            ctx.send_all(&targets, OarWire::Request(wire));
        }
        if let Some(delivery) = delivery {
            self.handle_request_delivery(ctx, delivery);
        }
    }

    // ------------------------------------------------------------------
    // Merkle anti-entropy (settled-state repair)
    // ------------------------------------------------------------------

    /// The Merkle tree over this replica's current settled leaves, rebuilt
    /// on demand (`None` when the machine does not expose leaves). Derived
    /// state: never stored, so it needs no fork/digest bookkeeping.
    fn build_sync_tree(&self) -> Option<MerkleTree> {
        self.sm.anti_entropy_leaves().map(MerkleTree::build)
    }

    /// Tick-paced anti-entropy probe: send our Merkle root (at our settled
    /// position) to one peer, rotating the target each tick. A peer at the
    /// same position with a different root answers with its root node,
    /// starting the O(log n) divergence descent.
    fn maybe_sync(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if !self.config.anti_entropy {
            return;
        }
        // Advance the vote-deadline clock and expire votes that could not
        // resolve — a member crashed before answering, or the ballots split
        // with no majority. Dropping the entry un-wedges `start_leaf_vote`'s
        // idempotence guard, so the next divergent probe retries the key
        // from fresh state. This runs before the quiescence gate: a wedged
        // vote must clear even while traffic keeps the undo stack busy.
        self.sync_tick += 1;
        let deadline_tick = self.sync_tick;
        self.sync_votes.retain(|_, (started, _)| {
            deadline_tick.saturating_sub(*started) <= SYNC_VOTE_EXPIRY_TICKS
        });
        // Probe only while quiescent: with optimistic deliveries in flight
        // the machine's leaves are speculative, and same-settled peers would
        // descend into differences the epoch close is about to reconcile
        // anyway. An idle tail epoch would gate probes forever, so when two
        // consecutive ticks see the same open optimistic epoch the sequencer
        // cuts it conservatively and lets the undo stack drain.
        if !self.undo_stack.is_empty() {
            let mark = (self.epoch, self.o_delivered.len() as u64);
            if self.sync_idle_mark == Some(mark)
                && self.phase == Phase::Optimistic
                && self.current_sequencer() == self.id
            {
                self.start_phase2(ctx);
            }
            self.sync_idle_mark = Some(mark);
            return;
        }
        self.sync_idle_mark = None;
        let Some(tree) = self.build_sync_tree() else {
            return;
        };
        let peers = self.peers();
        if peers.is_empty() {
            return;
        }
        let peer = peers[(self.sync_cursor as usize) % peers.len()];
        self.sync_cursor += 1;
        self.stats.sync_probes += 1;
        ctx.send(
            peer,
            OarWire::SyncProbe {
                settled: self.total_settled(),
                root: tree.root(),
                leaves: tree.leaf_count() as u64,
            },
        );
    }

    /// Ships this replica's full settled key set to `peer` — the anti-entropy
    /// fallback when two same-settled trees pad to different leaf widths and
    /// the heap-index descent cannot run. Counted with the descent wires: the
    /// O(log n) gate only measures shape-preserving divergences, and a shape
    /// divergence costs O(n) keys on the wire by necessity.
    fn send_sync_keys(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        peer: ProcessId,
        settled: u64,
        reply_requested: bool,
    ) {
        let Some(leaves) = self.sm.anti_entropy_leaves() else {
            return;
        };
        self.stats.sync_node_wires += 1;
        ctx.send(
            peer,
            OarWire::SyncKeys {
                settled,
                keys: leaves.into_iter().map(|(key, _)| key).collect(),
                reply_requested,
            },
        );
    }

    /// Starts a leaf repair vote for `key`: records our own value and asks
    /// every peer for theirs. Idempotent while the vote is in flight; an
    /// in-flight vote that cannot resolve expires after
    /// [`SYNC_VOTE_EXPIRY_TICKS`] (see [`Self::maybe_sync`]), so the guard
    /// never blocks repair permanently.
    fn start_leaf_vote(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        key: String,
    ) {
        if self.sync_votes.contains_key(&key) {
            return;
        }
        let mut votes = BTreeMap::new();
        votes.insert(self.id, self.sm.anti_entropy_value(&key));
        self.sync_votes.insert(key.clone(), (self.sync_tick, votes));
        for peer in self.peers() {
            ctx.send(peer, OarWire::SyncLeafRequest { key: key.clone() });
        }
    }

    /// Records one peer's value for a divergent key and settles the vote
    /// once a strict group majority agrees on a value: the majority value is
    /// installed locally (`None` deletes). A corrupted minority replica
    /// heals itself; a healthy replica voting against a corrupted peer finds
    /// its own value in the majority and changes nothing. Requires 3+
    /// replicas to out-vote a corrupt member — with 2 the vote stays split
    /// and expires undecided.
    fn record_leaf_vote(&mut self, key: String, from: ProcessId, value: Option<String>) {
        if !self.group.contains(&from) {
            return;
        }
        let Some((_, votes)) = self.sync_votes.get_mut(&key) else {
            return;
        };
        votes.insert(from, value);
        let needed = majority(self.group.len());
        let mut winner: Option<Option<String>> = None;
        for candidate in votes.values() {
            if votes.values().filter(|v| *v == candidate).count() >= needed {
                winner = Some(candidate.clone());
                break;
            }
        }
        match winner {
            Some(value) => {
                self.sync_votes.remove(&key);
                // Repair only while quiescent: overwriting a key with an
                // optimistic delivery in flight would fight the undo stack.
                // A dropped vote is retried by the next quiescent probe.
                if self.undo_stack.is_empty() && self.sm.anti_entropy_repair(&key, value.as_deref())
                {
                    self.stats.sync_repairs += 1;
                }
            }
            None => {
                if self.sync_votes.get(&key).map(|(_, v)| v.len()) == Some(self.group.len()) {
                    // Everyone answered, no majority: give up this round
                    // (the next probe retries from fresh state). Short of
                    // that — a member crashed, so not everyone *can* answer —
                    // the tick deadline expires the vote instead.
                    self.sync_votes.remove(&key);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // payload garbage collection (epoch watermark)
    // ------------------------------------------------------------------

    /// Records a peer's settled-epoch watermark (piggybacked on ordering,
    /// PhaseII and heartbeat traffic, or announced explicitly at epoch close)
    /// and prunes whatever became acknowledged.
    fn note_settled(&mut self, from: ProcessId, settled: u64) {
        if from == self.id || !self.group.contains(&from) {
            return;
        }
        let known = self.peer_settled.entry(from).or_insert(0);
        if settled > *known {
            *known = settled;
            self.maybe_gc();
        }
    }

    /// Prunes the payloads of requests decided in epochs every live replica
    /// has acknowledged — and ages the same epochs out of the reliable-
    /// multicast duplicate-suppression sets, which would otherwise grow with
    /// the lifetime of the server. A server's own watermark participates in
    /// the minimum, so nothing an unfinished local epoch still needs is
    /// touched. Forgetting a settled request's multicast id is safe: should
    /// a stale relay still arrive, `handle_request_delivery` discards it via
    /// the `settled` set (and `handle_phase2_delivery` via the epoch check).
    fn maybe_gc(&mut self) {
        let floor = self.acked_watermark();
        let mut changed = false;
        while self.gc_floor < floor {
            if let Some(ids) = self.gc_pending.remove(&self.gc_floor) {
                for id in ids {
                    if self.payloads.remove(&id).is_some() {
                        self.stats.payloads_pruned += 1;
                        changed = true;
                    }
                    self.request_cast.forget(&id);
                }
            }
            self.gc_floor += 1;
        }
        // PhaseII broadcasts of acknowledged epochs (keyed separately: their
        // multicast ids are per-origin counters, not request ids).
        while let Some((&epoch, _)) = self.phase2_msg_ids.first_key_value() {
            if epoch >= self.gc_floor {
                break;
            }
            let ids = self.phase2_msg_ids.remove(&epoch).expect("peeked key");
            for id in ids {
                self.phase2_cast.forget(&id);
            }
        }
        if changed {
            self.stats.payloads.record(self.payloads.len() as u64);
        }
        self.record_seen();
    }

    // ------------------------------------------------------------------
    // durable snapshots, log compaction, catch-up (recovery layer)
    // ------------------------------------------------------------------

    /// Captures the settled state into a fresh snapshot and compacts the
    /// log: the retained `A_delivered` entries fold into the chained
    /// order-hash and are pruned, together with the settled-log delta they
    /// correspond to. Must run at an epoch boundary, where the state
    /// machine holds exactly the settled prefix. A machine without snapshot
    /// support keeps the historical unbounded log (catch-up then replays the
    /// full history).
    fn take_snapshot(&mut self) {
        let Some(image) = self.sm.snapshot() else {
            return;
        };
        let position = self.total_settled();
        let mut order_hash = self.a_base_hash;
        for id in self.a_delivered.iter() {
            order_hash = chain_hash(order_hash, *id);
        }
        self.snapshot = SnapshotRecord {
            image: Some(image),
            position,
            digest: self.settled_digest,
            order_hash,
        };
        self.stats.snapshots_taken += 1;
        self.stats.compacted += self.a_delivered.len() as u64;
        self.a_base = position;
        self.a_base_hash = order_hash;
        self.a_delivered = Seq::new();
        self.settled_log.clear();
        self.stats.a_delivered_len.record(0);
    }

    /// Sends the current catch-up attempt's `CatchUpRequest` to a donor and
    /// arms the retry clock. Donors rotate per attempt (a crashed donor must
    /// not block rejoin) and the retry delay backs off exponentially, capped
    /// at 2^[`CATCHUP_BACKOFF_CAP`] × [`OarConfig::catch_up_retry`].
    fn send_catch_up_request(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        let attempt = self.catch_up_attempt.expect("only called while recovering");
        let peers = self.peers();
        let donor = peers[(attempt as usize) % peers.len()];
        self.stats.catch_up_requests += 1;
        ctx.send(
            donor,
            OarWire::CatchUpRequest {
                attempt,
                group: self.group.clone(),
            },
        );
        self.annotate(ctx, format!("catch-up attempt {attempt} -> {donor}"));
        let backoff = 1u64 << (attempt.min(CATCHUP_BACKOFF_CAP as u64) as u32);
        ctx.set_timer(self.config.catch_up_retry.saturating_mul(backoff), CATCHUP);
    }

    /// Serves a rejoining peer the state transfer it needs: the latest
    /// snapshot, the settled delta since it, the settled-id set and GC floor
    /// for its door-drop filters, and the digests it must reproduce.
    fn serve_catch_up(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        to: ProcessId,
        attempt: u64,
    ) {
        self.stats.catch_up_replies += 1;
        // Sorted so the reply (and thus the simulation schedule) does not
        // depend on hash-set iteration order.
        let mut settled: Vec<RequestId> = self.settled.iter().copied().collect();
        settled.sort_unstable();
        // Sorted so the reply does not depend on hash-map iteration order.
        let mut pending: Vec<Arc<Request<S::Command>>> = self.payloads.values().cloned().collect();
        pending.sort_unstable_by_key(|r| r.id);
        let reply = CatchUpReply {
            attempt,
            image: self.snapshot.image.clone(),
            snapshot_position: self.snapshot.position,
            snapshot_digest: self.snapshot.digest,
            snapshot_order_hash: self.snapshot.order_hash,
            delta: self.settled_log.iter().cloned().collect(),
            epoch: self.epoch,
            conservative: self.phase == Phase::Conservative,
            gc_floor: self.gc_floor,
            settled,
            digest: self.settled_digest,
            pending,
            group: self.group.clone(),
            route_epoch: self.route_epoch,
            migrations: self.migrations.clone(),
        };
        self.annotate(
            ctx,
            format!(
                "catch-up reply -> {to}: snapshot @{} + delta {}",
                self.snapshot.position,
                self.settled_log.len()
            ),
        );
        ctx.send(to, OarWire::CatchUpReply(Box::new(reply)));
    }

    /// Installs a donor's state transfer and resumes participation: install
    /// the image, adopt the donor's compacted prefix (base position + chain
    /// hash) and snapshot, replay the settled delta, adopt the settled set
    /// and GC floor, verify the digest, then re-arm the maintenance tick,
    /// announce the watermark and replay the wires buffered during the
    /// transfer. A digest mismatch abandons the attempt and retries with the
    /// next donor.
    fn install_catch_up(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        donor: ProcessId,
        reply: CatchUpReply<S::Command>,
    ) {
        let retry = |server: &mut Self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>| {
            server.catch_up_attempt = Some(reply.attempt + 1);
            server.send_catch_up_request(ctx);
        };
        if !reply.group.contains(&self.id) && reply.group.iter().any(|p| !self.group.contains(p)) {
            // The donor still rosters the member this replica is replacing:
            // it has not applied the `Replace` fence yet, and its phase-2
            // casts still target the old roster — installing now would
            // silently miss every decision settled between this transfer and
            // the fence. Stay recovering and retry until a donor has fenced
            // us in.
            self.annotate(ctx, format!("catch-up donor {donor} has not fenced us in"));
            return retry(self, ctx);
        }
        if let Some(image) = &reply.image {
            if !self.sm.install(image) {
                // An image of a foreign type cannot be installed; the state
                // is untouched, so another attempt is safe.
                self.annotate(ctx, format!("catch-up image from {donor} rejected"));
                return retry(self, ctx);
            }
            debug_assert_eq!(self.sm.digest(), reply.snapshot_digest);
        }
        // Adopt the donor's snapshot and compacted prefix verbatim: after
        // the delta replay below, this replica's (a_base, a_delivered,
        // settled_log, snapshot) are element-identical to the donor's
        // settled state.
        self.snapshot = SnapshotRecord {
            image: reply.image.clone(),
            position: reply.snapshot_position,
            digest: reply.snapshot_digest,
            order_hash: reply.snapshot_order_hash,
        };
        self.a_base = reply.snapshot_position;
        self.a_base_hash = reply.snapshot_order_hash;
        self.position = reply.snapshot_position;
        self.a_delivered = Seq::new();
        for request in &reply.delta {
            // Replay, discarding undo tokens: settled deliveries never roll
            // back. Responses are discarded too — the original replies went
            // out (from the survivors) before the crash.
            let _ = self.sm.apply(&request.command);
            self.position += 1;
            self.a_delivered.push(request.id);
        }
        self.settled_log = reply.delta.clone().into();
        self.settled = reply.settled.iter().copied().collect();
        self.epoch = reply.epoch;
        self.opt_freeze_epoch = Some(reply.epoch);
        self.gc_floor = reply.gc_floor;
        // Adopt the donor's roster: a `Replace` fence that settled while
        // this replica was down re-rostered the group, and quorum, rotation
        // and heartbeat accounting must see the current members. (A replica
        // the fence removed keeps its stale roster — it is no longer a
        // member, so nothing it counts matters.)
        if reply.group != self.group && reply.group.contains(&self.id) {
            let removed: Vec<ProcessId> = self
                .group
                .iter()
                .copied()
                .filter(|p| !reply.group.contains(p))
                .collect();
            let added: Vec<ProcessId> = reply
                .group
                .iter()
                .copied()
                .filter(|p| !self.group.contains(p))
                .collect();
            for (old, new) in removed.into_iter().zip(added) {
                self.request_cast.replace_member(old, new);
                self.phase2_cast.replace_member(old, new);
                self.fd.replace_member(old, new, ctx.now());
                self.peer_settled.remove(&old);
            }
            self.group = reply.group.clone();
        }
        // Adopt the donor's routing boundary, so the stale-epoch door check
        // and `migrated_away` agree with the rest of the group about keys
        // migrated while this replica was down.
        if reply.route_epoch > self.route_epoch {
            self.route_epoch = reply.route_epoch;
            self.migrations = reply.migrations.clone();
        }
        self.settled_digest = self.sm.digest();
        if self.settled_digest != reply.digest {
            // The transfer did not reproduce the donor's settled state. With
            // an image a re-install overwrites everything, so retrying is
            // safe; without one the machine cannot be reset and divergence
            // is unrecoverable.
            assert!(
                reply.image.is_some(),
                "catch-up digest mismatch on a non-snapshottable machine"
            );
            self.annotate(ctx, format!("catch-up digest mismatch from {donor}"));
            return retry(self, ctx);
        }
        self.stats.catch_up_delta = reply.delta.len() as u64;
        self.stats.catch_up_snapshot_position = reply.snapshot_position;
        self.stats
            .a_delivered_len
            .record(self.a_delivered.len() as u64);
        self.catch_up_attempt = None;
        self.annotate(
            ctx,
            format!(
                "caught up from {donor}: snapshot @{} + delta {} -> pos {}, epoch {}",
                reply.snapshot_position,
                reply.delta.len(),
                self.position,
                self.epoch
            ),
        );
        // Resume participation: maintenance tick (heartbeats re-admit this
        // replica at its peers' failure detectors) and an immediate
        // watermark announcement so the peers' payload GC stops waiting on
        // the pre-crash watermark.
        ctx.set_timer(self.config.tick_interval, TICK);
        ctx.send_all(
            &self.peers(),
            OarWire::Watermark {
                settled: self.settled_watermark(),
            },
        );
        // Adopt the donor's unsettled payloads: their multicast spread while
        // this replica was down and will never be re-sent, yet sequencer
        // rotation may make this replica responsible for ordering them. The
        // fill path marks them seen without re-relaying.
        self.handle_payload_fill(ctx, reply.pending.clone());
        // Replay what arrived during the transfer; the door checks (settled
        // set, epoch guards, GC floor) discard whatever it already covered.
        let buffered = std::mem::take(&mut self.recovery_buffer);
        for (from, msg) in buffered {
            self.on_message(ctx, from, msg);
        }
        // The donor's current epoch may already be conservative — its
        // PhaseII broadcast finished spreading while this replica was down
        // and will never be re-sent, so the donor's phase travels in the
        // reply instead.
        if reply.conservative && self.epoch == reply.epoch && self.phase == Phase::Optimistic {
            self.enter_phase2(ctx);
        }
        // If this replica is the frozen epoch's sequencer, nobody else can
        // order, so the epoch would never reach its cut: close it
        // conservatively instead. Re-ordering from scratch is not an option —
        // the orders issued before the crash already shaped the peers'
        // `O_delivered` prefixes.
        if self.opt_freeze_epoch == Some(self.epoch)
            && self.phase == Phase::Optimistic
            && self.current_sequencer() == self.id
        {
            self.start_phase2(ctx);
        }
    }

    /// Answers a peer's `PayloadFetch` with every requested payload this
    /// server still holds — unsettled ones from the live payload map,
    /// settled ones from the catch-up delta.
    fn serve_payload_fetch(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        to: ProcessId,
        ids: Vec<RequestId>,
    ) {
        let mut requests: Vec<Arc<Request<S::Command>>> = Vec::new();
        for id in ids {
            if let Some(request) = self.payloads.get(&id) {
                requests.push(Arc::clone(request));
            } else if let Some(request) = self.settled_log.iter().find(|r| r.id == id) {
                requests.push(Arc::clone(request));
            }
        }
        if !requests.is_empty() {
            self.stats.payload_fills += 1;
            ctx.send(to, OarWire::PayloadFill { requests });
        }
    }

    /// Repairs payloads whose `R-multicast` relay was lost while this
    /// replica was down: the multicast layer never re-sends once every live
    /// member delivered, so an ordered request (in `order_queue`) or a
    /// decided one (in `pending_missing`) could otherwise stall forever.
    /// Runs on the maintenance tick; only ids already missing at the
    /// *previous* tick are fetched, so ordinary in-flight payloads arrive on
    /// their own without repair traffic.
    fn maybe_fetch_payloads(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        let mut missing: Vec<RequestId> = Vec::new();
        for id in self.order_queue.iter() {
            if missing.len() >= FETCH_BATCH {
                break;
            }
            if !self.payloads.contains_key(id) && !self.settled.contains(id) {
                missing.push(*id);
            }
        }
        let mut decided: Vec<RequestId> = self.pending_missing.iter().copied().collect();
        decided.sort_unstable();
        missing.extend(decided.into_iter().take(FETCH_BATCH));
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            self.prev_missing.clear();
            return;
        }
        let stuck: Vec<RequestId> = missing
            .iter()
            .filter(|id| self.prev_missing.contains(id))
            .copied()
            .collect();
        self.prev_missing = missing.into_iter().collect();
        if stuck.is_empty() {
            return;
        }
        let peers = self.peers();
        if peers.is_empty() {
            return;
        }
        let donor = peers[(self.fetch_round as usize) % peers.len()];
        self.fetch_round += 1;
        self.stats.payload_fetches += 1;
        self.annotate(ctx, format!("payload fetch ({}) -> {donor}", stuck.len()));
        ctx.send(donor, OarWire::PayloadFetch { ids: stuck });
    }

    /// Re-sends the current consensus instance's idempotent messages once it
    /// has been undecided for two full maintenance ticks. A healthy phase 2
    /// decides well within one tick; the only way to stall longer with
    /// nobody suspected is lost unicast — estimates or a proposal sent to a
    /// peer while it was down (e.g. the round's coordinator crashed and
    /// restarted faster than the failure-detector timeout, rejoining with a
    /// fresh, empty instance).
    fn maybe_retransmit_consensus(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
    ) {
        let stalled = self.phase == Phase::Conservative
            && self
                .consensus
                .as_ref()
                .is_some_and(|c| c.is_started() && !c.has_decided());
        if !stalled {
            self.cnsv_stall_ticks = 0;
            return;
        }
        self.cnsv_stall_ticks += 1;
        if self.cnsv_stall_ticks < 2 {
            return;
        }
        self.cnsv_stall_ticks = 0;
        self.stats.consensus_retransmits += 1;
        self.annotate(ctx, format!("consensus retransmit (epoch={})", self.epoch));
        let consensus = self.consensus.as_mut().expect("checked above");
        let output = consensus.retransmit();
        self.dispatch_consensus_output(ctx, output.messages, output.decision);
    }

    /// Feeds payloads served by a peer's `PayloadFill` through the normal
    /// delivery path. The caster marks them seen (so a stale relay arriving
    /// later is suppressed) but the fill is **not** relayed — it is a
    /// point-to-point repair, and re-relaying settled traffic is exactly the
    /// ping-pong class the door filters exist to prevent.
    fn handle_payload_fill(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        requests: Vec<Arc<Request<S::Command>>>,
    ) {
        for request in requests {
            if request.group != self.config.group || self.settled.contains(&request.id) {
                continue;
            }
            // A fill must not resurrect a request the migration fence
            // pruned: its key now settles at the recipient group.
            if self.migrated_away(&request.command) {
                continue;
            }
            let wire = CastWire {
                id: request.id,
                origin: request.client,
                payload: request,
            };
            let (delivery, _relay) = self.request_cast.on_wire_shared(wire);
            if let Some(delivery) = delivery {
                self.handle_request_delivery(ctx, delivery);
            }
        }
    }

    // ------------------------------------------------------------------
    // model-checker hooks (state capture + deduplication)
    // ------------------------------------------------------------------

    /// Deep copy of the whole server, for [`Process::fork`]: every field is
    /// `Clone` except the state machine, which supplies its own copy through
    /// [`StateMachine::fork`] (`None` — not forkable — propagates).
    fn fork_self(&self) -> Option<Self> {
        let sm = self.sm.fork()?;
        Some(OarServer {
            id: self.id,
            group: self.group.clone(),
            config: self.config,
            epoch: self.epoch,
            phase: self.phase,
            r_delivered: self.r_delivered.clone(),
            a_delivered: self.a_delivered.clone(),
            o_delivered: self.o_delivered.clone(),
            settled: self.settled.clone(),
            payloads: self.payloads.clone(),
            undo_stack: self.undo_stack.clone(),
            position: self.position,
            order_queue: self.order_queue.clone(),
            order_queued: self.order_queued.clone(),
            order_cursor: self.order_cursor,
            phase2_started: self.phase2_started,
            adaptive: self.adaptive.clone(),
            flush_deadline: self.flush_deadline,
            flush_timer_pending: self.flush_timer_pending,
            request_cast: self.request_cast.clone(),
            phase2_cast: self.phase2_cast.clone(),
            fd: self.fd.clone(),
            consensus: self.consensus.clone(),
            future_orders: self.future_orders.clone(),
            future_phase2: self.future_phase2.clone(),
            buffered_consensus: self.buffered_consensus.clone(),
            pending_decision: self.pending_decision.clone(),
            pending_missing: self.pending_missing.clone(),
            peer_settled: self.peer_settled.clone(),
            gc_floor: self.gc_floor,
            gc_pending: self.gc_pending.clone(),
            phase2_msg_ids: self.phase2_msg_ids.clone(),
            a_base: self.a_base,
            a_base_hash: self.a_base_hash,
            settled_digest: self.settled_digest,
            settled_log: self.settled_log.clone(),
            snapshot: self.snapshot.clone(),
            catch_up_attempt: self.catch_up_attempt,
            recovery_buffer: self.recovery_buffer.clone(),
            held_catch_ups: self.held_catch_ups.clone(),
            opt_freeze_epoch: self.opt_freeze_epoch,
            prev_missing: self.prev_missing.clone(),
            fetch_round: self.fetch_round,
            cnsv_stall_ticks: self.cnsv_stall_ticks,
            route_epoch: self.route_epoch,
            migrations: self.migrations.clone(),
            sync_cursor: self.sync_cursor,
            sync_tick: self.sync_tick,
            sync_votes: self.sync_votes.clone(),
            sync_idle_mark: self.sync_idle_mark,
            sm,
            log: self.log.clone(),
            stats: self.stats,
        })
    }

    /// Digest of the server's *protocol-relevant* state, for
    /// [`Process::state_digest`] (model-checker state deduplication).
    ///
    /// Covered: epoch machinery, the three delivery sequences, the ordering
    /// queue, the components (casters via [`ReliableCaster::digest_view`],
    /// failure detector via its suspect set, consensus and the out-of-epoch
    /// buffers via their deterministic `Debug` form), the recovery layer and
    /// the state machine's own [`StateMachine::digest`]. Excluded: the
    /// delivery log and [`ServerStats`] — observability only, `apply_ns` is
    /// even host wall-clock — and payload *contents* (a `RequestId`
    /// determines its payload group-wide, so the sorted key set suffices).
    /// Unordered containers are hashed in sorted order.
    fn mc_digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn sorted<T: Ord + Copy>(set: impl IntoIterator<Item = T>) -> Vec<T> {
            let mut v: Vec<T> = set.into_iter().collect();
            v.sort_unstable();
            v
        }
        let mut h = DefaultHasher::new();
        self.id.index().hash(&mut h);
        // Membership is mutable now (`Replace` fences swap slots in place),
        // so the group belongs in the digest.
        for p in &self.group {
            p.index().hash(&mut h);
        }
        self.epoch.hash(&mut h);
        matches!(self.phase, Phase::Conservative).hash(&mut h);
        self.position.hash(&mut h);
        self.phase2_started.hash(&mut h);
        self.order_cursor.hash(&mut h);
        self.r_delivered.as_slice().hash(&mut h);
        self.a_delivered.as_slice().hash(&mut h);
        self.o_delivered.as_slice().hash(&mut h);
        sorted(self.settled.iter().copied()).hash(&mut h);
        sorted(self.payloads.keys().copied()).hash(&mut h);
        for (id, _undo) in &self.undo_stack {
            // The token itself is a function of the delivery prefix and the
            // machine state, both already covered.
            id.hash(&mut h);
        }
        self.order_queue.hash(&mut h);
        format!("{:?}", self.flush_deadline).hash(&mut h);
        self.flush_timer_pending.hash(&mut h);
        format!("{:?}", self.adaptive).hash(&mut h);
        self.request_cast.digest_view().hash(&mut h);
        self.phase2_cast.digest_view().hash(&mut h);
        for p in self.fd.suspects() {
            p.index().hash(&mut h);
        }
        format!("{:?}", self.consensus).hash(&mut h);
        format!("{:?}", self.future_orders).hash(&mut h);
        self.future_phase2.hash(&mut h);
        format!("{:?}", self.buffered_consensus).hash(&mut h);
        format!("{:?}", self.pending_decision).hash(&mut h);
        sorted(self.pending_missing.iter().copied()).hash(&mut h);
        sorted(self.peer_settled.iter().map(|(p, w)| (*p, *w))).hash(&mut h);
        self.gc_floor.hash(&mut h);
        format!("{:?}", self.gc_pending).hash(&mut h);
        format!("{:?}", self.phase2_msg_ids).hash(&mut h);
        self.a_base.hash(&mut h);
        self.a_base_hash.hash(&mut h);
        self.settled_digest.hash(&mut h);
        for request in &self.settled_log {
            request.id.hash(&mut h);
        }
        self.snapshot.position.hash(&mut h);
        self.snapshot.digest.hash(&mut h);
        self.snapshot.order_hash.hash(&mut h);
        self.catch_up_attempt.hash(&mut h);
        format!("{:?}", self.recovery_buffer).hash(&mut h);
        self.held_catch_ups.hash(&mut h);
        self.opt_freeze_epoch.hash(&mut h);
        sorted(self.prev_missing.iter().copied()).hash(&mut h);
        self.fetch_round.hash(&mut h);
        self.cnsv_stall_ticks.hash(&mut h);
        self.route_epoch.hash(&mut h);
        format!("{:?}", self.migrations).hash(&mut h);
        self.sync_cursor.hash(&mut h);
        self.sync_tick.hash(&mut h);
        format!("{:?}", self.sync_votes).hash(&mut h);
        self.sync_idle_mark.hash(&mut h);
        self.sm.digest().hash(&mut h);
        h.finish()
    }
}

impl<S: StateMachine> Process<OarWire<S::Command, S::Response>> for OarServer<S> {
    fn fork(&self) -> Option<Box<dyn Process<OarWire<S::Command, S::Response>>>> {
        self.fork_self()
            .map(|server| Box::new(server) as Box<dyn Process<OarWire<S::Command, S::Response>>>)
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.mc_digest())
    }

    fn on_start(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.catch_up_attempt.is_some() {
            // Recovery mode: no maintenance tick (and so no heartbeats or
            // ordering) until the catch-up transfer installs — the replica
            // must not participate from a blank state.
            self.send_catch_up_request(ctx);
            return;
        }
        ctx.set_timer(self.config.tick_interval, TICK);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        from: ProcessId,
        msg: OarWire<S::Command, S::Response>,
    ) {
        if let Some(attempt) = self.catch_up_attempt {
            match msg {
                OarWire::CatchUpReply(reply) if reply.attempt == attempt => {
                    self.install_catch_up(ctx, from, *reply);
                }
                // A late reply of an abandoned attempt: ignore (the newer
                // attempt's donor will answer with current state).
                OarWire::CatchUpReply(_) => {}
                // Protocol traffic that may still matter after the install
                // is buffered and replayed then; the rest (heartbeats,
                // watermarks, fetches) is periodic or answered by peers with
                // live state, and a recovering replica cannot donate.
                OarWire::Request(_)
                | OarWire::Order(_)
                | OarWire::PhaseII(_)
                | OarWire::Consensus(_) => {
                    self.recovery_buffer.push((from, msg));
                }
                _ => {}
            }
            return;
        }
        // Any traffic from a group member is evidence of liveness.
        if self.group.contains(&from) && from != self.id {
            let events = self.fd.observe_traffic(from, ctx.now());
            self.handle_fd_events(ctx, events);
        }
        match msg {
            OarWire::Request(wire) => {
                // Sharded deployments: a request stamped for another group
                // reached the wrong shard. Count it and drop it at the door —
                // feeding it to the caster would relay the misroute to the
                // whole (wrong) group and pin its id in `seen` forever, since
                // a request this group never orders is never settled here.
                if wire.payload.group != self.config.group {
                    self.stats.misrouted += 1;
                    self.annotate(
                        ctx,
                        format!("misroute({}, {})", wire.id, wire.payload.group),
                    );
                    return;
                }
                // A copy of an already-settled request — possible once the
                // seen-set aging forgot its multicast id — is dropped at the
                // door too. Feeding it back in would re-relay it, and two
                // servers that both aged the id out could bounce it between
                // each other indefinitely; dropping here is safe because
                // every server relays on its own first (pre-settlement)
                // reception, so no delivery path is lost.
                if self.settled.contains(&wire.id) {
                    return;
                }
                // Routing door: a request stamped with a stale boundary
                // epoch, or touching a key this group migrated away, is
                // dropped and its client pointed at the new owner. Only
                // first-hand copies are checked (`from == origin`): relayed
                // copies of pre-fence requests must keep spreading so the
                // group still agrees on them, and the seen-set suppresses
                // relays of anything the fence pruned.
                if from == wire.origin
                    && (wire.payload.route_epoch < self.route_epoch
                        || self.migrated_away(&wire.payload.command))
                {
                    self.stats.redirected += 1;
                    self.annotate(ctx, format!("redirect({})", wire.id));
                    ctx.send(
                        wire.payload.client,
                        OarWire::Redirect {
                            records: self.migrations.clone(),
                            dropped: vec![wire.id],
                        },
                    );
                    return;
                }
                let (delivery, relay) = self.request_cast.on_wire_shared(wire);
                if let Some((wire, targets)) = relay {
                    // One shared allocation for all relay recipients.
                    ctx.send_all(&targets, OarWire::Request(wire));
                }
                if let Some(delivery) = delivery {
                    self.handle_request_delivery(ctx, delivery);
                }
            }
            OarWire::Order(OrderMsg {
                epoch,
                order,
                settled,
            }) => {
                // The watermark is meaningful whatever the epoch check says.
                self.note_settled(from, settled);
                if epoch < self.epoch {
                    return;
                }
                if epoch > self.epoch {
                    self.future_orders.entry(epoch).or_default().push(order);
                    return;
                }
                if self.phase == Phase::Optimistic && from == self.current_sequencer() {
                    self.accept_order(ctx, order);
                }
            }
            OarWire::PhaseII(wire) => {
                // A PhaseII for an epoch the payload collector already
                // passed is settled knowledge group-wide; its multicast id
                // may have been aged out of `seen`, so (as for requests)
                // drop it before the caster would re-deliver and re-relay.
                if wire.payload.epoch < self.gc_floor {
                    return;
                }
                let (delivery, relay) = self.phase2_cast.on_wire_shared(wire);
                if let Some((wire, targets)) = relay {
                    ctx.send_all(&targets, OarWire::PhaseII(wire));
                }
                if let Some(delivery) = delivery {
                    // The piggybacked watermark describes the broadcast's
                    // origin, not the relaying neighbour.
                    self.note_settled(delivery.origin, delivery.payload.settled);
                    // Track the multicast id so the seen-set aging can
                    // forget it once the epoch is acknowledged group-wide.
                    self.phase2_msg_ids
                        .entry(delivery.payload.epoch)
                        .or_default()
                        .push(delivery.id);
                    self.record_seen();
                    self.handle_phase2_delivery(ctx, delivery.payload);
                }
            }
            OarWire::Fd { wire, settled } => {
                self.note_settled(from, settled);
                let events = self.fd.on_wire(from, wire, ctx.now());
                self.handle_fd_events(ctx, events);
            }
            OarWire::Watermark { settled } => {
                self.note_settled(from, settled);
            }
            OarWire::Consensus(wire) => {
                let instance = wire.instance();
                if instance < self.epoch {
                    return;
                }
                if instance > self.epoch || (instance == self.epoch && self.consensus.is_none()) {
                    self.buffered_consensus
                        .entry(instance)
                        .or_default()
                        .push((from, wire));
                    // Consensus traffic for the current epoch means somebody
                    // entered phase 2: the PhaseII broadcast will follow (it is
                    // reliable), so we simply wait for it.
                    return;
                }
                self.feed_consensus(ctx, from, wire);
            }
            OarWire::Replies(_) => {
                // Servers never receive replies; ignore defensively.
            }
            OarWire::CatchUpRequest { attempt, group } => {
                if self.group.contains(&from) || self.group.iter().all(|p| group.contains(p)) {
                    self.serve_catch_up(ctx, from, attempt);
                } else {
                    // A replacement asking before its `Replace` fence settled
                    // here: this roster still contains the member the
                    // requester is replacing, so the requester's install gate
                    // would reject the transfer anyway — every decision
                    // settled between the transfer and the fence is cast to
                    // the old roster and the requester would silently miss
                    // it. Hold the request and serve it the moment the fence
                    // applies (end of `apply_decision`).
                    self.annotate(ctx, format!("catch-up from non-member {from} held"));
                    self.held_catch_ups.retain(|(p, _)| *p != from);
                    self.held_catch_ups.push((from, attempt));
                }
            }
            OarWire::CatchUpReply(_) => {
                // Not recovering (any more): a stale transfer, ignore.
            }
            OarWire::PayloadFetch { ids } => {
                self.serve_payload_fetch(ctx, from, ids);
            }
            OarWire::PayloadFill { requests } => {
                self.handle_payload_fill(ctx, requests);
            }
            OarWire::Redirect { .. } => {
                // Redirects are client-bound; ignore defensively.
            }
            OarWire::MigrateState {
                record,
                entries,
                digest,
            } => {
                self.handle_migrate_state(ctx, record, entries, digest);
            }
            OarWire::SyncProbe {
                settled,
                root,
                leaves,
            } => {
                if !self.config.anti_entropy
                    || settled != self.total_settled()
                    || !self.undo_stack.is_empty()
                {
                    return;
                }
                let Some(tree) = self.build_sync_tree() else {
                    return;
                };
                if tree.root() == root {
                    return;
                }
                // Equal settled counts do not imply equal key counts (a
                // divergence can add or remove a key): when the two leaf
                // rows pad to different widths, heap indices are
                // incomparable and the descent would misalign — fall back
                // to the full key-set exchange instead.
                if !tree.same_shape(leaves) {
                    self.send_sync_keys(ctx, from, settled, true);
                    return;
                }
                // Same settled position and shape, different root: start the
                // descent by shipping our root node back to the prober.
                if let Some(node) = tree.node(1) {
                    self.stats.sync_node_wires += 1;
                    ctx.send(
                        from,
                        OarWire::SyncNodeReply {
                            settled,
                            index: 1,
                            node,
                            leaves: tree.leaf_count() as u64,
                        },
                    );
                }
            }
            OarWire::SyncNodeRequest {
                settled,
                index,
                leaves,
            } => {
                if !self.config.anti_entropy
                    || settled != self.total_settled()
                    || !self.undo_stack.is_empty()
                {
                    return;
                }
                let Some(tree) = self.build_sync_tree() else {
                    return;
                };
                // A shape mismatch mid-descent (our tree changed since the
                // probe): the index is meaningless now, switch to the
                // key-set fallback rather than answer with the wrong node.
                if !tree.same_shape(leaves) {
                    self.send_sync_keys(ctx, from, settled, true);
                    return;
                }
                if let Some(node) = tree.node(index) {
                    self.stats.sync_node_wires += 1;
                    ctx.send(
                        from,
                        OarWire::SyncNodeReply {
                            settled,
                            index,
                            node,
                            leaves: tree.leaf_count() as u64,
                        },
                    );
                }
            }
            OarWire::SyncNodeReply {
                settled,
                index,
                node,
                leaves,
            } => {
                if !self.config.anti_entropy
                    || settled != self.total_settled()
                    || !self.undo_stack.is_empty()
                {
                    return;
                }
                let Some(tree) = self.build_sync_tree() else {
                    return;
                };
                if !tree.same_shape(leaves) {
                    self.send_sync_keys(ctx, from, settled, true);
                    return;
                }
                let (descend, keys) = tree.diff_step(index, &node);
                for child in descend {
                    self.stats.sync_node_wires += 1;
                    ctx.send(
                        from,
                        OarWire::SyncNodeRequest {
                            settled,
                            index: child,
                            leaves: tree.leaf_count() as u64,
                        },
                    );
                }
                for key in keys {
                    self.start_leaf_vote(ctx, key);
                }
            }
            OarWire::SyncKeys {
                settled,
                keys,
                reply_requested,
            } => {
                if !self.config.anti_entropy
                    || settled != self.total_settled()
                    || !self.undo_stack.is_empty()
                {
                    return;
                }
                let Some(own) = self.sm.anti_entropy_leaves() else {
                    return;
                };
                if reply_requested {
                    // Bounded round trip: answer with our key set once, with
                    // the flag cleared so the exchange can never loop.
                    self.send_sync_keys(ctx, from, settled, false);
                }
                // Vote on the union of the two key sets: keys the peer has
                // and we lack are covered by its list, keys we have and it
                // lacks by ours. Each vote settles by group majority, so the
                // union's false positives (keys both sides agree on) resolve
                // to the status quo at one round trip apiece.
                let mut union: BTreeSet<String> = keys.into_iter().collect();
                union.extend(own.into_iter().map(|(key, _)| key));
                for key in union {
                    self.start_leaf_vote(ctx, key);
                }
            }
            OarWire::SyncLeafRequest { key } => {
                let value = self.sm.anti_entropy_value(&key);
                ctx.send(from, OarWire::SyncLeafReply { key, value });
            }
            OarWire::SyncLeafReply { key, value } => {
                self.record_leaf_vote(key, from, value);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == CATCHUP {
            if let Some(attempt) = self.catch_up_attempt {
                // The donor did not answer in time (crashed, or its reply
                // was lost): rotate to the next donor with backed-off retry.
                self.catch_up_attempt = Some(attempt + 1);
                self.send_catch_up_request(ctx);
            }
            return;
        }
        if self.catch_up_attempt.is_some() {
            // No protocol activity while recovering.
            return;
        }
        if timer.tag == FLUSH {
            self.flush_timer_pending = false;
            match self.flush_deadline {
                // The batch this timer was armed for already flushed (and no
                // newer partial batch started): nothing to do.
                None => {}
                // A newer partial batch owns the deadline now: give it its
                // full window by re-arming for the remainder.
                Some(deadline) if ctx.now() < deadline => {
                    ctx.set_timer(deadline.duration_since(ctx.now()), FLUSH);
                    self.flush_timer_pending = true;
                }
                // Flush deadline expired: order whatever accumulated,
                // however small — this bounds the added ordering latency of
                // batching independent of the tick cadence.
                Some(_) => {
                    self.flush_deadline = None;
                    if self.phase == Phase::Optimistic
                        && self.is_sequencer()
                        && self.order_backlog() > 0
                    {
                        self.stats.deadline_flushes += 1;
                        self.maybe_order(ctx);
                    }
                }
            }
            return;
        }
        if timer.tag != TICK {
            return;
        }
        // Heartbeats + suspicion checks; heartbeats carry the settled-epoch
        // watermark so the payload GC converges even on idle protocol paths.
        let settled = self.settled_watermark();
        let (heartbeats, events) = self.fd.on_tick(ctx.now());
        for hb in heartbeats {
            ctx.send(
                hb.to,
                OarWire::Fd {
                    wire: hb.wire,
                    settled,
                },
            );
        }
        self.handle_fd_events(ctx, events);
        // A load drop leaves the adaptive target with no flushes to decay
        // through: the tick walks it back towards 1 while the sequencer
        // idles.
        if let Some(controller) = self.adaptive.as_mut() {
            controller.maybe_decay(ctx.now());
        }
        self.sync_adaptive_stats();
        // Task 1a on a timer: the only ordering trigger when eager sequencing
        // is disabled, and the safety-net flush of partially filled batches
        // when it is (the flush-deadline timer usually fires first).
        // (A decision waiting on payloads no longer needs a tick-driven
        // re-check: every payload arrival re-examines it via the missing
        // set — see `set_pending_decision`.)
        self.maybe_order(ctx);
        // Task 1c safety net: the current sequencer may have been suspected
        // before its epoch even started. Covered by the same model-checker
        // fault toggle as the epoch-advance re-check: with both omitted the
        // stall is permanent, which is what `oar-mc` demonstrates.
        if !self.config.bug_skip_handoff_recheck {
            self.maybe_start_phase2(ctx);
        }
        // Payload repair for gaps the multicast layer will never re-send
        // (relays lost across a restart).
        self.maybe_fetch_payloads(ctx);
        // Consensus repair for the same reason: estimates/proposals unicast
        // to a peer that was down are lost for good, and if that peer was
        // the round's coordinator the instance wedges with nobody suspected.
        // Re-send the (idempotent) current-round messages once the instance
        // has been stuck for a couple of full ticks — a healthy phase 2
        // decides well within one.
        self.maybe_retransmit_consensus(ctx);
        // Anti-entropy: probe one peer's Merkle root per tick, healing any
        // settled-state divergence (bit-rot, injected faults) in O(log n)
        // localisation wires plus a majority leaf vote.
        self.maybe_sync(ctx);
        ctx.set_timer(self.config.tick_interval, TICK);
    }

    fn name(&self) -> String {
        format!("oar-server-{}", self.id.index())
    }
}

#[cfg(test)]
mod tests {
    //! Component-level tests driving the server directly through wire
    //! messages, without a simulator — the pure-state-machine design makes
    //! ordering hazards (payload after decision, watermark acknowledgement)
    //! explicit and deterministic.

    use super::*;
    use crate::state_machine::{CounterCommand, CounterMachine};
    use oar_channels::{CastWire, MsgId};
    use oar_simnet::{Action, Context, Payload, SimRng, SimTime};

    type Wire = OarWire<CounterCommand, i64>;

    /// Views a `Send` action as `(destination, wire)`, unwrapping the
    /// owned/shared payload distinction.
    fn sent(action: &Action<Wire>) -> Option<(ProcessId, &Wire)> {
        match action {
            Action::Send { to, msg } => Some((
                *to,
                match msg {
                    Payload::Owned(m) => m,
                    Payload::Shared(s) => s.as_ref(),
                },
            )),
            _ => None,
        }
    }

    /// Feeds one wire message to the server and returns the actions it
    /// produced.
    fn deliver(
        server: &mut OarServer<CounterMachine>,
        from: ProcessId,
        msg: Wire,
    ) -> Vec<Action<Wire>> {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::from_millis(1),
            server.id(),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        server.on_message(&mut ctx, from, msg);
        actions
    }

    fn request_wire(client: ProcessId, seq: u64, add: i64) -> (RequestId, Wire) {
        let id = MsgId::new(client, seq);
        let wire = CastWire {
            id,
            origin: client,
            payload: Arc::new(Request {
                id,
                client,
                group: oar_simnet::GroupId::default(),
                txn: None,
                reconfig: None,
                route_epoch: 0,
                command: CounterCommand::Add(add),
            }),
        };
        (id, OarWire::Request(wire))
    }

    /// A request carrying a reconfiguration fence (no-op command).
    fn fence_wire(client: ProcessId, seq: u64, reconfig: ReconfigCmd) -> (RequestId, Wire) {
        let id = MsgId::new(client, seq);
        let wire = CastWire {
            id,
            origin: client,
            payload: Arc::new(Request {
                id,
                client,
                group: oar_simnet::GroupId::default(),
                txn: None,
                reconfig: Some(reconfig),
                route_epoch: 0,
                command: CounterCommand::Add(0),
            }),
        };
        (id, OarWire::Request(wire))
    }

    /// Regression for the stale-decision re-check gap (formerly papered over
    /// by a defensive tick): a decision that arrives *before* the payload of
    /// a request it mentions must apply as soon as that payload arrives —
    /// driven by the payload delivery itself, no timer involved.
    #[test]
    fn delayed_payload_unblocks_pending_decision_without_a_tick() {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut server = OarServer::new(
            ProcessId::new(2),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 5);

        // The group moves to phase 2 (sequencer suspected elsewhere).
        let phase2 = OarWire::PhaseII(CastWire {
            id: MsgId::new(ProcessId::new(0), 0),
            origin: ProcessId::new(0),
            payload: PhaseIIMsg {
                epoch: 0,
                settled: 0,
            },
        });
        deliver(&mut server, ProcessId::new(0), phase2);
        assert_eq!(server.phase(), Phase::Conservative);

        // The decision mentions `rid`, whose payload has NOT arrived here yet.
        let decision_value = CnsvValue {
            o_delivered: Seq::new(),
            o_notdelivered: [rid].into_iter().collect(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 0,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut server, ProcessId::new(0), decide);
        assert_eq!(
            server.epoch(),
            0,
            "decision must wait for the missing payload"
        );
        assert!(!server.stable_sequence().contains(&rid));

        // The delayed payload finally arrives (relayed by server 0): the
        // decision applies immediately, on this very delivery.
        let actions = deliver(&mut server, ProcessId::new(0), request);
        assert_eq!(server.epoch(), 1, "decision applied on payload arrival");
        assert!(server.stable_sequence().contains(&rid));
        let replied_to_client = actions.iter().any(|a| match a {
            Action::Send { to, .. } => *to == client,
            _ => false,
        });
        assert!(replied_to_client, "the A-deliver reply must go out");
    }

    /// End-to-end watermark GC on a single-replica group: the epoch cut
    /// closes the epoch, the server acknowledges its own watermark and the
    /// settled payload is pruned.
    #[test]
    fn watermark_gc_prunes_settled_payloads() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 3);
        deliver(&mut server, client, request);

        // The request was opt-delivered, the epoch cut + single-member
        // consensus settled it, and the GC pruned its payload.
        assert_eq!(server.epoch(), 1);
        assert!(server.stable_sequence().contains(&rid));
        assert_eq!(server.payloads_len(), 0, "settled payload pruned");
        assert_eq!(server.stats().payloads_pruned, 1);
        assert_eq!(server.stats().payloads.peak(), 1);
        assert_eq!(server.acked_watermark(), 1);
        // The multicast id was aged out of the duplicate-suppression set
        // alongside the payload (the epoch's PhaseII ids likewise).
        assert_eq!(server.seen_len(), 0, "settled seen ids aged out");
        assert_eq!(server.stats().seen.peak(), 2, "request + own PhaseII");
        // A stale relay of the settled request is discarded by the settled
        // check and does not re-grow the seen set.
        let (_, stale) = request_wire(client, 0, 3);
        deliver(&mut server, client, stale);
        assert_eq!(server.seen_len(), 0);
        assert!(!server.stable_sequence().is_empty());
    }

    /// Requests stamped for another group are counted and dropped, never
    /// ordered: the misroute ceiling of the sharded deployment layer.
    #[test]
    fn misrouted_requests_are_counted_and_dropped() {
        let config = OarConfig::default().for_group(oar_simnet::GroupId::new(1));
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        assert_eq!(server.group_id(), oar_simnet::GroupId::new(1));
        let client = ProcessId::new(9);
        // request_wire stamps g0; this server is g1.
        let (rid, request) = request_wire(client, 0, 7);
        let actions = deliver(&mut server, client, request);
        assert_eq!(server.stats().misrouted, 1);
        assert_eq!(server.payloads_len(), 0, "misroute must not be buffered");
        assert!(!server.stable_sequence().contains(&rid));
        assert_eq!(server.stats().opt_delivered, 0);
        // Dropped at the door: never relayed, never tracked in `seen`.
        assert_eq!(server.seen_len(), 0, "misroute must not enter `seen`");
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Send { .. })),
            "misroute must not be relayed"
        );
    }

    /// Peers that lag hold the collector back; suspected peers do not.
    #[test]
    fn acked_watermark_tracks_live_peers_only() {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let mut server = OarServer::new(
            ProcessId::new(0),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        assert_eq!(server.acked_watermark(), 0, "nothing heard yet");
        deliver(
            &mut server,
            ProcessId::new(1),
            OarWire::Watermark { settled: 4 },
        );
        assert_eq!(server.acked_watermark(), 0, "p2 still unheard");
        deliver(
            &mut server,
            ProcessId::new(2),
            OarWire::Watermark { settled: 2 },
        );
        // min(self = 0, p1 = 4, p2 = 2): the server's own epoch bounds it.
        assert_eq!(server.acked_watermark(), 0);
    }

    /// Periodic snapshots compact `A_delivered` and the settled log; the
    /// chained order hash keeps the compacted prefix comparable.
    #[test]
    fn snapshots_compact_the_settled_log() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..4 {
            let (_, request) = request_wire(client, seq, 1);
            deliver(&mut server, client, request);
        }
        // Four single-request epochs closed; snapshots at epochs 2 and 4
        // pruned everything below them.
        assert_eq!(server.epoch(), 4);
        assert_eq!(server.stats().snapshots_taken, 2);
        assert_eq!(server.stats().compacted, 4);
        assert_eq!(server.a_base(), 4, "prefix compacted up to the snapshot");
        assert_eq!(server.total_settled(), 4);
        assert!(server.stable_sequence().is_empty(), "A_delivered pruned");
        // The peak gauge saw the pre-compaction length; after compaction the
        // retained length is bounded by the snapshot window, not the run.
        assert!(server.stats().a_delivered_len.peak() <= 2);
        // Order hashes exist at and above the base, not below it.
        assert!(server.order_hash_at(4).is_some());
        assert!(server.order_hash_at(3).is_none());
    }

    /// The tentpole unit test: a recovering replica ignores-and-buffers
    /// traffic, installs a donor's snapshot + delta, verifies the digest,
    /// announces its watermark and resumes — ending element-identical to the
    /// donor's settled state without replaying the full history.
    #[test]
    fn rejoining_replica_catches_up_by_snapshot_plus_delta() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut donor = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..3 {
            let (_, request) = request_wire(client, seq, 2);
            deliver(&mut donor, client, request);
        }
        assert_eq!(donor.a_base(), 2, "snapshot at epoch 2");
        assert_eq!(donor.total_settled(), 3);

        let mut rejoiner = OarServer::recovering(
            ProcessId::new(1),
            vec![ProcessId::new(0), ProcessId::new(1)],
            config,
            CounterMachine::default(),
        );
        assert!(rejoiner.is_recovering());
        // Traffic during the transfer window is buffered, not processed.
        let (_, late_request) = request_wire(client, 3, 2);
        deliver(&mut rejoiner, ProcessId::new(0), late_request);
        assert_eq!(rejoiner.stats().opt_delivered, 0);
        assert_eq!(rejoiner.payloads_len(), 0);

        // Pull the transfer out of the donor and feed it to the rejoiner.
        let actions = deliver(
            &mut donor,
            ProcessId::new(1),
            OarWire::CatchUpRequest {
                attempt: 0,
                group: vec![ProcessId::new(0), ProcessId::new(1)],
            },
        );
        let reply = actions
            .iter()
            .find_map(|a| match sent(a) {
                Some((to, msg @ OarWire::CatchUpReply(_))) if to == ProcessId::new(1) => {
                    Some(msg.clone())
                }
                _ => None,
            })
            .expect("donor must answer with a CatchUpReply");
        let actions = deliver(&mut rejoiner, ProcessId::new(0), reply);

        assert!(!rejoiner.is_recovering());
        assert_eq!(rejoiner.a_base(), 2, "snapshot adopted, not full replay");
        assert_eq!(rejoiner.total_settled(), 3);
        assert_eq!(rejoiner.stats().catch_up_snapshot_position, 2);
        assert_eq!(rejoiner.stats().catch_up_delta, 1);
        assert_eq!(rejoiner.settled_digest(), donor.settled_digest());
        assert_eq!(rejoiner.order_hash_at(3), donor.order_hash_at(3));
        assert_eq!(rejoiner.epoch(), donor.epoch());
        // The buffered request was replayed after install.
        assert_eq!(rejoiner.payloads_len(), 1, "buffered request replayed");
        // The watermark announcement un-stalls the peers' payload GC.
        assert!(
            actions
                .iter()
                .any(|a| matches!(sent(a), Some((_, OarWire::Watermark { .. })))),
            "rejoiner must announce its watermark on install"
        );
    }

    /// Lemma-2 regression: a rejoiner must not opt-deliver from a mid-epoch
    /// order batch. It missed the epoch's earlier batches, so starting now
    /// would make its `O_delivered` diverge from the sequencer-order prefix
    /// the other replicas hold — and `Cnsv-order` silently drops the longest
    /// prefix's suffix when fed a non-prefix, splitting the settle order.
    /// The freeze expires once the epoch advances.
    #[test]
    fn rejoiner_freezes_optimistic_delivery_for_the_caught_up_epoch() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            snapshot_every: Some(2),
            ..OarConfig::default()
        };
        let mut donor = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        for seq in 0..2 {
            let (_, request) = request_wire(client, seq, 2);
            deliver(&mut donor, client, request);
        }
        assert_eq!(donor.epoch(), 2);

        // Rejoiner catches up into epoch 2, whose sequencer is the donor.
        let mut rejoiner = OarServer::recovering(
            ProcessId::new(1),
            vec![ProcessId::new(0), ProcessId::new(1)],
            config,
            CounterMachine::default(),
        );
        let actions = deliver(
            &mut donor,
            ProcessId::new(1),
            OarWire::CatchUpRequest {
                attempt: 0,
                group: vec![ProcessId::new(0), ProcessId::new(1)],
            },
        );
        let reply = actions
            .iter()
            .find_map(|a| match sent(a) {
                Some((to, msg @ OarWire::CatchUpReply(_))) if to == ProcessId::new(1) => {
                    Some(msg.clone())
                }
                _ => None,
            })
            .expect("donor must answer with a CatchUpReply");
        deliver(&mut rejoiner, ProcessId::new(0), reply);
        assert!(!rejoiner.is_recovering());
        assert_eq!(rejoiner.epoch(), 2);
        assert_eq!(rejoiner.phase(), Phase::Optimistic);
        assert_eq!(rejoiner.current_sequencer(), ProcessId::new(0));

        // A mid-epoch order batch arrives with its payload in hand: the
        // frozen rejoiner stores the payload but must not opt-deliver.
        let (rid, request) = request_wire(client, 2, 2);
        deliver(&mut rejoiner, ProcessId::new(0), request);
        let order = OarWire::Order(OrderMsg {
            epoch: 2,
            order: [rid].into_iter().collect(),
            settled: 2,
        });
        deliver(&mut rejoiner, ProcessId::new(0), order);
        assert_eq!(rejoiner.stats().opt_delivered, 0, "freeze must hold");
        assert!(!rejoiner.stable_sequence().contains(&rid));

        // The epoch closes conservatively: the decision settles the request
        // (the rejoiner's empty `O_delivered` is the trivial prefix).
        let phase2 = OarWire::PhaseII(CastWire {
            id: MsgId::new(ProcessId::new(0), 99),
            origin: ProcessId::new(0),
            payload: PhaseIIMsg {
                epoch: 2,
                settled: 2,
            },
        });
        deliver(&mut rejoiner, ProcessId::new(0), phase2);
        assert_eq!(rejoiner.phase(), Phase::Conservative);
        let decision_value = CnsvValue {
            o_delivered: [rid].into_iter().collect(),
            o_notdelivered: Default::default(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 2,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut rejoiner, ProcessId::new(0), decide);
        assert_eq!(rejoiner.epoch(), 3, "conservative close advances");
        assert!(rejoiner.stable_sequence().contains(&rid));

        // The freeze expired with the epoch: epoch 3's sequencer is the
        // rejoiner itself, and a fresh request opt-delivers normally.
        assert!(rejoiner.is_sequencer());
        let (next, request) = request_wire(client, 3, 2);
        deliver(&mut rejoiner, client, request);
        assert_eq!(rejoiner.stats().opt_delivered, 1, "freeze expired");
        assert!(rejoiner.committed_sequence().contains(&next));
    }

    /// A transfer whose image cannot be installed (foreign type) is abandoned
    /// and retried against the next donor instead of corrupting state.
    #[test]
    fn rejected_catch_up_image_retries_with_next_donor() {
        let config = OarConfig::default();
        let mut rejoiner = OarServer::recovering(
            ProcessId::new(2),
            (0..3).map(ProcessId::new).collect(),
            config,
            CounterMachine::default(),
        );
        let reply = CatchUpReply {
            attempt: 0,
            image: Some(crate::state_machine::StateImage::new("not a counter")),
            snapshot_position: 5,
            snapshot_digest: 0,
            snapshot_order_hash: 0,
            delta: Vec::new(),
            epoch: 5,
            conservative: false,
            gc_floor: 0,
            settled: Vec::new(),
            digest: 0,
            pending: Vec::new(),
            group: (0..3).map(ProcessId::new).collect(),
            route_epoch: 0,
            migrations: Vec::new(),
        };
        let actions = deliver(
            &mut rejoiner,
            ProcessId::new(0),
            OarWire::CatchUpReply(Box::new(reply)),
        );
        assert!(rejoiner.is_recovering(), "bad image must not end recovery");
        assert_eq!(rejoiner.a_base(), 0, "state untouched by the bad image");
        // The retry goes to the next donor in rotation: attempt 1 -> peer 1.
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::CatchUpRequest { attempt: 1, .. })) if to == ProcessId::new(1)
            )),
            "rejected install must retry with the next donor"
        );
    }

    /// Settled payloads remain fetchable from the catch-up delta: a peer that
    /// missed the original multicast can repair point-to-point, and the fill
    /// is never re-relayed (no ping-pong).
    #[test]
    fn payload_fetch_served_from_settled_log() {
        let config = OarConfig {
            epoch_cut_after: Some(1),
            ..OarConfig::default()
        };
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            config,
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (rid, request) = request_wire(client, 0, 3);
        deliver(&mut server, client, request);
        assert_eq!(server.payloads_len(), 0, "settled payload pruned");

        // The payload is gone from the live map but the settled log still
        // serves it.
        let actions = deliver(
            &mut server,
            ProcessId::new(1),
            OarWire::PayloadFetch { ids: vec![rid] },
        );
        let filled = actions.iter().any(|a| match sent(a) {
            Some((to, OarWire::PayloadFill { requests })) => {
                to == ProcessId::new(1) && requests.len() == 1 && requests[0].id == rid
            }
            _ => false,
        });
        assert!(filled, "settled payloads must be served from the delta log");
        assert_eq!(server.stats().payload_fills, 1);
    }

    /// A settled `Replace` fence swaps the fenced member's slot in place:
    /// quorum, sequencer rotation, the failure detector and the GC
    /// accounting all see the new member; the old one is gone everywhere.
    #[test]
    fn replace_fence_swaps_membership_at_epoch_close() {
        let group: Vec<ProcessId> = vec![ProcessId::new(0), ProcessId::new(1)];
        let mut server = OarServer::new(
            ProcessId::new(0),
            group,
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let (fid, fence) = fence_wire(
            client,
            0,
            ReconfigCmd::Replace {
                old: ProcessId::new(1),
                new: ProcessId::new(2),
            },
        );
        // The fence closes its epoch conservatively on receipt.
        deliver(&mut server, client, fence);
        assert_eq!(server.phase(), Phase::Conservative, "fence forces phase 2");
        assert_eq!(
            server.members(),
            &[ProcessId::new(0), ProcessId::new(1)],
            "membership only changes at the settle, not on receipt"
        );

        // Feed the epoch's decision (as if the peer agreed).
        let decision_value = CnsvValue {
            o_delivered: [fid].into_iter().collect(),
            o_notdelivered: Default::default(),
        };
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 0,
            value: vec![(ProcessId::new(0), decision_value)],
        });
        deliver(&mut server, ProcessId::new(1), decide);
        assert_eq!(server.epoch(), 1, "fence epoch closed");
        assert!(server.stable_sequence().contains(&fid));
        assert_eq!(
            server.members(),
            &[ProcessId::new(0), ProcessId::new(2)],
            "the fenced slot is swapped in place, preserving rotation order"
        );
        assert_eq!(server.stats().reconfigs_applied, 1);
        assert_eq!(
            server.sequencer_of(1),
            ProcessId::new(2),
            "the newcomer inherits the fenced member's rotation slot"
        );
        assert!(
            !server.is_suspecting(ProcessId::new(1)),
            "the fenced member is scrubbed from the suspect set"
        );
        // Duplicate fences are idempotent (old no longer in the group).
        let (fid2, fence2) = fence_wire(
            client,
            1,
            ReconfigCmd::Replace {
                old: ProcessId::new(1),
                new: ProcessId::new(2),
            },
        );
        deliver(&mut server, client, fence2);
        let decide = OarWire::Consensus(ConsensusWire::Decide {
            instance: 1,
            value: vec![(
                ProcessId::new(0),
                CnsvValue {
                    o_delivered: [fid2].into_iter().collect(),
                    o_notdelivered: Default::default(),
                },
            )],
        });
        deliver(&mut server, ProcessId::new(2), decide);
        assert_eq!(server.members(), &[ProcessId::new(0), ProcessId::new(2)]);
        assert_eq!(server.stats().reconfigs_applied, 1, "duplicate is a no-op");
    }

    /// A settled `Migrate` fence bumps the routing-boundary epoch and ships
    /// the hand-off; requests stamped with the stale epoch are door-dropped
    /// and answered with a `Redirect` carrying the records.
    #[test]
    fn stale_route_epoch_requests_are_redirected() {
        let mut server = OarServer::new(
            ProcessId::new(0),
            vec![ProcessId::new(0)],
            OarConfig::default(),
            CounterMachine::default(),
        );
        let client = ProcessId::new(9);
        let record = MigrationRecord {
            range: KeyRange::new("m", "n"),
            from_group: oar_simnet::GroupId::default(),
            to_group: oar_simnet::GroupId::new(1),
            route_epoch: 1,
        };
        let (_, fence) = fence_wire(
            client,
            0,
            ReconfigCmd::Migrate {
                record,
                to_members: vec![ProcessId::new(5)],
            },
        );
        // Single-member group: the fence settles on receipt.
        let actions = deliver(&mut server, client, fence);
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.route_epoch(), 1, "boundary epoch settled");
        assert_eq!(server.migration_records().len(), 1);
        assert_eq!(server.stats().migrations_out, 1);
        // The hand-off went to the recipient member (empty for a machine
        // without keyed state, but the wire still travels).
        assert_eq!(server.stats().migrate_state_wires, 1);
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::MigrateState { .. })) if to == ProcessId::new(5)
            )),
            "donor must ship the hand-off to the recipient members"
        );

        // A request still stamped with boundary epoch 0 bounces.
        let (rid, stale) = request_wire(client, 7, 1);
        let actions = deliver(&mut server, client, stale);
        assert_eq!(server.stats().redirected, 1);
        assert!(!server.committed_sequence().contains(&rid));
        assert!(
            actions.iter().any(|a| matches!(
                sent(a),
                Some((to, OarWire::Redirect { records, dropped }))
                    if to == client
                        && records.len() == 1
                        && dropped.len() == 1
                        && dropped[0] == rid
            )),
            "stale-routed client must receive the records and its dropped id"
        );
    }

    /// Runs `f` against the server with a throwaway runtime context, the
    /// way timer-driven paths see one.
    fn drive(
        server: &mut OarServer<CounterMachine>,
        f: impl FnOnce(&mut OarServer<CounterMachine>, &mut dyn oar_simnet::Runtime<Wire>),
    ) {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        let mut ctx = Context::new(
            SimTime::from_millis(1),
            server.id(),
            &mut rng,
            &mut actions,
            &mut next_timer,
        );
        f(server, &mut ctx);
    }

    /// A leaf-repair vote that cannot resolve — a member crashed before
    /// casting its ballot and the rest split — must expire after
    /// [`SYNC_VOTE_EXPIRY_TICKS`] instead of wedging `start_leaf_vote`'s
    /// idempotence guard forever.
    #[test]
    fn unresolved_leaf_votes_expire_and_unblock_retry() {
        let group: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let config = OarConfig {
            anti_entropy: true,
            ..OarConfig::default()
        };
        let mut server =
            OarServer::new(ProcessId::new(0), group, config, CounterMachine::default());
        // Our ballot (an unkeyed machine votes `None`) plus one conflicting
        // peer ballot: 2 of 3 split, no strict majority; the third member
        // never answers. The vote is wedged.
        drive(&mut server, |s, ctx| s.start_leaf_vote(ctx, "k".into()));
        assert!(server.sync_votes.contains_key("k"));
        deliver(
            &mut server,
            ProcessId::new(1),
            OarWire::SyncLeafReply {
                key: "k".into(),
                value: Some("conflicting".into()),
            },
        );
        assert!(
            server.sync_votes.contains_key("k"),
            "a 2-of-3 split cannot resolve"
        );
        // Anti-entropy ticks up to the deadline keep the vote in flight...
        for _ in 0..SYNC_VOTE_EXPIRY_TICKS {
            drive(&mut server, |s, ctx| s.maybe_sync(ctx));
        }
        assert!(server.sync_votes.contains_key("k"), "deadline not hit yet");
        // ...and the next tick expires it, so a later probe can retry.
        drive(&mut server, |s, ctx| s.maybe_sync(ctx));
        assert!(server.sync_votes.is_empty(), "wedged vote expired");
        drive(&mut server, |s, ctx| s.start_leaf_vote(ctx, "k".into()));
        assert!(
            server.sync_votes.contains_key("k"),
            "repair for the key is unblocked"
        );
    }
}
