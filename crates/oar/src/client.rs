//! The OAR client (Fig. 5 of the paper).
//!
//! `OAR-multicast(m, Π)` R-multicasts the request to the server group and then
//! waits for replies. Unlike classic active replication, the replies need not
//! be identical: each carries a *weight* (the set of servers endorsing it). The
//! client waits until, for some epoch `k`, the union of the weights of the
//! replies received for `k` reaches the majority threshold `⌈(|Π|+1)/2⌉`, and
//! then adopts a reply with the largest individual weight. This rule is what
//! guarantees external consistency (Proposition 7): a reply that could still be
//! invalidated by an `Opt-undeliver` can never gather a majority weight.
//!
//! # Pipelining
//!
//! By default the client is closed-loop: one outstanding request at a time,
//! exactly Fig. 5. [`PipelineMode::Fixed`] (via
//! [`ClientConfigBuilder::pipeline`](crate::ClientConfigBuilder::pipeline))
//! allows up to `depth` outstanding requests, each tracked independently by
//! the same weighted quorum rule. Pipelining is what lets the servers'
//! batching layers (sequencer `OrderMsg` batches, per-client `ReplyBatch`
//! coalescing) see several requests of the same client in one batch; replies
//! arrive batched and are unpacked back into per-request accounting, so the
//! optimistic / conservative semantics of each request are unchanged.
//!
//! [`PipelineMode::Adaptive`] replaces the fixed depth with a
//! [`PipelineController`]: the window starts closed-loop and co-adapts with
//! the servers' batching, growing towards the cap while reply wires report
//! large delivery batches and decaying back when load drops.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use oar_channels::ReliableCaster;
use oar_simnet::{GroupId, Process, ProcessId, Runtime, SimDuration, SimTime, Timer, TimerTag};

use crate::adaptive::{PipelineController, PipelineStats};
use crate::config::{ClientConfig, PipelineMode};
use crate::message::{majority, OarWire, Reply, ReplyBatch, Request, RequestId, Weight};
use crate::state_machine::StateMachine;

/// Timer tag used for the think-time delay between two requests.
const NEXT_REQUEST: TimerTag = TimerTag::NextRequest;

/// A request completed by the client: the adopted reply plus bookkeeping used
/// by the experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedRequest<R> {
    /// The request identifier.
    pub id: RequestId,
    /// Index of the command in the client's workload.
    pub index: usize,
    /// The adopted response.
    pub response: R,
    /// Position reported by the adopted reply (the paper's integer reply).
    pub position: u64,
    /// Epoch of the adopted reply.
    pub epoch: u64,
    /// Size of the weight of the adopted reply.
    pub adopted_weight: usize,
    /// Number of replies received before adoption.
    pub replies_seen: usize,
    /// Time at which the request was multicast.
    pub sent_at: SimTime,
    /// Time at which the quorum was reached and the reply adopted.
    pub completed_at: SimTime,
}

impl<R> CompletedRequest<R> {
    /// Client-observed latency of the request.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.duration_since(self.sent_at)
    }
}

/// Per-epoch accumulation of replies for one outstanding request.
#[derive(Debug, Clone)]
struct EpochReplies<R> {
    union_weight: Weight,
    replies: Vec<Reply<R>>,
}

impl<R> Default for EpochReplies<R> {
    fn default() -> Self {
        EpochReplies {
            union_weight: Weight::new(),
            replies: Vec::new(),
        }
    }
}

/// The per-request reply accounting of the Fig. 5 weighted-quorum rule,
/// shared by every client flavour ([`OarClient`],
/// [`crate::sharded::ShardedClient`], [`crate::txn::TxnClient`]).
///
/// Replies are grouped by the epoch they were processed in; the request is
/// adoptable once, for some epoch, the union of the reply weights reaches the
/// majority threshold of the *owning group* — at which point a reply with the
/// largest individual weight is adopted (Fig. 5 lines 3–5). The threshold is
/// passed per [`absorb`](QuorumTracker::absorb) call because the sharded and
/// transactional clients track requests owned by groups of possibly different
/// sizes.
#[derive(Debug, Clone)]
pub struct QuorumTracker<R> {
    by_epoch: BTreeMap<u64, EpochReplies<R>>,
    replies_seen: usize,
}

impl<R> Default for QuorumTracker<R> {
    fn default() -> Self {
        QuorumTracker {
            by_epoch: BTreeMap::new(),
            replies_seen: 0,
        }
    }
}

impl<R: Clone> QuorumTracker<R> {
    /// A tracker with no replies absorbed yet.
    pub fn new() -> Self {
        QuorumTracker::default()
    }

    /// Number of replies absorbed so far.
    pub fn replies_seen(&self) -> usize {
        self.replies_seen
    }

    /// Absorbs one reply. Returns `Some((epoch, adopted_reply))` as soon as
    /// the Fig. 5 rule is satisfied for some epoch with the given `majority`
    /// threshold, `None` while the quorum is still open. The caller is
    /// expected to stop feeding the tracker once it adopts.
    pub fn absorb(&mut self, reply: Reply<R>, majority: usize) -> Option<(u64, Reply<R>)> {
        self.replies_seen += 1;
        let epoch_replies = self.by_epoch.entry(reply.epoch).or_default();
        epoch_replies
            .union_weight
            .extend(reply.weight.iter().copied());
        epoch_replies.replies.push(reply);

        // Fig. 5 line 3: wait until the union of weights for some epoch k
        // reaches the majority threshold; lines 4–5: adopt a reply with the
        // largest individual weight.
        self.by_epoch.iter().find_map(|(epoch, acc)| {
            if acc.union_weight.len() >= majority {
                acc.replies
                    .iter()
                    .max_by_key(|r| r.weight.len())
                    .map(|r| (*epoch, r.clone()))
            } else {
                None
            }
        })
    }
}

#[derive(Clone, Debug)]
struct Outstanding<R> {
    index: usize,
    sent_at: SimTime,
    quorum: QuorumTracker<R>,
}

/// A closed-loop OAR client: it submits the commands of its workload with at
/// most `pipeline` requests outstanding (1 by default — the paper's Fig. 5),
/// adopting each reply per the weighted-quorum rule before refilling the
/// window (after an optional think time).
#[derive(Debug)]
pub struct OarClient<S: StateMachine> {
    id: ProcessId,
    servers: Vec<ProcessId>,
    group: GroupId,
    cast: ReliableCaster<Arc<Request<S::Command>>>,
    workload: VecDeque<S::Command>,
    next_index: usize,
    think_time: SimDuration,
    start_delay: SimDuration,
    /// The current outstanding-request window. Static unless `adaptive` is
    /// set, in which case the controller updates it on every reply wire.
    pipeline: usize,
    /// Present when the window adapts to the servers' delivery-batch hints.
    adaptive: Option<PipelineController>,
    outstanding: BTreeMap<RequestId, Outstanding<S::Response>>,
    completed: Vec<CompletedRequest<S::Response>>,
    majority: usize,
}

impl<S: StateMachine> OarClient<S> {
    /// Creates a client that will submit `workload` to `servers` under the
    /// given [`ClientConfig`] (think time, start delay, pipeline policy,
    /// target group — see [`ClientConfig::builder`]).
    pub fn new(
        id: ProcessId,
        servers: Vec<ProcessId>,
        workload: Vec<S::Command>,
        config: ClientConfig,
    ) -> Self {
        let majority = majority(servers.len());
        let adaptive = match config.pipeline {
            PipelineMode::Fixed(_) => None,
            PipelineMode::Adaptive(cap) => Some(PipelineController::new(cap)),
        };
        OarClient {
            id,
            group: config.group,
            cast: ReliableCaster::new(id, servers.clone()),
            servers,
            workload: workload.into(),
            next_index: 0,
            think_time: config.think_time,
            start_delay: config.start_delay,
            pipeline: config.initial_window().max(1),
            adaptive,
            outstanding: BTreeMap::new(),
            completed: Vec::new(),
            majority,
        }
    }

    /// Convergence counters of the adaptive pipeline window (`None` for a
    /// static pipeline).
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.adaptive.as_ref().map(|c| c.stats())
    }

    /// The pipeline depth of this client.
    pub fn pipeline(&self) -> usize {
        self.pipeline
    }

    /// The client's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The requests completed so far, in completion order.
    pub fn completed(&self) -> &[CompletedRequest<S::Response>] {
        &self.completed
    }

    /// Whether the whole workload has been submitted and answered.
    pub fn is_done(&self) -> bool {
        self.workload.is_empty() && self.outstanding.is_empty()
    }

    /// Number of requests still to submit (excluding outstanding ones).
    pub fn remaining(&self) -> usize {
        self.workload.len()
    }

    /// Submits requests until the pipeline window is full or the workload is
    /// exhausted.
    fn fill_pipeline(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        while self.outstanding.len() < self.pipeline {
            let Some(command) = self.workload.pop_front() else {
                return;
            };
            let (id, mut wire, targets) = self.cast.multicast_shared(Arc::new(Request {
                // The id is re-stamped below once the multicast assigns it.
                id: RequestId::new(self.id, 0),
                client: self.id,
                group: self.group,
                txn: None,
                reconfig: None,
                route_epoch: 0,
                command,
            }));
            // Re-stamp the request with the multicast id so servers and client
            // agree. The `Arc` is fresh, so this writes in place; the wire is
            // built once and shared across all servers.
            Arc::get_mut(&mut wire.payload).expect("fresh request").id = id;
            ctx.send_all(&targets, OarWire::Request(wire));
            ctx.annotate(format!("OAR-multicast({id})"));
            self.outstanding.insert(
                id,
                Outstanding {
                    index: self.next_index,
                    sent_at: ctx.now(),
                    quorum: QuorumTracker::new(),
                },
            );
            self.next_index += 1;
        }
    }

    fn handle_reply_batch(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        batch: ReplyBatch<S::Response>,
    ) {
        // Adapt the window before unpacking, so the refills triggered by the
        // adoptions below already see the adjusted pipeline.
        if let Some(controller) = self.adaptive.as_mut() {
            self.pipeline = controller.observe_batch(batch.batch_hint);
        }
        for reply in batch.unpack() {
            self.handle_reply(ctx, reply);
        }
    }

    fn handle_reply(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        reply: Reply<S::Response>,
    ) {
        let request = reply.request;
        let Some(outstanding) = self.outstanding.get_mut(&request) else {
            return; // stale reply for an already-completed request
        };
        let Some((epoch, reply)) = outstanding.quorum.absorb(reply, self.majority) else {
            return;
        };
        let outstanding = self.outstanding.remove(&request).expect("outstanding");
        ctx.annotate(format!(
            "adopt({}, pos={}, |W|={})",
            request,
            reply.position,
            reply.weight.len()
        ));
        self.completed.push(CompletedRequest {
            id: request,
            index: outstanding.index,
            response: reply.response,
            position: reply.position,
            epoch,
            adopted_weight: reply.weight.len(),
            replies_seen: outstanding.quorum.replies_seen(),
            sent_at: outstanding.sent_at,
            completed_at: ctx.now(),
        });
        if self.workload.is_empty() {
            return;
        }
        if self.think_time.is_zero() {
            self.fill_pipeline(ctx);
        } else {
            ctx.set_timer(self.think_time, NEXT_REQUEST);
        }
    }

    /// The majority threshold this client uses (`⌈(|Π|+1)/2⌉`).
    pub fn majority_threshold(&self) -> usize {
        self.majority
    }

    /// The server group this client talks to.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    /// Deep copy for [`Process::fork`]: every field is `Clone` except the
    /// workload commands, which are (`S::Command: Clone`).
    fn fork_self(&self) -> Self {
        OarClient {
            id: self.id,
            servers: self.servers.clone(),
            group: self.group,
            cast: self.cast.clone(),
            workload: self.workload.clone(),
            next_index: self.next_index,
            think_time: self.think_time,
            start_delay: self.start_delay,
            pipeline: self.pipeline,
            adaptive: self.adaptive.clone(),
            outstanding: self.outstanding.clone(),
            completed: self.completed.clone(),
            majority: self.majority,
        }
    }

    /// Digest of the client's protocol-relevant state, for
    /// [`Process::state_digest`]. Timestamps (`sent_at`, `completed_at`) are
    /// excluded: the model checker abstracts time, and two states differing
    /// only in when things happened behave identically.
    fn mc_digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.id.index().hash(&mut h);
        self.workload.len().hash(&mut h);
        self.next_index.hash(&mut h);
        self.pipeline.hash(&mut h);
        self.cast.digest_view().hash(&mut h);
        for (id, outstanding) in &self.outstanding {
            id.hash(&mut h);
            outstanding.index.hash(&mut h);
            outstanding.quorum.replies_seen().hash(&mut h);
            format!("{:?}", outstanding.quorum).hash(&mut h);
        }
        for completed in &self.completed {
            completed.id.hash(&mut h);
            completed.index.hash(&mut h);
            completed.position.hash(&mut h);
            completed.epoch.hash(&mut h);
            format!("{:?}", completed.response).hash(&mut h);
        }
        h.finish()
    }
}

impl<S: StateMachine> Process<OarWire<S::Command, S::Response>> for OarClient<S> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        if self.start_delay.is_zero() {
            self.fill_pipeline(ctx);
        } else {
            ctx.set_timer(self.start_delay, NEXT_REQUEST);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        _from: ProcessId,
        msg: OarWire<S::Command, S::Response>,
    ) {
        if let OarWire::Replies(batch) = msg {
            self.handle_reply_batch(ctx, batch);
        }
        // Clients ignore every other message kind.
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == NEXT_REQUEST && self.outstanding.len() < self.pipeline {
            self.fill_pipeline(ctx);
        }
    }

    fn fork(&self) -> Option<Box<dyn Process<OarWire<S::Command, S::Response>>>> {
        Some(Box::new(self.fork_self()))
    }

    fn state_digest(&self) -> Option<u64> {
        Some(self.mc_digest())
    }

    fn name(&self) -> String {
        format!("oar-client-{}", self.id.index())
    }
}
