//! Sharded multi-group OAR: several independent replication groups over one
//! simulated network, a key → group router, and clients that fan requests to
//! the group owning each key.
//!
//! With the per-group hot path linear and the per-batch traffic amortised, a
//! single sequencer is the scalability ceiling of a one-group deployment.
//! This module partitions the *key space* over `N` OAR groups — each with
//! its own sequencer, consensus instance and failure detector — following
//! the parallel-SMR observation that commands touching disjoint state need
//! not share one total order.
//!
//! # What is (and is not) ordered
//!
//! * **Inside a group**: the full OAR guarantees — total order, at-most-once,
//!   external consistency — hold per group, unchanged. Since the router is a
//!   pure function of the key, *per-key* ordering is exactly the owning
//!   group's total order.
//! * **Across groups**: nothing. Two requests routed to different groups are
//!   processed with no ordering relation whatsoever; there is no cross-group
//!   agreement on the critical path (or anywhere else). Workloads needing
//!   cross-key atomicity must place those keys in one group (range
//!   partitioning) or run on a single group.
//!
//! Misrouting is a safety hazard (a request ordered against the wrong key
//! space), so every request carries its intended [`GroupId`] and servers
//! drop + count mismatches ([`ServerStats::misrouted`]); the experiment
//! harness gates on the count staying zero.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use oar_channels::CastWire;
use oar_sequence::{IdMap, IdSet, Seq};
use oar_simnet::{
    GroupId, NetConfig, NetStats, Process, ProcessId, Runtime, Samples, SimDuration, SimTime,
    Timer, TimerTag, World,
};

use crate::adaptive::{PipelineController, PipelineStats};
use crate::client::{CompletedRequest, QuorumTracker};
use crate::config::OarConfig;
use crate::config::{ClientConfig, PipelineMode};
use crate::message::{majority, OarWire, ReconfigCmd, Reply, ReplyBatch, Request, RequestId};
use crate::server::{OarServer, ServerStats};
use crate::shard::{KeyRange, MigrationRecord, ShardKey, ShardRouter};
use crate::state_machine::StateMachine;

/// Timer tag used for the think-time delay between two requests.
const NEXT_REQUEST: TimerTag = TimerTag::NextRequest;

/// Parameters of a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of OAR groups the key space is partitioned over.
    pub num_groups: usize,
    /// Replicas per group (`|Π|` of each group).
    pub servers_per_group: usize,
    /// Number of client processes; every client may talk to every group.
    pub num_clients: usize,
    /// The key → group router, replicated at every client.
    /// Must agree with `num_groups`.
    pub router: ShardRouter,
    /// Network configuration (shared by all groups: sharding splits the key
    /// space, not the network).
    pub net: NetConfig,
    /// Protocol configuration template; each group's servers get it stamped
    /// with their [`GroupId`] via [`OarConfig::for_group`].
    pub oar: OarConfig,
    /// Seed of the deterministic simulation.
    pub seed: u64,
    /// Client think time between requests.
    pub think_time: SimDuration,
    /// Static pipelines: the maximum outstanding requests per client,
    /// across all groups. With `adaptive_pipeline` set it is instead the cap
    /// of each **per-group** window, so a client may hold up to
    /// `num_groups × client_pipeline` requests once every group's window has
    /// opened fully.
    pub client_pipeline: usize,
    /// When `true`, each client keeps one
    /// [`PipelineController`] per group
    /// and adapts that group's window to its reported delivery-batch sizes —
    /// groups under different load converge to different windows.
    pub adaptive_pipeline: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            num_groups: 2,
            servers_per_group: 3,
            num_clients: 2,
            router: ShardRouter::hash(2),
            net: NetConfig::lan(),
            oar: OarConfig::default(),
            seed: 1,
            think_time: SimDuration::ZERO,
            client_pipeline: 1,
            adaptive_pipeline: false,
        }
    }
}

#[derive(Debug)]
struct Outstanding<C, R> {
    group: GroupId,
    index: usize,
    sent_at: SimTime,
    quorum: QuorumTracker<R>,
    /// The request as last sent, shared with its wire and retained so a
    /// [`OarWire::Redirect`] can re-route it to the group that now owns its
    /// key (only such a re-send copies the command). Its `route_epoch`
    /// de-duplicates redirects: once a request was re-sent under the current
    /// routing epoch, further `Redirect`s naming it (one per group member
    /// that door-dropped a first-hand copy) are ignored.
    request: Arc<Request<C>>,
}

/// Per-group adaptive pipeline state of a [`ShardedClient`]: one window
/// controller and in-flight count per group, so each group's window tracks
/// *its* sequencer's batching independently (skewed per-group load converges
/// to skewed windows).
#[derive(Debug)]
struct GroupPipelines {
    controllers: Vec<PipelineController>,
    in_flight: Vec<usize>,
    /// Which group each server belongs to, for attributing reply wires.
    server_group: IdMap<ProcessId, usize>,
}

impl GroupPipelines {
    fn new(groups: &[Vec<ProcessId>], cap: usize) -> Self {
        let server_group = groups
            .iter()
            .enumerate()
            .flat_map(|(g, servers)| servers.iter().map(move |&s| (s, g)))
            .collect();
        GroupPipelines {
            controllers: groups
                .iter()
                .map(|_| PipelineController::new(cap))
                .collect(),
            in_flight: vec![0; groups.len()],
            server_group,
        }
    }
}

/// A request completed by a sharded client: the group that served it plus
/// the per-request bookkeeping of the single-group client.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCompleted<R> {
    /// The group the request was routed to (and answered by).
    pub group: GroupId,
    /// The adopted reply and its bookkeeping.
    pub request: CompletedRequest<R>,
}

/// A client of a sharded deployment: it routes every command of its workload
/// to the group owning the command's key, R-multicasts it to that group, and
/// applies the Fig. 5 weighted-quorum adoption rule *per owning group* — the
/// optimistic/conservative reply semantics of each request are exactly those
/// of a single-group client, with the majority threshold of the group that
/// serves it.
#[derive(Debug)]
pub struct ShardedClient<S: StateMachine> {
    id: ProcessId,
    /// Server ids per group, indexed by [`GroupId`].
    groups: Vec<Vec<ProcessId>>,
    router: ShardRouter,
    workload: VecDeque<S::Command>,
    /// Requests get ids `(self.id, seq)` from one counter across all groups,
    /// so ids stay unique however commands are routed.
    next_seq: u64,
    next_index: usize,
    think_time: SimDuration,
    start_delay: SimDuration,
    pipeline: usize,
    /// Present when each group's window adapts to its delivery-batch hints.
    adaptive: Option<GroupPipelines>,
    outstanding: BTreeMap<RequestId, Outstanding<S::Command, S::Response>>,
    completed: Vec<ShardCompleted<S::Response>>,
}

impl<S: StateMachine> ShardedClient<S>
where
    S::Command: ShardKey,
{
    /// Creates a client submitting `workload` to the deployment described by
    /// `groups` (server ids per group) and `router`.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `groups.len()`.
    pub fn new(
        id: ProcessId,
        groups: Vec<Vec<ProcessId>>,
        router: ShardRouter,
        workload: Vec<S::Command>,
        config: ClientConfig,
    ) -> Self {
        assert_eq!(
            router.num_groups(),
            groups.len(),
            "router and deployment disagree on the group count"
        );
        let adaptive = match config.pipeline {
            PipelineMode::Fixed(_) => None,
            // One adaptive window per group, each driven by that group's
            // reported delivery-batch sizes, so a heavily loaded group
            // pipelines deeply while a light one stays closed-loop.
            PipelineMode::Adaptive(cap) => Some(GroupPipelines::new(&groups, cap)),
        };
        ShardedClient {
            id,
            groups,
            router,
            workload: workload.into(),
            next_seq: 0,
            next_index: 0,
            think_time: config.think_time,
            start_delay: config.start_delay,
            pipeline: config.initial_window().max(1),
            adaptive,
            outstanding: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// Convergence counters of group `g`'s adaptive window (`None` for a
    /// static pipeline).
    pub fn group_pipeline_stats(&self, g: usize) -> Option<PipelineStats> {
        self.adaptive
            .as_ref()
            .and_then(|a| a.controllers.get(g))
            .map(|c| c.stats())
    }

    /// The client's process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The requests completed so far, in completion order.
    pub fn completed(&self) -> &[ShardCompleted<S::Response>] {
        &self.completed
    }

    /// Whether the whole workload has been submitted and answered.
    pub fn is_done(&self) -> bool {
        self.workload.is_empty() && self.outstanding.is_empty()
    }

    /// Submits requests until the pipeline window is full or the workload is
    /// exhausted. Each request is R-multicast to the servers of its owning
    /// group only (the client is not a member, so the group's internal relay
    /// provides Agreement).
    ///
    /// With a static pipeline the window is global; with adaptive pipelining
    /// the head-of-line command must fit its *owning group's* window —
    /// commands stay FIFO, so a light group's shallow window can briefly
    /// hold back traffic for a deep one, which keeps per-key submission
    /// order trivially intact.
    fn fill_pipeline(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>) {
        loop {
            let Some(command) = self.workload.front() else {
                return;
            };
            let group = self.router.route(command);
            match &self.adaptive {
                None => {
                    if self.outstanding.len() >= self.pipeline {
                        return;
                    }
                }
                Some(a) => {
                    let g = group.index();
                    if a.in_flight[g] >= a.controllers[g].window() {
                        return;
                    }
                }
            }
            let command = self.workload.pop_front().expect("peeked above");
            if let Some(a) = self.adaptive.as_mut() {
                a.in_flight[group.index()] += 1;
            }
            let id = RequestId::new(self.id, self.next_seq);
            self.next_seq += 1;
            let request = Arc::new(Request {
                id,
                client: self.id,
                group,
                txn: None,
                reconfig: None,
                route_epoch: self.router.route_epoch(),
                command,
            });
            let wire = CastWire {
                id,
                origin: self.id,
                payload: Arc::clone(&request),
            };
            ctx.send_all(&self.groups[group.index()], OarWire::Request(wire));
            ctx.annotate(format!("OAR-multicast({id}, {group})"));
            self.outstanding.insert(
                id,
                Outstanding {
                    group,
                    index: self.next_index,
                    sent_at: ctx.now(),
                    quorum: QuorumTracker::new(),
                    request,
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
        // Adapt the sending group's window before unpacking, so the refills
        // triggered by the adoptions below see the adjusted pipeline.
        if let Some(a) = self.adaptive.as_mut() {
            if let Some(&g) = a.server_group.get(&batch.from) {
                a.controllers[g].observe_batch(batch.batch_hint);
            }
        }
        for reply in batch.unpack() {
            self.handle_reply(ctx, reply);
        }
    }

    /// The Fig. 5 adoption rule, with the majority threshold of the request's
    /// owning group.
    fn handle_reply(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        reply: Reply<S::Response>,
    ) {
        let request = reply.request;
        let Some(outstanding) = self.outstanding.get_mut(&request) else {
            return; // stale reply for an already-completed request
        };
        let threshold = majority(self.groups[outstanding.group.index()].len());
        let Some((epoch, reply)) = outstanding.quorum.absorb(reply, threshold) else {
            return;
        };
        let outstanding = self.outstanding.remove(&request).expect("outstanding");
        if let Some(a) = self.adaptive.as_mut() {
            a.in_flight[outstanding.group.index()] -= 1;
        }
        ctx.annotate(format!(
            "adopt({}, {}, pos={}, |W|={})",
            request,
            outstanding.group,
            reply.position,
            reply.weight.len()
        ));
        self.completed.push(ShardCompleted {
            group: outstanding.group,
            request: CompletedRequest {
                id: request,
                index: outstanding.index,
                response: reply.response,
                position: reply.position,
                epoch,
                adopted_weight: reply.weight.len(),
                replies_seen: outstanding.quorum.replies_seen(),
                sent_at: outstanding.sent_at,
                completed_at: ctx.now(),
            },
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

    /// Handles a routing redirect from a donor group: advance the local
    /// router past the migrations the redirect carries, then re-send exactly
    /// the requests the redirect names as **dropped** — under their
    /// *original* [`RequestId`]s, so the servers' at-most-once guarantee
    /// (and the cross-group leak check) still holds.
    ///
    /// Only dropped requests may be re-sent. An outstanding request the
    /// donor already ordered is *not* dropped: its effect travels in the
    /// migrated hand-off and its replies are still in flight, so re-sending
    /// it to the recipient group — whose seen-set has never met its id —
    /// would order and execute it a second time. The servers name a request
    /// in `dropped` only when no copy of it can settle anywhere (door-drop
    /// before the caster, or fence prune with the seen entry retained), so
    /// the re-send is the request's only path to settlement.
    fn handle_redirect(
        &mut self,
        ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>,
        records: Vec<MigrationRecord>,
        dropped: Vec<RequestId>,
    ) {
        for record in &records {
            self.router.apply_record(record);
        }
        let route_epoch = self.router.route_epoch();
        for id in dropped {
            let Some(outstanding) = self.outstanding.get_mut(&id) else {
                continue; // already completed (a racing group answered)
            };
            if outstanding.request.route_epoch >= route_epoch {
                continue; // already re-sent under the current boundary
            }
            let group = self.router.route(&outstanding.request.command);
            if group != outstanding.group {
                if let Some(a) = self.adaptive.as_mut() {
                    a.in_flight[outstanding.group.index()] -= 1;
                    a.in_flight[group.index()] += 1;
                }
                // Partial optimistic weight from the donor group must not be
                // mixed with the recipient's replies (epoch numbers are
                // per-group), so the tracker restarts from scratch.
                outstanding.group = group;
                outstanding.quorum = QuorumTracker::new();
            }
            // Same group: the first-hand copy was door-dropped for the stale
            // stamp alone, so re-send under the fresh one; if a pre-fence
            // relay spread it after all, the group's seen-set absorbs the
            // duplicate.
            outstanding.request = Arc::new(Request {
                id,
                client: self.id,
                group,
                txn: None,
                reconfig: None,
                route_epoch,
                command: outstanding.request.command.clone(),
            });
            let wire = CastWire {
                id,
                origin: self.id,
                payload: Arc::clone(&outstanding.request),
            };
            ctx.send_all(&self.groups[group.index()], OarWire::Request(wire));
            ctx.annotate(format!("OAR-redirect({id}, {group})"));
        }
    }
}

impl<S: StateMachine> Process<OarWire<S::Command, S::Response>> for ShardedClient<S>
where
    S::Command: ShardKey,
{
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
        match msg {
            OarWire::Replies(batch) => self.handle_reply_batch(ctx, batch),
            OarWire::Redirect { records, dropped } => self.handle_redirect(ctx, records, dropped),
            // Clients ignore every other message kind.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<OarWire<S::Command, S::Response>>, timer: Timer) {
        if timer.tag == NEXT_REQUEST
            && (self.adaptive.is_some() || self.outstanding.len() < self.pipeline)
        {
            self.fill_pipeline(ctx);
        }
    }

    fn name(&self) -> String {
        format!("sharded-client-{}", self.id.index())
    }
}

/// A fully assembled sharded OAR deployment: `num_groups` independent server
/// groups plus routing clients, in one simulated world.
pub struct ShardedCluster<S: StateMachine> {
    /// The simulation world. Exposed so experiments can inject crashes,
    /// partitions and custom calls.
    pub world: World<OarWire<S::Command, S::Response>>,
    /// Server identifiers per group, indexed by [`GroupId`].
    pub groups: Vec<Vec<ProcessId>>,
    /// Identifiers of the client processes.
    pub clients: Vec<ProcessId>,
    /// The router shared by all clients.
    pub router: ShardRouter,
    /// The protocol configuration the groups were built with (before
    /// [`OarConfig::for_group`] stamping) — kept for replacement spawns.
    oar: OarConfig,
}

impl<S: StateMachine> ShardedCluster<S>
where
    S::Command: ShardKey,
{
    /// Builds a sharded cluster. `make_sm` creates each replica's initial
    /// state (identical per group — and, as groups own disjoint key ranges,
    /// in practice identical everywhere); `workload_for(client_index)` is
    /// each client's command list, routed per command.
    ///
    /// # Panics
    ///
    /// Panics if the router's group count differs from `config.num_groups`.
    pub fn build(
        config: &ShardedConfig,
        mut make_sm: impl FnMut() -> S,
        mut workload_for: impl FnMut(usize) -> Vec<S::Command>,
    ) -> Self {
        assert_eq!(
            config.router.num_groups(),
            config.num_groups,
            "router and config disagree on the group count"
        );
        let mut world: World<OarWire<S::Command, S::Response>> =
            World::new(config.net.clone(), config.seed);
        let groups = build_group_servers(&mut world, config, &mut make_sm);
        let first_client = config.num_groups * config.servers_per_group;
        let mut clients = Vec::with_capacity(config.num_clients);
        for c in 0..config.num_clients {
            let mut builder = ClientConfig::builder()
                .think_time(config.think_time)
                .start_delay(SimDuration::from_micros(10 * c as u64));
            builder = if config.adaptive_pipeline {
                builder.adaptive_pipeline(config.client_pipeline)
            } else {
                builder.pipeline(config.client_pipeline)
            };
            let client: ShardedClient<S> = ShardedClient::new(
                ProcessId::new(first_client + c),
                groups.clone(),
                config.router.clone(),
                workload_for(c),
                builder.build(),
            );
            clients.push(world.add_process(client));
        }
        ShardedCluster {
            world,
            groups,
            clients,
            router: config.router.clone(),
            oar: config.oar,
        }
    }

    /// Runs the simulation until every client finished its workload or the
    /// horizon is reached. Returns `true` if all clients finished.
    pub fn run_to_completion(&mut self, horizon: SimTime) -> bool {
        let slice = SimDuration::from_millis(50);
        let mut next = self.world.now() + slice;
        loop {
            self.world.run_until(next);
            if self.all_clients_done() {
                return true;
            }
            if self.world.now() >= horizon {
                return self.all_clients_done();
            }
            next = self.world.now() + slice;
        }
    }

    /// Whether every client finished its workload.
    pub fn all_clients_done(&self) -> bool {
        self.clients
            .iter()
            .all(|&c| self.world.process_ref::<ShardedClient<S>>(c).is_done())
    }

    /// Read access to server `i` of group `g`.
    pub fn server(&self, g: usize, i: usize) -> &OarServer<S> {
        self.world.process_ref::<OarServer<S>>(self.groups[g][i])
    }

    /// Read access to client `i`.
    pub fn client(&self, i: usize) -> &ShardedClient<S> {
        self.world.process_ref::<ShardedClient<S>>(self.clients[i])
    }

    /// All completed requests of all clients, with their owning group.
    pub fn completed_requests(&self) -> Vec<&ShardCompleted<S::Response>> {
        self.clients
            .iter()
            .flat_map(|&c| {
                self.world
                    .process_ref::<ShardedClient<S>>(c)
                    .completed()
                    .iter()
            })
            .collect()
    }

    /// Client-observed latencies (milliseconds) of all completed requests.
    pub fn latencies(&self) -> Samples {
        let mut samples = Samples::new();
        for r in self.completed_requests() {
            samples.record_duration(r.request.latency());
        }
        samples
    }

    /// Simulated time of the last completion (zero if nothing completed).
    pub fn last_completion(&self) -> SimTime {
        self.completed_requests()
            .iter()
            .map(|r| r.request.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Sums `f` over the server stats of group `g` (crashed servers
    /// included — their counters froze at crash time).
    pub fn sum_group_stats(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.groups[g]
            .iter()
            .map(|&s| f(&self.world.process_ref::<OarServer<S>>(s).stats()))
            .sum()
    }

    /// Sums `f` over the server stats of every group.
    pub fn sum_stats(&self, f: impl Fn(&ServerStats) -> u64 + Copy) -> u64 {
        (0..self.groups.len())
            .map(|g| self.sum_group_stats(g, f))
            .sum()
    }

    /// The maximum of `f` over the server stats of group `g` (used for
    /// per-group gauges like the converged batch target, where only the
    /// group's sequencer carries the signal).
    pub fn max_group_stat(&self, g: usize, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.groups[g]
            .iter()
            .map(|&s| f(&self.world.process_ref::<OarServer<S>>(s).stats()))
            .max()
            .unwrap_or(0)
    }

    /// Total requests stamped for one group that arrived at another — the
    /// misroute count the sharded experiments gate at zero.
    pub fn total_misroutes(&self) -> u64 {
        self.sum_stats(|st| st.misrouted)
    }

    /// The largest peak `seen`-set size observed at any server (bounded by
    /// the epoch-watermark aging).
    pub fn peak_seen(&self) -> u64 {
        self.all_servers()
            .map(|s| {
                self.world
                    .process_ref::<OarServer<S>>(s)
                    .stats()
                    .seen
                    .peak()
            })
            .max()
            .unwrap_or(0)
    }

    /// The largest peak `payloads` size observed at any server.
    pub fn peak_payloads(&self) -> u64 {
        self.all_servers()
            .map(|s| {
                self.world
                    .process_ref::<OarServer<S>>(s)
                    .stats()
                    .payloads
                    .peak()
            })
            .max()
            .unwrap_or(0)
    }

    /// Network statistics attributed to group `g` (message sends by its
    /// servers: ordering, relays, replies, consensus, heartbeats).
    pub fn group_net_stats(&self, g: usize) -> NetStats {
        self.world.group_stats(GroupId::new(g))
    }

    fn all_servers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.groups.iter().flatten().copied()
    }

    /// Migrates `range` from group `from` to group `to` online: injects one
    /// [`ReconfigCmd::Migrate`] fence request into *each* of the two groups
    /// (each settles it through its own conservative order — there is no
    /// cross-group agreement), advancing the routing-boundary epoch. The
    /// donor replicas then ship the settled range to every recipient member
    /// over `MigrateState` wires and door-redirect stale traffic.
    /// `fence_command` is the no-op application command carrying each fence.
    ///
    /// The cluster's own router copy advances immediately; the *clients*
    /// learn the new boundary only through `Redirect` wires, like real
    /// stale-routed clients. Returns the settled migration record.
    pub fn inject_migrate(
        &mut self,
        range: KeyRange,
        from: usize,
        to: usize,
        fence_command: S::Command,
    ) -> MigrationRecord {
        assert_ne!(from, to, "migration needs two distinct groups");
        let record = MigrationRecord {
            range,
            from_group: GroupId::new(from),
            to_group: GroupId::new(to),
            route_epoch: self.router.route_epoch() + 1,
        };
        assert!(
            self.router.apply_record(&record),
            "freshly minted record must advance the router"
        );
        // The first client doubles as the admin origin; its ids count down
        // from `u64::MAX` so they can never collide with its own workload
        // sequence, and it ignores the fences' replies as stale.
        let admin = self.clients[0];
        let to_members = self.groups[to].clone();
        for (k, g) in [from, to].into_iter().enumerate() {
            let id = RequestId::new(admin, u64::MAX - 2 * record.route_epoch - k as u64);
            let wire = CastWire {
                id,
                origin: admin,
                payload: Arc::new(Request {
                    id,
                    client: admin,
                    group: GroupId::new(g),
                    txn: None,
                    reconfig: Some(ReconfigCmd::Migrate {
                        record: record.clone(),
                        to_members: to_members.clone(),
                    }),
                    route_epoch: record.route_epoch - 1,
                    command: fence_command.clone(),
                }),
            };
            for &s in &self.groups[g] {
                if !self.world.is_crashed(s) {
                    self.world
                        .send_external(admin, s, OarWire::Request(wire.clone()));
                }
            }
        }
        record
    }

    /// Replaces server `old_index` of group `g` by a fresh replica: spawns
    /// the replacement over the post-replacement roster (it joins through
    /// the ordinary `CatchUp*` wires) and injects a [`ReconfigCmd::Replace`]
    /// fence into the group's survivors, which settle it through their
    /// conservative order. Other groups are untouched. Returns the
    /// replacement's process id; `self.groups[g]` tracks the new roster.
    pub fn inject_replace(
        &mut self,
        g: usize,
        old_index: usize,
        fence_command: S::Command,
        make_sm: impl FnOnce() -> S,
    ) -> ProcessId {
        let new = crate::cluster::spawn_replacement(
            &mut self.world,
            &self.groups[g],
            old_index,
            self.oar.for_group(GroupId::new(g)),
            fence_command,
            make_sm(),
        );
        self.world.assign_group(new, GroupId::new(g));
        self.groups[g][old_index] = new;
        new
    }

    /// Injects a divergent value for `key` into server `i` of group `g`
    /// (`None` removes the key) — the fault the Merkle anti-entropy loop
    /// heals. Returns whether the state actually changed.
    pub fn inject_divergence(
        &mut self,
        g: usize,
        i: usize,
        key: &str,
        value: Option<&str>,
    ) -> bool {
        let id = self.groups[g][i];
        self.world
            .process_mut::<OarServer<S>>(id)
            .inject_divergence(key, value)
    }

    /// Total requests door-dropped and redirected for stale routing.
    pub fn total_redirected(&self) -> u64 {
        self.sum_stats(|st| st.redirected)
    }

    /// Total settled reconfiguration fences applied across all servers.
    pub fn total_reconfigs_applied(&self) -> u64 {
        self.sum_stats(|st| st.reconfigs_applied)
    }

    /// Total `CatchUpReply` transfers served across all servers.
    pub fn total_catch_up_replies(&self) -> u64 {
        self.sum_stats(|st| st.catch_up_replies)
    }

    /// Total `MigrateState` transfer wires sent across all servers.
    pub fn total_migrate_state_wires(&self) -> u64 {
        self.sum_stats(|st| st.migrate_state_wires)
    }

    /// Total anti-entropy descent wires (node requests + replies) across all
    /// servers.
    pub fn total_sync_node_wires(&self) -> u64 {
        self.sum_stats(|st| st.sync_node_wires)
    }

    /// Total divergent keys repaired by majority vote across all servers.
    pub fn total_sync_repairs(&self) -> u64 {
        self.sum_stats(|st| st.sync_repairs)
    }

    /// The settled-state digest of `range` at every server of group `g`
    /// (`None` for servers whose machine does not expose range digests or
    /// are crashed).
    pub fn range_digests(&self, g: usize, range: &KeyRange) -> Vec<Option<u64>> {
        self.groups[g]
            .iter()
            .map(|&s| {
                if self.world.is_crashed(s) {
                    None
                } else {
                    self.world
                        .process_ref::<OarServer<S>>(s)
                        .range_digest(range)
                }
            })
            .collect()
    }

    /// Checks the single-group safety properties (total order, at-most-once,
    /// digest agreement) *inside every group*, plus cross-group isolation:
    /// no request settled by one group ever appears in another group's
    /// sequence. Cross-group *ordering* is explicitly not checked — it is
    /// not a property of the sharded deployment.
    pub fn check_per_group_consistency(&self) -> Result<(), String> {
        check_groups_consistency::<S>(&self.world, &self.groups)
    }

    /// Checks external consistency per group (Proposition 7): every adopted
    /// reply matches, at every alive server of the *owning* group that
    /// settled the request, the position at which that server processed it.
    pub fn check_external_consistency(&self) -> Result<(), String> {
        // Final settled position of every request, per server, per group.
        let mut per_group: Vec<Vec<IdMap<RequestId, u64>>> = Vec::new();
        for servers in &self.groups {
            let mut maps = Vec::new();
            for &s in servers {
                if self.world.is_crashed(s) {
                    maps.push(IdMap::default());
                    continue;
                }
                let server = self.world.process_ref::<OarServer<S>>(s);
                let mut positions = IdMap::default();
                for (i, id) in server.committed_sequence().iter().enumerate() {
                    positions.insert(*id, (i + 1) as u64);
                }
                maps.push(positions);
            }
            per_group.push(maps);
        }
        for (c_idx, &c) in self.clients.iter().enumerate() {
            let client = self.world.process_ref::<ShardedClient<S>>(c);
            for done in client.completed() {
                for (s_idx, positions) in per_group[done.group.index()].iter().enumerate() {
                    if let Some(&pos) = positions.get(&done.request.id) {
                        if pos != done.request.position {
                            return Err(format!(
                                "client {c_idx} adopted position {} for {} but server {} of {} settled it at {}",
                                done.request.position, done.request.id, s_idx, done.group, pos
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builds the per-group server layout shared by [`ShardedCluster`] and
/// [`crate::txn::TxnCluster`]: `num_groups` groups of `servers_per_group`
/// consecutive process ids, each server stamped with its group identity and
/// registered with the tracer. The two deployments differ only in the
/// client processes added afterwards.
pub(crate) fn build_group_servers<S: StateMachine>(
    world: &mut World<OarWire<S::Command, S::Response>>,
    config: &ShardedConfig,
    make_sm: &mut impl FnMut() -> S,
) -> Vec<Vec<ProcessId>> {
    let mut groups = Vec::with_capacity(config.num_groups);
    for g in 0..config.num_groups {
        let base = g * config.servers_per_group;
        let ids: Vec<ProcessId> = (base..base + config.servers_per_group)
            .map(ProcessId::new)
            .collect();
        for &id in &ids {
            let server = OarServer::new(
                id,
                ids.clone(),
                config.oar.for_group(GroupId::new(g)),
                make_sm(),
            );
            let assigned = world.add_process(server);
            debug_assert_eq!(assigned, id);
            world.assign_group(assigned, GroupId::new(g));
        }
        groups.push(ids);
    }
    groups
}

/// The per-group safety properties (total order, at-most-once, digest
/// agreement) plus cross-group isolation, over any world holding `groups` of
/// [`OarServer`]s — shared by [`ShardedCluster`] and
/// [`crate::txn::TxnCluster`], whose worlds differ only in their client
/// processes.
pub(crate) fn check_groups_consistency<S: StateMachine>(
    world: &World<OarWire<S::Command, S::Response>>,
    groups: &[Vec<ProcessId>],
) -> Result<(), String> {
    let mut owner_of: IdMap<RequestId, GroupId> = IdMap::default();
    for (g, servers) in groups.iter().enumerate() {
        let alive: Vec<ProcessId> = servers
            .iter()
            .copied()
            .filter(|&s| !world.is_crashed(s))
            .collect();
        let sequences: Vec<(ProcessId, Seq<RequestId>)> = alive
            .iter()
            .map(|&s| (s, world.process_ref::<OarServer<S>>(s).committed_sequence()))
            .collect();
        for (p, seq) in &sequences {
            let mut seen = IdSet::default();
            for id in seq.iter() {
                if !seen.insert(*id) {
                    return Err(format!("group {g}: server {p} delivered {id} twice"));
                }
                match owner_of.insert(*id, GroupId::new(g)) {
                    Some(other) if other != GroupId::new(g) => {
                        return Err(format!(
                            "cross-group leak: {id} delivered by groups {other} and g{g}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        for (i, (p, sp)) in sequences.iter().enumerate() {
            for (q, sq) in sequences.iter().skip(i + 1) {
                if !(sp.is_prefix_of(sq) || sq.is_prefix_of(sp)) {
                    return Err(format!(
                        "group {g}: total order violated between {p} and {q}: {sp} vs {sq}"
                    ));
                }
            }
        }
        // Digest equality for equal-length sequences.
        let mut by_len: IdMap<usize, (ProcessId, u64)> = IdMap::default();
        for &s in &alive {
            let server = world.process_ref::<OarServer<S>>(s);
            let len = server.committed_sequence().len();
            let digest = server.state_machine().digest();
            if let Some((other, other_digest)) = by_len.get(&len) {
                if *other_digest != digest {
                    return Err(format!(
                        "group {g}: servers {other} and {s} delivered {len} requests but diverge"
                    ));
                }
            } else {
                by_len.insert(len, (s, digest));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::StateMachine;

    /// A minimal keyed service for the sharded tests: per-key counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct KeyedCounters {
        counts: BTreeMap<String, i64>,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct AddTo {
        key: String,
        delta: i64,
    }

    impl ShardKey for AddTo {
        fn shard_key(&self) -> &str {
            &self.key
        }
    }

    impl StateMachine for KeyedCounters {
        type Command = AddTo;
        type Response = i64;
        type Undo = (String, i64);

        fn apply(&mut self, command: &AddTo) -> (i64, (String, i64)) {
            let entry = self.counts.entry(command.key.clone()).or_insert(0);
            let before = *entry;
            *entry += command.delta;
            (*entry, (command.key.clone(), before))
        }

        fn undo(&mut self, (key, before): (String, i64)) {
            self.counts.insert(key, before);
        }

        fn digest(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (k, v) in &self.counts {
                for b in k.bytes().chain(v.to_le_bytes()) {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            h
        }
    }

    fn workload(client: usize, n: usize) -> Vec<AddTo> {
        (0..n)
            .map(|i| AddTo {
                key: format!("k{}", (client * 7 + i) % 16),
                delta: (i % 5) as i64 + 1,
            })
            .collect()
    }

    fn config(num_groups: usize) -> ShardedConfig {
        ShardedConfig {
            num_groups,
            router: ShardRouter::hash(num_groups),
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn sharded_run_completes_with_per_group_guarantees() {
        let config = config(3);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 12));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        assert_eq!(cluster.completed_requests().len(), 24);
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert_eq!(cluster.total_misroutes(), 0);
        // The workload's 16 keys spread over all 3 groups under the hash
        // router, and every group moved traffic of its own.
        let with_requests = (0..3)
            .filter(|&g| cluster.sum_group_stats(g, |st| st.opt_delivered) > 0)
            .count();
        assert!(with_requests >= 2, "keys should spread over groups");
        for g in 0..3 {
            if cluster.sum_group_stats(g, |st| st.opt_delivered) > 0 {
                assert!(cluster.group_net_stats(g).sent > 0);
            }
        }
    }

    #[test]
    fn completions_name_the_owning_group() {
        let config = config(2);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 8));
        assert!(cluster.run_to_completion(SimTime::from_secs(30)));
        for done in cluster.completed_requests() {
            // The adopting group is the one the router owns the key to; the
            // settled position must exist at that group's servers.
            assert!(done.group.index() < 2);
            let settled_somewhere = cluster.groups[done.group.index()].iter().any(|&s| {
                cluster
                    .world
                    .process_ref::<OarServer<KeyedCounters>>(s)
                    .committed_sequence()
                    .contains(&done.request.id)
            });
            assert!(
                settled_somewhere,
                "{} not settled in its group",
                done.request.id
            );
        }
    }

    #[test]
    fn one_group_sequencer_crash_leaves_other_groups_undisturbed() {
        let config = config(3);
        let mut cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |c| workload(c, 10));
        // Crash group 0's initial sequencer (its first server) early.
        let victim = cluster.groups[0][0];
        cluster
            .world
            .schedule_crash(victim, SimTime::from_millis(3));
        assert!(
            cluster.run_to_completion(SimTime::from_secs(60)),
            "all groups (including the one that failed over) must finish"
        );
        cluster.check_per_group_consistency().unwrap();
        cluster.check_external_consistency().unwrap();
        assert_eq!(cluster.total_misroutes(), 0);
        // Group 0 failed over (phase 2 ran); the *other* groups never left
        // the optimistic phase — their failure detectors are independent.
        assert!(cluster.sum_group_stats(0, |st| st.phase2_entered) > 0);
        for g in 1..3 {
            assert_eq!(
                cluster.sum_group_stats(g, |st| st.phase2_entered),
                0,
                "group {g} must not react to another group's crash"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the group count")]
    fn build_rejects_router_group_mismatch() {
        let config = ShardedConfig {
            num_groups: 3,
            router: ShardRouter::hash(2),
            ..ShardedConfig::default()
        };
        let _cluster: ShardedCluster<KeyedCounters> =
            ShardedCluster::build(&config, KeyedCounters::default, |_| Vec::new());
    }

    /// Runs `f` against the client with a throwaway runtime context and
    /// returns the actions it produced.
    fn drive(
        client: &mut ShardedClient<KeyedCounters>,
        f: impl FnOnce(&mut ShardedClient<KeyedCounters>, &mut dyn Runtime<OarWire<AddTo, i64>>),
    ) -> Vec<oar_simnet::Action<OarWire<AddTo, i64>>> {
        let mut rng = oar_simnet::SimRng::new(1);
        let mut actions = Vec::new();
        let mut next_timer = 0u64;
        {
            let mut ctx = oar_simnet::Context::new(
                SimTime::from_millis(1),
                client.id(),
                &mut rng,
                &mut actions,
                &mut next_timer,
            );
            f(client, &mut ctx);
        }
        actions
    }

    /// The `(destination, request)` pairs among `actions`.
    fn requests_sent(
        actions: &[oar_simnet::Action<OarWire<AddTo, i64>>],
    ) -> Vec<(ProcessId, &Request<AddTo>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                oar_simnet::Action::Send { to, msg } => {
                    let wire = match msg {
                        oar_simnet::Payload::Owned(m) => m,
                        oar_simnet::Payload::Shared(s) => s.as_ref(),
                    };
                    match wire {
                        OarWire::Request(cast) => Some((*to, &*cast.payload)),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// The REVIEW regression: a `Redirect` re-sends exactly the requests it
    /// names as dropped — an outstanding request the donor group already
    /// ordered (whose effect travels in the hand-off) must NOT be re-sent
    /// to the recipient, whose seen-set would execute it a second time.
    #[test]
    fn redirect_re_sends_only_the_dropped_requests() {
        let groups: Vec<Vec<ProcessId>> = vec![
            (0..3).map(ProcessId::new).collect(),
            (3..6).map(ProcessId::new).collect(),
        ];
        // Keys below "m" start at group 0.
        let router = ShardRouter::range(vec!["m".into()]);
        let workload = vec![
            AddTo {
                key: "b".into(),
                delta: 1,
            },
            AddTo {
                key: "c".into(),
                delta: 1,
            },
        ];
        let mut client: ShardedClient<KeyedCounters> = ShardedClient::new(
            ProcessId::new(9),
            groups,
            router,
            workload,
            ClientConfig::builder().pipeline(2).build(),
        );
        let actions = drive(&mut client, |c, ctx| c.on_start(ctx));
        let initial = requests_sent(&actions);
        assert_eq!(initial.len(), 6, "two requests to three group-0 members");
        assert!(initial.iter().all(|(to, _)| to.index() < 3));
        let dropped_id = RequestId::new(ProcessId::new(9), 0); // key "b"
        let ordered_id = RequestId::new(ProcessId::new(9), 1); // key "c"

        // [b, c) migrated to group 1; the donor door-dropped only the "b"
        // request (the "c" one it had already ordered).
        let record = MigrationRecord {
            range: KeyRange::new("b", "c"),
            from_group: GroupId::new(0),
            to_group: GroupId::new(1),
            route_epoch: 1,
        };
        let actions = drive(&mut client, |c, ctx| {
            c.on_message(
                ctx,
                ProcessId::new(0),
                OarWire::Redirect {
                    records: vec![record.clone()],
                    dropped: vec![dropped_id],
                },
            );
        });
        let resent = requests_sent(&actions);
        assert_eq!(resent.len(), 3, "one request to three group-1 members");
        for (to, request) in &resent {
            assert!((3..6).contains(&to.index()), "re-sent to the recipient");
            assert_eq!(request.id, dropped_id, "only the dropped id re-sent");
            assert_eq!(request.route_epoch, 1, "re-sent under the fresh stamp");
        }
        assert!(
            resent.iter().all(|(_, r)| r.id != ordered_id),
            "the donor-ordered request must not be re-sent"
        );

        // A duplicate redirect (another donor member door-dropped the same
        // request) is absorbed by the route-epoch de-duplication.
        let actions = drive(&mut client, |c, ctx| {
            c.on_message(
                ctx,
                ProcessId::new(1),
                OarWire::Redirect {
                    records: vec![record],
                    dropped: vec![dropped_id],
                },
            );
        });
        assert!(requests_sent(&actions).is_empty(), "duplicate absorbed");
    }
}
