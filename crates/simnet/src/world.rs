//! The simulation engine: a deterministic discrete-event executor for a set of
//! [`Process`]es connected by a simulated [`Network`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::config::NetConfig;
use crate::context::{Action, Context, Payload};
use crate::network::{Network, Routing};
use crate::process::{GroupId, Process, ProcessId, Timer, TimerId};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::runtime::TimerTag;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, NetStats, TraceKind, Tracer};

/// A closure scheduled to run against a specific process at a specific time,
/// used by tests and experiment drivers to inject external stimuli.
pub type ProcessCall<M> = Box<dyn FnOnce(&mut dyn Process<M>, &mut Context<'_, M>)>;

/// A deferred constructor for the fresh process image installed by a
/// scheduled restart ([`World::schedule_restart`]).
pub type ProcessFactory<M> = Box<dyn FnOnce() -> Box<dyn Process<M>>>;

enum EventKind<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        /// Owned for unicast; shared for multicast, in which case the
        /// recipients all point at the same allocation and a private copy is
        /// made only when the message is actually handed to `on_message`
        /// (none for the last recipient).
        msg: Payload<M>,
        /// Destination incarnation at send time: a message in flight across a
        /// crash/restart boundary is addressed to the *old* incarnation and
        /// is dropped at delivery time (a restarted process starts with fresh
        /// state and an empty inbox).
        incarnation: u64,
    },
    Timer {
        at: ProcessId,
        id: TimerId,
        tag: TimerTag,
        /// Owner incarnation when the timer was armed: timers armed before a
        /// crash never fire into the restarted process.
        incarnation: u64,
    },
    Crash {
        at: ProcessId,
    },
    Restart {
        at: ProcessId,
        make: ProcessFactory<M>,
    },
    InstallPartition {
        groups: Vec<Vec<ProcessId>>,
    },
    HealPartition,
    Call {
        at: ProcessId,
        f: ProcessCall<M>,
    },
}

/// Why a [`World::run_until_quiescent`] loop stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely: nothing will ever happen again.
    Quiescent,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event limit ([`World::set_event_limit`]) was hit with events still
    /// pending.
    EventLimitReached,
}

/// Result of [`World::run_until_quiescent`]: the simulated time reached plus
/// whether the run actually quiesced or was cut off by a budget. A model
/// checker needs the distinction to tell a genuine deadlock (quiescent but
/// goal not reached) from an exploration cutoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated time when the loop stopped.
    pub time: SimTime,
    /// Why the loop stopped.
    pub reason: StopReason,
}

impl RunOutcome {
    /// `true` when the run drained every pending event.
    pub fn is_quiescent(self) -> bool {
        self.reason == StopReason::Quiescent
    }
}

/// What a pending event will do when dispatched — the model-checking view of
/// one queue entry, with the message payload elided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingEventInfo {
    /// A message delivery.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// A timer firing.
    Timer {
        /// The process whose timer fires.
        at: ProcessId,
        /// The tag the timer was armed with.
        tag: TimerTag,
    },
    /// A scheduled crash ([`World::schedule_crash`]).
    Crash {
        /// The process that will crash.
        at: ProcessId,
    },
    /// A scheduled restart ([`World::schedule_restart`]).
    Restart {
        /// The process that will be revived.
        at: ProcessId,
    },
    /// A scheduled partition install.
    Partition,
    /// A scheduled partition heal.
    Heal,
    /// A scheduled external call ([`World::schedule_call`]).
    Call {
        /// The process the call targets.
        at: ProcessId,
    },
}

/// One pending event of the queue, as exposed to a model checker by
/// [`World::pending_events`] / [`World::enabled_events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingEvent {
    /// Stable per-world sequence number — the replayable identity of the
    /// event (events dispatch in `(time, seq)` order: ties on `time` break by
    /// `seq`, so naming events by `seq` makes traces replayable).
    pub seq: u64,
    /// Scheduled dispatch time (a lower bound under key-directed dispatch).
    pub time: SimTime,
    /// What the event will do.
    pub info: PendingEventInfo,
    /// `true` when dispatching the event cannot affect any process or network
    /// state in the *current* world (delivery to a crashed or restarted
    /// destination, cancelled or stale timer, crash of an already-crashed
    /// process, …): a checker drains these without branching.
    pub noop: bool,
}

/// Why [`World::fork`] could not copy the world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForkError {
    /// A process did not implement [`Process::fork`].
    UnforkableProcess(ProcessId),
    /// A pending scheduled restart or call holds a one-shot closure that
    /// cannot be cloned; inject faults through immediate operations
    /// ([`World::crash_now`], [`World::restart_now`]) instead.
    UnforkableEvent(u64),
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkError::UnforkableProcess(p) => {
                write!(f, "process {p} does not implement Process::fork")
            }
            ForkError::UnforkableEvent(seq) => write!(
                f,
                "pending event seq {seq} holds a non-clonable closure (scheduled restart/call)"
            ),
        }
    }
}

impl std::error::Error for ForkError {}

struct Slot<M> {
    process: Box<dyn Process<M>>,
    crashed: bool,
    started: bool,
    /// Bumped on every restart; events addressed to an older incarnation are
    /// dropped at dispatch time.
    incarnation: u64,
}

struct HeldMessage<M> {
    from: ProcessId,
    to: ProcessId,
    msg: Payload<M>,
    incarnation: u64,
}

/// A deterministic discrete-event simulation of a set of processes exchanging
/// messages over a configurable network.
///
/// The same `(configuration, seed, process set)` always produces the same run.
///
/// # Examples
///
/// ```
/// use oar_simnet::{NetConfig, Process, ProcessId, Runtime, SimTime, World};
///
/// struct Echo;
/// impl Process<u32> for Echo {
///     fn on_message(&mut self, ctx: &mut dyn Runtime<u32>, from: ProcessId, msg: u32) {
///         if msg < 3 {
///             ctx.send(from, msg + 1);
///         }
///     }
/// }
///
/// let mut world: World<u32> = World::new(NetConfig::lan(), 42);
/// let a = world.add_process(Echo);
/// let b = world.add_process(Echo);
/// world.send_external(a, b, 0);
/// world.run_until_quiescent(SimTime::from_secs(1));
/// assert!(world.stats().delivered >= 4);
/// ```
pub struct World<M> {
    slots: Vec<Slot<M>>,
    net: Network,
    /// Pending events, dispatched in `(time, seq)` order — the stable
    /// tie-breaking key that makes runs replayable: same-time events run in
    /// the order they were scheduled, and a trace that names events by `seq`
    /// (as the `oar-mc` model checker does) identifies each one
    /// unambiguously.
    queue: EventQueue<EventKind<M>>,
    held: Vec<HeldMessage<M>>,
    now: SimTime,
    rng: SimRng,
    tracer: Tracer,
    next_timer_id: u64,
    cancelled_timers: HashSet<TimerId>,
    events_processed: u64,
    event_limit: Option<u64>,
    /// The action buffer handed to every callback, drained after each one
    /// and kept for the next, so a callback allocates no buffer of its own.
    actions: Vec<Action<M>>,
}

impl<M: Clone + 'static> World<M> {
    /// Creates a world with the given network configuration and RNG seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        World {
            slots: Vec::new(),
            net: Network::new(config),
            queue: EventQueue::default(),
            held: Vec::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            tracer: Tracer::new(false),
            next_timer_id: 0,
            cancelled_timers: HashSet::new(),
            events_processed: 0,
            event_limit: None,
            actions: Vec::new(),
        }
    }

    /// Enables or disables recording of per-message network trace events
    /// (annotations and crash/partition events are always recorded). Resets
    /// the recorded events and statistics; group assignments are kept.
    pub fn record_network_events(&mut self, enabled: bool) {
        let mut tracer = Tracer::new(enabled);
        for id in self.process_ids() {
            if let Some(g) = self.tracer.group_of(id) {
                tracer.assign_group(id, g);
            }
        }
        self.tracer = tracer;
    }

    /// Declares `process` a member of replication group `group`. Sharded
    /// deployments call this for every server and client so the tracer
    /// splits [`NetStats`] per group ([`World::group_stats`]); single-group
    /// deployments can ignore groups entirely.
    pub fn assign_group(&mut self, process: ProcessId, group: GroupId) {
        self.tracer.assign_group(process, group);
    }

    /// The group `process` was assigned to, if any.
    pub fn group_of(&self, process: ProcessId) -> Option<GroupId> {
        self.tracer.group_of(process)
    }

    /// Network statistics attributed to one group (sender's group for
    /// message events, owner's group for timers).
    pub fn group_stats(&self, group: GroupId) -> NetStats {
        self.tracer.group_stats(group)
    }

    /// Limits the total number of events processed; exceeding the limit makes
    /// `run*` return early. Useful as a livelock guard in property tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = Some(limit);
    }

    /// Adds a process and returns its identifier. Identifiers are dense and
    /// assigned in insertion order.
    pub fn add_process<P: Process<M> + 'static>(&mut self, process: P) -> ProcessId {
        let id = ProcessId(self.slots.len());
        self.slots.push(Slot {
            process: Box::new(process),
            crashed: false,
            started: false,
            incarnation: 0,
        });
        id
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of processes in the world (crashed or not).
    pub fn num_processes(&self) -> usize {
        self.slots.len()
    }

    /// Identifiers of all processes, in insertion order.
    pub fn process_ids(&self) -> Vec<ProcessId> {
        (0..self.slots.len()).map(ProcessId).collect()
    }

    /// Returns `true` if the given process has crashed.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.slots[id.0].crashed
    }

    /// Aggregate network statistics for the run so far.
    pub fn stats(&self) -> NetStats {
        self.tracer.stats()
    }

    /// The trace recorded so far.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the network (link overrides etc.).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Downcasts process `id` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the process is not of type `P`.
    pub fn process_ref<P: 'static>(&self, id: ProcessId) -> &P {
        let process: &dyn Process<M> = self.slots[id.0].process.as_ref();
        crate::process::AsAny::as_any(process)
            .downcast_ref::<P>()
            .expect("process has a different concrete type")
    }

    /// Mutable variant of [`World::process_ref`].
    ///
    /// # Panics
    ///
    /// Panics if the process is not of type `P`.
    pub fn process_mut<P: 'static>(&mut self, id: ProcessId) -> &mut P {
        let process: &mut dyn Process<M> = self.slots[id.0].process.as_mut();
        crate::process::AsAny::as_any_mut(process)
            .downcast_mut::<P>()
            .expect("process has a different concrete type")
    }

    /// Injects a message "from the outside": it is routed through the network
    /// like a message sent by `from`. Useful for tests that drive a protocol
    /// without modelling the sender as a process.
    pub fn send_external(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.route_send(from, to, Payload::Owned(msg));
    }

    /// Schedules `process` to crash at time `at` (crash-stop: it never
    /// recovers and receives no further events).
    pub fn schedule_crash(&mut self, process: ProcessId, at: SimTime) {
        self.push_event(at, EventKind::Crash { at: process });
    }

    /// Crashes `process` immediately.
    pub fn crash_now(&mut self, process: ProcessId) {
        self.apply_crash(process);
    }

    /// Revives a crashed process immediately, installing `fresh` as its new
    /// in-memory state and invoking its `on_start` hook right away.
    ///
    /// Crash-recovery semantics: everything the old incarnation held in
    /// memory is gone, messages sent while it was down (or still in flight
    /// across the restart) stay lost, and timers armed before the crash never
    /// fire into the new incarnation. Restarting a process that is not
    /// crashed is a no-op.
    pub fn restart_now<P: Process<M> + 'static>(&mut self, process: ProcessId, fresh: P) {
        self.apply_restart(process, Box::new(fresh));
    }

    /// Schedules `process` to be revived at time `at` with the process image
    /// produced by `make` — the scriptable half of a crash/restart fault
    /// schedule (pair with [`World::schedule_crash`]).
    pub fn schedule_restart(
        &mut self,
        at: SimTime,
        process: ProcessId,
        make: impl FnOnce() -> Box<dyn Process<M>> + 'static,
    ) {
        self.push_event(
            at,
            EventKind::Restart {
                at: process,
                make: Box::new(make),
            },
        );
    }

    /// How many times `process` has been restarted.
    pub fn incarnation_of(&self, process: ProcessId) -> u64 {
        self.slots[process.0].incarnation
    }

    /// Schedules a partition to be installed at time `at`.
    pub fn schedule_partition(&mut self, at: SimTime, groups: Vec<Vec<ProcessId>>) {
        self.push_event(at, EventKind::InstallPartition { groups });
    }

    /// Installs a partition immediately.
    pub fn partition_now(&mut self, groups: Vec<Vec<ProcessId>>) {
        self.net.install_partition(&groups);
        self.tracer.record(self.now, TraceKind::PartitionStarted);
    }

    /// Schedules all partitions to heal at time `at`.
    pub fn schedule_heal(&mut self, at: SimTime) {
        self.push_event(at, EventKind::HealPartition);
    }

    /// Heals all partitions immediately, releasing held messages.
    pub fn heal_now(&mut self) {
        self.apply_heal();
    }

    /// Schedules `f` to run against process `process` at time `at`, with a
    /// full [`Context`] (so it can send messages, set timers, …).
    pub fn schedule_call(
        &mut self,
        at: SimTime,
        process: ProcessId,
        f: impl FnOnce(&mut dyn Process<M>, &mut Context<'_, M>) + 'static,
    ) {
        self.push_event(
            at,
            EventKind::Call {
                at: process,
                f: Box::new(f),
            },
        );
    }

    /// Runs `f` against process `process` immediately (at the current time).
    pub fn invoke_now(
        &mut self,
        process: ProcessId,
        f: impl FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    ) {
        if self.slots[process.0].crashed {
            return;
        }
        self.run_callback(process, f);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        if let Some(limit) = self.event_limit {
            if self.events_processed >= limit {
                return false;
            }
        }
        let Some((time, _, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time must be monotonic");
        self.now = time;
        self.events_processed += 1;
        self.dispatch(kind);
        true
    }

    /// Runs until the queue is empty or the next event is after `until`.
    /// Returns the simulated time reached.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            if let Some(limit) = self.event_limit {
                if self.events_processed >= limit {
                    break;
                }
            }
            match self.queue.peek_time() {
                Some(time) if time <= until => {
                    let (time, _, kind) = self.queue.pop().expect("peeked event");
                    self.now = time;
                    self.events_processed += 1;
                    self.dispatch(kind);
                }
                _ => break,
            }
        }
        if self.now < until {
            self.now = until;
        }
        self.now
    }

    /// Runs until no events remain or the horizon `max` is reached.
    ///
    /// The returned [`RunOutcome`] distinguishes a *genuinely quiescent*
    /// system (the queue drained — nothing will ever happen again) from a
    /// run cut off by a budget (the time horizon, or the event limit set via
    /// [`World::set_event_limit`]). Callers that only want the time reached
    /// can keep ignoring the return value; callers probing for deadlocks —
    /// like the `oar-mc` model checker — must check
    /// [`RunOutcome::is_quiescent`] instead of assuming the run finished.
    pub fn run_until_quiescent(&mut self, max: SimTime) -> RunOutcome {
        self.ensure_started();
        while self.step() {
            if self.now >= max {
                break;
            }
        }
        let reason = if self.queue.is_empty() {
            StopReason::Quiescent
        } else if self
            .event_limit
            .is_some_and(|limit| self.events_processed >= limit)
        {
            StopReason::EventLimitReached
        } else {
            StopReason::HorizonReached
        };
        RunOutcome {
            time: self.now,
            reason,
        }
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns `true` if no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    // ------------------------------------------------------------------
    // model-checking hooks (used by the `oar-mc` crate)
    // ------------------------------------------------------------------

    /// Runs every not-yet-started process's `on_start` hook without
    /// dispatching any event. A model checker calls this once on the root
    /// world so the initial pending-event set is complete before the first
    /// scheduling choice.
    pub fn start(&mut self) {
        self.ensure_started();
    }

    /// All pending events, sorted by the dispatch order key `(time, seq)`,
    /// with their no-op status evaluated against the current world state.
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        self.queue
            .sorted()
            .into_iter()
            .map(|(time, seq, kind)| PendingEvent {
                seq,
                time,
                info: Self::event_info(kind),
                noop: self.event_noop(kind),
            })
            .collect()
    }

    /// The scheduling choices a model checker may take next: pending events
    /// at or before `horizon`, minus no-ops, restricted to those whose
    /// dispatch order is *not* already forced by the system model:
    ///
    /// * on FIFO links, only the earliest `(time, seq)` delivery per ordered
    ///   link `(from, to)` is enabled — later messages on the same channel
    ///   can never overtake it in any real run;
    /// * per process, only the earliest pending timer is enabled — timer
    ///   deadlines are local clock reads, totally ordered at one process.
    ///
    /// Everything else (deliveries on different links, timers at different
    /// processes, faults) is concurrent: dispatching them in either order is
    /// realisable by some latency assignment, so each is a separate branch.
    pub fn enabled_events(&self, horizon: SimTime) -> Vec<PendingEvent> {
        let fifo = self.net.config().fifo_links;
        let mut first_on_link: HashSet<(ProcessId, ProcessId)> = HashSet::new();
        let mut first_timer_at: HashSet<ProcessId> = HashSet::new();
        let mut enabled = Vec::new();
        for e in self.pending_events() {
            if e.time > horizon || e.noop {
                continue;
            }
            match e.info {
                PendingEventInfo::Deliver { from, to } if fifo => {
                    if first_on_link.insert((from, to)) {
                        enabled.push(e);
                    }
                }
                PendingEventInfo::Timer { at, .. } => {
                    if first_timer_at.insert(at) {
                        enabled.push(e);
                    }
                }
                _ => enabled.push(e),
            }
        }
        enabled
    }

    /// Dispatches the pending event with sequence number `seq`, regardless of
    /// its position in the time order — the key-directed dispatch a model
    /// checker uses to explore interleavings. Returns `false` (and does
    /// nothing) when no pending event has that `seq`.
    ///
    /// Time handling is *abstract*: the clock only moves forward
    /// (`now = max(now, event.time)`), so dispatching an event out of time
    /// order treats the times of the remaining events as lower bounds. This
    /// is sound for configurations whose behaviour does not read the clock
    /// value itself (constant-latency, no-loss networks and timer-free
    /// protocol settings — see the `oar-mc` crate docs).
    pub fn dispatch_key(&mut self, seq: u64) -> bool {
        self.ensure_started();
        let Some((time, kind)) = self.queue.remove(seq) else {
            return false;
        };
        self.now = self.now.max(time);
        self.events_processed += 1;
        self.dispatch(kind);
        true
    }

    /// A content digest of one pending event (kind, participants, payload
    /// digest — no times, no seq), or `None` when no pending event has that
    /// `seq`. Model checkers mix these into sleep-set hashes so that sets
    /// keyed by `seq` compare equal across forks.
    pub fn event_signature(&self, seq: u64, msg_digest: &dyn Fn(&M) -> u64) -> Option<u64> {
        let kind = self.queue.get(seq)?;
        let mut h = DefaultHasher::new();
        Self::hash_event_content(kind, msg_digest, &mut h);
        Some(h.finish())
    }

    /// A digest of the whole world state for model-checker deduplication:
    /// per-process state digests, crash/incarnation flags, the partition
    /// flag, held messages, and the *content* of pending in-horizon non-noop
    /// events (per-link deliveries in FIFO order, per-process timers in
    /// deadline order) — with event **times excluded**, matching the abstract
    /// clock of [`World::dispatch_key`].
    ///
    /// Returns `None` when any live process lacks a
    /// [`Process::state_digest`], which disables deduplication.
    ///
    /// Only sound for configurations where the RNG cannot influence
    /// behaviour (constant latency, zero loss/duplication): the RNG state is
    /// deliberately not hashed.
    pub fn fingerprint(&self, horizon: SimTime, msg_digest: &dyn Fn(&M) -> u64) -> Option<u64> {
        let mut h = DefaultHasher::new();
        self.net.is_partitioned().hash(&mut h);
        for held in &self.held {
            (held.from, held.to, held.incarnation).hash(&mut h);
            Self::hash_payload(&held.msg, msg_digest, &mut h);
        }
        for (idx, slot) in self.slots.iter().enumerate() {
            (idx, slot.crashed, slot.incarnation).hash(&mut h);
            if !slot.crashed {
                slot.process.state_digest()?.hash(&mut h);
            }
        }
        // Pending events: group per "channel" so the hash captures the
        // *order-relevant* content. BTreeMaps give a canonical iteration
        // order; within one channel events are pushed in (time, seq) order.
        let mut delivers: BTreeMap<(ProcessId, ProcessId), Vec<u64>> = BTreeMap::new();
        let mut timers: BTreeMap<ProcessId, Vec<TimerTag>> = BTreeMap::new();
        let mut other: Vec<(u8, Option<ProcessId>)> = Vec::new();
        for (time, _, kind) in self.queue.sorted() {
            if time > horizon || self.event_noop(kind) {
                continue;
            }
            match kind {
                EventKind::Deliver { from, to, msg, .. } => {
                    let mut eh = DefaultHasher::new();
                    Self::hash_payload(msg, msg_digest, &mut eh);
                    delivers.entry((*from, *to)).or_default().push(eh.finish());
                }
                EventKind::Timer { at, tag, .. } => {
                    timers.entry(*at).or_default().push(*tag);
                }
                EventKind::Crash { at } => other.push((2, Some(*at))),
                EventKind::Restart { at, .. } => other.push((3, Some(*at))),
                EventKind::InstallPartition { .. } => other.push((4, None)),
                EventKind::HealPartition => other.push((5, None)),
                EventKind::Call { at, .. } => other.push((6, Some(*at))),
            }
        }
        delivers.hash(&mut h);
        timers.hash(&mut h);
        other.hash(&mut h);
        Some(h.finish())
    }

    /// Deep-copies the world so a model checker can branch: every process is
    /// copied through [`Process::fork`], the pending queue keeps its `(time,
    /// seq)` keys (so traces recorded in one branch replay in another), and
    /// network, tracer, RNG and clock state come along unchanged.
    pub fn fork(&self) -> Result<World<M>, ForkError> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let process = slot
                .process
                .fork()
                .ok_or(ForkError::UnforkableProcess(ProcessId(idx)))?;
            slots.push(Slot {
                process,
                crashed: slot.crashed,
                started: slot.started,
                incarnation: slot.incarnation,
            });
        }
        let queue = self.queue.try_copy(|seq, kind| {
            Ok(match kind {
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    incarnation,
                } => EventKind::Deliver {
                    from: *from,
                    to: *to,
                    msg: Self::clone_payload(msg),
                    incarnation: *incarnation,
                },
                EventKind::Timer {
                    at,
                    id,
                    tag,
                    incarnation,
                } => EventKind::Timer {
                    at: *at,
                    id: *id,
                    tag: *tag,
                    incarnation: *incarnation,
                },
                EventKind::Crash { at } => EventKind::Crash { at: *at },
                EventKind::InstallPartition { groups } => EventKind::InstallPartition {
                    groups: groups.clone(),
                },
                EventKind::HealPartition => EventKind::HealPartition,
                EventKind::Restart { .. } | EventKind::Call { .. } => {
                    return Err(ForkError::UnforkableEvent(seq));
                }
            })
        })?;
        let held = self
            .held
            .iter()
            .map(|held| HeldMessage {
                from: held.from,
                to: held.to,
                msg: Self::clone_payload(&held.msg),
                incarnation: held.incarnation,
            })
            .collect();
        Ok(World {
            slots,
            net: self.net.clone(),
            queue,
            held,
            now: self.now,
            rng: self.rng.clone(),
            tracer: self.tracer.clone(),
            next_timer_id: self.next_timer_id,
            cancelled_timers: self.cancelled_timers.clone(),
            events_processed: self.events_processed,
            event_limit: self.event_limit,
            actions: Vec::new(),
        })
    }

    fn clone_payload(msg: &Payload<M>) -> Payload<M> {
        match msg {
            Payload::Owned(m) => Payload::Owned(m.clone()),
            Payload::Shared(m) => Payload::Shared(Arc::clone(m)),
        }
    }

    fn hash_payload(msg: &Payload<M>, msg_digest: &dyn Fn(&M) -> u64, h: &mut DefaultHasher) {
        match msg {
            Payload::Owned(m) => msg_digest(m).hash(h),
            Payload::Shared(m) => msg_digest(m).hash(h),
        }
    }

    fn hash_event_content(
        kind: &EventKind<M>,
        msg_digest: &dyn Fn(&M) -> u64,
        h: &mut DefaultHasher,
    ) {
        match kind {
            EventKind::Deliver { from, to, msg, .. } => {
                (0u8, *from, *to).hash(h);
                Self::hash_payload(msg, msg_digest, h);
            }
            EventKind::Timer { at, tag, .. } => (1u8, *at, *tag).hash(h),
            EventKind::Crash { at } => (2u8, *at).hash(h),
            EventKind::Restart { at, .. } => (3u8, *at).hash(h),
            EventKind::InstallPartition { .. } => 4u8.hash(h),
            EventKind::HealPartition => 5u8.hash(h),
            EventKind::Call { at, .. } => (6u8, *at).hash(h),
        }
    }

    fn event_info(kind: &EventKind<M>) -> PendingEventInfo {
        match kind {
            EventKind::Deliver { from, to, .. } => PendingEventInfo::Deliver {
                from: *from,
                to: *to,
            },
            EventKind::Timer { at, tag, .. } => PendingEventInfo::Timer { at: *at, tag: *tag },
            EventKind::Crash { at } => PendingEventInfo::Crash { at: *at },
            EventKind::Restart { at, .. } => PendingEventInfo::Restart { at: *at },
            EventKind::InstallPartition { .. } => PendingEventInfo::Partition,
            EventKind::HealPartition => PendingEventInfo::Heal,
            EventKind::Call { at, .. } => PendingEventInfo::Call { at: *at },
        }
    }

    /// Whether dispatching `kind` in the current world state would change
    /// nothing (mirrors the guards at the top of [`World::dispatch`]).
    fn event_noop(&self, kind: &EventKind<M>) -> bool {
        match kind {
            EventKind::Deliver {
                to, incarnation, ..
            } => self.slots[to.0].crashed || self.slots[to.0].incarnation != *incarnation,
            EventKind::Timer {
                at,
                id,
                incarnation,
                ..
            } => {
                self.cancelled_timers.contains(id)
                    || self.slots[at.0].crashed
                    || self.slots[at.0].incarnation != *incarnation
            }
            EventKind::Crash { at } => self.slots[at.0].crashed,
            EventKind::Restart { at, .. } => !self.slots[at.0].crashed,
            EventKind::Call { at, .. } => self.slots[at.0].crashed,
            EventKind::InstallPartition { .. } | EventKind::HealPartition => false,
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn ensure_started(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].started || self.slots[idx].crashed {
                continue;
            }
            self.slots[idx].started = true;
            self.run_callback(ProcessId(idx), |process, ctx| process.on_start(ctx));
        }
    }

    /// Runs one callback of process `pid` and applies the actions it
    /// recorded, through the world's reused action buffer.
    fn run_callback(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        {
            let slot = &mut self.slots[pid.0];
            let mut ctx = Context::new(
                self.now,
                pid,
                &mut self.rng,
                &mut actions,
                &mut self.next_timer_id,
            );
            f(slot.process.as_mut(), &mut ctx);
        }
        self.apply_actions(pid, &mut actions);
        self.actions = actions;
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        self.queue.push(time.max(self.now), kind);
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                incarnation,
            } => {
                if self.slots[to.0].crashed {
                    self.tracer.record(
                        self.now,
                        TraceKind::MessageDropped {
                            from,
                            to,
                            reason: DropReason::DestinationCrashed,
                        },
                    );
                    return;
                }
                if self.slots[to.0].incarnation != incarnation {
                    // In flight across a crash/restart boundary: the message
                    // was addressed to the old incarnation and stays lost.
                    self.tracer.record(
                        self.now,
                        TraceKind::MessageDropped {
                            from,
                            to,
                            reason: DropReason::DestinationRestarted,
                        },
                    );
                    return;
                }
                self.tracer
                    .record(self.now, TraceKind::MessageDelivered { from, to });
                // Materialise the payload: free for owned messages and for
                // the last reference of a shared one, one clone otherwise.
                let msg = msg.materialize();
                self.run_callback(to, |process, ctx| process.on_message(ctx, from, msg));
            }
            EventKind::Timer {
                at,
                id,
                tag,
                incarnation,
            } => {
                if self.cancelled_timers.remove(&id)
                    || self.slots[at.0].crashed
                    || self.slots[at.0].incarnation != incarnation
                {
                    return;
                }
                self.tracer.record(self.now, TraceKind::TimerFired { at });
                self.run_callback(at, |process, ctx| process.on_timer(ctx, Timer { id, tag }));
            }
            EventKind::Crash { at } => self.apply_crash(at),
            EventKind::Restart { at, make } => self.apply_restart(at, make()),
            EventKind::InstallPartition { groups } => {
                self.net.install_partition(&groups);
                self.tracer.record(self.now, TraceKind::PartitionStarted);
            }
            EventKind::HealPartition => self.apply_heal(),
            EventKind::Call { at, f } => {
                if self.slots[at.0].crashed {
                    return;
                }
                self.run_callback(at, f);
            }
        }
    }

    fn apply_crash(&mut self, process: ProcessId) {
        let slot = &mut self.slots[process.0];
        if slot.crashed {
            return;
        }
        slot.crashed = true;
        slot.process.on_crash();
        self.tracer.record(self.now, TraceKind::Crashed { process });
    }

    fn apply_restart(&mut self, process: ProcessId, fresh: Box<dyn Process<M>>) {
        {
            let slot = &mut self.slots[process.0];
            if !slot.crashed {
                return;
            }
            slot.process = fresh;
            slot.crashed = false;
            slot.started = true;
            slot.incarnation += 1;
        }
        self.tracer
            .record(self.now, TraceKind::Restarted { process });
        // Boot the fresh incarnation immediately: the same `on_start` hook a
        // process gets when the world first runs.
        self.run_callback(process, |process, ctx| process.on_start(ctx));
    }

    fn apply_heal(&mut self) {
        self.net.heal_partition();
        self.tracer.record(self.now, TraceKind::PartitionHealed);
        let held = std::mem::take(&mut self.held);
        for h in held {
            if self.slots[h.to.0].incarnation != h.incarnation {
                // The destination restarted while the partition held the
                // message: it was addressed to the old incarnation.
                self.tracer.record(
                    self.now,
                    TraceKind::MessageDropped {
                        from: h.from,
                        to: h.to,
                        reason: DropReason::DestinationRestarted,
                    },
                );
                continue;
            }
            self.route_send(h.from, h.to, h.msg);
        }
    }

    fn apply_actions(&mut self, from: ProcessId, actions: &mut Vec<Action<M>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    if self.slots[from.0].crashed {
                        self.tracer.record(
                            self.now,
                            TraceKind::MessageDropped {
                                from,
                                to,
                                reason: DropReason::SenderCrashed,
                            },
                        );
                        continue;
                    }
                    self.route_send(from, to, msg);
                }
                Action::SetTimer { id, delay, tag } => {
                    let incarnation = self.slots[from.0].incarnation;
                    self.push_event(
                        self.now + delay,
                        EventKind::Timer {
                            at: from,
                            id,
                            tag,
                            incarnation,
                        },
                    );
                }
                Action::CancelTimer { id } => {
                    self.cancelled_timers.insert(id);
                }
                Action::Annotate(text) => {
                    self.tracer.record(
                        self.now,
                        TraceKind::Annotation {
                            process: from,
                            text,
                        },
                    );
                }
            }
        }
    }

    fn route_send(&mut self, from: ProcessId, to: ProcessId, msg: Payload<M>) {
        self.tracer
            .record(self.now, TraceKind::MessageSent { from, to });
        if to.0 >= self.slots.len() {
            self.tracer.record(
                self.now,
                TraceKind::MessageDropped {
                    from,
                    to,
                    reason: DropReason::DestinationCrashed,
                },
            );
            return;
        }
        let incarnation = self.slots[to.0].incarnation;
        match self.net.route(self.now, from, to, &mut self.rng) {
            Routing::Deliver(latency) => {
                self.push_event(
                    self.now + latency,
                    EventKind::Deliver {
                        from,
                        to,
                        msg,
                        incarnation,
                    },
                );
            }
            Routing::DeliverDuplicated(a, b) => {
                let shared = msg.into_shared();
                self.push_event(
                    self.now + a,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: Payload::Shared(Arc::clone(&shared)),
                        incarnation,
                    },
                );
                self.push_event(
                    self.now + b,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: Payload::Shared(shared),
                        incarnation,
                    },
                );
            }
            Routing::DropLoss => {
                self.tracer.record(
                    self.now,
                    TraceKind::MessageDropped {
                        from,
                        to,
                        reason: DropReason::RandomLoss,
                    },
                );
            }
            Routing::DropPartitioned => {
                self.tracer.record(
                    self.now,
                    TraceKind::MessageDropped {
                        from,
                        to,
                        reason: DropReason::Partitioned,
                    },
                );
            }
            Routing::HoldForHeal => {
                self.held.push(HeldMessage {
                    from,
                    to,
                    msg,
                    incarnation,
                });
            }
        }
    }
}

/// Convenience: the default duration for "run until quiescent" horizons in
/// tests (one simulated minute).
pub const DEFAULT_HORIZON: SimTime = SimTime::from_secs(60);

/// A helper that computes a reasonable quiescence horizon from a base value
/// and a message count, used by experiment drivers.
pub fn horizon_for(base: SimTime, per_message: SimDuration, messages: u64) -> SimTime {
    base + per_message.saturating_mul(messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionMode;
    use crate::runtime::Runtime;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    /// A process that replies to pings and counts pongs.
    #[derive(Clone)]
    struct PingPong {
        peers: Vec<ProcessId>,
        pings_to_send: u32,
        pongs_received: u32,
        deliveries: Vec<(ProcessId, Msg)>,
    }

    impl PingPong {
        fn new(peers: Vec<ProcessId>, pings_to_send: u32) -> Self {
            PingPong {
                peers,
                pings_to_send,
                pongs_received: 0,
                deliveries: Vec::new(),
            }
        }
    }

    impl Process<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
            for i in 0..self.pings_to_send {
                for &peer in &self.peers {
                    ctx.send(peer, Msg::Ping(i));
                }
            }
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ProcessId, msg: Msg) {
            self.deliveries.push((from, msg.clone()));
            match msg {
                Msg::Ping(i) => {
                    ctx.annotate(format!("ping {i}"));
                    ctx.send(from, Msg::Pong(i));
                }
                Msg::Pong(_) => self.pongs_received += 1,
            }
        }

        fn fork(&self) -> Option<Box<dyn Process<Msg>>> {
            Some(Box::new(self.clone()))
        }

        fn state_digest(&self) -> Option<u64> {
            let mut h = DefaultHasher::new();
            self.pongs_received.hash(&mut h);
            for (from, msg) in &self.deliveries {
                (from, format!("{msg:?}")).hash(&mut h);
            }
            Some(h.finish())
        }
    }

    fn msg_digest(m: &Msg) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{m:?}").hash(&mut h);
        h.finish()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 1);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 3));
        let _b = world.add_process(PingPong::new(vec![], 0));
        let outcome = world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(outcome.reason, StopReason::Quiescent);
        assert!(outcome.is_quiescent());
        assert_eq!(outcome.time, world.now());
        assert_eq!(world.process_ref::<PingPong>(a).pongs_received, 3);
        assert_eq!(world.stats().delivered, 6);
        assert!(world.is_quiescent());
    }

    #[test]
    fn group_stats_split_traffic_by_sender_group() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 2);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 3));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.assign_group(a, GroupId(0));
        world.assign_group(b, GroupId(1));
        assert_eq!(world.group_of(a), Some(GroupId(0)));
        world.run_until_quiescent(SimTime::from_secs(1));
        // a sends 3 pings, b answers with 3 pongs; groups survive the
        // tracer reset of record_network_events.
        assert_eq!(world.group_stats(GroupId(0)).sent, 3);
        assert_eq!(world.group_stats(GroupId(1)).sent, 3);
        world.record_network_events(true);
        assert_eq!(world.group_of(b), Some(GroupId(1)));
        assert_eq!(world.group_stats(GroupId(1)).sent, 0);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = |seed: u64| {
            let mut world: World<Msg> = World::new(NetConfig::lan(), seed);
            world.record_network_events(true);
            let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 5));
            let _b = world.add_process(PingPong::new(vec![ProcessId(0)], 5));
            world.run_until_quiescent(SimTime::from_secs(1));
            (world.now(), world.stats(), world.tracer().events().to_vec())
        };
        let (t1, s1, e1) = run(7);
        let (t2, s2, e2) = run(7);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert_eq!(e1, e2);
        let (_, s3, _) = run(8);
        // different seed: statistics identical in count but trace timing differs
        assert_eq!(s1.delivered, s3.delivered);
    }

    #[test]
    fn fifo_delivery_order_is_send_order() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 3);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 20));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.run_until_quiescent(SimTime::from_secs(1));
        let b_ref = world.process_ref::<PingPong>(b);
        let pings: Vec<u32> = b_ref
            .deliveries
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Ping(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(pings, (0..20).collect::<Vec<_>>());
        let _ = a;
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 4);
        let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 10));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.crash_now(b);
        world.run_until_quiescent(SimTime::from_secs(1));
        assert!(world.is_crashed(b));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        assert_eq!(world.stats().delivered, 0);
        assert!(world.stats().dropped >= 10);
    }

    #[test]
    fn scheduled_crash_takes_effect_mid_run() {
        let mut world: World<Msg> = World::new(NetConfig::constant(SimDuration::from_millis(1)), 5);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        // b crashes before the ping arrives
        world.schedule_crash(b, SimTime::from_micros(500));
        world.run_until_quiescent(SimTime::from_secs(1));
        assert!(world.is_crashed(b));
        assert_eq!(world.process_ref::<PingPong>(a).pongs_received, 0);
    }

    #[test]
    fn restart_revives_a_crashed_process_with_fresh_state() {
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 21);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), 1);

        world.crash_now(b);
        assert!(world.is_crashed(b));
        world.restart_now(b, PingPong::new(vec![], 0));
        assert!(!world.is_crashed(b));
        assert_eq!(world.incarnation_of(b), 1);
        // Fresh in-memory state: the pre-crash delivery log is gone.
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());

        // The revived process receives new traffic normally.
        world.invoke_now(a, |_p, ctx| ctx.send(ProcessId(1), Msg::Ping(9)));
        world.run_until_quiescent(SimTime::from_secs(2));
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), 1);
        assert!(world
            .tracer()
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Restarted { process } if process == b)));
    }

    #[test]
    fn messages_in_flight_across_a_restart_stay_lost() {
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 22);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        // The ping leaves a at t=0 and would arrive at t=1ms; b crashes at
        // 200us and is already back at 400us — but the message was addressed
        // to the old incarnation.
        world.schedule_crash(b, SimTime::from_micros(200));
        world.schedule_restart(SimTime::from_micros(400), b, || {
            Box::new(PingPong::new(vec![], 0))
        });
        world.run_until_quiescent(SimTime::from_secs(1));
        assert!(!world.is_crashed(b));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        assert_eq!(world.process_ref::<PingPong>(a).pongs_received, 0);
        assert_eq!(world.stats().dropped, 1);
    }

    #[test]
    fn timers_armed_before_a_crash_never_fire_into_the_new_incarnation() {
        struct TickProc {
            period: SimDuration,
            fired: Vec<TimerTag>,
        }
        impl Process<Msg> for TickProc {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
                ctx.set_timer(self.period, TimerTag::Custom(7));
            }
            fn on_message(&mut self, _ctx: &mut dyn Runtime<Msg>, _from: ProcessId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, timer: Timer) {
                self.fired.push(timer.tag);
                ctx.set_timer(self.period, TimerTag::Custom(7));
            }
        }
        let mut world: World<Msg> = World::new(NetConfig::lan(), 23);
        let p = world.add_process(TickProc {
            period: SimDuration::from_millis(10),
            fired: Vec::new(),
        });
        // Crash at 5ms: the 10ms timer of incarnation 0 is still queued.
        world.schedule_crash(p, SimTime::from_millis(5));
        // Restart at 6ms with a much slower period; the only timer that may
        // fire before t=50ms is the new incarnation's own (at 46ms).
        world.schedule_restart(SimTime::from_millis(6), p, || {
            Box::new(TickProc {
                period: SimDuration::from_millis(40),
                fired: Vec::new(),
            })
        });
        world.run_until(SimTime::from_millis(50));
        assert_eq!(
            world.process_ref::<TickProc>(p).fired,
            vec![TimerTag::Custom(7)]
        );
        assert!(world.now() >= SimTime::from_millis(46));
    }

    #[test]
    fn restarting_a_live_process_is_a_noop() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 24);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 2));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.run_until_quiescent(SimTime::from_secs(1));
        let before = world.process_ref::<PingPong>(b).deliveries.len();
        world.restart_now(b, PingPong::new(vec![], 0));
        assert_eq!(world.incarnation_of(b), 0);
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), before);
        let _ = a;
    }

    #[test]
    fn held_partition_messages_for_a_restarted_process_are_dropped() {
        let mut cfg = NetConfig::constant(SimDuration::from_millis(1));
        cfg.partition_mode = PartitionMode::DeliverOnHeal;
        let mut world: World<Msg> = World::new(cfg, 25);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.partition_now(vec![vec![a], vec![b]]);
        world.run_until(SimTime::from_millis(10));
        // While the ping is held for heal, b crashes and restarts.
        world.crash_now(b);
        world.restart_now(b, PingPong::new(vec![], 0));
        world.heal_now();
        world.run_until_quiescent(SimTime::from_secs(1));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        assert_eq!(world.process_ref::<PingPong>(a).pongs_received, 0);
    }

    #[test]
    fn partition_holds_messages_until_heal() {
        let mut cfg = NetConfig::constant(SimDuration::from_millis(1));
        cfg.partition_mode = PartitionMode::DeliverOnHeal;
        let mut world: World<Msg> = World::new(cfg, 6);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.partition_now(vec![vec![a], vec![b]]);
        world.run_until(SimTime::from_millis(10));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        world.heal_now();
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), 1);
        assert_eq!(world.process_ref::<PingPong>(a).pongs_received, 1);
    }

    #[test]
    fn partition_drop_mode_loses_messages() {
        let mut cfg = NetConfig::constant(SimDuration::from_millis(1));
        cfg.partition_mode = PartitionMode::Drop;
        let mut world: World<Msg> = World::new(cfg, 6);
        let a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.partition_now(vec![vec![a], vec![b]]);
        world.run_until_quiescent(SimTime::from_secs(1));
        world.heal_now();
        world.run_until_quiescent(SimTime::from_secs(2));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        assert_eq!(world.stats().dropped, 1);
    }

    #[test]
    fn scheduled_partition_and_heal() {
        let mut world: World<Msg> = World::new(NetConfig::constant(SimDuration::from_millis(1)), 9);
        let a = world.add_process(PingPong::new(vec![], 0));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.schedule_partition(SimTime::from_millis(5), vec![vec![a], vec![b]]);
        world.schedule_heal(SimTime::from_millis(20));
        // a sends a message at t=10ms (inside the partition window)
        world.schedule_call(SimTime::from_millis(10), a, move |_p, ctx| {
            ctx.send(ProcessId(1), Msg::Ping(42));
        });
        world.run_until(SimTime::from_millis(15));
        assert!(world.process_ref::<PingPong>(b).deliveries.is_empty());
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), 1);
    }

    #[test]
    fn timers_fire_and_can_be_cancelled() {
        struct TimerProc {
            fired: Vec<TimerTag>,
        }
        impl Process<Msg> for TimerProc {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
                let _keep = ctx.set_timer(SimDuration::from_millis(1), TimerTag::Custom(1));
                let cancel = ctx.set_timer(SimDuration::from_millis(2), TimerTag::Custom(2));
                ctx.cancel_timer(cancel);
                let _keep2 = ctx.set_timer(SimDuration::from_millis(3), TimerTag::Custom(3));
            }
            fn on_message(&mut self, _ctx: &mut dyn Runtime<Msg>, _from: ProcessId, _msg: Msg) {}
            fn on_timer(&mut self, _ctx: &mut dyn Runtime<Msg>, timer: Timer) {
                self.fired.push(timer.tag);
            }
        }
        let mut world: World<Msg> = World::new(NetConfig::lan(), 10);
        let p = world.add_process(TimerProc { fired: Vec::new() });
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(
            world.process_ref::<TimerProc>(p).fired,
            vec![TimerTag::Custom(1), TimerTag::Custom(3)]
        );
    }

    #[test]
    fn event_limit_stops_run() {
        // Two processes ping-ponging forever.
        struct Forever;
        impl Process<Msg> for Forever {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
                if ctx.id() == ProcessId(0) {
                    ctx.send(ProcessId(1), Msg::Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ProcessId, _msg: Msg) {
                ctx.send(from, Msg::Ping(0));
            }
        }
        let mut world: World<Msg> = World::new(NetConfig::lan(), 11);
        world.add_process(Forever);
        world.add_process(Forever);
        world.set_event_limit(100);
        let outcome = world.run_until_quiescent(SimTime::MAX);
        assert_eq!(world.events_processed(), 100);
        assert_eq!(outcome.reason, StopReason::EventLimitReached);
        assert!(!outcome.is_quiescent());
    }

    #[test]
    fn horizon_cutoff_is_distinguishable_from_quiescence() {
        // Same endless ping-pong, but stopped by the time horizon.
        struct Forever;
        impl Process<Msg> for Forever {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
                if ctx.id() == ProcessId(0) {
                    ctx.send(ProcessId(1), Msg::Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ProcessId, _msg: Msg) {
                ctx.send(from, Msg::Ping(0));
            }
        }
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 16);
        world.add_process(Forever);
        world.add_process(Forever);
        let outcome = world.run_until_quiescent(SimTime::from_millis(10));
        assert_eq!(outcome.reason, StopReason::HorizonReached);
        assert!(!outcome.is_quiescent());
        assert!(!world.is_quiescent());
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 12);
        world.add_process(PingPong::new(vec![], 0));
        let t = world.run_until(SimTime::from_millis(50));
        assert_eq!(t, SimTime::from_millis(50));
        assert_eq!(world.now(), SimTime::from_millis(50));
    }

    #[test]
    fn invoke_now_applies_actions() {
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 13);
        let a = world.add_process(PingPong::new(vec![], 0));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.invoke_now(a, |_p, ctx| ctx.send(ProcessId(1), Msg::Ping(7)));
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.process_ref::<PingPong>(b).deliveries.len(), 1);
        let _ = a;
    }

    #[test]
    fn annotations_recorded_in_trace() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 14);
        let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.tracer().annotations_of(b), vec!["ping 0"]);
    }

    #[test]
    fn send_to_unknown_process_is_dropped() {
        let mut world: World<Msg> = World::new(NetConfig::lan(), 15);
        let a = world.add_process(PingPong::new(vec![ProcessId(9)], 1));
        world.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(world.stats().dropped, 1);
        let _ = a;
    }

    #[test]
    fn horizon_helper() {
        let h = horizon_for(SimTime::from_secs(1), SimDuration::from_millis(2), 500);
        assert_eq!(h, SimTime::from_secs(2));
    }

    #[test]
    fn enabled_events_expose_only_the_head_of_each_fifo_link() {
        // a sends 3 pings to b: one FIFO link, so only the earliest delivery
        // is a scheduling choice; the other two are forced to follow.
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 30);
        let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 3));
        let _b = world.add_process(PingPong::new(vec![], 0));
        world.start();
        let pending = world.pending_events();
        assert_eq!(pending.len(), 3);
        assert!(pending.iter().all(|e| !e.noop));
        assert!(pending
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq)));
        let enabled = world.enabled_events(DEFAULT_HORIZON);
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].seq, pending[0].seq);
        // Beyond-horizon events are not enabled.
        assert!(world.enabled_events(SimTime::ZERO).is_empty());
    }

    #[test]
    fn enabled_events_expose_one_timer_per_process_and_all_links() {
        struct TwoTimers;
        impl Process<Msg> for TwoTimers {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), TimerTag::Custom(1));
                ctx.set_timer(SimDuration::from_millis(2), TimerTag::Custom(2));
                ctx.send(ProcessId(1), Msg::Ping(0));
            }
            fn on_message(&mut self, _ctx: &mut dyn Runtime<Msg>, _from: ProcessId, _msg: Msg) {}
            fn fork(&self) -> Option<Box<dyn Process<Msg>>> {
                Some(Box::new(TwoTimers))
            }
        }
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(5)), 31);
        let _a = world.add_process(TwoTimers);
        let _b = world.add_process(PingPong::new(vec![], 0));
        world.start();
        // Pending: two timers at p0 plus one delivery p0→p1. Enabled: the
        // earlier timer (per-process head) and the delivery (its own link).
        let enabled = world.enabled_events(DEFAULT_HORIZON);
        assert_eq!(enabled.len(), 2);
        assert!(enabled.iter().any(|e| matches!(
            e.info,
            PendingEventInfo::Timer {
                tag: TimerTag::Custom(1),
                ..
            }
        )));
        assert!(enabled
            .iter()
            .any(|e| matches!(e.info, PendingEventInfo::Deliver { .. })));
    }

    #[test]
    fn dispatch_key_explores_an_order_the_heap_would_not_take() {
        // Two senders, one receiver: deliveries on different links commute,
        // and dispatch_key can run the later-scheduled one first.
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 32);
        let _a = world.add_process(PingPong::new(vec![ProcessId(2)], 1));
        let _b = world.add_process(PingPong::new(vec![ProcessId(2)], 1));
        let c = world.add_process(PingPong::new(vec![], 0));
        world.start();
        let enabled = world.enabled_events(DEFAULT_HORIZON);
        assert_eq!(enabled.len(), 2);
        let later = enabled[1].seq;
        assert!(world.dispatch_key(later));
        assert!(!world.dispatch_key(later), "event must fire at most once");
        assert_eq!(world.process_ref::<PingPong>(c).deliveries.len(), 1);
        // The remaining delivery is still pending and dispatchable.
        let enabled = world.enabled_events(DEFAULT_HORIZON);
        assert!(!enabled.is_empty());
        assert!(world.dispatch_key(enabled[0].seq));
        assert_eq!(world.process_ref::<PingPong>(c).deliveries.len(), 2);
    }

    #[test]
    fn fork_branches_diverge_independently() {
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 33);
        let _a = world.add_process(PingPong::new(vec![ProcessId(2)], 1));
        let _b = world.add_process(PingPong::new(vec![ProcessId(2)], 1));
        let c = world.add_process(PingPong::new(vec![], 0));
        world.start();
        let enabled = world.enabled_events(DEFAULT_HORIZON);
        assert_eq!(enabled.len(), 2);

        let mut branch1 = world.fork().expect("forkable");
        let mut branch2 = world.fork().expect("forkable");
        // Same seq keys exist in both forks (stable replay identity).
        branch1.dispatch_key(enabled[0].seq);
        branch2.dispatch_key(enabled[1].seq);
        let from1 = branch1.process_ref::<PingPong>(c).deliveries[0].0;
        let from2 = branch2.process_ref::<PingPong>(c).deliveries[0].0;
        assert_ne!(from1, from2);
        // The original world is untouched.
        assert!(world.process_ref::<PingPong>(c).deliveries.is_empty());

        // Both branches run to completion; their final states differ only in
        // the order c observed the two pings (which PingPong's digest
        // deliberately records).
        assert!(branch1.run_until_quiescent(DEFAULT_HORIZON).is_quiescent());
        assert!(branch2.run_until_quiescent(DEFAULT_HORIZON).is_quiescent());
        assert_eq!(branch1.process_ref::<PingPong>(c).deliveries.len(), 2);
        assert_eq!(branch2.process_ref::<PingPong>(c).deliveries.len(), 2);
        assert_ne!(
            branch1.fingerprint(DEFAULT_HORIZON, &msg_digest),
            branch2.fingerprint(DEFAULT_HORIZON, &msg_digest)
        );
    }

    #[test]
    fn fork_fails_on_unforkable_process_or_scheduled_closure() {
        struct NoFork;
        impl Process<Msg> for NoFork {
            fn on_message(&mut self, _ctx: &mut dyn Runtime<Msg>, _from: ProcessId, _msg: Msg) {}
        }
        let mut world: World<Msg> = World::new(NetConfig::lan(), 34);
        let p = world.add_process(NoFork);
        let err = world.fork().err().expect("fork must fail");
        assert_eq!(err, ForkError::UnforkableProcess(p));

        let mut world: World<Msg> = World::new(NetConfig::lan(), 35);
        let a = world.add_process(PingPong::new(vec![], 0));
        world.schedule_call(SimTime::from_millis(1), a, |_p, _ctx| {});
        let err = world.fork().err().expect("fork must fail");
        assert!(matches!(err, ForkError::UnforkableEvent(_)));
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_states() {
        let build = |seed: u64| {
            let mut world: World<Msg> =
                World::new(NetConfig::constant(SimDuration::from_millis(1)), seed);
            let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 2));
            let _b = world.add_process(PingPong::new(vec![], 0));
            world.start();
            world
        };
        // Same construction → same fingerprint, regardless of RNG seed
        // (constant latency: the RNG is invisible).
        let w1 = build(1);
        let w2 = build(99);
        let fp1 = w1.fingerprint(DEFAULT_HORIZON, &msg_digest);
        assert!(fp1.is_some());
        assert_eq!(fp1, w2.fingerprint(DEFAULT_HORIZON, &msg_digest));
        // Dispatching an event changes the fingerprint.
        let mut w3 = build(1);
        let head = w3.enabled_events(DEFAULT_HORIZON)[0].seq;
        w3.dispatch_key(head);
        assert_ne!(fp1, w3.fingerprint(DEFAULT_HORIZON, &msg_digest));
        // Event signatures hash content, not times or seq numbers.
        let sig = w1.event_signature(0, &msg_digest);
        assert!(sig.is_some());
        assert_eq!(sig, w2.event_signature(0, &msg_digest));
        assert_eq!(w1.event_signature(999, &msg_digest), None);
    }

    #[test]
    fn noop_events_are_flagged_and_excluded_from_enabled() {
        let mut world: World<Msg> =
            World::new(NetConfig::constant(SimDuration::from_millis(1)), 36);
        let _a = world.add_process(PingPong::new(vec![ProcessId(1)], 1));
        let b = world.add_process(PingPong::new(vec![], 0));
        world.start();
        world.crash_now(b);
        let pending = world.pending_events();
        assert_eq!(pending.len(), 1);
        assert!(pending[0].noop, "delivery to a crashed process is a noop");
        assert!(world.enabled_events(DEFAULT_HORIZON).is_empty());
        // Draining the noop by key works and changes nothing observable.
        assert!(world.dispatch_key(pending[0].seq));
        assert!(world.is_quiescent());
    }
}
