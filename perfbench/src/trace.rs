//! Timing from outside the program: a [`Traced`] wrapper around every
//! process and a [`TimedKv`] wrapper around every replica's state machine.
//!
//! With tracing off the wrappers only forward calls and watch two counters
//! (a server's settled length, a real-clock client's completions), which the
//! end-to-end settle and latency metrics need. With tracing on they also
//! time every `on_start`/`on_message`/`on_timer` call by [`OarWire`]
//! variant, count its allocations, time every state-machine apply, and keep
//! the first [`SPAN_BUDGET`] calls as spans.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use oar::{
    AppliedBatch, KeyRange, OarClient, OarServer, OarWire, OpenLoopClient, RequestId, StateImage,
    StateMachine, TxnClient,
};
use oar_apps::kv::{KvCommand, KvMachine, KvResponse, KvUndo};
use oar_simnet::{Process, ProcessId, Runtime, Timer};

use crate::alloc::thread_allocs;

/// The one wire type of every deployment the benchmark builds.
pub type Wire = OarWire<KvCommand, KvResponse>;

/// The timed callback kinds, `<role>.<wire>`; the index is the kind id.
/// `apply` is the state-machine apply, a child of the server callback that
/// ran it.
pub const KINDS: [&str; 16] = [
    "server.request",
    "server.order",
    "server.phase2",
    "server.fd",
    "server.consensus",
    "server.watermark",
    "server.catchup",
    "server.other",
    "server.timer",
    "client.replies",
    "client.timer",
    "client.other",
    "client.txn.replies",
    "client.txn.timer",
    "client.txn.other",
    "apply",
];
/// Kind id of the state-machine apply.
pub const APPLY: usize = 15;

/// Which process a wrapper stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// An `OarServer` replica.
    Server,
    /// An `OarClient` or `OpenLoopClient`.
    Client,
    /// A `TxnClient`.
    TxnClient,
}

impl Role {
    fn timer_kind(self) -> usize {
        match self {
            Role::Server => 8,
            Role::Client => 10,
            Role::TxnClient => 13,
        }
    }

    /// The kind id of a message delivered to a process of this role.
    fn message_kind(self, msg: &Wire) -> usize {
        match self {
            Role::Server => match msg {
                OarWire::Request(_) => 0,
                OarWire::Order(_) => 1,
                OarWire::PhaseII(_) => 2,
                OarWire::Fd { .. } => 3,
                OarWire::Consensus(_) => 4,
                OarWire::Watermark { .. } => 5,
                OarWire::CatchUpRequest { .. }
                | OarWire::CatchUpReply(_)
                | OarWire::PayloadFetch { .. }
                | OarWire::PayloadFill { .. } => 6,
                _ => 7,
            },
            Role::Client => match msg {
                OarWire::Replies(_) => 9,
                _ => 11,
            },
            Role::TxnClient => match msg {
                OarWire::Replies(_) => 12,
                _ => 14,
            },
        }
    }
}

/// The request ids a wire names (capped, to bound span memory).
fn wire_ids(msg: &Wire) -> Vec<RequestId> {
    const MAX_IDS: usize = 64;
    match msg {
        OarWire::Request(w) => vec![w.payload.id],
        OarWire::Order(o) => o.order.iter().take(MAX_IDS).copied().collect(),
        OarWire::Replies(b) => b.items.iter().take(MAX_IDS).map(|i| i.request).collect(),
        _ => Vec::new(),
    }
}

// -- Run-wide switches ------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);
/// Spans still to be recorded in this process (callback and step spans).
pub static SPAN_BUDGET: AtomicUsize = AtomicUsize::new(0);
static PLANT_KIND: AtomicUsize = AtomicUsize::new(usize::MAX);
static PLANT_NS: AtomicU64 = AtomicU64::new(0);

/// The process-wide time origin of every host timestamp the benchmark keeps.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds from [`origin`] to `t`.
pub fn ns_since_origin(t: Instant) -> u64 {
    t.duration_since(origin()).as_nanos() as u64
}

/// Turns the timing of callbacks and applies on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether callbacks are being timed.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Plants a busy-wait of `ns` inside the timing wrapper of callback kind
/// `kind` (the attribution self-test); `ns == 0` removes it.
pub fn set_plant(kind: usize, ns: u64) {
    PLANT_KIND.store(kind, Ordering::Relaxed);
    PLANT_NS.store(ns, Ordering::Relaxed);
}

fn plant_for(kind: usize) -> u64 {
    if PLANT_KIND.load(Ordering::Relaxed) == kind {
        PLANT_NS.load(Ordering::Relaxed)
    } else {
        0
    }
}

fn spin(ns: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

thread_local! {
    /// The simulator step being dispatched (parent of callback spans), or
    /// `u64::MAX` outside a recorded step.
    pub static CURRENT_STEP: Cell<u64> = const { Cell::new(u64::MAX) };
    /// `(busy ns, commands, allocations)` of state-machine applies on this
    /// thread, read around each callback to split off the child time.
    static APPLY_TOTALS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn take_span_slot() -> bool {
    SPAN_BUDGET
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
        .is_ok()
}

// -- Aggregates ---------------------------------------------------------------

/// Count, self time and self allocations of one callback kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindStat {
    /// Calls (for `apply`: commands applied).
    pub count: u64,
    /// Host ns inside the calls, minus the child applies.
    pub busy_ns: u64,
    /// Allocations inside the calls, minus the child applies.
    pub allocs: u64,
}

/// One timed callback.
#[derive(Clone, Debug)]
pub struct Span {
    /// Kind id (index into [`KINDS`]).
    pub kind: usize,
    /// The process the callback ran in.
    pub pid: usize,
    /// The simulator step that dispatched it (`u64::MAX` on the real clock).
    pub parent: u64,
    /// Host start, ns from [`origin`].
    pub start_ns: u64,
    /// Host end, ns from [`origin`].
    pub end_ns: u64,
    /// Runtime clock at dispatch (µs; simulated on the simulator).
    pub sim_us: u64,
    /// Request ids the wire names.
    pub ids: Vec<RequestId>,
}

/// Everything the wrappers of one deployment report. Each wrapper keeps its
/// own and merges it into the shared sink when dropped.
#[derive(Debug, Default)]
pub struct Agg {
    /// Per-kind totals, indexed like [`KINDS`].
    pub kinds: [KindStat; KINDS.len()],
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Per server pid: `(time, total settled)` at every increase. Time is
    /// simulated µs on the simulator, host ns from [`origin`] on the real
    /// clock.
    pub settle: BTreeMap<usize, Vec<(u64, u64)>>,
    /// Real clock only: host ns (from [`origin`]) of every completion seen by
    /// a client, in order.
    pub completions: Vec<u64>,
    /// Real clock only: host ns of the first callback of any process.
    pub first_event_ns: Option<u64>,
    /// Tracing only: total callback time per process.
    pub busy_by_pid: BTreeMap<usize, u64>,
}

impl Agg {
    fn merge(&mut self, other: &mut Agg) {
        for (a, b) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            a.count += b.count;
            a.busy_ns += b.busy_ns;
            a.allocs += b.allocs;
        }
        self.spans.append(&mut other.spans);
        for (pid, mut points) in std::mem::take(&mut other.settle) {
            self.settle.entry(pid).or_default().append(&mut points);
        }
        self.completions.append(&mut other.completions);
        self.first_event_ns = match (self.first_event_ns, other.first_event_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        for (pid, ns) in std::mem::take(&mut other.busy_by_pid) {
            *self.busy_by_pid.entry(pid).or_default() += ns;
        }
    }
}

/// The sink shared by all wrappers of one deployment.
pub type Sink = Arc<Mutex<Agg>>;

/// Takes the merged report out of `sink` once every wrapper is dropped.
pub fn drain(sink: &Sink) -> Agg {
    std::mem::take(&mut *sink.lock().expect("a wrapper panicked while merging"))
}

// -- The process wrapper -------------------------------------------------------

/// What the wrapper reads from the process it wraps after each callback.
pub trait Observed {
    /// The role the process plays.
    const ROLE: Role;
    /// Settled commands so far (servers only).
    fn settled(&self) -> Option<u64> {
        None
    }
    /// Operations completed so far (clients only).
    fn completed_len(&self) -> usize {
        0
    }
}

impl Observed for OarServer<TimedKv> {
    const ROLE: Role = Role::Server;
    fn settled(&self) -> Option<u64> {
        Some(self.total_settled())
    }
}

impl Observed for OarClient<TimedKv> {
    const ROLE: Role = Role::Client;
    fn completed_len(&self) -> usize {
        self.completed().len()
    }
}

impl Observed for OpenLoopClient<TimedKv> {
    const ROLE: Role = Role::Client;
    fn completed_len(&self) -> usize {
        self.completed().len()
    }
}

impl Observed for TxnClient<TimedKv> {
    const ROLE: Role = Role::TxnClient;
    fn completed_len(&self) -> usize {
        self.completed().len()
    }
}

/// A process whose callbacks are observed (and, with tracing on, timed)
/// from outside. Transparent to the protocol: it forwards every callback
/// unchanged and sends nothing of its own.
pub struct Traced<P> {
    /// The wrapped process.
    pub inner: P,
    pid: usize,
    real_clock: bool,
    last_settled: u64,
    last_completed: usize,
    local: Agg,
    sink: Sink,
}

impl<P: Process<Wire> + Observed> Traced<P> {
    /// Wraps `inner` (process `pid`). `real_clock` selects host timestamps
    /// for the settle and completion records.
    pub fn new(inner: P, pid: ProcessId, real_clock: bool, sink: &Sink) -> Self {
        Traced {
            inner,
            pid: pid.index(),
            real_clock,
            last_settled: 0,
            last_completed: 0,
            local: Agg::default(),
            sink: Arc::clone(sink),
        }
    }

    fn call(
        &mut self,
        rt: &mut dyn Runtime<Wire>,
        kind: usize,
        ids: Vec<RequestId>,
        f: impl FnOnce(&mut P, &mut dyn Runtime<Wire>),
    ) {
        let plant = plant_for(kind);
        if !tracing() {
            if plant > 0 {
                spin(plant);
            }
            f(&mut self.inner, rt);
        } else {
            let sim_us = rt.now().as_micros();
            let (apply_ns0, apply_n0, apply_a0) = APPLY_TOTALS.with(Cell::get);
            let a0 = thread_allocs();
            let t0 = Instant::now();
            if plant > 0 {
                spin(plant);
            }
            f(&mut self.inner, rt);
            let t1 = Instant::now();
            let a1 = thread_allocs();
            let (apply_ns1, apply_n1, apply_a1) = APPLY_TOTALS.with(Cell::get);
            let dur = t1.duration_since(t0).as_nanos() as u64;
            let (apply_ns, apply_allocs) = (apply_ns1 - apply_ns0, apply_a1 - apply_a0);
            let stat = &mut self.local.kinds[kind];
            stat.count += 1;
            stat.busy_ns += dur.saturating_sub(apply_ns);
            stat.allocs += (a1 - a0).saturating_sub(apply_allocs);
            let apply = &mut self.local.kinds[APPLY];
            apply.count += apply_n1 - apply_n0;
            apply.busy_ns += apply_ns;
            apply.allocs += apply_allocs;
            *self.local.busy_by_pid.entry(self.pid).or_default() += dur;
            if take_span_slot() {
                self.local.spans.push(Span {
                    kind,
                    pid: self.pid,
                    parent: CURRENT_STEP.with(Cell::get),
                    start_ns: ns_since_origin(t0),
                    end_ns: ns_since_origin(t1),
                    sim_us,
                    ids,
                });
            }
        }
        self.observe(rt);
    }

    fn observe(&mut self, rt: &mut dyn Runtime<Wire>) {
        if let Some(settled) = self.inner.settled() {
            if settled > self.last_settled {
                self.last_settled = settled;
                let t = if self.real_clock {
                    ns_since_origin(Instant::now())
                } else {
                    rt.now().as_micros()
                };
                self.local
                    .settle
                    .entry(self.pid)
                    .or_default()
                    .push((t, settled));
            }
        }
        if self.real_clock {
            let done = self.inner.completed_len();
            if done > self.last_completed {
                let t = ns_since_origin(Instant::now());
                for _ in self.last_completed..done {
                    self.local.completions.push(t);
                }
                self.last_completed = done;
            }
        }
    }

    fn ids_for(&self, msg: &Wire) -> Vec<RequestId> {
        if tracing() && SPAN_BUDGET.load(Ordering::Relaxed) > 0 {
            wire_ids(msg)
        } else {
            Vec::new()
        }
    }
}

impl<P: Process<Wire> + Observed + 'static> Process<Wire> for Traced<P> {
    fn on_start(&mut self, rt: &mut dyn Runtime<Wire>) {
        if self.real_clock {
            self.local.first_event_ns = Some(ns_since_origin(Instant::now()));
        }
        self.call(rt, P::ROLE.timer_kind(), Vec::new(), |p, rt| p.on_start(rt));
    }

    fn on_message(&mut self, rt: &mut dyn Runtime<Wire>, from: ProcessId, msg: Wire) {
        let kind = P::ROLE.message_kind(&msg);
        let ids = self.ids_for(&msg);
        self.call(rt, kind, ids, |p, rt| p.on_message(rt, from, msg));
    }

    fn on_timer(&mut self, rt: &mut dyn Runtime<Wire>, timer: Timer) {
        self.call(rt, P::ROLE.timer_kind(), Vec::new(), |p, rt| {
            p.on_timer(rt, timer)
        });
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<P> Drop for Traced<P> {
    fn drop(&mut self) {
        // Never panic in `Drop`: a poisoned sink only loses this report.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&mut self.local);
        }
    }
}

// -- The state-machine wrapper ---------------------------------------------------

/// The KV store with every apply (and undo) timed from outside when tracing
/// is on. Same commands, responses, undo tokens, digests and snapshots as
/// [`KvMachine`].
#[derive(Clone, Debug, Default)]
pub struct TimedKv(pub KvMachine);

fn timed<T>(commands: u64, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let a0 = thread_allocs();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = thread_allocs() - a0;
    APPLY_TOTALS.with(|c| {
        let (n, k, a) = c.get();
        c.set((n + ns, k + commands, a + allocs));
    });
    out
}

impl StateMachine for TimedKv {
    type Command = KvCommand;
    type Response = KvResponse;
    type Undo = KvUndo;

    fn apply(&mut self, command: &KvCommand) -> (KvResponse, KvUndo) {
        timed(1, || self.0.apply(command))
    }

    fn apply_batch(&mut self, commands: &[&KvCommand], workers: usize) -> AppliedBatch<Self> {
        let batch = timed(commands.len() as u64, || {
            self.0.apply_batch(commands, workers)
        });
        AppliedBatch {
            results: batch.results,
            wave_sizes: batch.wave_sizes,
        }
    }

    fn undo(&mut self, token: KvUndo) {
        timed(0, || self.0.undo(token))
    }

    fn digest(&self) -> u64 {
        self.0.digest()
    }

    fn snapshot(&self) -> Option<StateImage> {
        self.0.snapshot()
    }

    fn install(&mut self, image: &StateImage) -> bool {
        self.0.install(image)
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn command_key(command: &KvCommand) -> Option<&str> {
        KvMachine::command_key(command)
    }

    fn extract_range(&mut self, range: &KeyRange) -> Option<Vec<(String, String)>> {
        self.0.extract_range(range)
    }

    fn install_range_command(entries: Vec<(String, String)>) -> Option<KvCommand> {
        KvMachine::install_range_command(entries)
    }

    fn range_digest(&self, range: &KeyRange) -> Option<u64> {
        self.0.range_digest(range)
    }

    fn anti_entropy_leaves(&self) -> Option<Vec<(String, u64)>> {
        self.0.anti_entropy_leaves()
    }

    fn anti_entropy_repair(&mut self, key: &str, value: Option<&str>) -> bool {
        self.0.anti_entropy_repair(key, value)
    }

    fn anti_entropy_value(&self, key: &str) -> Option<String> {
        self.0.anti_entropy_value(key)
    }
}
