//! What one sub-run (one fresh deployment, driven to completion) reports,
//! and the helpers the workloads share: the simulator driving loop, the
//! settle-time accounting and the correctness checks.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::time::Instant;

use oar::{CompletedRequest, OarServer, RequestId, StateMachine};
use oar_apps::kv::KvResponse;
use oar_simnet::World;

use crate::alloc::thread_allocs;
use crate::trace::{self, Agg, TimedKv, Traced, Wire, CURRENT_STEP, SPAN_BUDGET};

/// Deterministic per-layer cost counters of one sub-run, read from the
/// servers' `ServerStats`, the network's `NetStats` and the clients.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `OrderMsg` broadcasts sent by sequencers.
    pub order_msgs: u64,
    /// Epochs closed (per group: the most any replica closed).
    pub epochs_closed: u64,
    /// Phase-2 entries over all replicas.
    pub phase2_entered: u64,
    /// `Opt-deliver` events over all replicas.
    pub opt_delivered: u64,
    /// `Opt-undeliver` events over all replicas.
    pub opt_undelivered: u64,
    /// Largest retained-payload map at any replica.
    pub peak_payloads: u64,
    /// Largest duplicate-suppression set at any replica.
    pub peak_seen: u64,
    /// Transaction prepares buffered over all replicas.
    pub txn_prepares: u64,
    /// Committed transactions.
    pub txns: u64,
    /// Committed transactions that spanned more than one group.
    pub multi_group_txns: u64,
    /// Requests that reached a group that does not own them.
    pub misroutes: u64,
    /// Requests door-dropped and redirected for a stale route.
    pub redirects: u64,
    /// Deepest adaptive client window.
    pub client_window_peak: u64,
    /// Simulator: wires handed to the network.
    pub wires_sent: u64,
    /// Simulator: events dispatched.
    pub events: u64,
    /// Open loop: largest send lateness behind schedule (µs).
    pub lateness_us: u64,
}

impl Counters {
    /// Adds `other` (sums for totals, max for peaks).
    pub fn add(&mut self, other: &Counters) {
        self.order_msgs += other.order_msgs;
        self.epochs_closed += other.epochs_closed;
        self.phase2_entered += other.phase2_entered;
        self.opt_delivered += other.opt_delivered;
        self.opt_undelivered += other.opt_undelivered;
        self.peak_payloads = self.peak_payloads.max(other.peak_payloads);
        self.peak_seen = self.peak_seen.max(other.peak_seen);
        self.txn_prepares += other.txn_prepares;
        self.txns += other.txns;
        self.multi_group_txns += other.multi_group_txns;
        self.misroutes += other.misroutes;
        self.redirects += other.redirects;
        self.client_window_peak = self.client_window_peak.max(other.client_window_peak);
        self.wires_sent += other.wires_sent;
        self.events += other.events;
        self.lateness_us = self.lateness_us.max(other.lateness_us);
    }

    /// Folds the stats of the servers of one group in.
    pub fn add_group(&mut self, servers: &[&OarServer<TimedKv>]) {
        let mut epochs = 0;
        for s in servers {
            let st = s.stats();
            self.order_msgs += st.order_messages_sent;
            epochs = epochs.max(st.epochs_completed);
            self.phase2_entered += st.phase2_entered;
            self.opt_delivered += st.opt_delivered;
            self.opt_undelivered += st.opt_undelivered;
            self.peak_payloads = self.peak_payloads.max(st.payloads.peak());
            self.peak_seen = self.peak_seen.max(st.seen.peak());
            self.txn_prepares += st.txn_prepares;
            self.misroutes += st.misrouted;
            self.redirects += st.redirected;
        }
        self.epochs_closed += epochs;
    }
}

/// A simulator step span.
#[derive(Clone, Copy, Debug)]
pub struct StepSpan {
    /// Step index within the sub-run.
    pub index: u64,
    /// Host start, ns from the trace origin.
    pub start_ns: u64,
    /// Host end, ns from the trace origin.
    pub end_ns: u64,
    /// Simulated time after the step (µs).
    pub sim_us: u64,
}

/// Everything one sub-run reports.
#[derive(Debug)]
pub struct SubRun {
    /// Host seconds to build the deployment, up to the first dispatch.
    pub setup_s: f64,
    /// Host ns of the measured run (from the first dispatch to the end).
    pub run_ns: u64,
    /// Operations due (a transaction counts once).
    pub attempted: u64,
    /// Operations completed (distinct, adopted once).
    pub completed: u64,
    /// Latency of each completed operation, ms.
    pub latency_ms: Vec<f64>,
    /// Settle time of each operation settled on a majority, ms.
    pub settle_ms: Vec<f64>,
    /// Crash workloads: time from the crash to the first reply for an
    /// operation due after it, ms.
    pub unavailable_ms: Option<f64>,
    /// Digest of the simulated outputs (replies and replica states); 0 on
    /// the real clock.
    pub identity: u64,
    /// The correctness verdict.
    pub check: Result<(), String>,
    /// What the wrappers reported.
    pub agg: Agg,
    /// Recorded simulator step spans (tracing only).
    pub steps: Vec<StepSpan>,
    /// Tracing only: summed host ns of all simulator steps.
    pub step_ns: u64,
    /// Allocations made by the driving thread during the run.
    pub allocs: u64,
    /// Real clock only: host ns of the run, for the busy fractions.
    pub wall_ns: u64,
    /// Real clock, tracing only: callback ns of the busiest replica thread.
    pub busiest_server_ns: u64,
    /// Real clock, tracing only: callback ns of the client thread.
    pub client_busy_ns: u64,
    /// The tick of the clock the times were read from, ms.
    pub tick_ms: f64,
    /// Deterministic counters.
    pub counters: Counters,
}

impl Default for SubRun {
    fn default() -> Self {
        SubRun {
            setup_s: 0.0,
            run_ns: 0,
            attempted: 0,
            completed: 0,
            latency_ms: Vec::new(),
            settle_ms: Vec::new(),
            unavailable_ms: None,
            identity: 0,
            check: Ok(()),
            agg: Agg::default(),
            steps: Vec::new(),
            step_ns: 0,
            allocs: 0,
            wall_ns: 0,
            busiest_server_ns: 0,
            client_busy_ns: 0,
            tick_ms: 1e-3,
            counters: Counters::default(),
        }
    }
}

/// Steps `world` until `stop` holds, checking it every `every` steps.
/// Returns the host ns spent. With tracing on, every step is timed and the
/// first ones are kept as spans (parents of the callback spans they
/// dispatch). The stepping is identical with tracing on and off, so the
/// simulated run is too.
pub fn drive(
    world: &mut World<Wire>,
    every: usize,
    mut stop: impl FnMut(&World<Wire>) -> bool,
    out: &mut SubRun,
) -> u64 {
    let tracing = trace::tracing();
    let a0 = thread_allocs();
    let t0 = Instant::now();
    while !stop(world) {
        for _ in 0..every {
            if !tracing {
                world.step();
                continue;
            }
            let index = world.events_processed();
            let keep = SPAN_BUDGET
                .fetch_update(
                    std::sync::atomic::Ordering::Relaxed,
                    std::sync::atomic::Ordering::Relaxed,
                    |b| b.checked_sub(1),
                )
                .is_ok();
            CURRENT_STEP.with(|c| c.set(if keep { index } else { u64::MAX }));
            let s0 = Instant::now();
            world.step();
            let s1 = Instant::now();
            CURRENT_STEP.with(|c| c.set(u64::MAX));
            out.step_ns += s1.duration_since(s0).as_nanos() as u64;
            if keep {
                out.steps.push(StepSpan {
                    index,
                    start_ns: trace::ns_since_origin(s0),
                    end_ns: trace::ns_since_origin(s1),
                    sim_us: world.now().as_micros(),
                });
            }
        }
    }
    out.allocs += thread_allocs() - a0;
    t0.elapsed().as_nanos() as u64
}

/// Per process: the first time its settled length reached each value, as a
/// time-sorted list with a running maximum, ready for [`first_reach`].
pub fn settle_curves(agg: &Agg) -> BTreeMap<usize, Vec<(u64, u64)>> {
    agg.settle
        .iter()
        .map(|(&pid, points)| {
            let mut sorted = points.clone();
            sorted.sort_by_key(|&(t, _)| t);
            let mut best = 0;
            let curve = sorted
                .into_iter()
                .map(|(t, s)| {
                    best = best.max(s);
                    (t, best)
                })
                .collect();
            (pid, curve)
        })
        .collect()
}

/// When position `pos` was settled on a majority of `servers`, or `None`.
pub fn majority_settled(
    curves: &BTreeMap<usize, Vec<(u64, u64)>>,
    servers: &[usize],
    pos: u64,
) -> Option<u64> {
    let mut times: Vec<u64> = servers
        .iter()
        .filter_map(|pid| curves.get(pid))
        .filter_map(|curve| {
            let i = curve.partition_point(|&(_, s)| s < pos);
            curve.get(i).map(|&(t, _)| t)
        })
        .collect();
    times.sort_unstable();
    times.get(servers.len() / 2).copied()
}

/// Checks that no client adopted a reply twice: every completed id is
/// distinct and belongs to a single completion.
pub fn check_adopted_once<'a>(ids: impl Iterator<Item = &'a RequestId>) -> Result<u64, String> {
    let mut seen = HashSet::new();
    for id in ids {
        if !seen.insert(*id) {
            return Err(format!("reply for {id} adopted twice"));
        }
    }
    Ok(seen.len() as u64)
}

/// Checks the bookkeeping identity `attempted = completed + failed` with
/// `failed` counted independently by the caller, and that nothing failed:
/// every workload runs until its clients are done, so an operation still
/// unanswered when the run ends is a stall.
pub fn check_accounting(attempted: u64, completed: u64, failed: u64) -> Result<(), String> {
    if attempted != completed + failed {
        Err(format!(
            "attempted {attempted} != completed {completed} + failed {failed}"
        ))
    } else if failed != 0 {
        Err(format!(
            "{failed} of {attempted} operations unanswered when the run ended"
        ))
    } else {
        Ok(())
    }
}

/// Folds one completed request into the identity digest.
pub fn hash_completed(h: &mut DefaultHasher, client: usize, r: &CompletedRequest<KvResponse>) {
    (client, r.id, r.position, r.epoch).hash(h);
    (r.sent_at.as_micros(), r.completed_at.as_micros()).hash(h);
    format!("{:?}", r.response).hash(h);
}

/// Folds one replica's final state into the identity digest.
pub fn hash_server(h: &mut DefaultHasher, s: &OarServer<TimedKv>) {
    (
        s.state_machine().digest(),
        s.total_settled(),
        s.settled_digest(),
    )
        .hash(h);
    (s.epoch(), s.committed_sequence().len()).hash(h);
}

/// The wrapped server at `pid`.
pub fn server(world: &World<Wire>, pid: oar_simnet::ProcessId) -> &OarServer<TimedKv> {
    &world.process_ref::<Traced<OarServer<TimedKv>>>(pid).inner
}
