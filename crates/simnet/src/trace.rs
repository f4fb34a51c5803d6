//! Simulation traces.
//!
//! The tracer records network-level events (sends, deliveries, drops, crashes,
//! partitions) and protocol-level annotations emitted by processes via
//! [`Runtime::annotate`]. Traces are the raw material for the figure
//! reproductions (Figures 1–4 of the paper) and for the experiment harness.
//!
//! [`Runtime::annotate`]: crate::Runtime::annotate

use std::fmt;

use crate::process::{GroupId, ProcessId};
use crate::time::SimTime;

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A process handed a message to the network.
    MessageSent {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The network delivered a message.
    MessageDelivered {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The network dropped a message.
    MessageDropped {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A timer fired at a process.
    TimerFired {
        /// The process whose timer fired.
        at: ProcessId,
    },
    /// A process crashed.
    Crashed {
        /// The crashed process.
        process: ProcessId,
    },
    /// A crashed process was restarted with fresh in-memory state.
    Restarted {
        /// The restarted process.
        process: ProcessId,
    },
    /// A partition was installed.
    PartitionStarted,
    /// All partitions were healed.
    PartitionHealed,
    /// A protocol-level annotation emitted by a process.
    Annotation {
        /// The annotating process.
        process: ProcessId,
        /// Free-form annotation text (e.g. `"Opt-deliver(m3)"`).
        text: String,
    },
}

/// Why a message was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss according to the link's drop probability.
    RandomLoss,
    /// Sender and destination are in different partitions (in
    /// [`PartitionMode::Drop`](crate::PartitionMode::Drop)).
    Partitioned,
    /// The destination process has crashed.
    DestinationCrashed,
    /// The destination restarted while the message was in flight: it was
    /// addressed to the previous incarnation and stays lost.
    DestinationRestarted,
    /// The sender had crashed before the send was applied.
    SenderCrashed,
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TraceKind::MessageSent { from, to } => {
                write!(f, "[{}] {from} -> {to} send", self.time)
            }
            TraceKind::MessageDelivered { from, to } => {
                write!(f, "[{}] {from} -> {to} deliver", self.time)
            }
            TraceKind::MessageDropped { from, to, reason } => {
                write!(f, "[{}] {from} -> {to} DROP ({reason:?})", self.time)
            }
            TraceKind::TimerFired { at } => write!(f, "[{}] {at} timer", self.time),
            TraceKind::Crashed { process } => write!(f, "[{}] {process} CRASH", self.time),
            TraceKind::Restarted { process } => write!(f, "[{}] {process} RESTART", self.time),
            TraceKind::PartitionStarted => write!(f, "[{}] partition installed", self.time),
            TraceKind::PartitionHealed => write!(f, "[{}] partition healed", self.time),
            TraceKind::Annotation { process, text } => {
                write!(f, "[{}] {process}: {text}", self.time)
            }
        }
    }
}

/// Aggregate network statistics, cheap to keep even when full tracing is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to a process.
    pub delivered: u64,
    /// Messages dropped (loss, partition, crash).
    pub dropped: u64,
    /// Timers fired.
    pub timers_fired: u64,
}

/// Records trace events and aggregate statistics for one simulation run.
///
/// `Clone` so a forked [`World`](crate::World) (model checking) carries the
/// trace prefix of the path that led to it.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    stats: NetStats,
    /// Group membership, for the per-group statistics of sharded deployments,
    /// indexed by process id. Processes without a group (`None`, or beyond
    /// the end) are counted only in the aggregate.
    group_of: Vec<Option<GroupId>>,
    /// Per-group statistics indexed by group id, attributed to the *sender's*
    /// group (timers to the owning process's group). `None` for a group no
    /// event was attributed to yet.
    group_stats: Vec<Option<NetStats>>,
    /// When `false`, only statistics and annotations are kept (long runs).
    record_network_events: bool,
}

impl Tracer {
    /// Creates a tracer. If `record_network_events` is false, per-message
    /// events (sends, deliveries, drops, timer firings) are not stored, so
    /// their memory does not grow with the run. Annotations, crashes,
    /// restarts and partition changes are still stored, without bound: a
    /// protocol that annotates every delivery (as the OAR server does, one
    /// formatted `String` per Opt-deliver and A-deliver per replica) still
    /// grows the trace with every request.
    pub fn new(record_network_events: bool) -> Self {
        Tracer {
            events: Vec::new(),
            stats: NetStats::default(),
            group_of: Vec::new(),
            group_stats: Vec::new(),
            record_network_events,
        }
    }

    /// Declares `process` a member of `group` for per-group statistics.
    pub fn assign_group(&mut self, process: ProcessId, group: GroupId) {
        if self.group_of.len() <= process.0 {
            self.group_of.resize(process.0 + 1, None);
        }
        self.group_of[process.0] = Some(group);
    }

    /// The group `process` was assigned to, if any.
    pub fn group_of(&self, process: ProcessId) -> Option<GroupId> {
        self.group_of.get(process.0).copied().flatten()
    }

    /// Statistics of one group (zeros if the group never appeared).
    pub fn group_stats(&self, group: GroupId) -> NetStats {
        self.group_stats
            .get(group.0)
            .copied()
            .flatten()
            .unwrap_or_default()
    }

    /// All per-group statistics recorded so far, ordered by group id.
    pub fn all_group_stats(&self) -> Vec<(GroupId, NetStats)> {
        self.group_stats
            .iter()
            .enumerate()
            .filter_map(|(g, stats)| stats.map(|stats| (GroupId(g), stats)))
            .collect()
    }

    /// The process a network event is attributed to: the sender for message
    /// events, the owner for timers.
    fn attribution(kind: &TraceKind) -> Option<ProcessId> {
        match kind {
            TraceKind::MessageSent { from, .. }
            | TraceKind::MessageDelivered { from, .. }
            | TraceKind::MessageDropped { from, .. } => Some(*from),
            TraceKind::TimerFired { at } => Some(*at),
            _ => None,
        }
    }

    fn bump(stats: &mut NetStats, kind: &TraceKind) {
        match kind {
            TraceKind::MessageSent { .. } => stats.sent += 1,
            TraceKind::MessageDelivered { .. } => stats.delivered += 1,
            TraceKind::MessageDropped { .. } => stats.dropped += 1,
            TraceKind::TimerFired { .. } => stats.timers_fired += 1,
            _ => {}
        }
    }

    /// Records an event, updating statistics.
    pub fn record(&mut self, time: SimTime, kind: TraceKind) {
        Self::bump(&mut self.stats, &kind);
        if let Some(g) = Self::attribution(&kind).and_then(|p| self.group_of(p)) {
            if self.group_stats.len() <= g.0 {
                self.group_stats.resize(g.0 + 1, None);
            }
            Self::bump(
                self.group_stats[g.0].get_or_insert_with(NetStats::default),
                &kind,
            );
        }
        let keep = self.record_network_events
            || matches!(
                kind,
                TraceKind::Annotation { .. }
                    | TraceKind::Crashed { .. }
                    | TraceKind::Restarted { .. }
                    | TraceKind::PartitionStarted
                    | TraceKind::PartitionHealed
            );
        if keep {
            self.events.push(TraceEvent { time, kind });
        }
    }

    /// All recorded events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Aggregate statistics for the run.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// All annotations emitted by `process`, in order.
    pub fn annotations_of(&self, process: ProcessId) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Annotation { process: p, text } if *p == process => Some(text.as_str()),
                _ => None,
            })
            .collect()
    }

    /// All annotations containing `needle`, as `(time, process, text)` tuples.
    pub fn annotations_matching(&self, needle: &str) -> Vec<(SimTime, ProcessId, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Annotation { process, text } if text.contains(needle) => {
                    Some((e.time, *process, text.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// Renders the annotation timeline as a human-readable multi-line string,
    /// one line per annotation — the textual equivalent of the paper's
    /// space-time diagrams.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            if matches!(
                event.kind,
                TraceKind::Annotation { .. }
                    | TraceKind::Crashed { .. }
                    | TraceKind::Restarted { .. }
                    | TraceKind::PartitionStarted
                    | TraceKind::PartitionHealed
            ) {
                out.push_str(&event.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Drops all recorded events (statistics are kept).
    pub fn clear_events(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_updated() {
        let mut t = Tracer::new(true);
        t.record(
            SimTime::ZERO,
            TraceKind::MessageSent {
                from: ProcessId(0),
                to: ProcessId(1),
            },
        );
        t.record(
            SimTime::from_millis(1),
            TraceKind::MessageDelivered {
                from: ProcessId(0),
                to: ProcessId(1),
            },
        );
        t.record(
            SimTime::from_millis(2),
            TraceKind::MessageDropped {
                from: ProcessId(0),
                to: ProcessId(2),
                reason: DropReason::RandomLoss,
            },
        );
        t.record(
            SimTime::from_millis(3),
            TraceKind::TimerFired { at: ProcessId(1) },
        );
        let s = t.stats();
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.timers_fired, 1);
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn group_stats_attribute_to_the_sender_group() {
        let mut t = Tracer::new(false);
        t.assign_group(ProcessId(0), GroupId(0));
        t.assign_group(ProcessId(1), GroupId(1));
        assert_eq!(t.group_of(ProcessId(0)), Some(GroupId(0)));
        assert_eq!(t.group_of(ProcessId(7)), None);
        t.record(
            SimTime::ZERO,
            TraceKind::MessageSent {
                from: ProcessId(0),
                to: ProcessId(1),
            },
        );
        t.record(
            SimTime::ZERO,
            TraceKind::MessageDelivered {
                from: ProcessId(1),
                to: ProcessId(0),
            },
        );
        // A process with no group counts only in the aggregate.
        t.record(
            SimTime::ZERO,
            TraceKind::MessageSent {
                from: ProcessId(7),
                to: ProcessId(0),
            },
        );
        assert_eq!(t.stats().sent, 2);
        assert_eq!(t.group_stats(GroupId(0)).sent, 1);
        assert_eq!(t.group_stats(GroupId(0)).delivered, 0);
        assert_eq!(t.group_stats(GroupId(1)).delivered, 1);
        assert_eq!(t.group_stats(GroupId(9)), NetStats::default());
        assert_eq!(t.all_group_stats().len(), 2);
    }

    #[test]
    fn network_events_can_be_suppressed() {
        let mut t = Tracer::new(false);
        t.record(
            SimTime::ZERO,
            TraceKind::MessageSent {
                from: ProcessId(0),
                to: ProcessId(1),
            },
        );
        t.record(
            SimTime::ZERO,
            TraceKind::Annotation {
                process: ProcessId(0),
                text: "x".into(),
            },
        );
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.stats().sent, 1);
    }

    #[test]
    fn annotation_queries() {
        let mut t = Tracer::new(true);
        t.record(
            SimTime::ZERO,
            TraceKind::Annotation {
                process: ProcessId(0),
                text: "Opt-deliver(m1)".into(),
            },
        );
        t.record(
            SimTime::from_millis(1),
            TraceKind::Annotation {
                process: ProcessId(1),
                text: "A-deliver(m1)".into(),
            },
        );
        assert_eq!(t.annotations_of(ProcessId(0)), vec!["Opt-deliver(m1)"]);
        assert_eq!(t.annotations_matching("deliver").len(), 2);
        assert_eq!(t.annotations_matching("A-deliver").len(), 1);
        let timeline = t.render_timeline();
        assert!(timeline.contains("Opt-deliver(m1)"));
        assert!(timeline.contains("p1"));
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent {
            time: SimTime::from_millis(1),
            kind: TraceKind::Crashed {
                process: ProcessId(3),
            },
        };
        assert_eq!(format!("{e}"), "[1.000ms] p3 CRASH");
    }
}
