//! # oar-fd — heartbeat failure detector
//!
//! The OAR algorithm relies on an unreliable failure detector in two places:
//!
//! * **Task 1c** (Fig. 6, line 20): a server that suspects the sequencer
//!   R-broadcasts `(k, PhaseII)` to move the group to the conservative phase;
//! * the **consensus oracle** (§3): the Chandra–Toueg consensus used by
//!   `Cnsv-order` is solvable with ♦S and a majority of correct processes.
//!
//! This crate implements the standard heartbeat/timeout construction: every
//! process periodically sends a heartbeat to every other process of the group
//! and suspects a process from which it has not heard for `timeout`. In the
//! simulated asynchronous-but-eventually-timely network this detector is
//! complete (crashed processes are eventually suspected by everyone) and
//! eventually accurate once message delays stabilise below the timeout — i.e.
//! it behaves like ♦S, and like a real LAN detector it can *wrongly* suspect
//! slow processes, which is exactly the behaviour the OAR paper is designed to
//! tolerate (wrong suspicions cost performance, never consistency).
//!
//! For experiments, wrong suspicions can also be injected directly with
//! [`HeartbeatFd::force_suspect`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

use oar_channels::Outgoing;
use oar_sequence::IdMap;
use oar_simnet::{ProcessId, SimDuration, SimTime};

/// Wire messages of the failure detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdWire {
    /// "I am alive."
    Heartbeat,
}

/// A change in the suspect set, reported to the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdEvent {
    /// The process is now suspected.
    Suspect(ProcessId),
    /// The process is no longer suspected (a message from it arrived after it
    /// had been suspected — a *wrong* suspicion was corrected).
    Restore(ProcessId),
}

/// Configuration of the heartbeat failure detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FdConfig {
    /// Interval between two heartbeats sent to every peer.
    pub heartbeat_interval: SimDuration,
    /// A peer silent for longer than this is suspected.
    pub timeout: SimDuration,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            heartbeat_interval: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(25),
        }
    }
}

impl FdConfig {
    /// A configuration with the given timeout and a heartbeat interval of one
    /// fifth of it.
    pub fn with_timeout(timeout: SimDuration) -> Self {
        FdConfig {
            heartbeat_interval: SimDuration::from_micros((timeout.as_micros() / 5).max(1)),
            timeout,
        }
    }
}

/// Heartbeat-based failure detector monitoring the members of a group.
///
/// The host drives it by calling [`HeartbeatFd::on_tick`] periodically (at
/// least as often as `heartbeat_interval`) and [`HeartbeatFd::on_wire`] /
/// [`HeartbeatFd::observe_traffic`] when messages arrive.
#[derive(Clone, Debug)]
pub struct HeartbeatFd {
    self_id: ProcessId,
    group: Vec<ProcessId>,
    config: FdConfig,
    last_heard: IdMap<ProcessId, SimTime>,
    last_heartbeat_sent: Option<SimTime>,
    suspected: BTreeSet<ProcessId>,
    started_at: Option<SimTime>,
}

impl HeartbeatFd {
    /// Creates a detector for process `self_id` monitoring `group`.
    pub fn new(self_id: ProcessId, group: Vec<ProcessId>, config: FdConfig) -> Self {
        HeartbeatFd {
            self_id,
            group,
            config,
            last_heard: IdMap::default(),
            last_heartbeat_sent: None,
            suspected: BTreeSet::new(),
            started_at: None,
        }
    }

    /// The current suspect set (the paper's `D_p`).
    pub fn suspects(&self) -> &BTreeSet<ProcessId> {
        &self.suspected
    }

    /// Returns `true` if `p` is currently suspected.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected.contains(&p)
    }

    /// The detector configuration.
    pub fn config(&self) -> FdConfig {
        self.config
    }

    /// Records that a (protocol or heartbeat) message from `from` was received
    /// at `now`; any suspicion of `from` is revoked.
    ///
    /// Counting protocol traffic as liveness evidence keeps the detector quiet
    /// on busy links, exactly like practical implementations do.
    pub fn observe_traffic(&mut self, from: ProcessId, now: SimTime) -> Vec<FdEvent> {
        if from == self.self_id || !self.group.contains(&from) {
            return Vec::new();
        }
        self.last_heard.insert(from, now);
        if self.suspected.remove(&from) {
            vec![FdEvent::Restore(from)]
        } else {
            Vec::new()
        }
    }

    /// Handles a failure-detector wire message.
    pub fn on_wire(&mut self, from: ProcessId, _wire: FdWire, now: SimTime) -> Vec<FdEvent> {
        self.observe_traffic(from, now)
    }

    /// Periodic maintenance: sends heartbeats when due and re-evaluates
    /// timeouts. Returns the heartbeats to send and any suspicion changes.
    pub fn on_tick(&mut self, now: SimTime) -> (Vec<Outgoing<FdWire>>, Vec<FdEvent>) {
        if self.started_at.is_none() {
            self.started_at = Some(now);
            // Give every peer a full timeout of grace from startup.
            for &p in &self.group {
                if p != self.self_id {
                    self.last_heard.entry(p).or_insert(now);
                }
            }
        }

        let mut out = Vec::new();
        let due = match self.last_heartbeat_sent {
            None => true,
            Some(at) => now.duration_since(at) >= self.config.heartbeat_interval,
        };
        if due {
            self.last_heartbeat_sent = Some(now);
            for &p in &self.group {
                if p != self.self_id {
                    out.push(Outgoing::new(p, FdWire::Heartbeat));
                }
            }
        }

        let mut events = Vec::new();
        for &p in &self.group {
            if p == self.self_id || self.suspected.contains(&p) {
                continue;
            }
            let heard = self.last_heard.get(&p).copied().unwrap_or(now);
            if now.duration_since(heard) >= self.config.timeout {
                self.suspected.insert(p);
                events.push(FdEvent::Suspect(p));
            }
        }
        (out, events)
    }

    /// Replaces monitored member `old` by `new` in place (membership
    /// reconfiguration, `Reconfig::Replace`). The fenced-out replica is
    /// scrubbed entirely: it leaves the heartbeat targets, the suspect set
    /// and the liveness table, so a permanently dead process is no longer
    /// re-pinged forever. The newcomer starts with a full timeout of grace
    /// from `now`, like a peer at startup. Returns whether `old` was a
    /// member (the slot order of the survivors is preserved).
    pub fn replace_member(&mut self, old: ProcessId, new: ProcessId, now: SimTime) -> bool {
        let Some(slot) = self.group.iter().position(|&p| p == old) else {
            return false;
        };
        self.group[slot] = new;
        self.suspected.remove(&old);
        self.last_heard.remove(&old);
        if new != self.self_id {
            self.last_heard.insert(new, now);
        }
        true
    }

    /// Forces `p` into the suspect set (wrong-suspicion injection for
    /// experiments). Returns the corresponding event if `p` was not already
    /// suspected.
    pub fn force_suspect(&mut self, p: ProcessId) -> Option<FdEvent> {
        if p == self.self_id || !self.group.contains(&p) {
            return None;
        }
        if self.suspected.insert(p) {
            Some(FdEvent::Suspect(p))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);
    const P2: ProcessId = ProcessId::new(2);

    fn group() -> Vec<ProcessId> {
        vec![P0, P1, P2]
    }

    fn config() -> FdConfig {
        FdConfig {
            heartbeat_interval: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(20),
        }
    }

    #[test]
    fn heartbeats_are_sent_periodically() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        let (hb1, _) = fd.on_tick(SimTime::from_millis(0));
        assert_eq!(hb1.len(), 2);
        // too early: no new heartbeats
        let (hb2, _) = fd.on_tick(SimTime::from_millis(2));
        assert!(hb2.is_empty());
        let (hb3, _) = fd.on_tick(SimTime::from_millis(5));
        assert_eq!(hb3.len(), 2);
    }

    #[test]
    fn silent_peer_is_suspected_after_timeout() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        fd.on_tick(SimTime::from_millis(0));
        // p1 keeps talking, p2 stays silent
        fd.on_wire(P1, FdWire::Heartbeat, SimTime::from_millis(10));
        let (_, events) = fd.on_tick(SimTime::from_millis(21));
        assert_eq!(events, vec![FdEvent::Suspect(P2)]);
        assert!(fd.is_suspected(P2));
        assert!(!fd.is_suspected(P1));
        // no duplicate suspicion events
        let (_, events) = fd.on_tick(SimTime::from_millis(30));
        assert!(events.iter().all(|e| *e != FdEvent::Suspect(P2)));
    }

    #[test]
    fn wrong_suspicion_is_corrected_on_new_traffic() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        fd.on_tick(SimTime::from_millis(0));
        let (_, events) = fd.on_tick(SimTime::from_millis(25));
        assert!(events.contains(&FdEvent::Suspect(P1)));
        let events = fd.on_wire(P1, FdWire::Heartbeat, SimTime::from_millis(26));
        assert_eq!(events, vec![FdEvent::Restore(P1)]);
        assert!(!fd.is_suspected(P1));
    }

    #[test]
    fn protocol_traffic_counts_as_liveness() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        fd.on_tick(SimTime::from_millis(0));
        fd.observe_traffic(P2, SimTime::from_millis(15));
        let (_, events) = fd.on_tick(SimTime::from_millis(25));
        assert!(events.contains(&FdEvent::Suspect(P1)));
        assert!(!events.contains(&FdEvent::Suspect(P2)));
    }

    #[test]
    fn traffic_from_strangers_and_self_is_ignored() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        fd.on_tick(SimTime::ZERO);
        assert!(fd.observe_traffic(P0, SimTime::from_millis(1)).is_empty());
        assert!(fd
            .observe_traffic(ProcessId::new(9), SimTime::from_millis(1))
            .is_empty());
    }

    #[test]
    fn force_suspect_injects_wrong_suspicion() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        assert_eq!(fd.force_suspect(P1), Some(FdEvent::Suspect(P1)));
        assert_eq!(fd.force_suspect(P1), None);
        assert_eq!(fd.force_suspect(P0), None);
        assert_eq!(fd.force_suspect(ProcessId::new(9)), None);
        assert!(fd.is_suspected(P1));
    }

    #[test]
    fn grace_period_at_startup() {
        let mut fd = HeartbeatFd::new(P0, group(), config());
        // first tick at a late absolute time: peers get a full timeout of grace
        let (_, events) = fd.on_tick(SimTime::from_secs(10));
        assert!(events.is_empty());
        let (_, events) = fd.on_tick(SimTime::from_secs(10) + SimDuration::from_millis(19));
        assert!(events.is_empty());
        let (_, events) = fd.on_tick(SimTime::from_secs(10) + SimDuration::from_millis(21));
        assert_eq!(events.len(), 2);
    }

    /// Regression: before membership reconfiguration existed, a permanently
    /// dead replica stayed in the group forever — re-pinged on every tick and
    /// pinned in the suspect set. `replace_member` must scrub it entirely and
    /// admit the newcomer with startup grace.
    #[test]
    fn replace_member_scrubs_fenced_replica() {
        const P3: ProcessId = ProcessId::new(3);
        let mut fd = HeartbeatFd::new(P0, group(), config());
        fd.on_tick(SimTime::from_millis(0));
        let (_, events) = fd.on_tick(SimTime::from_millis(25));
        assert!(events.contains(&FdEvent::Suspect(P2)));
        assert!(fd.replace_member(P2, P3, SimTime::from_millis(25)));
        // The fenced replica is gone from the suspect set and from the
        // heartbeat targets; the newcomer is pinged instead.
        assert!(!fd.is_suspected(P2));
        let (hb, events) = fd.on_tick(SimTime::from_millis(30));
        let targets: Vec<ProcessId> = hb.iter().map(|o| o.to).collect();
        assert!(
            !targets.contains(&P2),
            "fenced replica must not be re-pinged"
        );
        assert!(targets.contains(&P3));
        assert!(events.is_empty());
        // Grace period: the newcomer is only suspected a full timeout after
        // the reconfiguration, not instantly.
        let (_, events) = fd.on_tick(SimTime::from_millis(44));
        assert!(!events.contains(&FdEvent::Suspect(P3)));
        let (_, events) = fd.on_tick(SimTime::from_millis(46));
        assert!(events.contains(&FdEvent::Suspect(P3)));
        // Stale traffic from the fenced replica is ignored again.
        assert!(fd.observe_traffic(P2, SimTime::from_millis(47)).is_empty());
        // Replacing a non-member is a no-op.
        assert!(!fd.replace_member(P2, ProcessId::new(9), SimTime::from_millis(48)));
    }

    #[test]
    fn with_timeout_derives_interval() {
        let cfg = FdConfig::with_timeout(SimDuration::from_millis(50));
        assert_eq!(cfg.timeout, SimDuration::from_millis(50));
        assert_eq!(cfg.heartbeat_interval, SimDuration::from_millis(10));
    }
}
