//! Network state: link overrides, partitions, per-link FIFO clocks.

use std::collections::HashMap;

use crate::config::{LinkConfig, NetConfig};
use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The state of the simulated network: which links have custom behaviour,
/// which partition (if any) is installed, and the per-link FIFO delivery
/// horizon used to keep channels FIFO.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetConfig,
    link_overrides: HashMap<(ProcessId, ProcessId), LinkConfig>,
    /// `partition_of[p]` = group index of process `p`, or `None` if no
    /// partition is installed.
    partition_of: Option<HashMap<ProcessId, usize>>,
    /// Earliest time the next message on each ordered link may be delivered
    /// (enforces FIFO when `config.fifo_links` is set), indexed
    /// `[from][to]` and grown on first use of a link.
    fifo_horizon: Vec<Vec<SimTime>>,
}

/// The decision the network takes for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Deliver after the given latency.
    Deliver(SimDuration),
    /// Deliver twice (duplicate), after the two given latencies.
    DeliverDuplicated(SimDuration, SimDuration),
    /// Drop because of random loss.
    DropLoss,
    /// Hold until the partition heals (DeliverOnHeal mode).
    HoldForHeal,
    /// Drop because of the partition (Drop mode).
    DropPartitioned,
}

impl Network {
    /// Creates the network from its configuration.
    pub fn new(config: NetConfig) -> Self {
        Network {
            config,
            link_overrides: HashMap::new(),
            partition_of: None,
            fifo_horizon: Vec::new(),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Overrides the behaviour of the ordered link `from → to`.
    pub fn set_link(&mut self, from: ProcessId, to: ProcessId, link: LinkConfig) {
        self.link_overrides.insert((from, to), link);
    }

    /// Overrides the behaviour of both directions between `a` and `b`.
    pub fn set_link_bidirectional(&mut self, a: ProcessId, b: ProcessId, link: LinkConfig) {
        self.set_link(a, b, link);
        self.set_link(b, a, link);
    }

    /// Removes all link overrides.
    pub fn clear_link_overrides(&mut self) {
        self.link_overrides.clear();
    }

    /// Installs a partition: processes can only communicate within their
    /// group. Processes not listed in any group form an implicit extra group.
    pub fn install_partition(&mut self, groups: &[Vec<ProcessId>]) {
        let mut map = HashMap::new();
        for (idx, group) in groups.iter().enumerate() {
            for &p in group {
                map.insert(p, idx);
            }
        }
        self.partition_of = Some(map);
    }

    /// Removes any installed partition.
    pub fn heal_partition(&mut self) {
        self.partition_of = None;
    }

    /// Returns `true` if a partition is currently installed.
    pub fn is_partitioned(&self) -> bool {
        self.partition_of.is_some()
    }

    /// Returns `true` if `from` and `to` can currently communicate.
    pub fn connected(&self, from: ProcessId, to: ProcessId) -> bool {
        match &self.partition_of {
            None => true,
            Some(map) => {
                if from == to {
                    return true;
                }
                let unlisted = usize::MAX;
                let gf = map.get(&from).copied().unwrap_or(unlisted);
                let gt = map.get(&to).copied().unwrap_or(unlisted);
                gf == gt
            }
        }
    }

    fn link(&self, from: ProcessId, to: ProcessId) -> LinkConfig {
        self.link_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.config.default_link)
    }

    /// Samples the one-way latency of the `from → to` link.
    pub fn sample_latency(&self, from: ProcessId, to: ProcessId, rng: &mut SimRng) -> SimDuration {
        if from == to {
            self.config.local_latency
        } else {
            self.link(from, to).latency.sample(rng)
        }
    }

    /// Decides what happens to a message sent at `now` on `from → to`.
    pub fn route(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: ProcessId,
        rng: &mut SimRng,
    ) -> Routing {
        use crate::config::PartitionMode;

        if !self.connected(from, to) {
            return match self.config.partition_mode {
                PartitionMode::Drop => Routing::DropPartitioned,
                PartitionMode::DeliverOnHeal => Routing::HoldForHeal,
            };
        }
        let link = self.link(from, to);
        if from != to && rng.chance(link.drop_probability) {
            return Routing::DropLoss;
        }
        let latency = self.fifo_adjust(now, from, to, self.sample_latency(from, to, rng));
        if from != to && rng.chance(link.duplicate_probability) {
            let second = self.fifo_adjust(now, from, to, self.sample_latency(from, to, rng));
            return Routing::DeliverDuplicated(latency, second);
        }
        Routing::Deliver(latency)
    }

    /// Adjusts a sampled latency so that deliveries on a FIFO link never
    /// overtake earlier deliveries, and advances the link's FIFO horizon.
    fn fifo_adjust(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: ProcessId,
        latency: SimDuration,
    ) -> SimDuration {
        if !self.config.fifo_links {
            return latency;
        }
        let arrival = now + latency;
        if self.fifo_horizon.len() <= from.0 {
            self.fifo_horizon.resize_with(from.0 + 1, Vec::new);
        }
        let row = &mut self.fifo_horizon[from.0];
        if row.len() <= to.0 {
            row.resize(to.0 + 1, SimTime::ZERO);
        }
        let horizon = &mut row[to.0];
        let arrival = arrival.max(*horizon);
        *horizon = arrival;
        arrival - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, PartitionMode};

    fn net(fifo: bool) -> Network {
        let mut cfg = NetConfig::lan();
        cfg.fifo_links = fifo;
        Network::new(cfg)
    }

    #[test]
    fn connected_without_partition() {
        let n = net(true);
        assert!(n.connected(ProcessId(0), ProcessId(1)));
        assert!(!n.is_partitioned());
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut n = net(true);
        n.install_partition(&[vec![ProcessId(0)], vec![ProcessId(1), ProcessId(2)]]);
        assert!(n.is_partitioned());
        assert!(!n.connected(ProcessId(0), ProcessId(1)));
        assert!(n.connected(ProcessId(1), ProcessId(2)));
        assert!(n.connected(ProcessId(0), ProcessId(0)));
        // unlisted processes form their own implicit group
        assert!(n.connected(ProcessId(7), ProcessId(8)));
        assert!(!n.connected(ProcessId(7), ProcessId(0)));
        n.heal_partition();
        assert!(n.connected(ProcessId(0), ProcessId(1)));
    }

    #[test]
    fn routing_respects_partition_mode() {
        let mut cfg = NetConfig::lan();
        cfg.partition_mode = PartitionMode::Drop;
        let mut n = Network::new(cfg);
        n.install_partition(&[vec![ProcessId(0)], vec![ProcessId(1)]]);
        let mut rng = SimRng::new(1);
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng),
            Routing::DropPartitioned
        );

        let mut cfg = NetConfig::lan();
        cfg.partition_mode = PartitionMode::DeliverOnHeal;
        let mut n = Network::new(cfg);
        n.install_partition(&[vec![ProcessId(0)], vec![ProcessId(1)]]);
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng),
            Routing::HoldForHeal
        );
    }

    #[test]
    fn lossy_link_drops_messages() {
        let mut cfg = NetConfig::lan();
        cfg.default_link.drop_probability = 1.0;
        let mut n = Network::new(cfg);
        let mut rng = SimRng::new(2);
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng),
            Routing::DropLoss
        );
        // self-messages are never dropped
        assert!(matches!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(0), &mut rng),
            Routing::Deliver(_)
        ));
    }

    #[test]
    fn fifo_links_never_reorder() {
        let mut cfg = NetConfig::lan();
        cfg.default_link.latency = LatencyModel::Uniform {
            min: SimDuration::from_micros(10),
            max: SimDuration::from_micros(1_000),
        };
        cfg.fifo_links = true;
        let mut n = Network::new(cfg);
        let mut rng = SimRng::new(3);
        let mut last_arrival = SimTime::ZERO;
        for i in 0..200u64 {
            let now = SimTime::from_micros(i * 5);
            if let Routing::Deliver(lat) = n.route(now, ProcessId(0), ProcessId(1), &mut rng) {
                let arrival = now + lat;
                assert!(arrival >= last_arrival, "FIFO violated at message {i}");
                last_arrival = arrival;
            } else {
                panic!("expected delivery");
            }
        }
    }

    #[test]
    fn link_override_changes_latency() {
        let mut cfg = NetConfig::constant(SimDuration::from_micros(100));
        cfg.fifo_links = false;
        let mut n = Network::new(cfg);
        n.set_link_bidirectional(
            ProcessId(0),
            ProcessId(1),
            LinkConfig::reliable(LatencyModel::Constant(SimDuration::from_millis(5))),
        );
        let mut rng = SimRng::new(4);
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng),
            Routing::Deliver(SimDuration::from_millis(5))
        );
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(1), ProcessId(0), &mut rng),
            Routing::Deliver(SimDuration::from_millis(5))
        );
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(2), &mut rng),
            Routing::Deliver(SimDuration::from_micros(100))
        );
        n.clear_link_overrides();
        assert_eq!(
            n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng),
            Routing::Deliver(SimDuration::from_micros(100))
        );
    }

    #[test]
    fn duplication_returns_two_latencies() {
        let mut cfg = NetConfig::constant(SimDuration::from_micros(100));
        cfg.default_link.duplicate_probability = 1.0;
        cfg.fifo_links = false;
        let mut n = Network::new(cfg);
        let mut rng = SimRng::new(5);
        match n.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &mut rng) {
            Routing::DeliverDuplicated(a, b) => {
                assert_eq!(a, SimDuration::from_micros(100));
                assert_eq!(b, SimDuration::from_micros(100));
            }
            other => panic!("expected duplication, got {other:?}"),
        }
    }
}
