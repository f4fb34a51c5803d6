//! The failure-free request path never deep-copies a request.
//!
//! A request is allocated once by its client and shared from then on: the
//! R-multicast wires and relays, the servers' payload maps, the Opt-deliver
//! and A-deliver batches and the settled log all hold the same `Arc`. This
//! test runs a 3-replica cluster over a command type whose `Clone` bumps a
//! counter and checks that no command is copied between the client's send
//! and the settlement of every request. Only a `Redirect` re-send (sharded
//! deployments, after a key range migrated) still copies a command.

use std::cell::Cell;

use oar::cluster::{Cluster, ClusterConfig};
use oar::{OarConfig, StateMachine};
use oar_simnet::{SimDuration, SimTime};

thread_local! {
    /// Deep copies of [`CountedAdd`] made on this thread.
    static COPIES: Cell<u64> = const { Cell::new(0) };
}

fn copies() -> u64 {
    COPIES.with(Cell::get)
}

/// An "add to the counter" command that counts its own deep copies.
#[derive(Debug, PartialEq)]
struct CountedAdd(i64);

impl Clone for CountedAdd {
    fn clone(&self) -> Self {
        COPIES.with(|c| c.set(c.get() + 1));
        CountedAdd(self.0)
    }
}

/// A counter machine over [`CountedAdd`].
#[derive(Debug, Default)]
struct Counter {
    total: i64,
}

impl StateMachine for Counter {
    type Command = CountedAdd;
    type Response = i64;
    type Undo = i64;

    fn apply(&mut self, command: &CountedAdd) -> (i64, i64) {
        self.total += command.0;
        (self.total, command.0)
    }

    fn undo(&mut self, token: i64) {
        self.total -= token;
    }

    fn digest(&self) -> u64 {
        self.total as u64
    }
}

const CLIENTS: usize = 3;
const REQUESTS: usize = 60;

#[test]
fn failure_free_path_never_deep_copies_a_request() {
    let config = ClusterConfig {
        num_servers: 3,
        num_clients: CLIENTS,
        // Epochs are cut every 12 deliveries; the anti-entropy loop cuts the
        // idle tail epoch too, so every request ends up settled.
        oar: OarConfig::builder()
            .max_batch(4)
            .epoch_cut_after(12)
            .anti_entropy()
            .build(),
        client_pipeline: 4,
        ..ClusterConfig::default()
    };
    let mut cluster: Cluster<Counter> = Cluster::build(&config, Counter::default, |c| {
        (0..REQUESTS)
            .map(|i| CountedAdd((c * REQUESTS + i) as i64))
            .collect()
    });
    let before = copies();
    assert!(
        cluster.run_to_completion(SimTime::from_secs(60)),
        "run did not finish"
    );
    let settle_by = cluster.world.now() + SimDuration::from_millis(500);
    cluster.world.run_until(settle_by);
    let total = (CLIENTS * REQUESTS) as u64;
    for i in 0..config.num_servers {
        assert_eq!(cluster.server(i).total_settled(), total, "server {i}");
    }
    let made = copies() - before;
    assert_eq!(
        made,
        0,
        "{made} deep copies of a command for {total} requests ({:.1} per request)",
        made as f64 / total as f64
    );
    // The run is a normal one otherwise.
    assert_eq!(cluster.completed_requests().len(), total as usize);
    cluster.check_replica_consistency().unwrap();
    cluster.check_external_consistency().unwrap();
}
