//! The four workloads. Each function builds one fresh deployment from a
//! sub-run seed, drives it until its clients are done, checks it and
//! reports a [`SubRun`]. Deployments are built only through the crates'
//! public API; every process is wrapped in [`Traced`] and every replica runs
//! the [`TimedKv`] store.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use oar::{
    AdaptiveConfig, ClientConfig, CompletedRequest, OarClient, OarConfig, OarServer,
    OpenLoopClient, ShardRouter, TxnClient, TxnCompleted,
};
use oar_apps::kv::{KvCommand, KvResponse};
use oar_rtnet::{RtNet, RunOptions};
use oar_simnet::{GroupId, NetConfig, ProcessId, SimDuration, SimRng, SimTime, World};

use crate::run::{
    check_accounting, check_adopted_once, drive, hash_completed, hash_server, majority_settled,
    server, settle_curves, SubRun,
};
use crate::trace::{drain, ns_since_origin, Sink, TimedKv, Traced, Wire};

/// The workloads: the two `BENCHMARK.json` lists, in its order, then
/// `rt-closed`, whose real-clock tail figures were too noisy on a shared
/// host to gate, and `wan-crash`, which it leaves out while the program
/// stalls on it (see `perfbench/README.md`).
pub const WORKLOADS: [&str; 4] = ["lan-steady", "shard-txn", "rt-closed", "wan-crash"];

/// Runs one sub-run of `workload`.
pub fn run(workload: &str, seed: u64) -> SubRun {
    match workload {
        "lan-steady" => lan_steady(seed),
        "wan-crash" => wan_crash(seed),
        "shard-txn" => shard_txn(seed),
        "rt-closed" => rt_closed(seed),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Whether `workload` runs on the simulator (deterministic per seed).
pub fn simulated(workload: &str) -> bool {
    workload != "rt-closed"
}

const KV_SALT: u64 = 0x5bd1_e995_0000_0001;

/// A 3:1 put/get mix over `hot_keys` keys.
fn kv_mix(rng: &mut SimRng, client: usize, n: usize, hot_keys: u64) -> Vec<KvCommand> {
    (0..n)
        .map(|i| {
            let key = format!("k{:02}", rng.int_in(0, hot_keys - 1));
            if rng.int_in(0, 3) < 3 {
                KvCommand::Put {
                    key,
                    value: format!("c{client}-{i}"),
                }
            } else {
                KvCommand::Get { key }
            }
        })
        .collect()
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

fn add_servers(
    world: &mut World<Wire>,
    ids: &[ProcessId],
    oar: OarConfig,
    sink: &Sink,
) -> Vec<ProcessId> {
    ids.iter()
        .map(|&id| {
            let s = OarServer::new(id, ids.to_vec(), oar, TimedKv::default());
            let assigned = world.add_process(Traced::new(s, id, false, sink));
            assert_eq!(assigned, id, "servers take the first process ids");
            world.assign_group(assigned, oar.group);
            assigned
        })
        .collect()
}

/// The alive, caught-up replicas of a group (the ones the propositions are
/// checked on).
fn checkable<'a>(world: &'a World<Wire>, ids: &[ProcessId]) -> Vec<&'a OarServer<TimedKv>> {
    ids.iter()
        .filter(|&&p| !world.is_crashed(p))
        .map(|&p| server(world, p))
        .filter(|s| !s.is_recovering())
        .collect()
}

/// Checks Propositions 5/2-3 (replica consistency) and 7 (external
/// consistency) for one group and its clients' completions.
fn check_group(
    world: &World<Wire>,
    ids: &[ProcessId],
    completed: &[&[CompletedRequest<KvResponse>]],
) -> Result<(), String> {
    let alive = checkable(world, ids);
    if alive.len() < ids.len() / 2 + 1 {
        return Err(format!("only {} replicas left to check", alive.len()));
    }
    oar::check_server_consistency(&alive)?;
    oar::check_external_consistency(&alive, completed)
}

/// The wrapped process at `pid`.
fn inner<P: 'static>(world: &World<Wire>, pid: ProcessId) -> &P {
    &world.process_ref::<Traced<P>>(pid).inner
}

fn all_servers<'a>(world: &'a World<Wire>, ids: &[ProcessId]) -> Vec<&'a OarServer<TimedKv>> {
    ids.iter().map(|&p| server(world, p)).collect()
}

// -- lan-steady ---------------------------------------------------------------

const LAN_CLIENTS: usize = 8;
const LAN_REQUESTS: usize = 500;
const LAN_HOT_KEYS: u64 = 16;
const LAN_WINDOW_CAP: usize = 8;
const LAN_EPOCH_CUT: u64 = 64;

/// Simulated LAN, one group of 3, 8 closed-loop clients with adaptive
/// windows, adaptive batching, epoch cuts: the failure-free hot path.
fn lan_steady(seed: u64) -> SubRun {
    let mut out = SubRun::default();
    let sink = Sink::default();
    let t0 = Instant::now();
    let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
    let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let oar = OarConfig::builder()
        .adaptive(AdaptiveConfig::default())
        .epoch_cut_after(LAN_EPOCH_CUT)
        .build();
    add_servers(&mut world, &ids, oar, &sink);
    let mut rng = SimRng::new(seed ^ KV_SALT);
    let clients: Vec<ProcessId> = (0..LAN_CLIENTS)
        .map(|c| {
            let id = ProcessId::new(ids.len() + c);
            let config = ClientConfig::builder()
                .start_delay(SimDuration::from_micros(10 * c as u64))
                .adaptive_pipeline(LAN_WINDOW_CAP)
                .build();
            let workload = kv_mix(&mut rng, c, LAN_REQUESTS, LAN_HOT_KEYS);
            let client = OarClient::<TimedKv>::new(id, ids.clone(), workload, config);
            world.add_process(Traced::new(client, id, false, &sink))
        })
        .collect();
    out.setup_s = t0.elapsed().as_secs_f64();

    let horizon = SimTime::from_secs(120);
    let client = inner::<OarClient<TimedKv>>;
    out.run_ns = drive(
        &mut world,
        64,
        |w| w.now() >= horizon || clients.iter().all(|&c| client(w, c).is_done()),
        &mut out,
    );

    let completed: Vec<Vec<CompletedRequest<KvResponse>>> = clients
        .iter()
        .map(|&c| client(&world, c).completed().to_vec())
        .collect();
    let slices: Vec<&[CompletedRequest<KvResponse>]> =
        completed.iter().map(Vec::as_slice).collect();
    out.attempted = (LAN_CLIENTS * LAN_REQUESTS) as u64;
    out.check = check_adopted_once(completed.iter().flatten().map(|r| &r.id))
        .and_then(|n| {
            out.completed = n;
            let failed: u64 = clients
                .iter()
                .map(|&c| {
                    let cl = client(&world, c);
                    if cl.is_done() {
                        0
                    } else {
                        (LAN_REQUESTS - cl.completed().len()) as u64
                    }
                })
                .sum();
            check_accounting(out.attempted, n, failed)
        })
        .and_then(|()| check_group(&world, &ids, &slices));

    let mut h = DefaultHasher::new();
    for (c, list) in completed.iter().enumerate() {
        for r in list {
            hash_completed(&mut h, c, r);
        }
    }
    for s in all_servers(&world, &ids) {
        hash_server(&mut h, s);
    }
    out.identity = h.finish();
    out.counters.add_group(&all_servers(&world, &ids));
    out.counters.client_window_peak = clients
        .iter()
        .filter_map(|&c| client(&world, c).pipeline_stats())
        .map(|s| s.window_peak)
        .max()
        .unwrap_or(0);
    out.counters.wires_sent = world.stats().sent;
    out.counters.events = world.events_processed();
    drop(world);
    out.agg = drain(&sink);

    let curves = settle_curves(&out.agg);
    let group: Vec<usize> = ids.iter().map(|p| p.index()).collect();
    for r in completed.iter().flatten() {
        out.latency_ms.push(ms(r.latency().as_micros()));
        if let Some(t) = majority_settled(&curves, &group, r.position) {
            out.settle_ms.push(ms(t - r.sent_at.as_micros()));
        }
    }
    out
}

// -- wan-crash ----------------------------------------------------------------

const WAN_REQUESTS: usize = 1500;
const WAN_INTERARRIVAL_US: u64 = 2_000;
const WAN_START_US: u64 = 1_000;
const WAN_CRASH_AT: SimTime = SimTime::from_millis(1_000);
const WAN_RESTART_AFTER: SimDuration = SimDuration::from_millis(1_000);
const WAN_FD_TIMEOUT: SimDuration = SimDuration::from_millis(100);
const WAN_EPOCH_CUT: u64 = 32;
const WAN_SNAPSHOT_EVERY: u64 = 256;

/// Simulated WAN, one group of 3, one open-loop generator below capacity;
/// the sequencer of the moment crashes at 1 s and restarts 1 s later.
fn wan_crash(seed: u64) -> SubRun {
    let mut out = SubRun::default();
    let sink = Sink::default();
    let t0 = Instant::now();
    let mut world: World<Wire> = World::new(NetConfig::wan(), seed);
    let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let oar = OarConfig::builder()
        .fd_timeout(WAN_FD_TIMEOUT)
        .epoch_cut_after(WAN_EPOCH_CUT)
        .snapshot_every(WAN_SNAPSHOT_EVERY)
        .build();
    add_servers(&mut world, &ids, oar, &sink);
    let mut rng = SimRng::new(seed ^ KV_SALT);
    let cid = ProcessId::new(ids.len());
    let generator = OpenLoopClient::<TimedKv>::new(
        cid,
        ids.clone(),
        kv_mix(&mut rng, 0, WAN_REQUESTS, LAN_HOT_KEYS),
        SimDuration::from_micros(WAN_INTERARRIVAL_US),
        ClientConfig::builder()
            .start_delay(SimDuration::from_micros(WAN_START_US))
            .build(),
    );
    world.add_process(Traced::new(generator, cid, false, &sink));
    out.setup_s = t0.elapsed().as_secs_f64();

    out.run_ns = drive(&mut world, 1, |w| w.now() >= WAN_CRASH_AT, &mut out);
    let crash_at = world.now();
    let victim = server(&world, ids[0]).current_sequencer();
    world.crash_now(victim);
    let (restart_sink, restart_ids) = (sink.clone(), ids.clone());
    world.schedule_restart(crash_at + WAN_RESTART_AFTER, victim, move || {
        let s = OarServer::recovering(victim, restart_ids, oar, TimedKv::default());
        Box::new(Traced::new(s, victim, false, &restart_sink))
    });
    let horizon = SimTime::from_secs(6);
    out.run_ns += drive(
        &mut world,
        64,
        |w| w.now() >= horizon || inner::<OpenLoopClient<TimedKv>>(w, cid).is_done(),
        &mut out,
    );

    let g = inner::<OpenLoopClient<TimedKv>>(&world, cid);
    let completed: Vec<CompletedRequest<KvResponse>> = g.completed().to_vec();
    let interarrival = WAN_INTERARRIVAL_US;
    let first_sent = completed.iter().map(|r| r.sent_at.as_micros()).min();
    let due =
        |r: &CompletedRequest<KvResponse>| first_sent.unwrap_or(0) + r.index as u64 * interarrival;
    out.counters.lateness_us = completed
        .iter()
        .map(|r| r.sent_at.as_micros().saturating_sub(due(r)))
        .max()
        .unwrap_or(0);
    out.attempted = WAN_REQUESTS as u64;
    let failed = (g.outstanding_len() + (WAN_REQUESTS - g.submitted())) as u64;
    out.check = check_adopted_once(completed.iter().map(|r| &r.id))
        .and_then(|n| {
            out.completed = n;
            check_accounting(out.attempted, n, failed)
        })
        .and_then(|()| check_group(&world, &ids, &[&completed]))
        .and_then(|()| match out.counters.lateness_us {
            0 => Ok(()),
            late => Err(format!("simulated generator ran {late} µs late")),
        });

    let mut h = DefaultHasher::new();
    for r in &completed {
        hash_completed(&mut h, 0, r);
    }
    for s in checkable(&world, &ids) {
        hash_server(&mut h, s);
    }
    out.identity = h.finish();
    out.counters.add_group(&all_servers(&world, &ids));
    out.counters.wires_sent = world.stats().sent;
    out.counters.events = world.events_processed();
    drop(world);
    out.agg = drain(&sink);

    let curves = settle_curves(&out.agg);
    let group: Vec<usize> = ids.iter().map(|p| p.index()).collect();
    let crash_us = crash_at.as_micros();
    let mut first_after_crash = None::<u64>;
    for r in &completed {
        let due = due(r);
        let done = r.completed_at.as_micros();
        out.latency_ms.push(ms(done - due));
        if let Some(t) = majority_settled(&curves, &group, r.position) {
            out.settle_ms.push(ms(t.saturating_sub(due)));
        }
        if due >= crash_us {
            first_after_crash = Some(first_after_crash.map_or(done, |f| f.min(done)));
        }
    }
    match first_after_crash {
        Some(t) => out.unavailable_ms = Some(ms(t - crash_us)),
        None => {
            out.check = out
                .check
                .and_then(|()| Err("no request due after the crash completed".into()))
        }
    }
    out
}

// -- shard-txn ------------------------------------------------------------------

const SHARD_GROUPS: usize = 4;
const SHARD_REPLICAS: usize = 3;
const SHARD_CLIENTS: usize = 8;
const SHARD_TXNS: usize = 200;
const SHARD_KEYS: u64 = 64;
const SHARD_EPOCH_CUT: u64 = 32;
const SHARD_WINDOW: usize = 2;

/// Transactions over keys owned by `router`: 40 % single-group two-key
/// writes (fast path), 30 % cross-group two-key writes, 30 % plain reads.
fn txn_mix(rng: &mut SimRng, router: &ShardRouter, client: usize) -> Vec<Vec<KvCommand>> {
    let mut by_group: Vec<Vec<String>> = vec![Vec::new(); router.num_groups()];
    for k in 0..SHARD_KEYS {
        let key = format!("k{k:02}");
        by_group[router.route_key(&key).index()].push(key);
    }
    let pick = |rng: &mut SimRng, keys: &[String]| {
        keys[rng.int_in(0, keys.len() as u64 - 1) as usize].clone()
    };
    (0..SHARD_TXNS)
        .map(|i| {
            let put = |key: String, leg: &str| KvCommand::Put {
                key,
                value: format!("c{client}-t{i}{leg}"),
            };
            let roll = rng.int_in(0, 9);
            let g = rng.int_in(0, SHARD_GROUPS as u64 - 1) as usize;
            if roll < 4 {
                let (a, b) = (pick(rng, &by_group[g]), pick(rng, &by_group[g]));
                vec![put(a, "a"), put(b, "b")]
            } else if roll < 7 {
                let h = (g + 1 + rng.int_in(0, SHARD_GROUPS as u64 - 2) as usize) % SHARD_GROUPS;
                let (a, b) = (pick(rng, &by_group[g]), pick(rng, &by_group[h]));
                vec![put(a, "a"), put(b, "b")]
            } else {
                vec![KvCommand::Get {
                    key: pick(rng, &by_group[g]),
                }]
            }
        })
        .collect()
}

/// Simulated LAN, 4 hash-partitioned groups of 3, 8 closed-loop
/// transactional clients.
fn shard_txn(seed: u64) -> SubRun {
    let mut out = SubRun::default();
    let sink = Sink::default();
    let t0 = Instant::now();
    let mut world: World<Wire> = World::new(NetConfig::lan(), seed);
    let router = ShardRouter::hash(SHARD_GROUPS);
    let groups: Vec<Vec<ProcessId>> = (0..SHARD_GROUPS)
        .map(|g| {
            let ids: Vec<ProcessId> = (0..SHARD_REPLICAS)
                .map(|r| ProcessId::new(g * SHARD_REPLICAS + r))
                .collect();
            let oar = OarConfig::builder()
                .epoch_cut_after(SHARD_EPOCH_CUT)
                .build()
                .for_group(GroupId::new(g));
            add_servers(&mut world, &ids, oar, &sink)
        })
        .collect();
    let mut rng = SimRng::new(seed ^ KV_SALT);
    let first = SHARD_GROUPS * SHARD_REPLICAS;
    let clients: Vec<ProcessId> = (0..SHARD_CLIENTS)
        .map(|c| {
            let id = ProcessId::new(first + c);
            let config = ClientConfig::builder()
                .start_delay(SimDuration::from_micros(10 * c as u64))
                .pipeline(SHARD_WINDOW)
                .build();
            let workload = txn_mix(&mut rng, &router, c);
            let client =
                TxnClient::<TimedKv>::new(id, groups.clone(), router.clone(), workload, config);
            world.add_process(Traced::new(client, id, false, &sink))
        })
        .collect();
    out.setup_s = t0.elapsed().as_secs_f64();

    let client = inner::<TxnClient<TimedKv>>;
    let horizon = SimTime::from_secs(120);
    out.run_ns = drive(
        &mut world,
        64,
        |w| w.now() >= horizon || clients.iter().all(|&c| client(w, c).is_done()),
        &mut out,
    );

    let txns: Vec<(usize, TxnCompleted<KvResponse>)> = clients
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| {
            client(&world, c)
                .completed()
                .iter()
                .map(move |t| (i, t.clone()))
        })
        .collect();
    out.attempted = (SHARD_CLIENTS * SHARD_TXNS) as u64;
    let failed = out.attempted - txns.len() as u64;
    out.check = check_adopted_once(txns.iter().map(|(_, t)| &t.id))
        .and_then(|n| {
            out.completed = n;
            check_adopted_once(
                txns.iter()
                    .flat_map(|(_, t)| t.parts.iter().map(|p| &p.request)),
            )
        })
        .and_then(|_| {
            let done = clients
                .iter()
                .filter(|&&c| client(&world, c).is_done())
                .count();
            if failed == 0 && done != clients.len() {
                return Err("every transaction committed but a client is not done".into());
            }
            check_accounting(out.attempted, out.completed, failed)
        })
        .and_then(|()| check_shards(&world, &groups, &txns));

    let mut h = DefaultHasher::new();
    for (c, t) in &txns {
        std::hash::Hash::hash(
            &(c, t.id, t.sent_at.as_micros(), t.completed_at.as_micros()),
            &mut h,
        );
        for p in &t.parts {
            std::hash::Hash::hash(&(p.group, p.request, p.position, p.epoch), &mut h);
            std::hash::Hash::hash(&format!("{:?}", p.response), &mut h);
        }
    }
    for ids in &groups {
        for s in all_servers(&world, ids) {
            hash_server(&mut h, s);
        }
        out.counters.add_group(&all_servers(&world, ids));
    }
    out.identity = h.finish();
    out.counters.txns = txns.len() as u64;
    out.counters.multi_group_txns = txns.iter().filter(|(_, t)| t.is_multi_group()).count() as u64;
    out.counters.wires_sent = world.stats().sent;
    out.counters.events = world.events_processed();
    drop(world);
    out.agg = drain(&sink);

    let curves = settle_curves(&out.agg);
    let members: Vec<Vec<usize>> = groups
        .iter()
        .map(|ids| ids.iter().map(|p| p.index()).collect())
        .collect();
    for (_, t) in &txns {
        let sent = t.sent_at.as_micros();
        out.latency_ms.push(ms(t.completed_at.as_micros() - sent));
        let settled: Option<Vec<u64>> = t
            .parts
            .iter()
            .map(|p| majority_settled(&curves, &members[p.group.index()], p.position))
            .collect();
        if let Some(last) = settled.and_then(|ts| ts.into_iter().max()) {
            out.settle_ms.push(ms(last.saturating_sub(sent)));
        }
    }
    out
}

/// Per-group replica consistency, cross-group isolation, transaction
/// atomicity, per-part external consistency and zero misroutes.
fn check_shards(
    world: &World<Wire>,
    groups: &[Vec<ProcessId>],
    txns: &[(usize, TxnCompleted<KvResponse>)],
) -> Result<(), String> {
    let mut owner = HashMap::new();
    let mut positions: Vec<Vec<HashMap<oar::RequestId, u64>>> = Vec::new();
    for (g, ids) in groups.iter().enumerate() {
        let alive = checkable(world, ids);
        oar::check_server_consistency(&alive).map_err(|e| format!("group {g}: {e}"))?;
        let misrouted: u64 = all_servers(world, ids)
            .iter()
            .map(|s| s.stats().misrouted)
            .sum();
        if misrouted != 0 {
            return Err(format!("group {g}: {misrouted} misrouted requests"));
        }
        let mut maps = Vec::new();
        for s in &alive {
            let mut at = HashMap::new();
            for (i, id) in s.committed_sequence().iter().enumerate() {
                if let Some(other) = owner.insert(*id, g) {
                    if other != g {
                        return Err(format!("{id} delivered by groups {other} and {g}"));
                    }
                }
                at.insert(*id, i as u64 + 1);
            }
            maps.push(at);
        }
        positions.push(maps);
    }
    for (c, t) in txns {
        for p in &t.parts {
            let maps = &positions[p.group.index()];
            if !maps.iter().any(|m| m.contains_key(&p.request)) {
                return Err(format!(
                    "atomicity: client {c} committed {} but {} has no trace of {}",
                    t.id, p.group, p.request
                ));
            }
            for m in maps {
                if let Some(&pos) = m.get(&p.request) {
                    if pos != p.position {
                        return Err(format!(
                            "client {c} adopted position {} for {} but a replica of {} \
                             delivered it at {pos}",
                            p.position, p.request, p.group
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

// -- rt-closed --------------------------------------------------------------------

const RT_REQUESTS: usize = 2000;
const RT_FD_TIMEOUT: SimDuration = SimDuration::from_millis(500);
const RT_EPOCH_CUT: u64 = 32;

/// Real clock: 3 replica threads and one closed-loop client thread with
/// one outstanding request, no injected delay.
fn rt_closed(seed: u64) -> SubRun {
    let mut out = SubRun::default();
    let sink = Sink::default();
    let t0 = Instant::now();
    let mut net: RtNet<Wire> = RtNet::new(seed);
    let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let oar = OarConfig::builder()
        .fd_timeout(RT_FD_TIMEOUT)
        .epoch_cut_after(RT_EPOCH_CUT)
        .build();
    for &id in &ids {
        let s = OarServer::new(id, ids.clone(), oar, TimedKv::default());
        net.add_process(Traced::new(s, id, true, &sink));
    }
    let mut rng = SimRng::new(seed ^ KV_SALT);
    let cid = ProcessId::new(ids.len());
    let workload = kv_mix(&mut rng, 0, RT_REQUESTS, LAN_HOT_KEYS);
    let client = OarClient::<TimedKv>::new(cid, ids.clone(), workload, ClientConfig::default());
    net.add_process_until(
        Traced::new(client, cid, true, &sink),
        |c: &Traced<OarClient<TimedKv>>| c.inner.is_done(),
    );
    let build_ns = ns_since_origin(t0);
    let a0 = crate::alloc::thread_allocs();
    let report = net.run(RunOptions {
        max_wall: Duration::from_secs(60),
        grace: Duration::from_millis(20),
        poll: Duration::from_millis(2),
    });
    out.allocs = crate::alloc::thread_allocs() - a0;

    let servers: Vec<&OarServer<TimedKv>> = ids
        .iter()
        .map(|&p| &report.process_ref::<Traced<OarServer<TimedKv>>>(p).inner)
        .collect();
    let cl = &report.process_ref::<Traced<OarClient<TimedKv>>>(cid).inner;
    let completed = cl.completed().to_vec();
    out.attempted = RT_REQUESTS as u64;
    let failed = out.attempted - completed.len() as u64;
    out.check = check_adopted_once(completed.iter().map(|r| &r.id))
        .and_then(|n| {
            out.completed = n;
            if report.completed != cl.is_done() || (failed == 0) != cl.is_done() {
                return Err("client done probe disagrees with its completions".into());
            }
            check_accounting(out.attempted, n, failed)
        })
        .and_then(|()| {
            let alive: Vec<&OarServer<TimedKv>> = servers
                .iter()
                .copied()
                .filter(|s| !s.is_recovering())
                .collect();
            oar::check_server_consistency(&alive)?;
            oar::check_external_consistency(&alive, &[&completed])
        });
    out.counters.add_group(&servers);
    drop(report);
    out.agg = drain(&sink);

    let start = out.agg.first_event_ns.unwrap_or(build_ns);
    out.setup_s = (start - ns_since_origin(t0)) as f64 / 1e9;
    let done = out.agg.completions.clone();
    let last = done.last().copied().unwrap_or(start);
    out.run_ns = last.saturating_sub(start);
    out.wall_ns = out.run_ns;
    let busy = |p: &ProcessId| out.agg.busy_by_pid.get(&p.index()).copied().unwrap_or(0);
    out.busiest_server_ns = ids.iter().map(busy).max().unwrap_or(0);
    out.client_busy_ns = busy(&cid);
    out.tick_ms = 1e-6;
    let curves = settle_curves(&out.agg);
    let group: Vec<usize> = ids.iter().map(|p| p.index()).collect();
    let mut due = start;
    for (r, &t) in completed.iter().zip(&done) {
        out.latency_ms.push((t - due) as f64 / 1e6);
        if let Some(s) = majority_settled(&curves, &group, r.position) {
            out.settle_ms.push(s.saturating_sub(due) as f64 / 1e6);
        }
        due = t;
    }
    out
}
