//! The OAR benchmark: one command, four workloads, end-to-end metrics with
//! tracing off (`--trace 0`) and per-layer metrics from a traced run
//! (`--trace 1`). See `perfbench/README.md` for every metric's definition.
//!
//! ```text
//! perfbench --workload <lan-steady|shard-txn|rt-closed|wan-crash> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --selftest [--seconds <s>]
//! ```
//!
//! A run repeats fresh sub-runs (each one deployment driven to completion,
//! seeded from `--seed` and its index) until `--seconds` of host time have
//! passed. The last line of standard output is one JSON object; the exit
//! code is 1 when any correctness check failed.

mod alloc;
mod run;
mod trace;
mod workloads;

use std::io::Write as _;
use std::time::{Duration, Instant};

use run::{Counters, SubRun};
use trace::{KindStat, APPLY, KINDS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Sub-runs a run makes even when `--seconds` has passed.
const MIN_SUBRUNS: u64 = 3;

/// Spans kept from a traced run and written to `perfbench/traces/`.
const SPAN_CAP: usize = 50_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.selftest && !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The seed of sub-run `index` of a run seeded with `seed`.
fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 31;
    x.wrapping_mul(0x94D0_49BB_1331_11EB) | 1
}

/// Quantile of readings of a clock that ticks every `tick`: each reading
/// stands for the interval `[x - tick/2, x + tick/2)`, and readings that tie
/// are spread evenly over it. Simulated times tick in whole µs, so many
/// samples tie; this keeps the quantile from snapping to the same tick on
/// every run while staying within half a tick of the plain quantile.
fn tick_quantile(v: &mut [f64], q: f64, tick: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * v.len() as f64;
    let x = v[(pos as usize).min(v.len() - 1)];
    let lo = v.partition_point(|&y| y < x - tick / 2.0);
    let hi = v.partition_point(|&y| y < x + tick / 2.0);
    let within = ((pos - lo as f64) / (hi - lo) as f64).clamp(0.0, 1.0);
    x - tick / 2.0 + within * tick
}

/// Completed operations per host second of a run: the fastest sub-run's on
/// the simulator, the median sub-run's on the real clock.
///
/// A simulated sub-run does work fixed by its seed, so other load on a
/// shared host can only slow it. On a shared 2-vCPU host the speed drifted
/// by a quarter between 20 s runs: the median sub-run followed that drift
/// (spread 0.26 of its median over five runs) while the fastest moved by
/// less than a tenth. A real-clock sub-run varies by itself with how its
/// threads are scheduled, so its fastest is an outlier of that (spread up
/// to 0.3) and the median is steadier.
fn throughput(v: &[f64], simulated: bool) -> f64 {
    if simulated {
        v.iter().copied().fold(f64::NAN, f64::max)
    } else {
        tick_quantile(&mut v.to_vec(), 0.5, 1e-9)
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// Totals over the sub-runs of one mode. Timings are kept per sub-run and
/// reported as a percentile over the sub-runs, so a host slowdown that hits
/// some of them does not move the result.
#[derive(Default)]
struct Totals {
    subruns: usize,
    attempted: u64,
    completed: u64,
    run_ns: u64,
    setup_s: Vec<f64>,
    throughput: Vec<f64>,
    latency_p50: Vec<f64>,
    latency_p99: Vec<f64>,
    settle_p50: Vec<f64>,
    settle_p99: Vec<f64>,
    unavailable_ms: Vec<f64>,
    latency_n: Vec<usize>,
    tick_ms: f64,
    settle_n: Vec<usize>,
    allocs: u64,
    failures: Vec<String>,
    kinds: [KindStat; KINDS.len()],
    step_ns: u64,
    wall_ns: u64,
    busiest_server_ns: u64,
    client_busy_ns: u64,
    counters: Counters,
}

impl Totals {
    fn add(&mut self, sub: &mut SubRun) {
        self.subruns += 1;
        self.attempted += sub.attempted;
        self.completed += sub.completed;
        self.run_ns += sub.run_ns;
        self.setup_s.push(sub.setup_s);
        self.throughput
            .push(sub.completed as f64 / (sub.run_ns.max(1) as f64 / 1e9));
        self.tick_ms = sub.tick_ms;
        let tick = sub.tick_ms;
        self.latency_p50
            .push(tick_quantile(&mut sub.latency_ms, 0.5, tick));
        self.latency_p99
            .push(tick_quantile(&mut sub.latency_ms, 0.99, tick));
        self.latency_n.push(sub.latency_ms.len());
        self.settle_p50
            .push(tick_quantile(&mut sub.settle_ms, 0.5, tick));
        self.settle_p99
            .push(tick_quantile(&mut sub.settle_ms, 0.99, tick));
        self.settle_n.push(sub.settle_ms.len());
        self.unavailable_ms.extend(sub.unavailable_ms);
        self.allocs += sub.allocs;
        if let Err(e) = &sub.check {
            self.failures.push(e.clone());
        }
        for (a, b) in self.kinds.iter_mut().zip(sub.agg.kinds.iter()) {
            a.count += b.count;
            a.busy_ns += b.busy_ns;
            a.allocs += b.allocs;
        }
        self.step_ns += sub.step_ns;
        self.wall_ns += sub.wall_ns;
        self.busiest_server_ns += sub.busiest_server_ns;
        self.client_busy_ns += sub.client_busy_ns;
        self.counters.add(&sub.counters);
    }

    fn throughput(&self, simulated: bool) -> f64 {
        throughput(&self.throughput, simulated)
    }

    fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// The end-to-end metrics. Times are medians over the sub-runs of each
    /// sub-run's percentile. `setup_s` is the fastest sub-run's set-up: it
    /// spread by 0.05 to 0.11 of its median over five runs, the median
    /// set-up by 0.25 to 0.41.
    fn end_to_end(&self, simulated: bool) -> Vec<Metric> {
        let n = self.subruns;
        let time = |v: &Vec<f64>| tick_quantile(&mut v.clone(), 0.5, self.tick_ms);
        let mut m = vec![
            metric(
                "setup_s",
                self.setup_s.iter().copied().fold(f64::NAN, f64::min),
                "s",
                n,
            ),
            metric("throughput_rps", self.throughput(simulated), "ops/s", n),
            metric("latency_p50_ms", time(&self.latency_p50), "ms", n),
            metric("latency_p99_ms", time(&self.latency_p99), "ms", n),
            metric("settle_p50_ms", time(&self.settle_p50), "ms", n),
            metric("settle_p99_ms", time(&self.settle_p99), "ms", n),
            metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        ];
        if !self.unavailable_ms.is_empty() {
            let u = time(&self.unavailable_ms);
            m.push(metric("unavailable_ms", u, "ms", self.unavailable_ms.len()));
        }
        m
    }

    fn per_layer(&self, untraced: &Totals, simulated: bool) -> Vec<Metric> {
        let ops = self.completed.max(1) as f64;
        let n = self.subruns;
        let mut m = Vec::new();
        let mut callback_ns = 0;
        for (name, k) in KINDS.iter().zip(self.kinds.iter()) {
            m.push(metric(&format!("{name}.count"), k.count as f64, "count", n));
            m.push(metric(
                &format!("{name}.busy_ns"),
                k.busy_ns as f64,
                "ns",
                n,
            ));
            m.push(metric(
                &format!("{name}.allocs"),
                k.allocs as f64,
                "count",
                n,
            ));
            callback_ns += k.busy_ns;
        }
        let count = |name: &str| {
            let i = KINDS.iter().position(|&k| k == name).expect("known kind");
            self.kinds[i].count as f64
        };
        let c = &self.counters;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let overhead = 1.0 - self.throughput(simulated) / untraced.throughput(simulated);
        // The backend's own layer: the simulator's event loop, or the
        // real-clock threads. Each is printed on its own backend only.
        if simulated {
            let self_ns = self.step_ns.saturating_sub(callback_ns);
            let accounted = (callback_ns + self_ns) as f64 / self.run_ns.max(1) as f64;
            m.extend([
                metric("simnet.events", c.events as f64, "count", n),
                metric("simnet.self_ns", self_ns as f64, "ns", n),
                metric(
                    "simnet.wires_per_op",
                    c.wires_sent as f64 / ops,
                    "wires/op",
                    n,
                ),
                metric("trace.accounted_share", accounted, "ratio", n),
            ]);
        } else {
            let frac = |busy: u64| busy as f64 / self.wall_ns.max(1) as f64;
            m.extend([
                metric(
                    "rtnet.server_busy_frac",
                    frac(self.busiest_server_ns),
                    "ratio",
                    n,
                ),
                metric(
                    "rtnet.client_busy_frac",
                    frac(self.client_busy_ns),
                    "ratio",
                    n,
                ),
            ]);
        }
        m.extend([
            metric(
                "wires.request_per_op",
                count("server.request") / ops,
                "wires/op",
                n,
            ),
            metric(
                "wires.order_per_op",
                count("server.order") / ops,
                "wires/op",
                n,
            ),
            metric(
                "wires.reply_per_op",
                (count("client.replies") + count("client.txn.replies")) / ops,
                "wires/op",
                n,
            ),
            metric(
                "wires.consensus_per_op",
                count("server.consensus") / ops,
                "wires/op",
                n,
            ),
            metric(
                "batch.ops_per_order",
                ratio(c.opt_delivered, c.order_msgs * 3),
                "ops",
                n,
            ),
            metric(
                "batch.client_window_peak",
                c.client_window_peak as f64,
                "count",
                n,
            ),
            metric("epochs.closed", c.epochs_closed as f64, "count", n),
            metric("phase2.entered", c.phase2_entered as f64, "count", n),
            metric(
                "undo.ratio",
                ratio(c.opt_undelivered, c.opt_delivered),
                "ratio",
                n,
            ),
            metric("catchup.wires", count("server.catchup"), "count", n),
            metric("gc.peak_payloads", c.peak_payloads as f64, "count", n),
            metric("gc.peak_seen", c.peak_seen as f64, "count", n),
            metric("txn.prepares", c.txn_prepares as f64, "count", n),
            metric(
                "txn.multi_group_share",
                ratio(c.multi_group_txns, c.txns),
                "ratio",
                n,
            ),
            metric("shard.misroutes", c.misroutes as f64, "count", n),
            metric("shard.redirects", c.redirects as f64, "count", n),
            metric("openloop.lateness_us", c.lateness_us as f64, "us", n),
            metric(
                "allocs_per_op",
                if simulated {
                    // Everything on the one simulator thread, event loop
                    // included, in the untraced sub-runs.
                    untraced.allocs as f64 / untraced.completed.max(1) as f64
                } else {
                    // Each process allocates on its own thread: sum the
                    // callbacks' counts from the traced sub-runs.
                    self.kinds.iter().map(|k| k.allocs).sum::<u64>() as f64 / ops
                },
                "allocs/op",
                n,
            ),
            metric("trace.ops", self.completed as f64, "count", n),
            metric("trace.host_ns", self.run_ns as f64, "ns", n),
            metric("trace.overhead", overhead, "ratio", n),
        ]);
        m
    }
}

/// Runs sub-runs of `workload` until `seconds` have passed (at least
/// [`MIN_SUBRUNS`]). With `trace`, each sub-run is run untraced and then
/// traced on the same seed, and the simulated outputs of the pair must be
/// identical.
fn measure(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> (Totals, Totals, Option<SubRun>) {
    let simulated = workloads::simulated(workload);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut plain, mut traced) = (Totals::default(), Totals::default());
    let mut kept = None;
    let mut index = 0;
    while index < MIN_SUBRUNS || Instant::now() < deadline {
        let s = sub_seed(seed, index);
        trace::set_tracing(false);
        let mut a = workloads::run(workload, s);
        if trace {
            trace::set_tracing(true);
            let mut b = workloads::run(workload, s);
            trace::set_tracing(false);
            if simulated && a.identity != b.identity {
                b.check = Err(format!(
                    "sub-run {index}: simulated outputs differ with tracing on and off"
                ));
            }
            traced.add(&mut b);
            kept.get_or_insert(b);
        }
        plain.add(&mut a);
        index += 1;
    }
    (plain, traced, kept)
}

/// Writes the spans of `sub` as JSON lines under `perfbench/traces/`.
fn write_trace(workload: &str, seed: u64, sub: &SubRun) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &sub.steps {
        writeln!(
            f,
            "{{\"name\":\"simnet.step\",\"step\":{},\"start_ns\":{},\"end_ns\":{},\"sim_us\":{}}}",
            s.index, s.start_ns, s.end_ns, s.sim_us
        )?;
    }
    for s in &sub.agg.spans {
        let ids: Vec<String> = s.ids.iter().map(|id| format!("\"{id}\"")).collect();
        let parent = if s.parent == u64::MAX {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            f,
            "{{\"name\":\"{}\",\"pid\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"sim_us\":{},\"ids\":[{}]}}",
            KINDS[s.kind],
            s.pid,
            parent,
            s.start_ns,
            s.end_ns,
            s.sim_us,
            ids.join(",")
        )?;
    }
    f.flush()?;
    Ok(path.display().to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "metric {:<28} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Samples beyond the 99th percentile of `n` samples.
fn beyond_p99(n: usize) -> usize {
    n - (0.99 * n as f64).ceil() as usize
}

fn bench(args: &Args) -> bool {
    trace::origin();
    trace::SPAN_BUDGET.store(
        if args.trace { SPAN_CAP } else { 0 },
        std::sync::atomic::Ordering::Relaxed,
    );
    let simulated = workloads::simulated(&args.workload);
    let (plain, traced, kept) = measure(&args.workload, args.seed, args.seconds, args.trace);
    let failures: Vec<&String> = plain.failures.iter().chain(&traced.failures).collect();
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "workload {} seed {} sub-runs {} attempted {} completed {} failed {} failed_frac {:.6}",
        args.workload,
        args.seed,
        plain.subruns,
        plain.attempted,
        plain.completed,
        plain.failed(),
        plain.failed() as f64 / plain.attempted.max(1) as f64
    );
    for (name, n) in [("latency", &plain.latency_n), ("settle", &plain.settle_n)] {
        let total: usize = n.iter().sum();
        let least = n.iter().copied().min().unwrap_or(0);
        println!(
            "{name}: {total} samples in {} sub-runs; the smallest sub-run has {least}, {} beyond its p99",
            n.len(),
            beyond_p99(least)
        );
    }
    let end_to_end = plain.end_to_end(simulated);
    print_table("end-to-end (tracing off)", &end_to_end);
    if !args.trace {
        print_result(correct, plain.attempted, plain.failed(), &end_to_end);
        return correct;
    }
    let per_layer = traced.per_layer(&plain, simulated);
    print_table("per-layer (traced run)", &per_layer);
    if let Some(sub) = &kept {
        match write_trace(&args.workload, args.seed, sub) {
            Ok(path) => println!("trace: {path}"),
            Err(e) => eprintln!("trace not written: {e}"),
        }
    }
    print_result(
        correct,
        traced.attempted,
        traced.attempted - traced.completed,
        &per_layer,
    );
    correct
}

/// The attribution self-test: a busy-wait planted in the timing wrapper of
/// `server.order` must lower `throughput_rps` on `lan-steady` by more than
/// the benchmark's bound, be charged to `server.order.busy_ns`, and leave
/// the simulated outputs unchanged.
fn selftest(seconds: u64) -> bool {
    const BOUND: f64 = 0.25;
    const PLANT_NS: u64 = 300_000;
    let kind = KINDS
        .iter()
        .position(|&k| k == "server.order")
        .expect("kind");
    let seed = 7;
    trace::origin();
    let run = |planted: bool, traced: bool| {
        trace::set_plant(kind, if planted { PLANT_NS } else { 0 });
        trace::set_tracing(traced);
        let s = workloads::run("lan-steady", sub_seed(seed, 0));
        trace::set_tracing(false);
        s
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut base, mut planted) = (Totals::default(), Totals::default());
    let (mut base_t, mut planted_t) = (Totals::default(), Totals::default());
    let mut identical = true;
    while base.subruns < 2 || Instant::now() < deadline {
        let mut a = run(false, false);
        let mut b = run(true, false);
        let mut c = run(false, true);
        let mut d = run(true, true);
        identical &=
            a.identity == b.identity && a.identity == c.identity && a.identity == d.identity;
        base.add(&mut a);
        planted.add(&mut b);
        base_t.add(&mut c);
        planted_t.add(&mut d);
    }
    let drop = 1.0 - planted.throughput(true) / base.throughput(true);
    let order = |t: &Totals| t.kinds[kind];
    let added_ns = order(&planted_t).busy_ns as f64 - order(&base_t).busy_ns as f64;
    let expected_ns = (order(&planted_t).count * PLANT_NS) as f64;
    let others = |t: &Totals| -> u64 {
        t.kinds
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != kind && i != APPLY)
            .map(|(_, k)| k.busy_ns)
            .sum()
    };
    let other_change = others(&planted_t) as f64 / others(&base_t).max(1) as f64 - 1.0;
    let latency_same =
        base.latency_p50 == planted.latency_p50 && base.latency_p99 == planted.latency_p99;
    println!(
        "selftest: plant {PLANT_NS} ns in server.order; throughput {:.0} -> {:.0} ops/s (drop {drop:.3}, bound {BOUND})",
        base.throughput(true),
        planted.throughput(true)
    );
    println!(
        "selftest: server.order.busy_ns grew by {added_ns:.0} ns, planted total {expected_ns:.0} ns (share {:.3}); other kinds changed by {other_change:.3}",
        added_ns / expected_ns
    );
    println!(
        "selftest: simulated outputs identical: {identical}; latencies identical: {latency_same}"
    );
    let ok = drop > BOUND
        && (0.8..1.3).contains(&(added_ns / expected_ns))
        && other_change.abs() < 0.3
        && identical
        && latency_same;
    println!("selftest: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.selftest {
        selftest(args.seconds)
    } else {
        bench(&args)
    };
    std::process::exit(if ok { 0 } else { 1 });
}
