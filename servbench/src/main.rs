//! `servbench` — one serving benchmark over the LSD-GNN serving stack.
//!
//! ```text
//! servbench --workload <infer_hot|sample_cold|tenants_burst> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation sets the program up several times (reporting the
//! median set-up time), then drives one workload from a single client
//! process with tracing off: a warm-up, then eight rounds of open loop at
//! the workload's light and busy rates and a closed loop holding a fixed
//! window in flight, with the metrics taken over the rounds the host's
//! hypervisor disturbed least. It then checks the replies it kept and
//! runs a traced pass. Informational lines start with `#`; the last line
//! of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! README.md for the workloads, metrics and reference figures.

mod check;
mod load;
mod stack;
mod traced;

use load::{mix, Client, Front, Phase, Workload};
use lsdgnn_framework::{
    CacheSnapshot, PoolStats, Priority, RequestStats, ServiceStats, TierSnapshot, WireSnapshot,
};
use stack::Stack;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Measured rounds; each runs the light, busy and closed-loop phases.
const ROUNDS: usize = 8;
/// Rounds the metrics are taken over: those during which the hypervisor
/// stole the least CPU time from the host.
const CALM_ROUNDS: usize = 4;
/// Closed-loop slices per round; throughput and CPU per request are
/// medians over every slice of every round.
const SLICES_PER_ROUND: usize = 3;
/// Requests in the traced pass.
const TRACED: u64 = 32;
/// Share of `--seconds` given to the warm-up; the rounds share the rest.
const WARM_SHARE: f64 = 0.1;
/// Shares of a round given to its light, busy and closed-loop phases.
const ROUND_SHARES: [f64; 3] = [0.3, 0.3, 0.4];

const USAGE: &str = "usage: servbench --workload <infer_hot|sample_cold|tenants_burst> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counters read from the program's public stats snapshots.
struct Counters {
    service: ServiceStats,
    request: RequestStats,
    wire: WireSnapshot,
    cache: CacheSnapshot,
    pool: PoolStats,
}

impl Counters {
    fn read(stack: &Stack, front: &Front) -> Self {
        let service = match front {
            Front::Infer(p) => p.sampling().stats(),
            Front::Sample(s) => s.stats(),
            Front::Shaped(s) => s.stats(),
        };
        let cluster = stack.backend.cluster();
        Counters {
            request: service.backend,
            service,
            wire: cluster.wire_snapshot().expect("wired cluster"),
            cache: cluster.cache_snapshot().expect("cached cluster"),
            pool: cluster.pool().stats(),
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linearly interpolated quantile of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn tier_rates(now: Option<TierSnapshot>, then: Option<TierSnapshot>) -> (f64, f64, f64) {
    let (a, b) = (now.unwrap_or_default(), then.unwrap_or_default());
    let hits = (a.hits - b.hits) as f64;
    let lookups = hits + (a.misses - b.misses) as f64;
    (
        ratio(hits, lookups),
        (a.evicts - b.evicts) as f64,
        (a.rejects - b.rejects) as f64,
    )
}

/// Median latency of `class` pooled over the calm rounds.
fn calm_p50(rounds: &[Phase], calm: &[usize], class: Priority) -> f64 {
    let all: Vec<f64> = calm
        .iter()
        .flat_map(|&r| &rounds[r].latency_ms[class.index()])
        .copied()
        .collect();
    median(&all)
}

fn describe(name: &str, rounds: &[Phase], rate: Option<f64>) {
    let sum = |f: fn(&Phase) -> u64| rounds.iter().map(f).sum::<u64>();
    let rate = rate.map_or(String::new(), |r| format!(", offered {r} req/s"));
    println!(
        "# phase {name}: {} x {:.2} s{rate}, {} submitted, {} completed, {} failed ({} refused)",
        rounds.len(),
        rounds[0].secs,
        sum(|p| p.submitted),
        sum(|p| p.completed),
        sum(|p| p.failed),
        sum(|p| p.refused)
    );
    for class in Priority::ALL {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|p| &p.latency_ms[class.index()])
            .copied()
            .collect();
        if all.is_empty() {
            continue;
        }
        let p50s: Vec<String> = rounds
            .iter()
            .map(|p| format!("{:.3}", median(&p.latency_ms[class.index()])))
            .collect();
        println!(
            "#   {} latency: p50 per round [{}] ms; pooled p50 {:.3} ms, p99 {:.3} ms (n={})",
            class.name(),
            p50s.join(", "),
            median(&all),
            quantile(&all, 0.99),
            all.len()
        );
    }
    let late: Vec<f64> = rounds.iter().flat_map(|p| &p.late_us).copied().collect();
    if !late.is_empty() {
        println!(
            "#   generator lateness p50 {:.1} us, p99 {:.1} us (n={})",
            median(&late),
            quantile(&late, 0.99),
            late.len()
        );
    }
}

/// (steal, total) jiffies of the whole host from `/proc/stat`: how much
/// CPU the hypervisor took from this machine's virtual CPUs.
fn host_steal() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0.0), cpu.iter().sum())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# servbench workload {} seed {} seconds {} trace {} nproc {nproc}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set up several times; the last set-up serves the run.
    let (mut setup_s, mut build_s, mut spawn_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut running = None;
    for _ in 0..SETUP_REPS {
        if let Some((_stack, front)) = running.take() {
            Front::shutdown(front);
        }
        let t0 = Instant::now();
        let stack = stack::build();
        let front = Front::start(w, &stack.backend);
        setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push(stack.build_s);
        spawn_s.push(stack.spawn_s);
        running = Some((stack, front));
    }
    let (stack, front) = running.expect("at least one set-up");
    println!(
        "# setup x{SETUP_REPS}: median {:.3} s (graph build {:.3} s, cluster spawn {:.3} s); \
         peak rss so far {:.1} MB",
        median(&setup_s),
        median(&build_s),
        median(&spawn_s),
        stack::peak_rss_mb()
    );

    let epoch = Instant::now();
    let client = Client {
        workload: w,
        stack: &stack,
        front: &front,
        epoch,
    };
    let (light_rate, busy_rate) = w.rates();
    let seed = args.seed;
    let before = Counters::read(&stack, &front);
    let warm = client.closed_loop(mix(seed ^ 0x11), args.seconds * WARM_SHARE, 1);
    // Rounds interleave the three measured phases over the whole run, so
    // a stretch of host contention lands in a few rounds, which the
    // selection below then skips.
    let round_s = args.seconds * (1.0 - WARM_SHARE) / ROUNDS as f64;
    let (mut light, mut busy, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    let mut stolen = Vec::new();
    for r in 0..ROUNDS as u64 {
        let steal0 = host_steal();
        let tag = r << 8;
        let (l, b) = (round_s * ROUND_SHARES[0], round_s * ROUND_SHARES[1]);
        light.push(client.open_loop(&w.trace(mix(seed ^ tag ^ 0x22), light_rate, l)));
        busy.push(client.open_loop(&w.trace(mix(seed ^ tag ^ 0x33), busy_rate, b)));
        let c = round_s * ROUND_SHARES[2];
        closed.push(client.closed_loop(mix(seed ^ tag ^ 0x44), c, SLICES_PER_ROUND));
        let steal1 = host_steal();
        stolen.push(ratio(steal1.0 - steal0.0, steal1.1 - steal0.1));
    }
    // Hypervisor steal is contention from outside this machine, which the
    // program can neither cause nor cure; the metrics skip the rounds it
    // hit hardest.
    let mut calm: Vec<usize> = (0..ROUNDS).collect();
    calm.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    calm.truncate(CALM_ROUNDS);
    calm.sort_unstable();
    let after = Counters::read(&stack, &front);
    let gather_batch = match &front {
        Front::Infer(p) => p.stats().gather_batch.mean(),
        _ => 1.0,
    };
    let admission = match &front {
        Front::Shaped(s) => Some(s.admission_stats()),
        _ => None,
    };
    Front::shutdown(front);

    describe("warm-up (closed loop)", std::slice::from_ref(&warm), None);
    describe("light (open loop)", &light, Some(light_rate));
    describe("busy (open loop)", &busy, Some(busy_rate));
    describe("closed loop", &closed, None);
    let pct: Vec<String> = stolen.iter().map(|f| format!("{:.1}", f * 100.0)).collect();
    println!(
        "# host CPU time stolen per round [{}] %; metrics use rounds {calm:?}",
        pct.join(", ")
    );
    let phases: Vec<&Phase> = std::iter::once(&warm)
        .chain(&light)
        .chain(&busy)
        .chain(&closed)
        .collect();

    // Output checks on the replies kept from the timed phases.
    let mut mismatched = 0u64;
    let mut checked = 0u64;
    for ph in &phases {
        for (req, kept) in &ph.kept {
            checked += 1;
            mismatched += u64::from(!check::kept_reply(&stack, req, kept));
        }
    }
    // Every arrival reaches exactly one terminal verdict: the controller
    // decided each submission once, and each admitted one was answered.
    if let Some(a) = &admission {
        let submitted: u64 = phases.iter().map(|p| p.submitted).sum();
        let answered: u64 = phases.iter().map(|p| p.completed + p.failed).sum();
        let refused: u64 = phases.iter().map(|p| p.refused).sum();
        let decided: u64 = Priority::ALL
            .iter()
            .map(|&c| a.accepted(c) + a.rejected(c) + a.shed(c))
            .sum();
        let accepted: u64 = Priority::ALL.iter().map(|&c| a.accepted(c)).sum();
        checked += 1;
        mismatched += u64::from(
            decided != submitted || answered != submitted || accepted + refused != submitted,
        );
    }

    let tr = traced::run(w, &stack, mix(seed ^ 0x55), TRACED, epoch);
    let trace_path = PathBuf::from(format!("servbench/out/{}-{}.trace.json", w.name(), seed));
    tr.tracer
        .write_json(&trace_path)
        .expect("write the traced pass's Chrome trace");
    println!(
        "# traced pass: {} requests, {} failed, {} mismatched; trace {}",
        tr.attempted,
        tr.failed,
        tr.mismatched,
        trace_path.display()
    );
    mismatched += tr.mismatched;
    checked += tr.attempted;

    let attempted: u64 = phases.iter().map(|p| p.submitted).sum::<u64>() + tr.attempted;
    let failed: u64 = phases.iter().map(|p| p.failed).sum::<u64>() + tr.failed + mismatched;
    println!("# checks: {checked} run, {mismatched} mismatched");

    let slices: Vec<&(f64, u64, f64)> = calm.iter().flat_map(|&r| &closed[r].slices).collect();
    let throughput: Vec<f64> = slices.iter().map(|s| s.1 as f64 / s.0).collect();
    let cpu_per_req: Vec<f64> = slices
        .iter()
        .map(|s| ratio(s.2 * 1e6, s.1 as f64))
        .collect();
    println!(
        "# closed loop: window {}, {} calm slices of {:.2} s; throughput min {:.1} max {:.1} req/s",
        w.window(),
        slices.len(),
        round_s * ROUND_SHARES[2] / SLICES_PER_ROUND as f64,
        throughput.iter().copied().fold(f64::INFINITY, f64::min),
        throughput.iter().copied().fold(0.0, f64::max)
    );

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("throughput_rps", median(&throughput), "req/s"),
            ("cpu_us_per_req", median(&cpu_per_req), "us"),
            (
                "latency_p50_light_ms",
                calm_p50(&light, &calm, Priority::Interactive),
                "ms",
            ),
            (
                "latency_p50_busy_ms",
                calm_p50(&busy, &calm, Priority::Interactive),
                "ms",
            ),
            ("peak_rss_mb", stack::peak_rss_mb(), "MB"),
        ]
    } else {
        let served = (after.service.requests - before.service.requests) as f64;
        let per_req = |v: f64| ratio(v, served);
        let ev = tr.tracer.events();
        let durs = |cat: &str, name: &str| -> Vec<f64> {
            traced::spans(&ev, cat, name).iter().map(|s| s.0).collect()
        };
        let total = |cat: &str, name: &str| durs(cat, name).iter().sum::<f64>();
        let overhead: Vec<f64> = durs("service", "round_trip")
            .iter()
            .zip(durs("cluster", "sample"))
            .map(|(rt, direct)| rt - direct)
            .collect();
        let request_us = total("bench", "request");
        let layers_us = total("admission", "submit")
            + total("service", "round_trip")
            + total("cluster", "gather")
            + total("nn", "forward");
        let class_p50 = |c: Priority| match &admission {
            Some(_) => calm_p50(&busy, &calm, c),
            None => {
                let rt: Vec<f64> = traced::spans(&ev, "service", "round_trip")
                    .iter()
                    .filter(|s| s.1 == c.index())
                    .map(|s| s.0 / 1e3)
                    .collect();
                median(&rt)
            }
        };
        let lane_depth = admission.as_ref().map_or(tr.max_lane_depth, |a| {
            a.max_queue.iter().copied().max().unwrap_or(0)
        });
        let late: Vec<f64> = light
            .iter()
            .chain(&busy)
            .flat_map(|p| &p.late_us)
            .copied()
            .collect();
        let (r1, r0) = (&after.request, &before.request);
        let (w1, w0) = (&after.wire, &before.wire);
        let (nh, ne, nr) = tier_rates(after.cache.neigh, before.cache.neigh);
        let (ah, ae, ar) = tier_rates(after.cache.attr, before.cache.attr);
        let (p1, p0) = (&after.pool, &before.pool);
        let reuses = (p1.reuses - p0.reuses) as f64;
        vec![
            ("graph.build_s", median(&build_s), "s"),
            ("cluster.spawn_s", median(&spawn_s), "s"),
            ("traffic.late_p99_us", quantile(&late, 0.99), "us"),
            ("service.overhead_us", median(&overhead), "us"),
            (
                "service.batch_size_mean",
                ratio(
                    served,
                    (after.service.dispatches - before.service.dispatches) as f64,
                ),
                "req",
            ),
            (
                "service.queue_depth_p50",
                after.service.queue_depth.percentile(0.5),
                "req",
            ),
            (
                "cluster.sample_us",
                median(&durs("cluster", "sample")),
                "us",
            ),
            (
                "cluster.gather_us",
                median(&durs("cluster", "gather")),
                "us",
            ),
            (
                "cluster.remote_legs_per_req",
                per_req((w1.remote_legs - w0.remote_legs) as f64),
                "count",
            ),
            (
                "cluster.coalesce_hit_rate",
                ratio(
                    (r1.coalesce_hits - r0.coalesce_hits) as f64,
                    (r1.coalesce_lookups - r0.coalesce_lookups) as f64,
                ),
                "ratio",
            ),
            (
                "cluster.attr_coalesce_hit_rate",
                ratio(
                    (r1.attr_coalesce_hits - r0.attr_coalesce_hits) as f64,
                    (r1.attr_coalesce_lookups - r0.attr_coalesce_lookups) as f64,
                ),
                "ratio",
            ),
            ("hot_cache.neigh_hit_rate", nh, "ratio"),
            ("hot_cache.attr_hit_rate", ah, "ratio"),
            ("hot_cache.evicts_per_req", per_req(ne + ae), "count"),
            ("hot_cache.rejects_per_req", per_req(nr + ar), "count"),
            (
                "mof.wire_bytes_per_req",
                per_req((w1.wire_bytes() - w0.wire_bytes()) as f64),
                "B",
            ),
            (
                "mof.compression_ratio",
                ratio(
                    (w1.raw_response_bytes - w0.raw_response_bytes) as f64,
                    (w1.wire_response_bytes - w0.wire_response_bytes) as f64,
                ),
                "ratio",
            ),
            (
                "mof.sim_wire_us_per_req",
                per_req((w1.simulated_wire_ns - w0.simulated_wire_ns) as f64 / 1e3),
                "us",
            ),
            (
                "pool.reuse_rate",
                ratio(reuses, reuses + (p1.allocs - p0.allocs) as f64),
                "ratio",
            ),
            ("inference.gather_batch_mean", gather_batch, "req"),
            ("nn.forward_us", median(&durs("nn", "forward")), "us"),
            (
                "admission.submit_us",
                median(&durs("admission", "submit")),
                "us",
            ),
            (
                "admission.interactive_p50_ms",
                class_p50(Priority::Interactive),
                "ms",
            ),
            ("admission.batch_p50_ms", class_p50(Priority::Batch), "ms"),
            (
                "admission.best_effort_p50_ms",
                class_p50(Priority::BestEffort),
                "ms",
            ),
            ("admission.max_lane_depth", lane_depth as f64, "req"),
            (
                "trace.residual_pct",
                100.0 * ratio(request_us - layers_us, request_us),
                "%",
            ),
        ]
    };

    for (name, v, unit) in &metrics {
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        println!("# {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        mismatched == 0,
        body.join(", ")
    );
}
