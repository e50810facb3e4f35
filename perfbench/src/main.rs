//! The repository's benchmark: drives a live 3-node cluster through one
//! of three workloads and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable-write --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every workload is an open loop of Poisson arrivals at a fixed
//! reference rate. `--trace 0` prints the end-to-end metrics of one
//! untraced pass at that rate. `--trace 1` splits the time between an
//! untraced pass that also measures capacity (a closed loop for
//! `throughput_tps`, a bisected rate ladder for `max_rate_tps`) and a
//! pass with observability on at the reference rate, adds a replay of
//! the workload's inputs through each layer, prints the per-layer
//! metrics and writes the traced pass's spans to `perfbench/out/`. The
//! last line of standard output is one JSON object; the exit code is
//! nonzero if any correctness or config-liveness gate failed.

mod gates;
mod live;
mod proc;
mod replay;
mod rng;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tpc_obs::{HistogramSnapshot, ObsSnapshot, Phase, TimelineGauge};
use tpc_runtime::NodeSummary;

use crate::gates::Finished;
use crate::live::{Counts, Pass, Workload, P99_LIMIT_US};
use crate::stats::{median, percentile, Span};

/// Cluster start-ups per run, in batches of [`SETUP_BATCH`] that
/// [`SETUP_GAP`] separates. `setup_s` is the median over batches of each
/// batch's fastest start-up. A start-up waits on thread wake-ups, which
/// an idle virtual CPU can delay by milliseconds, so the fastest of a
/// few is the one the host did not delay; and on device flushes, whose
/// latency drifts in spells of a few hundred milliseconds, so batches
/// spread over seconds average the spells.
const SETUPS: usize = 135;
/// Start-ups per batch (see [`SETUPS`]).
const SETUP_BATCH: usize = 3;
/// Pause between batches of start-ups (see [`SETUPS`]).
const SETUP_GAP: Duration = Duration::from_millis(50);
/// Unmeasured lead-in of every pass.
const WARMUP: Duration = Duration::from_millis(500);
/// Latency samples a ladder rung collects at least, so that its p99 has
/// ten beyond it.
const RUNG_SAMPLES: f64 = 2_000.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or(format!(
                        "unknown workload {value}; one of {:?}",
                        Workload::ALL.map(Workload::name)
                    ))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: u64 = seconds.unwrap_or(25);
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be 1..=60".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What each per-layer metric should move, and where: written down
/// before measuring, so a change can be checked against it.
const MOVES: &[(&str, &str)] = &[
    ("throughput_tps", "end-to-end, untraced pass: closed loop with 16 outstanding; capacity, too noisy on a shared host to bound"),
    ("max_rate_tps", "end-to-end, untraced pass: highest ladder rate meeting the p99 limit without a growing backlog"),
    ("commit_p*", "end-to-end, traced pass, update transactions, from due time; too noisy on a shared host to bound"),
    ("wal.*", "commit_p50_us and max_rate_tps on durable-write; less on hot-mixed; not on mem-open"),
    ("core.forces_per_txn", "commit_p50_us and max_rate_tps on durable-write"),
    ("core.flows_per_txn", "cpu_us_per_txn and max_rate_tps on mem-open; lower on hot-mixed (read-only votes)"),
    ("core.engine_step_ns", "cpu_us_per_txn and max_rate_tps on mem-open"),
    ("core.*_p50_us", "commit_p50_us on every workload"),
    ("wire.*", "cpu_us_per_txn and max_rate_tps on mem-open"),
    ("locks.timeouts_per_ktxn", "commit_p99_us and abort_frac on hot-mixed: waits-for cycles the detector missed, ended by the lock-wait timeout; zero elsewhere"),
    ("locks.*", "commit_p99_us and abort_frac on hot-mixed; about zero elsewhere"),
    ("rm.op_ns", "cpu_us_per_txn on hot-mixed and mem-open"),
    ("runtime.lane_inbox_max", "commit_p99_us near max_rate_tps on mem-open"),
    ("runtime.issue_us", "max_rate_tps on mem-open"),
    ("obs.overhead_frac", "traced minus untraced cpu_us_per_txn at the reference rate, over untraced"),
    ("driver.gen_lag_p99_us", "none: if large, mem-open measures the generator, not the program"),
    ("abort_frac", "aborted / attempted in the traced pass"),
    ("fail_frac", "failed or timed out / attempted in the traced pass; 0 on a clean run"),
];

/// The [`MOVES`] entry covering `name` (`prefix.*` and `prefix.*suffix`
/// patterns match by prefix and suffix).
fn moves_of(name: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(pat, _)| match pat.split_once('*') {
            Some((pre, suf)) => name.starts_with(pre) && name.ends_with(suf),
            None => *pat == name,
        })
        .map_or("", |(_, m)| m)
}

/// One pass over a live cluster: its end-to-end results and gates.
struct PassResult {
    e2e: E2e,
    counts: Counts,
    finished: Finished,
    spans: Vec<Span>,
    issue_ns: Vec<u64>,
    /// Peak RSS after a fixed number of transactions (at the end of the
    /// pass if it finished fewer), MiB.
    rss_mb: f64,
    /// The pass clock's origin, shared by its spans.
    t0: Instant,
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <durable-write|mem-open|hot-mixed> --seed <n> \
                 --seconds <1..60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run_dir = out_dir().join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Where runs keep their WALs and the span files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args, run_dir: &Path) -> Result<(bool, String), String> {
    let w = args.workload;
    println!(
        "workload {}: {}; dominant layer {}; {}; injected message delay none; seed {}; \
         {} s; available parallelism {}",
        w.name(),
        w.why(),
        w.dominant_layer(),
        w.shape(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let cfg = w.node_config(&run_dir.join("wal"), false);
    for n in 0..live::NODES {
        println!("config node {n}: {}", live::describe_config(&cfg));
    }

    let mut setup = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for k in 0..SETUPS {
        let dir = run_dir.join(format!("wal-{k}"));
        let (c, secs) = live::start_cluster(w, &dir, false)?;
        setup.push(secs);
        if k + 1 == SETUPS {
            cluster = Some((c, dir));
            break;
        }
        c.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        if (k + 1) % SETUP_BATCH == 0 {
            std::thread::sleep(SETUP_GAP);
        }
    }
    let (cluster, dir) = cluster.expect("at least one setup");
    // A traced run splits its time between the untraced pass (for
    // capacity and the baseline of `obs.overhead_frac`) and the
    // traced one, so it takes about as long as an untraced run.
    let secs = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let plain = run_pass(args, secs, cluster, &dir, false);
    report_pass("untraced", &plain);
    let mut attempted = plain.counts.attempted;
    let mut failed = plain.counts.failed;
    let mut correct = plain.finished.ok();

    let metrics = if args.trace {
        let dir = run_dir.join("wal-traced");
        let (cluster, _) = live::start_cluster(w, &dir, true)?;
        let traced = run_pass(args, secs, cluster, &dir, true);
        report_pass("traced", &traced);
        attempted += traced.counts.attempted;
        failed += traced.counts.failed;
        correct &= traced.finished.ok();
        let replay = replay::run(
            w,
            args.seed,
            cfg.effective_stripes(),
            &run_dir.join("replay-wal"),
            traced.t0,
        );
        let mut spans = traced.spans.clone();
        let offset = spans.len();
        spans.extend(replay.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s.clone()
        }));
        let path = out_dir().join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
        print_self_times(&spans);
        layer_metrics(&plain, &traced, &replay)
    } else {
        vec![
            metric("cpu_us_per_txn", plain.e2e.cpu_us_per_txn, "us"),
            metric("setup_s", setup_secs(&setup), "s"),
            metric("peak_rss_mb", plain.rss_mb, "MB"),
        ]
    };
    println!(
        "setup_s samples: {:?}",
        setup.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>()
    );
    for m in &metrics {
        println!(
            "{:<24} {:>16.4} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            moves_of(m.name)
        );
    }
    Ok((correct, result_json(correct, attempted, failed, &metrics)?))
}

/// `setup_s` from every start-up's time, in start-up order.
fn setup_secs(setup: &[f64]) -> f64 {
    let fastest: Vec<f64> = setup
        .chunks(SETUP_BATCH)
        .map(|b| b.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&fastest)
}

/// Runs one pass of the workload on a fresh cluster and gates it.
fn run_pass(
    args: &Args,
    secs: f64,
    cluster: tpc_runtime::LiveCluster,
    dir: &Path,
    traced: bool,
) -> PassResult {
    let w = args.workload;
    let mut pass = Pass::new(&cluster, w, args.seed, traced);
    let t0 = pass.started();
    // Only the untraced pass of a traced run measures capacity, with a
    // closed loop and the ladder. An untraced run spends its time on the
    // reference rung, and so does the traced pass, so its layer counters
    // describe the reference load rather than the overload the ladder
    // probes.
    let e2e = measure(&mut pass, w, args.seed, secs, args.trace && !traced);
    let Pass {
        outcomes,
        ledger,
        counts,
        spans,
        issue_ns,
        rss_mb,
        ..
    } = pass;
    let cfg = w.node_config(dir, traced);
    let finished = gates::finish(w, cluster, &cfg, dir, &outcomes, &ledger, counts);
    PassResult {
        e2e,
        counts,
        finished,
        spans: spans.unwrap_or_default(),
        issue_ns,
        rss_mb: rss_mb.unwrap_or_else(proc::peak_rss_mb),
        t0,
    }
}

/// End-to-end results of one pass.
struct E2e {
    commit_p50_us: f64,
    commit_p99_us: f64,
    /// Completions per second of a closed loop.
    throughput_tps: f64,
    max_rate_tps: f64,
    /// CPU of every thread but the generator per issued transaction, µs.
    cpu_us_per_txn: f64,
    /// Latency samples (update transactions) behind the percentiles.
    samples: u64,
    /// p99 of how late the generator ran, µs.
    gen_lag_p99_us: f64,
}

/// A warm-up at the workload's reference rate, then the reference rung
/// (latency, CPU). With `capacity` the reference rung takes 30% of the
/// time, a closed loop 20% (`throughput_tps`) and a bisection of the
/// rate ladder the rest (`max_rate_tps`); without it both are NaN.
fn measure(pass: &mut Pass, w: Workload, seed: u64, secs: f64, capacity: bool) -> E2e {
    let mut arrivals = rng::Rng::new(seed, 2);
    live::run_rung(pass, &mut arrivals, w.ref_rate(), WARMUP, false);
    let ref_secs = if capacity { 0.3 * secs } else { secs };
    let reference = live::run_rung(
        pass,
        &mut arrivals,
        w.ref_rate(),
        Duration::from_secs_f64(ref_secs),
        false,
    );
    // Commit latency is taken over update transactions. In hot-mixed half
    // the transactions are read-only and skip logging and phase two, so
    // the latency of all of them has two humps of about equal weight and
    // its median falls in the gap between them, where a small shift in
    // either moves it far.
    let mut latency: Vec<u64> = reference
        .requests
        .iter()
        .filter(|d| d.update)
        .map(|d| d.latency_us())
        .collect();
    latency.sort_unstable();
    let mut lags: Vec<u64> = reference.requests.iter().map(|d| d.lag_us()).collect();
    lags.sort_unstable();
    let (throughput_tps, max_rate_tps) = if capacity {
        let throughput = live::run_closed(pass, Duration::from_secs_f64(0.2 * secs));
        // Bisecting 64 rungs probes at most 8 of them. A rung runs long
        // enough for its p99 to rest on ten samples or more.
        let rungs = stats::bisect_ladder(live::LADDER_RUNGS, P99_LIMIT_US, |i| {
            let rate = w.ladder_rate(i);
            let secs = (0.5 * secs / 8.0).max(RUNG_SAMPLES / rate);
            probe_rung(pass, &mut arrivals, rate, Duration::from_secs_f64(secs))
        });
        let max_rate = stats::max_rate(&rungs, P99_LIMIT_US).unwrap_or(f64::NAN);
        (throughput, max_rate)
    } else {
        (f64::NAN, f64::NAN)
    };
    E2e {
        commit_p50_us: percentile(&latency, 0.5).map_or(f64::NAN, |v| v as f64),
        commit_p99_us: percentile(&latency, 0.99).map_or(f64::NAN, |v| v as f64),
        throughput_tps,
        max_rate_tps,
        cpu_us_per_txn: reference.cpu_s * 1e6 / reference.issued.max(1) as f64,
        samples: latency.len() as u64,
        gen_lag_p99_us: percentile(&lags, 0.99).map_or(f64::NAN, |v| v as f64),
    }
}

/// Runs one ladder rung and judges it by its p99 from due time.
fn probe_rung(pass: &mut Pass, arrivals: &mut rng::Rng, rate: f64, time: Duration) -> stats::Rung {
    let r = live::run_rung(pass, arrivals, rate, time, true);
    let mut lat: Vec<u64> = r.requests.iter().map(|d| d.latency_us()).collect();
    lat.sort_unstable();
    let rung = stats::Rung {
        rate,
        p99_us: percentile(&lat, 0.99),
        backlog_growing: r.backlog_growing,
    };
    println!(
        "rung {rate:>8.0} txn/s: issued {} p99 {:?} us backlog_growing {}",
        r.issued, rung.p99_us, rung.backlog_growing
    );
    rung
}

fn report_pass(label: &str, p: &PassResult) {
    let c = p.counts;
    let attempted = c.attempted.max(1) as f64;
    println!(
        "{label} pass: attempted {} committed {} aborted {} failed {} abort_frac {:.5} \
         fail_frac {:.5}; {} latency samples; gen lag p99 {:.0} us",
        c.attempted,
        c.committed,
        c.aborted,
        c.failed,
        c.aborted as f64 / attempted,
        c.failed as f64 / attempted,
        p.e2e.samples,
        p.e2e.gen_lag_p99_us
    );
    for (what, ok) in &p.finished.liveness {
        println!(
            "{label} config-liveness {}: {what}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for f in &p.finished.failures {
        println!("{label} gate FAILED: {f}");
    }
}

/// Per-layer metrics from the traced pass's node counters and obs
/// histograms, the replay, and the untraced pass for the overhead.
fn layer_metrics(plain: &PassResult, traced: &PassResult, replay: &replay::Replay) -> Vec<Metric> {
    let s = &traced.finished.summaries;
    let c = traced.counts;
    let txns = (c.committed + c.aborted).max(1) as f64;
    let sum = |f: &dyn Fn(&NodeSummary) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let flushes = sum(&|n| n.log.physical_flushes + n.rm_log.physical_flushes);
    let forces = sum(&|n| n.log.forced_writes + n.rm_log.forced_writes);
    let bytes = sum(&|n| n.log.bytes + n.rm_log.bytes);
    let lock = |f: &dyn Fn(&tpc_locks::LockStats) -> u64| {
        s.iter()
            .flat_map(|n| n.lock_stripes.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let all_obs = ObsSnapshot::merged(s.iter().filter_map(|n| n.obs.as_ref()));
    let root_obs = ObsSnapshot::merged(
        s.iter()
            .filter(|n| n.node != live::SERVER)
            .filter_map(|n| n.obs.as_ref()),
    );
    let q = |snap: &ObsSnapshot, phase, q: f64| {
        snap.phase(phase)
            .map_or(0.0, |h: &HistogramSnapshot| h.quantile(q) as f64)
    };
    let pool_checkouts = sum(&|n| n.pool.checkouts);
    let inbox_max = s
        .iter()
        .filter_map(|n| n.timeline.as_ref())
        .flat_map(|t| t.windows.iter())
        .map(|win| win.gauge(TimelineGauge::LaneInbox).max)
        .max()
        .unwrap_or(0);
    let mut issue = traced.issue_ns.clone();
    issue.sort_unstable();
    let forces_per_flush = if flushes > 0.0 { forces / flushes } else { 0.0 };
    vec![
        metric("throughput_tps", plain.e2e.throughput_tps, "1/s"),
        metric("max_rate_tps", plain.e2e.max_rate_tps, "1/s"),
        metric("commit_p50_us", traced.e2e.commit_p50_us, "us"),
        metric("commit_p99_us", traced.e2e.commit_p99_us, "us"),
        metric("wal.flushes_per_txn", flushes / txns, "count"),
        metric("wal.forces_per_flush", forces_per_flush, "ratio"),
        metric("wal.bytes_per_txn", bytes / txns, "B"),
        metric("wal.fsync_p50_us", q(&all_obs, Phase::Fsync, 0.5), "us"),
        metric("wal.fsync_p99_us", q(&all_obs, Phase::Fsync, 0.99), "us"),
        metric(
            "wal.group_wait_p50_us",
            q(&all_obs, Phase::GroupFlush, 0.5),
            "us",
        ),
        metric("wal.force_append_us", replay.force_append_us, "us"),
        metric("core.forces_per_txn", forces / txns, "count"),
        metric(
            "core.flows_per_txn",
            sum(&|n| n.driver.flows_sent) / txns,
            "count",
        ),
        metric("core.engine_step_ns", replay.engine_step_ns, "ns"),
        metric(
            "core.prepare_p50_us",
            q(&root_obs, Phase::Prepare, 0.5),
            "us",
        ),
        metric(
            "core.decision_p50_us",
            q(&root_obs, Phase::Decision, 0.5),
            "us",
        ),
        metric("core.ack_p50_us", q(&root_obs, Phase::Ack, 0.5), "us"),
        metric("wire.encode_ns", replay.encode_ns, "ns"),
        metric("wire.decode_ns", replay.decode_ns, "ns"),
        metric(
            "wire.pool_hit_frac",
            sum(&|n| n.pool.hits) / pool_checkouts.max(1.0),
            "ratio",
        ),
        metric("locks.waits_per_txn", lock(&|l| l.waits) / txns, "count"),
        metric(
            "locks.wait_us_per_txn",
            lock(&|l| l.total_wait_micros) / txns,
            "us",
        ),
        metric(
            "locks.hold_us_mean",
            lock(&|l| l.total_hold_micros) / lock(&|l| l.releases).max(1.0),
            "us",
        ),
        metric(
            "locks.deadlocks_per_ktxn",
            lock(&|l| l.deadlocks) * 1_000.0 / txns,
            "count",
        ),
        metric(
            "locks.timeouts_per_ktxn",
            lock(&|l| l.timeouts) * 1_000.0 / txns,
            "count",
        ),
        metric("locks.acquire_ns", replay.acquire_ns, "ns"),
        metric("rm.op_ns", replay.rm_op_ns, "ns"),
        metric("runtime.lane_inbox_max", inbox_max as f64, "count"),
        metric(
            "runtime.issue_us",
            percentile(&issue, 0.5).map_or(0.0, |v| v as f64 / 1_000.0),
            "us",
        ),
        metric(
            "obs.overhead_frac",
            (traced.e2e.cpu_us_per_txn - plain.e2e.cpu_us_per_txn) / plain.e2e.cpu_us_per_txn,
            "ratio",
        ),
        metric("driver.gen_lag_p99_us", traced.e2e.gen_lag_p99_us, "us"),
        metric(
            "abort_frac",
            c.aborted as f64 / c.attempted.max(1) as f64,
            "ratio",
        ),
        metric(
            "fail_frac",
            c.failed as f64 / c.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// The contract's last line. Fails on a value JSON cannot carry.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to string");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Writes spans as a JSON array: name, txn, id, parent, start, end (ns).
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = stats::self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"txn\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}}}{sep}",
            s.name, s.txn, s.start_ns, s.end_ns, self_ns[i]
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// Prints mean total and self time per span name.
fn print_self_times(spans: &[Span]) {
    let self_ns = stats::self_times(spans);
    let mut by_name: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(&self_ns) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += total;
                e.3 += own;
            }
            None => by_name.push((s.name, 1, total, *own)),
        }
    }
    for (name, n, total, own) in by_name {
        println!(
            "span {name:<26} n {n:>7} mean {:>10.2} us self {:>10.2} us",
            total as f64 / n as f64 / 1e3,
            own as f64 / n as f64 / 1e3
        );
    }
}
