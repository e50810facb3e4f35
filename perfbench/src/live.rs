//! The three workloads and the single generator thread that drives a
//! live 3-node cluster through its public API only: `begin`, `work`,
//! `commit_async`, `CommitWait::poll`, `summary` and `shutdown`.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, SimDuration, TxnId};
use tpc_core::OutcomeRecord;
use tpc_runtime::verify::outcome_record;
use tpc_runtime::{CommitWait, LiveCluster, LiveNodeConfig, LogBackend};

use crate::rng::{Rng, Zipf};
use crate::stats::{Due, Span};

/// Nodes per cluster: roots at nodes 0 and 1, the server at node 2.
pub const NODES: usize = 3;
/// The participant every transaction does its work at.
pub const SERVER: NodeId = NodeId(2);
/// Key space of `mem-open` (uniform draws).
const MEM_KEYS: u64 = 100_000;
/// Key space of `hot-mixed` (Zipf draws).
const HOT_KEYS: usize = 128;
/// Zipf exponent of `hot-mixed`.
const HOT_THETA: f64 = 0.99;
/// Lock-wait timeout of `hot-mixed`'s nodes (see `node_config`).
const HOT_LOCK_WAIT: SimDuration = SimDuration::from_millis(20);
/// How long the generator sleeps when a pass over its in-flight
/// transactions found nothing to do.
const POLL: Duration = Duration::from_micros(50);
/// A transaction without an outcome after this long counts as failed.
const TXN_DEADLINE_NS: u64 = 30_000_000_000;
/// In traced passes, one transaction in this many records spans.
const SPAN_EVERY: u64 = 16;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One fresh key per transaction, segmented WAL.
    DurableWrite,
    /// Uniform keys, in-memory WAL, two lanes per node.
    MemOpen,
    /// Two Zipf keys, half read-only, segmented WAL.
    HotMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DurableWrite,
        Workload::MemOpen,
        Workload::HotMixed,
    ];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DurableWrite => "durable-write",
            Workload::MemOpen => "mem-open",
            Workload::HotMixed => "hot-mixed",
        }
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DurableWrite => {
                "flush-bound: 3 serial device flushes per commit, so the WAL and group \
                 commit do most of the work while the engine and locks do almost none"
            }
            Workload::MemOpen => {
                "CPU-bound: engine, driver, wire codec, lane channels and RM do the work and \
                 the WAL does no device work, so a group-commit change must show no change"
            }
            Workload::HotMixed => {
                "contended: two keys locked in the order drawn, reads beside writes, read-only \
                 votes skip phase 2 and locks are held across fsyncs, so the lock manager does \
                 most of the work"
            }
        }
    }

    /// The layer expected to dominate the workload.
    pub fn dominant_layer(self) -> &'static str {
        match self {
            Workload::DurableWrite => "tpc-wal",
            Workload::MemOpen => "tpc-core + tpc-common + tpc-runtime",
            Workload::HotMixed => "tpc-locks",
        }
    }

    /// Offered rate of the reference rung, where the end-to-end metrics
    /// are taken, transactions per second: about a third or less of the
    /// lowest closed-loop capacity seen on a shared 2-core host, whose CPU
    /// and disk speed drift, so a slow spell raises latency a little
    /// instead of building a queue.
    pub fn ref_rate(self) -> f64 {
        match self {
            Workload::DurableWrite => 1_000.0,
            Workload::MemOpen => 4_000.0,
            Workload::HotMixed => 1_500.0,
        }
    }

    /// Offered rate of ladder rung `i`, transactions per second: from
    /// 0.75x the reference rate up in steps of [`LADDER_STEP`].
    pub fn ladder_rate(self, i: usize) -> f64 {
        (0.75 * self.ref_rate() * LADDER_STEP.powi(i as i32)).round()
    }

    /// Loop type with its rates.
    pub fn shape(self) -> String {
        format!(
            "open loop, Poisson arrivals, reference rate {} txn/s; traced runs also run a \
             closed loop of {OUTSTANDING} outstanding and bisect a ladder {}..{} txn/s in \
             {LADDER_RUNGS} steps of x{LADDER_STEP} against a p99 limit of {P99_LIMIT_US} us",
            self.ref_rate(),
            self.ladder_rate(0),
            self.ladder_rate(LADDER_RUNGS - 1)
        )
    }

    /// The workload keeps a durable (segmented) WAL.
    pub fn durable(self) -> bool {
        self != Workload::MemOpen
    }

    /// The workload's node configuration. `with_opts` runs first: it
    /// replaces the whole `OptimizationConfig`, so calling it after
    /// `with_segmented_log` would silently drop the shared log. The
    /// starting options are the node's defaults, so the default
    /// group-commit policy is the one measured.
    pub fn node_config(self, wal_dir: &Path, traced: bool) -> LiveNodeConfig {
        let base = LiveNodeConfig::new(ProtocolKind::PresumedAbort);
        let opts = base.opts.clone().with_read_only(self == Workload::HotMixed);
        let cfg = base.with_opts(opts);
        // `hot-mixed` locks its keys in the order drawn, so waits-for
        // cycles form. The lock manager's detector misses some of them
        // (those through a request queued behind another waiter: it
        // draws edges to holders only), and on a single-lane node such a
        // cycle holds its keys until the 10 s vote-collection timeout,
        // while arrivals pile up behind it and most of the run aborts.
        // Two lanes arm the node's lock-wait timeout, which ends a missed
        // cycle by aborting its waiters, as a lock timeout does in a
        // commercial system; one stripe keeps every key in one waits-for
        // graph, so only the cycles the detector misses reach the
        // timeout. The node's 2 s default lets a missed cycle's backlog
        // tip the server into repeated timeouts, so the workload pins a
        // short one. Missed cycles then show as lock timeouts
        // (`locks.timeouts_per_ktxn`), aborts and tail latency.
        let cfg = match self {
            Workload::DurableWrite => cfg.with_segmented_log(wal_dir),
            Workload::MemOpen => cfg.with_lanes(2),
            Workload::HotMixed => cfg
                .with_lanes(2)
                .with_stripes(1)
                .with_lock_wait_timeout(HOT_LOCK_WAIT)
                .with_segmented_log(wal_dir),
        };
        if traced {
            cfg.with_observability()
        } else {
            cfg
        }
    }
}

/// Ratio between adjacent ladder rungs.
const LADDER_STEP: f64 = 1.05;
/// Rungs on the ladder (0.75x to about 16x the reference rate).
pub const LADDER_RUNGS: usize = 64;
/// p99 latency limit (from due time) a ladder rung must meet. Generous
/// enough that a scheduling stall of a few ms on a shared host does not
/// fail a rung; past saturation latency grows far beyond it.
pub const P99_LIMIT_US: u64 = 20_000;

/// The keys and shape of one generated transaction.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Root node (0 or 1).
    pub root: NodeId,
    /// Keys touched at the server (`nkeys` of them are used).
    pub keys: [u32; 2],
    /// Number of keys touched.
    pub nkeys: usize,
    /// Writes (`put`) rather than reads (`get`).
    pub write: bool,
}

impl Plan {
    fn keys(&self) -> &[u32] {
        &self.keys[..self.nkeys]
    }
}

/// Turns the seed into the workload's stream of transactions.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    zipf: Option<Zipf>,
    fresh: u32,
}

impl Generator {
    /// The generator of `workload`'s transactions for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Generator {
            workload,
            rng: Rng::new(seed, 1),
            zipf: (workload == Workload::HotMixed).then(|| Zipf::new(HOT_KEYS, HOT_THETA)),
            fresh: 0,
        }
    }

    /// The next transaction.
    pub fn next_plan(&mut self) -> Plan {
        let root = NodeId(self.rng.below(2) as u32);
        match self.workload {
            Workload::DurableWrite => {
                self.fresh += 1;
                Plan {
                    root,
                    keys: [self.fresh, 0],
                    nkeys: 1,
                    write: true,
                }
            }
            Workload::MemOpen => Plan {
                root,
                keys: [self.rng.below(MEM_KEYS) as u32, 0],
                nkeys: 1,
                write: true,
            },
            Workload::HotMixed => {
                let zipf = self.zipf.as_ref().expect("hot-mixed has a Zipf");
                let a = zipf.sample(&mut self.rng) as u32;
                let mut b = zipf.sample(&mut self.rng) as u32;
                while b == a {
                    b = zipf.sample(&mut self.rng) as u32;
                }
                // Keys are locked in the order drawn, so transactions
                // can deadlock; see `node_config` for how cycles end.
                Plan {
                    root,
                    keys: [a, b],
                    nkeys: 2,
                    write: self.rng.unit() < 0.5,
                }
            }
        }
    }
}

/// The server-side key name of key number `k`.
pub fn key_name(workload: Workload, k: u32) -> String {
    let prefix = match workload {
        Workload::DurableWrite => "d",
        Workload::MemOpen => "m",
        Workload::HotMixed => "h",
    };
    format!("{prefix}{k}")
}

/// The value transaction `seq` writes.
pub fn value_of(seq: u64) -> String {
    format!("v{seq}")
}

/// The operations a plan sends to the server.
pub fn ops_of(workload: Workload, plan: &Plan, seq: u64) -> Vec<Op> {
    let value = value_of(seq);
    plan.keys()
        .iter()
        .map(|&k| {
            let key = key_name(workload, k);
            if plan.write {
                Op::put(&key, &value)
            } else {
                Op::get(&key)
            }
        })
        .collect()
}

/// A committed writer of one key, stamped with the generator's logical
/// clock at issue and at observed completion.
#[derive(Clone, Copy, Debug)]
struct Writer {
    issued: u64,
    done: u64,
    seq: u64,
}

/// Every key a writer touched, with the writers that committed on it.
#[derive(Default)]
pub struct Ledger {
    keys: HashMap<u32, Vec<Writer>>,
}

impl Ledger {
    /// Keys written (or attempted) in the pass.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Checks every written key at the server. A writer issued after
    /// another's commit was observed serializes after it (the earlier
    /// one held its exclusive lock until the server applied it), so the
    /// key must hold the value of a committed writer that no other
    /// committed writer provably followed; a key with no committed
    /// writer must be absent. Returns the mismatches found.
    pub fn check(&self, workload: Workload, cluster: &LiveCluster) -> Vec<String> {
        let mut bad = Vec::new();
        let mut keys: Vec<&u32> = self.keys.keys().collect();
        keys.sort_unstable();
        for &k in keys {
            let writers = &self.keys[&k];
            let name = key_name(workload, k);
            let got = match cluster.try_read(SERVER, &name) {
                Ok(v) => v.map(|b| String::from_utf8_lossy(&b).into_owned()),
                Err(e) => {
                    bad.push(format!("{name}: read failed: {e}"));
                    continue;
                }
            };
            let ok = match &got {
                None => writers.is_empty(),
                Some(v) => last_writers(writers).any(|w| *v == value_of(w.seq)),
            };
            if !ok {
                bad.push(format!(
                    "{name}: read {got:?}, {} committed writer(s)",
                    writers.len()
                ));
            }
        }
        bad
    }
}

/// Writers that no other writer was issued after: one of them holds the
/// final value.
fn last_writers(writers: &[Writer]) -> impl Iterator<Item = &Writer> {
    // The latest and second-latest issue stamps decide, for each writer,
    // the latest issue among the *others*.
    let mut top = (0usize, 0u64);
    let mut second = 0u64;
    for (i, w) in writers.iter().enumerate() {
        if w.issued > top.1 {
            second = top.1;
            top = (i, w.issued);
        } else if w.issued > second {
            second = w.issued;
        }
    }
    writers.iter().enumerate().filter_map(move |(i, w)| {
        let others = if i == top.0 { second } else { top.1 };
        (others <= w.done).then_some(w)
    })
}

struct Flight {
    wait: CommitWait,
    txn: TxnId,
    plan: Plan,
    seq: u64,
    due_ns: u64,
    issued_ns: u64,
    clock: u64,
    span: Option<usize>,
}

/// Transaction counts of a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Transactions issued.
    pub attempted: u64,
    /// Outcomes `Commit`.
    pub committed: u64,
    /// Outcomes `Abort`.
    pub aborted: u64,
    /// Errors and transactions past their deadline.
    pub failed: u64,
}

/// One generator pass over a live cluster.
pub struct Pass<'c> {
    cluster: &'c LiveCluster,
    workload: Workload,
    gen: Generator,
    t0: Instant,
    clock: u64,
    inflight: Vec<Flight>,
    /// Outcome records of every delivered result, for the verifier.
    pub outcomes: Vec<OutcomeRecord>,
    /// Committed writers per key, for the read-back check.
    pub ledger: Ledger,
    /// Transaction counts.
    pub counts: Counts,
    /// Spans of sampled transactions (traced passes only).
    pub spans: Option<Vec<Span>>,
    /// Duration of every `begin` + `work` + `commit_async` (traced only).
    pub issue_ns: Vec<u64>,
    /// Peak RSS, MiB, when the pass had finished [`RSS_AFTER_TXNS`]
    /// transactions: memory for a fixed amount of work, however fast the
    /// cluster ran.
    pub rss_mb: Option<f64>,
}

/// Transactions a pass reserves bookkeeping for.
const RESERVE_TXNS: usize = 1 << 18;

/// Finished transactions after which a pass samples peak RSS.
pub const RSS_AFTER_TXNS: u64 = 10_000;

impl<'c> Pass<'c> {
    /// A pass over `cluster`; `traced` records spans around the calls.
    pub fn new(cluster: &'c LiveCluster, workload: Workload, seed: u64, traced: bool) -> Self {
        Pass {
            cluster,
            workload,
            gen: Generator::new(workload, seed),
            t0: Instant::now(),
            clock: 0,
            // Reserved up front (untouched pages cost no memory), so the
            // generator does not stall copying them while it grows.
            inflight: Vec::new(),
            outcomes: Vec::with_capacity(RESERVE_TXNS),
            ledger: Ledger {
                keys: HashMap::with_capacity(RESERVE_TXNS),
            },
            counts: Counts::default(),
            spans: traced.then(Vec::new),
            issue_ns: Vec::with_capacity(if traced { RESERVE_TXNS } else { 0 }),
            rss_mb: None,
        }
    }

    /// When the pass began: the origin of its clock and spans.
    pub fn started(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the pass began.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Transactions issued and not yet finished.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Issues the next transaction, due at `due_ns`.
    pub fn issue(&mut self, due_ns: u64) {
        let plan = self.gen.next_plan();
        let seq = self.counts.attempted;
        self.counts.attempted += 1;
        self.clock += 1;
        if plan.write {
            for &k in plan.keys() {
                self.ledger.keys.entry(k).or_default();
            }
        }
        let ops = ops_of(self.workload, &plan, seq);
        let issued_ns = self.now_ns();
        let traced = self.spans.is_some();
        let mark = |pass: &Self| traced.then(|| pass.now_ns());
        let t = self.cluster.begin(plan.root);
        let a = mark(self);
        let id = t.id();
        t.work(SERVER, ops);
        let b = mark(self);
        let wait = t.commit_async();
        let c = mark(self);
        let marks = a.zip(b).zip(c).map(|((a, b), c)| (a, b, c));
        let mut span = None;
        if let Some((a, b, c)) = marks {
            self.issue_ns.push(c - issued_ns);
            if seq.is_multiple_of(SPAN_EVERY) {
                let spans = self.spans.as_mut().expect("traced");
                let root = spans.len();
                let mut push = |name, parent, start_ns, end_ns| {
                    spans.push(Span {
                        name,
                        txn: seq,
                        parent,
                        start_ns,
                        end_ns,
                    })
                };
                push("txn", None, issued_ns, issued_ns);
                push("runtime.issue", Some(root), issued_ns, c);
                push("runtime.begin", Some(root + 1), issued_ns, a);
                push("runtime.work", Some(root + 1), a, b);
                push("runtime.commit_async", Some(root + 1), b, c);
                span = Some(root);
            }
        }
        self.inflight.push(Flight {
            wait,
            txn: id,
            plan,
            seq,
            due_ns,
            issued_ns,
            clock: self.clock,
            span,
        });
    }

    /// Polls every in-flight transaction once and appends the due, issue
    /// and completion times of the finished ones to `out`. A transaction
    /// past its deadline, or whose root went away, counts as failed.
    pub fn poll(&mut self, out: &mut Vec<Due>) {
        let now = self.now_ns();
        let mut i = 0;
        while i < self.inflight.len() {
            let result = match self.inflight[i].wait.poll() {
                Ok(None) if now - self.inflight[i].issued_ns < TXN_DEADLINE_NS => {
                    i += 1;
                    continue;
                }
                Ok(r) => r,
                Err(_) => None,
            };
            let f = self.inflight.swap_remove(i);
            self.clock += 1;
            let Some(result) = result else {
                self.counts.failed += 1;
                continue;
            };
            self.outcomes
                .push(outcome_record(f.txn, f.plan.root, &result));
            if result.outcome == Outcome::Commit {
                self.counts.committed += 1;
                if f.plan.write {
                    for &k in f.plan.keys() {
                        self.ledger.keys.entry(k).or_default().push(Writer {
                            issued: f.clock,
                            done: self.clock,
                            seq: f.seq,
                        });
                    }
                }
            } else {
                self.counts.aborted += 1;
            }
            if let (Some(root), Some(spans)) = (f.span, self.spans.as_mut()) {
                spans[root].end_ns = now;
                let issued_end = spans[root + 1].end_ns;
                spans.push(Span {
                    name: "runtime.poll_wait",
                    txn: f.seq,
                    parent: Some(root),
                    start_ns: issued_end,
                    end_ns: now,
                });
            }
            if self.rss_mb.is_none()
                && self.counts.committed + self.counts.aborted >= RSS_AFTER_TXNS
            {
                self.rss_mb = Some(crate::proc::peak_rss_mb());
            }
            out.push(Due {
                due_ns: f.due_ns,
                issued_ns: f.issued_ns,
                done_ns: now,
                update: f.plan.write,
            });
        }
    }
}

/// What one open-loop rung measured.
pub struct OpenRung {
    /// Every request of the rung, in completion order.
    pub requests: Vec<Due>,
    /// Requests issued during the rung.
    pub issued: u64,
    /// The rung ended with more requests outstanding than meet the
    /// latency limit at its rate, or stopped offering load at the cap.
    pub backlog_growing: bool,
    /// CPU seconds of every thread but the generator while the rung
    /// offered load.
    pub cpu_s: f64,
}

/// Offers Poisson arrivals at `rate` for `duration`, then drains. Each
/// request is timed from when it was due; the generator sleeps between
/// due times instead of spinning. With `cap` the rung stops offering
/// load once its backlog shows sustained overload (ladder probes); a
/// rung at the reference rate keeps offering it through any stall.
pub fn run_rung(
    pass: &mut Pass,
    arrivals: &mut Rng,
    rate: f64,
    duration: Duration,
    cap: bool,
) -> OpenRung {
    let mean_gap = 1e9 / rate;
    let start = pass.now_ns();
    let end = start + duration.as_nanos() as u64;
    let mut next_due = start + arrivals.exp(mean_gap) as u64;
    let cpu0 = crate::proc::others_cpu_seconds();
    let mut cpu1 = None;
    let mut issued = 0u64;
    // By Little's law, requests that meet the latency limit at this rate
    // number at most `rate * limit` in flight; a rung that ends with more
    // has a backlog the limit cannot absorb. One that reaches ten times
    // that stops offering load: well past what a passing stall leaves
    // behind, so only sustained overload trips it.
    let allowed = (rate * P99_LIMIT_US as f64 / 1e6).ceil() as usize;
    let mut at_end = None;
    let mut capped = false;
    let mut requests = Vec::with_capacity((rate * duration.as_secs_f64() * 1.2) as usize);
    let mut done = Vec::new();
    loop {
        let now = pass.now_ns();
        while !capped && next_due <= now && next_due < end {
            pass.issue(next_due);
            issued += 1;
            next_due += arrivals.exp(mean_gap) as u64;
        }
        if (now >= end || capped) && at_end.is_none() {
            at_end = Some(pass.in_flight());
            cpu1 = Some(crate::proc::others_cpu_seconds());
        }
        done.clear();
        pass.poll(&mut done);
        requests.extend_from_slice(&done);
        if cap && pass.in_flight() > 10 * allowed {
            capped = true;
        }
        if at_end.is_some() && pass.in_flight() == 0 {
            break;
        }
        let now = pass.now_ns();
        let wake = if next_due < end && !capped {
            next_due.min(now + POLL.as_nanos() as u64)
        } else {
            now + POLL.as_nanos() as u64
        };
        if wake > now {
            std::thread::sleep(Duration::from_nanos(wake - now));
        }
    }
    let at_end = at_end.expect("rung ended");
    OpenRung {
        requests,
        issued,
        backlog_growing: capped || at_end > allowed,
        cpu_s: cpu1.expect("rung ended") - cpu0,
    }
}

/// Transactions a closed loop keeps in flight.
pub const OUTSTANDING: usize = 16;

/// Keeps [`OUTSTANDING`] transactions in flight for `duration`, issuing
/// the next as soon as one finishes, then drains. Returns completions
/// per second while it offered load.
pub fn run_closed(pass: &mut Pass, duration: Duration) -> f64 {
    let end = pass.now_ns() + duration.as_nanos() as u64;
    let mut completed = 0u64;
    let mut done = Vec::new();
    loop {
        let now = pass.now_ns();
        if now < end {
            while pass.in_flight() < OUTSTANDING {
                pass.issue(now);
            }
        } else if pass.in_flight() == 0 {
            break;
        }
        done.clear();
        pass.poll(&mut done);
        completed += done.iter().filter(|d| d.done_ns < end).count() as u64;
        if done.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    completed as f64 / duration.as_secs_f64()
}

/// Starts the workload's cluster and waits until every node answers;
/// returns it with the seconds that took (WAL open and segment
/// preallocation included).
pub fn start_cluster(
    workload: Workload,
    wal_dir: &Path,
    traced: bool,
) -> Result<(LiveCluster, f64), String> {
    let configs = vec![workload.node_config(wal_dir, traced); NODES];
    let t = Instant::now();
    let cluster = LiveCluster::start(configs);
    for n in 0..NODES {
        cluster
            .try_summary(NodeId(n as u32))
            .map_err(|e| format!("node {n} not ready: {e}"))?;
    }
    Ok((cluster, t.elapsed().as_secs_f64()))
}

/// One line describing a node's effective configuration.
pub fn describe_config(cfg: &LiveNodeConfig) -> String {
    let wal = match cfg.log_backend {
        LogBackend::Memory => "memory",
        LogBackend::File(_) => "file",
        LogBackend::Segmented(_) => "segmented",
    };
    format!(
        "protocol={:?} wal={wal} lanes={} stripes={} observe={} opts={:?}",
        cfg.protocol,
        cfg.lanes,
        cfg.effective_stripes(),
        cfg.observe,
        cfg.opts
    )
}
