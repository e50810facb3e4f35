//! The live cluster: one thread per node lane, with kill / restart /
//! fault-injection controls for chaos testing. Frames travel over
//! crossbeam channels ([`LiveCluster::start`]) or loopback TCP sockets
//! ([`LiveCluster::start_tcp`]); everything above the transport is the
//! same code.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use tpc_common::{BufferPool, Error, NodeId, Op, PooledBuf, Result, TxnId};
use tpc_rm::SharedRm;
use tpc_wal::{LogManager, SharedLog};

use crate::fault::{FaultPlan, FaultStats, FaultyWire};
use crate::node::{
    create_log, lane_driver, lane_of, make_obs, recover_lanes, reopen_log, rm_config, tail_counts,
    AckSlot, AppCmd, CommitResult, Inbound, IoHealth, LaneParts, LaneStart, LiveNodeConfig,
    LogRole, NodeSummary, NodeWorker, Transport,
};
use crate::signal::ClusterSignal;
use crate::tcp::{RetryPolicy, TcpTransport};
use crate::workload::{run_closed_loop, run_open_loop, OpenLoopReport, OpenLoopSpec};
use crate::workload::{WorkloadReport, WorkloadSpec};

/// How long cluster-level blocking requests (commit, read, summary) wait
/// for a reply before reporting [`Error::Timeout`] instead of hanging on
/// a dead or wedged node.
const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Transport over crossbeam channels: every node holds senders to all
/// peers' lanes.
pub struct ChannelTransport {
    me: NodeId,
    /// `peers[node][lane]` — lane 0 always exists.
    peers: Vec<Vec<Sender<Inbound>>>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        if let Some(lanes) = self.peers.get(to.index()) {
            if let Some(tx) = lanes.get(lane).or_else(|| lanes.first()) {
                let _ = tx.send(Inbound::Frame {
                    from: self.me,
                    bytes,
                });
            }
        }
    }
}

/// How frames travel between nodes — the one thing the two transports
/// do differently. Read only when a lane's transport is made.
enum Net {
    /// In-process crossbeam channels straight into the lane inboxes.
    Channel,
    /// Loopback sockets: node `i` listens on `addrs[i]`, and `pools[i]`
    /// is the buffer pool its transports and socket readers share.
    Tcp {
        addrs: Vec<SocketAddr>,
        pools: Vec<BufferPool>,
    },
}

/// A running live cluster.
pub struct LiveCluster {
    /// `senders[node][lane]` — lane 0 always exists.
    senders: Vec<Vec<Sender<Inbound>>>,
    /// Clones of the workers' inbound receivers, kept so a killed node's
    /// channel survives and a restarted worker can resume reading it
    /// (after the down-window backlog is drained — those frames are the
    /// messages the dead "process" never received).
    receivers: Vec<Vec<Receiver<Inbound>>>,
    /// `None` marks a dead (killed, not yet restarted) worker, indexed
    /// `[node][lane]`.
    handles: Vec<Vec<Option<JoinHandle<NodeSummary>>>>,
    /// Coordinator lanes per node (uniform across the cluster).
    lanes: usize,
    configs: Vec<LiveNodeConfig>,
    downstream: Vec<Vec<NodeId>>,
    fault_stats: Vec<Option<Arc<FaultStats>>>,
    epoch: Instant,
    next_seq: Arc<AtomicU64>,
    reply_timeout: Duration,
    /// Bumped by workers on observable progress; cluster-level waits
    /// block on it instead of sleep-polling.
    pub(crate) signal: Arc<ClusterSignal>,
    net: Net,
}

impl LiveCluster {
    /// Starts one thread per config with no standing partners: commit
    /// trees are built purely from the work actually exchanged. Standing
    /// partnership (the LU 6.2 conversation structure that the leave-out
    /// optimization exploits) is directional and tree-shaped — declare it
    /// explicitly with [`LiveCluster::start_with_topology`].
    pub fn start(configs: Vec<LiveNodeConfig>) -> Self {
        Self::start_with_topology(configs, &[])
    }

    /// Starts the cluster with explicit partner edges `(parent, child)`.
    pub fn start_with_topology(configs: Vec<LiveNodeConfig>, partners: &[(usize, usize)]) -> Self {
        let faults = vec![None; configs.len()];
        Self::start_with_faults(configs, partners, faults)
    }

    /// Starts the cluster with a per-node outbound [`FaultPlan`] (`None`
    /// for a clean wire). Fault plans apply to the node's original
    /// incarnation only; a restarted node comes back with a clean wire so
    /// recovery converges.
    pub fn start_with_faults(
        configs: Vec<LiveNodeConfig>,
        partners: &[(usize, usize)],
        faults: Vec<Option<FaultPlan>>,
    ) -> Self {
        assert_eq!(configs.len(), faults.len(), "one fault slot per node");
        let mut cluster = Self::unstarted(configs, partners);
        cluster.spawn_all(faults);
        cluster
    }

    /// Starts the cluster over loopback TCP: every node binds a listener
    /// and frames travel over real sockets, each carrying its
    /// destination lane, demonstrating that the engine's wire format and
    /// ordering assumptions hold on a real network stack. No standing
    /// partners, as with [`LiveCluster::start`].
    pub fn start_tcp(configs: Vec<LiveNodeConfig>) -> std::io::Result<Self> {
        let n = configs.len();
        let mut cluster = Self::unstarted(configs, &[]);
        let (addrs, pools) = crate::tcp::listen(&cluster.senders)?;
        cluster.net = Net::Tcp { addrs, pools };
        cluster.spawn_all(vec![None; n]);
        Ok(cluster)
    }

    /// Builds the lane inboxes and bookkeeping of a cluster whose
    /// workers have not been spawned yet, on the channel network.
    fn unstarted(configs: Vec<LiveNodeConfig>, partners: &[(usize, usize)]) -> Self {
        let n = configs.len();
        let lanes = configs.first().map(|c| c.lanes.max(1)).unwrap_or(1);
        assert!(
            configs.iter().all(|c| c.lanes.max(1) == lanes),
            "lane count must be uniform across the cluster (txn→lane \
             routing is a pure function every node computes)"
        );
        let (senders, receivers) = (0..n)
            .map(|_| (0..lanes).map(|_| unbounded()).unzip())
            .unzip();
        let downstream: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                partners
                    .iter()
                    .filter(|(a, _)| *a == i)
                    .map(|(_, b)| NodeId(*b as u32))
                    .collect()
            })
            .collect();
        LiveCluster {
            senders,
            receivers,
            handles: (0..n).map(|_| (0..lanes).map(|_| None).collect()).collect(),
            lanes,
            configs,
            downstream,
            fault_stats: vec![None; n],
            epoch: Instant::now(),
            next_seq: Arc::new(AtomicU64::new(1)),
            reply_timeout: DEFAULT_REPLY_TIMEOUT,
            signal: Arc::new(ClusterSignal::new()),
            net: Net::Channel,
        }
    }

    /// Spawns every node's lane workers on fresh logs.
    fn spawn_all(&mut self, faults: Vec<Option<FaultPlan>>) {
        for (i, plan) in faults.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let cfg = self.configs[i].clone();
            // The RM log must share the TM log's durability class: a node
            // whose TM log survives a crash but whose RM log does not
            // could not honour its prepared guarantee.
            let rm_log = (!cfg.opts.shared_log).then(|| create_log(&cfg, node, LogRole::Rm));
            let log = create_log(&cfg, node, LogRole::Tm);
            let obs = make_obs(&cfg);
            let starts = (0..self.lanes)
                .map(|_| LaneStart {
                    driver: lane_driver(node, &cfg, &self.downstream[i], obs.as_ref())
                        .expect("valid live config"),
                    actions: Vec::new(),
                })
                .collect();
            let rm = Arc::new(SharedRm::new(rm_config(&cfg), cfg.effective_stripes()));
            let parts = NodeParts {
                rm,
                log,
                rm_log,
                obs,
            };
            self.spawn_node(node, &cfg, plan, parts, starts)
                .expect("valid live config");
        }
    }

    /// Builds and spawns every lane worker of `node` from its lane
    /// starts — fresh drivers at start-up, [`recover_lanes`]' output on
    /// restart. A single-lane node owns its logs outright and carries no
    /// ack slot, so its engine accounts every ack itself, as the
    /// simulator's does. The lanes of a multi-lane node share the logs
    /// through [`SharedLog`] clones (storage faults sit inside the
    /// wrapper, so all lanes' appends run through one fault stream, as
    /// they share one disk), one RM, one recorder and one ack slot.
    fn spawn_node(
        &mut self,
        node: NodeId,
        cfg: &LiveNodeConfig,
        plan: Option<FaultPlan>,
        node_parts: NodeParts,
        starts: Vec<LaneStart>,
    ) -> Result<()> {
        let i = node.index();
        let lane_logs: Vec<(LogBox, Option<LogBox>)> = if self.lanes == 1 {
            vec![(node_parts.log, node_parts.rm_log)]
        } else {
            let tm = SharedLog::new(node_parts.log);
            let rm_log = node_parts.rm_log.map(SharedLog::new);
            (0..self.lanes)
                .map(|_| {
                    let rm_log = rm_log.as_ref().map(|l| Box::new(l.clone()) as LogBox);
                    (Box::new(tm.clone()) as LogBox, rm_log)
                })
                .collect()
        };
        let (lane_peers, ack_slot) = if self.lanes == 1 {
            (Vec::new(), None)
        } else {
            (self.senders[i].clone(), Some(Arc::new(AckSlot::default())))
        };
        let health = Arc::new(IoHealth::default());
        for (lane, ((log, rm_log), start)) in lane_logs.into_iter().zip(starts).enumerate() {
            let transport = self.make_transport(node, lane, plan.clone());
            let parts = LaneParts {
                rm: Arc::clone(&node_parts.rm),
                log,
                rm_log,
                obs: node_parts.obs.clone(),
                lane,
                lane_peers: lane_peers.clone(),
                health: Arc::clone(&health),
                ack_slot: ack_slot.clone(),
            };
            let worker = NodeWorker::from_parts(
                node,
                cfg,
                transport,
                self.receivers[i][lane].clone(),
                self.epoch,
                Arc::clone(&self.signal),
                parts,
                start,
            )?;
            self.handles[i][lane] = Some(spawn_worker(
                i,
                lane,
                self.lanes,
                worker,
                Arc::clone(&self.signal),
            ));
        }
        Ok(())
    }

    /// Replaces the reply deadline used by blocking requests.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Makes the transport one lane of `node` sends through, wrapped in a
    /// [`FaultyWire`] when the node has a fault plan.
    fn make_transport(
        &mut self,
        node: NodeId,
        lane: usize,
        plan: Option<FaultPlan>,
    ) -> Box<dyn Transport> {
        let base: Box<dyn Transport> = match &self.net {
            Net::Channel => Box::new(ChannelTransport {
                me: node,
                peers: self.senders.clone(),
            }),
            Net::Tcp { addrs, pools } => Box::new(TcpTransport::new(
                node,
                addrs.clone(),
                RetryPolicy::default(),
                self.senders[node.index()][lane].clone(),
                pools[node.index()].clone(),
            )),
        };
        match plan {
            Some(plan) => {
                let wire = FaultyWire::new(base, plan);
                self.fault_stats[node.index()] = Some(wire.stats());
                Box::new(wire)
            }
            None => base,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Coordinator lanes per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// True while any of `node`'s lane workers is running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.handles[node.index()]
            .iter()
            .any(|h| h.as_ref().is_some_and(|h| !h.is_finished()))
    }

    /// Fault counters for `node`'s outbound wire, when it has one.
    pub fn fault_stats(&self, node: NodeId) -> Option<&FaultStats> {
        self.fault_stats[node.index()].as_deref()
    }

    /// Kills `node` mid-protocol: every lane worker crashes (volatile
    /// state and buffered log tails lost, in-flight replies dropped) and
    /// the node's partners are told the sessions failed, exactly as the
    /// simulator's crash event does. A multi-lane node dies as one
    /// process — its lanes share the RM and log buffers, so they go down
    /// together. Returns the dying node's last summary (lanes folded).
    pub fn kill(&mut self, node: NodeId) -> Result<NodeSummary> {
        if !self.handles[node.index()].iter().any(|h| h.is_some()) {
            return Err(Error::NodeDown(node));
        }
        for lane in 0..self.lanes {
            if self.handles[node.index()][lane].is_some() {
                let _ = self.senders[node.index()][lane].send(Inbound::Kill);
            }
        }
        let summary = self.join_node(node)?;
        self.broadcast_partner_down(node);
        Ok(summary)
    }

    /// Joins every live lane worker of `node` and folds their summaries
    /// into the node-level rollup.
    fn join_node(&mut self, node: NodeId) -> Result<NodeSummary> {
        let mut merged: Option<NodeSummary> = None;
        for slot in self.handles[node.index()].iter_mut() {
            let Some(handle) = slot.take() else { continue };
            let s = handle
                .join()
                .map_err(|_| Error::Transport(format!("worker {node} panicked")))?;
            match merged.as_mut() {
                Some(base) => base.absorb_lane(s),
                None => merged = Some(s),
            }
        }
        merged.ok_or(Error::NodeDown(node))
    }

    /// Waits for a node armed with
    /// [`kill_after_frames`](LiveNodeConfig::kill_after_frames) (on any
    /// lane) or driven into fail-stop by a storage fault to crash
    /// itself, then notifies its partners. On a multi-lane node the
    /// first lane to die takes the rest of the "process" with it: the
    /// lanes share volatile state, so the survivors are killed and
    /// joined too. Fails with [`Error::Timeout`] if every lane is still
    /// alive after `timeout`.
    pub fn await_death(&mut self, node: NodeId, timeout: Duration) -> Result<NodeSummary> {
        if !self.handles[node.index()].iter().any(|h| h.is_some()) {
            return Err(Error::NodeDown(node));
        }
        let finished = self.signal.wait_for(timeout, || {
            self.handles[node.index()]
                .iter()
                .any(|h| h.as_ref().is_some_and(|h| h.is_finished()))
                .then_some(())
        });
        if finished.is_none() {
            return Err(Error::Timeout(format!(
                "{node} still alive after {timeout:?}"
            )));
        }
        // The remaining lanes die with the process (their volatile state
        // is shared with the crashed lane); Kill makes it explicit.
        for lane in 0..self.lanes {
            if let Some(h) = self.handles[node.index()][lane].as_ref() {
                if !h.is_finished() {
                    let _ = self.senders[node.index()][lane].send(Inbound::Kill);
                }
            }
        }
        let summary = self.join_node(node)?;
        self.broadcast_partner_down(node);
        Ok(summary)
    }

    /// Restarts a killed node from its durable file WAL: stale frames
    /// that piled up while it was down are discarded (the dead process
    /// never received them), then RM and engine recovery replay and the
    /// protocol re-drives over the transport. On a multi-lane node the
    /// one shared log is replayed once and the recovered transactions
    /// are repartitioned to their owning lanes (`lane_of`), each lane
    /// worker resuming with exactly its own seats; recovery telemetry
    /// rolls up per node. The node comes back with clean storage — no
    /// fault plan — mirroring the wire's clean-on-restart semantics.
    pub fn restart(&mut self, node: NodeId) -> Result<()> {
        if self.handles[node.index()].iter().any(|h| h.is_some()) {
            return Err(Error::InvalidState(format!("{node} is already running")));
        }
        for lane in 0..self.lanes {
            while self.receivers[node.index()][lane].try_recv().is_ok() {}
        }
        let mut cfg = self.configs[node.index()].clone();
        // The replacement "disk" is healthy: the original incarnation's
        // fault plan does not follow the node through restart, and a
        // recovered node does not crash again (`kill_after_frames` is
        // one-shot).
        cfg.storage_faults = None;
        cfg.kill_after_frames = None;
        // Reopen the durable WAL (classifying any tail damage), replay it
        // once, and hand each lane its own recovered driver + pending
        // recovery actions.
        let (mut log, tm_tail) = reopen_log(&cfg.log_backend, node, LogRole::Tm)?;
        let mut damage = tail_counts(tm_tail);
        let mut rm_log: Option<LogBox> = if cfg.opts.shared_log {
            None
        } else {
            let (rm_log, rm_tail) = reopen_log(&cfg.log_backend, node, LogRole::Rm)?;
            let (t, c) = tail_counts(rm_tail);
            damage = (damage.0 + t, damage.1 + c);
            Some(rm_log)
        };
        let obs = make_obs(&cfg);
        let rm = Arc::new(SharedRm::new(rm_config(&cfg), cfg.effective_stripes()));
        let starts = recover_lanes(
            node,
            &cfg,
            &self.downstream[node.index()],
            &rm,
            &mut log,
            &mut rm_log,
            obs.as_ref(),
            self.epoch,
            damage,
        )?;
        let parts = NodeParts {
            rm,
            log,
            rm_log,
            obs,
        };
        self.spawn_node(node, &cfg, None, parts, starts)
    }

    fn broadcast_partner_down(&self, peer: NodeId) {
        for (i, lanes) in self.senders.iter().enumerate() {
            if i == peer.index() {
                continue;
            }
            for (lane, tx) in lanes.iter().enumerate() {
                if self.handles[i][lane].is_some() {
                    let _ = tx.send(Inbound::PartnerDown { peer });
                }
            }
        }
    }

    /// Begins a transaction rooted at `root`.
    pub fn begin(&self, root: NodeId) -> TxnHandle<'_> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        TxnHandle {
            cluster: self,
            txn: TxnId::new(root, seq),
            root,
        }
    }

    fn request_lane<R>(
        &self,
        node: NodeId,
        lane: usize,
        make: impl FnOnce(Sender<R>) -> AppCmd,
    ) -> Result<R> {
        if self.handles[node.index()][lane].is_none() {
            return Err(Error::NodeDown(node));
        }
        let (tx, rx) = bounded(1);
        self.senders[node.index()][lane]
            .send(Inbound::App(make(tx)))
            .map_err(|_| Error::NodeDown(node))?;
        recv_reply(&rx, node, self.reply_timeout)
    }

    fn request<R>(&self, node: NodeId, make: impl FnOnce(Sender<R>) -> AppCmd) -> Result<R> {
        self.request_lane(node, 0, make)
    }

    /// Reads a committed value from `node`'s store (blocking).
    pub fn read(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.try_read(node, key).ok().flatten()
    }

    /// Reads a committed value, distinguishing "no such key" from "node
    /// down / no reply".
    pub fn try_read(&self, node: NodeId, key: &str) -> Result<Option<Vec<u8>>> {
        self.request(node, |reply| AppCmd::Read {
            key: key.as_bytes().to_vec(),
            reply,
        })
    }

    /// Polls `node`'s store until `key` holds a value or `timeout`
    /// elapses. The root's outcome reply races decision propagation to
    /// subordinates (it may answer while acks are still in flight), so
    /// visibility at another node is asserted with a deadline, not a
    /// single read.
    pub fn read_eventually(&self, node: NodeId, key: &str, timeout: Duration) -> Option<Vec<u8>> {
        self.signal.wait_for(timeout, || self.read(node, key))
    }

    /// Waits until every live node reports zero active transactions, or
    /// `timeout` passes. Returns `true` on quiescence — chaos runs call
    /// this before handing final state to [`crate::verify::check`]. The
    /// wait blocks on the cluster progress signal instead of sleeping.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.signal
            .wait_for(timeout, || {
                let busy = (0..self.handles.len()).any(|i| {
                    self.handles[i].iter().any(|h| h.is_some())
                        && self
                            .summary(NodeId(i as u32))
                            .is_none_or(|s| s.active_txns > 0)
                });
                (!busy).then_some(())
            })
            .is_some()
    }

    /// Drives a closed-loop concurrent workload: `spec.concurrency` slots
    /// each keep one transaction in flight via `commit_async`, rooting at
    /// nodes `0..n-1` round-robin and writing a disjoint key at the last
    /// node (the shared "server" participant). This is what actually
    /// fills group-commit batches — sequential commits never overlap at
    /// the log.
    pub fn run_workload(&self, spec: &WorkloadSpec) -> WorkloadReport {
        assert!(self.len() >= 2, "workload needs a root and a server node");
        let server = NodeId((self.len() - 1) as u32);
        let roots = self.len() - 1;
        run_closed_loop(spec.concurrency, spec.txns, |slot, i| {
            let root = NodeId((slot % roots) as u32);
            let t = self.begin(root);
            let key = format!("{}-{slot}-{i}", spec.key_prefix);
            t.work(server, vec![Op::put(&key, &i.to_string())]);
            t.commit_async().wait(spec.reply_timeout)
        })
    }

    /// Drives an open-loop workload: transactions arrive at
    /// `spec.arrival_rate` per second regardless of completion (the
    /// generator does not wait for one txn before issuing the next),
    /// roots round-robin over nodes `0..n-1`, and each txn writes one
    /// zipf-drawn tenant key at the last node. Admission control bounds
    /// the in-flight population at `spec.max_in_flight` and the arrival
    /// backlog at `spec.queue_cap`; beyond that arrivals are *rejected*
    /// and counted, so overload degrades into bounded queueing +
    /// explicit rejections instead of collapse.
    pub fn run_open_loop(&self, spec: &OpenLoopSpec) -> OpenLoopReport {
        assert!(self.len() >= 2, "workload needs a root and a server node");
        let server = NodeId((self.len() - 1) as u32);
        let roots = self.len() - 1;
        run_open_loop(spec, |arrival| {
            let root = NodeId((arrival.index % roots) as u32);
            let t = self.begin(root);
            t.work(
                server,
                vec![Op::put(&arrival.key, &arrival.index.to_string())],
            );
            t.commit_async()
        })
    }

    /// Renders the Prometheus text exposition for every live node:
    /// driver/WAL counters always, plus per-phase latency histograms for
    /// nodes built with [`LiveNodeConfig::with_observability`]. Killed
    /// nodes are skipped (their scrape would hang).
    pub fn prometheus_dump(&self) -> String {
        crate::obs_export::prometheus_text(&self.live_summaries())
    }

    /// Renders a chrome-trace JSON of one transaction's phase spans
    /// across all live nodes. Needs
    /// [`LiveNodeConfig::with_tracing`]; without it the trace is empty.
    pub fn chrome_trace(&self, txn: TxnId) -> String {
        crate::obs_export::chrome_trace_text(&self.live_summaries(), txn)
    }

    fn live_summaries(&self) -> Vec<NodeSummary> {
        (0..self.len())
            .filter_map(|i| self.summary(NodeId(i as u32)))
            .collect()
    }

    /// Serves the cluster observability endpoints over HTTP at `addr`
    /// (use `"127.0.0.1:0"` for an ephemeral port; the bound address is
    /// on the returned server): `/metrics`, `/healthz` (503 once any
    /// node's WAL degrades), the windowed `/timeline` JSON and the
    /// `/debug/flight` recorder dump. Each request collects fresh
    /// summaries from every node that answers within a bounded wait, so
    /// a killed node degrades the response instead of hanging it.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<crate::http::MetricsServer> {
        let senders = self.senders.clone();
        let timeout = self.reply_timeout.min(Duration::from_secs(2));
        crate::http::MetricsServer::serve_routes(addr, move |path| {
            let summaries: Vec<NodeSummary> = senders
                .iter()
                .enumerate()
                .filter_map(|(i, lanes)| {
                    let mut merged: Option<NodeSummary> = None;
                    for tx in lanes {
                        let (reply, rx) = bounded(1);
                        tx.send(Inbound::App(AppCmd::Summary { reply })).ok()?;
                        let s = recv_reply(&rx, NodeId(i as u32), timeout).ok()?;
                        match merged.as_mut() {
                            Some(base) => base.absorb_lane(s),
                            None => merged = Some(s),
                        }
                    }
                    merged
                })
                .collect();
            crate::obs_export::route(&summaries, path)
        })
    }

    /// Fetches a node's live summary.
    pub fn summary(&self, node: NodeId) -> Option<NodeSummary> {
        self.try_summary(node).ok()
    }

    /// Fetches a node's live summary with a typed error on failure. On a
    /// multi-lane node, every lane's summary is collected and folded
    /// into the node-level rollup.
    pub fn try_summary(&self, node: NodeId) -> Result<NodeSummary> {
        let mut merged = self.request_lane(node, 0, |reply| AppCmd::Summary { reply })?;
        for lane in 1..self.lanes {
            let s = self.request_lane(node, lane, |reply| AppCmd::Summary { reply })?;
            merged.absorb_lane(s);
        }
        Ok(merged)
    }

    /// Stops every live node and returns their final summaries (killed
    /// nodes are absent — their last summary was returned by
    /// [`LiveCluster::kill`] / [`LiveCluster::await_death`]).
    pub fn shutdown(self) -> Vec<NodeSummary> {
        let mut summaries = Vec::with_capacity(self.senders.len());
        for (i, lanes) in self.senders.iter().enumerate() {
            for (lane, tx) in lanes.iter().enumerate() {
                if self.handles[i][lane].is_some() {
                    let (reply, _rx) = bounded(1);
                    let _ = tx.send(Inbound::Shutdown { reply });
                }
            }
        }
        for node_handles in self.handles.into_iter() {
            let mut node_summary: Option<NodeSummary> = None;
            for h in node_handles.into_iter().flatten() {
                if let Ok(s) = h.join() {
                    match node_summary.as_mut() {
                        Some(base) => base.absorb_lane(s),
                        None => node_summary = Some(s),
                    }
                }
            }
            if let Some(s) = node_summary {
                summaries.push(s);
            }
        }
        summaries
    }

    pub(crate) fn send_app(&self, node: NodeId, cmd: AppCmd) {
        let lane = match &cmd {
            AppCmd::Work { txn, .. } | AppCmd::Commit { txn, .. } | AppCmd::Abort { txn, .. } => {
                lane_of(*txn, self.lanes)
            }
            AppCmd::Read { .. } | AppCmd::Summary { .. } => 0,
        };
        let _ = self.senders[node.index()][lane].send(Inbound::App(cmd));
    }
}

type LogBox = Box<dyn LogManager + Send>;

/// What a node's lanes share — its RM, durable logs and recorder —
/// handed to [`LiveCluster::spawn_node`] to be split across the lanes.
struct NodeParts {
    rm: Arc<SharedRm>,
    log: LogBox,
    rm_log: Option<LogBox>,
    obs: Option<Arc<tpc_obs::Obs>>,
}

fn spawn_worker<T: Transport>(
    index: usize,
    lane: usize,
    lanes: usize,
    worker: NodeWorker<T>,
    signal: Arc<ClusterSignal>,
) -> JoinHandle<NodeSummary> {
    let name = if lanes > 1 {
        format!("tpc-node-{index}-l{lane}")
    } else {
        format!("tpc-node-{index}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let summary = worker.run();
            // Final bump so await_death / quiesce observe the exit.
            signal.bump();
            summary
        })
        .expect("spawn node thread")
}

pub(crate) fn recv_reply<R>(rx: &Receiver<R>, node: NodeId, timeout: Duration) -> Result<R> {
    match rx.recv_timeout(timeout) {
        Ok(r) => Ok(r),
        Err(RecvTimeoutError::Disconnected) => Err(Error::NodeDown(node)),
        Err(RecvTimeoutError::Timeout) => Err(Error::Timeout(format!(
            "no reply from {node} within {timeout:?}"
        ))),
    }
}

/// An in-flight commit/abort whose caller kept control: wait on it after
/// scripting faults (kills, restarts) that must happen while the
/// protocol runs.
pub struct CommitWait {
    rx: Receiver<CommitResult>,
    node: NodeId,
}

impl CommitWait {
    /// Assembles a wait from raw parts (workload tests drive the
    /// open-loop reaper without a cluster).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_parts(rx: Receiver<CommitResult>, node: NodeId) -> Self {
        CommitWait { rx, node }
    }
}

impl CommitWait {
    /// Blocks until the outcome arrives; [`Error::NodeDown`] if the root
    /// died with the request in flight, [`Error::Timeout`] after
    /// `timeout`.
    pub fn wait(self, timeout: Duration) -> Result<CommitResult> {
        recv_reply(&self.rx, self.node, timeout)
    }

    /// Non-blocking completion check: `Ok(Some(..))` once the outcome
    /// has arrived, `Ok(None)` while still in flight. The open-loop
    /// workload reaps thousands of in-flight commits with this.
    pub fn poll(&self) -> Result<Option<CommitResult>> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Error::NodeDown(self.node)),
        }
    }
}

/// A transaction in flight on a [`LiveCluster`].
pub struct TxnHandle<'a> {
    cluster: &'a LiveCluster,
    txn: TxnId,
    root: NodeId,
}

impl TxnHandle<'_> {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Sends work to a partner (or runs it locally when `to` is the
    /// root).
    pub fn work(&self, to: NodeId, ops: Vec<Op>) {
        self.cluster.send_app(
            self.root,
            AppCmd::Work {
                txn: self.txn,
                to,
                ops,
            },
        );
    }

    /// Requests commit and blocks for the outcome. Fails with
    /// [`Error::NodeDown`] / [`Error::Timeout`] instead of hanging when
    /// the root is dead or never answers.
    pub fn commit(self) -> Result<CommitResult> {
        let timeout = self.cluster.reply_timeout;
        self.commit_async().wait(timeout)
    }

    /// Requests commit and returns immediately with a [`CommitWait`],
    /// releasing the cluster borrow so the caller can kill and restart
    /// nodes while the protocol runs.
    pub fn commit_async(self) -> CommitWait {
        let (tx, rx) = bounded(1);
        self.cluster.send_app(
            self.root,
            AppCmd::Commit {
                txn: self.txn,
                reply: tx,
            },
        );
        CommitWait {
            rx,
            node: self.root,
        }
    }

    /// Requests rollback and blocks for the confirmation.
    pub fn abort(self) -> Result<CommitResult> {
        let timeout = self.cluster.reply_timeout;
        let (tx, rx) = bounded(1);
        let node = self.root;
        self.cluster.send_app(
            node,
            AppCmd::Abort {
                txn: self.txn,
                reply: tx,
            },
        );
        recv_reply(&rx, node, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{Outcome, ProtocolKind};

    fn cluster(n: usize, protocol: ProtocolKind) -> LiveCluster {
        LiveCluster::start(vec![LiveNodeConfig::new(protocol); n])
    }

    #[test]
    fn distributed_commit_makes_values_visible() {
        let c = cluster(3, ProtocolKind::PresumedAbort);
        let t = c.begin(NodeId(0));
        t.work(NodeId(0), vec![Op::put("root-key", "r")]);
        t.work(NodeId(1), vec![Op::put("a", "1")]);
        t.work(NodeId(2), vec![Op::put("b", "2")]);
        let result = t.commit().expect("root alive");
        assert_eq!(result.outcome, Outcome::Commit);
        assert!(result.report.is_clean());
        assert_eq!(c.read(NodeId(0), "root-key"), Some(b"r".to_vec()));
        assert_eq!(c.read(NodeId(1), "a"), Some(b"1".to_vec()));
        assert_eq!(c.read(NodeId(2), "b"), Some(b"2".to_vec()));
        for s in c.shutdown() {
            assert_eq!(s.active_txns, 0, "{:?}", s.node);
        }
    }

    #[test]
    fn rollback_discards_everywhere() {
        let c = cluster(2, ProtocolKind::PresumedNothing);
        let t = c.begin(NodeId(0));
        t.work(NodeId(0), vec![Op::put("x", "1")]);
        t.work(NodeId(1), vec![Op::put("y", "1")]);
        let result = t.abort().expect("root alive");
        assert_eq!(result.outcome, Outcome::Abort);
        assert_eq!(c.read(NodeId(0), "x"), None);
        assert_eq!(c.read(NodeId(1), "y"), None);
        c.shutdown();
    }

    #[test]
    fn sequential_transactions_across_protocols() {
        for protocol in ProtocolKind::ALL {
            let c = cluster(2, protocol);
            for i in 0..5 {
                let t = c.begin(NodeId(0));
                t.work(NodeId(1), vec![Op::put("counter", &i.to_string())]);
                let r = t.commit().expect("root alive");
                assert_eq!(r.outcome, Outcome::Commit, "{protocol}");
            }
            assert_eq!(c.read(NodeId(1), "counter"), Some(b"4".to_vec()));
            c.shutdown();
        }
    }

    #[test]
    fn concurrent_roots_serialize_on_conflicts() {
        let c = Arc::new(cluster(3, ProtocolKind::PresumedAbort));
        let mut joins = Vec::new();
        for root in 0..2u32 {
            let c2 = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let t = c2.begin(NodeId(root));
                    t.work(NodeId(2), vec![Op::put("hot", &format!("{root}-{i}"))]);
                    let r = t.commit().expect("root alive");
                    assert_eq!(r.outcome, Outcome::Commit);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker");
        }
        let final_value = c.read(NodeId(2), "hot").expect("written");
        assert!(final_value.ends_with(b"-9"));
        Arc::try_unwrap(c).ok().map(|c| c.shutdown());
    }

    #[test]
    fn read_only_transaction_commits_without_logging() {
        let opts = tpc_common::OptimizationConfig::none().with_read_only(true);
        let c = LiveCluster::start(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts.clone()),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts),
        ]);
        // Seed data.
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("k", "v")]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        let before = c.summary(NodeId(1)).unwrap().log;

        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::get("k")]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        let after = c.summary(NodeId(1)).unwrap().log;
        assert_eq!(
            before.writes, after.writes,
            "read-only participation must not log"
        );
        c.shutdown();
    }

    #[test]
    fn committing_at_a_killed_root_errors_instead_of_hanging() {
        let mut c =
            cluster(2, ProtocolKind::PresumedAbort).with_reply_timeout(Duration::from_secs(2));
        let victim = NodeId(0);
        let s = c.kill(victim).expect("first kill succeeds");
        assert!(s.protocol_state.crashed);
        assert!(!c.is_alive(victim));
        assert!(matches!(c.kill(victim), Err(Error::NodeDown(n)) if n == victim));

        let t = c.begin(victim);
        match t.commit() {
            Err(Error::Timeout(_)) | Err(Error::NodeDown(_)) => {}
            other => panic!("expected a typed submit failure, got {other:?}"),
        }
        // The surviving node still answers.
        assert!(c.summary(NodeId(1)).is_some());
        c.shutdown();
    }

    #[test]
    fn fault_injected_wire_still_commits_via_retries() {
        // Drop a third of the root's outbound frames: vote-collection and
        // ack-collection retries must still converge every transaction.
        let configs = vec![
            LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(
                tpc_core::Timeouts {
                    vote_collection: tpc_common::SimDuration::from_millis(50),
                    ack_collection: tpc_common::SimDuration::from_millis(50),
                    in_doubt_query: tpc_common::SimDuration::from_millis(80),
                },
            );
            2
        ];
        let faults = vec![Some(FaultPlan::clean(0xC0FFEE).with_drops(0.33)), None];
        let c = LiveCluster::start_with_faults(configs, &[], faults);
        for i in 0..5 {
            let key = format!("k{i}");
            let t = c.begin(NodeId(0));
            t.work(NodeId(1), vec![Op::put(&key, &i.to_string())]);
            // Outcome may be Commit or Abort (a dropped vote aborts the
            // txn), but it must never hang or violate atomicity.
            let r = t.commit().expect("typed result");
            if r.outcome == Outcome::Commit {
                // The decision frame itself may be dropped; the re-drive
                // must land it within the retry budget.
                assert_eq!(
                    c.read_eventually(NodeId(1), &key, Duration::from_secs(5)),
                    Some(i.to_string().into_bytes()),
                    "committed write must become visible at the subordinate"
                );
            }
        }
        assert!(
            c.fault_stats(NodeId(0)).expect("wire wrapped").lost() > 0,
            "the fault plan should actually have fired"
        );
        c.shutdown();
    }
}
