//! # tpc-runtime
//!
//! The live harness: real threads, real (wall-clock) timers, real logs and
//! optionally real TCP sockets, driving the same sans-IO engine the
//! simulator drives.
//!
//! One cluster, [`LiveCluster`], with two constructors that differ only
//! in how a node's [`Transport`] is made:
//!
//! * [`LiveCluster::start`] — every node lane is a thread; frames travel
//!   over crossbeam channels. This is the harness the examples use.
//! * [`LiveCluster::start_tcp`] — every node additionally binds a
//!   loopback TCP listener and frames travel over sockets, each header
//!   naming its destination lane, demonstrating that the engine's wire
//!   format and ordering assumptions hold on a real network stack.
//!
//! Everything else — lanes, kill / restart, recovery, workloads, metrics
//! — is the same code over either transport.
//!
//! The application API is deliberately small:
//!
//! ```no_run
//! use tpc_common::{Op, Outcome, ProtocolKind};
//! use tpc_runtime::{LiveCluster, LiveNodeConfig};
//!
//! let cluster = LiveCluster::start(vec![
//!     LiveNodeConfig::new(ProtocolKind::PresumedAbort),
//!     LiveNodeConfig::new(ProtocolKind::PresumedAbort),
//! ]);
//! let txn = cluster.begin(tpc_common::NodeId(0));
//! txn.work(tpc_common::NodeId(1), vec![Op::put("k", "v")]);
//! let result = txn.commit().expect("node alive");
//! assert_eq!(result.outcome, Outcome::Commit);
//! cluster.shutdown();
//! ```
//!
//! ## Fault tolerance
//!
//! The live runtime is built to be killed. [`LiveCluster::kill`] crashes
//! a node mid-protocol (buffered log tails are lost, exactly like a
//! power failure), [`LiveCluster::restart`] rebuilds it from its durable
//! file WAL and re-drives recovery over the real transport — on a
//! multi-lane node the one shared WAL is replayed once and the
//! recovered transactions repartition to their owning lanes — and
//! [`fault::FaultyWire`] injects seeded drops / duplicates / delays /
//! disconnects into any transport. The storage layer gets the same
//! treatment: [`LiveNodeConfig::with_storage_faults`] subjects a node's
//! log device to a seeded [`StorageFaultPlan`] (fsync failures, ENOSPC,
//! torn writes, bit rot, sync latency), and
//! [`LiveNodeConfig::with_io_policy`] picks the node's reaction when
//! durability cannot be re-established: [`IoErrorPolicy::FailStop`]
//! crashes it, [`IoErrorPolicy::ReadOnly`] degrades it to read-only
//! with explicit, counted rejections ([`WalHealth`]) — an I/O error is
//! never a silent wrong answer. After a run, [`verify::check`] asserts
//! the same atomicity invariants the simulator's verifier checks, from
//! live node state and WAL scans.
//!
//! ## Throughput
//!
//! [`LiveNodeConfig::with_group_commit`] batches concurrent log forces
//! into one physical flush per batch (the paper's group-commit
//! optimization, live in the real WAL path), and
//! [`LiveCluster::run_workload`] drives N closed-loop concurrent
//! transactions to fill those batches. `cargo run -p tpc-bench --bin
//! bench_throughput` measures the effect.
//!
//! ## Observability
//!
//! [`LiveNodeConfig::with_observability`] attaches per-phase latency
//! histograms (work / prepare / decision / ack / fsync / group-flush,
//! lock-free log2 buckets from `tpc-obs`) to every node through the
//! same driver seam the simulator instruments;
//! [`LiveNodeConfig::with_tracing`] additionally captures per-
//! transaction phase spans. [`LiveCluster::prometheus_dump`] renders
//! the Prometheus text exposition, [`LiveCluster::chrome_trace`] a
//! chrome-trace JSON for one transaction, and each
//! [`NodeSummary::obs`] carries the raw snapshot.
//!
//! Failure paths are first-class: per-node in-doubt window tracking
//! (`tpc_in_doubt_seconds`, opened at the durable `Prepared` record,
//! re-opened across restarts at the stamped instant), restart-recovery
//! telemetry ([`NodeSummary::recovery`]), TCP retry/reconnect counters,
//! and cross-node trace propagation (frames carry a
//! [`tpc_common::TraceCtx`], so `chrome_trace` stitches one causal tree
//! across nodes). [`LiveCluster::serve_metrics`] exposes it all on a
//! live HTTP `/metrics` endpoint ([`http::MetricsServer`], `curl`-able,
//! no dependencies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod fault;
pub mod http;
mod node;
pub mod obs_export;
pub mod signal;
pub mod tcp;
pub mod verify;
mod workload;

pub use cluster::{CommitWait, LiveCluster, TxnHandle};
pub use fault::{FaultPlan, FaultStats, FaultyWire};
pub use http::MetricsServer;
pub use node::{
    lane_of, AckSlotStats, AppCmd, CommitResult, Inbound, IoErrorPolicy, LiveNodeConfig,
    LogBackend, NodeSummary, Transport, WalHealth,
};
pub use signal::ClusterSignal;
pub use tpc_wal::{StorageFaultPlan, StorageFaultStats};
pub use workload::{
    Arrival, LatencySummary, OpenLoopReport, OpenLoopSpec, WorkloadReport, WorkloadSpec,
};
