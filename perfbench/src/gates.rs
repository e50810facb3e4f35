//! Correctness and config-liveness gates every pass must clear.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use tpc_common::{NodeId, TxnId};
use tpc_core::{OutcomeRecord, Seat};
use tpc_runtime::{verify, LiveCluster, LiveNodeConfig, NodeSummary};

use crate::live::{Counts, Ledger, Workload, NODES};

/// Frames per committed `durable-write` transaction: work, prepare,
/// vote, decision, ack.
pub const DURABLE_WRITE_FLOWS: f64 = 5.0;

/// How long a finished pass may take to settle.
const QUIESCE: Duration = Duration::from_secs(30);

/// Mismatches reported in full; the rest are counted.
const SHOWN: usize = 5;

/// A pass after its cluster shut down, with every gate's verdict.
pub struct Finished {
    /// Final node summaries.
    pub summaries: Vec<NodeSummary>,
    /// Correctness failures; empty on a clean pass.
    pub failures: Vec<String>,
    /// Config-liveness assertions and whether each held.
    pub liveness: Vec<(String, bool)>,
}

impl Finished {
    /// Every gate held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.liveness.iter().all(|(_, ok)| *ok)
    }
}

/// Settles the cluster, reads every written key back, shuts it down and
/// runs the verifier over the final state and the delivered outcomes.
pub fn finish(
    workload: Workload,
    cluster: LiveCluster,
    cfg: &LiveNodeConfig,
    wal_dir: &Path,
    outcomes: &[OutcomeRecord],
    ledger: &Ledger,
    counts: Counts,
) -> Finished {
    let mut failures = Vec::new();
    if !cluster.quiesce(QUIESCE) {
        failures.push(format!("cluster did not quiesce within {QUIESCE:?}"));
    }
    let bad = ledger.check(workload, &cluster);
    if !bad.is_empty() {
        failures.push(format!(
            "read-back: {} of {} keys wrong, e.g. {:?}",
            bad.len(),
            ledger.len(),
            &bad[..bad.len().min(SHOWN)]
        ));
    }
    let mut summaries = cluster.shutdown();
    if summaries.len() != NODES {
        failures.push(format!("{} of {NODES} nodes survived", summaries.len()));
    }
    let (violations, unresolved) = check_in_batches(&mut summaries, outcomes);
    if !violations.is_empty() {
        failures.push(format!(
            "verifier: {} violations, e.g. {:?}",
            violations.len(),
            &violations[..violations.len().min(SHOWN)]
        ));
    }
    if !unresolved.is_empty() {
        failures.push(format!("verifier: {} unresolved", unresolved.len()));
    }
    if workload.durable() {
        match verify::check_wal_agreement(wal_dir, NODES) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => failures.push(format!("WAL agreement: {v:?}")),
            Err(e) => failures.push(format!("WAL agreement scan failed: {e}")),
        }
    }
    if counts.committed + counts.aborted + counts.failed != counts.attempted {
        failures.push(format!("counts do not add up: {counts:?}"));
    }
    if counts.failed > 0 {
        failures.push(format!(
            "{} transactions failed or timed out",
            counts.failed
        ));
    }
    if outcomes.len() as u64 != counts.committed + counts.aborted {
        failures.push(format!(
            "{} outcome records for {} delivered results",
            outcomes.len(),
            counts.committed + counts.aborted
        ));
    }
    let liveness = liveness(workload, cfg, &summaries, counts);
    Finished {
        summaries,
        failures,
        liveness,
    }
}

/// Runs [`verify::check`] over every outcome, a batch at a time. The
/// checker finds each outcome's seat by a linear scan of a node's
/// completed seats, so one call over a whole run is quadratic; each batch
/// is therefore paired with exactly the seats of its own transactions
/// (active seats go with the first batch), which checks the same pairs
/// in linear total time. The summaries' seat lists are consumed.
fn check_in_batches(
    summaries: &mut [NodeSummary],
    outcomes: &[OutcomeRecord],
) -> (Vec<String>, Vec<(NodeId, TxnId)>) {
    let completed: Vec<HashMap<TxnId, Seat>> = summaries
        .iter_mut()
        .map(|s| {
            std::mem::take(&mut s.protocol_state.completed)
                .into_iter()
                .map(|seat| (seat.txn, seat))
                .collect()
        })
        .collect();
    let (mut violations, mut unresolved) = (Vec::new(), Vec::new());
    let batches: Vec<&[OutcomeRecord]> = if outcomes.is_empty() {
        vec![outcomes]
    } else {
        outcomes.chunks(CHECK_BATCH).collect()
    };
    for (i, batch) in batches.into_iter().enumerate() {
        for (s, seats) in summaries.iter_mut().zip(&completed) {
            s.protocol_state.completed = batch
                .iter()
                .filter_map(|o| seats.get(&o.txn).cloned())
                .collect();
            if i == 1 {
                s.protocol_state.active.clear();
            }
        }
        let (v, u) = verify::check(summaries, batch);
        violations.extend(v);
        unresolved.extend(u);
    }
    (violations, unresolved)
}

/// Outcomes per [`verify::check`] call.
const CHECK_BATCH: usize = 1_000;

/// Assertions, from the counters, that the configuration the pass asked
/// for was the one that ran.
fn liveness(
    workload: Workload,
    cfg: &LiveNodeConfig,
    summaries: &[NodeSummary],
    counts: Counts,
) -> Vec<(String, bool)> {
    let sum = |f: fn(&NodeSummary) -> u64| summaries.iter().map(f).sum::<u64>();
    let rm_flushes = sum(|s| s.rm_log.physical_flushes);
    let flushes = sum(|s| s.log.physical_flushes) + rm_flushes;
    let forces = sum(|s| s.log.forced_writes + s.rm_log.forced_writes);
    let group_flushes = sum(|s| s.group.flushes);
    let flows =
        sum(|s| s.driver.flows_sent) as f64 / (counts.committed + counts.aborted).max(1) as f64;
    let mut out = Vec::new();
    if cfg.opts.shared_log {
        out.push((
            format!("shared log => rm_log.physical_flushes == 0 (got {rm_flushes})"),
            rm_flushes == 0,
        ));
    }
    if workload.durable() {
        out.push((
            format!("durable WAL => physical flushes > 0 (got {flushes})"),
            flushes > 0,
        ));
    }
    if cfg.opts.read_only {
        out.push((
            format!("read-only => flows/txn {flows:.3} < durable-write's {DURABLE_WRITE_FLOWS}"),
            flows < DURABLE_WRITE_FLOWS,
        ));
    }
    if cfg.opts.group_commit.is_some() && workload.durable() {
        out.push((
            format!(
                "group commit => group.flushes {group_flushes} > 0 and physical flushes \
                 {flushes} < forced writes {forces}"
            ),
            group_flushes > 0 && flushes < forces,
        ));
    }
    out
}
