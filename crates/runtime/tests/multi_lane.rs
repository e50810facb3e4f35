//! Multi-lane cluster behavior: lane routing, shared-RM correctness
//! under cross-lane conflicts, node-level summary rollup, and the
//! open-loop generator's admission control against a real cluster.

use std::time::{Duration, Instant};

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, SimDuration};
use tpc_runtime::{lane_of, LiveCluster, LiveNodeConfig, OpenLoopSpec};

fn lanes_cluster(n: usize, lanes: usize, protocol: ProtocolKind) -> LiveCluster {
    LiveCluster::start(vec![LiveNodeConfig::new(protocol).with_lanes(lanes); n])
}

#[test]
fn lane_routing_is_a_pure_function_of_seq() {
    let t = |seq| tpc_common::TxnId::new(NodeId(3), seq);
    assert_eq!(lane_of(t(1), 1), 0);
    assert_eq!(lane_of(t(5), 4), 1);
    assert_eq!(lane_of(t(8), 4), 0);
    // Consecutive seqs cover all lanes round-robin.
    let hit: std::collections::HashSet<usize> = (1..=4).map(|s| lane_of(t(s), 4)).collect();
    assert_eq!(hit.len(), 4);
}

#[test]
fn commits_land_on_every_lane() {
    let c = lanes_cluster(3, 4, ProtocolKind::PresumedAbort);
    // Seqs start at 1; eight sequential txns exercise each lane twice.
    for i in 0..8 {
        let t = c.begin(NodeId(i % 2));
        let key = format!("k{i}");
        t.work(NodeId(2), vec![Op::put(&key, &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    for i in 0..8 {
        assert_eq!(
            c.read(NodeId(2), &format!("k{i}")),
            Some(i.to_string().into_bytes())
        );
    }
    // Each root's summary is the rollup over all four of its lanes;
    // eight txns split across two roots (committed is a root-side
    // counter, so the server reports zero).
    let rollup: u64 = (0..2)
        .map(|n| c.summary(NodeId(n)).expect("root alive").metrics.committed)
        .sum();
    assert_eq!(rollup, 8, "rollup sees all lanes' commits");
    for s in c.shutdown() {
        assert_eq!(s.active_txns, 0, "{:?}", s.node);
    }
}

#[test]
fn cross_lane_conflicts_serialize_on_the_shared_rm() {
    let c = std::sync::Arc::new(lanes_cluster(3, 4, ProtocolKind::PresumedAbort));
    let mut joins = Vec::new();
    for root in 0..2u32 {
        let c2 = std::sync::Arc::clone(&c);
        joins.push(std::thread::spawn(move || {
            let mut committed = 0;
            for i in 0..10 {
                let t = c2.begin(NodeId(root));
                t.work(NodeId(2), vec![Op::put("hot", &format!("{root}-{i}"))]);
                // Under contention a txn may abort (deadlock victim);
                // atomicity, not success, is the invariant.
                if t.commit().expect("root alive").outcome == Outcome::Commit {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: u32 = joins.into_iter().map(|j| j.join().expect("writer")).sum();
    assert!(total > 0, "some conflicting writers must get through");
    assert!(c.read(NodeId(2), "hot").is_some());
    assert!(c.quiesce(Duration::from_secs(10)));
    std::sync::Arc::try_unwrap(c).ok().map(|c| c.shutdown());
}

#[test]
fn kill_and_restart_replays_the_shared_wal_across_lanes() {
    // A multi-lane node crashes as one process (all lanes share the
    // volatile state) and restarts from its one shared WAL: the replay
    // repartitions recovered transactions back to their owning lanes,
    // so committed writes survive and every lane keeps working.
    let dir = std::env::temp_dir().join(format!("tpc-ml-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || {
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_lanes(4)
    };
    let mut c = LiveCluster::start(vec![cfg(), cfg()]);
    // Eight sequential txns exercise each of the server's four lanes twice.
    for i in 0..8 {
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&format!("k{i}"), &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }

    c.kill(NodeId(1)).expect("multi-lane kill");
    assert!(!c.is_alive(NodeId(1)));
    c.restart(NodeId(1))
        .expect("multi-lane restart from the shared WAL");

    // Every committed write must have survived the crash.
    for i in 0..8 {
        assert_eq!(
            c.read_eventually(NodeId(1), &format!("k{i}"), Duration::from_secs(10)),
            Some(i.to_string().into_bytes()),
            "k{i} must survive the multi-lane restart"
        );
    }
    // The node is fully operational again on every lane.
    for i in 8..16 {
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&format!("k{i}"), &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    let s = c.summary(NodeId(1)).expect("server alive");
    let rec = s.recovery.expect("node rollup carries recovery stats");
    assert!(
        rec.wal_records_scanned >= 8,
        "replay must have seen the pre-crash records: {rec:?}"
    );
    for s in c.shutdown() {
        assert_eq!(s.active_txns, 0, "{:?}", s.node);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_under_capacity_completes_cleanly() {
    let c = lanes_cluster(3, 2, ProtocolKind::PresumedAbort);
    let spec = OpenLoopSpec {
        arrival_rate: 2_000.0,
        txns: 300,
        max_in_flight: 64,
        queue_cap: 512,
        zipf_theta: 0.99,
        tenants: 4,
        keys_per_tenant: 100,
        reply_timeout: Duration::from_secs(10),
        key_prefix: "ul".into(),
        seed: 1,
    };
    let report = c.run_open_loop(&spec);
    assert_eq!(report.rejected, 0, "under capacity nothing is rejected");
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.committed + report.aborted, 300);
    assert!(report.committed > 0);
    c.shutdown();
}

#[test]
fn open_loop_saturation_degrades_into_bounded_queueing_and_rejections() {
    // Offered load far beyond what 3 nodes on one box can absorb, with
    // tight admission control: the run must terminate with every arrival
    // accounted for and the queue/in-flight populations bounded.
    let c = lanes_cluster(3, 2, ProtocolKind::PresumedAbort);
    let spec = OpenLoopSpec {
        arrival_rate: 200_000.0,
        txns: 2_000,
        max_in_flight: 32,
        queue_cap: 64,
        zipf_theta: 0.0,
        tenants: 4,
        keys_per_tenant: 1_000,
        reply_timeout: Duration::from_secs(10),
        key_prefix: "sat".into(),
        seed: 2,
    };
    let report = c.run_open_loop(&spec);
    assert!(
        report.rejected > 0,
        "saturation must surface as explicit rejections: {report:?}"
    );
    assert!(report.max_queue_depth <= spec.queue_cap);
    assert!(report.max_in_flight_seen <= spec.max_in_flight);
    assert_eq!(
        report.committed + report.aborted + report.failed + report.rejected,
        2_000,
        "every arrival accounted: {report:?}"
    );
    assert!(report.committed > 0, "the admitted fraction still commits");
    c.shutdown();
}

#[test]
fn lock_wait_sweep_wakes_an_idle_lane() {
    // A stuck waiter on lane 0 of an otherwise idle root: its own commit
    // has armed the 10 s vote-collection timer, and no traffic follows.
    // The sweep alone must evict it once it has waited the lock-wait
    // timeout, within one 100 ms sweep period.
    let timeout = Duration::from_millis(300);
    let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
        .with_lanes(2)
        .with_lock_wait_timeout(SimDuration(timeout.as_micros() as u64));
    let c = LiveCluster::start(vec![cfg; 2]);
    let holder = c.begin(NodeId(0));
    let victim = c.begin(NodeId(0));
    assert_eq!(lane_of(holder.id(), 2), 1);
    assert_eq!(
        lane_of(victim.id(), 2),
        0,
        "the waiter sits on the sweeping lane"
    );
    holder.work(NodeId(0), vec![Op::put("hot", "held")]);
    // The holder's lock is taken before the victim asks for it.
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    victim.work(NodeId(1), vec![Op::put("cold", "v")]);
    victim.work(NodeId(0), vec![Op::put("hot", "v")]);
    let outcome = victim
        .commit_async()
        .wait(Duration::from_secs(20))
        .expect("root alive");
    let elapsed = started.elapsed();
    assert_eq!(outcome.outcome, Outcome::Abort, "the waiter is the victim");
    // One sweep period past the timeout, plus headroom for thread
    // scheduling on a loaded machine; without the wake-up the victim
    // waits for the 10 s vote timer.
    let bound = timeout + Duration::from_millis(100) + Duration::from_millis(400);
    assert!(
        elapsed < bound,
        "victim aborted after {elapsed:?}, bound {bound:?}"
    );
    assert_eq!(
        holder.commit().expect("root alive").outcome,
        Outcome::Commit
    );
    c.shutdown();
}
