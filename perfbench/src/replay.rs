//! Per-layer replay: feeds each layer's public API, on this thread and
//! with no other load, the inputs the workload generated, and times the
//! calls. These give the `*_ns` metrics and the WAL's forced-append
//! time on the cluster's filesystem.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tpc_common::wire::{Decode, Encode};
use tpc_common::{
    encode_ops, BufferPool, DamageReport, NodeId, Outcome, RmId, SimTime, TxnId, Vote, VoteFlags,
};
use tpc_core::messages::Bundle;
use tpc_core::{Action, EngineConfig, Event, Frame, LocalVote, ProtocolMsg, TmEngine};
use tpc_locks::{Acquired, LockMode, StripedLockManager};
use tpc_rm::{RmConfig, SharedRm};
use tpc_wal::{Durability, LogManager, LogRecord, MemLog, SegmentedLog, StreamId};

use crate::live::{ops_of, Generator, Plan, Workload, SERVER};
use crate::stats::{median, Span};

/// Transactions generated for the CPU replays.
const TXNS: usize = 2_000;
/// Timed repetitions of each CPU replay; the median is reported.
const ROUNDS: usize = 5;
/// Writer transactions replayed against the durable WAL.
const WAL_TXNS: usize = 100;

/// Per-layer timings from the replay.
pub struct Replay {
    /// `ProtocolMsg` frame encode into a pooled buffer, ns per frame.
    pub encode_ns: f64,
    /// Frame decode, ns per frame.
    pub decode_ns: f64,
    /// `TmEngine::handle`, ns per event.
    pub engine_step_ns: f64,
    /// `StripedLockManager` acquire plus its share of `release_all`, ns
    /// per lock.
    pub acquire_ns: f64,
    /// `SharedRm` read / write / prepare / commit, ns per call.
    pub rm_op_ns: f64,
    /// Median forced append on a `SegmentedLog`, µs.
    pub force_append_us: f64,
    /// One span per timed batch, children of a `replay` span.
    pub spans: Vec<Span>,
}

struct Txn {
    id: TxnId,
    plan: Plan,
    seq: u64,
}

/// Runs every replay for `workload`'s inputs under `seed`; the WAL
/// replay writes under `wal_dir`. `t0` is the pass clock spans use.
pub fn run(workload: Workload, seed: u64, stripes: usize, wal_dir: &Path, t0: Instant) -> Replay {
    let mut gen = Generator::new(workload, seed);
    let txns: Vec<Txn> = (0..TXNS as u64)
        .map(|seq| {
            let plan = gen.next_plan();
            Txn {
                id: TxnId::new(plan.root, seq + 1),
                plan,
                seq,
            }
        })
        .collect();
    let read_only = workload == Workload::HotMixed;
    let now = || t0.elapsed().as_nanos() as u64;
    let mut spans = vec![Span {
        name: "replay",
        txn: 0,
        parent: None,
        start_ns: now(),
        end_ns: 0,
    }];
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> u64| -> f64 {
        let mut per_op = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let start = now();
            let t = Instant::now();
            let ops = f();
            per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
            spans.push(Span {
                name,
                txn: round as u64,
                parent: Some(0),
                start_ns: start,
                end_ns: now(),
            });
        }
        median(&per_op)
    };

    let frames = frames_of(workload, &txns, read_only);
    let pool = BufferPool::new();
    let encode_ns = timed("replay.wire.encode", &mut || {
        for f in &frames {
            let mut buf = pool.checkout();
            f.encode_append(&mut buf);
            black_box(&buf);
        }
        frames.len() as u64
    });
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f.encode_to_bytes().to_vec())
        .collect();
    let decode_ns = timed("replay.wire.decode", &mut || {
        for bytes in &encoded {
            black_box(Frame::decode_all(bytes).expect("replayed frame decodes"));
        }
        encoded.len() as u64
    });
    let engine_step_ns = timed("replay.core.engine", &mut || {
        engine_steps(workload, &txns, read_only)
    });
    let acquire_ns = timed("replay.locks.acquire", &mut || {
        lock_ops(workload, &txns, stripes)
    });
    let rm_op_ns = timed("replay.rm.op", &mut || {
        rm_ops(workload, &txns, stripes, read_only)
    });
    let start = now();
    let force_append_us = wal_forces(workload, &txns, wal_dir);
    spans.push(Span {
        name: "replay.wal.force_append",
        txn: 0,
        parent: Some(0),
        start_ns: start,
        end_ns: now(),
    });
    spans[0].end_ns = now();
    Replay {
        encode_ns,
        decode_ns,
        engine_step_ns,
        acquire_ns,
        rm_op_ns,
        force_append_us,
        spans,
    }
}

/// The frames each transaction puts on the wire: work, prepare, vote,
/// and, unless the server voted read-only, the decision and its ack.
fn frames_of(workload: Workload, txns: &[Txn], read_only: bool) -> Vec<Frame> {
    let frame = |msg| Frame {
        ctx: None,
        bundle: Bundle(vec![msg]),
    };
    let mut out = Vec::new();
    for t in txns {
        let txn = t.id;
        out.push(frame(ProtocolMsg::Work {
            txn,
            payload: encode_ops(&ops_of(workload, &t.plan, t.seq)),
        }));
        out.push(frame(ProtocolMsg::Prepare {
            txn,
            long_locks: false,
            expect_work: true,
        }));
        let ro = read_only && !t.plan.write;
        let vote = if ro {
            Vote::ReadOnly
        } else {
            Vote::Yes(VoteFlags::default())
        };
        out.push(frame(ProtocolMsg::VoteMsg { txn, vote }));
        if !ro {
            out.push(frame(ProtocolMsg::Decision {
                txn,
                outcome: Outcome::Commit,
            }));
            out.push(frame(ProtocolMsg::Ack {
                txn,
                report: DamageReport::default(),
                pending: false,
            }));
        }
    }
    out
}

/// Drives a root and the server engine through every transaction's
/// commit; returns the number of `handle` calls.
fn engine_steps(workload: Workload, txns: &[Txn], read_only: bool) -> u64 {
    let node_cfg = workload.node_config(Path::new(""), false);
    let cfg = |node| EngineConfig::new(node, node_cfg.protocol).with_opts(node_cfg.opts.clone());
    let mut coord = TmEngine::new(cfg(NodeId(0))).expect("engine config");
    let mut sub = TmEngine::new(cfg(SERVER)).expect("engine config");
    let mut steps = 0u64;
    let t = SimTime(1);
    for x in txns {
        let txn = TxnId::new(NodeId(0), x.seq + 1);
        let payload = encode_ops(&ops_of(workload, &x.plan, x.seq));
        let sub_vote = if read_only && !x.plan.write {
            LocalVote::read_only()
        } else {
            LocalVote::yes()
        };
        let mut committed = false;
        // Actions run in the order the engines emit them, as the live
        // lanes' FIFO channels deliver them: work reaches the server
        // before the prepare that follows it.
        let mut queue: VecDeque<(bool, Action)> = VecDeque::new();
        let mut step =
            |engine: &mut TmEngine, at_coord: bool, ev: Event, q: &mut VecDeque<(bool, Action)>| {
                steps += 1;
                let acts = engine.handle(t, ev).expect("replayed event");
                q.extend(acts.into_iter().map(|a| (at_coord, a)));
            };
        step(
            &mut coord,
            true,
            Event::SendWork {
                txn,
                to: SERVER,
                payload,
            },
            &mut queue,
        );
        step(&mut coord, true, Event::CommitRequested { txn }, &mut queue);
        while let Some((at_coord, action)) = queue.pop_front() {
            match action {
                Action::Send { to, msgs } => {
                    let (to_coord, from) = (
                        to == NodeId(0),
                        if to == NodeId(0) { SERVER } else { NodeId(0) },
                    );
                    for msg in msgs {
                        let engine = if to_coord { &mut coord } else { &mut sub };
                        step(
                            engine,
                            to_coord,
                            Event::MsgReceived { from, msg },
                            &mut queue,
                        );
                    }
                }
                Action::PrepareLocal { txn, .. } => {
                    // The root holds no data, so its RM always votes
                    // read-only, as the live host's does.
                    let (engine, vote) = if at_coord {
                        (&mut coord, LocalVote::read_only())
                    } else {
                        (&mut sub, sub_vote)
                    };
                    step(
                        engine,
                        at_coord,
                        Event::LocalPrepared { txn, vote },
                        &mut queue,
                    );
                }
                Action::NotifyOutcome { outcome, .. } if at_coord => {
                    committed = outcome == Outcome::Commit;
                }
                _ => {}
            }
        }
        assert!(committed, "replayed {txn} did not commit");
    }
    steps
}

/// Acquires and releases the workload's key sequence; returns the number
/// of locks taken.
fn lock_ops(workload: Workload, txns: &[Txn], stripes: usize) -> u64 {
    let lm = StripedLockManager::new(stripes);
    let keys = key_bytes(workload, txns);
    let mut locks = 0u64;
    for (i, t) in txns.iter().enumerate() {
        let mode = if t.plan.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        for key in &keys[i] {
            let got = lm.acquire(t.id, key, mode, SimTime(i as u64));
            assert!(matches!(got, Acquired::Granted), "uncontended replay lock");
            locks += 1;
        }
        black_box(lm.release_all(t.id, SimTime(i as u64 + 1)));
    }
    locks
}

/// Runs each transaction's reads or writes, prepare and commit through a
/// shared RM; returns the number of RM calls.
fn rm_ops(workload: Workload, txns: &[Txn], stripes: usize, read_only: bool) -> u64 {
    let rm = SharedRm::new(RmConfig::new(RmId(0)), stripes);
    let mut log = MemLog::new();
    let keys = key_bytes(workload, txns);
    let mut calls = 0u64;
    for (i, t) in txns.iter().enumerate() {
        let now = SimTime(i as u64);
        let value = crate::live::value_of(t.seq).into_bytes();
        for key in &keys[i] {
            let r = if t.plan.write {
                rm.write(t.id, key, Some(value.clone()), &mut log, now)
            } else {
                rm.read(t.id, key, now)
            };
            black_box(r.expect("replayed RM op"));
            calls += 1;
        }
        if read_only && !t.plan.write {
            black_box(rm.forget_read_only(t.id, now).expect("read-only forget"));
            calls += 1;
        } else {
            black_box(
                rm.prepare(t.id, &mut log, Durability::NonForced)
                    .expect("prepare"),
            );
            black_box(
                rm.commit(t.id, &mut log, Durability::NonForced, now)
                    .expect("commit"),
            );
            calls += 2;
        }
    }
    calls
}

/// Appends the server's log records of the first [`WAL_TXNS`] writers to
/// a fresh segmented log, timing each forced append; returns the median
/// in µs.
fn wal_forces(workload: Workload, txns: &[Txn], dir: &Path) -> f64 {
    let mut log = SegmentedLog::create(dir).expect("create replay WAL");
    let mut forces = Vec::new();
    let mut forced = |log: &mut SegmentedLog, stream, record| {
        let t = Instant::now();
        log.append(stream, record, Durability::Forced)
            .expect("forced append");
        forces.push(t.elapsed().as_nanos() as f64 / 1_000.0);
    };
    let rm = RmId(0);
    for t in txns.iter().filter(|t| t.plan.write).take(WAL_TXNS) {
        let txn = t.id;
        for op in ops_of(workload, &t.plan, t.seq) {
            if let tpc_common::Op::Write(key, value) = op {
                log.append(
                    StreamId::Rm(0),
                    LogRecord::RmUpdate {
                        rm,
                        txn,
                        key,
                        before: None,
                        after: value,
                    },
                    Durability::NonForced,
                )
                .expect("append update");
            }
        }
        log.append(
            StreamId::Rm(0),
            LogRecord::RmPrepared { rm, txn },
            Durability::NonForced,
        )
        .expect("append rm prepared");
        forced(
            &mut log,
            StreamId::Tm,
            LogRecord::Prepared {
                txn,
                coordinator: t.plan.root,
                subordinates: vec![],
                prepared_at: SimTime(0),
            },
        );
        log.append(
            StreamId::Rm(0),
            LogRecord::RmCommitted { rm, txn },
            Durability::NonForced,
        )
        .expect("append rm committed");
        forced(
            &mut log,
            StreamId::Tm,
            LogRecord::Committed {
                txn,
                subordinates: vec![],
            },
        );
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    median(&forces)
}

fn key_bytes(workload: Workload, txns: &[Txn]) -> Vec<Vec<Vec<u8>>> {
    txns.iter()
        .map(|t| {
            t.plan.keys[..t.plan.nkeys]
                .iter()
                .map(|&k| crate::live::key_name(workload, k).into_bytes())
                .collect()
        })
        .collect()
}
