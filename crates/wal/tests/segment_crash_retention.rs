//! Segment retention across a crash: an `End` marker that a crash
//! discards must not release its transaction's segment.

use tpc_common::{NodeId, TxnId};
use tpc_wal::segment::segment_path;
use tpc_wal::{Durability, LogManager, LogRecord, SegmentedLog, StreamId};

fn committed(n: u64) -> LogRecord {
    LogRecord::Committed {
        txn: TxnId::new(NodeId(0), n),
        subordinates: vec![NodeId(1)],
    }
}

fn end(n: u64) -> LogRecord {
    LogRecord::End {
        txn: TxnId::new(NodeId(0), n),
    }
}

/// Appends one transaction's full life: `Committed`, then `End`.
fn ended_txn(log: &mut SegmentedLog, n: u64) {
    log.append(StreamId::Tm, committed(n), Durability::Forced)
        .unwrap();
    log.append(StreamId::Tm, end(n), Durability::Forced)
        .unwrap();
}

/// Appends `T` (txn 7) to segment 0 and fills it with fully ended
/// transactions until it seals. Writes `T`'s `End` into the new active
/// segment, forced or lost to a crash, then rotates once more. Returns
/// whether segment 0 survived that rotation.
fn segment_zero_survives(end_lost_in_crash: bool) -> bool {
    let dir = std::env::temp_dir().join(format!(
        "tpc-wal-crash-retention-{}-{end_lost_in_crash}",
        std::process::id()
    ));
    let mut log = SegmentedLog::create_with(&dir, 256, true).unwrap();
    log.append(StreamId::Tm, committed(7), Durability::Forced)
        .unwrap();
    let mut n = 100;
    while log.segment_count() == 1 {
        ended_txn(&mut log, n);
        n += 1;
    }
    if end_lost_in_crash {
        log.append(StreamId::Tm, end(7), Durability::NonForced)
            .unwrap();
        log.crash_discard();
    } else {
        log.append(StreamId::Tm, end(7), Durability::Forced)
            .unwrap();
    }
    let rotations = log.segment_stats().rotations;
    while log.segment_stats().rotations == rotations {
        ended_txn(&mut log, n);
        n += 1;
    }
    let survived = segment_path(&dir, 0).exists();
    if survived {
        assert!(log
            .durable_records()
            .iter()
            .any(|(_, _, r)| *r == committed(7)));
    }
    std::fs::remove_dir_all(&dir).ok();
    survived
}

#[test]
fn end_lost_in_a_crash_still_pins_its_segment() {
    assert!(
        !segment_zero_survives(false),
        "a durable End lets the segment go at the next rotation"
    );
    assert!(
        segment_zero_survives(true),
        "an End the crash discarded must not release the segment"
    );
}
