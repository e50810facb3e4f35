//! Property tests for the file-backed log: the recovery scan never
//! panics and always returns a prefix of the appended history, whatever
//! corruption the tail suffers.

use proptest::prelude::*;
use tpc_common::{NodeId, TxnId};
use tpc_wal::file::{scan, FileLog};
use tpc_wal::{Durability, LogManager, LogRecord, StreamId};

/// A temp path unique to one property (`test`) and one case (`tag`), so
/// properties running on parallel test threads never share a file.
fn tmp(test: &str, tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tpc-wal-prop-{}-{test}-{tag}.log",
        std::process::id()
    ))
}

proptest! {
    /// Corrupting any suffix of the file leaves a clean prefix: scan
    /// returns the first k records for some k, never garbage and never a
    /// panic.
    #[test]
    fn scan_survives_arbitrary_tail_corruption(
        n_records in 1usize..20,
        cut in 0usize..2000,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        tag in any::<u64>(),
    ) {
        let path = tmp("tail-corruption", tag);
        {
            let mut log = FileLog::create(&path).unwrap();
            for i in 0..n_records {
                log.append(
                    StreamId::Tm,
                    LogRecord::Committed {
                        txn: TxnId::new(NodeId(0), i as u64),
                        subordinates: vec![NodeId(1)],
                    },
                    Durability::Forced,
                ).unwrap();
            }
        }
        let original = std::fs::read(&path).unwrap();
        let cut = cut.min(original.len());
        let mut mutated = original[..cut].to_vec();
        mutated.extend_from_slice(&garbage);
        std::fs::write(&path, &mutated).unwrap();

        let recovered = scan(&path).unwrap();
        // Prefix property: recovered records are exactly 0..k in order.
        for (i, (_, stream, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(*stream, StreamId::Tm);
            match rec {
                LogRecord::Committed { txn, .. } => {
                    prop_assert_eq!(txn.seq, i as u64);
                }
                other => prop_assert!(false, "unexpected record {other:?}"),
            }
        }
        prop_assert!(recovered.len() <= n_records);
        // Reopening after corruption keeps working (torn tail truncated).
        {
            let mut log = FileLog::open(&path).unwrap();
            log.append(
                StreamId::Tm,
                LogRecord::End { txn: TxnId::new(NodeId(0), 999) },
                Durability::Forced,
            ).unwrap();
        }
        let after = scan(&path).unwrap();
        prop_assert_eq!(after.len(), recovered.len() + 1);
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in a record's frame confines the
    /// damage: everything before the flip's frame still scans.
    #[test]
    fn single_bit_flip_is_detected(
        n_records in 2usize..10,
        flip_byte in any::<usize>(),
        flip_bit in 0usize..8,
        tag in any::<u64>(),
    ) {
        let path = tmp("bit-flip", tag);
        {
            let mut log = FileLog::create(&path).unwrap();
            for i in 0..n_records {
                log.append(
                    StreamId::Tm,
                    LogRecord::End { txn: TxnId::new(NodeId(0), i as u64) },
                    Durability::Forced,
                ).unwrap();
            }
        }
        let mut raw = std::fs::read(&path).unwrap();
        let idx = flip_byte % raw.len();
        raw[idx] ^= 1 << flip_bit;
        std::fs::write(&path, &raw).unwrap();
        let recovered = scan(&path).unwrap();
        // Whatever survives is a correct prefix.
        for (i, (_, _, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(rec.txn().seq, i as u64);
        }
        prop_assert!(recovered.len() < n_records || recovered.len() == n_records);
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    /// The satellite crash property: arbitrary records (mixed forced and
    /// non-forced) pushed through a [`FaultyLog`] over a [`FileLog`]
    /// under an arbitrary seeded [`StorageFaultPlan`], crashed at an
    /// arbitrary point — reopening yields exactly a prefix of the
    /// records that a successful sync made durable, and never
    /// resurrects a suspended (buffered, unforced) batch that no sync
    /// covered.
    #[test]
    fn faulty_log_crash_recovery_is_a_durable_prefix(
        n_records in 1usize..24,
        forced_mask in any::<u32>(),
        crash_after in 0usize..24,
        fsync_pct in 0u32..60,
        torn in prop::option::of(0u64..400),
        flip in prop::option::of((0u64..400, 0u8..8u8)),
        seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        use tpc_wal::{FaultyLog, StorageFaultPlan};

        let path = tmp("faulty-crash", tag);
        let mut plan = StorageFaultPlan::clean(seed).with_fsync_failures(f64::from(fsync_pct) / 100.0);
        if let Some(at) = torn {
            plan = plan.with_torn_write_at(at);
        }
        if let Some((at, bit)) = flip {
            plan = plan.with_bit_flip_at(at, bit);
        }
        let image_damage = torn.is_some() || flip.is_some();

        let mut log = FaultyLog::new(Box::new(FileLog::create(&path).unwrap()), plan)
            .with_path(&path);
        // Highest seq covered by the last successful physical sync: a
        // successful force flushes the whole buffer, so everything
        // appended up to that point (forced or not) is durable.
        let mut durable_high: Option<u64> = None;
        let crash_at = crash_after.min(n_records);
        for i in 0..crash_at {
            let rec = LogRecord::Committed {
                txn: TxnId::new(NodeId(0), i as u64),
                subordinates: vec![NodeId(1)],
            };
            if forced_mask >> (i % 32) & 1 == 1 {
                // A failed force leaves the record buffered; mirror the
                // host's reaction with one flush retry.
                if log.append(StreamId::Tm, rec, Durability::Forced).is_ok()
                    || log.flush().is_ok()
                {
                    durable_high = Some(i as u64);
                }
            } else {
                let _ = log.append(StreamId::Tm, rec, Durability::NonForced);
            }
        }
        log.crash_discard(); // power failure: drop the buffer, damage the image
        drop(log);

        let recovered = scan(&path).unwrap();
        // Prefix property: whatever survives is 0..k in order, nothing
        // invented, nothing reordered.
        for (i, (_, stream, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(*stream, StreamId::Tm);
            prop_assert_eq!(rec.txn().seq, i as u64);
        }
        match durable_high {
            // No resurrection: without a single successful sync nothing
            // is durable, whatever was appended or suspended.
            None => prop_assert!(recovered.is_empty(), "resurrected {recovered:?}"),
            Some(high) => {
                // At most the synced prefix survives...
                prop_assert!(recovered.len() as u64 <= high + 1);
                // ...and on an undamaged image, exactly that prefix.
                if !image_damage {
                    prop_assert_eq!(recovered.len() as u64, high + 1);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
