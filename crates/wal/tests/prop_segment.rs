//! Property tests for the segmented log: recovery over arbitrary crash
//! points, fault seeds, and crash-time image damage always yields a
//! durable prefix, with tiny segment capacities forcing rotation so the
//! property spans multi-segment chains.

use proptest::prelude::*;
use tpc_common::{NodeId, TxnId};
use tpc_wal::segment::{scan_chain, SegmentedLog};
use tpc_wal::{Durability, FaultyLog, LogManager, LogRecord, StorageFaultPlan, StreamId};

/// A temp directory unique to one property (`test`) and one case
/// (`tag`), so properties running on parallel test threads never share a
/// segment chain.
fn tmp(test: &str, tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpc-seg-prop-{}-{test}-{tag}", std::process::id()))
}

/// The active (highest-numbered) segment file — where a real torn write
/// or bit flip would land at power-off.
fn last_segment(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .max()
        .expect("a segmented log always has an active segment")
}

proptest! {
    /// The segmented twin of `faulty_log_crash_recovery_is_a_durable_prefix`:
    /// arbitrary records (mixed forced and non-forced) pushed through a
    /// [`FaultyLog`] over a [`SegmentedLog`] with seeded fsync failures,
    /// crashed at an arbitrary point with optional image damage on the
    /// active segment — the chain scan yields exactly a prefix of the
    /// appended history, never less than what a successful sync covered,
    /// and the reopened chain keeps accepting appends.
    #[test]
    fn segmented_crash_recovery_is_a_durable_prefix(
        n_records in 1usize..24,
        forced_mask in any::<u32>(),
        crash_after in 0usize..24,
        fsync_pct in 0u32..60,
        seg_bytes in 128u64..512,
        torn in prop::option::of(0u64..600),
        flip in prop::option::of((0u64..600, 0u8..8u8)),
        seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        let dir = tmp("crash-prefix", tag);
        let _ = std::fs::remove_dir_all(&dir);
        let plan = StorageFaultPlan::clean(seed)
            .with_fsync_failures(f64::from(fsync_pct) / 100.0);
        let image_damage = torn.is_some() || flip.is_some();

        let mut log = FaultyLog::new(
            Box::new(SegmentedLog::create_with(&dir, seg_bytes, false).unwrap()),
            plan,
        );
        // Highest seq covered by the last successful physical sync. A
        // rotation also seals (and syncs) everything before it, so this
        // is a lower bound on durability, not the exact durable high.
        let mut forced_high: Option<u64> = None;
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
                    forced_high = Some(i as u64);
                }
            } else {
                let _ = log.append(StreamId::Tm, rec, Durability::NonForced);
            }
        }
        log.crash_discard(); // power failure: the buffered tail is gone
        drop(log);

        // Crash-time image damage lands on the active segment, where an
        // interrupted append physically writes.
        let active = last_segment(&dir);
        if let Some(at) = torn {
            let f = std::fs::OpenOptions::new().write(true).open(&active).unwrap();
            let len = f.metadata().unwrap().len();
            f.set_len(at.min(len)).unwrap();
        }
        if let Some((at, bit)) = flip {
            let mut raw = std::fs::read(&active).unwrap();
            if !raw.is_empty() {
                let idx = (at as usize) % raw.len();
                raw[idx] ^= 1 << bit;
                std::fs::write(&active, &raw).unwrap();
            }
        }

        let recovered = scan_chain(&dir).unwrap();
        // Prefix property: whatever survives is 0..k in order, nothing
        // invented, nothing reordered, nothing from after the crash.
        for (i, (_, stream, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(*stream, StreamId::Tm);
            prop_assert_eq!(rec.txn().seq, i as u64);
        }
        prop_assert!(recovered.len() <= crash_at);
        if !image_damage {
            // Nothing a successful sync covered may be lost. (Exact
            // equality cannot be asserted: rotation syncs sealed
            // segments even when every explicit force failed.)
            if let Some(high) = forced_high {
                prop_assert!(
                    recovered.len() as u64 > high,
                    "synced prefix lost: recovered {} of {}",
                    recovered.len(),
                    high + 1,
                );
            }
        }

        // Reopening over the crashed (and possibly damaged) image keeps
        // working: recovery re-zero-fills the tail and appends resume.
        {
            let mut log = SegmentedLog::open_with(&dir, seg_bytes, false).unwrap();
            log.append(
                StreamId::Tm,
                LogRecord::End { txn: TxnId::new(NodeId(0), 999) },
                Durability::Forced,
            ).unwrap();
        }
        let after = scan_chain(&dir).unwrap();
        prop_assert_eq!(after.len(), recovered.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pure rotation, no faults: every forced record survives the chain
    /// scan in order, however many segment boundaries the history
    /// crosses, and LSNs stay strictly monotone across segments.
    #[test]
    fn rotation_preserves_every_synced_record(
        n_records in 1usize..40,
        seg_bytes in 128u64..400,
        tag in any::<u64>(),
    ) {
        let dir = tmp("rotation", tag);
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut log = SegmentedLog::create_with(&dir, seg_bytes, false).unwrap();
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
        let recovered = scan_chain(&dir).unwrap();
        prop_assert_eq!(recovered.len(), n_records);
        let mut prev_lsn = None;
        for (i, (lsn, _, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(rec.txn().seq, i as u64);
            if let Some(p) = prev_lsn {
                prop_assert!(lsn.0 > p, "LSNs must be strictly monotone across the chain");
            }
            prev_lsn = Some(lsn.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
