//! The durable backends keep no per-record state in memory: once a log
//! is warm, appending another 10k records leaves the live heap where it
//! was, give or take a small fixed bound. A log that mirrored its records
//! in RAM would grow by about 1 MB per 10k records here.
//!
//! A counting global allocator measures the live heap, so this binary
//! holds a single test: a second test running in parallel would allocate
//! into the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};

use tpc_common::{NodeId, TxnId};
use tpc_wal::file::FileLog;
use tpc_wal::{Durability, LogManager, LogRecord, SegmentedLog, StreamId};

/// Bytes currently allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Records per measured batch.
const BATCH: u64 = 10_000;

/// Allowed live-heap growth over the second batch.
const BOUND: isize = 64 * 1024;

/// Appends `BATCH` TM records starting at record `first`: each
/// transaction writes `Committed` then its `End` marker.
fn append_batch(log: &mut dyn LogManager, first: u64) {
    for txn in first / 2..(first + BATCH) / 2 {
        let txn = TxnId::new(NodeId(0), txn);
        let committed = LogRecord::Committed {
            txn,
            subordinates: vec![NodeId(1)],
        };
        log.append(StreamId::Tm, committed, Durability::NonForced)
            .unwrap();
        log.append(StreamId::Tm, LogRecord::End { txn }, Durability::NonForced)
            .unwrap();
    }
}

/// Live-heap growth, in bytes, while the second batch is appended.
fn growth_over_second_batch(log: &mut dyn LogManager) -> isize {
    append_batch(log, 0);
    let warm = LIVE.load(Ordering::Relaxed);
    append_batch(log, BATCH);
    let growth = LIVE.load(Ordering::Relaxed) - warm;
    assert_eq!(log.stats().writes, 2 * BATCH);
    growth
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tpc-wal-mem-{}-{name}", std::process::id()))
}

#[test]
fn durable_logs_do_not_grow_with_appended_records() {
    let file = tmp("file.log");
    let mut log = FileLog::create(&file).unwrap();
    let file_growth = growth_over_second_batch(&mut log);
    drop(log);
    std::fs::remove_file(&file).ok();

    // Small segments so the batches rotate many times; with retention
    // on, every segment's transactions end and the segment is reclaimed.
    let mut seg_growth = Vec::new();
    for retain in [false, true] {
        let dir = tmp(&format!("seg-retain-{retain}"));
        let mut log = SegmentedLog::create_with(&dir, 8 * 1024, retain).unwrap();
        seg_growth.push(growth_over_second_batch(&mut log));
        assert!(log.segment_stats().rotations > 10);
        drop(log);
        std::fs::remove_dir_all(&dir).ok();
    }

    for (name, growth) in [
        ("FileLog", file_growth),
        ("SegmentedLog without retention", seg_growth[0]),
        ("SegmentedLog with retention", seg_growth[1]),
    ] {
        assert!(
            growth < BOUND,
            "{name}: live heap grew {growth} B over {BATCH} appends (bound {BOUND} B)"
        );
    }
}
