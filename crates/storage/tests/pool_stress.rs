//! Threaded buffer-pool stress: four readers stream the heap through
//! `scan_cursor` and `morsel_source` cursors while one writer inserts and
//! deletes through a 4-page pool, so nearly every access misses and the
//! writer's dirty pages are written back as readers evict them. Readers
//! must only ever decode whole rows the writer inserted; afterwards the
//! heap must equal the writer's model and the lock-order witness must be
//! clean.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use aimdb_common::{ColVec, DataType, Row, Value};
use aimdb_storage::{BufferPool, Disk, HeapFile, HeapScanCursor, RowId};
use rand::{Rng, SeedableRng, StdRng};

const ROWS: i64 = 1500;
const READERS: usize = 4;

fn row(i: i64) -> Row {
    Row::new(vec![Value::Int(i), Value::Text(format!("row-{i:040}"))])
}

/// Every row a reader decodes must be one the writer wrote, and no row
/// may appear twice in one pass (each is inserted once, never moved).
fn check_pass(rows: impl IntoIterator<Item = (i64, String)>) -> usize {
    let mut seen = HashSet::new();
    for (i, text) in rows {
        assert!((0..ROWS).contains(&i), "row id {i} was never written");
        assert_eq!(text, format!("row-{i:040}"), "torn row {i}");
        assert!(seen.insert(i), "row {i} seen twice in one pass");
    }
    seen.len()
}

/// Stream `cur` to its end through an Int and a Text lane, 32 rows a
/// call, and read the lanes back as (id, text) pairs.
fn drain(mut cur: HeapScanCursor) -> Vec<(i64, String)> {
    let mut cols = vec![
        ColVec::with_capacity(DataType::Int, 32),
        ColVec::with_capacity(DataType::Text, 32),
    ];
    let mut n = 0;
    loop {
        let (k, more) = cur
            .fill_batch_vis(32, 2, &[0, 1], &mut cols, None, None)
            .unwrap();
        n += k;
        if !more {
            break;
        }
    }
    (0..n)
        .map(|i| match (cols[0].value(i), cols[1].value(i)) {
            (Value::Int(a), Value::Text(b)) => (a, b),
            other => panic!("unexpected values {other:?}"),
        })
        .collect()
}

fn cursor_pass(heap: &HeapFile) -> usize {
    check_pass(drain(heap.scan_cursor()))
}

fn morsel_pass(heap: &HeapFile) -> usize {
    let src = heap.morsel_source();
    let d = src.dispenser(2);
    let mut all = Vec::new();
    while let Some(m) = d.claim() {
        all.extend(drain(src.cursor(m.start, m.end)));
    }
    check_pass(all)
}

#[test]
fn readers_and_a_writer_through_a_four_page_pool() {
    let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), 4));
    let heap = HeapFile::new(Arc::clone(&pool));
    let done = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    let mut model: BTreeMap<RowId, Row> = BTreeMap::new();

    thread::scope(|s| {
        for r in 0..READERS {
            let (heap, done, passes) = (&heap, &done, &passes);
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if r % 2 == 0 {
                        cursor_pass(heap);
                    } else {
                        morsel_pass(heap);
                    }
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut rng = StdRng::seed_from_u64(25);
        for i in 0..ROWS {
            let id = heap.insert(&row(i)).unwrap();
            model.insert(id, row(i));
            // Delete an older row now and then: a write to a page that
            // has long left the pool, read back, dirtied and evicted.
            if i % 3 == 0 {
                let victim = *model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                heap.delete(victim).unwrap();
                model.remove(&victim);
            }
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(passes.load(Ordering::Relaxed) > 0, "readers never ran");
    let want: Vec<(RowId, Row)> = model.into_iter().collect();
    assert_eq!(heap.scan().unwrap(), want);
    assert_eq!(cursor_pass(&heap), want.len());
    assert_eq!(morsel_pass(&heap), want.len());
    let stats = pool.stats();
    assert!(stats.evictions > 0 && stats.flushes > 0, "{stats:?}");
    assert!(pool.resident() <= 4);
    if parking_lot::witness::enabled() {
        let v = parking_lot::witness::take_violations();
        assert!(v.is_empty(), "lock-order violations: {v:?}");
    }
}
