//! Property-based tests for the storage layer: the B+tree must behave like
//! `BTreeMap`, row encoding must round-trip arbitrary values, the columnar
//! decoder must agree with the row decoder, and the buffer pool must
//! behave like a map of page contents.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use aimdb_common::{ColVec, DataType, Row, Value};
use aimdb_storage::codec::{decode_row, decode_row_into, encode_row};
use aimdb_storage::page::Page;
use aimdb_storage::{BTree, BufferPool, Disk, HeapFile, PageId};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 _-]{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #[test]
    fn codec_roundtrip(values in prop::collection::vec(arb_value(), 0..20)) {
        let row = Row::new(values);
        let decoded = decode_row(&encode_row(&row)).unwrap();
        // NaN-aware equality comes from Value's total order
        prop_assert_eq!(decoded, row);
    }

    #[test]
    fn btree_matches_btreemap(ops in prop::collection::vec((any::<u8>(), 0i64..500), 1..400)) {
        let mut tree = BTree::with_fanout(4);
        let mut model = BTreeMap::new();
        for (op, key) in ops {
            match op % 3 {
                0 | 1 => {
                    tree.insert(key, key * 2);
                    model.insert(key, key * 2);
                }
                _ => {
                    prop_assert_eq!(tree.remove(&key), model.remove(&key));
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        for k in 0i64..500 {
            prop_assert_eq!(tree.get(&k), model.get(&k));
        }
        let all = tree.iter_all();
        let expect: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn btree_range_matches_btreemap(
        keys in prop::collection::btree_set(0i64..1000, 0..300),
        lo in 0i64..1000,
        hi in 0i64..1000,
    ) {
        let mut tree = BTree::with_fanout(6);
        let mut model = BTreeMap::new();
        for &k in &keys {
            tree.insert(k, k);
            model.insert(k, k);
        }
        let got: Vec<i64> = tree.range(&lo, &hi).into_iter().map(|(k, _)| k).collect();
        let expect: Vec<i64> = if lo <= hi {
            model.range(lo..=hi).map(|(k, _)| *k).collect()
        } else {
            Vec::new() // inverted bound: SQL semantics — empty result
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn heap_preserves_rows(rows in prop::collection::vec(
        prop::collection::vec(arb_value(), 1..8), 1..100)) {
        let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), 8));
        let heap = HeapFile::new(pool);
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let ids: Vec<_> = rows.iter().map(|r| heap.insert(r).unwrap()).collect();
        for (id, row) in ids.iter().zip(&rows) {
            prop_assert_eq!(heap.get(*id).unwrap().unwrap(), row.clone());
        }
        prop_assert_eq!(heap.len().unwrap(), rows.len());
    }

    // The batched cursors feeding the vectorized executor must stream
    // exactly what the one-shot APIs materialize, for any chunk size.

    #[test]
    fn range_cursor_streams_like_range(
        keys in prop::collection::btree_set(0i64..600, 0..200),
        lo in 0i64..600,
        hi in 0i64..600,
        chunk in 1usize..50,
    ) {
        let mut tree = BTree::with_fanout(5);
        for &k in &keys {
            tree.insert(k, k * 3);
        }
        let mut cursor = tree.range_cursor(&lo, &hi);
        let mut streamed = Vec::new();
        while cursor.next_chunk(chunk, &mut streamed) > 0 {}
        prop_assert!(cursor.is_exhausted());
        prop_assert_eq!(streamed, tree.range(&lo, &hi));
    }

    // The cursor must stream every live row once, in page order, under
    // the id `scan` reports for it: the visibility hook is asked about
    // each live slot exactly once, and untyped lanes take any value.
    #[test]
    fn heap_cursor_streams_like_scan(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 5..6), 1..120),
        width in 1usize..6,
        delete_every in 2usize..7,
        min_rows in 1usize..40,
    ) {
        let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), 8));
        let heap = HeapFile::new(pool);
        let ids: Vec<_> = rows
            .iter()
            .map(|vals| heap.insert(&Row::new(vals[..width].to_vec())).unwrap())
            .collect();
        for id in ids.iter().step_by(delete_every) {
            heap.delete(*id).unwrap();
        }
        let seen = std::sync::Mutex::new(Vec::new());
        let vis = |rid| {
            seen.lock().unwrap().push(rid);
            true
        };
        let mut cursor = heap.scan_cursor();
        let mut cols = vec![ColVec::Mixed(Vec::new()); width];
        let keep: Vec<usize> = (0..width).collect();
        let mut total = 0;
        loop {
            let (n, more) = cursor.fill_batch_vis(min_rows, width, &keep, &mut cols, Some(&vis), None).unwrap();
            total += n;
            if !more {
                break;
            }
        }
        let streamed: Vec<_> = seen
            .into_inner()
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, Row::new(cols.iter().map(|c| c.value(i)).collect())))
            .collect();
        prop_assert_eq!(streamed.len(), total);
        prop_assert_eq!(streamed, heap.scan().unwrap());
    }

    // The columnar fill path (decode straight into ColVec builders) must
    // agree value-for-value with the row-at-a-time scan, including after
    // deletions and for heterogeneous columns that demote to Mixed.
    #[test]
    fn heap_fill_batch_streams_like_scan(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 3..4), 1..120),
        delete_every in 2usize..7,
        min_rows in 1usize..40,
    ) {
        let pool = Arc::new(BufferPool::new(Arc::new(Disk::new()), 8));
        let heap = HeapFile::new(pool);
        let ids: Vec<_> = rows
            .iter()
            .map(|vals| heap.insert(&Row::new(vals.clone())).unwrap())
            .collect();
        for id in ids.iter().step_by(delete_every) {
            heap.delete(*id).unwrap();
        }
        let want = heap.scan().unwrap();
        let mut cursor = heap.scan_cursor();
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 16),
            ColVec::with_capacity(DataType::Text, 16),
            ColVec::with_capacity(DataType::Float, 16),
        ];
        let mut total = 0;
        loop {
            let (n, more) = cursor.fill_batch_vis(min_rows, 3, &[0, 1, 2], &mut cols, None, None).unwrap();
            total += n;
            if !more {
                break;
            }
        }
        prop_assert_eq!(total, want.len());
        for (i, (_, r)) in want.iter().enumerate() {
            for (ci, col) in cols.iter().enumerate() {
                prop_assert_eq!(&col.value(i), r.get(ci));
            }
        }
    }

    // Interleave inserts and deletes against the BTreeMap model, probing
    // the streaming cursor (not just point lookups) at every step.
    #[test]
    fn btree_cursor_consistent_under_interleaved_ops(
        ops in prop::collection::vec((any::<u8>(), 0i64..300), 1..150),
        chunk in 1usize..20,
    ) {
        let mut tree = BTree::with_fanout(4);
        let mut model = BTreeMap::new();
        for (op, key) in ops {
            match op % 3 {
                0 | 1 => {
                    tree.insert(key, key);
                    model.insert(key, key);
                }
                _ => {
                    prop_assert_eq!(tree.remove(&key), model.remove(&key));
                }
            }
            let mut cursor = tree.range_cursor(&0, &299);
            let mut streamed = Vec::new();
            while cursor.next_chunk(chunk, &mut streamed) > 0 {}
            let expect: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(streamed, expect);
        }
    }
}

/// The declared types the decoder properties draw their columns from.
const COL_TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
];

/// A value of type `ty` built from one cell's raw draws (a float takes
/// `bits` as its bit pattern, so NaNs and infinities occur), or NULL.
fn typed_value(ty: DataType, null: bool, bits: i64, text: &str) -> Value {
    match (null, ty) {
        (true, _) => Value::Null,
        (false, DataType::Int) => Value::Int(bits),
        (false, DataType::Float) => Value::Float(f64::from_bits(bits as u64)),
        (false, DataType::Text) => Value::Text(text.to_string()),
        (false, DataType::Bool) => Value::Bool(bits & 1 == 1),
    }
}

proptest! {
    // The scan's decoder against the reference one, over rows of every
    // value type with NULLs: into columns typed by a schema,
    // `decode_row_into` yields exactly `decode_row`'s values; one value
    // of another type demotes its column, and only it, to `Mixed` with
    // every value kept; and every truncation of an encoding is an error
    // in both decoders.
    #[test]
    fn decode_row_into_agrees_with_decode_row(
        types in prop::collection::vec(0usize..4, 1..8),
        cells in prop::collection::vec(
            (0u8..4, any::<i64>(), "[a-zA-Z0-9 ]{0,12}"),
            8..64,
        ),
        intruder in (any::<bool>(), 0usize..1000, 1usize..4),
    ) {
        let width = types.len();
        let mut rows: Vec<Vec<Value>> = cells
            .chunks_exact(width)
            .map(|row| {
                row.iter()
                    .zip(&types)
                    .map(|((null, bits, text), &t)| {
                        typed_value(COL_TYPES[t], *null == 0, *bits, text)
                    })
                    .collect()
            })
            .collect();
        let (intrude, at, shift) = intruder;
        let mixed_col = intrude.then(|| {
            let (r, c) = (at % rows.len(), at % width);
            let (_, bits, text) = &cells[r * width + c];
            rows[r][c] = typed_value(COL_TYPES[(types[c] + shift) % 4], false, *bits, text);
            c
        });
        let fresh_cols = || -> Vec<ColVec> {
            types.iter().map(|&t| ColVec::with_capacity(COL_TYPES[t], 0)).collect()
        };
        // the full projection: every field into its own lane
        let keep: Vec<usize> = (0..width).collect();

        let mut cols = fresh_cols();
        let mut want = Vec::with_capacity(rows.len());
        for row in &rows {
            let bytes = encode_row(&Row::new(row.clone()));
            decode_row_into(&bytes, width, &keep, &mut cols).unwrap();
            want.push(decode_row(&bytes).unwrap());
            for cut in 0..bytes.len() {
                prop_assert!(
                    decode_row(&bytes[..cut]).is_err(),
                    "decode_row accepted a {cut}-byte prefix"
                );
                prop_assert!(
                    decode_row_into(&bytes[..cut], width, &keep, &mut fresh_cols()).is_err(),
                    "decode_row_into accepted a {cut}-byte prefix"
                );
            }
        }
        for (c, col) in cols.iter().enumerate() {
            prop_assert_eq!(matches!(col, ColVec::Mixed(_)), mixed_col == Some(c));
            prop_assert_eq!(col.len(), want.len());
            for (i, row) in want.iter().enumerate() {
                prop_assert_eq!(&col.value(i), row.get(c));
            }
        }
    }
}

proptest! {
    // A projected decode is the full decode followed by a projection,
    // over rows of every value type with NULLs and any subset of their
    // fields (none and all included): the kept fields land in their lanes
    // in order, and a row is rejected exactly when `decode_row` rejects
    // it, with the same error — every truncation, a bad tag on any field,
    // and invalid UTF-8 in any Text field, kept or skipped. A width that
    // disagrees with the stored arity is an error whatever is kept.
    #[test]
    fn projected_decode_is_decode_then_project(
        types in prop::collection::vec(0usize..4, 1..10),
        cells in prop::collection::vec(
            (0u8..4, any::<i64>(), "[a-zA-Z0-9 ]{1,12}"),
            10..60,
        ),
        mask in prop::collection::vec(any::<bool>(), 10..11),
        bad_tag in 6u8..255,
    ) {
        let width = types.len();
        let keep: Vec<usize> = (0..width).filter(|&i| mask[i]).collect();
        let fresh_cols = || -> Vec<ColVec> {
            keep.iter().map(|&i| ColVec::with_capacity(COL_TYPES[types[i]], 0)).collect()
        };
        let same_error = |bytes: &[u8]| -> Result<(), String> {
            let want = decode_row(bytes).map(|_| ()).map_err(|e| e.to_string());
            let got = decode_row_into(bytes, width, &keep, &mut fresh_cols())
                .map_err(|e| e.to_string());
            prop_assert!(want.is_err(), "decode_row accepted corrupt bytes {bytes:?}");
            prop_assert_eq!(got, want);
            Ok(())
        };
        let mut cols = fresh_cols();
        let mut want = Vec::new();
        for row in cells.chunks_exact(width) {
            let values: Vec<Value> = row
                .iter()
                .zip(&types)
                .map(|((null, bits, text), &t)| typed_value(COL_TYPES[t], *null == 0, *bits, text))
                .collect();
            let bytes = encode_row(&Row::new(values.clone()));
            decode_row_into(&bytes, width, &keep, &mut cols).unwrap();
            want.push(decode_row(&bytes).unwrap().project(&keep));
            for cut in 0..bytes.len() {
                same_error(&bytes[..cut])?;
            }
            for (field, v) in values.iter().enumerate() {
                // a field's tag follows the arity and the fields before it
                let at = encode_row(&Row::new(values[..field].to_vec())).len();
                let mut bad = bytes.clone();
                bad[at] = bad_tag;
                same_error(&bad)?;
                if let Value::Text(_) = v {
                    // the payload follows the tag and the u32 length
                    let mut bad = bytes.clone();
                    bad[at + 5] = 0xff;
                    same_error(&bad)?;
                }
            }
            prop_assert!(decode_row_into(&bytes, width + 1, &keep, &mut fresh_cols()).is_err());
        }
        for (c, col) in cols.iter().enumerate() {
            prop_assert_eq!(col.len(), want.len());
            for (i, row) in want.iter().enumerate() {
                prop_assert_eq!(&col.value(i), row.get(c));
            }
        }
    }
}

/// Tuples of a page, in slot order.
fn tuples(page: &Page) -> Vec<Vec<u8>> {
    page.iter().map(|(_, t)| t.to_vec()).collect()
}

proptest! {
    // The buffer pool against a model of page contents: any interleaving
    // of allocations, reads, writes, resizes and flushes — with a pool
    // small enough that most steps evict, write back and re-read — keeps
    // every page's bytes, never holds more frames than its capacity,
    // counts every access as exactly one hit or miss, and leaves each
    // shared handle reading the image it was taken from.
    #[test]
    fn buffer_pool_matches_model(
        ops in prop::collection::vec((0u8..5, any::<u8>(), 1usize..200), 1..120),
        capacity in 1usize..9,
    ) {
        let pool = BufferPool::new(Arc::new(Disk::new()), capacity);
        let mut model: HashMap<PageId, Vec<Vec<u8>>> = HashMap::new();
        let mut ids: Vec<PageId> = Vec::new();
        // Handles taken before a write, with the bytes they must keep.
        let mut held: Vec<(Arc<Page>, Vec<Vec<u8>>)> = Vec::new();
        let mut accesses = 0u64;
        for (step, (kind, pick, n)) in ops.into_iter().enumerate() {
            let target = (!ids.is_empty()).then(|| ids[pick as usize % ids.len()]);
            match (kind, target) {
                (0, _) | (_, None) => {
                    let id = pool.allocate().unwrap();
                    accesses += 1;
                    ids.push(id);
                    model.insert(id, Vec::new());
                }
                (1, Some(id)) => {
                    accesses += 1;
                    prop_assert_eq!(tuples(&pool.get(id).unwrap()), model[&id].clone());
                }
                (2, Some(id)) => {
                    let tuple = vec![step as u8; n];
                    let before = pool.get(id).unwrap();
                    let slot = pool.with_page_mut(id, |p| Ok(p.insert(&tuple))).unwrap();
                    let after = pool.get(id).unwrap();
                    accesses += 3;
                    let old = model[&id].clone();
                    prop_assert_eq!(tuples(&before), old.clone());
                    if slot.is_some() {
                        model.get_mut(&id).unwrap().push(tuple);
                    }
                    prop_assert_eq!(tuples(&after), model[&id].clone());
                    held.push((before, old));
                    if held.len() > 4 {
                        held.remove(0);
                    }
                }
                (3, _) => pool.resize(n % 8 + 1).unwrap(),
                _ => pool.flush_all().unwrap(),
            }
            for (handle, want) in &held {
                prop_assert_eq!(&tuples(handle), want);
            }
            for &id in &ids {
                accesses += 1;
                prop_assert_eq!(tuples(&pool.get(id).unwrap()), model[&id].clone());
            }
            prop_assert!(pool.resident() <= pool.capacity());
            let s = pool.stats();
            prop_assert_eq!(s.hits + s.misses, accesses);
        }
    }
}

proptest! {
    // The morsel dispenser must partition any (page_count, morsel_pages)
    // into morsels that cover every page exactly once, in order, with no
    // overlap — including the degenerate 0-page and 1-page heaps and
    // oversized / zero morsel sizes.
    #[test]
    fn morsel_dispenser_partitions_exactly_once(
        page_count in 0usize..600,
        morsel_pages in 0usize..40,
    ) {
        use aimdb_storage::MorselDispenser;
        let d = MorselDispenser::new(page_count, morsel_pages);
        let mut morsels = Vec::new();
        while let Some(m) = d.claim() {
            morsels.push(m);
        }
        prop_assert!(d.claim().is_none());
        prop_assert_eq!(morsels.len(), d.morsel_count());
        let size = morsel_pages.max(1);
        let mut next_page = 0usize;
        for (i, m) in morsels.iter().enumerate() {
            prop_assert_eq!(m.index, i);
            // contiguous: each morsel starts where the previous ended
            prop_assert_eq!(m.start, next_page);
            prop_assert!(m.end > m.start, "empty morsel {m:?}");
            prop_assert!(m.end - m.start <= size);
            next_page = m.end;
        }
        // exact cover: the final morsel ends at page_count
        prop_assert_eq!(next_page, page_count.min(morsels.len() * size));
        prop_assert_eq!(next_page, page_count);
    }

    // Concurrent claims partition exactly like serial claims: union of
    // per-thread claims covers every page once with dense indices.
    #[test]
    fn morsel_dispenser_threaded_cover(
        page_count in 0usize..400,
        morsel_pages in 1usize..16,
        threads in 1usize..6,
    ) {
        use aimdb_storage::{Morsel, MorselDispenser};
        use std::sync::Mutex;
        let d = MorselDispenser::new(page_count, morsel_pages);
        let all: Mutex<Vec<Morsel>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(m) = d.claim() {
                        if let Ok(mut v) = all.lock() {
                            v.push(m);
                        }
                    }
                });
            }
        });
        let mut got = all.into_inner().unwrap_or_default();
        got.sort_by_key(|m| m.start);
        let mut covered = vec![false; page_count];
        for (i, m) in got.iter().enumerate() {
            prop_assert_eq!(m.index, i);
            for (p, c) in covered.iter_mut().enumerate().take(m.end).skip(m.start) {
                prop_assert!(!*c, "page {} claimed twice", p);
                *c = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
    }
}
