//! In-memory B+tree.
//!
//! Arena-allocated nodes (`Vec<Node>` + indices) with linked leaves for
//! range scans. Deletion removes from the leaf without eager rebalancing —
//! the same lazy strategy PostgreSQL uses for its B-trees — so the tree
//! stays simple while `RowId`s and iteration remain correct.
//!
//! The tree doubles as the traditional baseline in the learned-index
//! experiment (E8): [`BTree::get_with_cost`] reports how many nodes a
//! lookup touched, and [`BTree::size_bytes`] estimates the memory
//! footprint, the two axes the learned-index literature compares on.

use aimdb_common::{AimError, Result};

const DEFAULT_FANOUT: usize = 64;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// keys[i] is the smallest key reachable through children[i+1]
        keys: Vec<K>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        next: Option<usize>,
    },
}

/// A B+tree mapping `K` to `V`.
///
/// ```
/// use aimdb_storage::BTree;
///
/// let mut t = BTree::with_fanout(8);
/// for i in 0..100i64 {
///     t.insert(i, i * 2);
/// }
/// assert_eq!(t.get(&21), Some(&42));
/// assert_eq!(t.range(&10, &12).len(), 3);
/// assert_eq!(t.remove(&21), Some(42));
/// assert_eq!(t.get(&21), None);
/// ```
#[derive(Debug, Clone)]
pub struct BTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: usize,
    len: usize,
    fanout: usize,
}

impl<K: Ord + Clone, V: Clone> Default for BTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// `fanout` is the max number of entries per node (≥ 4).
    pub fn with_fanout(fanout: usize) -> Self {
        let fanout = fanout.max(4);
        BTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            fanout,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated nodes (live + superseded roots are reused, so
    /// this tracks the physical size of the structure).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rough memory footprint assuming fixed-size keys/values, used for
    /// size comparisons against learned indexes.
    pub fn size_bytes(&self) -> usize {
        let entry = std::mem::size_of::<K>() + std::mem::size_of::<V>();
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Internal { keys, children } => {
                    keys.len() * std::mem::size_of::<K>()
                        + children.len() * std::mem::size_of::<usize>()
                }
                Node::Leaf { keys, .. } => keys.len() * entry + std::mem::size_of::<usize>(),
            })
            .sum()
    }

    fn descend(&self, key: &K) -> (usize, usize) {
        // returns (leaf index, nodes visited)
        let mut node = self.root;
        let mut visited = 1;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let child = keys.partition_point(|k| k <= key);
                    node = children[child];
                    visited += 1;
                }
                Node::Leaf { .. } => return (node, visited),
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_with_cost(key).0
    }

    /// Point lookup plus the number of nodes touched — the comparison
    /// metric for E8.
    pub fn get_with_cost(&self, key: &K) -> (Option<&V>, usize) {
        let (leaf, visited) = self.descend(key);
        if let Node::Leaf { keys, vals, .. } = &self.nodes[leaf] {
            match keys.binary_search(key) {
                Ok(i) => (Some(&vals[i]), visited),
                Err(_) => (None, visited),
            }
        } else {
            unreachable!("descend always ends at a leaf")
        }
    }

    /// The value stored under `key`, for changing in place.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (leaf, _) = self.descend(key);
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => keys.binary_search(key).ok().map(|i| &mut vals[i]),
            Node::Internal { .. } => unreachable!("descend always ends at a leaf"),
        }
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let root = self.root;
        match self.insert_rec(root, key, val) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split { sep, right } => {
                self.len += 1;
                let new_root = Node::Internal {
                    keys: vec![sep],
                    children: vec![self.root, right],
                };
                self.nodes.push(new_root);
                self.root = self.nodes.len() - 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, node: usize, key: K, val: V) -> InsertResult<K, V> {
        match &mut self.nodes[node] {
            Node::Leaf { keys, vals, .. } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut vals[i], val);
                        return InsertResult::Replaced(old);
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        vals.insert(i, val);
                    }
                }
                if keys.len() > self.fanout {
                    self.split_leaf(node)
                } else {
                    InsertResult::Inserted
                }
            }
            Node::Internal { keys, children } => {
                let child_idx = keys.partition_point(|k| k <= &key);
                let child = children[child_idx];
                match self.insert_rec(child, key, val) {
                    InsertResult::Split { sep, right } => {
                        if let Node::Internal { keys, children } = &mut self.nodes[node] {
                            keys.insert(child_idx, sep);
                            children.insert(child_idx + 1, right);
                            if keys.len() > self.fanout {
                                return self.split_internal(node);
                            }
                        }
                        InsertResult::Inserted
                    }
                    other => other,
                }
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> InsertResult<K, V> {
        let right_idx = self.nodes.len();
        if let Node::Leaf { keys, vals, next } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let rk: Vec<K> = keys.split_off(mid);
            let rv: Vec<V> = vals.split_off(mid);
            let sep = rk[0].clone();
            let right = Node::Leaf {
                keys: rk,
                vals: rv,
                next: *next,
            };
            *next = Some(right_idx);
            self.nodes.push(right);
            InsertResult::Split {
                sep,
                right: right_idx,
            }
        } else {
            unreachable!("split_leaf on internal node")
        }
    }

    fn split_internal(&mut self, node: usize) -> InsertResult<K, V> {
        let right_idx = self.nodes.len();
        if let Node::Internal { keys, children } = &mut self.nodes[node] {
            let mid = keys.len() / 2;
            let sep = keys[mid].clone();
            let rk: Vec<K> = keys.split_off(mid + 1);
            keys.pop(); // sep moves up
            let rc: Vec<usize> = children.split_off(mid + 1);
            let right = Node::Internal {
                keys: rk,
                children: rc,
            };
            self.nodes.push(right);
            InsertResult::Split {
                sep,
                right: right_idx,
            }
        } else {
            unreachable!("split_internal on leaf")
        }
    }

    /// Remove a key; returns its value if present. Leaves may underflow
    /// (lazy deletion).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (leaf, _) = self.descend(key);
        if let Node::Leaf { keys, vals, .. } = &mut self.nodes[leaf] {
            if let Ok(i) = keys.binary_search(key) {
                keys.remove(i);
                let v = vals.remove(i);
                self.len -= 1;
                return Some(v);
            }
        }
        None
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let (mut leaf, _) = self.descend(lo);
        loop {
            let (keys, vals, next) = match &self.nodes[leaf] {
                Node::Leaf { keys, vals, next } => (keys, vals, next),
                _ => unreachable!("leaf chain contains internal node"),
            };
            for (k, v) in keys.iter().zip(vals) {
                if k > hi {
                    return out;
                }
                if k >= lo {
                    out.push((k.clone(), v.clone()));
                }
            }
            match next {
                Some(n) => leaf = *n,
                None => return out,
            }
        }
    }

    /// Open a streaming cursor over `lo <= key <= hi` that yields pairs
    /// in key-order chunks (for the vectorized executor's batched index
    /// scans). The cursor borrows the tree, so the tree cannot be
    /// mutated while a cursor is live.
    pub fn range_cursor<'a>(&'a self, lo: &K, hi: &K) -> RangeCursor<'a, K, V> {
        if lo > hi {
            return RangeCursor {
                tree: self,
                hi: hi.clone(),
                leaf: None,
                idx: 0,
            };
        }
        let (leaf, _) = self.descend(lo);
        let idx = match &self.nodes[leaf] {
            Node::Leaf { keys, .. } => keys.partition_point(|k| k < lo),
            _ => unreachable!("descend always ends at a leaf"),
        };
        RangeCursor {
            tree: self,
            hi: hi.clone(),
            leaf: Some(leaf),
            idx,
        }
    }

    /// Every pair in key order (full scan via the leaf chain).
    pub fn iter_all(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut node = self.root;
        // walk to leftmost leaf
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
        }
        loop {
            let (keys, vals, next) = match &self.nodes[node] {
                Node::Leaf { keys, vals, next } => (keys, vals, next),
                _ => unreachable!(),
            };
            out.extend(keys.iter().cloned().zip(vals.iter().cloned()));
            match next {
                Some(n) => node = *n,
                None => return out,
            }
        }
    }

    /// Height of the tree (1 for a lone leaf).
    pub fn depth(&self) -> usize {
        let mut node = self.root;
        let mut d = 1;
        loop {
            match &self.nodes[node] {
                Node::Internal { children, .. } => {
                    node = children[0];
                    d += 1;
                }
                Node::Leaf { .. } => return d,
            }
        }
    }

    /// Bulk-load from sorted unique pairs. Errors if input is unsorted.
    pub fn bulk_load(pairs: Vec<(K, V)>, fanout: usize) -> Result<Self> {
        let mut t = Self::with_fanout(fanout);
        let mut prev: Option<&K> = None;
        for (k, _) in &pairs {
            if let Some(p) = prev {
                if p >= k {
                    return Err(AimError::InvalidInput(
                        "bulk_load requires strictly ascending keys".into(),
                    ));
                }
            }
            prev = Some(k);
        }
        for (k, v) in pairs {
            t.insert(k, v);
        }
        Ok(t)
    }
}

/// Streaming range-scan cursor walking the leaf chain in chunks.
/// Produced by [`BTree::range_cursor`]; yields the same pairs as
/// [`BTree::range`] but lets the caller pull a bounded number at a time.
pub struct RangeCursor<'a, K, V> {
    tree: &'a BTree<K, V>,
    hi: K,
    leaf: Option<usize>,
    idx: usize,
}

impl<K: Ord + Clone, V: Clone> RangeCursor<'_, K, V> {
    /// Append up to `max` in-range pairs to `out`, in key order.
    /// Returns the number appended; `0` means the cursor is exhausted.
    pub fn next_chunk(&mut self, max: usize, out: &mut Vec<(K, V)>) -> usize {
        let mut n = 0;
        while n < max {
            let Some(leaf) = self.leaf else {
                return n;
            };
            let (keys, vals, next) = match &self.tree.nodes[leaf] {
                Node::Leaf { keys, vals, next } => (keys, vals, next),
                _ => unreachable!("leaf chain contains internal node"),
            };
            if self.idx >= keys.len() {
                self.leaf = *next;
                self.idx = 0;
                continue;
            }
            let k = &keys[self.idx];
            if *k > self.hi {
                self.leaf = None;
                return n;
            }
            out.push((k.clone(), vals[self.idx].clone()));
            self.idx += 1;
            n += 1;
        }
        n
    }

    /// True once every in-range pair has been yielded.
    pub fn is_exhausted(&self) -> bool {
        self.leaf.is_none()
    }
}

enum InsertResult<K, V> {
    Inserted,
    Replaced(V),
    Split { sep: K, right: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn insert_get_small() {
        let mut t = BTree::with_fanout(4);
        for i in 0..100i64 {
            assert!(t.insert(i, i * 10).is_none());
        }
        assert_eq!(t.len(), 100);
        for i in 0..100i64 {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&1000), None);
    }

    #[test]
    fn replace_returns_old() {
        let mut t: BTree<i64, &str> = BTree::new();
        t.insert(1, "a");
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn get_mut_changes_a_value_where_it_lives() {
        let mut t: BTree<i64, Vec<i64>> = BTree::with_fanout(4);
        for i in 0..100i64 {
            t.insert(i, vec![i]);
        }
        t.get_mut(&37).unwrap().push(-1);
        assert_eq!(t.get(&37), Some(&vec![37, -1]));
        assert_eq!(t.get(&36), Some(&vec![36]));
        assert!(t.get_mut(&1000).is_none());
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn random_inserts_stay_sorted() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut keys: Vec<i64> = (0..5_000).collect();
        keys.shuffle(&mut rng);
        let mut t = BTree::with_fanout(8);
        for &k in &keys {
            t.insert(k, k);
        }
        let all = t.iter_all();
        assert_eq!(all.len(), 5_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(t.depth() >= 4, "fanout-8 tree of 5000 should be deep");
    }

    #[test]
    fn range_scan() {
        let mut t = BTree::with_fanout(6);
        for i in (0..1000i64).step_by(2) {
            t.insert(i, i);
        }
        let r = t.range(&10, &20);
        assert_eq!(
            r.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18, 20]
        );
        assert!(t.range(&21, &20).is_empty());
        // unbounded-ish range
        assert_eq!(t.range(&-100, &10_000).len(), 500);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut t = BTree::with_fanout(4);
        for i in 0..200i64 {
            t.insert(i, i);
        }
        for i in (0..200i64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&4), None);
        assert_eq!(t.get(&5), Some(&5));
        t.insert(4, 44);
        assert_eq!(t.get(&4), Some(&44));
        assert_eq!(t.remove(&4000), None);
    }

    #[test]
    fn lookup_cost_equals_depth() {
        let mut t = BTree::with_fanout(4);
        for i in 0..1_000i64 {
            t.insert(i, i);
        }
        let (v, cost) = t.get_with_cost(&512);
        assert_eq!(v, Some(&512));
        assert_eq!(cost, t.depth());
    }

    #[test]
    fn bulk_load_validates_order() {
        let ok = BTree::bulk_load(vec![(1, 1), (2, 2), (3, 3)], 4).unwrap();
        assert_eq!(ok.len(), 3);
        assert!(BTree::bulk_load(vec![(2, 2), (1, 1)], 4).is_err());
        assert!(BTree::bulk_load(vec![(1, 1), (1, 2)], 4).is_err());
    }

    #[test]
    fn range_cursor_matches_range() {
        let mut t = BTree::with_fanout(6);
        for i in (0..1000i64).step_by(2) {
            t.insert(i, i * 3);
        }
        for (lo, hi) in [(10, 20), (-5, 3), (999, 2000), (500, 499), (0, 998)] {
            let want = t.range(&lo, &hi);
            let mut cur = t.range_cursor(&lo, &hi);
            let mut got = Vec::new();
            // odd chunk size to exercise mid-leaf resumption
            while cur.next_chunk(7, &mut got) > 0 {}
            assert!(cur.is_exhausted() || got.len() == want.len());
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn range_cursor_on_empty_tree() {
        let t: BTree<i64, i64> = BTree::new();
        let mut cur = t.range_cursor(&0, &100);
        let mut got = Vec::new();
        assert_eq!(cur.next_chunk(16, &mut got), 0);
        assert!(got.is_empty());
    }

    #[test]
    fn size_bytes_grows_with_content() {
        let mut t = BTree::with_fanout(16);
        let empty = t.size_bytes();
        for i in 0..10_000i64 {
            t.insert(i, i);
        }
        assert!(t.size_bytes() > empty);
        assert!(t.size_bytes() >= 10_000 * 16);
    }
}
