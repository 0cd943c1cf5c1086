//! Statement fingerprints and the per-fingerprint statistics store.
//!
//! A fingerprint identifies a statement *shape*: the SQL text with every
//! literal replaced by a placeholder, whitespace collapsed, and keywords
//! case-folded. `INSERT INTO t VALUES (1, 'a')` and
//! `INSERT INTO t VALUES (2, 'b')` share a fingerprint; `SELECT a FROM t`
//! and `SELECT b FROM t` do not. The workload-as-fingerprints view is the
//! input representation self-driving components consume: the monitor
//! (E11) reads per-shape latency tails and wait profiles, and the knob
//! tuner's objective penalizes tail regressions per shape rather than on
//! the blended average.
//!
//! The store is bounded: at most [`StatementStore::DEFAULT_CAPACITY`]
//! distinct shapes are tracked, evicting the least-called entry when a
//! new shape arrives at capacity (workloads are Zipfian; the tail of
//! one-off shapes is the part that is safe to forget).

use std::collections::HashMap;

use parking_lot::Mutex;

use aimdb_common::{LockRank, WaitSet};
use aimdb_trace::{Histogram, HistogramSnapshot};

/// Normalize SQL into its shape: literals become `?`, whitespace
/// collapses to single spaces, and text outside string literals is
/// lowercased. Deterministic and allocation-light (one output String).
pub fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut pending_space = false;
    // emit one pending space before the next token, collapsing runs
    macro_rules! flush_space {
        () => {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            pending_space = true;
            i += 1;
            continue;
        }
        if c == '\'' {
            // string literal: skip to the closing quote ('' escapes)
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\'' {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
            flush_space!();
            out.push('?');
            continue;
        }
        if c.is_ascii_digit()
            || ((c == '-' || c == '+')
                && i + 1 < bytes.len()
                && bytes[i + 1].is_ascii_digit()
                && ends_in_operand_position(&out))
        {
            // numeric literal: sign (when not a binary operator), digits,
            // optional fraction/exponent
            i += 1;
            while i < bytes.len() {
                let d = bytes[i] as char;
                let exp_sign = (d == '-' || d == '+')
                    && i > 0
                    && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E');
                if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' || exp_sign {
                    i += 1;
                } else {
                    break;
                }
            }
            flush_space!();
            out.push('?');
            continue;
        }
        if c.is_ascii_alphanumeric() || c == '_' {
            // identifier / keyword: case-fold
            flush_space!();
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_alphanumeric() || d == '_' {
                    out.push(d.to_ascii_lowercase());
                    i += 1;
                } else {
                    break;
                }
            }
            continue;
        }
        // punctuation / operators pass through verbatim
        flush_space!();
        out.push(c);
        i += 1;
    }
    out
}

/// After this prefix, is `-`/`+` a sign (operand position) rather than a
/// binary operator? True after `(`, `,`, `=`, comparison operators,
/// arithmetic operators, or at the very start — conservative enough that
/// `a - 1` keeps its operator while `(-1)` and `= -1` fold the sign into
/// the literal. Either way the literal digits become `?`, so a
/// misclassified sign changes the shape only between two *sign* spellings
/// of the same query, never between distinct statements.
fn ends_in_operand_position(out: &str) -> bool {
    match out.trim_end().chars().last() {
        None => true,
        Some(c) => matches!(c, '(' | ',' | '=' | '<' | '>' | '+' | '-' | '*' | '/'),
    }
}

/// 64-bit FNV-1a over the normalized statement text: stable across runs
/// and platforms (no `RandomState`), cheap, and collision-resistant
/// enough for workload-shape cardinalities (hundreds of shapes).
pub fn fingerprint(sql: &str) -> u64 {
    hash_shape(&normalize(sql))
}

/// The fingerprint of text [`normalize`] already produced, for a caller
/// that keeps the shape as well as its hash.
pub(crate) fn hash_shape(normalized: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in normalized.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Aggregated statistics for one statement shape.
#[derive(Debug, Clone)]
pub struct StatementStat {
    /// The shape's fingerprint (FNV-1a of the normalized text).
    pub fingerprint: u64,
    /// The normalized statement text (first-seen spelling, literals
    /// already replaced by `?`).
    pub normalized: String,
    pub calls: u64,
    pub errors: u64,
    pub rows: u64,
    /// Total optimizer cost units charged across calls.
    pub cost_units: f64,
    /// Total wall nanoseconds across calls.
    pub total_ns: u64,
    /// Latency distribution across calls, in nanoseconds (the
    /// log-linear histogram has no sub-1.0 resolution, so seconds
    /// would flatten every sub-second statement into one bucket).
    pub latency: HistogramSnapshot,
    /// Blocked time by wait class, summed across calls.
    pub waits: WaitSet,
}

impl StatementStat {
    /// Mean latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.total_ns as f64 / 1e9) / self.calls as f64
        }
    }
}

struct Entry {
    normalized: String,
    calls: u64,
    errors: u64,
    rows: u64,
    cost_units: f64,
    total_ns: u64,
    latency: Histogram,
    waits: WaitSet,
}

/// Bounded, lock-ranked store of per-fingerprint statement statistics.
pub struct StatementStore {
    inner: Mutex<HashMap<u64, Entry>>,
    capacity: usize,
}

impl StatementStore {
    /// Distinct shapes tracked before least-called eviction kicks in.
    pub const DEFAULT_CAPACITY: usize = 512;

    pub fn new(capacity: usize) -> Self {
        StatementStore {
            inner: Mutex::with_rank(HashMap::new(), LockRank::StatementStats),
            capacity: capacity.max(1),
        }
    }

    /// Record one finished statement under its shape. `normalized` is
    /// stored on first sight; later calls only bump counters.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &self,
        fp: u64,
        normalized: &str,
        elapsed_ns: u64,
        rows: u64,
        cost_units: f64,
        waits: &WaitSet,
        error: bool,
    ) {
        let mut g = self.inner.lock();
        if !g.contains_key(&fp) && g.len() >= self.capacity {
            // evict the least-called shape (ties: smaller fingerprint) so
            // hot shapes survive Zipfian churn
            if let Some(&victim) = g.iter().min_by_key(|(k, e)| (e.calls, **k)).map(|(k, _)| k) {
                g.remove(&victim);
            }
        }
        let e = g.entry(fp).or_insert_with(|| Entry {
            normalized: normalized.to_string(),
            calls: 0,
            errors: 0,
            rows: 0,
            cost_units: 0.0,
            total_ns: 0,
            latency: Histogram::new(),
            waits: WaitSet::default(),
        });
        e.calls += 1;
        if error {
            e.errors += 1;
        }
        e.rows += rows;
        e.cost_units += cost_units;
        e.total_ns += elapsed_ns;
        e.latency.record(elapsed_ns as f64);
        e.waits.merge(waits);
    }

    /// Distinct shapes currently tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every tracked shape, most-called first (ties: by
    /// fingerprint, so the order is deterministic).
    pub fn snapshot(&self) -> Vec<StatementStat> {
        let g = self.inner.lock();
        let mut out: Vec<StatementStat> = g
            .iter()
            .map(|(&fp, e)| StatementStat {
                fingerprint: fp,
                normalized: e.normalized.clone(),
                calls: e.calls,
                errors: e.errors,
                rows: e.rows,
                cost_units: e.cost_units,
                total_ns: e.total_ns,
                latency: e.latency.snapshot(),
                waits: e.waits,
            })
            .collect();
        drop(g);
        out.sort_by(|a, b| {
            b.calls
                .cmp(&a.calls)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }
}

impl Default for StatementStore {
    fn default() -> Self {
        StatementStore::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_normalize_away() {
        let a = normalize("SELECT * FROM t WHERE id = 42 AND name = 'bob'");
        let b = normalize("select *  from T where ID=7 and name='alice'");
        assert_eq!(a, "select * from t where id = ? and name = ?");
        // spacing around `=` differs between the spellings, but the
        // token stream (and thus the fingerprint input) is whitespace-
        // collapsed the same way literals are folded
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE id = 42 AND name = 'bob'"),
            fingerprint("SELECT * FROM t WHERE id = 77 AND name = 'x''y'"),
        );
        assert_eq!(b, "select * from t where id=? and name=?");
    }

    #[test]
    fn distinct_shapes_do_not_collide() {
        let shapes = [
            "SELECT a FROM t",
            "SELECT b FROM t",
            "SELECT a FROM u",
            "SELECT a, b FROM t",
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET a = 1 WHERE b = 2",
            "DELETE FROM t WHERE a = 1",
        ];
        let mut fps: Vec<u64> = shapes.iter().map(|s| fingerprint(s)).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), shapes.len());
    }

    #[test]
    fn numeric_and_negative_literals_fold() {
        assert_eq!(
            normalize("SELECT x FROM t WHERE a = -3.5e-2 AND b = +7"),
            "select x from t where a = ? and b = ?"
        );
        // binary minus between identifiers survives
        assert_eq!(normalize("SELECT a - b FROM t"), "select a - b from t");
        // ...but a sign after a comparison folds into the literal
        assert_eq!(
            normalize("SELECT a FROM t WHERE a > -5"),
            "select a from t where a > ?"
        );
    }

    #[test]
    fn store_is_bounded_and_evicts_least_called() {
        let store = StatementStore::new(3);
        // hot shape observed many times
        for _ in 0..10 {
            store.observe(1, "hot", 1_000, 1, 1.0, &WaitSet::default(), false);
        }
        store.observe(2, "warm", 1_000, 1, 1.0, &WaitSet::default(), false);
        store.observe(2, "warm", 1_000, 1, 1.0, &WaitSet::default(), false);
        store.observe(3, "cold", 1_000, 1, 1.0, &WaitSet::default(), false);
        assert_eq!(store.len(), 3);
        // a new shape evicts the least-called (fp 3)
        store.observe(4, "new", 1_000, 1, 1.0, &WaitSet::default(), false);
        assert_eq!(store.len(), 3);
        let snap = store.snapshot();
        let fps: Vec<u64> = snap.iter().map(|s| s.fingerprint).collect();
        assert_eq!(fps, vec![1, 2, 4], "most-called first, cold evicted");
        assert_eq!(snap[0].calls, 10);
    }

    #[test]
    fn snapshot_carries_quantiles_and_waits() {
        let store = StatementStore::new(8);
        let mut w = WaitSet::default();
        w.add(aimdb_common::WaitClass::WalFsync, 500, 1);
        for i in 1..=100u64 {
            store.observe(9, "q", i * 1_000_000, 2, 0.5, &w, i % 10 == 0);
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.calls, 100);
        assert_eq!(s.errors, 10);
        assert_eq!(s.rows, 200);
        assert_eq!(
            s.waits.get(aimdb_common::WaitClass::WalFsync),
            (50_000, 100)
        );
        // p50 of 1..=100 ms (in ns) is ~50ms within histogram bracket error
        let p50 = s.latency.p50;
        assert!((4.0e7..=6.0e7).contains(&p50), "p50 {p50}");
        assert_eq!(s.latency.count, 100);
        assert!(s.mean_latency_secs() > 0.0);
    }
}
