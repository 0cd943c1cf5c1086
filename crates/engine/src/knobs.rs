//! Tunable system knobs — the configuration space of the knob-tuning
//! experiment (E1).
//!
//! Mirrors the knob classes the tutorial names (memory allocation, I/O
//! control, logging, parallelism): each knob has a legal range and a
//! default, and the set is introspectable so tuners can enumerate the
//! space without hard-coding names.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use aimdb_common::{AimError, LockRank, Result, Value};

/// Description of one knob.
#[derive(Debug, Clone)]
pub struct KnobSpec {
    pub name: &'static str,
    pub min: i64,
    pub max: i64,
    pub default: i64,
    pub description: &'static str,
}

/// The knob space. All knobs are integer-valued (booleans are 0/1).
pub const KNOB_SPECS: &[KnobSpec] = &[
    KnobSpec {
        name: "buffer_pool_pages",
        min: 1,
        max: 16384,
        default: 256,
        description: "pages cached by the buffer pool",
    },
    KnobSpec {
        name: "work_mem_kb",
        min: 64,
        max: 65536,
        default: 4096,
        description: "per-operator memory before spilling (sorts, hashes)",
    },
    KnobSpec {
        name: "max_connections",
        min: 1,
        max: 4096,
        default: 100,
        description: "concurrent session limit enforced by the server's admission gate",
    },
    KnobSpec {
        name: "admission_max_statements",
        min: 1,
        max: 4096,
        default: 64,
        description: "statements allowed in the engine at once; excess queues then sheds",
    },
    KnobSpec {
        name: "admission_queue_timeout_ms",
        min: 0,
        max: 10_000,
        default: 100,
        description: "milliseconds a statement may wait at the admission gate before it is \
                      rejected instead of queued",
    },
    KnobSpec {
        name: "wal_sync",
        min: 0,
        max: 1,
        default: 1,
        description: "synchronous WAL flush on commit (durability vs speed)",
    },
    KnobSpec {
        name: "checkpoint_interval",
        min: 16,
        max: 16384,
        default: 1024,
        description: "WAL records between checkpoints",
    },
    KnobSpec {
        name: "exec_parallelism",
        min: 0,
        max: 64,
        default: 0,
        description:
            "morsel worker threads for parallel scans (0 = all available cores, 1 = serial)",
    },
    KnobSpec {
        name: "group_commit_window",
        min: 0,
        max: 10_000,
        default: 0,
        description:
            "microseconds a group-commit leader waits for followers before the shared WAL flush",
    },
    KnobSpec {
        name: "query_tracing",
        min: 0,
        max: 1,
        default: 1,
        description: "record per-query lifecycle traces and operator profiles (0 = off)",
    },
    KnobSpec {
        name: "slow_query_cost_threshold",
        min: 1,
        max: 1_000_000_000,
        default: 100_000,
        description: "cost units at which a traced query is written to the slow-query log",
    },
];

/// Live knob values.
pub struct Knobs {
    values: RwLock<BTreeMap<&'static str, i64>>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs::new()
    }
}

impl Knobs {
    pub fn new() -> Self {
        Knobs {
            values: RwLock::with_rank(
                KNOB_SPECS.iter().map(|s| (s.name, s.default)).collect(),
                LockRank::Knobs,
            ),
        }
    }

    pub fn spec(name: &str) -> Option<&'static KnobSpec> {
        KNOB_SPECS
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// [`Knobs::spec`], with an unknown name as the `not_found` error
    /// every knob read and write reports.
    pub fn lookup(name: &str) -> Result<&'static KnobSpec> {
        Self::spec(name).ok_or_else(|| AimError::NotFound(format!("knob {name}")))
    }

    pub fn get(&self, name: &str) -> Result<i64> {
        let spec = Self::lookup(name)?;
        self.values
            .read()
            .get(spec.name)
            .copied()
            .ok_or_else(|| AimError::NotFound(format!("knob {name} has no value")))
    }

    /// Set a knob, clamping into its legal range. Returns the applied value.
    pub fn set(&self, name: &str, value: &Value) -> Result<i64> {
        let spec = Self::lookup(name)?;
        let v = value.as_i64()?.clamp(spec.min, spec.max);
        self.values.write().insert(spec.name, v);
        Ok(v)
    }

    /// All current values in a stable order.
    pub fn snapshot(&self) -> Vec<(&'static str, i64)> {
        self.values.read().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Reset every knob to its default.
    pub fn reset(&self) {
        let mut vals = self.values.write();
        for s in KNOB_SPECS {
            vals.insert(s.name, s.default);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_get() {
        let k = Knobs::new();
        assert_eq!(k.get("buffer_pool_pages").unwrap(), 256);
        assert_eq!(k.get("WAL_SYNC").unwrap(), 1);
        assert!(k.get("nonexistent").is_err());
    }

    #[test]
    fn set_clamps_to_range() {
        let k = Knobs::new();
        assert_eq!(
            k.set("buffer_pool_pages", &Value::Int(1_000_000)).unwrap(),
            16384
        );
        assert_eq!(k.set("buffer_pool_pages", &Value::Int(-5)).unwrap(), 1);
        assert_eq!(k.get("buffer_pool_pages").unwrap(), 1);
        assert!(k.set("wal_sync", &Value::Text("yes".into())).is_err());
    }

    #[test]
    fn snapshot_and_reset() {
        let k = Knobs::new();
        k.set("work_mem_kb", &Value::Int(128)).unwrap();
        let snap = k.snapshot();
        assert_eq!(snap.len(), KNOB_SPECS.len());
        assert!(snap.iter().any(|&(n, v)| n == "work_mem_kb" && v == 128));
        k.reset();
        assert_eq!(k.get("work_mem_kb").unwrap(), 4096);
    }

    #[test]
    fn specs_are_well_formed() {
        for s in KNOB_SPECS {
            assert!(s.min <= s.default && s.default <= s.max, "{}", s.name);
            assert!(!s.description.is_empty());
        }
    }
}
