//! SQL values and their type system.
//!
//! `Value` is the runtime representation flowing through the executor,
//! indexes and learned components. Floats are totally ordered via IEEE-754
//! `total_cmp` so values can live in B+trees and sort operators without a
//! partial-order escape hatch.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{AimError, Result};

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a type name as written in SQL DDL (case-insensitive).
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => Ok(DataType::Text),
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            other => Err(AimError::Parse(format!("unknown type {other}"))),
        }
    }
}

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Value {
    /// The value's data type, or `None` for SQL NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic, statistics and feature extraction.
    /// Ints widen to f64; bools map to 0/1; NULL and text are errors.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(AimError::TypeMismatch(format!(
                "expected numeric value, got {other}"
            ))),
        }
    }

    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(AimError::TypeMismatch(format!(
                "expected integer value, got {other}"
            ))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(AimError::TypeMismatch(format!(
                "expected boolean value, got {other}"
            ))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(AimError::TypeMismatch(format!(
                "expected text value, got {other}"
            ))),
        }
    }

    /// Coerce into `target` where SQL allows it (int<->float, anything from
    /// NULL stays NULL). Used when inserting literals into typed columns.
    pub fn coerce(self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), DataType::Int) => Ok(v),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (v @ Value::Float(_), DataType::Float) => Ok(v),
            (Value::Float(f), DataType::Int) => Ok(Value::Int(f as i64)),
            (v @ Value::Text(_), DataType::Text) => Ok(v),
            (v @ Value::Bool(_), DataType::Bool) => Ok(v),
            (v, t) => Err(AimError::TypeMismatch(format!("cannot coerce {v} to {t}"))),
        }
    }

    /// SQL three-valued comparison: NULL compares as unknown (`None`).
    /// Numeric types compare cross-type; other cross-type pairs are `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Total order used by indexes and sort operators: NULL sorts first, then
/// numerics (cross-type), booleans, text. This is a storage order, distinct
/// from SQL's three-valued `sql_cmp`.
impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Ints and equal-valued floats must hash identically because
            // Ord/Eq treat them as equal (Int(2) == Float(2.0)).
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Bool(b) => {
                2u8.hash(state);
                b.hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn storage_order_null_first() {
        let mut vs = [Value::Int(3), Value::Null, Value::Text("a".into())];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert!(matches!(vs[1], Value::Int(3)));
    }

    #[test]
    fn coerce_int_to_float() {
        assert_eq!(
            Value::Int(3).coerce(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::Text("x".into()).coerce(DataType::Int).is_err());
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan.cmp(&Value::Float(1.0)), Ordering::Greater);
    }

    #[test]
    fn parse_type_names() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Text);
        assert_eq!(DataType::parse("INTEGER").unwrap(), DataType::Int);
        assert!(DataType::parse("BLOB").is_err());
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert_eq!(Value::Int(-4).as_f64().unwrap(), -4.0);
        assert!(Value::Text("x".into()).as_f64().is_err());
        assert!(Value::Null.as_f64().is_err());
    }
}
