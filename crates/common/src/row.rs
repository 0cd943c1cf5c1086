//! Rows: the unit of data flowing through the executor.

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;

/// A single tuple of values, positionally aligned with a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Project a subset of values by column index.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Extract the named columns as an f64 feature vector (for ML
    /// components consuming relational data).
    pub fn features(&self, schema: &Schema, names: &[&str]) -> Result<Vec<f64>> {
        names
            .iter()
            .map(|n| {
                let idx = schema.index_of(n)?;
                self.values[idx].as_f64()
            })
            .collect()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn project_picks_values_by_index() {
        let j = Row::new(vec![Value::Int(1), Value::Int(2), Value::Text("x".into())]);
        let p = j.project(&[2, 0]);
        assert_eq!(p.values()[0], Value::Text("x".into()));
        assert_eq!(p.values()[1], Value::Int(1));
    }

    #[test]
    fn features_extracts_numeric_columns() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]);
        let r = Row::new(vec![Value::Int(3), Value::Float(0.5)]);
        assert_eq!(r.features(&s, &["b", "a"]).unwrap(), vec![0.5, 3.0]);
        assert!(r.features(&s, &["zzz"]).is_err());
    }

    #[test]
    fn display_is_tuple_like() {
        let r = Row::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(r.to_string(), "(1, NULL)");
    }
}
