//! Columnar batches: the unit of data flowing through the vectorized
//! executor.
//!
//! A [`Batch`] is a fixed-capacity slice of rows stored column-wise.
//! Each column is a [`ColVec`]: a typed [`Lane`] of `i64`/`f64`/`bool`/
//! `String` values, or a `Mixed` vector of [`Value`]s when the column's
//! contents don't fit a single machine type. A lane holds a value for
//! every row, a NULL row's being `T::default()`, and marks which rows
//! are NULL; how it marks them (one `bool` per row) is private to this
//! module, so kernels elsewhere read lanes only through [`Lane`]'s
//! methods and a change of null format is a change to this file.
//! Predicates produce *selection vectors* (`Vec<u32>` of row indices
//! into the batch); operators apply them with [`Batch::gather`] so
//! downstream operators always see dense batches.

use std::borrow::Cow;

use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Number of rows per batch pulled through the vectorized pipeline.
/// `Database` always runs its plans at this size.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// One typed column: a value per row and which rows are NULL. A NULL
/// row's value is a placeholder, `T::default()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane<T> {
    vals: Vec<T>,
    nulls: Vec<bool>,
}

impl<T> Lane<T> {
    /// An empty lane with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> Lane<T> {
        Lane {
            vals: Vec::with_capacity(cap),
            nulls: Vec::with_capacity(cap),
        }
    }

    /// A lane of `vals` with no NULL row.
    pub fn from_vals(vals: Vec<T>) -> Lane<T> {
        let nulls = vec![false; vals.len()];
        Lane { vals, nulls }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls[i]
    }

    /// Every row's value, a NULL row's placeholder included: for
    /// kernels that have already checked the row is not NULL.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The rows in order, `None` for NULL.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Option<&T>> + '_ {
        self.vals
            .iter()
            .zip(&self.nulls)
            .map(|(v, &null)| (!null).then_some(v))
    }

    /// Append a non-NULL row.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.vals.push(v);
        self.nulls.push(false);
    }

    #[inline]
    pub fn clear(&mut self) {
        self.vals.clear();
        self.nulls.clear();
    }

    /// Append `other`'s rows after this lane's.
    pub fn append(&mut self, other: Lane<T>) {
        self.vals.extend(other.vals);
        self.nulls.extend(other.nulls);
    }

    /// `f` of every row's value, placeholders included, with the same
    /// NULL rows.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Lane<U> {
        Lane {
            vals: self.vals.iter().map(f).collect(),
            nulls: self.nulls.clone(),
        }
    }

    /// Row by row, NULL if either side is NULL, otherwise `f(a, b)`; the
    /// first error `f` returns is the result.
    pub fn zip<U, R: Default>(
        &self,
        other: &Lane<U>,
        mut f: impl FnMut(&T, &U) -> crate::error::Result<R>,
    ) -> crate::error::Result<Lane<R>> {
        debug_assert_eq!(self.len(), other.len());
        let mut out = Lane::with_capacity(self.len());
        for (a, b) in self.iter().zip(other.iter()) {
            match (a, b) {
                (Some(a), Some(b)) => out.push(f(a, b)?),
                _ => out.push_null(),
            }
        }
        Ok(out)
    }
}

impl<T: Default> Lane<T> {
    /// Append a NULL row.
    #[inline]
    pub fn push_null(&mut self) {
        self.vals.push(T::default());
        self.nulls.push(true);
    }
}

impl<T: Clone> Lane<T> {
    /// Copy out the rows named by a selection vector, in order.
    pub fn gather(&self, sel: &[u32]) -> Lane<T> {
        Lane {
            vals: sel.iter().map(|&i| self.vals[i as usize].clone()).collect(),
            nulls: sel.iter().map(|&i| self.nulls[i as usize]).collect(),
        }
    }

    /// Row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value
    where
        T: Into<Value>,
    {
        if self.nulls[i] {
            Value::Null
        } else {
            self.vals[i].clone().into()
        }
    }
}

/// A lane of the rows in order, `None` for NULL.
impl<T: Default> FromIterator<Option<T>> for Lane<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(rows: I) -> Lane<T> {
        let rows = rows.into_iter();
        let mut lane = Lane::with_capacity(rows.size_hint().0);
        for v in rows {
            match v {
                Some(v) => lane.push(v),
                None => lane.push_null(),
            }
        }
        lane
    }
}

/// One column of a [`Batch`]: a typed [`Lane`], or a fallback vector of
/// dynamic [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum ColVec {
    Int(Lane<i64>),
    Float(Lane<f64>),
    Bool(Lane<bool>),
    Text(Lane<String>),
    /// Heterogeneous or untyped column; `Value::Null` marks nulls.
    Mixed(Vec<Value>),
}

/// `match` a column with one arm for its lane, whichever of the four
/// typed variants it is (`$lane` binds the `Lane<T>`), and one for a
/// `Mixed` column (`$vals` binds its values).
macro_rules! on_lane {
    ($col:expr, $lane:ident => $typed:expr, $vals:ident => $mixed:expr) => {
        match $col {
            ColVec::Int($lane) => $typed,
            ColVec::Float($lane) => $typed,
            ColVec::Bool($lane) => $typed,
            ColVec::Text($lane) => $typed,
            ColVec::Mixed($vals) => $mixed,
        }
    };
}

impl ColVec {
    /// Number of rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        on_lane!(self, l => l.len(), vals => vals.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        on_lane!(self, l => l.is_null(i), vals => vals[i].is_null())
    }

    /// Materialize row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        on_lane!(self, l => l.value(i), vals => vals[i].clone())
    }

    /// Build a column from dynamic values, sniffing a uniform machine
    /// type so downstream kernels get a fast path. Falls back to
    /// `Mixed` on heterogeneous input.
    pub fn from_values(values: Vec<Value>) -> ColVec {
        let mut ty: Option<DataType> = None;
        for v in &values {
            match v.data_type() {
                None => {}
                Some(t) => match ty {
                    None => ty = Some(t),
                    Some(prev) if prev == t => {}
                    Some(_) => return ColVec::Mixed(values),
                },
            }
        }
        match ty {
            Some(t) => Self::typed_from_values(t, values).unwrap_or_else(ColVec::Mixed),
            // all-NULL column: keep it Mixed (no type information)
            None => ColVec::Mixed(values),
        }
    }

    /// Build a typed column from values that must all be `ty` or NULL.
    /// Returns the input back on any mismatch so the caller can fall
    /// back to `Mixed`.
    fn typed_from_values(ty: DataType, values: Vec<Value>) -> Result<ColVec, Vec<Value>> {
        /// The lane of `values` if `get` takes every one that is not NULL.
        fn lane<T: Default>(
            values: &[Value],
            get: impl Fn(&Value) -> Option<T>,
        ) -> Option<Lane<T>> {
            let mut lane = Lane::with_capacity(values.len());
            for v in values {
                match get(v) {
                    Some(x) => lane.push(x),
                    None if v.is_null() => lane.push_null(),
                    None => return None,
                }
            }
            Some(lane)
        }
        let col = match ty {
            DataType::Int => lane(&values, |v| match v {
                Value::Int(x) => Some(*x),
                _ => None,
            })
            .map(ColVec::Int),
            DataType::Float => lane(&values, |v| match v {
                Value::Float(x) => Some(*x),
                _ => None,
            })
            .map(ColVec::Float),
            DataType::Bool => lane(&values, |v| match v {
                Value::Bool(x) => Some(*x),
                _ => None,
            })
            .map(ColVec::Bool),
            DataType::Text => lane(&values, |v| match v {
                Value::Text(s) => Some(s.clone()),
                _ => None,
            })
            .map(ColVec::Text),
        };
        col.ok_or(values)
    }

    /// An empty typed column with room for `cap` rows. Used by scan
    /// decoders that append values straight into column storage.
    pub fn with_capacity(ty: DataType, cap: usize) -> ColVec {
        match ty {
            DataType::Int => ColVec::Int(Lane::with_capacity(cap)),
            DataType::Float => ColVec::Float(Lane::with_capacity(cap)),
            DataType::Bool => ColVec::Bool(Lane::with_capacity(cap)),
            DataType::Text => ColVec::Text(Lane::with_capacity(cap)),
        }
    }

    /// Rewrite `self` as a `Mixed` column (materializing current lanes)
    /// and return its value vector. Called when a pushed value doesn't
    /// match the column's machine type.
    fn demote(&mut self) -> &mut Vec<Value> {
        if !matches!(self, ColVec::Mixed(_)) {
            let vals: Vec<Value> = (0..self.len()).map(|i| self.value(i)).collect();
            *self = ColVec::Mixed(vals);
        }
        match self {
            ColVec::Mixed(vals) => vals,
            _ => unreachable!("demote just rewrote self as Mixed"),
        }
    }

    /// Append `v` to a column whose lanes are not of its type: `Mixed`
    /// takes it as it is, a typed column demotes first. Out of line, so
    /// the typed `push_*` stay small enough to inline at every call site.
    #[cold]
    #[inline(never)]
    fn push_mismatched(&mut self, v: Value) {
        self.demote().push(v);
    }

    /// Append a NULL row.
    #[inline]
    pub fn push_null(&mut self) {
        on_lane!(self, l => l.push_null(), vals => vals.push(Value::Null))
    }

    /// Append an integer; demotes to `Mixed` if the column is a
    /// different machine type.
    #[inline]
    pub fn push_int(&mut self, x: i64) {
        match self {
            ColVec::Int(l) => l.push(x),
            other => other.push_mismatched(Value::Int(x)),
        }
    }

    /// Append a float; demotes to `Mixed` on type mismatch.
    #[inline]
    pub fn push_float(&mut self, x: f64) {
        match self {
            ColVec::Float(l) => l.push(x),
            other => other.push_mismatched(Value::Float(x)),
        }
    }

    /// Append a bool; demotes to `Mixed` on type mismatch.
    #[inline]
    pub fn push_bool(&mut self, x: bool) {
        match self {
            ColVec::Bool(l) => l.push(x),
            other => other.push_mismatched(Value::Bool(x)),
        }
    }

    /// Append a text value; demotes to `Mixed` on type mismatch.
    #[inline]
    pub fn push_text(&mut self, s: String) {
        match self {
            ColVec::Text(l) => l.push(s),
            other => other.push_mismatched(Value::Text(s)),
        }
    }

    /// Remove all rows, keeping the column's type and capacity.
    #[inline]
    pub fn clear(&mut self) {
        on_lane!(self, l => l.clear(), vals => vals.clear())
    }

    /// The column as one `f64` lane per row — the numeric view of
    /// [`Value::as_f64`] taken a column at a time: `Float` lanes are
    /// borrowed, `Int` lanes widen, `Bool` lanes map to 0/1. A NULL or
    /// text lane is the same type error `as_f64` reports for that value.
    pub fn f64_lane(&self) -> crate::error::Result<Cow<'_, [f64]>> {
        fn no_nulls<T>(l: &Lane<T>) -> crate::error::Result<&[T]> {
            if l.nulls.contains(&true) {
                Value::Null.as_f64()?;
            }
            Ok(&l.vals)
        }
        match self {
            ColVec::Float(l) => Ok(Cow::Borrowed(no_nulls(l)?)),
            ColVec::Int(l) => Ok(Cow::Owned(no_nulls(l)?.iter().map(|&v| v as f64).collect())),
            ColVec::Bool(l) => Ok(Cow::Owned(
                no_nulls(l)?
                    .iter()
                    .map(|&b| if b { 1.0 } else { 0.0 })
                    .collect(),
            )),
            ColVec::Text(_) | ColVec::Mixed(_) => (0..self.len())
                .map(|i| self.value(i).as_f64())
                .collect::<crate::error::Result<Vec<f64>>>()
                .map(Cow::Owned),
        }
    }

    /// Append `other`'s rows after this column's. Same-variant columns
    /// extend their lanes; a variant mismatch demotes to `Mixed`. An
    /// empty column takes `other`'s variant.
    pub fn append(&mut self, other: ColVec) {
        if self.is_empty() {
            *self = other;
            return;
        }
        match (self, other) {
            (ColVec::Int(l), ColVec::Int(o)) => l.append(o),
            (ColVec::Float(l), ColVec::Float(o)) => l.append(o),
            (ColVec::Bool(l), ColVec::Bool(o)) => l.append(o),
            (ColVec::Text(l), ColVec::Text(o)) => l.append(o),
            (_, other) if other.is_empty() => {}
            (this, ColVec::Mixed(v)) => this.demote().extend(v),
            (this, other) => {
                let vals = this.demote();
                vals.extend((0..other.len()).map(|i| other.value(i)));
            }
        }
    }

    /// Copy out the rows named by a selection vector, in order.
    pub fn gather(&self, sel: &[u32]) -> ColVec {
        match self {
            ColVec::Int(l) => ColVec::Int(l.gather(sel)),
            ColVec::Float(l) => ColVec::Float(l.gather(sel)),
            ColVec::Bool(l) => ColVec::Bool(l.gather(sel)),
            ColVec::Text(l) => ColVec::Text(l.gather(sel)),
            ColVec::Mixed(vals) => {
                ColVec::Mixed(sel.iter().map(|&i| vals[i as usize].clone()).collect())
            }
        }
    }
}

/// A column-oriented slice of rows flowing between vectorized
/// operators. All columns have the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    cols: Vec<ColVec>,
    len: usize,
}

impl Batch {
    /// Build an empty batch with `ncols` zero-length columns.
    pub fn empty(ncols: usize) -> Batch {
        Batch {
            cols: (0..ncols).map(|_| ColVec::Mixed(Vec::new())).collect(),
            len: 0,
        }
    }

    /// Assemble a batch from pre-built columns. All columns must share
    /// `len` — callers construct columns from the same row set, so this
    /// is a wiring invariant, not a data-dependent condition.
    pub fn from_cols(cols: Vec<ColVec>, len: usize) -> Batch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Batch { cols, len }
    }

    /// Columnarize a row slice, using the schema's declared types to
    /// pick typed vectors (mixed fallback per column on mismatch).
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Batch {
        let ncols = schema.columns().len();
        let mut cols = Vec::with_capacity(ncols);
        for (ci, col) in schema.columns().iter().enumerate() {
            let values: Vec<Value> = rows.iter().map(|r| r.get(ci).clone()).collect();
            let cv = ColVec::typed_from_values(col.data_type, values).unwrap_or_else(ColVec::Mixed);
            cols.push(cv);
        }
        Batch {
            cols,
            len: rows.len(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub fn col(&self, i: usize) -> &ColVec {
        &self.cols[i]
    }

    #[inline]
    pub fn cols(&self) -> &[ColVec] {
        &self.cols
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Materialize every row, in order.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Keep only the rows named by a selection vector, in order.
    pub fn gather(&self, sel: &[u32]) -> Batch {
        Batch {
            cols: self.cols.iter().map(|c| c.gather(sel)).collect(),
            len: sel.len(),
        }
    }

    /// Append `other`'s rows after this batch's, column by column (see
    /// [`ColVec::append`]). An empty batch takes `other`'s columns.
    pub fn append(&mut self, other: Batch) {
        if self.len == 0 {
            *self = other;
            return;
        }
        debug_assert_eq!(self.cols.len(), other.cols.len());
        for (c, o) in self.cols.iter_mut().zip(other.cols) {
            c.append(o);
        }
        self.len += other.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Text)])
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Text("x".into())]),
            Row::new(vec![Value::Null, Value::Text("y".into())]),
            Row::new(vec![Value::Int(3), Value::Null]),
        ];
        let b = Batch::from_rows(&schema(), &rows);
        assert_eq!(b.len(), 3);
        assert_eq!(b.num_cols(), 2);
        assert!(matches!(b.col(0), ColVec::Int(_)));
        assert!(matches!(b.col(1), ColVec::Text(_)));
        assert!(b.col(0).is_null(1));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn mismatched_column_falls_back_to_mixed() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Text("x".into())]),
            Row::new(vec![Value::Float(2.5), Value::Text("y".into())]),
        ];
        let b = Batch::from_rows(&schema(), &rows);
        assert!(matches!(b.col(0), ColVec::Mixed(_)));
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn gather_applies_selection() {
        let rows = vec![
            Row::new(vec![Value::Int(10), Value::Text("a".into())]),
            Row::new(vec![Value::Int(20), Value::Text("b".into())]),
            Row::new(vec![Value::Int(30), Value::Text("c".into())]),
        ];
        let b = Batch::from_rows(&schema(), &rows);
        let g = b.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), rows[2]);
        assert_eq!(g.row(1), rows[0]);
    }

    #[test]
    fn push_builds_typed_columns() {
        let mut c = ColVec::with_capacity(DataType::Int, 4);
        c.push_int(1);
        c.push_null();
        c.push_int(3);
        assert!(matches!(c, ColVec::Int(_)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.is_null(1));
        assert_eq!(c.value(2), Value::Int(3));
        c.clear();
        assert!(c.is_empty());
        assert!(matches!(c, ColVec::Int(_)), "clear keeps the type");
    }

    #[test]
    fn push_mismatch_demotes_to_mixed() {
        let mut c = ColVec::with_capacity(DataType::Int, 4);
        c.push_int(1);
        c.push_null();
        c.push_float(2.5); // wrong machine type: demote, keep data
        c.push_text("x".into());
        assert!(matches!(c, ColVec::Mixed(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Float(2.5));
        assert_eq!(c.value(3), Value::Text("x".into()));
    }

    #[test]
    fn pushed_column_matches_from_rows() {
        // the scan decoder's push path and the row-set columnarizer must
        // produce interchangeable columns
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Text("x".into())]),
            Row::new(vec![Value::Null, Value::Null]),
            Row::new(vec![Value::Int(3), Value::Text("z".into())]),
        ];
        let via_rows = Batch::from_rows(&schema(), &rows);
        let mut a = ColVec::with_capacity(DataType::Int, 3);
        let mut b = ColVec::with_capacity(DataType::Text, 3);
        a.push_int(1);
        a.push_null();
        a.push_int(3);
        b.push_text("x".into());
        b.push_null();
        b.push_text("z".into());
        let via_push = Batch::from_cols(vec![a, b], 3);
        assert_eq!(via_push, via_rows);
    }

    #[test]
    fn append_extends_typed_lanes() {
        let mut a = ColVec::from_values(vec![Value::Int(1), Value::Null]);
        a.append(ColVec::from_values(vec![Value::Int(3)]));
        assert!(matches!(a, ColVec::Int(_)));
        assert_eq!(a.len(), 3);
        assert!(a.is_null(1));
        assert_eq!(a.value(2), Value::Int(3));
        let mut t = ColVec::from_values(vec![Value::Text("x".into())]);
        t.append(ColVec::from_values(vec![
            Value::Null,
            Value::Text("y".into()),
        ]));
        assert!(matches!(t, ColVec::Text(_)));
        assert_eq!(t.value(2), Value::Text("y".into()));
    }

    #[test]
    fn append_mismatch_demotes_to_mixed() {
        // Int + Mixed, and Mixed + Int
        let mut a = ColVec::from_values(vec![Value::Int(1), Value::Null]);
        a.append(ColVec::Mixed(vec![
            Value::Float(2.5),
            Value::Text("x".into()),
        ]));
        assert!(matches!(a, ColVec::Mixed(_)));
        let want = [
            Value::Int(1),
            Value::Null,
            Value::Float(2.5),
            Value::Text("x".into()),
        ];
        assert_eq!((0..a.len()).map(|i| a.value(i)).collect::<Vec<_>>(), want);
        let mut m = ColVec::Mixed(vec![Value::Float(2.5)]);
        m.append(ColVec::from_values(vec![Value::Int(7), Value::Null]));
        assert!(matches!(m, ColVec::Mixed(_)));
        assert_eq!(m.value(1), Value::Int(7));
        assert!(m.is_null(2));
        // two typed variants meet in Mixed
        let mut f = ColVec::from_values(vec![Value::Float(0.5)]);
        f.append(ColVec::from_values(vec![Value::Int(2)]));
        assert!(matches!(f, ColVec::Mixed(_)));
        assert_eq!(f.value(1), Value::Int(2));
    }

    #[test]
    fn append_to_and_from_empty() {
        // an empty Mixed column (what `Batch::empty` holds) takes the
        // appended column's type
        let mut e = ColVec::Mixed(Vec::new());
        e.append(ColVec::from_values(vec![Value::Int(4)]));
        assert!(matches!(e, ColVec::Int(_)));
        assert_eq!(e.value(0), Value::Int(4));
        // appending an empty column of another variant changes nothing
        e.append(ColVec::Mixed(Vec::new()));
        e.append(ColVec::with_capacity(DataType::Text, 8));
        assert!(matches!(e, ColVec::Int(_)));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn batch_append_concatenates_rows() {
        let parts = [
            vec![
                Row::new(vec![Value::Int(1), Value::Text("x".into())]),
                Row::new(vec![Value::Null, Value::Text("y".into())]),
            ],
            vec![],
            vec![Row::new(vec![Value::Int(3), Value::Null])],
        ];
        let mut all = Batch::empty(2);
        for p in &parts {
            all.append(Batch::from_rows(&schema(), p));
        }
        // a Mixed part demotes its columns, rows unchanged
        let mixed = vec![Row::new(vec![Value::Float(2.5), Value::Text("z".into())])];
        all.append(Batch::from_rows(&schema(), &mixed));
        let want: Vec<Row> = parts.iter().flatten().chain(&mixed).cloned().collect();
        assert_eq!(all.len(), want.len());
        assert!(matches!(all.col(0), ColVec::Mixed(_)));
        assert!(matches!(all.col(1), ColVec::Text(_)));
        assert_eq!(all.to_rows(), want);
    }

    #[test]
    fn from_values_sniffs_types() {
        let c = ColVec::from_values(vec![Value::Int(1), Value::Null, Value::Int(2)]);
        assert!(matches!(c, ColVec::Int(_)));
        let c = ColVec::from_values(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(c, ColVec::Mixed(_)));
        let c = ColVec::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(c, ColVec::Mixed(_)));
        assert!(c.is_null(0));
    }
}
