//! Model-based property test for `ColVec`: random sequences of pushes,
//! appends, gathers, clears and `from_values` rebuilds must leave the
//! column reading exactly like a `Vec<Value>` model, row for row, and
//! typed or `Mixed` exactly when the model predicts it.

use proptest::prelude::*;

use aimdb_common::{ColVec, DataType, Value};

/// A column's kind: `Some(type)` for a typed column, `None` for `Mixed`.
type Kind = Option<DataType>;

#[derive(Debug, Clone)]
enum Op {
    /// `push_int`/`push_float`/`push_bool`/`push_text`/`push_null`,
    /// chosen by the value's variant.
    Push(Value),
    Append(Source),
    /// Row indices, taken modulo the column's length.
    Gather(Vec<usize>),
    Clear,
    /// Replace the column with `ColVec::from_values` of these values.
    FromValues(Vec<Value>),
}

/// The column appended by [`Op::Append`].
#[derive(Debug, Clone)]
enum Source {
    /// `ColVec::from_values`: typed when the values sniff to one type.
    Sniffed(Vec<Value>),
    /// `ColVec::Mixed` holding these values as they are.
    Mixed(Vec<Value>),
    /// An empty typed column, as `with_capacity` makes it.
    Empty(DataType),
}

fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Bool),
        Just(DataType::Text),
    ]
}

/// Few distinct values per type, so typed runs and type clashes both
/// happen often; floats include -0.0 and NaN, which only bit equality
/// tells apart.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        prop_oneof![Just(0.0), Just(-0.0), Just(1.5), Just(f64::NAN)].prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[ab]{0,2}".prop_map(Value::Text),
    ]
}

fn arb_values() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..6)
}

/// Values of one type and NULLs, so appends of typed columns onto typed
/// columns of the same type are common.
fn arb_uniform_values() -> impl Strategy<Value = Vec<Value>> {
    (
        arb_type(),
        prop::collection::vec((any::<bool>(), arb_value()), 0..6),
    )
        .prop_map(|(ty, vals)| {
            vals.into_iter()
                .map(|(null, v)| match (null, v.data_type()) {
                    (true, _) => Value::Null,
                    (false, Some(t)) if t == ty => v,
                    (false, _) => match ty {
                        DataType::Int => Value::Int(1),
                        DataType::Float => Value::Float(0.5),
                        DataType::Bool => Value::Bool(true),
                        DataType::Text => Value::Text("c".into()),
                    },
                })
                .collect()
        })
}

fn arb_source() -> impl Strategy<Value = Source> {
    prop_oneof![
        arb_uniform_values().prop_map(Source::Sniffed),
        arb_uniform_values().prop_map(Source::Sniffed),
        arb_values().prop_map(Source::Sniffed),
        arb_values().prop_map(Source::Mixed),
        arb_type().prop_map(Source::Empty),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // pushes four times as often as anything else
    let push = || arb_value().prop_map(Op::Push);
    prop_oneof![
        push(),
        push(),
        push(),
        push(),
        arb_source().prop_map(Op::Append),
        prop::collection::vec(any::<usize>(), 0..8).prop_map(Op::Gather),
        Just(Op::Clear),
        prop_oneof![arb_uniform_values(), arb_values()].prop_map(Op::FromValues),
    ]
}

/// The type `from_values` sniffs: the one type of every non-NULL value,
/// or `Mixed` when there are two types or none.
fn sniff(vals: &[Value]) -> Kind {
    let mut types = vals.iter().filter_map(Value::data_type);
    let first = types.next()?;
    types.all(|t| t == first).then_some(first)
}

fn build(src: &Source) -> (ColVec, Kind, Vec<Value>) {
    match src {
        Source::Sniffed(v) => (ColVec::from_values(v.clone()), sniff(v), v.clone()),
        Source::Mixed(v) => (ColVec::Mixed(v.clone()), None, v.clone()),
        Source::Empty(t) => (ColVec::with_capacity(*t, 4), Some(*t), Vec::new()),
    }
}

fn kind(c: &ColVec) -> Kind {
    match c {
        ColVec::Int(_) => Some(DataType::Int),
        ColVec::Float(_) => Some(DataType::Float),
        ColVec::Bool(_) => Some(DataType::Bool),
        ColVec::Text(_) => Some(DataType::Text),
        ColVec::Mixed(_) => None,
    }
}

/// Same variant and the same bits: `Value`'s own `Eq` makes `Int(2)`
/// equal `Float(2.0)` and `0.0` equal `-0.0`.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.data_type() == b.data_type() && a == b,
    }
}

fn check(c: &ColVec, k: Kind, model: &[Value]) -> Result<(), String> {
    prop_assert_eq!(kind(c), k);
    prop_assert_eq!(c.len(), model.len());
    prop_assert_eq!(c.is_empty(), model.is_empty());
    for (i, want) in model.iter().enumerate() {
        let got = c.value(i);
        prop_assert!(identical(&got, want), "row {}: {:?} != {:?}", i, got, want);
        prop_assert_eq!(c.is_null(i), want.is_null());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn colvec_matches_value_model(
        start in prop_oneof![Just(None), arb_type().prop_map(Some)],
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let (mut c, mut k) = match start {
            Some(t) => (ColVec::with_capacity(t, 8), Some(t)),
            None => (ColVec::Mixed(Vec::new()), None),
        };
        let mut model: Vec<Value> = Vec::new();
        for op in &ops {
            match op {
                Op::Push(v) => {
                    match v {
                        Value::Null => c.push_null(),
                        Value::Int(x) => c.push_int(*x),
                        Value::Float(x) => c.push_float(*x),
                        Value::Bool(x) => c.push_bool(*x),
                        Value::Text(s) => c.push_text(s.clone()),
                    }
                    // a value of another type demotes; NULL fits any type
                    if v.data_type().is_some() && v.data_type() != k {
                        k = None;
                    }
                    model.push(v.clone());
                }
                Op::Append(src) => {
                    let (other, ok, ov) = build(src);
                    c.append(other);
                    // an empty column takes the other's kind; an empty
                    // other changes nothing; two kinds meet in Mixed
                    if model.is_empty() {
                        k = ok;
                    } else if !ov.is_empty() && k != ok {
                        k = None;
                    }
                    model.extend(ov);
                }
                Op::Gather(idx) => {
                    let sel: Vec<u32> = if model.is_empty() {
                        Vec::new()
                    } else {
                        idx.iter().map(|&i| (i % model.len()) as u32).collect()
                    };
                    c = c.gather(&sel);
                    model = sel.iter().map(|&i| model[i as usize].clone()).collect();
                }
                Op::Clear => {
                    c.clear();
                    model.clear();
                }
                Op::FromValues(v) => {
                    c = ColVec::from_values(v.clone());
                    k = sniff(v);
                    model = v.clone();
                }
            }
            check(&c, k, &model)?;
        }
    }
}
