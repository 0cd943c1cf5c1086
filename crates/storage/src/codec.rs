//! Binary row serialization.
//!
//! A compact tagged format: one type byte per value, little-endian payloads,
//! length-prefixed text. Self-describing so heap tuples can be decoded
//! without consulting the catalog (simplifies recovery and debugging).

use bytes::{Buf, BufMut};

use aimdb_common::{AimError, ColVec, Result, Row, Value};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Encode a row to bytes.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + row.len() * 9);
    buf.put_u16_le(row.len() as u16);
    for v in row.values() {
        match v {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*i);
            }
            Value::Float(f) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64_le(*f);
            }
            Value::Text(s) => {
                buf.put_u8(TAG_TEXT);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
            Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        }
    }
    buf
}

/// Decode a row previously produced by [`encode_row`].
pub fn decode_row(mut bytes: &[u8]) -> Result<Row> {
    if bytes.remaining() < 2 {
        return Err(corrupt());
    }
    let n = bytes.get_u16_le() as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        if bytes.remaining() < 1 {
            return Err(corrupt());
        }
        let tag = bytes.get_u8();
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => {
                if bytes.remaining() < 8 {
                    return Err(corrupt());
                }
                Value::Int(bytes.get_i64_le())
            }
            TAG_FLOAT => {
                if bytes.remaining() < 8 {
                    return Err(corrupt());
                }
                Value::Float(bytes.get_f64_le())
            }
            TAG_TEXT => {
                if bytes.remaining() < 4 {
                    return Err(corrupt());
                }
                let len = bytes.get_u32_le() as usize;
                if bytes.remaining() < len {
                    return Err(corrupt());
                }
                let s = std::str::from_utf8(&bytes[..len])
                    .map_err(|_| corrupt())?
                    .to_string();
                bytes.advance(len);
                Value::Text(s)
            }
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            _ => return Err(corrupt()),
        };
        values.push(v);
    }
    Ok(Row::new(values))
}

/// Decode the fields `keep` of a row straight into column builders, one
/// lane per kept field in order, skipping the intermediate [`Row`]
/// allocation. The vectorized scans use this to columnarize pages in a
/// single decode pass, reading only the columns their plan uses.
///
/// `width` is the stored row's arity — heap tuples are always written
/// from the owning table's schema, so a mismatch means corruption — and
/// `keep` lists field indices, strictly ascending and below `width`, one
/// per entry of `cols`. Every field is checked in full (tag, length,
/// UTF-8) whether it is kept or not, so a row is rejected exactly when
/// [`decode_row`] rejects it; a skipped field only is not pushed, and a
/// skipped Text field allocates no `String`.
pub fn decode_row_into(
    bytes: &[u8],
    width: usize,
    keep: &[usize],
    cols: &mut [ColVec],
) -> Result<()> {
    debug_assert_eq!(keep.len(), cols.len());
    debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(keep.last().is_none_or(|&k| k < width));
    // the full projection walks the lanes with no per-field lookup
    if keep.len() == width {
        decode_all(bytes, cols)
    } else {
        decode_kept(bytes, width, keep, cols)
    }
}

/// Every field of a `cols.len()`-field row, each into its lane.
#[inline]
fn decode_all(bytes: &[u8], cols: &mut [ColVec]) -> Result<()> {
    let mut bytes = fields(bytes, cols.len())?;
    for col in cols.iter_mut() {
        decode_field(&mut bytes, Some(col))?;
    }
    Ok(())
}

/// The fields `keep` of a `width`-field row into `cols`: each kept field
/// after the fields skipped before it, then the fields after the last.
#[inline]
fn decode_kept(bytes: &[u8], width: usize, keep: &[usize], cols: &mut [ColVec]) -> Result<()> {
    let mut bytes = fields(bytes, width)?;
    let mut field = 0;
    for (&k, col) in keep.iter().zip(cols.iter_mut()) {
        while field < k {
            decode_field(&mut bytes, None)?;
            field += 1;
        }
        decode_field(&mut bytes, Some(col))?;
        field += 1;
    }
    while field < width {
        decode_field(&mut bytes, None)?;
        field += 1;
    }
    Ok(())
}

/// The fields of an encoded row, after checking that it has `width` of
/// them.
#[inline]
fn fields(mut bytes: &[u8], width: usize) -> Result<&[u8]> {
    if bytes.remaining() < 2 {
        return Err(corrupt());
    }
    let n = bytes.get_u16_le() as usize;
    if n != width {
        return Err(AimError::Storage(format!(
            "row arity {n} does not match schema width {width}"
        )));
    }
    Ok(bytes)
}

#[cold]
fn corrupt() -> AimError {
    AimError::Storage("corrupt row encoding".into())
}

/// Check one field at the front of `bytes` and step past it, pushing its
/// value into `lane` if there is one. Reads by slice indexing: each
/// bounds check is the truncation check. The workspace's one
/// `inline(always)`: each call site needs its own copy, the skipping
/// ones with no lane and no push, the pushing ones with `ColVec::push_*`
/// inlined into them; left to the cost model it stays one call per
/// field, and decoding 2 of 9 Int fields then cost more than decoding
/// all 9 had (DESIGN.md §4).
#[inline(always)]
fn decode_field(bytes: &mut &[u8], lane: Option<&mut ColVec>) -> Result<()> {
    let (&tag, mut rest) = bytes.split_first().ok_or_else(corrupt)?;
    // Int, the common tag, first: a compare, where the jump table below
    // costs an indirect branch per field
    if tag == TAG_INT {
        let (v, tail) = rest.split_first_chunk::<8>().ok_or_else(corrupt)?;
        if let Some(col) = lane {
            col.push_int(i64::from_le_bytes(*v));
        }
        *bytes = tail;
        return Ok(());
    }
    match tag {
        TAG_NULL => {
            if let Some(col) = lane {
                col.push_null();
            }
        }
        TAG_FLOAT => {
            let (v, tail) = rest.split_first_chunk::<8>().ok_or_else(corrupt)?;
            if let Some(col) = lane {
                col.push_float(f64::from_le_bytes(*v));
            }
            rest = tail;
        }
        TAG_TEXT => {
            let (len, tail) = rest.split_first_chunk::<4>().ok_or_else(corrupt)?;
            let len = u32::from_le_bytes(*len) as usize;
            if tail.len() < len {
                return Err(corrupt());
            }
            let (text, tail) = tail.split_at(len);
            let s = std::str::from_utf8(text).map_err(|_| corrupt())?;
            if let Some(col) = lane {
                col.push_text(s.to_string());
            }
            rest = tail;
        }
        TAG_BOOL_FALSE | TAG_BOOL_TRUE => {
            if let Some(col) = lane {
                col.push_bool(tag == TAG_BOOL_TRUE);
            }
        }
        _ => return Err(corrupt()),
    }
    *bytes = rest;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let row = Row::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.5),
            Value::Text("héllo".into()),
            Value::Bool(true),
            Value::Bool(false),
        ]);
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn empty_row() {
        let row = Row::new(vec![]);
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_row(&Row::new(vec![Value::Int(7)]));
        for cut in 0..bytes.len() {
            assert!(
                decode_row(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_tag_errors() {
        assert!(decode_row(&[1, 0, 99]).is_err());
    }

    #[test]
    fn decode_into_matches_decode() {
        use aimdb_common::DataType;
        let row = Row::new(vec![
            Value::Int(7),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
            Value::Text("abc".into()),
        ]);
        let bytes = encode_row(&row);
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 1),
            ColVec::with_capacity(DataType::Int, 1),
            ColVec::with_capacity(DataType::Float, 1),
            ColVec::with_capacity(DataType::Bool, 1),
            ColVec::with_capacity(DataType::Text, 1),
        ];
        decode_row_into(&bytes, 5, &[0, 1, 2, 3, 4], &mut cols).unwrap();
        let got: Vec<Value> = cols.iter().map(|c| c.value(0)).collect();
        assert_eq!(got, row.values());
    }

    #[test]
    fn decode_into_keeps_only_the_projected_fields() {
        use aimdb_common::DataType;
        let row = Row::new(vec![
            Value::Text("skipped".into()),
            Value::Int(7),
            Value::Null,
            Value::Float(1.5),
        ]);
        let bytes = encode_row(&row);
        let mut cols = vec![
            ColVec::with_capacity(DataType::Int, 1),
            ColVec::with_capacity(DataType::Float, 1),
        ];
        decode_row_into(&bytes, 4, &[1, 3], &mut cols).unwrap();
        let got: Vec<Value> = cols.iter().map(|c| c.value(0)).collect();
        assert_eq!(got, row.project(&[1, 3]).values());
        // zero width: the row is still checked, nothing is pushed
        decode_row_into(&bytes, 4, &[], &mut []).unwrap();
        assert!(decode_row_into(&bytes[..bytes.len() - 1], 4, &[], &mut []).is_err());
    }

    #[test]
    fn decode_into_checks_skipped_text_for_utf8() {
        let mut bytes = encode_row(&Row::new(vec![Value::Text("ab".into()), Value::Int(1)]));
        // the text payload sits after the arity (2), the tag (1) and the length (4)
        bytes[7] = 0xff;
        assert!(decode_row(&bytes).is_err());
        assert!(decode_row_into(&bytes, 2, &[], &mut []).is_err());
    }

    #[test]
    fn decode_into_rejects_arity_mismatch() {
        use aimdb_common::DataType;
        let bytes = encode_row(&Row::new(vec![Value::Int(1), Value::Int(2)]));
        let mut cols = vec![ColVec::with_capacity(DataType::Int, 1)];
        assert!(decode_row_into(&bytes, 1, &[0], &mut cols).is_err());
    }

    #[test]
    fn decode_into_truncated_errors() {
        use aimdb_common::DataType;
        let bytes = encode_row(&Row::new(vec![Value::Int(7)]));
        let mut cols = vec![ColVec::with_capacity(DataType::Int, 1)];
        assert!(decode_row_into(&bytes[..bytes.len() - 1], 1, &[0], &mut cols).is_err());
    }
}
