//! Self-describing tuple encoding.
//!
//! NETMARK's store is "schema-less": every document type lands in the same
//! two tables, and the engine never validates shape beyond what the client
//! asks for. Tuples are therefore encoded self-describing — each value
//! carries its own type tag — and [`Schema`] exists only as catalog metadata
//! (column names for humans and for index key selection).

use crate::error::{Result, StoreError};
use crate::RowId;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A physical row id — the paper's PARENTROWID / SIBLINGID columns.
    Rowid(RowId),
}

impl Value {
    /// Text content if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Row id content if this is a `Rowid` value.
    pub fn as_rowid(&self) -> Option<RowId> {
        match self {
            Value::Rowid(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Rowid(r) => write!(f, "{r}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
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
impl From<RowId> for Value {
    fn from(v: RowId) -> Self {
        Value::Rowid(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A tuple: an ordered list of values.
pub type Row = Vec<Value>;

/// Writes `v` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| StoreError::Corrupt("varint truncated".into()))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StoreError::Corrupt("varint overflow".into()));
        }
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_ROWID: u8 = 7;

/// Encodes a row into `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    write_varint(out, row.len() as u64);
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_BOOL_FALSE),
            Value::Bool(true) => out.push(TAG_BOOL_TRUE),
            Value::Int(i) => {
                out.push(TAG_INT);
                // ZigZag so small negative ints stay small.
                write_varint(out, ((i << 1) ^ (i >> 63)) as u64);
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                write_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(TAG_BYTES);
                write_varint(out, b.len() as u64);
                out.extend_from_slice(b);
            }
            Value::Rowid(r) => {
                out.push(TAG_ROWID);
                out.extend_from_slice(&r.page.to_le_bytes());
                out.extend_from_slice(&r.slot.to_le_bytes());
            }
        }
    }
}

/// Decodes a row previously produced by [`encode_row`].
pub fn decode_row(buf: &[u8]) -> Result<Row> {
    let mut pos = 0usize;
    let n = read_varint(buf, &mut pos)? as usize;
    if n > buf.len() {
        return Err(StoreError::Corrupt("row arity exceeds buffer".into()));
    }
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = *buf
            .get(pos)
            .ok_or_else(|| StoreError::Corrupt("row truncated".into()))?;
        pos += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_INT => {
                let z = read_varint(buf, &mut pos)?;
                Value::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
            }
            TAG_FLOAT => {
                let end = pos + 8;
                let bytes: [u8; 8] = buf
                    .get(pos..end)
                    .ok_or_else(|| StoreError::Corrupt("float truncated".into()))?
                    .try_into()
                    .unwrap();
                pos = end;
                Value::Float(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            TAG_TEXT => {
                let len = read_varint(buf, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= buf.len())
                    .ok_or_else(|| StoreError::Corrupt("text truncated".into()))?;
                let s = std::str::from_utf8(&buf[pos..end])
                    .map_err(|_| StoreError::Corrupt("text not utf-8".into()))?;
                pos = end;
                Value::Text(s.to_string())
            }
            TAG_BYTES => {
                let len = read_varint(buf, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= buf.len())
                    .ok_or_else(|| StoreError::Corrupt("bytes truncated".into()))?;
                let b = buf[pos..end].to_vec();
                pos = end;
                Value::Bytes(b)
            }
            TAG_ROWID => {
                let end = pos + 6;
                if end > buf.len() {
                    return Err(StoreError::Corrupt("rowid truncated".into()));
                }
                let page = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
                let slot = u16::from_le_bytes(buf[pos + 4..end].try_into().unwrap());
                pos = end;
                Value::Rowid(RowId { page, slot })
            }
            t => return Err(StoreError::Corrupt(format!("unknown value tag {t}"))),
        };
        row.push(v);
    }
    Ok(row)
}

/// Declared type of a column (metadata only; rows are self-describing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Raw bytes.
    Bytes,
    /// Boolean.
    Bool,
    /// Physical row id.
    Rowid,
}

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ctype: ColumnType,
}

/// Catalog metadata for a table: names and declared types.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// Ordered columns.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColumnType)]) -> Schema {
        Schema {
            columns: cols
                .iter()
                .map(|(n, t)| Column {
                    name: n.to_string(),
                    ctype: *t,
                })
                .collect(),
        }
    }

    /// Position of column `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(row: Row) {
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn encode_decode_all_types() {
        round_trip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Text("héllo, wörld".into()),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Rowid(RowId { page: 77, slot: 3 }),
        ]);
    }

    #[test]
    fn empty_row() {
        round_trip(vec![]);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[5, TAG_TEXT, 200]).is_err());
        assert!(decode_row(&[1, 99]).is_err());
        assert!(decode_row(&[1, TAG_ROWID, 1, 2]).is_err());
        // Huge declared text length must not allocate/panic.
        assert!(decode_row(&[1, TAG_TEXT, 0xff, 0xff, 0xff, 0xff, 0x0f]).is_err());
    }

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(&[("NODEID", ColumnType::Int), ("NODENAME", ColumnType::Text)]);
        assert_eq!(s.position("NODENAME"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert_eq!(s.arity(), 2);
    }
}
