//! The NETMARK generated schema (paper Fig 5).
//!
//! Two tables hold *every* document of *every* type — that is the
//! "schema-less" design: "The NETMARK storage scheme however uses the same
//! relational tables to represent and store any XML document type."
//!
//! `XML` is the node table (one row per tree node, with physical-rowid
//! pointers for traversal); `DOC` is the document table. `META` holds the
//! engine's id counters. Beyond Fig 5 we add `CHILDROWID` (first child, so
//! the downward walk is rowid-chasing too) and `CTXKEY`, which once held
//! the lowercased context label for indexed context search. Labels are
//! text-index postings now, and the store writes `CTXKEY` as `NULL`.

use netmark_relstore::{ColumnType, RowId, Schema};

/// Name of the node table.
pub const XML_TABLE: &str = "XML";
/// Name of the document table.
pub const DOC_TABLE: &str = "DOC";
/// Name of the counters table.
pub const META_TABLE: &str = "META";

/// Sentinel rowid meaning "no pointer yet": ingest writes it where the
/// pointer fix-up will patch in a rowid (fixed-size, so rows are updated in
/// place and never relocate). An absent pointer is `NULL`; readers treat
/// both as none.
pub const NONE_ROWID: RowId = RowId {
    page: u32::MAX,
    slot: u16::MAX,
};

/// Column positions in the `XML` table.
pub mod xml {
    /// Node id (unique, monotonically assigned).
    pub const NODEID: usize = 0;
    /// Owning document id.
    pub const DOC_ID: usize = 1;
    /// NETMARK node type id (Fig 5's NODETYPE).
    pub const NODETYPE: usize = 2;
    /// Element name (or `#text`).
    pub const NODENAME: usize = 3;
    /// Character data / denormalized context label.
    pub const NODEDATA: usize = 4;
    /// Written `NULL`. Stores written before labels were text-index
    /// postings hold the lowercased label on CONTEXT rows, and older ones
    /// "" on every other row.
    pub const CTXKEY: usize = 5;
    /// Physical rowid of the parent.
    pub const PARENTROWID: usize = 6;
    /// Node id of the parent (-1 for the root).
    pub const PARENTNODEID: usize = 7;
    /// Physical rowid of the next sibling.
    pub const SIBLINGID: usize = 8;
    /// Physical rowid of the first child.
    pub const CHILDROWID: usize = 9;
    /// Serialized attributes.
    pub const ATTRS: usize = 10;
    /// Total column count.
    pub const ARITY: usize = 11;
}

/// Column positions in the `META` table.
pub mod meta {
    /// Next node id to assign.
    pub const NEXT_NODEID: usize = 0;
    /// Next document id to assign.
    pub const NEXT_DOCID: usize = 1;
    /// Store generation: bumped by every ingest batch and document
    /// removal. Persisted beside the text index so staleness is an exact
    /// equality check, not a row-count heuristic.
    pub const GENERATION: usize = 2;
    /// Total column count.
    pub const ARITY: usize = 3;
}

/// Column positions in the `DOC` table.
pub mod doc {
    /// Document id.
    pub const DOC_ID: usize = 0;
    /// File name.
    pub const FILE_NAME: usize = 1;
    /// Ingest timestamp (unix seconds).
    pub const FILE_DATE: usize = 2;
    /// Original size in bytes.
    pub const FILE_SIZE: usize = 3;
    /// Source format tag.
    pub const FORMAT: usize = 4;
    /// Node id of the document root.
    pub const ROOT_NODEID: usize = 5;
    /// Total column count.
    pub const ARITY: usize = 6;
}

/// Schema of the `XML` table.
pub fn xml_schema() -> Schema {
    Schema::new(&[
        ("NODEID", ColumnType::Int),
        ("DOC_ID", ColumnType::Int),
        ("NODETYPE", ColumnType::Int),
        ("NODENAME", ColumnType::Text),
        ("NODEDATA", ColumnType::Text),
        ("CTXKEY", ColumnType::Text),
        ("PARENTROWID", ColumnType::Rowid),
        ("PARENTNODEID", ColumnType::Int),
        ("SIBLINGID", ColumnType::Rowid),
        ("CHILDROWID", ColumnType::Rowid),
        ("ATTRS", ColumnType::Text),
    ])
}

/// Schema of the `DOC` table.
pub fn doc_schema() -> Schema {
    Schema::new(&[
        ("DOC_ID", ColumnType::Int),
        ("FILE_NAME", ColumnType::Text),
        ("FILE_DATE", ColumnType::Int),
        ("FILE_SIZE", ColumnType::Int),
        ("FORMAT", ColumnType::Text),
        ("ROOT_NODEID", ColumnType::Int),
    ])
}

/// Schema of the `META` table (single row of counters).
pub fn meta_schema() -> Schema {
    Schema::new(&[
        ("NEXT_NODEID", ColumnType::Int),
        ("NEXT_DOCID", ColumnType::Int),
        ("GENERATION", ColumnType::Int),
    ])
}

/// Attribute list codec: `k1\u{1e}v1\u{1f}k2\u{1e}v2…` (unit/record
/// separators never appear in document text after XML unescaping).
pub fn encode_attrs(attrs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push('\u{1f}');
        }
        out.push_str(k);
        out.push('\u{1e}');
        out.push_str(v);
    }
    out
}

/// Inverse of [`encode_attrs`].
pub fn decode_attrs(s: &str) -> Vec<(String, String)> {
    if s.is_empty() {
        return Vec::new();
    }
    s.split('\u{1f}')
        .filter_map(|pair| {
            pair.split_once('\u{1e}')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_match_column_constants() {
        let x = xml_schema();
        assert_eq!(x.arity(), xml::ARITY);
        assert_eq!(x.position("NODEID"), Some(xml::NODEID));
        assert_eq!(x.position("CTXKEY"), Some(xml::CTXKEY));
        assert_eq!(x.position("SIBLINGID"), Some(xml::SIBLINGID));
        let d = doc_schema();
        assert_eq!(d.arity(), doc::ARITY);
        assert_eq!(d.position("ROOT_NODEID"), Some(doc::ROOT_NODEID));
    }

    #[test]
    fn attrs_round_trip() {
        let attrs = vec![
            ("level".to_string(), "2".to_string()),
            ("name".to_string(), "has spaces & symbols <>".to_string()),
        ];
        assert_eq!(decode_attrs(&encode_attrs(&attrs)), attrs);
        assert!(decode_attrs("").is_empty());
        assert_eq!(encode_attrs(&[]), "");
    }
}
