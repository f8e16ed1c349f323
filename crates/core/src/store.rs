//! The NETMARK XML Store: documents flattened into the Fig-5 tables.
//!
//! Ingestion decomposes an upmarked [`Document`] into one `XML`-table row
//! per node, in pre-order (so node ids ascend in document order), wiring
//! `PARENTROWID` / `SIBLINGID` / `CHILDROWID` physical pointers. The
//! pointer columns are written as fixed-size sentinel rowids first and
//! fixed up in place, so rows never relocate and every pointer stays a
//! one-hop chase — the property behind the paper's "very fast traversal
//! between nodes that are related".
//!
//! [`NodeStore`] is the writer (ingest, removal) and the open-time code;
//! every read a request makes goes through a [`StoreView`] pinned with
//! [`NodeStore::begin_read`], which sees only committed state.

use crate::error::{NetmarkError, Result};
use crate::schema::{
    decode_attrs, doc, doc_schema, encode_attrs, meta_schema, xml, xml_schema, DOC_TABLE,
    META_TABLE, NONE_ROWID, XML_TABLE,
};
use netmark_model::{Document, Node, NodeType};
use netmark_relstore::{Database, ReadView, RowId, Table, Txn, Value, ViewTable};
use netmark_textindex::Placement;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Document identifier.
pub type DocId = i64;
/// Node identifier (ascending in ingest order).
pub type NodeId = u64;

/// One decoded `XML`-table row.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Node id.
    pub node_id: NodeId,
    /// Owning document.
    pub doc_id: DocId,
    /// NETMARK node type.
    pub ntype: NodeType,
    /// Element name / `#text`.
    pub name: String,
    /// Text data (text nodes) or denormalized context label.
    pub data: String,
    /// Parent pointer.
    pub parent: Option<RowId>,
    /// Parent node id.
    pub parent_node: Option<NodeId>,
    /// Next-sibling pointer.
    pub next_sibling: Option<RowId>,
    /// First-child pointer.
    pub first_child: Option<RowId>,
    /// Attributes.
    pub attrs: Vec<(String, String)>,
}

/// Document metadata from the `DOC` table.
#[derive(Debug, Clone, PartialEq)]
pub struct DocInfo {
    /// Document id.
    pub doc_id: DocId,
    /// File name.
    pub file_name: String,
    /// Ingest timestamp (unix seconds).
    pub file_date: i64,
    /// Original size in bytes.
    pub file_size: i64,
    /// Source format tag.
    pub format: String,
    /// Root node id.
    pub root_node: NodeId,
}

/// One node the full-text index must hold: its id, where it sits and the
/// text to index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// The indexed node.
    pub node: NodeId,
    /// Its document and governing context (the rule
    /// [`StoreView::governing_context`] walks, computed by the writer).
    pub placement: Placement,
    /// The node's text (a text node's data, a context's label).
    pub text: String,
}

/// What an ingest did — including the entries the caller must feed to the
/// full-text index.
#[derive(Debug)]
pub struct IngestReport {
    /// Assigned document id.
    pub doc_id: DocId,
    /// Root node id.
    pub root_node: NodeId,
    /// Number of `XML` rows written.
    pub node_count: usize,
    /// Text-index entries, ascending by node id.
    pub index_entries: Vec<IndexEntry>,
}

/// The governing context of every node of one document flattened in
/// pre-order, as indices into `nodes`, where `nodes[i]` is `(node i is a
/// CONTEXT, index of its parent)`. This is the rule
/// [`StoreView::governing_context`] walks (paper §2.1.4, "traversing up
/// the tree structure via its parent or sibling node until the first
/// context is found"):
///
/// 1. the node itself, if it is a CONTEXT;
/// 2. otherwise its parent, if that is a CONTEXT;
/// 3. otherwise the last CONTEXT among its preceding siblings, checked at
///    each ancestor level in turn.
///
/// Pre-order visits a node's preceding siblings before the node, so one
/// forward pass suffices. A parent index that does not precede its child
/// is treated as no parent.
pub(crate) fn governing_contexts(nodes: &[(bool, Option<usize>)]) -> Vec<Option<usize>> {
    let mut governs: Vec<Option<usize>> = Vec::with_capacity(nodes.len());
    // The last CONTEXT child seen so far, per parent.
    let mut last_context_child: Vec<Option<usize>> = vec![None; nodes.len()];
    for (i, &(is_context, parent)) in nodes.iter().enumerate() {
        let parent = parent.filter(|&p| p < i);
        let g = match parent {
            _ if is_context => Some(i),
            None => None,
            Some(p) if nodes[p].0 => Some(p),
            // A non-context parent's own governing context is what the
            // walk finds when it continues from the parent.
            Some(p) => last_context_child[p].or(governs[p]),
        };
        governs.push(g);
        if let (true, Some(p)) = (is_context, parent) {
            last_context_child[p] = Some(i);
        }
    }
    governs
}

/// The two-table store plus id counters.
pub struct NodeStore {
    db: Database,
    xml: Table,
    doc: Table,
    meta: Table,
    meta_rowid: RowId,
    next_node: AtomicU64,
    next_doc: AtomicI64,
    generation: AtomicI64,
}

/// One pre-order-flattened node, with tree links as vector indices.
struct Flat<'a> {
    node: &'a Node,
    parent: Option<usize>,
    next_sibling: Option<usize>,
    first_child: Option<usize>,
}

fn flatten<'a>(node: &'a Node, parent: Option<usize>, out: &mut Vec<Flat<'a>>) -> usize {
    let idx = out.len();
    out.push(Flat {
        node,
        parent,
        next_sibling: None,
        first_child: None,
    });
    let mut prev: Option<usize> = None;
    for child in &node.children {
        let cidx = flatten(child, Some(idx), out);
        match prev {
            Some(p) => out[p].next_sibling = Some(cidx),
            None => out[idx].first_child = Some(cidx),
        }
        prev = Some(cidx);
    }
    idx
}

fn opt_rowid(v: &Value) -> Option<RowId> {
    match v.as_rowid() {
        Some(r) if r != NONE_ROWID => Some(r),
        _ => None,
    }
}

fn rowid_value(r: Option<RowId>) -> Value {
    Value::Rowid(r.unwrap_or(NONE_ROWID))
}

fn now_unix() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

impl NodeStore {
    /// Opens (creating tables and indexes if needed) the store inside `db`.
    ///
    /// A new store gets only the indexes some reader probes: node id and
    /// context key on `XML`, document id and file name on `DOC`. A store
    /// created with more indexes keeps them; every write maintains them.
    pub fn open(db: Database) -> Result<NodeStore> {
        if !db.has_table(XML_TABLE) {
            db.create_table(XML_TABLE, xml_schema())?;
            db.create_index(XML_TABLE, "xml_by_nodeid", &["NODEID"], true)?;
            db.create_index(XML_TABLE, "xml_by_ctxkey", &["CTXKEY"], false)?;
        }
        if !db.has_table(DOC_TABLE) {
            db.create_table(DOC_TABLE, doc_schema())?;
            db.create_index(DOC_TABLE, "doc_by_id", &["DOC_ID"], true)?;
            db.create_index(DOC_TABLE, "doc_by_name", &["FILE_NAME"], false)?;
        }
        if !db.has_table(META_TABLE) {
            db.create_table(META_TABLE, meta_schema())?;
        }
        let xml_t = db.table(XML_TABLE)?;
        let doc_t = db.table(DOC_TABLE)?;
        let meta_t = db.table(META_TABLE)?;
        let meta_rows = db.begin_read().table(META_TABLE)?.scan()?;
        let (meta_rowid, next_node, next_doc, generation) = match meta_rows.first() {
            Some((rid, row)) => (
                *rid,
                row.first().and_then(Value::as_int).unwrap_or(1) as u64,
                row.get(1).and_then(Value::as_int).unwrap_or(1),
                row.get(2).and_then(Value::as_int).unwrap_or(0),
            ),
            None => {
                let rid = meta_t.insert(&vec![Value::Int(1), Value::Int(1), Value::Int(0)])?;
                (rid, 1, 1, 0)
            }
        };
        Ok(NodeStore {
            db,
            xml: xml_t,
            doc: doc_t,
            meta: meta_t,
            meta_rowid,
            next_node: AtomicU64::new(next_node),
            next_doc: AtomicI64::new(next_doc),
            generation: AtomicI64::new(generation),
        })
    }

    /// The underlying database (for checkpoints and stats).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Ingests one upmarked document atomically (a batch of one).
    pub fn ingest(&self, document: &Document) -> Result<IngestReport> {
        let mut reports = self.ingest_batch(std::slice::from_ref(document))?;
        Ok(reports.pop().expect("batch of one yields one report"))
    }

    /// Ingests `documents` in ONE transaction: a single WAL commit (and,
    /// with `sync_commits`, at most one fsync) covers the whole batch, the
    /// ingest timestamp is taken once, and the `META` counter row is
    /// updated once instead of per document. The final state is identical
    /// to ingesting each document sequentially; atomicity widens to the
    /// batch (all documents land or none do).
    pub fn ingest_batch(&self, documents: &[Document]) -> Result<Vec<IngestReport>> {
        if documents.is_empty() {
            return Ok(Vec::new());
        }
        let now = now_unix();
        let mut reports = Vec::with_capacity(documents.len());
        let mut tx = self.db.begin();
        for document in documents {
            reports.push(self.ingest_in_tx(&mut tx, document, now)?);
        }
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        tx.update(
            &self.meta,
            self.meta_rowid,
            &vec![
                Value::Int(self.next_node.load(Ordering::Relaxed) as i64),
                Value::Int(self.next_doc.load(Ordering::Relaxed)),
                Value::Int(generation),
            ],
        )?;
        tx.commit()?;
        Ok(reports)
    }

    /// Writes one document's DOC + XML rows inside `tx`.
    fn ingest_in_tx(
        &self,
        tx: &mut Txn<'_>,
        document: &Document,
        now: i64,
    ) -> Result<IngestReport> {
        let mut flats: Vec<Flat<'_>> = Vec::with_capacity(document.root.size());
        flatten(&document.root, None, &mut flats);

        let n = flats.len();
        let base = self.next_node.fetch_add(n as u64, Ordering::Relaxed);
        let doc_id = self.next_doc.fetch_add(1, Ordering::Relaxed);
        let node_id_of = |idx: usize| base + idx as u64;

        let shape: Vec<(bool, Option<usize>)> = flats
            .iter()
            .map(|f| (f.node.ntype == NodeType::Context, f.parent))
            .collect();
        let governs = governing_contexts(&shape);
        let mut index_entries: Vec<IndexEntry> = Vec::new();
        // Readers pin MVCC views and see only committed state, so the DOC
        // row and every XML row appear together at commit (or never, on
        // abort). Node and doc ids are freshly allocated from monotonic
        // counters, so the unchecked inserts cannot violate the unique id
        // indexes. The DOC row is never patched; deferring it like the XML
        // rows keeps it first in the WAL.
        tx.insert_unchecked_deferred(
            &self.doc,
            &vec![
                Value::Int(doc_id),
                Value::Text(document.name.clone()),
                Value::Int(now),
                Value::Int(document.source_size as i64),
                Value::Text(document.format.clone()),
                Value::Int(base as i64),
            ],
        )?;
        let mut rowids: Vec<RowId> = Vec::with_capacity(n);
        let mut tokens: Vec<usize> = Vec::with_capacity(n);
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n);
        for (idx, f) in flats.iter().enumerate() {
            let node = f.node;
            let (data, ctxkey) = match node.ntype {
                NodeType::Text => (node.text.clone(), String::new()),
                NodeType::Context => {
                    let label = node.text_content();
                    let key = label.to_lowercase();
                    (label, key)
                }
                _ => (String::new(), String::new()),
            };
            if let Some(text) = indexed_text(node.ntype, &data) {
                index_entries.push(IndexEntry {
                    node: node_id_of(idx),
                    placement: Placement {
                        doc: doc_id as u64,
                        context: governs[idx].map(node_id_of),
                    },
                    text: text.to_string(),
                });
            }
            let row = vec![
                Value::Int(node_id_of(idx) as i64),
                Value::Int(doc_id),
                Value::Int(node.ntype.id()),
                Value::Text(node.name.clone()),
                Value::Text(data),
                Value::Text(ctxkey),
                rowid_value(f.parent.map(|p| rowids[p])),
                Value::Int(f.parent.map(|p| node_id_of(p) as i64).unwrap_or(-1)),
                rowid_value(None), // fixed up below
                rowid_value(None), // fixed up below
                Value::Text(encode_attrs(&node.attrs)),
            ];
            let (rid, token) = tx.insert_unchecked_deferred(&self.xml, &row)?;
            rowids.push(rid);
            tokens.push(token);
            rows.push(row);
        }
        // Pointer fix-up: the inserts above deferred their WAL records, so
        // the sibling/child rowids (fixed-width `Value::Rowid`, same-size
        // re-encode) are patched into the placed cells and the queued WAL
        // images in one pass — no second heap update or WAL record per
        // node. `flush_deferred` then logs the final bytes.
        for (idx, f) in flats.iter().enumerate() {
            if f.next_sibling.is_none() && f.first_child.is_none() {
                continue;
            }
            let row = &mut rows[idx];
            row[xml::SIBLINGID] = rowid_value(f.next_sibling.map(|s| rowids[s]));
            row[xml::CHILDROWID] = rowid_value(f.first_child.map(|c| rowids[c]));
            tx.patch_deferred(&self.xml, tokens[idx], row)?;
        }
        tx.flush_deferred()?;
        Ok(IngestReport {
            doc_id,
            root_node: base,
            node_count: n,
            index_entries,
        })
    }

    /// Pins a repeatable-read [`StoreView`] of the store: an MVCC snapshot
    /// that observes exactly the committed state as of this call and never
    /// takes a page latch, no matter how many ingest batches commit
    /// afterwards. Cheap (no I/O beyond catalog metadata); drop to unpin.
    pub fn begin_read(&self) -> Result<StoreView> {
        let view = self.db.begin_read();
        let xml = view.table(XML_TABLE)?;
        let doc = view.table(DOC_TABLE)?;
        // The generation must come from the snapshot, not the live counter:
        // it identifies the committed store state this view observes.
        let generation = view
            .table(META_TABLE)?
            .scan()?
            .first()
            .and_then(|(_, row)| row.get(2).and_then(Value::as_int))
            .unwrap_or(0);
        Ok(StoreView {
            view,
            xml,
            doc,
            generation,
        })
    }

    /// Deletes a document and all its nodes. Returns the removed node ids,
    /// ascending (for text-index tombstoning).
    ///
    /// The nodes are found by walking `CHILDROWID`/`SIBLINGID` from the
    /// document's root. The view is pinned after `begin` holds the write
    /// lock, so no commit lands between the walk and the deletes, and it is
    /// dropped before commit, which may checkpoint and would wait for it.
    pub fn remove_document(&self, doc_id: DocId) -> Result<Vec<NodeId>> {
        let mut tx = self.db.begin();
        let view = self.begin_read()?;
        let (doc_rid, info) = view.doc_entry(doc_id)?;
        let (root_rid, _) = view
            .node_by_id(info.root_node)?
            .ok_or_else(|| NetmarkError::Corrupt(format!("missing root node for doc {doc_id}")))?;
        let mut nodes: Vec<(RowId, NodeId)> = Vec::new();
        let mut stack = vec![root_rid];
        while let Some(rid) = stack.pop() {
            let row = view.node(rid)?;
            // Pre-order over the pointers visits the document's contiguous
            // id range in order; anything else is a foreign row or a cycle.
            let expected = info.root_node + nodes.len() as u64;
            if row.doc_id != doc_id || row.node_id != expected {
                return Err(NetmarkError::Corrupt(format!(
                    "doc {doc_id}: node chain reached node {} of doc {} (expected node {expected})",
                    row.node_id, row.doc_id
                )));
            }
            nodes.push((rid, row.node_id));
            stack.extend(row.next_sibling);
            stack.extend(row.first_child);
        }
        drop(view);
        for &(rid, _) in &nodes {
            tx.delete(&self.xml, rid)?;
        }
        tx.delete(&self.doc, doc_rid)?;
        // Removal changes indexed content, so it bumps the generation too —
        // otherwise a persisted text index could go stale undetected.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        tx.update(
            &self.meta,
            self.meta_rowid,
            &vec![
                Value::Int(self.next_node.load(Ordering::Relaxed) as i64),
                Value::Int(self.next_doc.load(Ordering::Relaxed)),
                Value::Int(generation),
            ],
        )?;
        tx.commit()?;
        Ok(nodes.into_iter().map(|(_, id)| id).collect())
    }

    /// The store generation: bumped by every committed ingest batch and
    /// document removal. Persisted in `META`, so it survives reopen and
    /// identifies exactly which store state a saved text index reflects.
    pub fn generation(&self) -> i64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The index entry of every indexed-text node in the store, ascending
    /// by node id — used to rebuild the full-text index. Each document's
    /// nodes hold one contiguous, pre-ordered id range, so sorting by id
    /// recovers every document's pre-order and the governing contexts
    /// follow from `governing_contexts`, as at ingest.
    pub fn all_text_entries(&self) -> Result<Vec<IndexEntry>> {
        let mut rows: Vec<NodeRow> = self
            .begin_read()?
            .xml
            .scan()?
            .iter()
            .map(|(_, row)| decode_node(row))
            .collect::<Result<_>>()?;
        rows.sort_by_key(|r| r.node_id);
        let mut out = Vec::new();
        for doc_rows in rows.chunk_by(|a, b| a.doc_id == b.doc_id) {
            let index_of = |id: NodeId| doc_rows.binary_search_by_key(&id, |r| r.node_id).ok();
            let shape: Vec<(bool, Option<usize>)> = doc_rows
                .iter()
                .map(|r| {
                    (
                        r.ntype == NodeType::Context,
                        r.parent_node.and_then(index_of),
                    )
                })
                .collect();
            let governs = governing_contexts(&shape);
            for (row, g) in doc_rows.iter().zip(governs) {
                if let Some(text) = indexed_text(row.ntype, &row.data) {
                    out.push(IndexEntry {
                        node: row.node_id,
                        placement: Placement {
                            doc: row.doc_id as u64,
                            context: g.map(|i| doc_rows[i].node_id),
                        },
                        text: text.to_string(),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// The text a node contributes to the full-text index, if any: a text
/// node's non-blank data, or a context's non-empty label.
fn indexed_text(ntype: NodeType, data: &str) -> Option<&str> {
    match ntype {
        NodeType::Text if !data.trim().is_empty() => Some(data),
        NodeType::Context if !data.is_empty() => Some(data),
        _ => None,
    }
}

fn decode_node(row: &[Value]) -> Result<NodeRow> {
    if row.len() != xml::ARITY {
        return Err(NetmarkError::Corrupt(format!(
            "XML row arity {} (expected {})",
            row.len(),
            xml::ARITY
        )));
    }
    let ntype_id = row[xml::NODETYPE]
        .as_int()
        .ok_or_else(|| NetmarkError::Corrupt("NODETYPE not an int".into()))?;
    Ok(NodeRow {
        node_id: row[xml::NODEID].as_int().unwrap_or(0) as u64,
        doc_id: row[xml::DOC_ID].as_int().unwrap_or(0),
        ntype: NodeType::from_id(ntype_id)
            .ok_or_else(|| NetmarkError::Corrupt(format!("bad NODETYPE {ntype_id}")))?,
        name: row[xml::NODENAME].as_text().unwrap_or("").to_string(),
        data: row[xml::NODEDATA].as_text().unwrap_or("").to_string(),
        parent: opt_rowid(&row[xml::PARENTROWID]),
        parent_node: match row[xml::PARENTNODEID].as_int() {
            Some(v) if v >= 0 => Some(v as u64),
            _ => None,
        },
        next_sibling: opt_rowid(&row[xml::SIBLINGID]),
        first_child: opt_rowid(&row[xml::CHILDROWID]),
        attrs: decode_attrs(row[xml::ATTRS].as_text().unwrap_or("")),
    })
}

/// A pinned, repeatable-read view of the node store.
///
/// Opened by [`NodeStore::begin_read`], a `StoreView` wraps one MVCC
/// [`ReadView`] of the underlying database: every read — node fetch, index
/// lookup, tree walk — observes exactly the committed state as of the pin,
/// without page latches, regardless of concurrent ingest batches or an
/// open write transaction. This is the only read path: every request reads
/// the store through one of these. Clones share the
/// same pin (dropping the last clone unpins). A view held across
/// checkpoints for longer than the database's `max_view_lag` may be
/// evicted, after which its reads fail with a storage error.
#[derive(Clone)]
pub struct StoreView {
    view: ReadView,
    xml: ViewTable,
    doc: ViewTable,
    generation: i64,
}

impl StoreView {
    /// The store generation this view observes (bumped by every committed
    /// ingest batch and removal). This is the stamp that decides result-
    /// cache validity for queries running over this view.
    pub fn generation(&self) -> i64 {
        self.generation
    }

    /// The storage-level commit version (LSN) this view is pinned at.
    pub fn version(&self) -> u64 {
        self.view.version()
    }

    /// True once a checkpoint evicted this view for exceeding the
    /// database's `max_view_lag`.
    pub fn is_evicted(&self) -> bool {
        self.view.is_evicted()
    }

    /// Fetches one node row by physical rowid.
    pub fn node(&self, rid: RowId) -> Result<NodeRow> {
        decode_node(&self.xml.get(rid)?)
    }

    /// Resolves a node id to its physical row (index lookup).
    pub fn node_by_id(&self, id: NodeId) -> Result<Option<(RowId, NodeRow)>> {
        let rids = self
            .xml
            .index_lookup("xml_by_nodeid", &[Value::Int(id as i64)])?;
        match rids.first() {
            Some(&rid) => Ok(Some((rid, self.node(rid)?))),
            None => Ok(None),
        }
    }

    /// All context-node rows whose (lowercased) label equals `label`.
    pub fn contexts_labeled(&self, label: &str) -> Result<Vec<(RowId, NodeRow)>> {
        let key = label.to_lowercase();
        let rids = self
            .xml
            .index_lookup("xml_by_ctxkey", &[Value::Text(key)])?;
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            let row = self.node(rid)?;
            if row.ntype == NodeType::Context {
                out.push((rid, row));
            }
        }
        Ok(out)
    }

    /// `(doc id, node id)` of every context node in this view, in no
    /// particular order.
    pub fn context_keys(&self) -> Result<Vec<(DocId, NodeId)>> {
        let mut out = Vec::new();
        for (_, row) in self.xml.scan()? {
            let row = decode_node(&row)?;
            if row.ntype == NodeType::Context {
                out.push((row.doc_id, row.node_id));
            }
        }
        Ok(out)
    }

    /// Walks up from `rid` to the governing context: the nearest enclosing
    /// CONTEXT ancestor or preceding-sibling CONTEXT at any ancestor level
    /// (paper §2.1.4 — "traversing up the tree structure via its parent or
    /// sibling node until the first context is found"). Queries never walk:
    /// the writer computes the same rule at ingest and the text index
    /// carries the answer, so this walk is the oracle that computation is
    /// tested against.
    pub fn governing_context(&self, rid: RowId) -> Result<Option<(RowId, NodeRow)>> {
        let mut cur_rid = rid;
        let mut cur = self.node(rid)?;
        if cur.ntype == NodeType::Context {
            return Ok(Some((cur_rid, cur)));
        }
        loop {
            let Some(parent_rid) = cur.parent else {
                return Ok(None);
            };
            let parent = self.node(parent_rid)?;
            if parent.ntype == NodeType::Context {
                return Ok(Some((parent_rid, parent)));
            }
            // Scan the parent's child chain up to the current node,
            // remembering the last CONTEXT seen.
            let mut last_ctx: Option<(RowId, NodeRow)> = None;
            let mut c = parent.first_child;
            while let Some(crid) = c {
                if crid == cur_rid {
                    break;
                }
                let crow = self.node(crid)?;
                let next = crow.next_sibling;
                if crow.ntype == NodeType::Context {
                    last_ctx = Some((crid, crow));
                }
                c = next;
            }
            if let Some(found) = last_ctx {
                return Ok(Some(found));
            }
            cur_rid = parent_rid;
            cur = parent;
        }
    }

    /// Reconstructs the subtree rooted at `rid` as a [`Node`].
    pub fn reconstruct(&self, rid: RowId) -> Result<Node> {
        let row = self.node(rid)?;
        self.reconstruct_row(&row)
    }

    /// Reconstructs the subtree below an already-decoded row.
    fn reconstruct_row(&self, row: &NodeRow) -> Result<Node> {
        let mut node = bare_node(row);
        let mut c = row.first_child;
        while let Some(crid) = c {
            let crow = self.node(crid)?;
            c = crow.next_sibling;
            node.children.push(self.reconstruct_row(&crow)?);
        }
        Ok(node)
    }

    /// Collects the content governed by the context at `ctx_rid`: the
    /// following siblings up to the next CONTEXT, reconstructed and wrapped
    /// in a `<Content>` element ("traversing back down the tree structure
    /// via the sibling node retrieves the corresponding content text").
    pub fn section_content(&self, ctx_rid: RowId) -> Result<Node> {
        let ctx = self.node(ctx_rid)?;
        let mut parts: Vec<Node> = Vec::new();
        let mut c = ctx.next_sibling;
        while let Some(rid) = c {
            let row = self.node(rid)?;
            if row.ntype == NodeType::Context {
                break;
            }
            c = row.next_sibling;
            parts.push(self.reconstruct_row(&row)?);
        }
        if parts.len() == 1 && parts[0].name == "Content" {
            return Ok(parts.into_iter().next().expect("len checked"));
        }
        let mut content = Node::element("Content");
        content.children = parts;
        Ok(content)
    }

    /// Document metadata by id.
    pub fn doc_info(&self, id: DocId) -> Result<DocInfo> {
        Ok(self.doc_entry(id)?.1)
    }

    /// The `DOC` row of document `id` and its metadata.
    fn doc_entry(&self, id: DocId) -> Result<(RowId, DocInfo)> {
        let rids = self.doc.index_lookup("doc_by_id", &[Value::Int(id)])?;
        let rid = *rids
            .first()
            .ok_or_else(|| NetmarkError::NoSuchDocument(format!("doc #{id}")))?;
        Ok((rid, decode_doc(&self.doc.get(rid)?)?))
    }

    /// Document metadata by file name (first match).
    pub fn doc_by_name(&self, name: &str) -> Result<Option<DocInfo>> {
        let rids = self
            .doc
            .index_lookup("doc_by_name", &[Value::Text(name.to_string())])?;
        match rids.first() {
            Some(rid) => Ok(Some(decode_doc(&self.doc.get(*rid)?)?)),
            None => Ok(None),
        }
    }

    /// The ids of every document stored under `name` (names can repeat).
    pub fn doc_ids_named(&self, name: &str) -> Result<Vec<DocId>> {
        self.doc
            .index_lookup("doc_by_name", &[Value::Text(name.to_string())])?
            .into_iter()
            .map(|rid| Ok(decode_doc(&self.doc.get(rid)?)?.doc_id))
            .collect()
    }

    /// Every stored document, by id.
    pub fn list_docs(&self) -> Result<Vec<DocInfo>> {
        let mut docs: Vec<DocInfo> = self
            .doc
            .scan()?
            .iter()
            .map(|(_, row)| decode_doc(row))
            .collect::<Result<_>>()?;
        docs.sort_by_key(|d| d.doc_id);
        Ok(docs)
    }

    /// Rebuilds the full [`Document`] for `doc_id`.
    pub fn reconstruct_document(&self, doc_id: DocId) -> Result<Document> {
        let info = self.doc_info(doc_id)?;
        let (root_rid, _) = self
            .node_by_id(info.root_node)?
            .ok_or_else(|| NetmarkError::Corrupt(format!("missing root node for doc {doc_id}")))?;
        let root = self.reconstruct(root_rid)?;
        Ok(Document::new(&info.file_name, &info.format, root)
            .with_source_size(info.file_size as u64))
    }

    /// Number of stored nodes (scans).
    pub fn node_count(&self) -> Result<usize> {
        Ok(self.xml.count()?)
    }

    /// Children of `parent_node` found via the secondary index instead of
    /// rowid chasing — the baseline side of the ROWID-traversal ablation.
    ///
    /// Requires an `xml_by_parent` index on `XML(PARENTNODEID)`, which
    /// [`NodeStore::open`] does not create: the caller adds it with
    /// `Database::create_index` (which backfills it) before pinning the
    /// view. Without it the lookup fails with a no-such-object error.
    pub fn children_via_index(&self, parent_node: NodeId) -> Result<Vec<(RowId, NodeRow)>> {
        let rids = self
            .xml
            .index_lookup("xml_by_parent", &[Value::Int(parent_node as i64)])?;
        let mut rows: Vec<(RowId, NodeRow)> = rids
            .into_iter()
            .map(|rid| Ok((rid, self.node(rid)?)))
            .collect::<Result<_>>()?;
        rows.sort_by_key(|(_, r)| r.node_id);
        Ok(rows)
    }

    /// Subtree reconstruction via index lookups only (ablation baseline).
    /// Needs the same `xml_by_parent` index as
    /// [`StoreView::children_via_index`].
    pub fn reconstruct_via_index(&self, node_id: NodeId) -> Result<Node> {
        let (_, row) = self
            .node_by_id(node_id)?
            .ok_or_else(|| NetmarkError::Corrupt(format!("missing node {node_id}")))?;
        let mut node = bare_node(&row);
        for (_, child) in self.children_via_index(row.node_id)? {
            node.children
                .push(self.reconstruct_via_index(child.node_id)?);
        }
        Ok(node)
    }
}

/// The node for one decoded row, without its children.
fn bare_node(row: &NodeRow) -> Node {
    if row.ntype == NodeType::Text {
        Node::text(&row.data)
    } else {
        Node {
            ntype: row.ntype,
            name: row.name.clone(),
            text: String::new(),
            attrs: row.attrs.clone(),
            children: Vec::new(),
        }
    }
}

fn decode_doc(row: &[Value]) -> Result<DocInfo> {
    if row.len() != doc::ARITY {
        return Err(NetmarkError::Corrupt(format!(
            "DOC row arity {} (expected {})",
            row.len(),
            doc::ARITY
        )));
    }
    Ok(DocInfo {
        doc_id: row[doc::DOC_ID].as_int().unwrap_or(0),
        file_name: row[doc::FILE_NAME].as_text().unwrap_or("").to_string(),
        file_date: row[doc::FILE_DATE].as_int().unwrap_or(0),
        file_size: row[doc::FILE_SIZE].as_int().unwrap_or(0),
        format: row[doc::FORMAT].as_text().unwrap_or("").to_string(),
        root_node: row[doc::ROOT_NODEID].as_int().unwrap_or(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark_docformats::upmark;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (NodeStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).unwrap();
        (NodeStore::open(db).unwrap(), dir)
    }

    const WDOC: &str = "<<Title>> Plan A\n<<Heading1>> Budget\n<<Normal>> two **million** dollars\n<<Heading1>> Schedule\n<<Normal>> three years\n";

    #[test]
    fn ingest_and_reconstruct_round_trip() {
        let (s, dir) = setup("rt");
        let doc = upmark("plan-a.wdoc", WDOC);
        let rep = s.ingest(&doc).unwrap();
        assert_eq!(rep.node_count, doc.root.size());
        let v = s.begin_read().unwrap();
        let back = v.reconstruct_document(rep.doc_id).unwrap();
        assert_eq!(back.root, doc.root, "lossless round trip");
        assert_eq!(back.name, "plan-a.wdoc");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn context_lookup_case_insensitive() {
        let (s, dir) = setup("ctx");
        s.ingest(&upmark("plan-a.wdoc", WDOC)).unwrap();
        let v = s.begin_read().unwrap();
        let hits = v.contexts_labeled("budget").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.data, "Budget");
        let hits = v.contexts_labeled("BUDGET").unwrap();
        assert_eq!(hits.len(), 1);
        assert!(v.contexts_labeled("nonexistent").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn governing_context_walk() {
        let (s, dir) = setup("walk");
        let rep = s.ingest(&upmark("plan-a.wdoc", WDOC)).unwrap();
        let v = s.begin_read().unwrap();
        // Walks up from the entry whose text contains `needle`; the walk
        // must land where the ingest-time rule put the entry's context.
        let walk = |needle: &str| {
            let e = rep
                .index_entries
                .iter()
                .find(|e| e.text.contains(needle))
                .unwrap();
            let (rid, row) = v.node_by_id(e.node).unwrap().unwrap();
            let (_, ctx) = v.governing_context(rid).unwrap().unwrap();
            assert_eq!(e.placement.context, Some(ctx.node_id), "{needle}");
            (row, ctx)
        };
        assert_eq!(walk("three years").1.data, "Schedule");
        // The bold text governs back to Budget.
        assert_eq!(walk("million").1.data, "Budget");
        // A context label governs to its own context.
        let (row, ctx) = walk("Budget");
        assert_eq!(ctx.data, "Budget");
        assert_eq!(row.ntype, NodeType::Context);
        assert_eq!(row.node_id, ctx.node_id);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn governing_contexts_follow_the_walk_rule() {
        // 0 root
        // ├─ 1 ctx
        // │  └─ 2 text        → 1 (parent is a context)
        // ├─ 3 para           → 1 (preceding-sibling context)
        // │  ├─ 4 text        → 1 (inherited from 3)
        // │  ├─ 5 ctx         → 5 (itself)
        // │  └─ 6 text        → 5 (preceding sibling at its own level)
        // └─ 7 ctx            → 7
        let nodes = [
            (false, None),
            (true, Some(0)),
            (false, Some(1)),
            (false, Some(0)),
            (false, Some(3)),
            (true, Some(3)),
            (false, Some(3)),
            (true, Some(0)),
        ];
        assert_eq!(
            governing_contexts(&nodes),
            vec![
                None,
                Some(1),
                Some(1),
                Some(1),
                Some(1),
                Some(5),
                Some(5),
                Some(7)
            ]
        );
        // A root with no context before anything governs nothing; a
        // malformed parent link (not preceding its child) is no parent.
        assert_eq!(
            governing_contexts(&[(false, None), (false, Some(0)), (false, Some(5))]),
            vec![None, None, None]
        );
    }

    #[test]
    fn section_content_collects_until_next_context() {
        let (s, dir) = setup("section");
        s.ingest(&upmark("plan-a.wdoc", WDOC)).unwrap();
        let v = s.begin_read().unwrap();
        let (rid, _) = v.contexts_labeled("Budget").unwrap().remove(0);
        let content = v.section_content(rid).unwrap();
        assert_eq!(content.name, "Content");
        let txt = content.text_content();
        assert!(txt.contains("two"));
        assert!(txt.contains("dollars"));
        assert!(!txt.contains("three years"), "stops at the next context");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiple_documents_isolated() {
        let (s, dir) = setup("multi");
        let a = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
        let b = s
            .ingest(&upmark("b.txt", "# Budget\nother money\n"))
            .unwrap();
        assert_ne!(a.doc_id, b.doc_id);
        let v = s.begin_read().unwrap();
        let hits = v.contexts_labeled("Budget").unwrap();
        assert_eq!(hits.len(), 2, "both documents have a Budget context");
        let docs = v.list_docs().unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].file_name, "a.wdoc");
        assert_eq!(v.doc_by_name("b.txt").unwrap().unwrap().doc_id, b.doc_id);
        assert!(v.doc_by_name("zzz").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A document whose sections nest three deep, each with a context and
    /// content, beside a flat sibling section.
    fn nested_doc(name: &str) -> Document {
        let section = |label: &str, body: &str| {
            Node::element("section")
                .with_child(Node::context("Heading", label))
                .with_child(Node::element("Content").with_text(body))
        };
        let root = Node::element("doc")
            .with_child(section("Budget", "two million").with_child(
                section("Travel", "four trips").with_child(section("Hotels", "ten nights")),
            ))
            .with_child(section("Schedule", "three years"));
        Document::new(name, "xml", root)
    }

    /// Every `XML` row of document `doc`, through a fresh view.
    fn xml_rows_of(s: &NodeStore, doc: DocId) -> Vec<(RowId, NodeRow)> {
        s.begin_read()
            .unwrap()
            .xml
            .scan()
            .unwrap()
            .into_iter()
            .map(|(rid, row)| (rid, decode_node(&row).unwrap()))
            .filter(|(_, row)| row.doc_id == doc)
            .collect()
    }

    #[test]
    fn remove_document_erases_nodes() {
        let (s, dir) = setup("rm");
        let a = s.ingest(&nested_doc("a.xml")).unwrap();
        let b = s.ingest(&nested_doc("b.xml")).unwrap();
        let b_rows = xml_rows_of(&s, b.doc_id);
        assert_eq!(b_rows.len(), b.node_count);
        let removed = s.remove_document(a.doc_id).unwrap();
        let expected: Vec<NodeId> = (a.root_node..a.root_node + a.node_count as u64).collect();
        assert_eq!(removed, expected, "every node, ascending");
        assert!(xml_rows_of(&s, a.doc_id).is_empty(), "no row of a survives");
        assert_eq!(xml_rows_of(&s, b.doc_id), b_rows, "b is untouched");
        let v = s.begin_read().unwrap();
        assert_eq!(v.contexts_labeled("Hotels").unwrap().len(), 1);
        assert!(v.doc_info(a.doc_id).is_err());
        assert!(v.doc_info(b.doc_id).is_ok());
        assert!(s.remove_document(a.doc_id).is_err(), "double remove errors");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_store_creates_only_the_probed_indexes() {
        let (_s, dir) = setup("catalog");
        let catalog = netmark_relstore::catalog::Catalog::load(&dir).unwrap();
        let names: Vec<&str> = catalog.indexes.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            vec!["doc_by_id", "doc_by_name", "xml_by_ctxkey", "xml_by_nodeid"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removal_maintains_indexes_of_an_older_store() {
        let dir = std::env::temp_dir().join(format!("netmark-store-old-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).unwrap();
        // The index set stores were created with before `xml_by_doc` and
        // `xml_by_parent` were dropped.
        db.create_table(XML_TABLE, xml_schema()).unwrap();
        db.create_index(XML_TABLE, "xml_by_nodeid", &["NODEID"], true)
            .unwrap();
        db.create_index(XML_TABLE, "xml_by_doc", &["DOC_ID"], false)
            .unwrap();
        db.create_index(XML_TABLE, "xml_by_ctxkey", &["CTXKEY"], false)
            .unwrap();
        db.create_index(XML_TABLE, "xml_by_parent", &["PARENTNODEID"], false)
            .unwrap();
        let s = NodeStore::open(db).unwrap();
        let a = s.ingest(&nested_doc("a.xml")).unwrap();
        let b = s.ingest(&nested_doc("b.xml")).unwrap();
        s.remove_document(a.doc_id).unwrap();
        let v = s.begin_read().unwrap();
        let by_doc = |doc: DocId| {
            v.xml
                .index_lookup("xml_by_doc", &[Value::Int(doc)])
                .unwrap()
        };
        let by_parent = |node: NodeId| {
            v.xml
                .index_lookup("xml_by_parent", &[Value::Int(node as i64)])
                .unwrap()
        };
        assert!(by_doc(a.doc_id).is_empty());
        assert_eq!(by_doc(b.doc_id).len(), b.node_count);
        for node in a.root_node..a.root_node + a.node_count as u64 {
            assert!(
                by_parent(node).is_empty(),
                "children of removed node {node}"
            );
        }
        assert_eq!(by_parent(b.root_node).len(), 2);
        assert_eq!(
            v.reconstruct_via_index(b.root_node).unwrap(),
            nested_doc("b.xml").root
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removal_pins_no_view_across_its_checkpointing_commit() {
        let dir = std::env::temp_dir().join(format!("netmark-store-rmckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let max_view_lag = std::time::Duration::from_secs(4);
        let opts = netmark_relstore::DbOptions {
            // Every commit checkpoints, and a checkpoint waits up to
            // `max_view_lag` for any view older than the commit.
            checkpoint_wal_bytes: 1,
            max_view_lag,
            ..Default::default()
        };
        let s = NodeStore::open(Database::open_with(&dir, opts).unwrap()).unwrap();
        let a = s.ingest(&nested_doc("a.xml")).unwrap();
        let started = std::time::Instant::now();
        s.remove_document(a.doc_id).unwrap();
        let took = started.elapsed();
        assert!(took < max_view_lag / 4, "removal waited {took:?}");
        let stats = s.database().mvcc_stats();
        assert_eq!(stats.views_evicted, 0);
        assert_eq!(stats.live_views, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_persist_across_reopen() {
        let dir = std::env::temp_dir().join(format!("netmark-store-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first_ids;
        {
            let db = Database::open(&dir).unwrap();
            let s = NodeStore::open(db).unwrap();
            let rep = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
            first_ids = (rep.doc_id, rep.root_node + rep.node_count as u64);
            s.database().checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        let s = NodeStore::open(db).unwrap();
        let rep = s.ingest(&upmark("b.wdoc", WDOC)).unwrap();
        assert!(rep.doc_id > first_ids.0, "doc ids keep ascending");
        assert!(rep.root_node >= first_ids.1, "node ids keep ascending");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_entries_ascend_and_cover_text() {
        let (s, dir) = setup("entries");
        let rep = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
        let ids: Vec<NodeId> = rep.index_entries.iter().map(|e| e.node).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "entries ascend (text index contract)");
        let texts: Vec<&str> = rep.index_entries.iter().map(|e| e.text.as_str()).collect();
        assert!(texts.contains(&"Budget"), "context labels are indexed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_entries_match_ingest_entries() {
        let (s, dir) = setup("rebuild");
        let rep = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
        let all = s.all_text_entries().unwrap();
        assert_eq!(all, rep.index_entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_batch_matches_sequential_ingest() {
        let (batch, bdir) = setup("batch");
        let (seq, sdir) = setup("seq");
        let docs = vec![
            upmark("a.wdoc", WDOC),
            upmark("b.txt", "# Budget\nother money\n"),
            upmark("c.html", "<html><body><h1>S</h1><p>text</p></body></html>"),
        ];
        let breps = batch.ingest_batch(&docs).unwrap();
        let sreps: Vec<_> = docs.iter().map(|d| seq.ingest(d).unwrap()).collect();
        assert_eq!(breps.len(), sreps.len());
        for (b, s) in breps.iter().zip(&sreps) {
            assert_eq!(b.doc_id, s.doc_id);
            assert_eq!(b.root_node, s.root_node);
            assert_eq!(b.node_count, s.node_count);
            assert_eq!(b.index_entries, s.index_entries);
        }
        assert_eq!(
            batch.all_text_entries().unwrap(),
            seq.all_text_entries().unwrap()
        );
        let (bv, sv) = (batch.begin_read().unwrap(), seq.begin_read().unwrap());
        for rep in &breps {
            assert_eq!(
                bv.reconstruct_document(rep.doc_id).unwrap().root,
                sv.reconstruct_document(rep.doc_id).unwrap().root
            );
        }
        assert!(batch.ingest_batch(&[]).unwrap().is_empty());
        std::fs::remove_dir_all(&bdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }

    #[test]
    fn generation_bumps_on_ingest_and_remove_and_persists() {
        let dir = std::env::temp_dir().join(format!("netmark-store-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen_after;
        {
            let db = Database::open(&dir).unwrap();
            let s = NodeStore::open(db).unwrap();
            assert_eq!(s.generation(), 0);
            let rep = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
            assert_eq!(s.generation(), 1);
            s.ingest_batch(&[upmark("b.wdoc", WDOC), upmark("c.wdoc", WDOC)])
                .unwrap();
            assert_eq!(s.generation(), 2, "one bump per batch");
            s.remove_document(rep.doc_id).unwrap();
            assert_eq!(s.generation(), 3, "removal bumps too");
            gen_after = s.generation();
            s.database().checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        let s = NodeStore::open(db).unwrap();
        assert_eq!(s.generation(), gen_after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_traversal_matches_rowid_traversal() {
        let (s, dir) = setup("ablation");
        let rep = s.ingest(&upmark("a.wdoc", WDOC)).unwrap();
        // The store keeps no parent-id index; the baseline builds its own.
        s.database()
            .create_index(XML_TABLE, "xml_by_parent", &["PARENTNODEID"], false)
            .unwrap();
        let v = s.begin_read().unwrap();
        let (root_rid, _) = v.node_by_id(rep.root_node).unwrap().unwrap();
        let via_rowid = v.reconstruct(root_rid).unwrap();
        let via_index = v.reconstruct_via_index(rep.root_node).unwrap();
        assert_eq!(via_rowid, via_index);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
