//! Property test: the text index's placements agree with the store walk.
//!
//! Every indexed node carries its document id and governing-context node
//! id in the text index, computed by the writer at ingest (and again when
//! the index is rebuilt from the store). The query path trusts those
//! values instead of walking the store, so they must equal what
//! `StoreView::node_by_id` and `StoreView::governing_context` report for
//! every live indexed node — after each seal, after compaction, after a
//! save → load round trip, and after a rebuild from the store — over
//! random ingest/remove histories of nested documents.

use netmark::{Document, NetMark, NetMarkOptions, QueryEngineOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("netmark-place-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const WORDS: &[&str] = &["budget", "engine", "gap", "orbit", "risk", "schedule"];

/// One piece of a generated document.
#[derive(Debug, Clone)]
enum Block {
    /// A heading (a CONTEXT) of this level and word.
    Heading(u8, u8),
    /// A paragraph of these words.
    Para(Vec<u8>),
    /// A paragraph with an emphasized run, one level deeper.
    Emphasis(u8, u8),
    /// Opens a nested container.
    Open,
    /// Closes the innermost open container, if any.
    Close,
}

fn block_strategy() -> impl Strategy<Value = Block> {
    prop_oneof![
        (1u8..4, 0u8..6).prop_map(|(l, w)| Block::Heading(l, w)),
        proptest::collection::vec(0u8..6, 1..4).prop_map(Block::Para),
        (0u8..6, 0u8..6).prop_map(|(a, b)| Block::Emphasis(a, b)),
        Just(Block::Open),
        Just(Block::Close),
    ]
}

fn word(w: u8) -> &'static str {
    WORDS[w as usize % WORDS.len()]
}

/// Renders blocks as HTML (nested containers put contexts at several
/// depths, so the preceding-sibling rule runs at every ancestor level) or,
/// for odd documents, as plain text (where text before the first heading
/// has no governing context).
fn render(i: usize, blocks: &[Block]) -> (String, String) {
    if i % 2 == 1 {
        let mut out = String::new();
        for b in blocks {
            match b {
                Block::Heading(_, w) => out.push_str(&format!("# {}\n", word(*w))),
                Block::Para(ws) => {
                    let line: Vec<&str> = ws.iter().map(|w| word(*w)).collect();
                    out.push_str(&format!("{}\n", line.join(" ")));
                }
                Block::Emphasis(a, b) => out.push_str(&format!("{} **{}**\n", word(*a), word(*b))),
                Block::Open | Block::Close => {}
            }
        }
        return (format!("d{i}.txt"), out);
    }
    let mut out = String::from("<html><body>");
    let mut depth = 0usize;
    for b in blocks {
        match b {
            Block::Heading(l, w) => out.push_str(&format!("<h{l}>{}</h{l}>", word(*w))),
            Block::Para(ws) => {
                let line: Vec<&str> = ws.iter().map(|w| word(*w)).collect();
                out.push_str(&format!("<p>{}</p>", line.join(" ")));
            }
            Block::Emphasis(a, b) => {
                out.push_str(&format!("<p>{} <b>{}</b></p>", word(*a), word(*b)))
            }
            Block::Open => {
                out.push_str("<div>");
                depth += 1;
            }
            Block::Close if depth > 0 => {
                out.push_str("</div>");
                depth -= 1;
            }
            Block::Close => {}
        }
    }
    out.push_str(&"</div>".repeat(depth));
    out.push_str("</body></html>");
    (format!("d{i}.html"), out)
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest these documents in one batch (one seal).
    Ingest(Vec<Vec<Block>>),
    /// Remove one stored document (selector modulo the count).
    Remove(u8),
    /// Run index compaction to convergence.
    Compact,
    /// Flush, close and reopen: the saved index is loaded.
    SaveLoad,
    /// Close, drop the saved index and reopen: it is rebuilt.
    Rebuild,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(proptest::collection::vec(block_strategy(), 1..12), 1..4)
            .prop_map(Op::Ingest),
        (0u8..255).prop_map(Op::Remove),
        Just(Op::Compact),
        Just(Op::SaveLoad),
        Just(Op::Rebuild),
    ]
}

fn open(dir: &Path) -> NetMark {
    let options = NetMarkOptions {
        query: QueryEngineOptions {
            workers: 0,
            cache_capacity: 0,
            ..QueryEngineOptions::default()
        },
        // Aggressive merges so short histories compact and purge.
        index_compaction: netmark::CompactionPolicy {
            small_postings: 64,
            max_segments: 3,
            tombstone_percent: 10,
        },
        background_compaction: false,
        ..NetMarkOptions::default()
    };
    NetMark::open_with(dir, options).expect("open")
}

/// Every live indexed node's placement equals the store's answer, and the
/// index holds exactly the store's indexed nodes.
fn check(nm: &NetMark, when: &str) -> Result<(), TestCaseError> {
    let view = nm.store().begin_read().expect("pin a view");
    let snap = nm.text_index().snapshot();
    let mut live = 0usize;
    for seg in snap.segments() {
        for &id in seg.ids() {
            if snap.tombstones().contains(&id) {
                continue;
            }
            live += 1;
            let placement = snap.placement(id);
            prop_assert!(
                placement.is_some(),
                "{}: node {} has no placement",
                when,
                id
            );
            let placement = placement.expect("checked");
            let stored = view.node_by_id(id).expect("probe");
            prop_assert!(stored.is_some(), "{}: indexed node {} not stored", when, id);
            let (rid, row) = stored.expect("checked");
            prop_assert!(
                placement.doc == row.doc_id as u64,
                "{}: node {} indexed in doc {}, stored in {}",
                when,
                id,
                placement.doc,
                row.doc_id
            );
            let walked = view
                .governing_context(rid)
                .expect("walk")
                .map(|(_, ctx)| ctx.node_id);
            prop_assert!(
                placement.context == walked,
                "{}: node {} indexed under context {:?}, walk finds {:?}",
                when,
                id,
                placement.context,
                walked
            );
        }
    }
    let stored = nm.store().all_text_entries().expect("scan");
    prop_assert!(
        live == stored.len(),
        "{}: {} live indexed nodes, {} stored",
        when,
        live,
        stored.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_placements_equal_store_walk(
        ops in proptest::collection::vec(op_strategy(), 1..14)
    ) {
        let dir = scratch("walk");
        let mut nm = open(&dir);
        let mut next = 0usize;
        for op in &ops {
            match op {
                Op::Ingest(docs) => {
                    let docs: Vec<Document> = docs
                        .iter()
                        .map(|blocks| {
                            next += 1;
                            let (name, text) = render(next, blocks);
                            netmark_docformats::upmark(&name, &text)
                        })
                        .collect();
                    nm.ingest_batch(&docs).expect("ingest");
                    check(&nm, "after a seal")?;
                }
                Op::Remove(sel) => {
                    let docs = nm.list_documents().expect("list");
                    if docs.is_empty() {
                        continue;
                    }
                    let victim = &docs[*sel as usize % docs.len()];
                    nm.remove_document(victim.doc_id).expect("remove");
                    check(&nm, "after a removal")?;
                }
                Op::Compact => {
                    nm.text_index().compact();
                    check(&nm, "after compaction")?;
                }
                Op::SaveLoad => {
                    nm.flush().expect("flush");
                    drop(nm);
                    nm = open(&dir);
                    prop_assert_eq!(nm.text_index().stats().seals, 0);
                    check(&nm, "after save and load")?;
                }
                Op::Rebuild => {
                    nm.flush().expect("flush");
                    drop(nm);
                    std::fs::remove_dir_all(dir.join("text.idx.d")).expect("drop the index");
                    nm = open(&dir);
                    check(&nm, "after a rebuild")?;
                }
            }
        }
        drop(nm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
