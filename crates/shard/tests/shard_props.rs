//! Property test: an N-shard [`ShardedStore`] is byte-identical to a
//! single-store reference over random interleavings of batched ingest,
//! deletions, and queries. Ingest re-ingests live names and repeats names
//! within a batch: a file name is a key in both stores.
//!
//! Both stores replay the same operation history; after every `Query` op
//! (and once at the end) the full query battery — exact context, fallback
//! context, union labels, single- and multi-term content, phrase match,
//! combined context+content, doc filter, limit truncation, unconstrained —
//! must render the same XML bytes: same hits, same order, same
//! `candidates` count, same `truncated` flag.

use netmark::{NetMark, XdbBackend};
use netmark_docformats::upmark;
use netmark_model::Document;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const NAMES: &[&str] = &[
    "alpha.txt",
    "beta.txt",
    "gamma.wdoc",
    "delta.txt",
    "epsilon.txt",
    "zeta.html",
    "eta.txt",
    "theta.txt",
    "iota.txt",
    "kappa.txt",
    "lambda.txt",
    "mu.txt",
];

const HEADINGS: &[&str] = &[
    "Budget",
    "Budget Overview FY05",
    "Technology Gap",
    "Schedule",
    "Cost Details",
    "Summary",
];

const VOCAB: &[&str] = &[
    "million",
    "dollars",
    "shuttle",
    "engine",
    "gap",
    "shrinking",
    "growing",
    "apollo",
    "risk",
    "schedule",
    "saturn",
    "itemized",
];

/// One step of the random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-ingest documents: `(name, heading, words)` selectors. A name
    /// that is live, or repeats within the batch, replaces its document.
    Ingest(Vec<(u8, u8, Vec<u8>)>),
    /// Remove one live document (selector modulo the live count).
    Delete(u8),
    /// Run the full query battery and compare both stores byte-for-byte.
    Query,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let doc = (
        0u8..NAMES.len() as u8,
        0u8..HEADINGS.len() as u8,
        proptest::collection::vec(0u8..VOCAB.len() as u8, 1..6),
    );
    prop_oneof![
        proptest::collection::vec(doc, 1..6).prop_map(Op::Ingest),
        (0u8..255u8).prop_map(Op::Delete),
        Just(Op::Query),
    ]
}

fn make_doc(name_sel: u8, heading_sel: u8, words: &[u8]) -> Document {
    let name = NAMES[name_sel as usize % NAMES.len()];
    let heading = HEADINGS[heading_sel as usize % HEADINGS.len()];
    let body: Vec<&str> = words
        .iter()
        .map(|&w| VOCAB[w as usize % VOCAB.len()])
        .collect();
    upmark(name, &format!("# {heading}\n{}\n", body.join(" ")))
}

/// Every query shape the engine supports, including ones that exercise
/// the global fallback decision, limit pushdown, and doc routing.
fn battery() -> Vec<XdbQuery> {
    let mut doc_filtered = XdbQuery::context("Budget|Summary");
    doc_filtered.doc = Some("delta.txt".to_string());
    let mut doc_content = XdbQuery::content("million");
    doc_content.doc = Some("alpha.txt".to_string());
    vec![
        XdbQuery::context("Budget"),
        XdbQuery::context("Technology Gap"),
        XdbQuery::context("Budget|Cost Details"),
        XdbQuery::content("million"),
        XdbQuery::content("gap shrinking"),
        XdbQuery::content("the gap is"),
        XdbQuery::content("shuttle engine").with_phrase_match(),
        XdbQuery::context_content("Budget", "million dollars"),
        XdbQuery::context("Budget").with_limit(2),
        XdbQuery::content("million").with_limit(1),
        doc_filtered,
        doc_content,
        XdbQuery::default(),
    ]
}

fn compare_battery(
    sharded: &ShardedStore,
    reference: &NetMark,
    step: usize,
) -> Result<(), TestCaseError> {
    for q in battery() {
        let s = sharded
            .query(&q)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let r = reference
            .query(&q)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let (s_xml, r_xml) = (s.to_xml(), r.to_xml());
        if s_xml != r_xml {
            return Err(TestCaseError::fail(format!(
                "step {step}: sharded != reference for {q:?}\nsharded:   {s_xml}\nreference: {r_xml}"
            )));
        }
    }
    Ok(())
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nm-shard-props-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn sharded_store_is_byte_identical_to_single_store(
        shards in 2usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..32)
    ) {
        let sdir = scratch_dir("sharded");
        let rdir = scratch_dir("ref");
        let _ = std::fs::remove_dir_all(&sdir);
        let _ = std::fs::remove_dir_all(&rdir);
        let sharded = ShardedStore::open_with(
            &sdir,
            ShardOptions { shards, ..ShardOptions::default() },
        )
        .unwrap();
        let reference = NetMark::open(&rdir).unwrap();

        let mut live: Vec<&str> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Ingest(specs) => {
                    let mut batch: Vec<Document> = Vec::new();
                    for (n, h, words) in specs {
                        let name = NAMES[*n as usize % NAMES.len()];
                        batch.push(make_doc(*n, *h, words));
                        if !live.contains(&name) {
                            live.push(name);
                        }
                    }
                    let s = sharded.ingest_batch(&batch).unwrap();
                    let r = reference.ingest_batch(&batch).unwrap();
                    prop_assert_eq!(s.len(), r.len());
                }
                Op::Delete(sel) => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live.remove(*sel as usize % live.len());
                    prop_assert!(ShardedStore::remove_named(&sharded, name).unwrap());
                    prop_assert!(XdbBackend::remove_named(&reference, name).unwrap());
                }
                Op::Query => compare_battery(&sharded, &reference, step)?,
            }
        }
        compare_battery(&sharded, &reference, usize::MAX)?;

        // Listings agree on names and global order (ids are store-local).
        let s_names: Vec<String> = sharded
            .list_documents().unwrap().into_iter().map(|d| d.file_name).collect();
        let r_names: Vec<String> = reference
            .list_documents().unwrap().into_iter().map(|d| d.file_name).collect();
        prop_assert_eq!(s_names, r_names);

        std::fs::remove_dir_all(&sdir).unwrap();
        std::fs::remove_dir_all(&rdir).unwrap();
    }
}
