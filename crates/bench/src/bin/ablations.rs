//! Design-choice ablations called out in DESIGN.md.
//!
//! 1. **ROWID traversal vs key-index traversal** — the paper: "we have
//!    exploited the feature of physical row-ids in Oracle for very fast
//!    traversal between nodes that are related." Reconstruct document
//!    subtrees by chasing `CHILDROWID`/`SIBLINGID` pointers vs resolving
//!    children through a `PARENTNODEID` B-tree index, which the harness
//!    builds on its scratch store (the store itself keeps none).
//! 2. **Node-granular text index vs document-granular + rescan** — the
//!    combined `Context=X & Content=Y` query needs to know *where* in the
//!    document a term occurred; a document-granular index must re-scan
//!    candidate documents.
//! 3. **Buffer pool size** — the no-steal CLOCK pool under a query
//!    workload with a cold cache.

use netmark::schema::XML_TABLE;
use netmark::{NetMark, NetMarkOptions, XdbQuery};
use netmark_bench::{banner, fmt_dur, load_netmark, median_of, TableWriter, TempDir};
use netmark_corpus::{mixed, query_workload, CorpusConfig};
use netmark_federation::match_document;
use netmark_relstore::DbOptions;

fn rowid_vs_index() {
    println!("\n-- ablation 1: ROWID traversal vs key-index traversal");
    let mut t = TableWriter::new(&[
        "docs reconstructed",
        "via ROWID chase",
        "via B-tree index",
        "slowdown",
    ]);
    let docs = mixed(&CorpusConfig::sized(300));
    let scratch = TempDir::new("abl-rowid");
    let nm = load_netmark(scratch.path(), &docs);
    // The store keeps no parent-id index; build the baseline's (backfilled
    // from the stored rows) before pinning the view that reads it.
    nm.store()
        .database()
        .create_index(XML_TABLE, "xml_by_parent", &["PARENTNODEID"], false)
        .expect("create xml_by_parent");
    let view = nm.store().begin_read().expect("pin a view");
    let infos = view.list_docs().expect("list");
    for &k in &[50usize, 300] {
        let sample: Vec<_> = infos.iter().take(k).collect();
        let (_, rowid_t) = median_of(3, || {
            for info in &sample {
                let (rid, _) = view
                    .node_by_id(info.root_node)
                    .expect("node")
                    .expect("exists");
                let node = view.reconstruct(rid).expect("reconstruct");
                assert!(node.size() > 1);
            }
        });
        let (_, index_t) = median_of(3, || {
            for info in &sample {
                let node = view
                    .reconstruct_via_index(info.root_node)
                    .expect("reconstruct");
                assert!(node.size() > 1);
            }
        });
        t.row(&[
            k.to_string(),
            fmt_dur(rowid_t),
            fmt_dur(index_t),
            format!("{:.1}x", index_t.as_secs_f64() / rowid_t.as_secs_f64()),
        ]);
    }
    t.print();
}

fn index_granularity() {
    println!("\n-- ablation 2: node-granular text index vs document-granular + rescan");
    let mut t = TableWriter::new(&[
        "corpus docs",
        "query",
        "node-granular",
        "doc-granular + rescan",
        "slowdown",
    ]);
    for &n in &[500usize, 2000] {
        let docs = mixed(&CorpusConfig::sized(n));
        let scratch = TempDir::new("abl-gran");
        let nm = load_netmark(scratch.path(), &docs);
        let q = XdbQuery::context_content("Budget", "engine");
        // Node-granular: the engine's native path.
        let (rs_node, node_t) = median_of(5, || nm.query(&q).expect("query"));
        // Document-granular: find documents whose text contains the terms
        // (content search at document granularity), then fetch and rescan
        // each candidate to locate the sections.
        let (rs_doc_hits, doc_t) = median_of(5, || {
            let content_hits = nm.query(&XdbQuery::content("engine")).expect("content");
            let mut doc_names: Vec<&str> = Vec::new();
            for h in &content_hits.hits {
                if !doc_names.contains(&h.doc.as_str()) {
                    doc_names.push(&h.doc);
                }
            }
            let mut hits = 0usize;
            for name in doc_names {
                let info = nm.document_by_name(name).expect("doc").expect("exists");
                let doc = nm.reconstruct_document(info.doc_id).expect("reconstruct");
                hits += match_document(&doc, &q).len();
            }
            hits
        });
        assert_eq!(rs_node.len(), rs_doc_hits, "both strategies agree");
        t.row(&[
            n.to_string(),
            "Context=Budget & Content=engine".to_string(),
            fmt_dur(node_t),
            fmt_dur(doc_t),
            format!("{:.1}x", doc_t.as_secs_f64() / node_t.as_secs_f64()),
        ]);
    }
    t.print();
}

fn bufpool_sweep() {
    println!("\n-- ablation 3: buffer pool size (cold-cache query workload)");
    let mut t = TableWriter::new(&[
        "pool pages",
        "pool MiB",
        "workload wall",
        "hits",
        "misses",
        "evictions",
    ]);
    let docs = mixed(&CorpusConfig::sized(1500));
    let base = TempDir::new("abl-pool");
    // Build once, checkpoint, then reopen per pool size (cold cache).
    {
        let nm = load_netmark(&base.join("store"), &docs);
        nm.flush().expect("flush");
    }
    let workload = query_workload(7, 50);
    for &pages in &[64usize, 256, 4096] {
        let opts = NetMarkOptions {
            db: DbOptions {
                pool_pages: pages,
                ..DbOptions::default()
            },
            ..NetMarkOptions::default()
        };
        let nm = NetMark::open_with(&base.join("store"), opts).expect("reopen");
        let ((), wall) = netmark_bench::time(|| {
            for (label, term) in &workload {
                nm.query(&XdbQuery::context_content(label, term))
                    .expect("query");
            }
        });
        let stats = nm.store().database().pool_stats();
        t.row(&[
            pages.to_string(),
            format!("{:.1}", pages as f64 * 8.0 / 1024.0),
            fmt_dur(wall),
            stats.hits.to_string(),
            stats.misses.to_string(),
            stats.evictions.to_string(),
        ]);
    }
    t.print();
}

fn durability_sweep() {
    println!("\n-- ablation 4: commit durability (fsync per commit vs checkpoint-only)");
    let mut t = TableWriter::new(&["sync_commits", "docs", "ingest wall", "docs/s"]);
    let docs = mixed(&CorpusConfig::sized(400));
    for &sync in &[true, false] {
        let scratch = TempDir::new("abl-sync");
        let opts = NetMarkOptions {
            db: DbOptions {
                sync_commits: sync,
                ..DbOptions::default()
            },
            ..NetMarkOptions::default()
        };
        let nm = NetMark::open_with(scratch.path(), opts).expect("open");
        let ((), wall) = netmark_bench::time(|| {
            for d in &docs {
                nm.insert_file(&d.name, &d.content).expect("ingest");
            }
        });
        t.row(&[
            sync.to_string(),
            docs.len().to_string(),
            fmt_dur(wall),
            format!("{:.0}", docs.len() as f64 / wall.as_secs_f64()),
        ]);
    }
    t.print();
}

fn main() {
    banner(
        "ABLATIONS",
        "design-choice ablations (DESIGN.md §4)",
        "physical ROWID pointers, node-granular indexing, and a modest \
         buffer pool are each load-bearing for the paper's 'fast' claims",
    );
    rowid_vs_index();
    index_granularity();
    bufpool_sweep();
    durability_sweep();
    println!(
        "\nreading: every chase through a B-tree instead of a ROWID multiplies \
         traversal cost; rescanning documents instead of indexing nodes \
         multiplies combined-query cost. Buffer-pool misses drop to ~zero \
         once the working set fits (32 MiB here); wall time barely moves \
         because the OS page cache sits behind the pool at this scale — \
         the pool's job is bounding memory, not hiding a cold disk."
    );
}
