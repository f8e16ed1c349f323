//! End-to-end pipeline integration: raw files of every format → upmark →
//! schema-less store → the paper's query shapes → XSLT composition →
//! reconstruction, plus persistence across reopen.

use netmark::{NetMark, XdbQuery};
use netmark_corpus::{mixed, CorpusConfig};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netmark-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn mixed_corpus_full_pipeline() {
    let dir = scratch("pipeline");
    let nm = NetMark::open(&dir).unwrap();
    let docs = mixed(&CorpusConfig::sized(60));
    for d in &docs {
        nm.insert_file(&d.name, &d.content).unwrap();
    }
    let stats = nm.stats().unwrap();
    assert_eq!(stats.documents, docs.len());
    assert!(
        stats.nodes > docs.len() * 5,
        "documents decomposed into nodes"
    );

    // Every generated wdoc/sdoc document has a Budget section.
    let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert!(
        rs.len() >= docs.len() / 3,
        "Budget sections found: {}",
        rs.len()
    );
    // Hits carry non-empty content and correct labels.
    for hit in &rs.hits {
        assert_eq!(hit.context, "Budget");
        assert!(!hit.doc.is_empty());
    }

    // Content search across formats.
    let rs = nm.query(&XdbQuery::content("engine")).unwrap();
    assert!(!rs.is_empty());

    // Composition through a registered stylesheet.
    nm.register_stylesheet(
        "wrap",
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <composed><xsl:for-each select="hit">
                 <part doc="{@doc}"><xsl:value-of select="Content"/></part>
               </xsl:for-each></composed>
             </xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    let out = nm
        .query_url("Context=Budget&xslt=wrap&limit=10")
        .unwrap()
        .composed()
        .unwrap();
    assert_eq!(out.name, "composed");
    assert_eq!(out.find_all("part").len(), 10);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reconstruction_is_lossless_for_all_formats() {
    let dir = scratch("lossless");
    let nm = NetMark::open(&dir).unwrap();
    let docs = mixed(&CorpusConfig::sized(12));
    for d in &docs {
        let upmarked = netmark_docformats::upmark(&d.name, &d.content);
        let rep = nm.insert_document(&upmarked).unwrap();
        let back = nm.reconstruct_document(rep.doc_id).unwrap();
        assert_eq!(
            back.root, upmarked.root,
            "lossless round trip for {}",
            d.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queries_survive_reopen_and_reindex() {
    let dir = scratch("reopen");
    let docs = mixed(&CorpusConfig::sized(30));
    let expected;
    {
        let nm = NetMark::open(&dir).unwrap();
        for d in &docs {
            nm.insert_file(&d.name, &d.content).unwrap();
        }
        expected = nm.query(&XdbQuery::context("Budget")).unwrap();
        nm.flush().unwrap();
    }
    // Reopen with the persisted text index.
    {
        let nm = NetMark::open(&dir).unwrap();
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.hits, expected.hits);
    }
    // Delete the index directory: rebuilt from the store.
    std::fs::remove_dir_all(dir.join("text.idx.d")).unwrap();
    {
        let nm = NetMark::open(&dir).unwrap();
        let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
        assert_eq!(rs.hits, expected.hits);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_recovery_preserves_committed_documents() {
    let dir = scratch("crash");
    let docs = mixed(&CorpusConfig::sized(20));
    {
        let nm = NetMark::open(&dir).unwrap();
        for d in &docs {
            nm.insert_file(&d.name, &d.content).unwrap();
        }
        // Simulated crash: drop without flush/checkpoint. The WAL has every
        // commit; data pages were never written back.
    }
    let nm = NetMark::open(&dir).unwrap();
    assert_eq!(nm.list_documents().unwrap().len(), docs.len());
    let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert!(!rs.is_empty(), "indexes rebuilt after recovery");
    // The store remains writable after recovery.
    nm.insert_file("after-crash.txt", "# Budget\npost-crash money\n")
        .unwrap();
    let rs = nm.query(&XdbQuery::content("post-crash")).unwrap();
    assert_eq!(rs.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_readers_during_batch_ingest() {
    let dir = scratch("concurrent");
    let nm = std::sync::Arc::new(NetMark::open(&dir).unwrap());
    // Seed a little data so readers have something from the first poll.
    nm.insert_file("seed.txt", "# Budget\nseed money\n")
        .unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let nm = std::sync::Arc::clone(&nm);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_docs = 0usize;
                let mut polls = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Stats never error and never go backwards (single
                    // writer, committed-snapshot visibility).
                    let s = nm.stats().unwrap();
                    assert!(s.documents >= last_docs, "doc count regressed");
                    last_docs = s.documents;
                    // Every hit the query returns must resolve to a live,
                    // fully linked document: each query pins one committed
                    // MVCC view, so it can never observe a half-ingested
                    // batch.
                    let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
                    for hit in &rs.hits {
                        assert_eq!(hit.context, "Budget");
                        assert!(!hit.doc.is_empty());
                    }
                    polls += 1;
                }
                polls
            })
        })
        .collect();

    let docs = mixed(&CorpusConfig::sized(120));
    let parsed: Vec<_> = docs
        .iter()
        .map(|d| netmark_docformats::upmark(&d.name, &d.content))
        .collect();
    for chunk in parsed.chunks(16) {
        nm.ingest_batch(chunk).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        let polls = r.join().expect("reader thread panicked");
        assert!(polls > 0, "reader never got to run");
    }
    let stats = nm.stats().unwrap();
    assert_eq!(stats.documents, docs.len() + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn document_lifecycle_updates_results() {
    let dir = scratch("lifecycle");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("a.txt", "# Budget\nversion one\n").unwrap();
    let v1 = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert!(v1.hits[0].content_text().contains("version one"));
    // Replace by remove + re-insert.
    let info = nm.document_by_name("a.txt").unwrap().unwrap();
    nm.remove_document(info.doc_id).unwrap();
    nm.insert_file("a.txt", "# Budget\nversion two\n").unwrap();
    let v2 = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert_eq!(v2.len(), 1);
    assert!(v2.hits[0].content_text().contains("version two"));
    // Replace by re-insert alone: a file name is a key.
    nm.insert_file("a.txt", "# Budget\nversion three\n")
        .unwrap();
    let v3 = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert_eq!(v3.len(), 1);
    assert!(v3.hits[0].content_text().contains("version three"));
    assert_eq!(nm.list_documents().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
