//! Cross-crate edge cases: adversarial documents, big documents, empty
//! inputs, unicode, and concurrent access.

use netmark::{NetMark, NetMarkOptions, RankMode, XdbBackend, XdbQuery};
use netmark_federation::{ContentOnlySource, Router};
use netmark_shard::{ShardOptions, ShardedStore};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("netmark-edge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn empty_and_whitespace_documents() {
    let dir = scratch("empty");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("empty.txt", "").unwrap();
    nm.insert_file("blank.txt", "   \n\n\t  \n").unwrap();
    assert_eq!(nm.list_documents().unwrap().len(), 2);
    // They contribute nothing to any query but don't break anything.
    assert!(nm.query(&XdbQuery::content("anything")).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unicode_content_and_headings() {
    let dir = scratch("unicode");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file(
        "übersicht.txt",
        "# Résumé\nnaïve café — ✓ übermäßig\n# Büdget\n一千万円\n",
    )
    .unwrap();
    let rs = nm.query(&XdbQuery::context("Résumé")).unwrap();
    assert_eq!(rs.len(), 1);
    assert!(rs.hits[0].content_text().contains("café"));
    // Case-insensitive context match applies Unicode lowercasing.
    let rs = nm.query(&XdbQuery::context("résumé")).unwrap();
    assert_eq!(rs.len(), 1);
    let rs = nm.query(&XdbQuery::content("一千万円")).unwrap();
    assert_eq!(rs.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn xml_injection_in_document_text_is_inert() {
    let dir = scratch("inject");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file(
        "evil.txt",
        "# Attack\n<script>alert(1)</script> &amp; </Content><Context>Fake</Context>\n",
    )
    .unwrap();
    let rs = nm.query(&XdbQuery::context("Attack")).unwrap();
    assert_eq!(rs.len(), 1);
    // The markup-looking text is stored as *text*; the synthetic "Fake"
    // context does not exist.
    assert!(nm.query(&XdbQuery::context("Fake")).unwrap().is_empty());
    // And the serialized results re-parse (escaping is correct).
    let xml = rs.to_xml();
    let cfg = netmark_sgml::NodeTypeConfig::xml_default();
    let reparsed = netmark_sgml::parse_xml(&xml, &cfg).unwrap();
    assert!(reparsed
        .text_content()
        .contains("<script>alert(1)</script>"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn document_larger_than_one_page() {
    let dir = scratch("big");
    let nm = NetMark::open(&dir).unwrap();
    // One section whose content paragraph is ~100 KiB: far beyond a single
    // 8 KiB page; the store must still round-trip it (tuple size permits
    // ~8 KiB per node, so the upmarker's paragraph splitting matters).
    let mut text = String::from("# Huge\n");
    for i in 0..2000 {
        text.push_str(&format!(
            "paragraph number {i} with sentinel word zebra{i}\n\n"
        ));
    }
    nm.insert_file("huge.txt", &text).unwrap();
    let rs = nm.query(&XdbQuery::content("zebra1999")).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.hits[0].context, "Huge");
    let info = nm.document_by_name("huge.txt").unwrap().unwrap();
    let doc = nm.reconstruct_document(info.doc_id).unwrap();
    assert!(doc.root.size() > 2000);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn many_sections_one_document() {
    let dir = scratch("sections");
    let nm = NetMark::open(&dir).unwrap();
    let mut text = String::new();
    for i in 0..500 {
        text.push_str(&format!("# Section {i}\nbody {i}\n"));
    }
    nm.insert_file("many.txt", &text).unwrap();
    let rs = nm.query(&XdbQuery::context("Section 250")).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.hits[0].content_text(), "body 250");
    // The unconstrained query sees all 500 sections.
    let q = XdbQuery {
        doc: Some("many.txt".into()),
        ..XdbQuery::default()
    };
    assert_eq!(nm.query(&q).unwrap().len(), 500);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_readers_during_writes() {
    let dir = scratch("concurrent");
    let nm = Arc::new(NetMark::open(&dir).unwrap());
    for i in 0..20 {
        nm.insert_file(&format!("seed{i}.txt"), "# Budget\nseed money\n")
            .unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let nm = Arc::clone(&nm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut total = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
                    assert!(rs.len() >= 20);
                    total += rs.len();
                }
                total
            })
        })
        .collect();
    // Writer thread: 30 more documents while readers hammer.
    for i in 0..30 {
        nm.insert_file(&format!("w{i}.txt"), "# Budget\nwriter money\n")
            .unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    assert_eq!(nm.query(&XdbQuery::context("Budget")).unwrap().len(), 50);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn context_labels_with_query_syntax_characters() {
    let dir = scratch("syntax");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file(
        "odd.txt",
        "# Cost & Schedule = Risk?\nspecial heading body\n",
    )
    .unwrap();
    // Percent-encoding carries the label through the URL path.
    let url = format!(
        "Context={}",
        netmark_xdb::url_encode("Cost & Schedule = Risk?")
    );
    let rs = nm.query_url(&url).unwrap().results().unwrap();
    assert_eq!(rs.len(), 1);
    assert!(rs.hits[0].content_text().contains("special heading body"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `Context=` label with no searchable terms (`---`) matches only a
/// heading it equals: the phrase fallback has nothing to look up, so it
/// finds nothing. Plain, sharded and federated stores agree, and such a
/// label adds nothing to a `|` union.
#[test]
fn untokenisable_context_label_matches_nothing() {
    let dir = scratch("dashes");
    let docs = [
        (
            "plan.txt",
            "# Budget\nfive million\n# Schedule\nlaunch in May\n",
        ),
        ("risk.txt", "# Risks\nthe technology gap\n"),
        ("notes.txt", "# Summary\nnothing to report\n"),
    ];
    let plain = NetMark::open(&dir.join("plain")).unwrap();
    let sharded = ShardedStore::open_with(
        &dir.join("sharded"),
        ShardOptions {
            shards: 2,
            netmark: NetMarkOptions::default(),
        },
    )
    .unwrap();
    for (name, body) in docs {
        plain.insert_file(name, body).unwrap();
        XdbBackend::insert_file(&sharded, name, body).unwrap();
    }
    let mut router = Router::new();
    let raw = docs.iter().map(|(n, b)| (n.to_string(), b.to_string()));
    let source = ContentOnlySource::new("llis", raw.collect());
    router.register_source(Arc::new(source)).unwrap();
    router.define_databank("bank", &["llis"]).unwrap();

    let dashes = XdbQuery::context("---");
    assert_eq!(plain.query(&dashes).unwrap().len(), 0, "plain");
    assert_eq!(sharded.query(&dashes).unwrap().len(), 0, "sharded");
    let federated = router.query("bank", &dashes).unwrap();
    assert!(!federated.degraded());
    assert_eq!(federated.results.len(), 0, "federated");

    // A `Content=` with no searchable terms matches nothing either, in
    // every mode and deployment: it is a clause that matches no section,
    // never the unconstrained query that answers every one.
    let rank = |q: XdbQuery| q.with_rank(RankMode::Bm25);
    for q in [
        XdbQuery::content("---"),
        rank(XdbQuery::content("---")),
        XdbQuery::content("---").with_phrase_match(),
        rank(XdbQuery::content("---").with_phrase_match()),
    ] {
        assert_eq!(plain.query(&q).unwrap().len(), 0, "plain {q}");
        assert_eq!(sharded.query(&q).unwrap().len(), 0, "sharded {q}");
        let federated = router.query("bank", &q).unwrap();
        assert!(!federated.degraded(), "{q}");
        assert_eq!(federated.results.len(), 0, "federated {q}");
    }
    let labelled = XdbQuery::context_content("Budget", "---");
    assert_eq!(plain.query(&labelled).unwrap().len(), 0, "plain {labelled}");
    assert_eq!(
        sharded.query(&labelled).unwrap().len(),
        0,
        "sharded {labelled}"
    );

    let budget = XdbQuery::context("Budget");
    let union = XdbQuery::context("--- | Budget");
    let want = plain.query(&budget).unwrap();
    assert_eq!(want.len(), 1);
    assert_eq!(plain.query(&union).unwrap().to_xml(), want.to_xml());
    assert_eq!(
        sharded.query(&union).unwrap().to_xml(),
        sharded.query(&budget).unwrap().to_xml()
    );
    let federated = router.query("bank", &budget).unwrap().results;
    assert_eq!(federated.len(), 1);
    assert_eq!(
        router.query("bank", &union).unwrap().results.to_xml(),
        federated.to_xml(),
        "content-only source"
    );
    drop((plain, sharded));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_file_name_is_a_key() {
    // A second insert of a stored name replaces the live document.
    let dir = scratch("dupnames");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("same.txt", "# Budget\nfirst\n").unwrap();
    nm.insert_file("same.txt", "# Budget\nsecond\n").unwrap();
    let docs = nm.list_documents().unwrap();
    assert_eq!(docs.len(), 1);
    assert_eq!(docs[0].file_name, "same.txt");
    let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.hits[0].content_text(), "second");
    assert!(nm.query(&XdbQuery::content("first")).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stylesheet_replacement_takes_effect() {
    let dir = scratch("ssreplace");
    let nm = NetMark::open(&dir).unwrap();
    nm.insert_file("a.txt", "# Budget\nmoney\n").unwrap();
    nm.register_stylesheet(
        "r",
        "<xsl:stylesheet><xsl:template match=\"/\"><v1/></xsl:template></xsl:stylesheet>",
    )
    .unwrap();
    let out = nm
        .query_url("Context=Budget&xslt=r")
        .unwrap()
        .composed()
        .unwrap();
    assert_eq!(out.name, "v1");
    nm.register_stylesheet(
        "r",
        "<xsl:stylesheet><xsl:template match=\"/\"><v2/></xsl:template></xsl:stylesheet>",
    )
    .unwrap();
    let out = nm
        .query_url("Context=Budget&xslt=r")
        .unwrap()
        .composed()
        .unwrap();
    assert_eq!(out.name, "v2");
    assert_eq!(nm.stylesheet_names(), vec!["r".to_string()]);
    std::fs::remove_dir_all(&dir).unwrap();
}
