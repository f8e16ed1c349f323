//! Golden shape of the `GET /xdb/stats` document on both servers.
//!
//! One 2-shard store is served twice over loopback: by a plain WebDAV
//! server, and as the local store of a federated router with one remote
//! peer. Both documents come from one renderer, so they must carry the
//! same root attributes and the same `<query>`, `<index>`, `<mvcc>` and
//! `<shards>` children; the federated one adds the router's `<sources>`.
//! The element and attribute names are pinned exactly: renaming a served
//! counter is a wire change that scrapers (fig12's `shed=`) notice.

use netmark::{NetMark, NetMarkOptions, XdbBackend};
use netmark_federation::{
    serve_router, ClientConfig, HttpClient, RemoteConfig, RemoteSource, Router,
};
use netmark_model::Node;
use netmark_sgml::{parse_xml, NodeTypeConfig};
use netmark_shard::{ShardOptions, ShardedStore};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;

/// Every element of the WebDAV server's document in document order, with
/// its attributes in served order.
const PLAIN: &str = "
    stats: cache-hit-rate mean-latency-us uptime stats-generation
    query: queries cache-hits cache-misses candidates heap-evictions memo-hits
           memo-misses index-us walk-us intersect-us collect-us total-us
    index: docs terms postings postings-bytes segments tombstones commits seals compactions
           segments-merged postings-purged ids-purged saves segments-written
    mvcc: version live-views views-opened views-evicted publishes overlay-pages overlay-bytes
    shards: count
    shard: id docs size pending queries
    server: accepted requests active queued parked shed client-rejects waits-served
            waits-parked idle-reaped read-timeouts write-errors deadline-overruns
            accept-errors panics";

/// What the federated server adds ahead of `<query/>`: the router's
/// per-source health.
const SOURCES: &str = "
    sources:
    source: name queries failures hits total-latency-us max-latency-us breaker-opens
            short-circuits mean-latency-us";

/// `name: attr …` for every distinct element, in document order.
fn shape(doc: &Node) -> String {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for n in doc.iter().filter(|n| seen.insert(n.name.as_str())) {
        out.push(format!("{}:", n.name));
        out.extend(n.attrs.iter().map(|(k, _)| k.clone()));
    }
    out.join(" ")
}

fn squash(listing: &str) -> String {
    listing.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn get(addr: SocketAddr, path: &str) -> String {
    let client = HttpClient::new(&addr.to_string(), ClientConfig::default()).unwrap();
    let resp = client.get(path).unwrap();
    assert_eq!(resp.status, 200, "{path}: {}", resp.body_text());
    resp.body_text()
}

fn stats(addr: SocketAddr) -> Node {
    parse_xml(&get(addr, "/xdb/stats"), &NodeTypeConfig::empty()).unwrap()
}

fn child<'a>(doc: &'a Node, name: &str) -> &'a Node {
    let found = doc.children_named(name);
    assert_eq!(found.len(), 1, "one <{name}>");
    found[0]
}

#[test]
fn both_servers_serve_one_stats_document() {
    let base = std::env::temp_dir().join(format!("netmark-statsdoc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // The remote peer: a plain store behind its own WebDAV server.
    let peer = Arc::new(NetMark::open(&base.join("peer")).unwrap());
    peer.insert_file("peer.txt", "# Budget\npeer money\n")
        .unwrap();
    let peer_srv = netmark_webdav::serve(peer, "127.0.0.1:0").unwrap();

    // The local store: two shards, no background compaction, so nothing
    // moves between the two scrapes but the view counters.
    let local = Arc::new(
        ShardedStore::open_with(
            &base.join("local"),
            ShardOptions {
                shards: 2,
                netmark: NetMarkOptions {
                    background_compaction: false,
                    ..NetMarkOptions::default()
                },
            },
        )
        .unwrap(),
    );
    for (name, body) in [
        ("a.txt", "# Budget\nlocal money\n"),
        ("b.txt", "# Budget\nmore money\n"),
        ("c.txt", "# Schedule\nlate\n"),
    ] {
        XdbBackend::insert_file(&*local, name, body).unwrap();
    }

    let mut router = Router::new();
    let remote = RemoteSource::connect(
        "peer",
        &peer_srv.addr().to_string(),
        RemoteConfig::default(),
    )
    .unwrap();
    router.register_source(Arc::new(remote)).unwrap();
    router.define_databank("bank", &["peer"]).unwrap();
    let fed = serve_router(Arc::new(router), Some(local.clone() as _), "127.0.0.1:0").unwrap();
    let dav = netmark_webdav::serve(local, "127.0.0.1:0").unwrap();

    assert!(get(fed.addr(), "/xdb?databank=bank&Context=Budget").contains("peer money"));
    for _ in 0..2 {
        assert!(get(dav.addr(), "/xdb?Context=Budget").contains("local money"));
    }

    let plain = stats(dav.addr());
    let federated = stats(fed.addr());
    assert_eq!(shape(&plain), squash(PLAIN), "WebDAV /xdb/stats shape");
    let with_sources = PLAIN.replacen("query:", &format!("{SOURCES} query:"), 1);
    assert_eq!(shape(&federated), squash(&with_sources), "federated shape");

    // One renderer: the same root attributes and the same store children.
    for attr in ["cache-hit-rate", "mean-latency-us"] {
        assert_eq!(plain.attr(attr), federated.attr(attr), "root {attr}");
    }
    assert_eq!(plain.attr("stats-generation"), Some("1"));
    assert_eq!(federated.attr("stats-generation"), Some("1"));
    assert_eq!(stats(dav.addr()).attr("stats-generation"), Some("2"));
    for name in ["query", "index", "shards"] {
        assert_eq!(child(&plain, name), child(&federated, name), "<{name}>");
    }
    // Each scrape pins read views (the shard document counts), so only
    // the MVCC version is stable between the two documents.
    assert_eq!(
        child(&plain, "mvcc").attr("version"),
        child(&federated, "mvcc").attr("version")
    );

    let query = child(&plain, "query");
    assert_eq!(query.attr("queries"), Some("4"), "2 queries x 2 shards");
    assert_eq!(query.attr("cache-hits"), Some("2"));
    assert_eq!(query.attr("cache-misses"), Some("2"));
    assert_eq!(child(&plain, "mvcc").attr("live-views"), Some("0"));
    assert_eq!(child(&plain, "shards").attr("count"), Some("2"));
    for shard in child(&plain, "shards").children_named("shard") {
        assert_eq!(
            shard.attr("queries"),
            Some("2"),
            "each query fans out to both"
        );
    }
    let source = child(child(&federated, "sources"), "source");
    assert_eq!(source.attr("name"), Some("peer"));
    assert_eq!(source.attr("queries"), Some("1"));

    fed.stop();
    dav.stop();
    peer_srv.stop();
    std::fs::remove_dir_all(&base).unwrap();
}
