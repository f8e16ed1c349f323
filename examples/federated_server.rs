//! The deployed Fig-8 shape: a thin-router HTTP endpoint federating a
//! local NETMARK and a content-search-only remote, all reachable through
//! one XDB URL with `databank=`.
//!
//! ```sh
//! cargo run --example federated_server
//! ```

use netmark::NetMark;
use netmark_corpus::{anomaly_reports, lessons_learned, CorpusConfig};
use netmark_federation::{
    serve_router_with, ContentOnlySource, FrontendConfig, NetmarkSource, Router,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn http(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("write");
    // Half-close: the keep-alive server closes after seeing EOF.
    s.shutdown(std::net::Shutdown::Write).expect("shutdown");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("netmark-fed-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Local engine with anomaly reports.
    let nm = Arc::new(NetMark::open(&base.join("store"))?);
    for d in anomaly_reports(&CorpusConfig::sized(30)) {
        nm.insert_file(&d.name, &d.content)?;
    }
    // Remote, content-search-only Lessons Learned server.
    let llis = ContentOnlySource::new(
        "llis",
        lessons_learned(&CorpusConfig::sized(20))
            .into_iter()
            .map(|d| (d.name, d.content))
            .collect(),
    );
    let mut router = Router::new();
    router.register_source(Arc::new(NetmarkSource::new("anomaly-db", Arc::clone(&nm))))?;
    router.register_source(Arc::new(llis))?;
    router.define_databank("anomaly-tracking", &["anomaly-db", "llis"])?;

    // The router shares the WebDAV server's bounded front end — same
    // knobs, same timeout discipline, same <server/> stats element.
    let cfg = FrontendConfig {
        max_conns: 4096,
        idle_timeout: Duration::from_secs(15),
        read_budget: Duration::from_secs(5),
        ..FrontendConfig::default()
    };
    let h = serve_router_with(Arc::new(router), Some(nm.clone()), "127.0.0.1:0", cfg)?;
    println!("federated NETMARK router on http://{}", h.addr());

    // One URL, two sources, capability augmentation on the weak one.
    let resp = http(
        h.addr(),
        "GET /xdb?databank=anomaly-tracking&Context=Summary|Corrective+Action&Content=engine&limit=5 HTTP/1.1\r\n\r\n",
    );
    let body = &resp[resp.find("\r\n\r\n").map(|i| i + 4).unwrap_or(0)..];
    println!("federated answer:\n{body}\n");

    // The same endpoint serves local-only queries when no databank is named.
    let resp = http(
        h.addr(),
        "GET /xdb?Context=Disposition&limit=2 HTTP/1.1\r\n\r\n",
    );
    let body = &resp[resp.find("\r\n\r\n").map(|i| i + 4).unwrap_or(0)..];
    println!("local-only answer:\n{body}");

    println!("front end: {}", h.server_stats().to_node().to_xml());

    h.stop();
    std::fs::remove_dir_all(&base)?;
    Ok(())
}
