//! The full Fig-3 pipeline: drop folder → daemon → SGML parser →
//! schema-less store → HTTP/XDB access, all live in one process.
//!
//! ```sh
//! cargo run --example webdav_server
//! ```
//!
//! The example drops files into the watched folder, waits for the daemon,
//! then issues real HTTP requests against the server it started.

use netmark::NetMark;
use netmark_webdav::{serve_with, watch_folder, FrontendConfig};
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
    let base = std::env::temp_dir().join(format!("netmark-server-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let drop_dir = base.join("dropbox");
    std::fs::create_dir_all(&drop_dir)?;

    let nm = Arc::new(NetMark::open(&base.join("store"))?);
    let daemon = watch_folder(nm.clone(), &drop_dir, Duration::from_millis(50));
    // Production-style front-end tuning: every knob bounded. Defaults
    // are fine too — `serve` uses `FrontendConfig::default()`.
    let cfg = FrontendConfig {
        max_conns: 4096,                       // fd budget
        max_per_client: 64,                    // per-IP fairness
        idle_timeout: Duration::from_secs(15), // keep-alive reap
        read_budget: Duration::from_secs(5),   // slow-loris kill
        ..FrontendConfig::default()
    };
    let server = serve_with(nm.clone(), "127.0.0.1:0", cfg)?;
    println!("NETMARK serving on http://{}", server.addr());
    println!("drop folder: {}", drop_dir.display());

    // A user drags two documents into the folder…
    std::fs::write(
        drop_dir.join("plan.wdoc"),
        "<<Title>> Plan\n<<Heading1>> Budget\n<<Normal>> two million\n",
    )?;
    std::fs::write(
        drop_dir.join("notes.txt"),
        "# Budget\npetty cash only\n# Risks\nnone\n",
    )?;
    // …the daemon picks them up.
    while daemon.stats().ingested < 2 {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("daemon ingested {} files", daemon.stats().ingested);

    // A third document arrives over WebDAV PUT instead.
    let body = "# Budget\nuploaded via PUT\n";
    let resp = http(
        server.addr(),
        &format!(
            "PUT /docs/uploaded.txt HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    println!(
        "PUT /docs/uploaded.txt → {}",
        resp.lines().next().unwrap_or("")
    );

    // List the collection (WebDAV PROPFIND).
    let resp = http(server.addr(), "PROPFIND /docs HTTP/1.1\r\n\r\n");
    println!(
        "PROPFIND /docs → {} ({} documents listed)",
        resp.lines().next().unwrap_or(""),
        resp.matches("<response>").count()
    );

    // Query everything with one XDB URL.
    let resp = http(server.addr(), "GET /xdb?Context=Budget HTTP/1.1\r\n\r\n");
    let body_at = resp.find("\r\n\r\n").map(|i| i + 4).unwrap_or(0);
    println!("GET /xdb?Context=Budget →");
    println!("{}", &resp[body_at..]);

    // Operators read the same counters from GET /xdb/stats (<server/>).
    println!("front end: {}", server.server_stats().to_node().to_xml());

    server.stop();
    daemon.stop();
    std::fs::remove_dir_all(&base)?;
    Ok(())
}
