//! HTTP serving for databanks — the deployed shape of Fig 8.
//!
//! Applications reach the thin router the same way they reach a single
//! NETMARK: an XDB URL. A query naming `databank=` fans out through the
//! [`Router`]; queries without one fall through to the local engine (when
//! there is one). The router adds *no* other middleware surface — no
//! schema endpoints, no mapping admin — because there are no schemas and
//! no mappings.

use crate::databank::Router;
use netmark::XdbBackend;
use netmark_netserve::FrontendConfig;
use netmark_webdav::{handle as local_handle, respond_query, serve_http, Request, Response};
use netmark_xdb::{Capabilities, XdbQuery};
use std::net::TcpListener;
use std::sync::Arc;

/// A running federated server: the same handle as the NETMARK server's,
/// because both serve through [`serve_http`]. Dropping it stops it.
pub type FederatedServerHandle = netmark_webdav::ServerHandle;

/// Dispatches one request against the router (+ optional local engine).
pub fn handle_federated(
    router: &Router,
    local: Option<&dyn XdbBackend>,
    req: &Request,
) -> Response {
    // A federated endpoint is a full XDB peer to its own clients: whatever
    // a source cannot evaluate, the router augments. Routers therefore
    // federate transitively — a RemoteSource can point at another router.
    if req.method == "GET" && req.path == "/xdb/capabilities" {
        return Response::new(200).with_xml(&Capabilities::FULL.to_xml());
    }
    if req.method == "GET" && req.path == "/xdb" {
        // Parse once; both the federated and local arms get the same
        // parsed query (the local arm used to re-parse inside the WebDAV
        // handler, a second code path that could — and did — drift).
        let qs = req.query.as_deref().unwrap_or("");
        return match XdbQuery::from_url(qs) {
            Ok(q) => match &q.databank {
                Some(bank) => match router.query(bank, &q) {
                    Ok(fr) => {
                        let mut resp = Response::new(200).with_xml(&fr.results.to_xml());
                        if fr.degraded() {
                            resp = resp.with_header("X-Netmark-Degraded", "true");
                        }
                        resp
                    }
                    Err(e) => Response::new(404).with_text(&e.to_string()),
                },
                None => match local {
                    Some(nm) => respond_query(nm, &q),
                    None => Response::new(404).with_text("no databank named and no local store"),
                },
            },
            Err(e) => Response::new(400).with_text(&format!("bad xdb query: {e}")),
        };
    }
    match local {
        Some(nm) => local_handle(nm, req),
        None => Response::new(404).with_text("no databank named and no local store"),
    }
}

/// Starts the federated server on `bind` with the default
/// [`FrontendConfig`].
pub fn serve_router(
    router: Arc<Router>,
    local: Option<Arc<dyn XdbBackend>>,
    bind: &str,
) -> std::io::Result<FederatedServerHandle> {
    serve_router_with(router, local, bind, FrontendConfig::default())
}

/// [`serve_router`] with explicit front-end tuning (worker count, queue
/// depth, admission caps, idle/read budgets — see [`FrontendConfig`]).
/// The same bounded front end as the NETMARK server: one timeout
/// discipline for both endpoints, instead of the federated server's old
/// raw `TcpStream` handlers that never set a read timeout.
pub fn serve_router_with(
    router: Arc<Router>,
    local: Option<Arc<dyn XdbBackend>>,
    bind: &str,
    cfg: FrontendConfig,
) -> std::io::Result<FederatedServerHandle> {
    let sources = Arc::clone(&router);
    serve_http(
        TcpListener::bind(bind)?,
        cfg,
        local.clone(),
        move || Some(sources.source_stats()),
        move |req: &Request| handle_federated(&router, local.as_deref(), req),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{ContentOnlySource, NetmarkSource};
    use netmark::NetMark;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        // Half-close so the keep-alive server sees EOF and closes its side.
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn federated_url_query_over_http() {
        let base = std::env::temp_dir().join(format!("netmark-fsrv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let nm = Arc::new(NetMark::open(&base.join("local")).unwrap());
        nm.insert_file("local.txt", "# Budget\nlocal money\n")
            .unwrap();
        let llis = ContentOnlySource::new(
            "llis",
            vec![(
                "remote.txt".to_string(),
                "# Budget\nremote money\n".to_string(),
            )],
        );
        let mut router = Router::new();
        router
            .register_source(Arc::new(NetmarkSource::new("local", Arc::clone(&nm))))
            .unwrap();
        router.register_source(Arc::new(llis)).unwrap();
        router.define_databank("apps", &["local", "llis"]).unwrap();

        let h = serve_router(Arc::new(router), Some(nm.clone() as _), "127.0.0.1:0").unwrap();

        // Federated query: both sources answer.
        let resp = request(
            h.addr(),
            "GET /xdb?databank=apps&Context=Budget HTTP/1.1\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("local money"));
        assert!(resp.contains("remote money"));
        assert!(resp.contains("source=\"llis\""));

        // No databank: served by the local engine only.
        let resp = request(h.addr(), "GET /xdb?Context=Budget HTTP/1.1\r\n\r\n");
        assert!(resp.contains("local money"));
        assert!(!resp.contains("remote money"));

        // Unknown databank → 404.
        let resp = request(
            h.addr(),
            "GET /xdb?databank=ghost&Context=Budget HTTP/1.1\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

        // The router advertises full capabilities (it augments weakness).
        let resp = request(h.addr(), "GET /xdb/capabilities HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("context-search=\"true\""), "{resp}");

        // Malformed queries get a typed 400 from the shared parser.
        let resp = request(h.addr(), "GET /xdb?databank=apps&limit=x HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("limit"), "{resp}");

        h.stop();
        std::fs::remove_dir_all(&base).unwrap();
    }
}
