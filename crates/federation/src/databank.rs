//! Databanks and the thin router.
//!
//! "This is done through a simple declarative process where an
//! administrator creates a 'Databank' for an application. The databank
//! specifies what sources are to be queried when a user fires a query to
//! that application" (§2.1.5). The router is the entirety of the
//! middleware — "middleware requirements are reduced to needing just a thin
//! router capability across the various information sources" — it holds no
//! schemas and no mappings, only the source lists.

use crate::adapter::{Capabilities, SourceAdapter, SourceError};
use crate::matcher::{match_document, score_hits};
use netmark::{merge_hits, scatter, SourceMetrics, SourceStats};
use netmark_xdb::{Hit, RankMode, ResultSet, XdbQuery};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on the [`default_max_fanout`] heuristic. Federation latency is
/// dominated by source round-trips, not local CPU, so past this point more
/// threads only add contention on the merge.
pub const DEFAULT_MAX_FANOUT: usize = 8;

/// Default cap on concurrent source queries per federated query:
/// `min(available_parallelism, `[`DEFAULT_MAX_FANOUT`]`)`, so a 4-core box
/// does not spawn 8 fan-out threads per query. Every [`Router`] uses it.
pub fn default_max_fanout() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(DEFAULT_MAX_FANOUT)
        .min(DEFAULT_MAX_FANOUT)
}

/// A declared databank: an application's source list. This — a name and a
/// list of source names — is the *complete* integration specification; its
/// size is what the Fig 1 experiment measures on the NETMARK side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Databank {
    /// Application name.
    pub name: String,
    /// Sources queried when a query names this databank.
    pub sources: Vec<String>,
}

impl Databank {
    /// The declarative spec text (one line per field — the artifact whose
    /// line count is the NETMARK integration cost).
    pub fn spec(&self) -> String {
        let mut s = format!("databank {}\n", self.name);
        for src in &self.sources {
            s.push_str("  source ");
            s.push_str(src);
            s.push('\n');
        }
        s
    }

    /// Parses a spec produced by [`Databank::spec`].
    pub fn parse(text: &str) -> Option<Databank> {
        let mut name = None;
        let mut sources = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(n) = line.strip_prefix("databank ") {
                name = Some(n.trim().to_string());
            } else if let Some(s) = line.strip_prefix("source ") {
                sources.push(s.trim().to_string());
            }
        }
        Some(Databank {
            name: name?,
            sources,
        })
    }

    /// Number of spec lines — the integration-cost unit for Fig 1.
    pub fn spec_lines(&self) -> usize {
        1 + self.sources.len()
    }
}

/// Router errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// Databank name not declared.
    NoSuchDatabank(String),
    /// Source name not registered.
    NoSuchSource(String),
    /// Name collision on registration.
    Duplicate(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::NoSuchDatabank(n) => write!(f, "no databank '{n}'"),
            RouterError::NoSuchSource(n) => write!(f, "no source '{n}'"),
            RouterError::Duplicate(n) => write!(f, "'{n}' already registered"),
        }
    }
}

impl std::error::Error for RouterError {}

/// What happened at one source during a federated query.
#[derive(Debug, Clone)]
pub struct SourceOutcome {
    /// Source name.
    pub source: String,
    /// The (possibly weakened) query actually pushed to the source.
    pub pushed: XdbQuery,
    /// Whether the router had to augment (re-evaluate the residual).
    pub augmented: bool,
    /// Hits contributed after augmentation.
    pub hits: usize,
    /// Documents fetched back for augmentation.
    pub documents_fetched: usize,
    /// Wall time this source took (including augmentation fetches, or the
    /// time spent discovering a failure).
    pub latency: Duration,
    /// The query was answered from the breaker, not the wire.
    pub short_circuited: bool,
    /// Error, if the source failed (the query continues without it).
    pub error: Option<String>,
}

/// A federated answer: merged results + per-source diagnostics.
#[derive(Debug, Clone)]
pub struct FederatedResult {
    /// Merged hits, tagged with their source.
    pub results: ResultSet,
    /// Per-source report, in databank order.
    pub outcomes: Vec<SourceOutcome>,
}

impl FederatedResult {
    /// True if at least one source failed.
    pub fn degraded(&self) -> bool {
        self.outcomes.iter().any(|o| o.error.is_some())
    }
}

/// The thin router: source registry + databank registry. No schemas, no
/// mappings, no view definitions — *that is the point*.
pub struct Router {
    adapters: BTreeMap<String, Arc<dyn SourceAdapter>>,
    databanks: BTreeMap<String, Databank>,
    metrics: BTreeMap<String, Arc<SourceMetrics>>,
    max_fanout: usize,
}

impl Default for Router {
    fn default() -> Self {
        Router {
            adapters: BTreeMap::new(),
            databanks: BTreeMap::new(),
            metrics: BTreeMap::new(),
            max_fanout: default_max_fanout(),
        }
    }
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a source adapter.
    pub fn register_source(&mut self, adapter: Arc<dyn SourceAdapter>) -> Result<(), RouterError> {
        let name = adapter.name().to_string();
        if self.adapters.contains_key(&name) {
            return Err(RouterError::Duplicate(name));
        }
        self.metrics
            .insert(name.clone(), Arc::new(SourceMetrics::default()));
        self.adapters.insert(name, adapter);
        Ok(())
    }

    /// Per-source health counters: latency, failures, breaker activity.
    pub fn source_stats(&self) -> BTreeMap<String, SourceStats> {
        self.metrics
            .iter()
            .map(|(name, m)| {
                let mut s = m.snapshot();
                // Breaker opens are owned by the adapter's state machine
                // (only it knows when the threshold tripped); splice the
                // live counter into the router's view.
                if let Some(a) = self.adapters.get(name) {
                    s.breaker_opens = a.breaker_opens();
                }
                (name.clone(), s)
            })
            .collect()
    }

    /// Declares a databank over registered sources.
    pub fn define_databank(&mut self, name: &str, sources: &[&str]) -> Result<(), RouterError> {
        if self.databanks.contains_key(name) {
            return Err(RouterError::Duplicate(name.to_string()));
        }
        for s in sources {
            if !self.adapters.contains_key(*s) {
                return Err(RouterError::NoSuchSource(s.to_string()));
            }
        }
        self.databanks.insert(
            name.to_string(),
            Databank {
                name: name.to_string(),
                sources: sources.iter().map(|s| s.to_string()).collect(),
            },
        );
        Ok(())
    }

    /// Declared databank by name.
    pub fn databank(&self, name: &str) -> Option<&Databank> {
        self.databanks.get(name)
    }

    /// Total spec lines across all databanks (NETMARK's Fig 1 cost).
    pub fn total_spec_lines(&self) -> usize {
        self.databanks.values().map(Databank::spec_lines).sum()
    }

    /// Weakens `q` to what `caps` supports; returns `(pushed, residual)`.
    /// `residual = true` means the router must augment locally.
    fn decompose(q: &XdbQuery, caps: Capabilities) -> (XdbQuery, bool) {
        let mut pushed = q.clone();
        let mut residual = false;
        if q.context.is_some() && !caps.context_search {
            pushed.context = None;
            residual = true;
        }
        if q.content.is_some() && !caps.content_search {
            pushed.content = None;
            residual = true;
        }
        if !caps.structured_results && (q.context.is_some() || q.content.is_some()) {
            // Unsectioned answers always need local sectioning.
            residual = true;
        }
        let mut rank_stripped = false;
        if q.ranked() && !caps.ranked {
            // The source predates ranking (wire v1, or a content-only
            // server): push the same match set unranked and score the
            // answers here. This is not a residual — the *match set* is
            // fully evaluated at the source — but the limit still cannot
            // be pushed: an unranked source returns its first `limit`
            // hits, which need not be its best-scoring ones.
            pushed.rank = RankMode::None;
            rank_stripped = true;
        }
        // Limit pushdown: when the source evaluates the whole query (no
        // local post-processing) the global `limit=` is also a valid
        // per-source upper bound — no merged answer can use more than
        // `limit` hits from one source — so pushing it cuts wire traffic
        // from remote peers. Never push it when we post-process: the
        // residual filter may discard pushed hits, and truncating early
        // would lose answers. Global truncation still happens once, in
        // [`Router::query`].
        if residual || rank_stripped {
            pushed.limit = None;
        }
        // Score-floor pushdown (negotiated behind the `min-score`
        // capability bit): only a source that ranks natively and knows the
        // key gets it — an older peer's parser would reject the unknown
        // query key outright, and a residual-weakened or rank-stripped
        // query scores on a different axis than the floor describes. When
        // it cannot travel, the floor is applied router-side after
        // [`score_hits`] instead.
        if pushed.min_score.is_some() && !(caps.min_score && !rank_stripped && !residual) {
            pushed.min_score = None;
        }
        pushed.xslt = None; // composition happens at the client, once
        pushed.databank = None;
        (pushed, residual)
    }

    /// Queries one source, augmenting as needed.
    fn query_source(&self, adapter: &dyn SourceAdapter, q: &XdbQuery) -> (SourceOutcome, Vec<Hit>) {
        let start = Instant::now();
        let (mut outcome, hits) = self.query_source_inner(adapter, q);
        outcome.latency = start.elapsed();
        if let Some(m) = self.metrics.get(&outcome.source) {
            if outcome.short_circuited {
                m.record_short_circuit();
            }
            m.record_query(hits.len() as u64, outcome.latency, outcome.error.is_some());
        }
        (outcome, hits)
    }

    fn query_source_inner(
        &self,
        adapter: &dyn SourceAdapter,
        q: &XdbQuery,
    ) -> (SourceOutcome, Vec<Hit>) {
        let caps = adapter.capabilities();
        let (pushed, residual) = Router::decompose(q, caps);
        let mut outcome = SourceOutcome {
            source: adapter.name().to_string(),
            pushed: pushed.clone(),
            augmented: residual,
            hits: 0,
            documents_fetched: 0,
            latency: Duration::ZERO,
            short_circuited: false,
            error: None,
        };
        let initial = match adapter.search(&pushed) {
            Ok(rs) => rs,
            Err(e) => {
                outcome.short_circuited = matches!(e, SourceError::CircuitOpen(_));
                outcome.error = Some(e.to_string());
                return (outcome, Vec::new());
            }
        };
        let mut hits: Vec<Hit> = if residual {
            // Fetch each candidate document once; re-evaluate the full
            // query over it locally.
            let mut doc_names: Vec<&str> = Vec::new();
            for h in &initial.hits {
                if !doc_names.contains(&h.doc.as_str()) {
                    doc_names.push(&h.doc);
                }
            }
            let mut out = Vec::new();
            for name in doc_names {
                match adapter.fetch_document(name) {
                    Ok(doc) => {
                        outcome.documents_fetched += 1;
                        for mut hit in match_document(&doc, q) {
                            hit.source = adapter.name().to_string();
                            out.push(hit);
                        }
                    }
                    Err(e) => {
                        // Keep going; record the first fetch failure.
                        if outcome.error.is_none() {
                            outcome.error = Some(format!("fetch {name}: {e}"));
                        }
                    }
                }
            }
            out
        } else {
            initial
                .hits
                .into_iter()
                .map(|mut h| {
                    h.source = adapter.name().to_string();
                    h
                })
                .collect()
        };
        if q.ranked() {
            // Augmentation for the ranking fragment: hits from sources
            // that could not score (rank stripped, or residual-matched
            // locally) get a router-side relevance score so the merge
            // compares every hit on the same axis.
            score_hits(&mut hits, q);
            if let Some(floor) = q.min_score {
                if pushed.min_score.is_none() {
                    // The source never saw the floor; enforce it here with
                    // the same strict cut a capable peer applies.
                    hits.retain(|h| h.score.map(|s| s > floor).unwrap_or(false));
                }
            }
        }
        outcome.hits = hits.len();
        outcome.pushed = pushed;
        (outcome, hits)
    }

    /// Runs `q` against every source of `databank`, in parallel, merging
    /// the answers "on the fly". Failed sources degrade the answer rather
    /// than failing it.
    pub fn query(&self, databank: &str, q: &XdbQuery) -> Result<FederatedResult, RouterError> {
        let bank = self
            .databanks
            .get(databank)
            .ok_or_else(|| RouterError::NoSuchDatabank(databank.to_string()))?;
        let adapters: Vec<Arc<dyn SourceAdapter>> = bank
            .sources
            .iter()
            .map(|s| {
                self.adapters
                    .get(s)
                    .cloned()
                    .ok_or_else(|| RouterError::NoSuchSource(s.clone()))
            })
            .collect::<Result<_, _>>()?;
        // Fan out in parallel ("We can access multiple distributed
        // information sources simultaneously") through the shared bounded
        // scatter executor — the same code path the shard-per-core store
        // uses for local shards, here with a remote-adapter transport.
        let per_source: Vec<(SourceOutcome, Vec<Hit>)> =
            scatter(&adapters, self.max_fanout, |_, a| {
                self.query_source(a.as_ref(), q)
            });
        // Merge through the helper the shard-per-core store uses, keyed on
        // databank order; apply the limit once, globally. Unranked queries
        // keep databank order (the exact pre-v2 behaviour, byte for byte);
        // ranked queries order by score, tie-breaking on databank order.
        let mut keyed: Vec<(u64, Hit)> = Vec::new();
        let mut outcomes = Vec::with_capacity(per_source.len());
        for (ordinal, (o, hits)) in per_source.into_iter().enumerate() {
            keyed.extend(hits.into_iter().map(|h| (ordinal as u64, h)));
            outcomes.push(o);
        }
        let candidates = keyed.len();
        let (hits, truncated) = merge_hits(keyed, q.ranked(), q.limit);
        let results = ResultSet {
            hits,
            candidates,
            truncated,
            ranked: q.ranked(),
        };
        Ok(FederatedResult { results, outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{ContentOnlySource, FlakySource, NetmarkSource};
    use netmark::NetMark;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn temp_nm(tag: &str) -> (Arc<NetMark>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("netmark-fed-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Arc::new(NetMark::open(&dir).unwrap()), dir)
    }

    fn build_router(tag: &str) -> (Router, Vec<PathBuf>) {
        let (nm1, d1) = temp_nm(&format!("{tag}-a"));
        nm1.insert_file(
            "plan-a.wdoc",
            "<<Heading1>> Budget\n<<Normal>> two million dollars\n<<Heading1>> Risks\n<<Normal>> engine schedule slip\n",
        )
        .unwrap();
        let (nm2, d2) = temp_nm(&format!("{tag}-b"));
        nm2.insert_file("plan-b.txt", "# Budget\none million dollars\n")
            .unwrap();
        let llis = ContentOnlySource::new(
            "llis",
            vec![(
                "ll-1.txt".to_string(),
                "# Title\nEngine anomaly\n# Lesson\nInspect the harness\n".to_string(),
            )],
        );
        let mut router = Router::new();
        router
            .register_source(Arc::new(NetmarkSource::new("ames", nm1)))
            .unwrap();
        router
            .register_source(Arc::new(NetmarkSource::new("jsc", nm2)))
            .unwrap();
        router.register_source(Arc::new(llis)).unwrap();
        router
            .define_databank("apps", &["ames", "jsc", "llis"])
            .unwrap();
        (router, vec![d1, d2])
    }

    fn cleanup(dirs: Vec<PathBuf>) {
        for d in dirs {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn fans_out_to_all_sources() {
        let (router, dirs) = build_router("fan");
        let fr = router.query("apps", &XdbQuery::context("Budget")).unwrap();
        assert_eq!(fr.results.len(), 2, "both NETMARK peers answer");
        let sources: Vec<&str> = fr.results.hits.iter().map(|h| h.source.as_str()).collect();
        assert!(sources.contains(&"ames"));
        assert!(sources.contains(&"jsc"));
        assert!(!fr.degraded());
        assert_eq!(fr.outcomes.len(), 3);
        cleanup(dirs);
    }

    #[test]
    fn paper_llis_augmentation() {
        let (router, dirs) = build_router("aug");
        // Context=Title & Content=Engine: llis can only evaluate the
        // content part; the router augments the Title extraction.
        let fr = router
            .query("apps", &XdbQuery::context_content("Title", "Engine"))
            .unwrap();
        let llis_hits: Vec<_> = fr
            .results
            .hits
            .iter()
            .filter(|h| h.source == "llis")
            .collect();
        assert_eq!(llis_hits.len(), 1);
        assert_eq!(llis_hits[0].context, "Title");
        assert!(llis_hits[0].content_text().contains("Engine anomaly"));
        let o = fr.outcomes.iter().find(|o| o.source == "llis").unwrap();
        assert!(o.augmented);
        assert!(o.pushed.context.is_none(), "context was not pushed down");
        assert_eq!(o.pushed.content.as_deref(), Some("Engine"));
        assert_eq!(o.documents_fetched, 1);
        // The full NETMARK peers got the whole query pushed.
        let o = fr.outcomes.iter().find(|o| o.source == "ames").unwrap();
        assert!(!o.augmented);
        assert!(o.pushed.context.is_some());
        cleanup(dirs);
    }

    #[test]
    fn mixed_capability_ranked_merge_agrees_on_top_k() {
        // Deployment A: a ranked NETMARK peer + the unranked Lessons
        // Learned server. Deployment B: the same corpora as two full
        // NETMARK peers. Scores come from different scorers (peer BM25,
        // router TF augmentation, peer-local BM25 over different corpus
        // statistics), so the cross-deployment guarantee is *set* equality
        // of the top-k, not byte equality.
        let heavy = "# Report\nengine engine engine engine engine engine\n";
        let filler = "# Report\nfiller text only\n";
        let llis_docs = vec![
            ("ll-1.txt".to_string(), "# Title\nengine note\n".to_string()),
            ("ll-2.txt".to_string(), "# Title\nengine memo\n".to_string()),
        ];

        let (nm1, d1) = temp_nm("mix-a");
        nm1.insert_file("heavy1.txt", heavy).unwrap();
        nm1.insert_file("heavy2.txt", heavy).unwrap();
        for i in 0..6 {
            nm1.insert_file(&format!("filler{i}.txt"), filler).unwrap();
        }

        let mut mixed = Router::new();
        mixed
            .register_source(Arc::new(NetmarkSource::new("ames", Arc::clone(&nm1))))
            .unwrap();
        mixed
            .register_source(Arc::new(ContentOnlySource::new("llis", llis_docs.clone())))
            .unwrap();
        mixed.define_databank("apps", &["ames", "llis"]).unwrap();

        let (nm2, d2) = temp_nm("mix-b");
        for (n, text) in &llis_docs {
            nm2.insert_file(n, text).unwrap();
        }
        let mut full = Router::new();
        full.register_source(Arc::new(NetmarkSource::new("ames", Arc::clone(&nm1))))
            .unwrap();
        full.register_source(Arc::new(NetmarkSource::new("llis", nm2)))
            .unwrap();
        full.define_databank("apps", &["ames", "llis"]).unwrap();

        let q = XdbQuery::content("engine")
            .with_rank(RankMode::Bm25)
            .with_limit(2);
        let a = mixed.query("apps", &q).unwrap();
        let b = full.query("apps", &q).unwrap();
        assert!(a.results.ranked && b.results.ranked);
        assert!(
            a.results.hits.iter().all(|h| h.score.is_some()),
            "every merged hit is scored, augmented sources included"
        );
        let top = |fr: &FederatedResult| -> std::collections::BTreeSet<String> {
            fr.results.hits.iter().map(|h| h.doc.clone()).collect()
        };
        let expected: std::collections::BTreeSet<String> = ["heavy1.txt", "heavy2.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(top(&a), expected, "high-tf docs win the merged top-k");
        assert_eq!(
            top(&a),
            top(&b),
            "mixed-capability and all-full deployments agree on the top-k set"
        );

        // The unranked source had rank= (and therefore the limit) stripped
        // at pushdown; the ranked peer evaluated both natively.
        let llis_o = a.outcomes.iter().find(|o| o.source == "llis").unwrap();
        assert_eq!(llis_o.pushed.rank, RankMode::None);
        assert!(llis_o.pushed.limit.is_none());
        let ames_o = a.outcomes.iter().find(|o| o.source == "ames").unwrap();
        assert_eq!(ames_o.pushed.rank, RankMode::Bm25);
        assert_eq!(ames_o.pushed.limit, Some(2));

        cleanup(vec![d1, d2]);
    }

    #[test]
    fn min_score_pushes_to_capable_peers_and_filters_the_rest() {
        let (router, dirs) = build_router("floor");
        let base = XdbQuery::content("Engine").with_rank(RankMode::Bm25);
        // A floor of 0.0 keeps everything scoring positive — both the
        // NETMARK hit and the router-scored llis hit survive.
        let fr = router
            .query("apps", &base.clone().with_min_score(0.0))
            .unwrap();
        let sources: Vec<&str> = fr.results.hits.iter().map(|h| h.source.as_str()).collect();
        assert!(sources.contains(&"ames"));
        assert!(sources.contains(&"llis"));
        let ames = fr.outcomes.iter().find(|o| o.source == "ames").unwrap();
        assert_eq!(
            ames.pushed.min_score,
            Some(0.0),
            "negotiated peer evaluates the floor natively"
        );
        let llis = fr.outcomes.iter().find(|o| o.source == "llis").unwrap();
        assert!(
            llis.pushed.min_score.is_none(),
            "the floor key never reaches a peer that has not negotiated it"
        );
        // An unreachable floor filters every source's hits — the ranked
        // peer at the source, llis at the router after scoring.
        let fr = router
            .query("apps", &base.clone().with_min_score(1e9))
            .unwrap();
        assert!(fr.results.hits.is_empty());
        assert!(!fr.degraded());
        cleanup(dirs);
    }

    #[test]
    fn unranked_federated_answers_keep_v1_bytes_and_order() {
        // rank=none through the router is the exact pre-ranking pathway:
        // databank-order merge, no scores, wire-v1 rendering.
        let (router, dirs) = build_router("v1bytes");
        let fr = router.query("apps", &XdbQuery::context("Budget")).unwrap();
        assert!(!fr.results.ranked);
        assert!(fr.results.hits.iter().all(|h| h.score.is_none()));
        let xml = fr.results.to_xml();
        assert!(xml.contains("version=\"1\""), "{xml}");
        assert!(!xml.contains("score"), "{xml}");
        assert!(!xml.contains("ranked"), "{xml}");
        cleanup(dirs);
    }

    #[test]
    fn failed_source_degrades_gracefully() {
        let (nm1, d1) = temp_nm("deg-a");
        nm1.insert_file("p.txt", "# Budget\nmoney\n").unwrap();
        let (nm2, d2) = temp_nm("deg-b");
        nm2.insert_file("q.txt", "# Budget\nmore money\n").unwrap();
        let mut router = Router::new();
        router
            .register_source(Arc::new(NetmarkSource::new("up", nm1)))
            .unwrap();
        router
            .register_source(Arc::new(FlakySource::down(NetmarkSource::new("down", nm2))))
            .unwrap();
        router.define_databank("apps", &["up", "down"]).unwrap();
        let fr = router.query("apps", &XdbQuery::context("Budget")).unwrap();
        assert_eq!(fr.results.len(), 1, "the live source still answers");
        assert!(fr.degraded());
        let o = fr.outcomes.iter().find(|o| o.source == "down").unwrap();
        assert!(o.error.is_some());
        cleanup(vec![d1, d2]);
    }

    #[test]
    fn limit_applies_globally() {
        let (router, dirs) = build_router("limit");
        let fr = router
            .query("apps", &XdbQuery::context("Budget").with_limit(1))
            .unwrap();
        assert_eq!(fr.results.len(), 1);
        assert!(fr.results.truncated);
        cleanup(dirs);
    }

    #[test]
    fn limit_pushed_only_when_fully_pushable() {
        let (router, dirs) = build_router("push");
        let fr = router
            .query("apps", &XdbQuery::context("Budget").with_limit(1))
            .unwrap();
        let ames = fr.outcomes.iter().find(|o| o.source == "ames").unwrap();
        assert_eq!(
            ames.pushed.limit,
            Some(1),
            "full-capability source gets the limit as a per-source bound"
        );
        let llis = fr.outcomes.iter().find(|o| o.source == "llis").unwrap();
        assert!(
            llis.pushed.limit.is_none(),
            "augmented source must not truncate before the residual filter"
        );
        cleanup(dirs);
    }

    #[test]
    fn source_stats_track_latency_and_failures() {
        let (nm1, d1) = temp_nm("stats-a");
        nm1.insert_file("p.txt", "# Budget\nmoney\n").unwrap();
        let (nm2, d2) = temp_nm("stats-b");
        let mut router = Router::new();
        router
            .register_source(Arc::new(NetmarkSource::new("up", nm1)))
            .unwrap();
        router
            .register_source(Arc::new(FlakySource::down(NetmarkSource::new("down", nm2))))
            .unwrap();
        router.define_databank("apps", &["up", "down"]).unwrap();
        for _ in 0..3 {
            router.query("apps", &XdbQuery::context("Budget")).unwrap();
        }
        let stats = router.source_stats();
        let up = &stats["up"];
        assert_eq!(up.queries, 3);
        assert_eq!(up.failures, 0);
        assert_eq!(up.hits, 3);
        assert!(up.total_latency > Duration::ZERO);
        assert!(up.max_latency <= up.total_latency);
        let down = &stats["down"];
        assert_eq!(down.queries, 3);
        assert_eq!(down.failures, 3);
        assert_eq!(down.failure_rate(), 1.0);
        cleanup(vec![d1, d2]);
    }

    #[test]
    fn outcome_reports_latency() {
        let (router, dirs) = build_router("lat");
        let fr = router.query("apps", &XdbQuery::context("Budget")).unwrap();
        for o in &fr.outcomes {
            assert!(o.latency > Duration::ZERO, "{} latency missing", o.source);
            assert!(!o.short_circuited);
        }
        cleanup(dirs);
    }

    #[test]
    fn registry_errors() {
        let (mut router, dirs) = build_router("err");
        assert!(matches!(
            router.query("nope", &XdbQuery::context("x")),
            Err(RouterError::NoSuchDatabank(_))
        ));
        assert!(matches!(
            router.define_databank("x", &["ghost"]),
            Err(RouterError::NoSuchSource(_))
        ));
        assert!(matches!(
            router.define_databank("apps", &["ames"]),
            Err(RouterError::Duplicate(_))
        ));
        cleanup(dirs);
    }

    /// Adapter that records fan-out concurrency: which threads queried it
    /// and the peak number of in-flight `search` calls across all probes.
    struct ProbeSource {
        name: String,
        threads: Arc<Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
        live: Arc<AtomicUsize>,
        peak: Arc<AtomicUsize>,
    }

    impl SourceAdapter for ProbeSource {
        fn name(&self) -> &str {
            &self.name
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities::FULL
        }

        fn search(&self, _q: &XdbQuery) -> Result<ResultSet, SourceError> {
            let cur = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(cur, Ordering::SeqCst);
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            // Hold the slot long enough that an unbounded fan-out would be
            // observed as > max_fanout concurrent searches.
            std::thread::sleep(Duration::from_millis(3));
            self.live.fetch_sub(1, Ordering::SeqCst);
            let mut rs = ResultSet::new();
            rs.hits.push(Hit {
                source: String::new(),
                doc: format!("{}.txt", self.name),
                context: "Budget".to_string(),
                content: netmark::Node::text(&self.name),
                context_node: 0,
                score: None,
            });
            Ok(rs)
        }

        fn fetch_document(&self, name: &str) -> Result<netmark::Document, SourceError> {
            Err(SourceError::Unsupported(name.to_string()))
        }
    }

    #[test]
    fn many_source_fanout_is_bounded_and_ordered() {
        // More sources than any cap of at most DEFAULT_MAX_FANOUT.
        const SOURCES: usize = 64;
        let fanout = default_max_fanout();
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut router = Router::new();
        let names: Vec<String> = (0..SOURCES).map(|i| format!("src{i:03}")).collect();
        for name in &names {
            router
                .register_source(Arc::new(ProbeSource {
                    name: name.clone(),
                    threads: Arc::clone(&threads),
                    live: Arc::clone(&live),
                    peak: Arc::clone(&peak),
                }))
                .unwrap();
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        router.define_databank("wide", &refs).unwrap();
        let fr = router.query("wide", &XdbQuery::context("Budget")).unwrap();
        // Every source answered, and the merged order is databank order.
        assert_eq!(fr.results.len(), SOURCES);
        assert_eq!(fr.outcomes.len(), SOURCES);
        let order: Vec<&str> = fr.outcomes.iter().map(|o| o.source.as_str()).collect();
        assert_eq!(order, refs, "outcomes preserve databank order");
        let hit_order: Vec<String> = fr.results.hits.iter().map(|h| h.source.clone()).collect();
        assert_eq!(hit_order, names, "hits merge in databank order");
        // The pool is bounded: never more than the cap in flight.
        assert!(
            threads.lock().unwrap().len() <= fanout,
            "{} distinct threads for fanout {fanout}",
            threads.lock().unwrap().len()
        );
        assert!(
            peak.load(Ordering::SeqCst) <= fanout,
            "peak concurrency {} exceeds fanout cap {fanout}",
            peak.load(Ordering::SeqCst)
        );
        // Source health was recorded for every source despite the pooling.
        let stats = router.source_stats();
        assert_eq!(stats.len(), SOURCES);
        assert!(stats.values().all(|s| s.queries == 1 && s.hits == 1));
    }

    #[test]
    fn fanout_defaults_to_cores_capped_at_eight() {
        let router = Router::new();
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(DEFAULT_MAX_FANOUT)
            .min(DEFAULT_MAX_FANOUT);
        assert_eq!(router.max_fanout, expected);
        assert_eq!(default_max_fanout(), expected);
        assert!((1..=DEFAULT_MAX_FANOUT).contains(&expected));
    }

    #[test]
    fn databank_spec_round_trip() {
        let bank = Databank {
            name: "anomaly".into(),
            sources: vec!["ames".into(), "llis".into()],
        };
        let spec = bank.spec();
        assert_eq!(bank.spec_lines(), 3);
        assert_eq!(Databank::parse(&spec), Some(bank));
        assert!(Databank::parse("no header").is_none());
    }

    #[test]
    fn total_spec_lines_counts_all_banks() {
        let (mut router, dirs) = build_router("lines");
        router.define_databank("more", &["ames"]).unwrap();
        // apps: 1 + 3 sources; more: 1 + 1 source.
        assert_eq!(router.total_spec_lines(), 6);
        cleanup(dirs);
    }
}
