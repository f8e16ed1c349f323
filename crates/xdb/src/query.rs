//! The XDB Query model and its URL syntax.
//!
//! "The key features are that context and content search specifications are
//! appended to a URL that is sent to NETMARK. In this URL we may also
//! specify an XSLT stylesheet which specifies how the results are to be
//! formatted and composed into a new document." (paper §2.1.3)
//!
//! Query string grammar (case-insensitive keys, `&`-separated,
//! percent/plus decoding):
//!
//! ```text
//! Context=Technology%20Gap & Content=Shrinking & databank=apps
//!   & xslt=report & limit=20 & match=keywords|phrase & rank=bm25|none
//! ```

use std::fmt;

/// How a `Content=` value matches node text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// All terms must occur (any order) — the paper's keyword search.
    #[default]
    Keywords,
    /// Terms must occur consecutively.
    Phrase,
}

/// How hits are ordered (`rank=`). The default, [`RankMode::None`], is the
/// paper's behaviour: hits in store (ingest) order, byte-identical to every
/// pre-ranking release. [`RankMode::Bm25`] orders hits by BM25 relevance of
/// the `Content=` terms, ties broken by store order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankMode {
    /// Unranked: store order (the pre-v2 behaviour and the wire default).
    #[default]
    None,
    /// BM25 relevance over the segmented index's length statistics.
    Bm25,
}

/// A parsed XDB query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XdbQuery {
    /// `Context=` — section-heading search ("returns the content portion in
    /// the 'Introduction' sections of all the documents").
    pub context: Option<String>,
    /// `Content=` — keyword search over node text.
    pub content: Option<String>,
    /// `databank=` — which declared databank (source set) to query.
    pub databank: Option<String>,
    /// `xslt=` — stylesheet name for result composition.
    pub xslt: Option<String>,
    /// `doc=` — restrict to one document by file name.
    pub doc: Option<String>,
    /// `limit=` — cap on returned hits.
    pub limit: Option<usize>,
    /// `match=` — content matching mode.
    pub match_mode: MatchMode,
    /// `rank=` — hit ordering (unranked store order, or BM25 relevance).
    pub rank: RankMode,
    /// `min_score=` — drop ranked hits scoring at or below this floor.
    /// A coordinator that already holds k candidates scoring above θ can
    /// push `limit=k&min_score=θ` to a capable peer: any hit at or below
    /// θ provably cannot enter the merged top-k, so the peer neither
    /// scores deeply nor ships it. Meaningless without `rank=bm25`
    /// (unranked hits carry no score) and never rendered when unset, so
    /// both unranked and plain ranked queries keep their exact prior wire
    /// bytes.
    pub min_score: Option<f64>,
    /// Shard-coordination hint, never on the wire: context labels already
    /// known (by the coordinator) to have an exact match *somewhere* in
    /// the federated/sharded whole. A store executing the query treats a
    /// listed label as exact-only — it must not fall back to phrase
    /// matching even when its local slice has no exact occurrence,
    /// because the fallback decision is global, not per-store. Empty for
    /// plain single-store queries; [`XdbQuery::from_url`] never sets it
    /// and [`XdbQuery::to_query_string`] never renders it.
    pub exact_contexts: Vec<String>,
}

/// Typed error for malformed query strings.
///
/// Each variant names the offending key or fragment, so servers can answer
/// a precise 400 instead of guessing which parameter was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A `&`-separated pair had no `=` (e.g. `nonsense`).
    MissingEquals(String),
    /// A key outside the XDB grammar.
    UnknownKey(String),
    /// The same key appeared twice — previously the second value silently
    /// overwrote the first.
    DuplicateKey(String),
    /// A key with an empty value (e.g. `Context=`) — previously accepted
    /// and then matched nothing.
    EmptyValue(String),
    /// `limit=` was not a non-negative integer.
    BadLimit(String),
    /// `match=` named an unknown mode.
    BadMatchMode(String),
    /// `rank=` named an unknown ranking mode.
    BadRank(String),
    /// `min_score=` was not a finite non-negative number.
    BadMinScore(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingEquals(pair) => write!(f, "missing '=' in '{pair}'"),
            ParseError::UnknownKey(key) => write!(f, "unknown query key '{key}'"),
            ParseError::DuplicateKey(key) => write!(f, "duplicate query key '{key}'"),
            ParseError::EmptyValue(key) => write!(f, "empty value for '{key}'"),
            ParseError::BadLimit(value) => write!(f, "limit must be a number, got '{value}'"),
            ParseError::BadMatchMode(value) => write!(f, "unknown match mode '{value}'"),
            ParseError::BadRank(value) => write!(f, "unknown rank mode '{value}'"),
            ParseError::BadMinScore(value) => {
                write!(
                    f,
                    "min_score must be a finite non-negative number, got '{value}'"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Percent-decodes a query component (`+` means space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 && i + 2 <= bytes.len() => {
                match u8::from_str_radix(
                    std::str::from_utf8(&bytes[i + 1..(i + 3).min(bytes.len())]).unwrap_or(""),
                    16,
                ) {
                    Ok(b) if i + 2 < bytes.len() => {
                        out.push(b);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a query component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

impl XdbQuery {
    /// A pure context search.
    pub fn context(label: &str) -> XdbQuery {
        XdbQuery {
            context: Some(label.to_string()),
            ..Default::default()
        }
    }

    /// A pure content (keyword) search.
    pub fn content(terms: &str) -> XdbQuery {
        XdbQuery {
            content: Some(terms.to_string()),
            ..Default::default()
        }
    }

    /// Combined `Context=X & Content=Y`.
    pub fn context_content(label: &str, terms: &str) -> XdbQuery {
        XdbQuery {
            context: Some(label.to_string()),
            content: Some(terms.to_string()),
            ..Default::default()
        }
    }

    /// Builder: set the stylesheet.
    pub fn with_xslt(mut self, name: &str) -> XdbQuery {
        self.xslt = Some(name.to_string());
        self
    }

    /// Builder: set the databank.
    pub fn with_databank(mut self, name: &str) -> XdbQuery {
        self.databank = Some(name.to_string());
        self
    }

    /// Builder: set the hit limit.
    pub fn with_limit(mut self, n: usize) -> XdbQuery {
        self.limit = Some(n);
        self
    }

    /// Builder: set phrase matching.
    pub fn with_phrase_match(mut self) -> XdbQuery {
        self.match_mode = MatchMode::Phrase;
        self
    }

    /// Builder: set the ranking mode.
    pub fn with_rank(mut self, rank: RankMode) -> XdbQuery {
        self.rank = rank;
        self
    }

    /// Builder: set the ranked score floor (`min_score=`).
    pub fn with_min_score(mut self, floor: f64) -> XdbQuery {
        self.min_score = Some(floor);
        self
    }

    /// True when the query asks for relevance-ranked hits.
    pub fn ranked(&self) -> bool {
        self.rank == RankMode::Bm25
    }

    /// True when the query selects everything (no context, no content).
    pub fn is_unconstrained(&self) -> bool {
        self.context.is_none() && self.content.is_none() && self.doc.is_none()
    }

    /// Parses the query-string portion of an XDB URL. Accepts a full URL
    /// (`http://host/xdb?Context=...`), a leading `?`, or the bare query
    /// string. Unknown keys, duplicate keys, empty values, and malformed
    /// `limit=`/`match=` values are typed errors — nothing is silently
    /// dropped.
    pub fn from_url(input: &str) -> Result<XdbQuery, ParseError> {
        let qs = match input.split_once('?') {
            Some((_, q)) => q,
            None => input,
        };
        let mut q = XdbQuery::default();
        let mut seen: Vec<String> = Vec::new();
        for pair in qs.split('&') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| ParseError::MissingEquals(pair.to_string()))?;
            // Keys are case-insensitive. An unknown key fails on first
            // sight, so every repeat is a known key.
            let key = key.trim().to_ascii_lowercase();
            if seen.contains(&key) {
                return Err(ParseError::DuplicateKey(key));
            }
            let value = url_decode(value.trim());
            match key.as_str() {
                "context" => q.context = Some(value),
                "content" => q.content = Some(value),
                "databank" => q.databank = Some(value),
                "xslt" => q.xslt = Some(value),
                "doc" => q.doc = Some(value),
                "limit" => {
                    let n = value.parse().map_err(|_| ParseError::BadLimit(value))?;
                    q.limit = Some(n);
                }
                "match" => {
                    q.match_mode = match value.to_ascii_lowercase().as_str() {
                        "keywords" | "keyword" => MatchMode::Keywords,
                        "phrase" => MatchMode::Phrase,
                        other => return Err(ParseError::BadMatchMode(other.to_string())),
                    };
                }
                "rank" => {
                    q.rank = match value.to_ascii_lowercase().as_str() {
                        "none" => RankMode::None,
                        "bm25" => RankMode::Bm25,
                        other => return Err(ParseError::BadRank(other.to_string())),
                    };
                }
                "min_score" => {
                    let floor = value
                        .parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .ok_or(ParseError::BadMinScore(value))?;
                    q.min_score = Some(floor);
                }
                _ => return Err(ParseError::UnknownKey(key)),
            }
            seen.push(key);
        }
        // Every given string field must be non-empty: `Context=` with
        // nothing after it would otherwise parse and then match nothing.
        for (key, value) in [
            ("context", &q.context),
            ("content", &q.content),
            ("databank", &q.databank),
            ("xslt", &q.xslt),
            ("doc", &q.doc),
        ] {
            if value.as_deref().is_some_and(|v| v.trim().is_empty()) {
                return Err(ParseError::EmptyValue(key.to_string()));
            }
        }
        Ok(q)
    }

    /// Renders the canonical query string (inverse of
    /// [`XdbQuery::from_url`]).
    pub fn to_query_string(&self) -> String {
        let mut parts = Vec::new();
        if let Some(c) = &self.context {
            parts.push(format!("Context={}", url_encode(c)));
        }
        if let Some(c) = &self.content {
            parts.push(format!("Content={}", url_encode(c)));
        }
        if let Some(d) = &self.databank {
            parts.push(format!("databank={}", url_encode(d)));
        }
        if let Some(d) = &self.doc {
            parts.push(format!("doc={}", url_encode(d)));
        }
        if let Some(x) = &self.xslt {
            parts.push(format!("xslt={}", url_encode(x)));
        }
        if let Some(l) = self.limit {
            parts.push(format!("limit={l}"));
        }
        if self.match_mode == MatchMode::Phrase {
            parts.push("match=phrase".to_string());
        }
        // `rank=none` is the default and is never rendered, so unranked
        // queries keep their exact pre-v2 wire bytes (and cache keys).
        if self.rank == RankMode::Bm25 {
            parts.push("rank=bm25".to_string());
        }
        // Rust's f64 Display is the shortest round-tripping decimal, so
        // the floor survives a render → parse cycle exactly.
        if let Some(floor) = self.min_score {
            parts.push(format!("min_score={floor}"));
        }
        parts.join("&")
    }
}

impl fmt::Display for XdbQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_query_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_examples() {
        let q = XdbQuery::from_url("Context=Introduction").unwrap();
        assert_eq!(q.context.as_deref(), Some("Introduction"));
        assert!(q.content.is_none());

        let q = XdbQuery::from_url("Content=Shuttle").unwrap();
        assert_eq!(q.content.as_deref(), Some("Shuttle"));

        let q = XdbQuery::from_url("Context=Technology+Gap&Content=Shrinking").unwrap();
        assert_eq!(q.context.as_deref(), Some("Technology Gap"));
        assert_eq!(q.content.as_deref(), Some("Shrinking"));
    }

    #[test]
    fn parse_full_url_and_percent() {
        let q =
            XdbQuery::from_url("http://netmark/xdb?Context=Technology%20Gap&xslt=report&limit=5")
                .unwrap();
        assert_eq!(q.context.as_deref(), Some("Technology Gap"));
        assert_eq!(q.xslt.as_deref(), Some("report"));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn keys_case_insensitive() {
        let q = XdbQuery::from_url("CONTEXT=A&content=b&DataBank=apps").unwrap();
        assert_eq!(q.context.as_deref(), Some("A"));
        assert_eq!(q.databank.as_deref(), Some("apps"));
    }

    #[test]
    fn typed_errors() {
        assert_eq!(
            XdbQuery::from_url("nonsense"),
            Err(ParseError::MissingEquals("nonsense".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("limit=abc"),
            Err(ParseError::BadLimit("abc".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("match=fuzzy"),
            Err(ParseError::BadMatchMode("fuzzy".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("rank=tfidf"),
            Err(ParseError::BadRank("tfidf".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("unknown=1"),
            Err(ParseError::UnknownKey("unknown".to_string()))
        );
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert_eq!(
            XdbQuery::from_url("Context=A&Context=B"),
            Err(ParseError::DuplicateKey("context".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("limit=1&LIMIT=2"),
            Err(ParseError::DuplicateKey("limit".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("match=phrase&match=phrase"),
            Err(ParseError::DuplicateKey("match".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("rank=bm25&rank=none"),
            Err(ParseError::DuplicateKey("rank".to_string()))
        );
    }

    #[test]
    fn empty_values_rejected() {
        assert_eq!(
            XdbQuery::from_url("Context="),
            Err(ParseError::EmptyValue("context".to_string()))
        );
        assert_eq!(
            XdbQuery::from_url("Context=Budget&xslt="),
            Err(ParseError::EmptyValue("xslt".to_string()))
        );
        // Errors render something actionable.
        assert!(ParseError::EmptyValue("xslt".to_string())
            .to_string()
            .contains("xslt"));
    }

    #[test]
    fn from_url_assembles_and_validates() {
        let q = XdbQuery::from_url("Context=Budget&Content=million&limit=3&match=phrase").unwrap();
        assert_eq!(q.context.as_deref(), Some("Budget"));
        assert_eq!(q.content.as_deref(), Some("million"));
        assert_eq!(q.limit, Some(3));
        assert_eq!(q.match_mode, MatchMode::Phrase);
        assert_eq!(
            XdbQuery::from_url("doc=%20%20"),
            Err(ParseError::EmptyValue("doc".to_string()))
        );
        // An empty query string is the unconstrained query.
        assert!(XdbQuery::from_url("").unwrap().is_unconstrained());
    }

    #[test]
    fn round_trip() {
        let q = XdbQuery::context_content("Technology Gap", "Shrinking fast")
            .with_databank("apps")
            .with_xslt("report")
            .with_limit(7)
            .with_phrase_match()
            .with_rank(RankMode::Bm25);
        let s = q.to_query_string();
        let back = XdbQuery::from_url(&s).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn rank_key_parses_and_defaults() {
        let q = XdbQuery::from_url("Content=engine&rank=bm25").unwrap();
        assert_eq!(q.rank, RankMode::Bm25);
        assert!(q.ranked());
        let q = XdbQuery::from_url("Content=engine&rank=none").unwrap();
        assert_eq!(q.rank, RankMode::None);
        let q = XdbQuery::from_url("Content=engine").unwrap();
        assert_eq!(q.rank, RankMode::None, "rank defaults to unranked");
        // rank=none is the default and never rendered: unranked queries
        // keep their exact pre-ranking wire bytes.
        assert_eq!(
            XdbQuery::content("engine").to_query_string(),
            "Content=engine"
        );
        assert_eq!(
            XdbQuery::content("engine")
                .with_rank(RankMode::Bm25)
                .to_query_string(),
            "Content=engine&rank=bm25"
        );
    }

    /// Property test for the satellite contract: `from_url` ∘
    /// `to_query_string` is the identity for *every* combination of query
    /// keys — the grammar cannot silently drop a field again. Values are
    /// chosen to need percent/plus encoding so the codec is in the loop.
    #[test]
    fn every_key_combination_round_trips() {
        let contexts = [None, Some("Technology Gap"), Some("Budget & Cost/2")];
        let contents = [None, Some("100% café engine")];
        let databanks = [None, Some("apps")];
        let docs = [None, Some("my plan.txt")];
        let xslts = [None, Some("report")];
        let limits = [None, Some(0usize), Some(42)];
        let modes = [MatchMode::Keywords, MatchMode::Phrase];
        let ranks = [RankMode::None, RankMode::Bm25];
        let floors = [None, Some(0.0f64), Some(2.625)];
        let mut cases = 0usize;
        for ctx in contexts {
            for con in &contents {
                for db in &databanks {
                    for doc in &docs {
                        for xslt in &xslts {
                            for limit in &limits {
                                for mode in modes {
                                    for rank in ranks {
                                        for floor in floors {
                                            let q = XdbQuery {
                                                context: ctx.map(String::from),
                                                content: con.map(String::from),
                                                databank: db.map(String::from),
                                                xslt: xslt.map(String::from),
                                                doc: doc.map(String::from),
                                                limit: *limit,
                                                match_mode: mode,
                                                rank,
                                                min_score: floor,
                                                exact_contexts: Vec::new(),
                                            };
                                            let s = q.to_query_string();
                                            let back = XdbQuery::from_url(&s).unwrap_or_else(|e| {
                                                panic!("'{s}' failed to re-parse: {e}")
                                            });
                                            assert_eq!(back, q, "round trip of '{s}'");
                                            cases += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 2 * 2 * 2 * 2 * 3 * 2 * 2 * 3);
    }

    #[test]
    fn min_score_parses_validates_and_round_trips() {
        let q = XdbQuery::from_url("Content=engine&rank=bm25&min_score=1.25").unwrap();
        assert_eq!(q.min_score, Some(1.25));
        let q = XdbQuery::from_url("Content=engine").unwrap();
        assert_eq!(q.min_score, None, "min_score defaults to unset");
        // Unset floors are never rendered: plain ranked (and unranked)
        // queries keep their exact prior wire bytes.
        assert_eq!(
            XdbQuery::content("engine")
                .with_rank(RankMode::Bm25)
                .to_query_string(),
            "Content=engine&rank=bm25"
        );
        // An exact f64 survives the render → parse cycle bit-for-bit.
        let q = XdbQuery::content("engine")
            .with_rank(RankMode::Bm25)
            .with_min_score(3.0614318088503584);
        let back = XdbQuery::from_url(&q.to_query_string()).unwrap();
        assert_eq!(
            back.min_score.unwrap().to_bits(),
            3.0614318088503584f64.to_bits()
        );
        for bad in ["abc", "-1", "inf", "NaN"] {
            assert_eq!(
                XdbQuery::from_url(&format!("Content=a&min_score={bad}")),
                Err(ParseError::BadMinScore(bad.to_string())),
                "{bad}"
            );
        }
        assert_eq!(
            XdbQuery::from_url("Content=a&min_score=1&min_score=2"),
            Err(ParseError::DuplicateKey("min_score".to_string()))
        );
    }

    #[test]
    fn url_codec() {
        assert_eq!(url_decode("a+b%20c%2Fd"), "a b c/d");
        assert_eq!(url_encode("a b/c"), "a+b%2Fc");
        assert_eq!(
            url_decode(&url_encode("100% café & more")),
            "100% café & more"
        );
        // Malformed escapes degrade, never panic.
        assert_eq!(url_decode("%"), "%");
        assert_eq!(url_decode("%2"), "%2");
        assert_eq!(url_decode("%zz"), "%zz");
    }

    #[test]
    fn empty_query_is_unconstrained() {
        let q = XdbQuery::from_url("").unwrap();
        assert!(q.is_unconstrained());
        let q = XdbQuery::from_url("databank=apps").unwrap();
        assert!(q.is_unconstrained());
    }

    #[test]
    fn display_matches_query_string() {
        let q = XdbQuery::context("Budget");
        assert_eq!(format!("{q}"), q.to_query_string());
    }
}
