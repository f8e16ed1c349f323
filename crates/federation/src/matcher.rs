//! In-memory query evaluation over document trees — the router's
//! augmentation engine.
//!
//! When a source can only evaluate part of a query (the paper's Lessons
//! Learned example supports content search only), the router pushes the
//! supported fragment, pulls the candidate documents back, and finishes the
//! job here: "NETMARK then extracts the 'Title' sections from only those
//! documents that contain the word 'Engine' … from amongst the initial
//! results returned by the original server" (§2.1.5).

use netmark_model::{Document, Node};
use netmark_textindex::query_terms;
use netmark_xdb::{Hit, MatchMode, XdbQuery};

/// One section of a document: context label + content nodes.
#[derive(Debug, Clone)]
pub struct Section {
    /// Heading text.
    pub label: String,
    /// The section's content wrapped in a `<Content>` element.
    pub content: Node,
}

/// Extracts sections (context + following-sibling content) from a document
/// tree, recursively, in document order.
pub fn sections(doc: &Document) -> Vec<Section> {
    doc.root
        .sections()
        .into_iter()
        .map(|(context, span)| Section {
            label: context.text_content(),
            content: Node::content_of(span.to_vec()),
        })
        .collect()
}

fn label_matches(label: &str, wanted: &str) -> bool {
    let l = label.to_lowercase();
    let w = wanted.to_lowercase();
    l == w || l.contains(&w)
}

/// Whether a section labelled `label` answers the context spec `spec`. A
/// spec containing `|` is a union, split the way the engine splits it:
/// each label trimmed, empty labels dropped, and a section that any label
/// matches answers.
fn context_matches(label: &str, spec: &str) -> bool {
    if spec.contains('|') {
        return spec
            .split('|')
            .map(str::trim)
            .filter(|w| !w.is_empty())
            .any(|w| label_matches(label, w));
    }
    label_matches(label, spec)
}

fn content_matches(text: &str, terms: &str, mode: MatchMode) -> bool {
    match mode {
        MatchMode::Keywords => {
            let hay = query_terms(text);
            let terms = query_terms(terms);
            !terms.is_empty() && terms.iter().all(|t| hay.contains(t))
        }
        MatchMode::Phrase => {
            let hay = query_terms(text).join(" ");
            let needle = query_terms(terms).join(" ");
            !needle.is_empty() && hay.contains(&needle)
        }
    }
}

/// Evaluates `q` against one document, returning the matching sections as
/// hits (source left empty; the router fills it).
pub fn match_document(doc: &Document, q: &XdbQuery) -> Vec<Hit> {
    if let Some(wanted_doc) = &q.doc {
        if &doc.name != wanted_doc {
            return Vec::new();
        }
    }
    sections(doc)
        .into_iter()
        .filter(|s| {
            let ctx_ok = match &q.context {
                Some(spec) => context_matches(&s.label, spec),
                None => true,
            };
            if !ctx_ok {
                return false;
            }
            match &q.content {
                Some(terms) => {
                    // Content may match in the heading or the body.
                    let text = format!("{} {}", s.label, s.content.text_content());
                    content_matches(&text, terms, q.match_mode)
                }
                None => true,
            }
        })
        .map(|s| Hit {
            source: String::new(),
            doc: doc.name.clone(),
            context: s.label,
            content: s.content,
            context_node: 0,
            score: None,
        })
        .collect()
}

/// Router-side relevance scoring for hits from sources that cannot score
/// themselves (wire-v1 peers, content-only servers, residual-matched
/// sections). Hits that already carry a score — a ranked source's own BM25
/// answer — are left untouched; the rest get the term frequency of the
/// query's content terms over heading + body. TF has no corpus statistics
/// to draw on (the router holds none — *that is the point*), but it is
/// monotone in relevance on the same axis BM25 orders by, which is what
/// the score-aware merge needs from an augmented source.
pub fn score_hits(hits: &mut [Hit], q: &XdbQuery) {
    let terms: Vec<String> = q.content.as_deref().map(query_terms).unwrap_or_default();
    for h in hits.iter_mut().filter(|h| h.score.is_none()) {
        let text = format!("{} {}", h.context, h.content.text_content());
        let hay = query_terms(&text);
        let tf: usize = terms
            .iter()
            .map(|t| hay.iter().filter(|w| *w == t).count())
            .sum();
        h.score = Some(tf as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmark_docformats::upmark;

    fn doc() -> Document {
        upmark(
            "ll-0424.html",
            "<html><body><h1>Title</h1><p>Engine anomaly</p><h1>Summary</h1><p>The controller faulted during ascent.</p></body></html>",
        )
    }

    #[test]
    fn sections_in_document_order() {
        let s = sections(&doc());
        let labels: Vec<&str> = s.iter().map(|x| x.label.as_str()).collect();
        assert_eq!(labels, vec!["Title", "Summary"]);
        assert!(s[1].content.text_content().contains("controller"));
    }

    #[test]
    fn paper_llis_example() {
        // Context=Title & Content=Engine.
        let q = XdbQuery::context_content("Title", "Engine");
        let hits = match_document(&doc(), &q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].context, "Title");
        assert!(hits[0].content_text().contains("Engine anomaly"));
        // Content=Engine in the wrong section does not leak.
        let q = XdbQuery::context_content("Summary", "Engine");
        assert!(match_document(&doc(), &q).is_empty());
    }

    #[test]
    fn content_only_and_context_only() {
        let hits = match_document(&doc(), &XdbQuery::content("faulted ascent"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].context, "Summary");
        let hits = match_document(&doc(), &XdbQuery::context("title"));
        assert_eq!(hits.len(), 1, "labels match case-insensitively");
    }

    #[test]
    fn context_union_splits_like_the_engine() {
        let labels = |spec: &str| -> Vec<String> {
            match_document(&doc(), &XdbQuery::context(spec))
                .into_iter()
                .map(|h| h.context)
                .collect()
        };
        assert_eq!(labels("Title | Summary"), vec!["Title", "Summary"]);
        assert_eq!(labels("--- | summary"), vec!["Summary"]);
        assert!(labels(" | ").is_empty(), "empty labels are dropped");
    }

    #[test]
    fn phrase_vs_keywords() {
        let d = doc();
        let q = XdbQuery::content("ascent during").with_phrase_match();
        assert!(match_document(&d, &q).is_empty(), "wrong order");
        let q = XdbQuery::content("ascent during");
        assert_eq!(match_document(&d, &q).len(), 1, "keywords ignore order");
    }

    #[test]
    fn doc_filter() {
        let mut q = XdbQuery::context("Title");
        q.doc = Some("other.html".into());
        assert!(match_document(&doc(), &q).is_empty());
    }

    #[test]
    fn score_hits_fills_only_missing_scores() {
        let d = upmark("e.txt", "# Alpha\nengine engine fuel\n# Beta\nengine\n");
        let q = XdbQuery::content("engine").with_rank(netmark_xdb::RankMode::Bm25);
        let mut hits = match_document(&d, &q);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score.is_none()));
        hits[1].score = Some(9.5); // pretend a ranked source scored this one
        score_hits(&mut hits, &q);
        assert_eq!(hits[0].score, Some(2.0), "TF over heading + body");
        assert_eq!(hits[1].score, Some(9.5), "source-scored hits untouched");
    }

    #[test]
    fn nested_sections_extracted() {
        let d = upmark(
            "n.xml",
            "<doc><Context>Outer</Context><Content><p>o</p></Content><section><Context>Inner</Context><Content><p>i</p></Content></section></doc>",
        );
        let labels: Vec<String> = sections(&d).into_iter().map(|s| s.label).collect();
        assert!(labels.contains(&"Outer".to_string()));
        assert!(labels.contains(&"Inner".to_string()));
    }
}
