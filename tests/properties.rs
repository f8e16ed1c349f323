//! Property-based tests over the core data structures and invariants
//! (DESIGN.md §7).

use proptest::prelude::*;

// ---------------------------------------------------------------- relstore

mod page_props {
    use super::*;
    use netmark_relstore::page::{PageType, SlottedPage, PAGE_SIZE};
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        Delete(usize),
        Update(usize, Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..300).prop_map(Op::Insert),
            (0usize..64).prop_map(Op::Delete),
            ((0usize..64), proptest::collection::vec(any::<u8>(), 0..300))
                .prop_map(|(s, d)| Op::Update(s, d)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A slotted page behaves like a map from stable slot numbers to
        /// byte strings, whatever the op sequence.
        #[test]
        fn page_equals_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut buf = vec![0u8; PAGE_SIZE];
            let mut page = SlottedPage::init(&mut buf, PageType::Heap);
            let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
            let mut live: Vec<u16> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(data) => {
                        if let Some(slot) = page.insert(&data) {
                            model.insert(slot, data);
                            if !live.contains(&slot) {
                                live.push(slot);
                            }
                        }
                    }
                    Op::Delete(i) => {
                        if let Some(&slot) = live.get(i % live.len().max(1)) {
                            let had = model.remove(&slot).is_some();
                            let did = page.delete(slot).is_some();
                            prop_assert_eq!(had, did);
                            live.retain(|&s| s != slot);
                        }
                    }
                    Op::Update(i, data) => {
                        if let Some(&slot) = live.get(i % live.len().max(1)) {
                            if page.update(slot, &data) {
                                model.insert(slot, data);
                            }
                        }
                    }
                }
                // Full agreement after every op.
                for (&slot, data) in &model {
                    prop_assert_eq!(page.get(slot), Some(data.as_slice()));
                }
                prop_assert_eq!(page.live_count() as usize, model.len());
            }
        }
    }
}

mod btree_props {
    use super::*;
    use netmark_relstore::btree::BTree;
    use netmark_relstore::buffer::BufferPool;
    use netmark_relstore::disk::FileManager;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert or replace a random key.
        Put(Vec<u8>, Vec<u8>),
        /// Delete a random key (present or not).
        Del(Vec<u8>),
        /// Insert `n` keys, ascending from a counter shared by all runs,
        /// each with a `pad`-byte value: appends that fill pages and
        /// split the right spine.
        Run(usize, usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let bytes = |len| proptest::collection::vec(any::<u8>(), len);
        prop_oneof![
            (bytes(1..40), bytes(0..40)).prop_map(|(k, v)| Op::Put(k, v)),
            bytes(1..40).prop_map(Op::Del),
            ((1usize..60), (0usize..200)).prop_map(|(n, pad)| Op::Run(n, pad)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The paged B+ tree is observationally equal to std's BTreeMap
        /// under random inserts, replaces and deletes interleaved with
        /// ascending runs, and under point and range lookups.
        #[test]
        fn btree_equals_btreemap(
            ops in proptest::collection::vec(op_strategy(), 1..300)
        ) {
            let dir = std::env::temp_dir().join(format!(
                "netmark-prop-bt-{}-{}", std::process::id(),
                rand::random::<u64>()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let fm = Arc::new(FileManager::open(&dir).unwrap());
            let pool = Arc::new(BufferPool::new(Arc::clone(&fm), 128));
            let f = fm.open_file("p.idx").unwrap();
            let tree = BTree::open(pool, f).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut counter = 0u32;
            for op in ops {
                match op {
                    Op::Put(k, v) => {
                        tree.insert(&k, &v).unwrap();
                        model.insert(k.clone(), v);
                        prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                    }
                    Op::Del(k) => {
                        let had = model.remove(&k).is_some();
                        prop_assert_eq!(tree.delete(&k).unwrap(), had);
                        prop_assert_eq!(tree.get(&k).unwrap(), None);
                    }
                    Op::Run(n, pad) => {
                        for _ in 0..n {
                            // 0xF0 sorts the run above most random keys.
                            let mut k = vec![0xF0];
                            k.extend_from_slice(&counter.to_be_bytes());
                            counter += 1;
                            let v = vec![k[4]; pad];
                            tree.insert(&k, &v).unwrap();
                            model.insert(k, v);
                        }
                    }
                }
            }
            prop_assert_eq!(tree.len().unwrap(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(tree.get(k).unwrap().as_ref(), Some(v));
            }
            let all = tree.scan_all().unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(all, expect);
            let (lo, hi) = (vec![0x80], vec![0xF0, 0, 0, 1]);
            let slice: Vec<(Vec<u8>, Vec<u8>)> = model
                .range(lo.clone()..hi.clone())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(tree.range(&lo, &hi).unwrap(), slice);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

mod codec_props {
    use super::*;
    use netmark_relstore::keyenc;
    use netmark_relstore::tuple::{decode_row, encode_row, Value};
    use netmark_relstore::RowId;

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>()
                .prop_filter("NaN breaks equality", |f| !f.is_nan())
                .prop_map(Value::Float),
            ".{0,40}".prop_map(Value::Text),
            proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
            (any::<u32>(), any::<u16>())
                .prop_map(|(p, s)| Value::Rowid(RowId { page: p, slot: s })),
        ]
    }

    proptest! {
        /// Row encode/decode is the identity.
        #[test]
        fn row_codec_round_trip(row in proptest::collection::vec(value_strategy(), 0..12)) {
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            prop_assert_eq!(decode_row(&buf).unwrap(), row);
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn row_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_row(&bytes);
        }

        /// Key encoding preserves Int order byte-wise.
        #[test]
        fn keyenc_int_order(a in any::<i64>(), b in any::<i64>()) {
            let ka = keyenc::encode_key(&[Value::Int(a)]);
            let kb = keyenc::encode_key(&[Value::Int(b)]);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        /// Key encoding preserves Text order byte-wise.
        #[test]
        fn keyenc_text_order(a in ".{0,20}", b in ".{0,20}") {
            let ka = keyenc::encode_key(&[Value::Text(a.clone())]);
            let kb = keyenc::encode_key(&[Value::Text(b.clone())]);
            prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), ka.cmp(&kb));
        }

        /// Composite prefix ranges contain exactly the extensions.
        #[test]
        fn keyenc_prefix_range(s in "[a-z]{1,8}", extra in any::<i64>()) {
            let (lo, hi) = keyenc::prefix_range(&[Value::Text(s.clone())]);
            let inside = keyenc::encode_key(&[Value::Text(s.clone()), Value::Int(extra)]);
            prop_assert!(lo <= inside && inside < hi);
        }
    }
}

mod wal_props {
    use super::*;
    use netmark_relstore::wal::{ObjectId, Wal, WalRecord};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever was appended and synced is read back verbatim, even
        /// with arbitrary garbage appended after (torn tail).
        #[test]
        fn wal_round_trip_with_torn_tail(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..60), 1..30),
            garbage in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let dir = std::env::temp_dir().join(format!(
                "netmark-prop-wal-{}-{}", std::process::id(), rand::random::<u64>()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("wal.log");
            let records: Vec<WalRecord> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| WalRecord::Insert {
                    tx: i as u64,
                    obj: ObjectId(1),
                    page: i as u32,
                    slot: (i % 7) as u16,
                    data: p.clone(),
                })
                .collect();
            {
                let (mut wal, _) = Wal::open(&path, 0).unwrap();
                for r in &records {
                    wal.append(r).unwrap();
                }
                wal.sync().unwrap();
            }
            {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                f.write_all(&garbage).unwrap();
            }
            let (_, got) = Wal::open(&path, 0).unwrap();
            let got_records: Vec<WalRecord> = got.into_iter().map(|(_, r)| r).collect();
            // The full synced prefix must survive; garbage may add nothing.
            prop_assert!(got_records.len() >= records.len());
            prop_assert_eq!(&got_records[..records.len()], &records[..]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ------------------------------------------------------------ model / sgml

mod xml_props {
    use super::*;
    use netmark_model::{Node, NodeType};
    use netmark_sgml::{parse_xml, NodeTypeConfig};

    fn name_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z][a-zA-Z0-9_-]{0,8}"
    }

    fn leaf_strategy() -> impl Strategy<Value = Node> {
        prop_oneof![
            // Text nodes: printable, trimmed-nonempty so whitespace
            // normalization in the parser can't drop them.
            "[ -~&<>]{1,20}"
                .prop_filter("needs visible chars", |s| !s.trim().is_empty())
                .prop_map(|s| Node::text(s.trim())),
            name_strategy().prop_map(|n| Node::element(&n)),
        ]
    }

    fn tree_strategy() -> impl Strategy<Value = Node> {
        leaf_strategy().prop_recursive(3, 40, 5, |inner| {
            (
                name_strategy(),
                proptest::collection::vec(("[a-zA-Z]{1,6}", "[ -~]{0,12}"), 0..3),
                proptest::collection::vec(inner, 0..5),
            )
                .prop_map(|(name, attrs, children)| {
                    let mut n = Node::element(&name);
                    for (k, v) in attrs {
                        // Attribute keys must be unique for round-tripping.
                        if n.attr(&k).is_none() {
                            n = n.with_attr(&k, &v);
                        }
                    }
                    // Avoid adjacent text nodes (serializer would merge).
                    let mut last_text = false;
                    for c in children {
                        let is_text = c.ntype == NodeType::Text;
                        if is_text && last_text {
                            continue;
                        }
                        last_text = is_text;
                        n.children.push(c);
                    }
                    n
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// serialize ∘ parse is the identity on generated element trees.
        #[test]
        fn xml_round_trip(tree in tree_strategy()) {
            prop_assume!(tree.ntype != NodeType::Text);
            let xml = tree.to_xml();
            let cfg = NodeTypeConfig::empty();
            let back = parse_xml(&xml, &cfg).unwrap();
            prop_assert_eq!(back, tree);
        }

        /// The HTML parser never panics on arbitrary printable input.
        #[test]
        fn html_parse_total(input in "[ -~]{0,300}") {
            let cfg = netmark_sgml::NodeTypeConfig::html_default();
            let _ = netmark_sgml::parse_html(&input, &cfg);
        }

        /// Escape/unescape round-trips arbitrary text.
        #[test]
        fn escape_round_trip(s in ".{0,60}") {
            prop_assert_eq!(netmark_model::unescape(&netmark_model::escape_text(&s)), s);
        }
    }
}

// ---------------------------------------------------------------- textindex

mod index_props {
    use super::*;
    use netmark_textindex::{
        query_terms, sum_scores, tokenize_text, CompactionPolicy, InvertedIndex, Placement,
        SegmentedIndex,
    };

    proptest! {
        /// Token positions ascend strictly; terms are lowercase.
        #[test]
        fn tokenizer_invariants(text in ".{0,200}") {
            let toks = tokenize_text(&text);
            for w in toks.windows(2) {
                prop_assert!(w[0].position < w[1].position);
            }
            for t in &toks {
                prop_assert_eq!(t.term.to_lowercase(), t.term.clone());
                prop_assert!(!t.term.is_empty());
            }
        }

        /// Every indexed node is findable by each of its own terms, and
        /// tombstoned nodes never match.
        #[test]
        fn index_completeness(
            texts in proptest::collection::vec("[a-zA-Z ]{1,60}", 1..20),
            remove_mask in proptest::collection::vec(any::<bool>(), 1..20),
        ) {
            let mut ix = InvertedIndex::new();
            for (i, t) in texts.iter().enumerate() {
                ix.add(i as u64 + 1, t);
            }
            for (i, &rm) in remove_mask.iter().enumerate() {
                if rm && i < texts.len() {
                    ix.remove(i as u64 + 1);
                }
            }
            for (i, t) in texts.iter().enumerate() {
                let id = i as u64 + 1;
                let removed = remove_mask.get(i).copied().unwrap_or(false);
                for term in query_terms(t) {
                    let hits = ix.phrase(&[term]);
                    prop_assert_eq!(hits.contains(&id), !removed);
                }
            }
        }

        /// Segmented save/load is the identity on query results.
        #[test]
        fn index_persistence(texts in proptest::collection::vec("[a-z ]{1,40}", 1..12)) {
            let ix = SegmentedIndex::new();
            for (i, t) in texts.iter().enumerate() {
                ix.add(i as u64 + 1, Placement::default(), t);
                if i % 3 == 2 {
                    ix.commit(); // several segments on disk
                }
            }
            let dir = std::env::temp_dir().join(format!(
                "netmark-prop-ix-{}-{}", std::process::id(), rand::random::<u64>()));
            ix.save(&dir).unwrap();
            let back = SegmentedIndex::load_with(&dir, CompactionPolicy::default()).unwrap();
            prop_assert_eq!(back.len(), ix.len());
            let (snap, back) = (ix.snapshot(), back.snapshot());
            for t in &texts {
                let terms = query_terms(t);
                for term in &terms {
                    let q = [term.clone()];
                    prop_assert_eq!(snap.phrase_placed(&q), back.phrase_placed(&q));
                    prop_assert_eq!(snap.term_scores(term), back.term_scores(term));
                }
                let sum = |s: &netmark_textindex::IndexSnapshot| {
                    sum_scores(terms.iter().map(|term| s.term_scores(term)))
                };
                prop_assert_eq!(sum(&snap), sum(&back));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// --------------------------------------------------------------------- xdb

mod xdb_props {
    use super::*;
    use netmark_xdb::{url_decode, url_encode, MatchMode, RankMode, XdbQuery};

    proptest! {
        /// URL encode/decode round-trips arbitrary strings.
        #[test]
        fn url_codec_round_trip(s in ".{0,60}") {
            prop_assert_eq!(url_decode(&url_encode(&s)), s);
        }

        /// Query → query-string → query is the identity.
        #[test]
        fn query_round_trip(
            context in proptest::option::of(".{1,20}"),
            content in proptest::option::of(".{1,20}"),
            databank in proptest::option::of("[a-z]{1,10}"),
            limit in proptest::option::of(0usize..10000),
            phrase in any::<bool>(),
            ranked in any::<bool>(),
            floor in proptest::option::of(0.0f64..1e12),
        ) {
            // The fallible parser rejects values that trim to nothing —
            // only queries it would accept can round-trip.
            for v in [&context, &content].into_iter().flatten() {
                prop_assume!(!v.trim().is_empty());
            }
            let q = XdbQuery {
                context,
                content,
                databank,
                xslt: None,
                doc: None,
                limit,
                match_mode: if phrase { MatchMode::Phrase } else { MatchMode::Keywords },
                exact_contexts: Vec::new(),
                rank: if ranked { RankMode::Bm25 } else { RankMode::None },
                // `{}` prints the shortest representation that parses back
                // to the same f64, so any valid floor round-trips exactly.
                min_score: floor,
            };
            let back = XdbQuery::from_url(&q.to_query_string()).unwrap();
            prop_assert_eq!(back, q);
        }
    }
}

// --------------------------------------------------------- federation wire

mod wire_props {
    use super::*;
    use netmark_model::Node;
    use netmark_sgml::{parse_xml, NodeTypeConfig};
    use netmark_xdb::{Hit, ResultSet, WIRE_VERSION};

    /// Strings that survive the parser's whitespace handling verbatim:
    /// printable (incl. XML-special `&<>"`), no leading/trailing blanks.
    fn wire_text(regex: &'static str) -> impl Strategy<Value = String> {
        regex.prop_filter("trim-stable", |s: &String| {
            !s.trim().is_empty() && s.trim() == s
        })
    }

    fn hit_strategy() -> impl Strategy<Value = Hit> {
        (
            "[a-z][a-z0-9-]{0,7}",    // source (nonempty → survives verbatim)
            "[a-zA-Z0-9._-]{1,12}",   // document name
            wire_text("[ -~]{1,16}"), // context label
            proptest::option::of(wire_text("[ -~]{1,24}")),
            proptest::option::of(0u32..1_000_000),
        )
            .prop_map(|(source, doc, context, text, score)| Hit {
                source,
                doc,
                context,
                content: match text {
                    Some(t) => Node::element("Content").with_text(&t),
                    None => Node::element("Content"),
                },
                // Node ids are store-internal; they never cross the wire.
                context_node: 0,
                // Eighths print exactly under the wire's `{:.6}` format,
                // so float rendering cannot defeat the round-trip.
                score: score.map(|n| f64::from(n) / 8.0),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The versioned `<results>` wire format is lossless: serialize on
        /// the remote peer, parse + `from_node` on the router, and the
        /// result set — hits, sources, diagnostics, truncation — is
        /// unchanged.
        #[test]
        fn results_wire_round_trip(
            mut hits in proptest::collection::vec(hit_strategy(), 0..8),
            candidates in 0usize..100_000,
            truncated in any::<bool>(),
            ranked in any::<bool>(),
        ) {
            if !ranked {
                // v1 answers carry no score attributes: only ranked sets
                // round-trip scores through the wire.
                for h in &mut hits {
                    h.score = None;
                }
            }
            let rs = ResultSet { hits, candidates, truncated, ranked };
            let xml = rs.to_xml();
            let node = parse_xml(&xml, &NodeTypeConfig::empty()).unwrap();
            let want = if ranked { WIRE_VERSION } else { 1 };
            prop_assert_eq!(node.attr("version"),
                            Some(want.to_string().as_str()));
            let back = ResultSet::from_node(&node, "fallback");
            prop_assert_eq!(back, rs);
        }
    }
}

// ------------------------------------------------------- engine invariants

mod engine_props {
    use super::*;
    use netmark::{NetMark, XdbQuery};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// For any generated corpus: every section reported by a context
        /// query actually has that label, and every hit's document exists.
        #[test]
        fn context_query_soundness(seed in 0u64..1000) {
            let dir = std::env::temp_dir().join(format!(
                "netmark-prop-eng-{}-{}", std::process::id(), seed));
            let _ = std::fs::remove_dir_all(&dir);
            let nm = NetMark::open(&dir).unwrap();
            let docs = netmark_corpus::mixed(
                &netmark_corpus::CorpusConfig::sized(10).with_seed(seed));
            for d in &docs {
                nm.insert_file(&d.name, &d.content).unwrap();
            }
            let rs = nm.query(&XdbQuery::context("Budget")).unwrap();
            for hit in &rs.hits {
                prop_assert_eq!(hit.context.to_lowercase(), "budget");
                prop_assert!(nm.document_by_name(&hit.doc).unwrap().is_some());
            }
            // Combined results are a subset of both single-sided results.
            let combined = nm
                .query(&XdbQuery::context_content("Budget", "telemetry"))
                .unwrap();
            let content_only = nm.query(&XdbQuery::content("telemetry")).unwrap();
            for hit in &combined.hits {
                prop_assert!(rs.hits.iter().any(|h| h.context_node == hit.context_node));
                prop_assert!(content_only
                    .hits
                    .iter()
                    .any(|h| h.context_node == hit.context_node));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

mod ingest_props {
    use super::*;
    use netmark::{NetMark, XdbQuery};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Batched ingest is observationally identical to one-document-
        /// per-transaction ingest — same ids, same reconstructions, same
        /// query answers — for any corpus and any batch split. This pins
        /// the whole deferred-WAL / pointer-patch fast path to the simple
        /// sequential semantics.
        #[test]
        fn batch_ingest_equals_sequential(seed in 0u64..1000, chunk in 1usize..7) {
            let base = std::env::temp_dir().join(format!(
                "netmark-prop-batch-{}-{}-{}", std::process::id(), seed, chunk));
            let _ = std::fs::remove_dir_all(&base);
            let batch = NetMark::open(&base.join("b")).unwrap();
            let seq = NetMark::open(&base.join("s")).unwrap();
            let docs = netmark_corpus::mixed(
                &netmark_corpus::CorpusConfig::sized(8).with_seed(seed));
            let parsed: Vec<_> = docs
                .iter()
                .map(|d| netmark_docformats::upmark(&d.name, &d.content))
                .collect();
            let mut breps = Vec::new();
            for c in parsed.chunks(chunk) {
                breps.extend(batch.ingest_batch(c).unwrap());
            }
            let sreps: Vec<_> = parsed
                .iter()
                .map(|d| seq.insert_document(d).unwrap())
                .collect();
            prop_assert_eq!(breps.len(), sreps.len());
            for (b, s) in breps.iter().zip(&sreps) {
                prop_assert_eq!(b.doc_id, s.doc_id);
                prop_assert_eq!(b.root_node, s.root_node);
                prop_assert_eq!(b.node_count, s.node_count);
            }
            for rep in &breps {
                prop_assert_eq!(
                    batch.reconstruct_document(rep.doc_id).unwrap().root,
                    seq.reconstruct_document(rep.doc_id).unwrap().root);
            }
            for q in [XdbQuery::context("Budget"), XdbQuery::content("engine")] {
                prop_assert_eq!(
                    batch.query(&q).unwrap().hits,
                    seq.query(&q).unwrap().hits);
            }
            let _ = std::fs::remove_dir_all(&base);
        }
    }
}

// --------------------------------------------------------------------- gav

mod gav_props {
    use super::*;
    use netmark_gav::{
        CmpOp, GValue, GlobalView, Mapping, Mediator, Predicate, RelationSchema, Source, ViewQuery,
    };

    /// Brute-force evaluation of one mapping over raw rows.
    fn brute_force(
        rows: &[(String, Vec<(String, f64)>)], // (source, rows of (name, score))
        cutoffs: &[(String, f64)],             // per-source score cutoff
    ) -> Vec<String> {
        let mut out = Vec::new();
        for (src, data) in rows {
            let cutoff = cutoffs
                .iter()
                .find(|(s, _)| s == src)
                .map(|(_, c)| *c)
                .unwrap_or(f64::MAX);
            for (name, score) in data {
                if *score <= cutoff {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// View unfolding is sound and complete: the mediated answer equals
        /// brute-force evaluation of the mapping semantics over the raw
        /// source instances.
        #[test]
        fn unfolding_equals_brute_force(
            per_source in proptest::collection::vec(
                (proptest::collection::vec(("[a-z]{1,6}", 0.0f64..10.0), 0..15),
                 0.0f64..10.0),
                1..5,
            )
        ) {
            let mut med = Mediator::new();
            let mut raw = Vec::new();
            let mut cutoffs = Vec::new();
            let mut mappings = Vec::new();
            for (i, (rows, cutoff)) in per_source.iter().enumerate() {
                let src = format!("s{i}");
                med.register_source(
                    Source::new(&src)
                        .with_relation(RelationSchema::new("r", &["name", "score"])),
                ).unwrap();
                let grows: Vec<Vec<GValue>> = rows
                    .iter()
                    .map(|(n, sc)| vec![GValue::Text(n.clone()), GValue::Num(*sc)])
                    .collect();
                med.load_rows(&src, "r", grows).unwrap();
                mappings.push(Mapping {
                    source: src.clone(),
                    relation: "r".into(),
                    selections: vec![Predicate::new("score", CmpOp::Le, *cutoff)],
                    projection: vec![Some("name".into())],
                });
                raw.push((src.clone(), rows.clone()));
                cutoffs.push((src, *cutoff));
            }
            med.define_view(GlobalView {
                name: "v".into(),
                columns: vec!["name".into()],
                mappings,
            }).unwrap();
            let (_, rows) = med.query(&ViewQuery {
                view: "v".into(),
                predicates: vec![],
                projection: vec![],
            }).unwrap();
            let got: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
            let expect = brute_force(&raw, &cutoffs);
            prop_assert_eq!(got, expect);
        }

        /// Query predicates pushed through the unfolding never change the
        /// answer relative to post-filtering.
        #[test]
        fn pushed_predicates_equal_post_filter(
            rows in proptest::collection::vec(("[a-z]{1,6}", 0.0f64..10.0), 0..20),
            needle in "[a-z]{1}",
        ) {
            let mut med = Mediator::new();
            med.register_source(
                Source::new("s").with_relation(RelationSchema::new("r", &["name", "score"])),
            ).unwrap();
            med.load_rows(
                "s",
                "r",
                rows.iter()
                    .map(|(n, sc)| vec![GValue::Text(n.clone()), GValue::Num(*sc)])
                    .collect(),
            ).unwrap();
            med.define_view(GlobalView {
                name: "v".into(),
                columns: vec!["name".into()],
                mappings: vec![Mapping {
                    source: "s".into(),
                    relation: "r".into(),
                    selections: vec![],
                    projection: vec![Some("name".into())],
                }],
            }).unwrap();
            let (_, all) = med.query(&ViewQuery {
                view: "v".into(),
                predicates: vec![],
                projection: vec![],
            }).unwrap();
            let (_, filtered) = med.query(&ViewQuery {
                view: "v".into(),
                predicates: vec![Predicate::new("name", CmpOp::Contains, needle.as_str())],
                projection: vec![],
            }).unwrap();
            let post: Vec<String> = all
                .iter()
                .map(|r| r[0].to_string())
                .filter(|n| n.contains(&needle))
                .collect();
            let got: Vec<String> = filtered.iter().map(|r| r[0].to_string()).collect();
            prop_assert_eq!(got, post);
        }
    }
}
