//! FIG6 — Fig 6: context search (and the paper's three query shapes).
//!
//! "A context search query, such as Context=Introduction will return the
//! content portion in the 'Introduction' sections … Content=Shuttle will
//! return all documents that contain the term 'Shuttle' … one can also
//! combine context and content searches." Measured here: latency and hit
//! counts of the three shapes as the corpus grows.

use netmark::XdbQuery;
use netmark_bench::{banner, fmt_dur, load_netmark, median_of, TableWriter, TempDir};
use netmark_corpus::{mixed, CorpusConfig};

fn main() {
    banner(
        "FIG6",
        "Fig 6 — context search across the document collection",
        "context/content queries return section-level results across all \
         documents; index-backed, so latency grows with hits, not corpus",
    );
    let queries: Vec<(&str, XdbQuery)> = vec![
        ("Context=Budget", XdbQuery::context("Budget")),
        ("Content=shuttle", XdbQuery::content("shuttle")),
        (
            "Context=Technology Gap & Content=shrinking",
            XdbQuery::context_content("Technology Gap", "shrinking"),
        ),
        (
            "Context=Corrective Action & Content=harness",
            XdbQuery::context_content("Corrective Action", "harness"),
        ),
    ];
    let mut t = TableWriter::new(&["corpus docs", "query", "hits", "median latency"]);
    for &n in &[250usize, 1000, 4000] {
        let docs = mixed(&CorpusConfig::sized(n));
        let scratch = TempDir::new("fig6");
        let nm = load_netmark(scratch.path(), &docs);
        for (label, q) in &queries {
            let (rs, lat) = median_of(7, || nm.query(q).expect("query"));
            t.row(&[
                n.to_string(),
                label.to_string(),
                rs.len().to_string(),
                fmt_dur(lat),
            ]);
        }
    }
    t.print();
    println!(
        "\nreading: pure context search reads one label posting list in \
         the text index and then the store only for the hits it returns \
         (context row + sibling walk); content queries scale with the \
         posting-list sizes of their terms — the paper's index-first \
         query processing (§2.1.4)."
    );
}
