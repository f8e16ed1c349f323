//! Quickstart: ingest a few heterogeneous documents, run the paper's three
//! query shapes, compose a result document with XSLT.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use netmark::{NetMark, XdbQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("netmark-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nm = NetMark::open(&dir)?;

    // Drop three documents of three different formats into the store. No
    // schema is declared anywhere — the store is the same two tables for
    // all of them.
    nm.insert_file(
        "plan-a.wdoc",
        "<<Title>> Plan A\n\
         <<Heading1>> Budget\n<<Normal>> two million dollars\n\
         <<Heading1>> Technology Gap\n<<Normal>> the gap is shrinking\n",
    )?;
    nm.insert_file(
        "plan-b.txt",
        "# Budget\none million dollars\n# Technology Gap\nthe gap is growing\n",
    )?;
    nm.insert_file(
        "lesson-424.html",
        "<html><head><title>Lesson 424</title></head><body>\
         <h1>Summary</h1><p>The shuttle engine controller faulted.</p>\
         <h1>Recommendation</h1><p>Inspect the harness.</p></body></html>",
    )?;

    // 1. Context search (paper: "Context=Introduction will return the
    //    content portion in the 'Introduction' sections in all the
    //    documents").
    println!("== Context=Budget");
    for hit in &nm.query(&XdbQuery::context("Budget"))?.hits {
        println!("  [{}] {}: {}", hit.doc, hit.context, hit.content_text());
    }

    // 2. Content search (paper: "Content=Shuttle will return all documents
    //    that contain the term 'Shuttle' anywhere").
    println!("== Content=Shuttle");
    for hit in &nm.query(&XdbQuery::content("Shuttle"))?.hits {
        println!("  [{}] {}: {}", hit.doc, hit.context, hit.content_text());
    }

    // 3. Combined (paper: "Context=Technology Gap & Content=Shrinking").
    println!("== Context=Technology Gap & Content=Shrinking");
    for hit in &nm
        .query(&XdbQuery::context_content("Technology Gap", "Shrinking"))?
        .hits
    {
        println!("  [{}] {}: {}", hit.doc, hit.context, hit.content_text());
    }

    // 4. The same, as a URL with XSLT composition (Figs 6–7).
    nm.register_stylesheet(
        "report",
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <integrated-report>
                 <xsl:for-each select="hit">
                   <section doc="{@doc}" heading="{Context}">
                     <xsl:value-of select="Content"/>
                   </section>
                 </xsl:for-each>
               </integrated-report>
             </xsl:template>
           </xsl:stylesheet>"#,
    )?;
    let composed = nm
        .query_url("Context=Budget&xslt=report")?
        .composed()
        .expect("xslt was named");
    println!("== Composed document (Context=Budget & xslt=report)");
    println!("{}", composed.to_pretty_xml());

    let stats = nm.stats()?;
    println!(
        "store: {} documents, {} nodes, {} terms, {} index bytes",
        stats.documents, stats.nodes, stats.index.terms, stats.index.bytes
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
