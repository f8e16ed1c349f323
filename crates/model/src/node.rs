//! The NETMARK document model.
//!
//! The paper's SGML parser "is governed by five different node data types
//! ... (1) ELEMENT, (2) TEXT, (3) CONTEXT, (4) INTENSE, and (5) SIMULATION"
//! (§2.1.1, Fig 5). The paper skips their exact definitions; this
//! reproduction assigns them the roles their names and the surrounding text
//! imply:
//!
//! - **ELEMENT** — an ordinary markup element.
//! - **TEXT** — character data.
//! - **CONTEXT** — a heading-like element ("similar to the `<H1>` and
//!   `<H2>` header tags"); the unit the `Context=` search targets.
//! - **INTENSE** — emphasized inline content (bold/italic/strong); carries
//!   formatting weight the upmarkers use but does not open a section.
//! - **SIMULATION** — a node *synthesized* by an upmarker rather than
//!   present in the source (e.g. the implied "Body" context of a document
//!   with no headings, or a cell grid derived from a spreadsheet).

use crate::escape::{escape_attr, escape_text};
use std::fmt;

/// The five NETMARK node data types (Fig 5's `NODETYPE` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeType {
    /// Ordinary markup element.
    Element = 1,
    /// Character data.
    Text = 2,
    /// Heading-like element: the target of `Context=` searches.
    Context = 3,
    /// Emphasized inline content.
    Intense = 4,
    /// Node synthesized by an upmarker, not present in the source.
    Simulation = 5,
}

impl NodeType {
    /// The Fig-5 numeric identifier.
    pub fn id(self) -> i64 {
        self as i64
    }

    /// Inverse of [`NodeType::id`].
    pub fn from_id(id: i64) -> Option<NodeType> {
        Some(match id {
            1 => NodeType::Element,
            2 => NodeType::Text,
            3 => NodeType::Context,
            4 => NodeType::Intense,
            5 => NodeType::Simulation,
            _ => return None,
        })
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeType::Element => "ELEMENT",
            NodeType::Text => "TEXT",
            NodeType::Context => "CONTEXT",
            NodeType::Intense => "INTENSE",
            NodeType::Simulation => "SIMULATION",
        })
    }
}

/// One node of an upmarked document tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node data type.
    pub ntype: NodeType,
    /// Element name; `"#text"` for text nodes.
    pub name: String,
    /// Character data (text nodes only).
    pub text: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Node {
    /// An ordinary element.
    pub fn element(name: &str) -> Node {
        Node {
            ntype: NodeType::Element,
            name: name.to_string(),
            text: String::new(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// A context (heading) element whose heading text is `label`.
    pub fn context(name: &str, label: &str) -> Node {
        let mut n = Node {
            ntype: NodeType::Context,
            name: name.to_string(),
            text: String::new(),
            attrs: Vec::new(),
            children: Vec::new(),
        };
        if !label.is_empty() {
            n.children.push(Node::text(label));
        }
        n
    }

    /// A text node.
    pub fn text(data: &str) -> Node {
        Node {
            ntype: NodeType::Text,
            name: "#text".to_string(),
            text: data.to_string(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// An emphasized inline element.
    pub fn intense(name: &str) -> Node {
        Node {
            ntype: NodeType::Intense,
            name: name.to_string(),
            text: String::new(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// A synthesized element.
    pub fn simulation(name: &str) -> Node {
        Node {
            ntype: NodeType::Simulation,
            name: name.to_string(),
            text: String::new(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: adds an attribute.
    pub fn with_attr(mut self, key: &str, value: &str) -> Node {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// Builder: adds a child.
    pub fn with_child(mut self, child: Node) -> Node {
        self.children.push(child);
        self
    }

    /// Builder: adds a text child.
    pub fn with_text(self, data: &str) -> Node {
        self.with_child(Node::text(data))
    }

    /// Attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Concatenated text of this subtree, in document order, with single
    /// spaces joining fragments.
    pub fn text_content(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        self.collect_text(&mut parts);
        parts.join(" ")
    }

    fn collect_text<'a>(&'a self, out: &mut Vec<&'a str>) {
        if self.ntype == NodeType::Text {
            let t = self.text.trim();
            if !t.is_empty() {
                out.push(t);
            }
        }
        for c in &self.children {
            c.collect_text(out);
        }
    }

    /// Depth-first pre-order iterator over the subtree (self included).
    pub fn iter(&self) -> NodeIter<'_> {
        NodeIter { stack: vec![self] }
    }

    /// First descendant element (or self) with the given name.
    pub fn find(&self, name: &str) -> Option<&Node> {
        self.iter().find(|n| n.name == name)
    }

    /// All descendant elements (and self) with the given name.
    pub fn find_all(&self, name: &str) -> Vec<&Node> {
        self.iter().filter(|n| n.name == name).collect()
    }

    /// Direct child elements with the given name.
    pub fn children_named(&self, name: &str) -> Vec<&Node> {
        self.children.iter().filter(|n| n.name == name).collect()
    }

    /// Number of nodes in the subtree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Node::size).sum::<usize>()
    }

    /// Maximum depth of the subtree (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Node::depth).max().unwrap_or(0)
    }

    /// Every section below this node in document order: a CONTEXT child
    /// and its span, the following siblings up to the next CONTEXT. A
    /// section comes before the sections nested inside its span.
    pub fn sections(&self) -> Vec<(&Node, &[Node])> {
        let mut out = Vec::new();
        self.collect_sections(&mut out);
        out
    }

    fn collect_sections<'a>(&'a self, out: &mut Vec<(&'a Node, &'a [Node])>) {
        let mut rest = &self.children[..];
        while let Some((first, tail)) = rest.split_first() {
            let is_context = |n: &Node| n.ntype == NodeType::Context;
            if !is_context(first) {
                first.collect_sections(out);
                rest = tail;
                continue;
            }
            let end = tail.iter().position(is_context).unwrap_or(tail.len());
            let (span, next) = tail.split_at(end);
            out.push((first, span));
            span.iter().for_each(|child| child.collect_sections(out));
            rest = next;
        }
    }

    /// The `<Content>` element of a section whose span is `parts`: the one
    /// part itself when it is already a `<Content>` element.
    pub fn content_of(mut parts: Vec<Node>) -> Node {
        match parts.len() == 1 && parts[0].name == "Content" {
            true => parts.remove(0),
            false => Node {
                children: parts,
                ..Node::element("Content")
            },
        }
    }

    /// Serializes the subtree as XML (no declaration, no whitespace added).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, None);
        out
    }

    /// Serializes the subtree as indented XML.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, Some(0));
        out
    }

    fn write_xml(&self, out: &mut String, indent: Option<usize>) {
        let pad = |out: &mut String, level: usize| {
            for _ in 0..level {
                out.push_str("  ");
            }
        };
        let level = indent.unwrap_or(0);
        if self.ntype == NodeType::Text {
            if indent.is_some() {
                pad(out, level);
            }
            out.push_str(&escape_text(&self.text));
            if indent.is_some() {
                out.push('\n');
            }
            return;
        }
        if indent.is_some() {
            pad(out, level);
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_attr(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            if indent.is_some() {
                out.push('\n');
            }
            return;
        }
        out.push('>');
        // Compact single-text-child form even when pretty-printing.
        if indent.is_some() && self.children.len() == 1 && self.children[0].ntype == NodeType::Text
        {
            out.push_str(&escape_text(&self.children[0].text));
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
            return;
        }
        if indent.is_some() {
            out.push('\n');
        }
        for c in &self.children {
            c.write_xml(out, indent.map(|l| l + 1));
        }
        if indent.is_some() {
            pad(out, level);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
        if indent.is_some() {
            out.push('\n');
        }
    }
}

/// Depth-first pre-order node iterator.
pub struct NodeIter<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = &'a Node;

    fn next(&mut self) -> Option<&'a Node> {
        let n = self.stack.pop()?;
        for c in n.children.iter().rev() {
            self.stack.push(c);
        }
        Some(n)
    }
}

/// A named, upmarked document: the unit NETMARK ingests and stores.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// File name (the DOC table's `FILE_NAME`).
    pub name: String,
    /// Source format tag, e.g. `"wdoc"`, `"html"` (informational).
    pub format: String,
    /// Size of the original file in bytes (the DOC table's `FILE_SIZE`).
    pub source_size: u64,
    /// Root of the upmarked tree.
    pub root: Node,
}

impl Document {
    /// Creates a document around a root node.
    pub fn new(name: &str, format: &str, root: Node) -> Document {
        Document {
            name: name.to_string(),
            format: format.to_string(),
            source_size: 0,
            root,
        }
    }

    /// Builder: records the original file size.
    pub fn with_source_size(mut self, bytes: u64) -> Document {
        self.source_size = bytes;
        self
    }

    /// `(context label, content text)` pairs in document order — the view
    /// Fig 4 of the paper illustrates (`<Context>Abstract</Context>
    /// <Content>...</Content>`).
    pub fn context_content_pairs(&self) -> Vec<(String, String)> {
        let pair = |(context, span): (&Node, &[Node])| {
            let mut texts: Vec<String> = span.iter().map(Node::text_content).collect();
            texts.retain(|t| !t.is_empty());
            (context.text_content(), texts.join(" "))
        };
        self.root.sections().into_iter().map(pair).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let root = Node::element("document")
            .with_child(Node::context("Context", "Abstract"))
            .with_child(Node::element("Content").with_text("This paper describes an approach."))
            .with_child(Node::context("Context", "Introduction"))
            .with_child(
                Node::element("Content")
                    .with_text("Seamless integrated access ")
                    .with_child(Node::intense("b").with_text("continues"))
                    .with_text(" to be a challenge."),
            );
        Document::new("paper.xml", "xml", root)
    }

    #[test]
    fn node_type_ids_match_fig5() {
        assert_eq!(NodeType::Element.id(), 1);
        assert_eq!(NodeType::Text.id(), 2);
        assert_eq!(NodeType::Context.id(), 3);
        assert_eq!(NodeType::Intense.id(), 4);
        assert_eq!(NodeType::Simulation.id(), 5);
        for id in 1..=5 {
            assert_eq!(NodeType::from_id(id).unwrap().id(), id);
        }
        assert!(NodeType::from_id(0).is_none());
        assert!(NodeType::from_id(6).is_none());
    }

    #[test]
    fn text_content_joins_fragments() {
        let d = sample();
        let content = d.root.children[3].text_content();
        assert_eq!(
            content,
            "Seamless integrated access continues to be a challenge."
        );
    }

    #[test]
    fn context_content_pairs_fig4() {
        let d = sample();
        let pairs = d.context_content_pairs();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "Abstract");
        assert_eq!(pairs[0].1, "This paper describes an approach.");
        assert_eq!(pairs[1].0, "Introduction");
        assert!(pairs[1].1.contains("Seamless"));
    }

    #[test]
    fn nested_contexts_are_found() {
        let root = Node::element("doc")
            .with_child(Node::context("h1", "Top"))
            .with_child(
                Node::element("section")
                    .with_child(Node::context("h2", "Inner"))
                    .with_child(Node::element("p").with_text("inner text")),
            );
        let d = Document::new("n.xml", "xml", root);
        let pairs = d.context_content_pairs();
        let labels: Vec<&str> = pairs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["Top", "Inner"]);
        assert_eq!(pairs[1].1, "inner text");
    }

    #[test]
    fn xml_serialization_escapes() {
        let n = Node::element("a")
            .with_attr("k", "v<>&\"")
            .with_text("1 < 2 & 3");
        assert_eq!(
            n.to_xml(),
            r#"<a k="v&lt;&gt;&amp;&quot;">1 &lt; 2 &amp; 3</a>"#
        );
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(Node::element("br").to_xml(), "<br/>");
    }

    #[test]
    fn iter_is_preorder() {
        let d = sample();
        let names: Vec<&str> = d.root.iter().map(|n| n.name.as_str()).take(4).collect();
        assert_eq!(names, vec!["document", "Context", "#text", "Content"]);
        assert_eq!(d.root.size(), d.root.iter().count());
    }

    #[test]
    fn find_helpers() {
        let d = sample();
        assert!(d.root.find("b").is_some());
        assert_eq!(d.root.find_all("Content").len(), 2);
        assert_eq!(d.root.children_named("Context").len(), 2);
        assert!(d.root.find("nope").is_none());
    }

    #[test]
    fn size_and_depth() {
        let n = Node::element("a").with_child(Node::element("b").with_text("t"));
        assert_eq!(n.size(), 3);
        assert_eq!(n.depth(), 3);
        assert_eq!(Node::text("x").depth(), 1);
    }

    #[test]
    fn pretty_print_is_reparseable_shape() {
        let d = sample();
        let pretty = d.root.to_pretty_xml();
        assert!(pretty.contains("<Context>Abstract</Context>"));
        assert!(pretty.lines().count() > 3);
    }
}
