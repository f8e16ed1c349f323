//! `netmark-sgml`: the NETMARK "SGML parser" (Fig 3).
//!
//! Decomposes XML and HTML documents into typed node trees. The parser is
//! "governed by five different node data types, which are specified in the
//! HTML or XML configuration files passed by the daemon" (paper §2.1.1):
//! a [`NodeTypeConfig`] names which elements are `CONTEXT` (headings),
//! `INTENSE` (emphasis) or `SIMULATION` (synthesized); everything else is
//! `ELEMENT`, and character data is `TEXT`.
//!
//! - [`parse_xml`] is strict (well-formedness errors are reported);
//! - [`parse_html`] is lenient and never fails — real-world enterprise HTML
//!   parses into *something* useful, as the paper requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod parser;
pub mod tokenizer;

pub use config::NodeTypeConfig;
pub use parser::{parse_html, parse_xml, ParseError};
pub use tokenizer::{tokenize, Token};
