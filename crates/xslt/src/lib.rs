//! `netmark-xslt`: XPath-lite and XSLT-lite result composition.
//!
//! NETMARK formats query results by running an XSLT stylesheet over the
//! result set: "In this URL we may also specify an XSLT stylesheet which
//! specifies how the results are to be formatted and composed into a new
//! document" (paper §2.1.3, Figs 6–7; the paper uses Xalan). This crate is
//! the from-scratch stand-in: a path language ([`xpath`]) and a template
//! engine ([`transform`]) covering the subset result composition needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod transform;
pub mod xpath;

pub use transform::{Stylesheet, XsltError};
pub use xpath::{eval, parse_path, select, Path, XPathError, XPathValue};
