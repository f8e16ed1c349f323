//! `netmark-xdb`: the XDB Query language (paper §2.1.3).
//!
//! "The Netmark query language is a language called XDB Query … context and
//! content search specifications are appended to a URL that is sent to
//! NETMARK." This crate defines the query model ([`XdbQuery`]), its URL
//! syntax (parse/format with percent-decoding), and the result-set model
//! ([`ResultSet`]) that the engine fills, federation merges, and XSLT
//! composes. Execution lives in the `netmark` core crate (local store) and
//! `netmark-federation` (databanks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
pub mod query;
pub mod result;

pub use caps::{Capabilities, WIRE_VERSION};
pub use query::{url_decode, url_encode, MatchMode, ParseError, RankMode, XdbQuery};
pub use result::{Hit, ResultSet};
