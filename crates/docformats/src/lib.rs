//! `netmark-docformats`: automated metadata extraction — the paper's
//! format "upmarkers".
//!
//! "We have developed parsers for a wide variety of document formats (such
//! as Word, PDF, HTML, Powerpoint and others) that automatically structure
//! and 'upmark' a document into XML based on the formatting information in
//! the document" (paper §4). Binary Word/PDF/PowerPoint are unavailable
//! offline, so this crate parses *simulated* formats carrying the same
//! formatting cues (see DESIGN.md's substitution table):
//!
//! | format | cue used for structure |
//! |---|---|
//! | plain text / Markdown | `#`, numbering, underlines, ALL CAPS |
//! | `.wdoc` (Word stand-in) | named paragraph styles (`<<Heading1>>`) |
//! | `.pdoc` (PDF stand-in) | font sizes and bold spans |
//! | `.sdoc` (slides stand-in) | slide titles and bullets |
//! | HTML | `h1`–`h6`, `title`, emphasis tags |
//! | XML | already structured (identity) |
//! | CSV | header row → named record fields |
//!
//! Every parser emits the same canonical Fig-4 shape — alternating
//! `<Context>` / `<Content>` siblings — via [`canonical::UpmarkBuilder`].
//! Entry point: [`upmark`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod detect;
pub mod html;
pub mod pdoc;
pub mod plaintext;
pub mod sdoc;
pub mod spreadsheet;
pub mod wdoc;

pub use canonical::UpmarkBuilder;
pub use detect::{detect_format, upmark, upmark_as, Format};
pub use html::{parse_html_doc, parse_xml_doc};
pub use pdoc::parse_pdoc;
pub use plaintext::parse_plaintext;
pub use sdoc::parse_sdoc;
pub use spreadsheet::{parse_csv, split_csv_line};
pub use wdoc::parse_wdoc;
