//! `netmark-corpus`: the synthetic stand-ins for the paper's NASA corpora.
//!
//! The paper's applications run over proposals, task plans, anomaly
//! databases, lessons-learned pages, risk decks and spreadsheets — none of
//! which are available. Per DESIGN.md's substitution rule, this crate
//! generates seeded synthetic equivalents *in raw source formats* (wdoc,
//! pdoc, sdoc, html, csv) with section vocabularies matching the paper's
//! examples (Budget, Technology Gap, Title, Engine, Shuttle, …), so every
//! experiment exercises the full upmark-ingest-query pipeline on inputs of
//! the right shape. Everything is deterministic in the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod words;

pub use generate::{
    anomaly_reports, lessons_learned, mixed, personnel_csv, proposals, query_workload, risk_decks,
    spreadsheets, task_plans, CorpusConfig, RawDoc,
};
pub use words::{body_text, title_text, BODY_WORDS, SECTION_NAMES};
