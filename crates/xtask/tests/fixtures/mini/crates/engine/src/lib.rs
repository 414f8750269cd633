//! Fixture: an instrumented crate. Its manifest lacks the
//! `[lints] workspace = true` opt-in; its span seeds live in `spans.rs`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Span-balance seeds.
pub mod spans;
