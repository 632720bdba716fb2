//! `alexa-json` — the workspace's dependency-free JSON value.
//!
//! Wire codecs (`alexa-fault`, `alexa-exec`) and the observability layer
//! (`alexa-obs`, which re-exports it) share this one type, so crates that
//! only encode data need not depend on the recorder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

pub use json::{Json, JsonParseError};
