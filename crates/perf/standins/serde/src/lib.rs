//! Offline stand-in for `serde`.
//!
//! `optrep-core` derives `Serialize`/`Deserialize` on three plain types
//! and nothing in the workspace serialises through them, so the traits
//! are markers and the derives (feature `derive`) expand to nothing.

pub trait Serialize {}
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
