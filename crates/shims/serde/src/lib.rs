//! Offline drop-in replacement for the sliver of `serde` this workspace
//! once used. No crate derives `Serialize`/`Deserialize` any more — the
//! score database states its JSON form in `tango::db` — so what is left
//! is a manifest edge: the traits are markers and the derives are no-ops
//! that still validate as attributes.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize {}
