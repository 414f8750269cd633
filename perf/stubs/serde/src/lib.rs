//! Stand-in for `serde`: marker traits every type satisfies, plus the
//! no-op derives. Enough for `use serde::{Deserialize, Serialize};` and
//! `#[derive(Serialize, Deserialize)]` to compile; there is no data
//! model, so nothing can actually be serialized through it.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: every type "is" serializable.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "is" deserializable.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
