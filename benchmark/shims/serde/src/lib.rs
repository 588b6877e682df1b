//! Stand-in for the slice of `serde` the repository uses.
//!
//! The public names (`Serialize`, `Deserialize`, `Serializer`,
//! `Deserializer`, `ser::Error`, `de::Error`, the derives) match the real
//! crate, so the library crates compile unchanged. The data model does
//! not: serialization streams into a [`Serializer`] with JSON's seven
//! shapes, and deserialization hands over a parsed [`de::Content`] tree
//! instead of driving a visitor. That is what the real crate does for the
//! internally tagged enums on this repository's hot paths (`WalEvent`,
//! `Request`), and it keeps the derive small enough to write without
//! `syn`.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};
