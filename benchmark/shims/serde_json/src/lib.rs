//! Stand-in for the `serde_json` entry points the repository calls:
//! `to_string`, `to_vec`, `to_writer`, `from_str`, `from_slice`, `Error`.
//!
//! Output matches the real crate for everything the repository writes:
//! compact separators, the same string escapes, integers in full, finite
//! floats in the shortest form that parses back to the same bits, and
//! `null` for a non-finite float.

mod read;
mod write;

use serde::de::Deserialize;
use serde::ser::Serialize;
use std::fmt;

pub use read::Deserializer;
pub use write::Serializer;

/// Encode or decode failure.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error(e.to_string())
    }
}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Encode `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Encode `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer emits `&str` contents and ASCII only.
    String::from_utf8(to_vec(value)?).map_err(|e| Error(e.to_string()))
}

/// Encode `value` as compact JSON into `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    value.serialize(Serializer::new(&mut writer))
}

/// Decode one JSON value spanning all of `input`.
pub fn from_str<'a, T: Deserialize<'a>>(input: &'a str) -> Result<T> {
    T::deserialize(Deserializer::new(input))
}

/// Decode one JSON value spanning all of `input`, which must be UTF-8.
pub fn from_slice<'a, T: Deserialize<'a>>(input: &'a [u8]) -> Result<T> {
    from_str(std::str::from_utf8(input).map_err(|e| Error(format!("invalid UTF-8: {e}")))?)
}
