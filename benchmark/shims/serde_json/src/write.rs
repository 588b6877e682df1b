//! Compact JSON writer.

use crate::Error;
use serde::ser::{self, Serialize};
use std::io::Write;

/// Writes one value into `W`.
pub struct Serializer<'a, W: Write> {
    out: &'a mut W,
}

impl<'a, W: Write> Serializer<'a, W> {
    pub fn new(out: &'a mut W) -> Self {
        Serializer { out }
    }
}

/// An open `[` or `{`; `close` is the byte that ends it.
pub struct Compound<'a, W: Write> {
    out: &'a mut W,
    first: bool,
    close: u8,
}

impl<W: Write> Compound<'_, W> {
    fn separator(&mut self) -> Result<(), Error> {
        if !self.first {
            self.out.write_all(b",")?;
        }
        self.first = false;
        Ok(())
    }
}

impl<'a, W: Write> ser::Serializer for Serializer<'a, W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        Ok(self.out.write_all(if v { b"true" } else { b"false" })?)
    }

    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        Ok(write!(self.out, "{v}")?)
    }

    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        Ok(write!(self.out, "{v}")?)
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        if v.is_finite() {
            // `{:?}` is the shortest digits that parse back to `v`, with
            // `.0` kept on whole numbers and `e` notation at the extremes.
            Ok(write!(self.out, "{v:?}")?)
        } else {
            self.serialize_unit()
        }
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_str(self.out, v)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        Ok(self.out.write_all(b"null")?)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>, Error> {
        self.out.write_all(b"[")?;
        Ok(Compound {
            out: self.out,
            first: true,
            close: b']',
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, W>, Error> {
        self.out.write_all(b"{")?;
        Ok(Compound {
            out: self.out,
            first: true,
            close: b'}',
        })
    }
}

impl<W: Write> ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.separator()?;
        value.serialize(Serializer::new(&mut *self.out))
    }

    fn end(self) -> Result<(), Error> {
        Ok(self.out.write_all(&[self.close])?)
    }
}

impl<W: Write> ser::SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<V: Serialize + ?Sized>(
        &mut self,
        key: &str,
        value: &V,
    ) -> Result<(), Error> {
        self.separator()?;
        write_str(self.out, key)?;
        self.out.write_all(b":")?;
        value.serialize(Serializer::new(&mut *self.out))
    }

    fn end(self) -> Result<(), Error> {
        Ok(self.out.write_all(&[self.close])?)
    }
}

/// Quote `s`, escaping `"`, `\` and control characters as serde_json does.
fn write_str<W: Write>(out: &mut W, s: &str) -> Result<(), Error> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_all(&bytes[clean_from..i])?;
        clean_from = i + 1;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            0x08 => out.write_all(b"\\b")?,
            0x0c => out.write_all(b"\\f")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_all(&bytes[clean_from..])?;
    Ok(out.write_all(b"\"")?)
}
