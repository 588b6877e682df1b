//! JSON text to a [`Content`] tree.

use crate::Error;
use serde::de::{self, Content};
use std::borrow::Cow;

/// Nesting allowed before the parser refuses, as in the real crate.
const MAX_DEPTH: usize = 128;

/// Parses one value spanning the whole input.
pub struct Deserializer<'de> {
    text: &'de str,
    at: usize,
}

impl<'de> Deserializer<'de> {
    pub fn new(text: &'de str) -> Self {
        Deserializer { text, at: 0 }
    }

    fn fail<T>(&self, what: &str) -> Result<T, Error> {
        Err(Error(format!("{what} at byte {}", self.at)))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Content<'de>) -> Result<Content<'de>, Error> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            self.fail("expected a JSON value")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Content<'de>, Error> {
        if depth > MAX_DEPTH {
            return self.fail("recursion limit exceeded");
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Content::Null),
            Some(b't') => self.literal("true", Content::Bool(true)),
            Some(b'f') => self.literal("false", Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.seq(depth),
            Some(b'{') => self.map(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("expected a JSON value"),
            None => self.fail("unexpected end of input"),
        }
    }

    fn seq(&mut self, depth: usize) -> Result<Content<'de>, Error> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    fn map(&mut self, depth: usize) -> Result<Content<'de>, Error> {
        self.at += 1;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return self.fail("expected a string key");
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.peek() != Some(b':') {
                return self.fail("expected `:`");
            }
            self.at += 1;
            entries.push((key, self.value(depth + 1)?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    fn number(&mut self) -> Result<Content<'de>, Error> {
        let bytes = self.text.as_bytes();
        let start = self.at;
        let mut integral = true;
        while let Some(&b) = bytes.get(self.at) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.at += 1;
        }
        let token = &self.text[start..self.at];
        let digits = token.strip_prefix('-').unwrap_or(token);
        // JSON forbids what Rust's parsers would accept: `+1`, `01`, `1.`, `.5`.
        let well_formed = digits.starts_with(|c: char| c.is_ascii_digit())
            && !(digits.len() > 1
                && digits.starts_with('0')
                && digits.as_bytes()[1].is_ascii_digit())
            && !token.ends_with(['.', 'e', 'E', '+', '-'])
            && !token.contains(".e")
            && !token.contains(".E");
        if !well_formed {
            self.at = start;
            return self.fail("invalid number");
        }
        if integral {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Content::I64(v));
            }
        }
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Content::F64(v)),
            _ => {
                self.at = start;
                self.fail("number out of range")
            }
        }
    }

    /// The string starting at the opening quote under the cursor; borrowed
    /// from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.at += 1;
        let bytes = self.text.as_bytes();
        let start = self.at;
        loop {
            match bytes.get(self.at) {
                Some(b'"') => {
                    let s = &self.text[start..self.at];
                    self.at += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(0..=0x1f) => return self.fail("control character in string"),
                Some(_) => self.at += 1,
                None => return self.fail("unterminated string"),
            }
        }
        let mut owned = String::from(&self.text[start..self.at]);
        loop {
            let run = self.at;
            while !matches!(bytes.get(self.at), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            owned.push_str(&self.text[run..self.at]);
            match bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    self.at += 1;
                    self.escape(&mut owned)?;
                }
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(code) = self.peek() else {
            return self.fail("unterminated string");
        };
        self.at += 1;
        out.push(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&first) {
                    if !self.text[self.at..].starts_with("\\u") {
                        return self.fail("unpaired surrogate");
                    }
                    self.at += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return self.fail("unpaired surrogate");
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                match char::from_u32(scalar) {
                    Some(c) => c,
                    None => return self.fail("unpaired surrogate"),
                }
            }
            _ => return self.fail("invalid escape"),
        });
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.at..self.at + 4);
        match digits.and_then(|d| u32::from_str_radix(d, 16).ok()) {
            Some(v) if digits.is_some_and(|d| d.bytes().all(|b| b.is_ascii_hexdigit())) => {
                self.at += 4;
                Ok(v)
            }
            _ => self.fail("invalid \\u escape"),
        }
    }
}

impl<'de> de::Deserializer<'de> for Deserializer<'de> {
    type Error = Error;

    fn into_content(mut self) -> Result<Content<'de>, Error> {
        let value = self.value(0)?;
        self.skip_whitespace();
        if self.at != self.text.len() {
            return self.fail("trailing characters");
        }
        Ok(value)
    }
}
