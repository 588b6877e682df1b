//! Deserialization half: a [`Deserializer`] yields a parsed [`Content`]
//! tree and each type picks itself out of it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::marker::PhantomData;

/// Error a deserializer can raise.
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }

    fn unknown_variant(variant: &str, of: &'static str) -> Self {
        Self::custom(format_args!("unknown variant `{variant}` of {of}"))
    }

    fn invalid_type(found: &Content<'_>, expected: &str) -> Self {
        Self::custom(format_args!(
            "invalid type: {}, expected {expected}",
            found.kind()
        ))
    }
}

/// One parsed value. Strings borrow from the input when they hold no
/// escapes; map entries keep input order.
#[derive(Clone, Debug, PartialEq)]
pub enum Content<'de> {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Cow<'de, str>),
    Seq(Vec<Content<'de>>),
    Map(Vec<(Cow<'de, str>, Content<'de>)>),
}

impl Content<'_> {
    /// Shape name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "boolean",
            Content::U64(_) | Content::I64(_) => "integer",
            Content::F64(_) => "floating point number",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// A source of one [`Content`] tree.
pub trait Deserializer<'de>: Sized {
    type Error: Error;
    fn into_content(self) -> Result<Content<'de>, Self::Error>;
}

/// A value that can be built from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;

    /// Value for a struct field absent from the input: an error, except
    /// for `Option`, which reads as `None`.
    #[doc(hidden)]
    fn missing<E: Error>(field: &'static str) -> Result<Self, E> {
        Err(E::missing_field(field))
    }
}

/// Hands an already parsed subtree to a nested `deserialize` call, with
/// the outer deserializer's error type.
pub struct ContentDeserializer<'de, E> {
    content: Content<'de>,
    error: PhantomData<E>,
}

impl<'de, E> ContentDeserializer<'de, E> {
    pub fn new(content: Content<'de>) -> Self {
        ContentDeserializer {
            content,
            error: PhantomData,
        }
    }
}

impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<'de, E> {
    type Error = E;
    fn into_content(self) -> Result<Content<'de>, E> {
        Ok(self.content)
    }
}

/// Deserialize `T` from a subtree.
pub fn from_content<'de, T: Deserialize<'de>, E: Error>(content: Content<'de>) -> Result<T, E> {
    T::deserialize(ContentDeserializer::<E>::new(content))
}

/// Entries of a map, or a type error naming what wanted one.
#[doc(hidden)]
pub fn expect_map<'de, E: Error>(
    content: Content<'de>,
    expected: &str,
) -> Result<Vec<(Cow<'de, str>, Content<'de>)>, E> {
    match content {
        Content::Map(entries) => Ok(entries),
        other => Err(E::invalid_type(&other, expected)),
    }
}

/// Remove and return the entry named `key`.
#[doc(hidden)]
pub fn take_entry<'de>(
    entries: &mut Vec<(Cow<'de, str>, Content<'de>)>,
    key: &str,
) -> Option<Content<'de>> {
    let at = entries.iter().position(|(k, _)| k == key)?;
    Some(entries.remove(at).1)
}

/// Remove the tag entry of a tagged enum and return its string.
#[doc(hidden)]
pub fn take_tag<'de, E: Error>(
    entries: &mut Vec<(Cow<'de, str>, Content<'de>)>,
    tag: &'static str,
) -> Result<Cow<'de, str>, E> {
    match take_entry(entries, tag) {
        Some(Content::Str(s)) => Ok(s),
        Some(other) => Err(E::invalid_type(&other, "a variant name")),
        None => Err(E::missing_field(tag)),
    }
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let out_of_range = |v: &dyn Display| {
                    D::Error::custom(format_args!(
                        "integer {v} out of range for {}",
                        stringify!($t)
                    ))
                };
                match d.into_content()? {
                    Content::U64(v) => <$t>::try_from(v).map_err(|_| out_of_range(&v)),
                    Content::I64(v) => <$t>::try_from(v).map_err(|_| out_of_range(&v)),
                    other => Err(D::Error::invalid_type(&other, stringify!($t))),
                }
            }
        }
    )*};
}
ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::F64(v) => Ok(v),
            Content::U64(v) => Ok(v as f64),
            Content::I64(v) => Ok(v as f64),
            other => Err(D::Error::invalid_type(&other, "f64")),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        f64::deserialize(d).map(|v| v as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Bool(v) => Ok(v),
            other => Err(D::Error::invalid_type(&other, "a boolean")),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Str(v) => Ok(v.into_owned()),
            other => Err(D::Error::invalid_type(&other, "a string")),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_content()? {
            Content::Null => Ok(None),
            other => from_content(other).map(Some),
        }
    }

    fn missing<E: Error>(_field: &'static str) -> Result<Self, E> {
        Ok(None)
    }
}

fn expect_seq<'de, E: Error>(content: Content<'de>) -> Result<Vec<Content<'de>>, E> {
    match content {
        Content::Seq(items) => Ok(items),
        other => Err(E::invalid_type(&other, "a sequence")),
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        expect_seq(d.into_content()?)?
            .into_iter()
            .map(from_content)
            .collect()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let items: Vec<T> = Vec::deserialize(d)?;
        let len = items.len();
        <[T; N]>::try_from(items).map_err(|_| {
            D::Error::custom(format_args!(
                "invalid length {len}, expected an array of {N}"
            ))
        })
    }
}

macro_rules! tuples {
    ($(($len:literal: $($t:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<De: Deserializer<'de>>(d: De) -> Result<Self, De::Error> {
                let items = expect_seq::<De::Error>(d.into_content()?)?;
                if items.len() != $len {
                    return Err(De::Error::custom(format_args!(
                        "invalid length {}, expected a tuple of {}",
                        items.len(),
                        $len
                    )));
                }
                let mut items = items.into_iter();
                Ok(($(from_content::<$t, De::Error>(items.next().expect("length checked"))?,)+))
            }
        }
    )*};
}
tuples! { (1: A) (2: A, B) (3: A, B, C) }

impl<'de, K: From<String> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        expect_map(d.into_content()?, "a map")?
            .into_iter()
            .map(|(k, v)| Ok((K::from(k.into_owned()), from_content(v)?)))
            .collect()
    }
}

/// The tree itself, for callers that want untyped JSON.
impl<'de> Deserialize<'de> for Content<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.into_content()
    }
}
