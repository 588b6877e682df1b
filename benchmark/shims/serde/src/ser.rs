//! Serialization half: values push themselves into a [`Serializer`].

use std::collections::BTreeMap;
use std::fmt::Display;

/// Error a serializer can raise.
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;
}

/// A value that can write itself into any [`Serializer`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink with JSON's shapes: null, bool, number, string, sequence, map.
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
}

/// An open sequence.
pub trait SerializeSeq {
    type Ok;
    type Error: Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// An open map with string keys.
pub trait SerializeMap {
    type Ok;
    type Error: Error;
    fn serialize_entry<V: Serialize + ?Sized>(
        &mut self,
        key: &str,
        value: &V,
    ) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

macro_rules! via {
    ($method:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.$method(*self as $wide)
            }
        }
    )*};
}
via!(serialize_u64 as u64: u8, u16, u32, u64, usize);
via!(serialize_i64 as i64: i8, i16, i32, i64, isize);
via!(serialize_f64 as f64: f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(s),
            None => s.serialize_unit(),
        }
    }
}

fn collect_seq<'a, S, T, I>(s: S, len: usize, items: I) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    T: Serialize + 'a,
    I: Iterator<Item = &'a T>,
{
    let mut seq = s.serialize_seq(Some(len))?;
    for item in items {
        seq.serialize_element(item)?;
    }
    seq.end()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        collect_seq(s, self.len(), self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        collect_seq(s, N, self.iter())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        collect_seq(s, self.len(), self.iter())
    }
}

macro_rules! tuples {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let mut seq = s.serialize_seq(None)?;
                $(seq.serialize_element(&self.$n)?;)+
                seq.end()
            }
        }
    )*};
}
tuples! { (0 A) (0 A, 1 B) (0 A, 1 B, 2 C) }

impl<K: AsRef<str>, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut map = s.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_entry(k.as_ref(), v)?;
        }
        map.end()
    }
}
