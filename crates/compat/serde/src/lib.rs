//! Offline, API-compatible subset of [serde](https://serde.rs).
//!
//! The build environment for this workspace has no network access, so the
//! real serde crate cannot be fetched. This crate provides just enough of the
//! same surface for the workspace to compile and round-trip its data:
//!
//! * [`Serialize`] / [`Deserialize`] traits (simplified: they convert to and
//!   from a JSON-like [`Content`] tree instead of driving a visitor), and
//! * `#[derive(Serialize, Deserialize)]` macros (re-exported from the local
//!   `serde_derive` proc-macro crate) covering non-generic structs and enums
//!   with unit, tuple and struct variants — the only shapes used here.
//!
//! The `serde_json` sibling crate renders [`Content`] as JSON text and parses
//! it back. Swapping these for the real crates only requires changing the
//! `[workspace.dependencies]` entries in the root `Cargo.toml`.

use std::fmt;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// A serialised value: the JSON data model.
///
/// Integers keep their sign information (`U64` vs `I64`) so `u64` values
/// above `i64::MAX` round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Content>),
    /// Object, with insertion order preserved.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// The entries of an object, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array of exactly `n` elements, or an error mentioning `what`.
    pub fn as_seq_n(&self, n: usize, what: &str) -> Result<&[Content], Error> {
        match self.as_seq() {
            Some(items) if items.len() == n => Ok(items),
            _ => Err(Error::expected(&format!("array of {n} elements"), what)),
        }
    }
}

/// Serialisation / deserialisation error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// A type-mismatch error.
    pub fn expected(wanted: &str, context: &str) -> Error {
        Error(format!("expected {wanted} while deserialising {context}"))
    }

    /// An arbitrary error message.
    pub fn msg(message: impl Into<String>) -> Error {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Content`] tree.
pub trait Serialize {
    /// Convert `self` into serialised content.
    fn to_content(&self) -> Content;
}

/// Types that can be reconstructed from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct a value from serialised content.
    fn from_content(content: &Content) -> Result<Self, Error>;
}

/// Look up a struct field in an object and deserialise it.
pub fn field<T: Deserialize>(map: &[(String, Content)], name: &str, ty: &str) -> Result<T, Error> {
    field_ref(map, name, ty).and_then(T::from_content)
}

/// Look up a struct field in an object without deserialising it: the
/// borrowing form of [`field`] for nested blobs, which would otherwise be
/// deep-cloned by `Content`'s own [`Deserialize`] impl.
pub fn field_ref<'a>(
    map: &'a [(String, Content)],
    name: &str,
    ty: &str,
) -> Result<&'a Content, Error> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => Ok(v),
        None => Err(Error::msg(format!("missing field `{name}` in {ty}"))),
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(content: &Content) -> Result<Self, Error> {
        Ok(content.clone())
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, Error> {
                let v = match content {
                    Content::U64(v) => *v,
                    Content::I64(v) if *v >= 0 => *v as u64,
                    _ => return Err(Error::expected("unsigned integer", stringify!($t))),
                };
                <$t>::try_from(v).map_err(|_| Error::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 {
                    Content::U64(v as u64)
                } else {
                    Content::I64(v)
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, Error> {
                let v = match content {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v)
                        .map_err(|_| Error::expected("in-range integer", stringify!($t)))?,
                    _ => return Err(Error::expected("integer", stringify!($t))),
                };
                <$t>::try_from(v).map_err(|_| Error::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Bool(b) => Ok(*b),
            _ => Err(Error::expected("boolean", "bool")),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::F64(v) => Ok(*v),
            Content::U64(v) => Ok(*v as f64),
            Content::I64(v) => Ok(*v as f64),
            _ => Err(Error::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(content: &Content) -> Result<Self, Error> {
        f64::from_content(content).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for &str {
    fn to_content(&self) -> Content {
        Content::Str((*self).to_string())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        content
            .as_seq()
            .ok_or_else(|| Error::expected("array", "Vec"))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        T::from_content(content).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        T::from_content(content).map(Arc::new)
    }
}

impl Deserialize for Arc<str> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) => Ok(Arc::from(s.as_str())),
            _ => Err(Error::expected("string", "Arc<str>")),
        }
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        Vec::<T>::from_content(content).map(Arc::from)
    }
}

macro_rules! impl_tuple {
    ($n:expr => $($idx:tt $t:ident),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(content: &Content) -> Result<Self, Error> {
                let items = content.as_seq_n($n, "tuple")?;
                Ok(($($t::from_content(&items[$idx])?,)+))
            }
        }
    };
}
impl_tuple!(1 => 0 A);
impl_tuple!(2 => 0 A, 1 B);
impl_tuple!(3 => 0 A, 1 B, 2 C);
impl_tuple!(4 => 0 A, 1 B, 2 C, 3 D);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_content(&42u64.to_content()).unwrap(), 42);
        assert_eq!(i64::from_content(&(-7i64).to_content()).unwrap(), -7);
        assert_eq!(u64::from_content(&u64::MAX.to_content()).unwrap(), u64::MAX);
        assert_eq!(f64::from_content(&0.25f64.to_content()).unwrap(), 0.25);
        assert!(bool::from_content(&true.to_content()).unwrap());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u16, 2u64), (3, 4)];
        assert_eq!(Vec::<(u16, u64)>::from_content(&v.to_content()).unwrap(), v);
        let o: Option<String> = Some("hi".into());
        assert_eq!(Option::<String>::from_content(&o.to_content()).unwrap(), o);
        let none: Option<u64> = None;
        assert_eq!(
            Option::<u64>::from_content(&none.to_content()).unwrap(),
            none
        );
        let a: Arc<str> = Arc::from("abc");
        assert_eq!(&*Arc::<str>::from_content(&a.to_content()).unwrap(), "abc");
        let s: Arc<[u64]> = Arc::from(vec![1, 2, 3]);
        assert_eq!(
            &*Arc::<[u64]>::from_content(&s.to_content()).unwrap(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn missing_field_reports_name() {
        let map = vec![("a".to_string(), Content::U64(1))];
        let err = field::<u64>(&map, "b", "Demo").unwrap_err();
        assert!(err.0.contains("`b`"));
        let err = field_ref(&map, "b", "Demo").unwrap_err();
        assert!(err.0.contains("`b`"));
    }

    #[test]
    fn field_ref_borrows_the_stored_value() {
        let map = vec![("a".to_string(), Content::Seq(vec![Content::U64(1)]))];
        let found = field_ref(&map, "a", "Demo").unwrap();
        assert!(std::ptr::eq(found, &map[0].1));
    }
}
