//! Offline stand-in for `serde`.
//!
//! The build environment has no registry access, so the workspace vendors
//! a minimal serialization framework with the same *spelling* as serde
//! (`derive(Serialize, Deserialize)`, container attribute
//! `#[serde(try_from = "T", into = "T")]`) but a much simpler model: data
//! converts to and from an owned JSON-like [`Value`] tree. The companion
//! `serde_json` shim renders and parses that tree as real JSON.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Build an error from any displayable message.
    pub fn custom(message: impl std::fmt::Display) -> Self {
        Error {
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a value tree.
    ///
    /// # Errors
    /// [`Error`] describing the first shape/type mismatch.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Look up a required object field and deserialize it (derive helper).
///
/// # Errors
/// [`Error`] if the field is missing or has the wrong shape.
pub fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => Err(Error::custom(format!("missing field `{name}`"))),
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_num()
            .ok_or_else(|| Error::custom("expected a number"))
    }
}

macro_rules! impl_int_via_f64 {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let x = value
                    .as_num()
                    .ok_or_else(|| Error::custom("expected a number"))?;
                if x.fract() != 0.0 || x < <$t>::MIN as f64 || x > <$t>::MAX as f64 {
                    return Err(Error::custom(format!(
                        "number {x} is not a valid {}",
                        stringify!($t)
                    )));
                }
                Ok(x as $t)
            }
        }
    )*};
}
impl_int_via_f64!(u8, u16, u32, u64, usize, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected a boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected a string")),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_arr()
            .ok_or_else(|| Error::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(u32::from_value(&7u32.to_value()).unwrap(), 7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert!(u32::from_value(&Value::Num(1.5)).is_err());
        assert!(u32::from_value(&Value::Num(-1.0)).is_err());
    }

    #[test]
    fn vec_round_trip() {
        let xs = vec![1.0f64, 2.0, 3.0];
        assert_eq!(Vec::<f64>::from_value(&xs.to_value()).unwrap(), xs);
    }

    #[test]
    fn value_is_its_own_codec() {
        let v = Value::Obj(vec![("k".to_string(), Value::Arr(vec![Value::Num(1.0)]))]);
        assert_eq!(Value::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn field_lookup() {
        let obj = vec![("a".to_string(), Value::Num(2.0))];
        assert_eq!(field::<f64>(&obj, "a").unwrap(), 2.0);
        assert!(field::<f64>(&obj, "b").is_err());
    }
}
