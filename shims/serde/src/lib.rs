//! Offline shim for the `serde` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the part of serde it still calls: [`Serialize`] for the values the
//! `serde_json` shim's `json!` macro renders into reports, and
//! [`Deserialize`] for the one type reports are read back into, [`Value`].
//!
//! Instead of serde's visitor architecture, everything funnels through one
//! dynamically-typed [`Value`] tree: `Serialize` renders a value tree,
//! `Deserialize` rebuilds a type from one. The JSON text layer lives in the
//! sibling `serde_json` shim. The `serde_derive` dependency is unused; it
//! stays until the next lock regeneration (see that crate's docs).

mod value;

pub use value::{write_json_string, Number, Value};

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value of this type, or explains why the tree is invalid.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Blanket implementations for primitives and std containers.
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I64(*self as i64))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
