//! The dynamically-typed value tree shared by the `serde` and `serde_json`
//! shims. Mirrors `serde_json::Value` closely enough for the workspace:
//! indexing by key/position, `as_*` accessors, and insertion-order-
//! preserving objects.

use std::ops::{Index, IndexMut};

/// A JSON-style number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integer.
    U64(u64),
    /// Negative (or any signed) integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i128(), other.as_i128()) {
            (Some(a), Some(b)) => a == b,
            _ => self.as_f64_lossy() == other.as_f64_lossy(),
        }
    }
}

impl Number {
    fn as_i128(self) -> Option<i128> {
        match self {
            Number::U64(n) => Some(n as i128),
            Number::I64(n) => Some(n as i128),
            Number::F64(_) => None,
        }
    }

    fn as_f64_lossy(self) -> f64 {
        match self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(n) => n,
        }
    }
}

/// A dynamically-typed value tree (JSON data model).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(n)) => Some(*n),
            Value::Number(Number::I64(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64_lossy()),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable elements, if the value is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if the value is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable fields, if the value is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

impl std::fmt::Display for Value {
    /// Writes compact JSON, matching `serde_json::Value`'s `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Number::U64(n)) => write!(f, "{n}"),
            Value::Number(Number::I64(n)) => write!(f, "{n}"),
            Value::Number(Number::F64(n)) => {
                // serde_json has no representation for non-finite floats.
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Value::String(s) => write_json_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal with the required escapes.
pub fn write_json_string(f: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Shared out-of-band `Null` for missing-key shared indexing.
static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if self.is_null() {
            *self = Value::Object(Vec::new());
        }
        let obj = self
            .as_object_mut()
            .unwrap_or_else(|| panic!("cannot index non-object by string"));
        if !obj.iter().any(|(k, _)| k == key) {
            obj.push((key.to_owned(), Value::Null));
        }
        let i = obj.iter().position(|(k, _)| k == key).unwrap();
        &mut obj[i].1
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl IndexMut<usize> for Value {
    fn index_mut(&mut self, i: usize) -> &mut Value {
        self.as_array_mut()
            .unwrap_or_else(|| panic!("cannot index non-array by position"))
            .get_mut(i)
            .unwrap_or_else(|| panic!("array index out of bounds"))
    }
}

macro_rules! from_num {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(Number::$variant(n as _))
            }
        }
    )*};
}

from_num!(u8 => U64, u16 => U64, u32 => U64, u64 => U64, usize => U64,
          i8 => I64, i16 => I64, i32 => I64, i64 => I64, isize => I64,
          f32 => F64, f64 => F64);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
