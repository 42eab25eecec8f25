//! Runtime values.
//!
//! The engine stores rows as vectors of [`Value`].  The variants mirror the
//! PostgreSQL types MADlib methods actually use: `double precision`,
//! `bigint`, `boolean`, `text`, `double precision[]` (the workhorse type for
//! feature vectors, as in the paper's Listing 1), `text[]` (token sequences
//! for the text-analytics module), and NULL.

use crate::error::{EngineError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single SQL-style runtime value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// `boolean`.
    Bool(bool),
    /// `bigint`.
    Int(i64),
    /// `double precision`.
    Double(f64),
    /// `text`.
    Text(String),
    /// `double precision[]` — the representation used for feature vectors.
    DoubleArray(Vec<f64>),
    /// `text[]` — token sequences for text analytics.
    TextArray(Vec<String>),
    /// `bigint[]` — label/index sequences.
    IntArray(Vec<i64>),
}

impl Value {
    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as `f64`, coercing integers; errors on other types.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(EngineError::TypeMismatch {
                expected: "double precision",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as `i64`; errors on non-integer types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(EngineError::TypeMismatch {
                expected: "bigint",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as `bool`; errors on other types.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(EngineError::TypeMismatch {
                expected: "boolean",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as text; errors on other types.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "text",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as `double precision[]`; errors on other types.
    pub fn as_double_array(&self) -> Result<&[f64]> {
        match self {
            Value::DoubleArray(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "double precision[]",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as `text[]`; errors on other types.
    pub fn as_text_array(&self) -> Result<&[String]> {
        match self {
            Value::TextArray(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "text[]",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Interpret as `bigint[]`; errors on other types.
    pub fn as_int_array(&self) -> Result<&[i64]> {
        match self {
            Value::IntArray(v) => Ok(v),
            other => Err(EngineError::TypeMismatch {
                expected: "bigint[]",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// The SQL-ish name of this value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "bigint",
            Value::Double(_) => "double precision",
            Value::Text(_) => "text",
            Value::DoubleArray(_) => "double precision[]",
            Value::TextArray(_) => "text[]",
            Value::IntArray(_) => "bigint[]",
        }
    }

    /// The value, borrowed.
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Int(v) => ValueRef::Int(*v),
            Value::Double(v) => ValueRef::Double(*v),
            Value::Text(v) => ValueRef::Text(v),
            Value::DoubleArray(v) => ValueRef::DoubleArray(v),
            Value::TextArray(v) => ValueRef::TextArray(v),
            Value::IntArray(v) => ValueRef::IntArray(v),
        }
    }

    /// A stable 64-bit hash of the value, used for hash partitioning and
    /// group-by keys.  Floating-point values hash by bit pattern.
    pub fn stable_hash(&self) -> u64 {
        self.as_ref().stable_hash()
    }
}

/// A [`Value`] borrowed from wherever it is stored — a row, or row `i` of a
/// column buffer ([`crate::chunk::ColumnChunk::value_ref`]) — so that what is
/// defined on values (the placement hash) is defined once, on the stored
/// value, without materializing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Text(&'a str),
    DoubleArray(&'a [f64]),
    TextArray(&'a [String]),
    IntArray(&'a [i64]),
}

impl ValueRef<'_> {
    /// The value, owned.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Double(v) => Value::Double(v),
            ValueRef::Text(v) => Value::Text(v.to_owned()),
            ValueRef::DoubleArray(v) => Value::DoubleArray(v.to_vec()),
            ValueRef::TextArray(v) => Value::TextArray(v.to_vec()),
            ValueRef::IntArray(v) => Value::IntArray(v.to_vec()),
        }
    }

    /// [`Value::stable_hash`]: FNV-1a over a type tag plus the value bytes;
    /// deterministic across runs (unlike `DefaultHasher`, which is randomly
    /// seeded).
    pub(crate) fn stable_hash(self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        fn feed(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        match self {
            ValueRef::Null => feed(&mut h, &[0]),
            ValueRef::Bool(b) => feed(&mut h, &[1, b as u8]),
            ValueRef::Int(v) => {
                feed(&mut h, &[2]);
                feed(&mut h, &v.to_le_bytes());
            }
            ValueRef::Double(v) => {
                feed(&mut h, &[3]);
                feed(&mut h, &v.to_bits().to_le_bytes());
            }
            ValueRef::Text(s) => {
                feed(&mut h, &[4]);
                feed(&mut h, s.as_bytes());
            }
            ValueRef::DoubleArray(a) => {
                feed(&mut h, &[5]);
                for v in a {
                    feed(&mut h, &v.to_bits().to_le_bytes());
                }
            }
            ValueRef::TextArray(a) => {
                feed(&mut h, &[6]);
                for s in a {
                    feed(&mut h, s.as_bytes());
                    feed(&mut h, &[0xff]);
                }
            }
            ValueRef::IntArray(a) => {
                feed(&mut h, &[7]);
                for v in a {
                    feed(&mut h, &v.to_le_bytes());
                }
            }
        }
        h
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::DoubleArray(a) => {
                write!(f, "{{")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::TextArray(a) => write!(f, "{{{}}}", a.join(",")),
            Value::IntArray(a) => {
                write!(f, "{{")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::DoubleArray(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::Double(2.5).as_double().unwrap(), 2.5);
        assert_eq!(Value::Int(3).as_double().unwrap(), 3.0);
        assert_eq!(Value::Bool(true).as_double().unwrap(), 1.0);
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert!(!Value::Bool(false).as_bool().unwrap());
        assert_eq!(Value::Text("hi".into()).as_text().unwrap(), "hi");
        assert_eq!(
            Value::DoubleArray(vec![1.0, 2.0])
                .as_double_array()
                .unwrap(),
            &[1.0, 2.0]
        );
        assert_eq!(
            Value::TextArray(vec!["a".into()]).as_text_array().unwrap(),
            &["a".to_owned()]
        );
        assert_eq!(Value::IntArray(vec![1, 2]).as_int_array().unwrap(), &[1, 2]);
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(Value::Text("x".into()).as_double().is_err());
        assert!(Value::Double(1.0).as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Null.as_text().is_err());
        assert!(Value::Double(1.0).as_double_array().is_err());
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1.5), Value::Double(1.5));
        assert_eq!(Value::from(2i64), Value::Int(2));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("abc"), Value::Text("abc".into()));
        assert_eq!(Value::from(vec![1.0]), Value::DoubleArray(vec![1.0]));
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminating() {
        let a = Value::Text("alpha".into());
        assert_eq!(a.stable_hash(), Value::Text("alpha".into()).stable_hash());
        assert_ne!(a.stable_hash(), Value::Text("beta".into()).stable_hash());
        assert_ne!(
            Value::Int(1).stable_hash(),
            Value::Double(1.0).stable_hash()
        );
        assert_ne!(Value::Null.stable_hash(), Value::Int(0).stable_hash());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::DoubleArray(vec![1.0, 2.0]).to_string(), "{1,2}");
        assert_eq!(
            Value::TextArray(vec!["a".into(), "b".into()]).to_string(),
            "{a,b}"
        );
        assert_eq!(Value::IntArray(vec![3, 4]).to_string(), "{3,4}");
    }
}
