//! A minimal JSON value with a writer — enough for the benchmark's report.

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Int(u64),
    /// A float, written with all its digits.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn put(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(kv) => kv.push((key.to_string(), value.into())),
            _ => panic!("put on a non-object"),
        }
        self
    }

    /// An array of integers.
    pub fn ints(v: &[u64]) -> Self {
        Json::Arr(v.iter().map(|&x| Json::Int(x)).collect())
    }

    /// An array of floats recorded bit-exactly, as hex strings of their
    /// IEEE-754 bits.
    pub fn float_bits(v: &[f64]) -> Self {
        Json::Arr(
            v.iter()
                .map(|x| Json::Str(format!("{:016x}", x.to_bits())))
                .collect(),
        )
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Int(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Int(x as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Self {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Self {
        Json::Str(x.to_string())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(x) => write!(f, "{x}"),
            // `{:?}` prints the shortest string that round-trips, always
            // with a decimal point or exponent; JSON has no NaN/inf.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(kv) => {
                f.write_str("{")?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}
